"""Span tracing of ``repro``'s layers from outside the package.

:class:`LayerTracer` wraps each layer's public functions in place: class
attributes, plus every ``repro.*`` module global bound to a wrapped free
function (``canonical_json``, ``parallel_map``, ... are imported by name, so
patching only their home module would miss most callers). Nothing under
``src/repro`` is edited, and :meth:`LayerTracer.uninstall` restores every
binding it replaced.

A span is ``[name, layer, start, end, parent, op, n, scale]``: ``parent`` is
the enclosing span (or None), ``op`` the benchmark op id current when it
opened, ``n`` a size (bytes or items) for the few functions that have one.
A per-thread stack gives the parent. ``parallel_map`` is wrapped so that every
item runs in a ``<caller>/item`` span parented under its call, whichever
worker thread runs it; an item counts toward the layer that called
``parallel_map`` (chunking under ``IpfsCluster.add_many`` is IPFS work, in
``ipfs.add_many/item`` spans).

Self time is a span's duration minus the part of it its child spans cover.
Items of one ``parallel_map`` call overlap in time, so their subtrees are
scaled by (union of the items' intervals) / (sum of their durations): the
scaled self times of an op then add up to at most the op's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

NAME, LAYER, START, END, PARENT, OP, SIZE, SCALE = range(8)

# Layers that are not a ``repro`` module: the benchmark's op span, and work
# run by core orchestration code that no wrapped function covers.
UNATTRIBUTED = ("op", "core")


def _size_arg(index, key):
    def size(args, kwargs, result):
        value = kwargs.get(key) if key in kwargs else args[index]
        return len(value)

    return size


def _size_result(args, kwargs, result):
    return len(result)


def _size_many(args, kwargs, result):
    return sum(len(p) for p in args[1])


def _size_fetch(args, kwargs, result):
    return len(result[0])


def _size_frame(args, kwargs, result):
    # DurableStore frames each record as [4B len | 8B sha256 prefix | payload].
    return len(args[2]) + 12


def targets():
    """``(layer, owner, attribute, span name, size fn)`` for every wrapped
    function. Imported lazily: the package must be importable first."""
    from repro.core.framework import Framework
    from repro.crypto.keys import PrivateKey, PublicKey
    from repro.fabric.channel import Channel
    from repro.fabric.orderer import BftOrderer
    from repro.fabric.peer import Peer
    from repro.index import secondary
    from repro.index.secondary import PeerIndex
    from repro.ipfs.cluster import IpfsCluster
    from repro.query import executor, planner
    from repro.query.executor import QueryEngine
    from repro.storage.durable import DurableStore
    from repro.storage.persistence import DurabilityManager
    from repro.trust.engine import TrustEngine
    from repro.util import parallel, serialization

    return [
        ("fabric", Channel, "invoke", "fabric.invoke", None),
        ("fabric", Channel, "invoke_async", "fabric.invoke_async", None),
        ("fabric", Channel, "endorse", "fabric.endorse", None),
        ("fabric", Channel, "assemble", "fabric.assemble", None),
        ("fabric", Channel, "flush", "fabric.flush", None),
        ("fabric", Channel, "query", "fabric.query", None),
        ("fabric", Peer, "endorse", "fabric.peer_endorse", None),
        ("fabric", Peer, "commit_block", "fabric.commit", None),
        ("consensus", BftOrderer, "submit", "consensus.submit", None),
        ("consensus", BftOrderer, "flush", "consensus.flush", None),
        ("crypto", PrivateKey, "sign", "crypto.sign", None),
        ("crypto", PublicKey, "verify", "crypto.verify", None),
        ("serialization", serialization, "canonical_json",
         "serialization.canonical_json", _size_result),
        ("ipfs", IpfsCluster, "add", "ipfs.add", _size_arg(1, "data")),
        ("ipfs", IpfsCluster, "add_many", "ipfs.add_many", _size_many),
        ("ipfs", IpfsCluster, "cat", "ipfs.cat", _size_result),
        ("ipfs", IpfsCluster, "cat_many", "ipfs.cat_many", None),
        ("parallel", parallel, "parallel_map", "parallel.parallel_map", None),
        ("index", PeerIndex, "apply_block", "index.apply", None),
        ("index", PeerIndex, "root", "index.root", None),
        ("index", PeerIndex, "prove", "index.prove", None),
        ("index", PeerIndex, "lookup", "index.lookup", None),
        ("index", PeerIndex, "lookup_time_range", "index.lookup", None),
        ("index", secondary, "verify_answer_records", "index.verify", None),
        ("query", planner, "plan_query", "query.plan", None),
        ("query", executor, "parse_query", "query.parse", None),
        ("query", QueryEngine, "run", "query.run", None),
        ("query", QueryEngine, "run_verified", "query.run_verified", None),
        ("query", QueryEngine, "get", "query.get", None),
        ("query", QueryEngine, "fetch_payload_verified", "query.fetch", _size_fetch),
        ("trust", TrustEngine, "admit", "trust.admit", None),
        ("trust", TrustEngine, "record_validation", "trust.record_validation", None),
        ("trust", Framework, "record_trust_on_chain", "trust.chain_write", None),
        ("resilience", Framework, "resilient_invoke", "resilience.invoke", None),
        ("storage", DurabilityManager, "record_commit", "storage.record_commit", None),
        ("storage", DurabilityManager, "record_submit", "storage.record_submit", None),
        ("storage", DurabilityManager, "record_batch", "storage.record_batch", None),
        ("storage", DurabilityManager, "checkpoint_peer", "storage.checkpoint", None),
        ("storage", DurabilityManager, "checkpoint_validators",
         "storage.checkpoint_validators", None),
        ("storage", DurableStore, "sync", "storage.sync", None),
        ("storage", DurableStore, "append", "storage.append", _size_frame),
        ("storage", DurableStore, "write_file", "storage.write_file", _size_arg(2, "content")),
    ]


class LayerTracer:
    """Records spans around ``repro``'s layer functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None  # id of the benchmark op in progress
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> list:
        stack = self._stack()
        span = [name, layer, 0.0, 0.0, stack[-1] if stack else None, self.op, 0, 1.0]
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def op_span(self, op_id: int, kind: str):
        """One benchmark op: the root span its layer spans hang on."""
        self.op = op_id
        span = self._open("op." + kind, "op")
        try:
            yield span
        finally:
            self._close(span)
            self.op = None

    def _wrap(self, fn, name: str, layer: str, size):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if size is not None:
                span[SIZE] = size(args, kwargs, result)
            return result

        return wrapper

    def _wrap_parallel_map(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(item_fn, items, *args, **kwargs):
            items = list(items)
            call = tracer._open(name, layer)
            call[SIZE] = len(items)
            caller = call[PARENT]
            item_layer = caller[LAYER] if caller is not None else "core"
            item_name = (caller[NAME] if caller is not None else "core") + "/item"
            op = tracer.op

            def traced_item(item):
                stack = tracer._stack()
                pushed = not stack or stack[-1] is not call
                if pushed:  # a worker thread: start its stack at the call
                    stack.append(call)
                span = [item_name, item_layer, 0.0, 0.0, call, op, 0, 1.0]
                tracer.spans.append(span)
                stack.append(span)
                span[START] = perf_counter()
                try:
                    return item_fn(item)
                finally:
                    span[END] = perf_counter()
                    stack.pop()
                    if pushed:
                        stack.pop()

            try:
                return fn(traced_item, items, *args, **kwargs)
            finally:
                tracer._close(call)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer, owner, attr, name, size in targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if attr == "parallel_map":
                wrapper = self._wrap_parallel_map(original, name, layer)
            else:
                wrapper = self._wrap(original, name, layer, size)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # A free function: rebind it wherever a repro module imported it.
            for mod_name, module in list(sys.modules.items()):
                if not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------------

    def analyse(self) -> "SpanStats":
        """Self times (scaled for parallel overlap), aggregated per name."""
        children: dict[int, list[list]] = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                children[id(span[PARENT])].append(span)
        factors: dict[int, float] = {}
        stats = SpanStats()
        # Parents open before their children, so one forward pass sees every
        # parent's scale before its children need it.
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                factor = 1.0
                if parent[NAME] == "parallel.parallel_map":
                    if id(parent) not in factors:
                        factors[id(parent)] = _overlap_factor(parent, children[id(parent)])
                    factor = factors[id(parent)]
                span[SCALE] = parent[SCALE] * factor
            duration = span[END] - span[START]
            covered = _union(children.get(id(span), ()), span[START], span[END])
            stats.add(span, duration, max(0.0, duration - covered) * span[SCALE])
            if span[NAME] == "fabric.invoke" and _has_ancestor(span, "resilience.invoke"):
                stats.calls["resilience.attempt"] += 1
        return stats

    def write(self, path: str) -> None:
        """Write the spans as JSON: one ``[name, layer, start, end, parent
        index, op, size]`` row per span, times in seconds."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [s[NAME], s[LAYER], round(s[START], 7), round(s[END], 7),
             index.get(id(s[PARENT])), s[OP], s[SIZE]]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "layer", "start", "end", "parent", "op", "size"],
                       "spans": rows}, fh, separators=(",", ":"))


def _overlap_factor(call: list, items: list[list]) -> float:
    """Share of each overlapping ``parallel_map`` item's time that counts."""
    total = sum(s[END] - s[START] for s in items)
    return _union(items, call[START], call[END]) / total if total > 0 else 1.0


def _has_ancestor(span: list, name: str) -> bool:
    parent = span[PARENT]
    while parent is not None:
        if parent[NAME] == name:
            return True
        parent = parent[PARENT]
    return False


def _union(spans, lo: float, hi: float) -> float:
    """Length of the union of the spans' intervals, clipped to [lo, hi]."""
    if not spans:
        return 0.0
    intervals = sorted((max(lo, s[START]), min(hi, s[END])) for s in spans)
    total, cur_lo, cur_hi = 0.0, intervals[0][0], intervals[0][1]
    for a, b in intervals[1:]:
        if a > cur_hi:
            total += max(0.0, cur_hi - cur_lo)
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    return total + max(0.0, cur_hi - cur_lo)


class SpanStats:
    """Per span-name totals: calls, inclusive and self seconds, sizes."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.size: dict[str, int] = defaultdict(int)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.op_wall_s = 0.0

    def add(self, span: list, duration: float, self_time: float) -> None:
        name = span[NAME]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += self_time
        self.size[name] += span[SIZE]
        self.layer_self_s[span[LAYER]] += self_time
        if span[LAYER] == "op":
            self.op_wall_s += duration

    def unattributed_frac(self) -> float:
        """Share of the ops' wall time that no layer's self time covers."""
        if self.op_wall_s <= 0:
            return 0.0
        loose = sum(self.layer_self_s[layer] for layer in UNATTRIBUTED)
        return loose / self.op_wall_s
