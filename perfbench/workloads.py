"""The benchmark's three workloads: input generator, set-up, timed ops, checks.

Every input is generated here from the seed, outside the timed ops; payloads
come from :func:`repro.workloads.filesizes.payload`. The program only ever
sees the generated inputs. Load is one closed-loop client with no think
time: each op is a synchronous in-process call, issued when the previous one
returned. PBFT and bitswap messages travel through ``SimNetwork``'s default
1 ms ``ConstantLatency``, which is simulated time, so wall latency is CPU
time.

Each workload has ``inputs(seed, n)`` for ``n`` ops; ``prepare(inputs, i)``,
run untimed before op ``i``; ``setup(inputs, pause)``, the timed set-up,
returning the state, which calls ``pause()`` between long steps (see
``run.set_up``); ``op(state, inputs, i)``, one timed op, returning an
:class:`Outcome` or raising :class:`WrongAnswer`; ``engines(state)``, the
query engines whose stats the per-layer metrics read; and
``check(state, inputs)``, the invariants after the timed ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
from dataclasses import dataclass

from repro.core import Client, Framework, FrameworkConfig
from repro.core.ingest import BatchIngestor
from repro.errors import ReproError
from repro.obs.explorer import LedgerExplorer
from repro.trust import SourceTier
from repro.trust.crossval import Observation
from repro.util.clock import WallClock
from repro.util.rng import rng_for
from repro.workloads.filesizes import payload
from repro.workloads.traffic import IngestItem

KIB = 1024
# Bucket-aligned (a multiple of the data chaincode's 600 s time bucket).
T0 = 1_700_000_400.0
BUCKET_S = 600
CLASSES = ("car", "truck", "bus", "motorcycle")
# Source tiers, by source id: src-0 trusted, src-1 untrusted, ...
TIERS = (True, False, True, False)
# store_fresh's submitting source, cycled. Trusted and untrusted submits take
# 3 and 4 ordered transactions, two clusters of latency: at 1:1 the median
# would sit in the gap between them and jump from run to run, so two thirds
# of the submits come from the trusted half of the sources.
SUBMITTERS = (0, 1, 2, 0, 3, 2)


@contextlib.contextmanager
def stepped_wall_clock(start: float = T0, step: float = 0.001):
    """Make ``WallClock.now`` return ``start``, ``start + step``, ... .

    Proposal and block timestamps are serialized into transactions, so with
    the real clock the bytes signed, hashed and stored vary by a digit or two
    from run to run. A stepped clock makes every pass at one seed do the same
    work, byte for byte; reading it costs no more than ``time.time()``.
    """
    ticks = itertools.count()
    original = WallClock.now
    WallClock.now = lambda self: start + step * next(ticks)
    try:
        yield
    finally:
        WallClock.now = original


class WrongAnswer(Exception):
    """An op returned, but not what the generator says it must."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


@dataclass
class Outcome:
    """What one op returned, for the run's accounting."""

    kind: str
    entries: int = 0  # data entries committed (writes) or returned (reads)


def _sources(fw: Framework, tiers: tuple[bool, ...] = TIERS) -> list:
    """Register ``src-0``, ``src-1``, ...; ``tiers[k]`` says if ``src-k`` is
    trusted."""
    return [
        fw.register_source(
            f"src-{k}", tier=SourceTier.TRUSTED if trusted else SourceTier.UNTRUSTED
        )
        for k, trusted in enumerate(tiers)
    ]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _record(rng, i: int, camera: str, timestamp: float) -> dict:
    return {
        "camera_id": camera,
        "timestamp": timestamp,
        "detections": [{"vehicle_class": CLASSES[int(rng.integers(len(CLASSES)))]}],
        "frame": i,
    }


def _ipfs_bytes(fw: Framework) -> int:
    return sum(node.blockstore.total_bytes() for node in fw.ipfs.nodes.values())


def _durable_bytes(fw: Framework) -> int:
    if fw.durability is None:
        return 0
    stores = list(fw.durability.stores.values()) + [fw.durability.orderer_store]
    total = 0
    for store in stores:
        total += sum(store.log_bytes(log) for log in store.logs())
        total += sum(len(store.read_file(name) or b"") for name in store.files())
    return total


def system_counters(fw: Framework, engines) -> dict[str, int]:
    """Counts the program keeps itself, read outside any timed window."""
    orderer = fw.channel.orderer
    stats = [engine.stats for engine in engines]
    return {
        "txs": orderer.txs_ordered,
        "blocks": fw.channel.height(),
        "consensus_msgs": orderer.consensus_messages,
        "consensus_bytes": orderer.cluster.network.stats.bytes_sent,
        "ipfs_blocks": fw.ipfs.stat().total_blocks,
        "queries": sum(s.queries for s in stats),
        "cache_hits": sum(s.cache_hits for s in stats),
        "rows_scanned": sum(s.rows_scanned for s in stats),
        "rows_returned": sum(s.rows_returned for s in stats),
    }


def check_replicas(fw: Framework) -> list[str]:
    """Equal height and world state on every peer, and a clean audit."""
    problems = []
    peers = list(fw.channel.peers.values())
    heights = {p.name: p.ledger.height for p in peers}
    if len(set(heights.values())) != 1:
        problems.append(f"peer heights differ: {heights}")
    states = {}
    for p in peers:
        digest = hashlib.sha256()
        for key, value in p.world.range():
            digest.update(key.encode() + b"\0" + value + b"\0")
        states[p.name] = digest.hexdigest()
    if len(set(states.values())) != 1:
        problems.append(f"peer world states differ: {states}")
    report = LedgerExplorer(fw.channel, fw.ipfs).audit_chain()
    problems.extend(f"audit: {finding}" for finding in report.findings)
    return problems


def _read_back(engine, entry_id: str, sha: str) -> list[str]:
    """Fetch an entry's bytes, verified against the chain, and compare them
    with the generator's hash; returns the problem found, if any."""
    try:
        row = engine.get(entry_id, fetch_data=True, verify=True)
    except ReproError as exc:
        return [f"entry {entry_id}: {type(exc).__name__}: {exc}"]
    if not (row.verified and _sha(row.data) == sha):
        return [f"entry {entry_id} does not read back its payload"]
    return []


def stored_bytes_per_user_byte(fw: Framework, user_bytes: int) -> float:
    """IPFS blocks on every node plus synced durable bytes, per payload byte."""
    return (_ipfs_bytes(fw) + _durable_bytes(fw)) / user_bytes


class Workload:
    """Defaults shared by the workloads below."""

    def prepare(self, inputs, i: int) -> None:
        """Build op ``i``'s inputs just before it runs (untimed); most
        workloads build them all in :meth:`inputs`."""


# -- store_fresh ---------------------------------------------------------------


class StoreFresh(Workload):
    """Fig. 5's store path: ``Client.submit`` of one 16 KiB item at a time."""

    name = "store_fresh"
    main = "store"  # the op kind p50_ms and tail_ms describe
    tail = 99  # tail_ms, over all ops: ≥ 10 of ≥ 1000 submits beyond p99
    min_ops = 1000
    rate = 80  # ops/s that size a run to about --seconds on a 2-core x86 box
    probe_every = 1  # ops between CPU-speed samples (see speed.py)
    # Set-ups timed before and after the ops: a set-up takes milliseconds,
    # and samples spread over the run ride out the machine's slow spells.
    setup_repeats = (6, 6)
    config = FrameworkConfig()  # 2 peers, BFT n=4, max_batch_size=1, index on
    size = 16 * KIB

    def inputs(self, seed: int, n: int) -> dict:
        rng = rng_for(seed, "perfbench", self.name)
        items = []
        for i in range(n):
            data = payload(self.size, seed=seed, label=f"{self.name}/{i}")
            # 16 cameras and ~2 time buckets: a small index, as on a new ledger.
            camera = f"cam-{int(rng.integers(16)):03d}"
            items.append((SUBMITTERS[i % len(SUBMITTERS)], data, _sha(data),
                          _record(rng, i, camera, T0 + i * 0.5)))
        return {"items": items}

    def setup(self, inputs: dict, pause) -> dict:
        fw = Framework(self.config)
        clients = [Client(fw, identity) for identity in _sources(fw)]
        return {"fw": fw, "clients": clients, "entries": [], "user_bytes": 0}

    def engines(self, state: dict):
        return [c.engine for c in state["clients"]]

    def op(self, state: dict, inputs: dict, i: int) -> Outcome:
        source, data, sha, metadata = inputs["items"][i]
        receipt = state["clients"][source].submit(data, metadata)
        _expect(receipt.ok, f"submit {i} not ok: {receipt.validation_code}")
        _expect(receipt.data_hash == sha, f"submit {i}: wrong data hash")
        state["entries"].append((receipt.entry_id, i))
        state["user_bytes"] += len(data)
        return Outcome("store", entries=1)

    def check(self, state: dict, inputs: dict) -> list[str]:
        problems = check_replicas(state["fw"])
        engine = state["clients"][0].engine
        for entry_id, i in state["entries"][::16]:
            problems += _read_back(engine, entry_id, inputs["items"][i][2])
        return problems


# -- ingest_durable ----------------------------------------------------------------


class IngestDurable(Workload):
    """``BatchIngestor.ingest`` of 16 × 256 KiB batches with durable peers."""

    name = "ingest_durable"
    main = "batch"
    tail = 90  # ≥ 10 of ≥ 100 batches beyond p90
    min_ops = 100
    rate = 4
    probe_every = 1
    setup_repeats = (6, 6)
    config = FrameworkConfig(
        max_batch_size=16, durability=True, wal_sync_every=1, checkpoint_interval=8
    )
    batch = 16
    size = 256 * KIB  # four 64 KiB chunks
    # Each batch comes from one source (an edge node uploading 16 frames), the
    # sources taking turns. A batch cuts one data block, two provenance
    # blocks and, from an untrusted source, one trust-score block: 13 blocks
    # per four batches, so about two batches in five take a checkpoint, and
    # a checkpoint costs more the larger the ledger. With checkpoints in most
    # batches the median sat on that rising slope, where batches are sparse,
    # and moved 15% from run to run; now it sits among the batches without.
    tiers = (True, True, True, False)

    def inputs(self, seed: int, n: int) -> dict:
        rng = rng_for(seed, "perfbench", self.name)
        batches = []
        for b in range(n):
            items = []
            for j in range(self.batch):
                k = b * self.batch + j
                metadata = _record(rng, k, f"cam-{j:03d}", T0 + k * 0.25)
                metadata["source_id"] = f"src-{b % len(self.tiers)}"
                items.append((k, metadata))
            batches.append(items)
        return {"seed": seed, "batches": batches, "hashes": [None] * n, "ready": None}

    def prepare(self, inputs: dict, b: int) -> None:
        """Generate batch ``b``'s payloads just before its (timed) op.

        All 100+ batches up front would hold another 400 MiB beside the
        copy IPFS keeps; only their hashes are kept, for the check.
        """
        items = []
        for k, metadata in inputs["batches"][b]:
            source = metadata["source_id"]
            data = payload(self.size, seed=inputs["seed"], label=f"{self.name}/{k}")
            obs = Observation(source, 0.0, 0.0, metadata["timestamp"])
            items.append(IngestItem(source, data, metadata, obs))
        inputs["ready"] = items
        inputs["hashes"][b] = [_sha(item.payload) for item in items]

    def setup(self, inputs: dict, pause) -> dict:
        fw = Framework(self.config)
        ingestor = BatchIngestor(fw)
        identities = _sources(fw, self.tiers)
        for identity in identities:
            ingestor.register(identity)
        reader = Client(fw, identities[0])
        return {"fw": fw, "ingestor": ingestor, "reader": reader,
                "entries": [], "user_bytes": 0}

    def engines(self, state: dict):
        return [state["reader"].engine]

    def op(self, state: dict, inputs: dict, b: int) -> Outcome:
        items, inputs["ready"] = inputs["ready"], None
        report = state["ingestor"].ingest(items)
        _expect(report.committed == len(items) and report.rejected == 0,
                f"batch {b}: {report.committed} committed, {report.rejected} rejected")
        state["entries"].append((report.entry_ids, b))
        state["user_bytes"] += report.payload_bytes
        return Outcome("batch", entries=report.committed)

    def check(self, state: dict, inputs: dict) -> list[str]:
        problems = check_replicas(state["fw"])
        engine = state["reader"].engine
        for entry_ids, b in state["entries"]:
            j = b % len(entry_ids)  # one entry per batch, rotating position
            problems += _read_back(engine, entry_ids[j], inputs["hashes"][b][j])
        return problems


# -- mixed_aged -----------------------------------------------------------------------


class MixedAged(Workload):
    """Reads beside writes on an aged ledger with > 1k index posting leaves."""

    name = "mixed_aged"
    main = "read"
    # Over all ops: the read p99 sits among reads slowed by the heavy op
    # before them and swung 0.65-1.9 ms between runs of the same code.
    tail = 99
    min_ops = 1700
    rate = 175
    probe_every = 8
    setup_repeats = (3, 0)  # each one builds the aged ledger
    config = FrameworkConfig(max_batch_size=256)
    records = 3072
    cameras = 256  # twelve records each
    preload_batch = 256
    record_step_s = 200.0  # three records per 600 s bucket: 1024 buckets
    size = 16 * KIB
    mix = (("read", 0.60), ("query", 0.20), ("join", 0.10),
           ("verified", 0.05), ("retrieve", 0.05))
    join_limit = 8
    zipf_s = 1.1

    def inputs(self, seed: int, n: int) -> dict:
        rng = rng_for(seed, "perfbench", self.name)
        aged = {"batches": [], "payloads": [], "camera_of": [], "ops": []}
        # Every camera gets the same number of records, so a query's answer
        # size does not depend on the seed.
        cameras = [f"cam-{c:04d}" for c in rng.permutation(self.cameras)]
        for b in range(0, self.records, self.preload_batch):
            items = []
            for k in range(b, b + self.preload_batch):
                source = f"src-{k % len(TIERS)}"
                data = payload(self.size, seed=seed, label=f"{self.name}/{k}")
                camera = cameras[k % self.cameras]
                metadata = _record(rng, k, camera, T0 + k * self.record_step_s)
                metadata["source_id"] = source
                obs = Observation(source, 0.0, 0.0, metadata["timestamp"])
                items.append(IngestItem(source, data, metadata, obs))
                aged["payloads"].append(data)
                aged["camera_of"].append(camera)
            aged["batches"].append(items)
        # Exactly the mix's share of each kind, in seeded order: the seed
        # picks which entries and cameras, not how much work the run does.
        kinds = [kind for kind, share in self.mix for _ in range(round(share * n))]
        kinds = (kinds + ["read"] * n)[:n]
        ranks = [1.0 / (r + 1) ** self.zipf_s for r in range(self.cameras)]
        zipf = [r / sum(ranks) for r in ranks]
        n_buckets = int(self.records * self.record_step_s // BUCKET_S)
        for kind in (kinds[int(j)] for j in rng.permutation(n)):
            if kind in ("read", "retrieve"):
                arg = int(rng.integers(self.records))
            elif kind == "query":
                arg = cameras[int(rng.choice(self.cameras, p=zipf))]
            elif kind == "join":
                arg = cameras[int(rng.integers(self.cameras))]
            else:
                arg = T0 + int(rng.integers(n_buckets - 1)) * BUCKET_S
            aged["ops"].append((kind, arg))
        return aged

    def setup(self, aged: dict, pause) -> dict:
        fw = Framework(self.config)
        # Provenance is off for the preload only: it would triple set-up
        # time, and the timed mix writes its own provenance (retrieve).
        ingestor = BatchIngestor(fw, record_provenance=False)
        identities = _sources(fw)
        for identity in identities:
            ingestor.register(identity)
        entry_ids = []
        for items in aged["batches"]:
            report = ingestor.ingest(items)
            if report.committed != len(items):
                raise RuntimeError(f"preload: {report.committed}/{len(items)} committed")
            entry_ids.extend(report.entry_ids)
            pause()
        by_camera: dict[str, list[int]] = {}
        for k, camera in enumerate(aged["camera_of"]):
            by_camera.setdefault(camera, []).append(k)
        return {"fw": fw, "client": Client(fw, identities[0]), "entry_ids": entry_ids,
                "by_camera": by_camera, "user_bytes": self.records * self.size}

    def engines(self, state: dict):
        return [state["client"].engine]

    def op(self, state: dict, aged: dict, i: int) -> Outcome:
        kind, arg = aged["ops"][i]
        client, ids = state["client"], state["entry_ids"]
        if kind == "read":
            row = client.engine.get(ids[arg], fetch_data=True, verify=True)
            _expect(row.verified and row.data == aged["payloads"][arg], f"read {arg}")
            return Outcome(kind, entries=1)
        if kind == "retrieve":
            got = client.retrieve(ids[arg])
            _expect(got.verified and not got.degraded and got.data == aged["payloads"][arg],
                    f"retrieve {arg}")
            return Outcome(kind, entries=1)
        if kind == "query":
            rows = client.engine.run(f"metadata.camera_id = '{arg}'")
            want = {ids[k] for k in state["by_camera"].get(arg, ())}
            _expect({r.entry_id for r in rows} == want and len(rows) == len(want),
                    f"query {arg}")
            return Outcome(kind, entries=len(rows))
        if kind == "join":
            rows = client.engine.run(
                f"metadata.camera_id = '{arg}' LIMIT {self.join_limit}", fetch_data=True
            )
            want = sorted(ids[k] for k in state["by_camera"].get(arg, ()))[: self.join_limit]
            _expect([r.entry_id for r in rows] == want, f"join {arg}")
            index_of = {ids[k]: k for k in state["by_camera"].get(arg, ())}
            for r in rows:
                _expect(r.verified and r.data == aged["payloads"][index_of[r.entry_id]],
                        f"join {arg}: payload of {r.entry_id}")
            return Outcome(kind, entries=len(rows))
        # A two-bucket time window, answered with membership proofs.
        hi = arg + 2 * BUCKET_S - 1
        answer = client.engine.run_verified(
            f"metadata.timestamp >= {arg:.0f} AND metadata.timestamp <= {hi:.0f}"
        )
        first = int((arg - T0) // self.record_step_s)
        span = int(2 * BUCKET_S // self.record_step_s)
        want = {ids[k] for k in range(first, min(self.records, first + span))}
        got = {r["entry_id"] for r in answer.records}
        _expect(got == want and len(answer.records) == len(want), f"verified {arg}")
        _expect(answer.verify() == len(answer.records), f"verified {arg}: proofs")
        return Outcome(kind, entries=len(answer.records))

    def check(self, state: dict, aged: dict) -> list[str]:
        return check_replicas(state["fw"])


WORKLOADS = {w.name: w for w in (StoreFresh(), IngestDurable(), MixedAged())}

