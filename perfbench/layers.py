"""Per-layer metrics of a traced pass, and the end-to-end metric each should move.

A layer is a ``src/repro`` module. Denominators, measured over the pass:

* *entry*: a data entry committed (``store_fresh``, ``ingest_durable``) or
  returned to the client (``mixed_aged``, which commits none).
* *tx*: a transaction ordered (``BftOrderer.txs_ordered``).
* *block*: a block added to the chain (``Channel.height``), counted once
  however many peers commit it.
* *batch*: one ``BatchIngestor.ingest`` call; one op elsewhere.

Self time is defined in :mod:`tracing`. A metric whose denominator is zero on
a workload reads 0. ``exact`` marks the counts that must repeat exactly
between two traced passes at one seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

MIB = float(1 << 20)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    exact: bool
    moves: str  # the end-to-end metric (and workload) it should move
    value: Callable[["Pass"], float]


@dataclass
class Pass:
    """Everything a traced pass measured, for the metric functions."""

    stats: object  # tracing.SpanStats
    delta: dict  # system counter deltas over the pass
    entries: int
    batches: int
    user_bytes: int
    leaves: int
    traced_s: float  # summed op time of the traced pass
    untraced_s: float  # the same, untraced
    op_ms: dict  # untraced pass: p50 per op kind, and "read_p99"

    def per(self, num: float, den: float) -> float:
        return num / den if den else 0.0

    def calls(self, *names: str) -> int:
        return sum(self.stats.calls.get(n, 0) for n in names)

    def self_ms(self, *names: str) -> float:
        return 1e3 * sum(self.stats.self_s.get(n, 0.0) for n in names)

    def total_ms(self, *names: str) -> float:
        return 1e3 * sum(self.stats.total_s.get(n, 0.0) for n in names)

    def item_ms(self) -> float:
        """Summed duration of every ``parallel_map`` item."""
        return 1e3 * sum(t for n, t in self.stats.total_s.items() if n.endswith("/item"))

    def size(self, *names: str) -> int:
        return sum(self.stats.size.get(n, 0) for n in names)

    @property
    def txs(self) -> int:
        return self.delta["txs"]

    @property
    def blocks(self) -> int:
        return self.delta["blocks"]


STORE = "p50_ms/tail_ms@store_fresh"
INGEST = "entries_per_s/p50_ms@ingest_durable"
MIXED = "ops_per_s/p50_ms@mixed_aged"

_ADD = ("ipfs.add", "ipfs.add_many", "ipfs.add_many/item")
_CAT = ("ipfs.cat", "ipfs.cat_many", "ipfs.cat_many/item")
_CHECKPOINT = ("storage.checkpoint",)

METRICS = [
    # fabric
    Metric("fabric.txs_per_entry", "count", "lower", True, f"{STORE}; {INGEST}",
           lambda p: p.per(p.txs, p.entries)),
    Metric("fabric.blocks_per_entry", "count", "lower", True, f"{STORE}; {INGEST}",
           lambda p: p.per(p.blocks, p.entries)),
    Metric("fabric.endorse.self_ms_per_tx", "ms", "lower", False, f"{STORE}; {INGEST}",
           lambda p: p.per(p.self_ms("fabric.endorse"), p.txs)),
    Metric("fabric.peer_endorse.calls_per_tx", "count", "lower", True, STORE,
           lambda p: p.per(p.calls("fabric.peer_endorse"), p.txs)),
    Metric("fabric.peer_endorse.self_ms_per_call", "ms", "lower", False, STORE,
           lambda p: p.per(p.self_ms("fabric.peer_endorse"), p.calls("fabric.peer_endorse"))),
    Metric("fabric.commit.self_ms_per_block", "ms", "lower", False, f"{STORE}; {INGEST}",
           lambda p: p.per(p.self_ms("fabric.commit"), p.blocks)),
    Metric("fabric.query.self_ms_per_call", "ms", "lower", False, MIXED,
           lambda p: p.per(p.self_ms("fabric.query"), p.calls("fabric.query"))),
    # consensus
    Metric("consensus.msgs_per_entry", "count", "lower", True, STORE,
           lambda p: p.per(p.delta["consensus_msgs"], p.entries)),
    Metric("consensus.bytes_per_entry", "bytes", "lower", True, STORE,
           lambda p: p.per(p.delta["consensus_bytes"], p.entries)),
    Metric("consensus.flush.self_ms_per_block", "ms", "lower", False, STORE,
           lambda p: p.per(p.self_ms("consensus.flush", "consensus.submit"), p.blocks)),
    # crypto
    Metric("crypto.sign.calls_per_entry", "count", "lower", True, STORE,
           lambda p: p.per(p.calls("crypto.sign"), p.entries)),
    Metric("crypto.sign.self_ms_per_entry", "ms", "lower", False, STORE,
           lambda p: p.per(p.self_ms("crypto.sign"), p.entries)),
    Metric("crypto.verify.calls_per_entry", "count", "lower", True, STORE,
           lambda p: p.per(p.calls("crypto.verify"), p.entries)),
    Metric("crypto.verify.self_ms_per_entry", "ms", "lower", False, STORE,
           lambda p: p.per(p.self_ms("crypto.verify"), p.entries)),
    # serialization
    Metric("serialization.canonical_json.calls_per_tx", "count", "lower", True,
           f"{STORE}; {INGEST}",
           lambda p: p.per(p.calls("serialization.canonical_json"), p.txs)),
    Metric("serialization.canonical_json.bytes_per_tx", "bytes", "lower", True,
           f"{STORE}; {INGEST}",
           lambda p: p.per(p.size("serialization.canonical_json"), p.txs)),
    Metric("serialization.canonical_json.self_ms_per_tx", "ms", "lower", False,
           f"{STORE}; {INGEST}",
           lambda p: p.per(p.self_ms("serialization.canonical_json"), p.txs)),
    # ipfs
    Metric("ipfs.add.self_ms_per_mib", "ms/MiB", "lower", False,
           "p50_ms@ingest_durable",
           lambda p: p.per(p.self_ms(*_ADD), p.size("ipfs.add", "ipfs.add_many") / MIB)),
    Metric("ipfs.cat.self_ms_per_mib", "ms/MiB", "lower", False, "read p50_ms@mixed_aged",
           lambda p: p.per(p.self_ms(*_CAT), p.size("ipfs.cat") / MIB)),
    Metric("ipfs.blocks_per_entry", "count", "lower", True, INGEST,
           lambda p: p.per(p.delta["ipfs_blocks"], p.entries)),
    # parallel
    Metric("parallel.calls_per_batch", "count", "lower", True,
           f"{INGEST}; {MIXED} (join); none on store_fresh",
           lambda p: p.per(p.calls("parallel.parallel_map"), p.batches)),
    Metric("parallel.items_per_call", "count", "higher", True, INGEST,
           lambda p: p.per(p.size("parallel.parallel_map"), p.calls("parallel.parallel_map"))),
    Metric("parallel.wall_ms_per_call", "ms", "lower", False, INGEST,
           lambda p: p.per(p.total_ms("parallel.parallel_map"),
                           p.calls("parallel.parallel_map"))),
    Metric("parallel.speedup", "ratio", "higher", False, INGEST,
           lambda p: p.per(p.item_ms(), p.total_ms("parallel.parallel_map"))),
    # index
    Metric("index.leaves", "count", "lower", True, f"{MIXED}; small on store_fresh",
           lambda p: p.leaves),
    Metric("index.apply.self_ms_per_block", "ms", "lower", False, f"{MIXED} (retrieve)",
           lambda p: p.per(p.self_ms("index.apply"), p.blocks)),
    Metric("index.root.calls_per_block", "count", "lower", True, f"{MIXED} (retrieve)",
           lambda p: p.per(p.calls("index.root"), p.blocks)),
    Metric("index.root.ms_per_call", "ms", "lower", False, f"{MIXED} (retrieve, verified)",
           lambda p: p.per(p.total_ms("index.root"), p.calls("index.root"))),
    Metric("index.prove.ms_per_call", "ms", "lower", False, f"{MIXED} (verified)",
           lambda p: p.per(p.total_ms("index.prove"), p.calls("index.prove"))),
    Metric("index.lookup.ms_per_call", "ms", "lower", False, f"{MIXED} (query)",
           lambda p: p.per(p.total_ms("index.lookup"), p.calls("index.lookup"))),
    Metric("index.verify.ms_per_call", "ms", "lower", False, f"{MIXED} (verified)",
           lambda p: p.per(p.total_ms("index.verify"), p.calls("index.verify"))),
    # query
    Metric("query.plan.ms_per_call", "ms", "lower", False, f"{MIXED} (query)",
           lambda p: p.per(p.total_ms("query.plan"), p.calls("query.plan"))),
    Metric("query.rows_examined_per_row", "ratio", "lower", True, f"{MIXED} (query)",
           lambda p: p.per(p.delta["rows_scanned"], p.delta["rows_returned"])),
    Metric("query.cache_hit_ratio", "ratio", "higher", True, f"{MIXED} (query)",
           lambda p: p.per(p.delta["cache_hits"], p.delta["queries"])),
    Metric("query.fetch.self_ms_per_mib", "ms/MiB", "lower", False, f"{MIXED} (read, join)",
           lambda p: p.per(p.self_ms("query.fetch"), p.size("query.fetch") / MIB)),
    # trust
    Metric("trust.admit.ms_per_call", "ms", "lower", False, STORE,
           lambda p: p.per(p.total_ms("trust.admit"), p.calls("trust.admit"))),
    Metric("trust.record_validation.ms_per_call", "ms", "lower", False, STORE,
           lambda p: p.per(p.total_ms("trust.record_validation"),
                           p.calls("trust.record_validation"))),
    Metric("trust.chain_writes_per_entry", "count", "lower", True,
           "tail_ms@store_fresh (untrusted submits order one more tx)",
           lambda p: p.per(p.calls("trust.chain_write"), p.entries)),
    # storage
    Metric("storage.record_commit.self_ms_per_block", "ms", "lower", False,
           "p50_ms/tail_ms@ingest_durable; zero elsewhere",
           lambda p: p.per(p.self_ms("storage.record_commit"), p.blocks)),
    Metric("storage.checkpoint.calls_per_block", "count", "lower", True,
           "tail_ms@ingest_durable; zero elsewhere",
           lambda p: p.per(p.calls(*_CHECKPOINT), p.blocks)),
    Metric("storage.checkpoint.self_ms_per_call", "ms", "lower", False,
           "tail_ms@ingest_durable; zero elsewhere",
           lambda p: p.per(p.self_ms(*_CHECKPOINT), p.calls(*_CHECKPOINT))),
    Metric("storage.syncs_per_block", "count", "lower", True,
           "p50_ms@ingest_durable; zero elsewhere",
           lambda p: p.per(p.calls("storage.sync"), p.blocks)),
    Metric("storage.bytes_written_per_user_byte", "ratio", "lower", True,
           "stored_bytes_per_user_byte@ingest_durable; zero elsewhere",
           lambda p: p.per(p.size("storage.append", "storage.write_file"), p.user_bytes)),
    # resilience
    Metric("resilience.attempts_per_invoke", "count", "lower", True,
           "ok_op_ratio, tail_ms@store_fresh",
           lambda p: p.per(p.calls("resilience.attempt"), p.calls("resilience.invoke"))),
    # core
    Metric("core.unattributed_frac", "ratio", "lower", False,
           "the cost model: layer self times should add up to the op wall time",
           lambda p: p.stats.unattributed_frac()),
    Metric("core.trace_overhead_frac", "ratio", "lower", False,
           "none: tracing cost, traced vs untraced op time of the same ops",
           lambda p: p.per(p.traced_s, p.untraced_s) - 1.0),
    # per-op-type latency of the mix, from the untraced pass (zero elsewhere)
] + [
    Metric(f"op.{label}_ms", "ms", "lower", False, f"{label}@mixed_aged",
           lambda p, key=key: p.op_ms.get(key, 0.0))
    for key, label in (("query", "query_p50"), ("join", "join_query_p50"),
                       ("verified", "verified_query_p50"), ("retrieve", "retrieve_p50"),
                       ("read_p99", "read_p99"))
]


def compute(p: Pass) -> dict[str, float]:
    return {m.name: float(m.value(p)) for m in METRICS}
