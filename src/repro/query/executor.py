"""Query engine: the paper's hybrid on-chain / off-chain retrieval path.

Figure 1's retrieval flow (Ⓐ–Ⓓ): the user's query goes to the query
processor, which routes the metadata part to the *blockchain query
executor* (a chaincode read on a peer — no ordering, no consensus cost)
and, when raw data is requested, the CID part to the *database query
executor* (an IPFS fetch). Every fetched payload is verified against the
on-chain record twice over — the CID must hash-match the bytes (content
addressing) and the stored SHA-256 ``data_hash`` must match as well — the
"verification of retrieved data against its metadata stored on the
blockchain" the paper guarantees.

When the plan carries an :class:`~repro.query.planner.IndexRoute`, the
metadata half is served from a peer's block-incremental authenticated
index (:mod:`repro.index`) instead of a chaincode scan: a posting lookup
plus direct world-state point reads, sublinear in chain height. The
chaincode access path remains the fallback (and the parity oracle — the
``index`` sanitizer cross-checks the two answers byte-for-byte).
:meth:`QueryEngine.run_verified` additionally attaches Merkle membership
proofs a light client can check against a trusted epoch root without
replaying the chain.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.crypto.cid import CID
from repro.errors import EncodingError, IntegrityError, QueryError
from repro.fabric.channel import Channel
from repro.fabric.identity import Identity
from repro.ipfs.cluster import IpfsCluster
from repro.obs.metrics import get_registry
from repro.obs.prof import profiled
from repro.obs.tracer import span as obs_span
from repro.query.ast import Query
from repro.query.parser import parse_query
from repro.query.planner import IndexRoute, Plan, plan_query
from repro.util.parallel import parallel_map

_DATA_PREFIX = "data:"


@dataclass(frozen=True)
class QueryRow:
    """One result: the on-chain record, optionally joined with raw bytes.

    ``verified`` is only True when the fetched bytes were actually checked
    against an on-chain ``data_hash`` — a record with no stored hash comes
    back ``verified=False`` even under ``verify=True``, never silently
    passing (the CID content-address check still ran either way).
    """

    record: dict
    data: bytes | None = None
    verified: bool = False

    @property
    def entry_id(self) -> str:
        return self.record["entry_id"]

    @property
    def cid(self) -> str:
        return self.record["cid"]


@dataclass
class QueryStats:
    queries: int = 0
    rows_scanned: int = 0
    rows_returned: int = 0
    bytes_fetched: int = 0
    integrity_checks: int = 0
    cache_hits: int = 0
    cache_evictions: int = 0
    index_hits: int = 0     # queries answered from the authenticated index
    index_misses: int = 0   # index-routable queries that fell back to scan


@dataclass(frozen=True)
class VerifiedAnswer:
    """An indexed query answer plus the proofs that authenticate it.

    ``records`` are the matching on-chain records (metadata only, no
    projection — proofs bind full record bytes); ``proofs`` are the
    posting proofs covering them; ``root`` is the epoch digest they verify
    against at chain ``height``. :meth:`verify` is the light-client check:
    no chain access, just the proofs, the records, and a trusted root.
    """

    records: tuple[dict, ...]
    proofs: tuple  # tuple[PostingProof, ...]
    root: str
    height: int

    def verify(self, trusted_root: str | None = None) -> int:
        """Verify against ``trusted_root``; only an omitted root (None)
        falls back to the root the answer itself carries."""
        from repro.index import verify_answer_records

        return verify_answer_records(
            list(self.records),
            self.proofs,
            self.root if trusted_root is None else trusted_root,
        )


@dataclass
class QueryEngine:
    """Routes queries across the blockchain and IPFS executors."""

    channel: Channel
    cluster: IpfsCluster
    identity: Identity
    retrieval_chaincode: str = "data_retrieval"
    stats: QueryStats = field(default_factory=QueryStats)
    # Metadata-only results cached per query text, valid while the chain
    # height is unchanged (any new block may contain new matching records).
    cache_enabled: bool = True
    # Route plans through the peers' authenticated secondary index when one
    # is attached and in sync (fall back to chaincode scans otherwise).
    use_index: bool = True
    # The cache is bounded: at most this many distinct query texts, FIFO
    # eviction (deterministic — dict preserves insertion order).
    cache_max_entries: int = 256
    _cache: dict[str, tuple[int, list["QueryRow"]]] = field(default_factory=dict)

    # -- planning -------------------------------------------------------------

    def plan(self, query: Query | str) -> Plan:
        if isinstance(query, str):
            query = parse_query(query)
        return plan_query(query)

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        query: Query | str,
        fetch_data: bool = False,
        verify: bool = True,
    ) -> list[QueryRow]:
        """Execute a query; optionally join raw IPFS data per row.

        Metadata-only results (``fetch_data=False``) are cached per query
        text while the chain height is unchanged — reads are the hot path
        of the paper's retrieval story, and an unchanged chain cannot
        change their answer. The cache entry is keyed on the chain height
        observed *before* execution: a block committed mid-query makes the
        stored snapshot stale against the new height, so the next run
        re-executes instead of serving pre-commit rows as fresh. The cache
        holds at most ``cache_max_entries`` query texts (FIFO eviction).

        With ``fetch_data=True`` each row's IPFS payload is fetched and
        verified in turn.
        """
        with obs_span("query.run") as sp:
            if isinstance(query, str):
                sp.set_attr("query", query[:80])
            sp.set_attr("fetch_data", fetch_data)
            # Snapshot the height first: the result set reflects the chain
            # as of *at most* this height, and the cache must not claim
            # freshness beyond it.
            height_snapshot = self.channel.height()
            cache_key = None
            if self.cache_enabled and not fetch_data and isinstance(query, str):
                cache_key = query
                cached = self._cache.get(cache_key)
                if cached is not None and cached[0] == height_snapshot:
                    self.stats.cache_hits += 1
                    self.stats.queries += 1
                    sp.set_attr("cache_hit", True)
                    return list(cached[1])
            with obs_span("query.plan"):
                if isinstance(query, str):
                    query = parse_query(query)
                plan = plan_query(query)
            route = plan.index_route if self.use_index else None
            candidates = None
            if route is not None:
                candidates = self._execute_index(route, height_snapshot)
            used_index = candidates is not None
            if route is not None:
                get_registry().counter(
                    "query_index_route_total",
                    {"route": "index" if used_index else "fallback"},
                ).inc()
            if candidates is None:
                candidates = self._execute_paths(plan)
            matched = [r for r in candidates if plan.residual.matches(r)]
            matched = query.apply_post(matched)
            if used_index:
                self._check_index_parity(query, plan, matched)
            if fetch_data:
                fetched = parallel_map(
                    lambda record: self.fetch_payload_verified(record, verify=verify),
                    matched,
                )
                rows = [
                    QueryRow(record=record, data=data, verified=verified)
                    for record, (data, verified) in zip(matched, fetched)
                ]
            else:
                rows = [QueryRow(record=record) for record in matched]
            self.stats.queries += 1
            self.stats.rows_scanned += len(candidates)
            self.stats.rows_returned += len(rows)
            if route is not None:
                if used_index:
                    self.stats.index_hits += 1
                else:
                    self.stats.index_misses += 1
            if cache_key is not None:
                self._cache_store(cache_key, height_snapshot, rows)
            sp.set_attr("rows", len(rows))
            sp.set_attr("index_route", used_index)
            return rows

    def run_verified(self, query: Query | str) -> VerifiedAnswer:
        """Execute an index-routable query and attach membership proofs.

        The answer's posting proofs authenticate every returned record
        against the index's current epoch root — a light client verifies
        with :meth:`VerifiedAnswer.verify` (optionally against a root it
        trusts out-of-band, e.g. one journaled in the WAL or reported by
        the explorer) without replaying the chain. ``ORDER BY``/``LIMIT``
        apply; ``SELECT`` projection does not (proofs bind whole records).
        """
        if isinstance(query, str):
            query = parse_query(query)
        plan = plan_query(query)
        route = plan.index_route
        if route is None:
            raise QueryError(
                "query has no index-routable predicate; membership proofs "
                "need an equality or time-window predicate on an indexed field"
            )
        height = self.channel.height()
        peer = self._index_peer(height)
        if peer is None:
            raise QueryError(
                "no online peer serves the authenticated index at the "
                "current chain height"
            )
        index = peer.index
        if route.time_range is not None:
            dims = [("time", v) for v in index.time_buckets(*route.time_range)]
            entry_ids = index.lookup_time_range(*route.time_range)
        else:
            # An unindexed value has nothing to prove: the answer is empty
            # with zero proofs (absence proofs are out of scope).
            dims = [(route.dim, route.value)] if index.has(route.dim, route.value) else []
            entry_ids = index.lookup(route.dim, route.value)
        proofs = tuple(index.prove(dim, value) for dim, value in dims)
        candidates = self._load_records(peer, entry_ids)
        matched = [r for r in candidates if plan.residual.matches(r)]
        matched = dataclasses.replace(query, select=None).apply_post(matched)
        self.stats.queries += 1
        self.stats.rows_scanned += len(candidates)
        self.stats.rows_returned += len(matched)
        self.stats.index_hits += 1
        return VerifiedAnswer(
            records=tuple(matched),
            proofs=proofs,
            root=index.root(),
            height=index.height,
        )

    # -- the blockchain executors ---------------------------------------------

    def _execute_paths(self, plan: Plan) -> list[dict]:
        seen: set[str] = set()
        out: list[dict] = []
        with obs_span("query.chain_read") as sp:
            sp.set_attr("paths", len(plan.paths))
            for path in plan.paths:
                raw = self.channel.query(
                    self.identity, self.retrieval_chaincode, path.fn, list(path.args)
                )
                for record in json.loads(raw):
                    entry_id = record.get("entry_id")
                    if entry_id is None or entry_id in seen:
                        continue
                    seen.add(entry_id)
                    out.append(record)
            # Candidates in entry-id order on every path (chaincode index
            # scans arrive bucket-major; the authenticated index arrives
            # sorted) so LIMIT-without-ORDER-BY is deterministic and the
            # two routes stay byte-identical.
            out.sort(key=lambda r: r["entry_id"])
            sp.set_attr("rows", len(out))
        return out

    def _index_peer(self, height: int):
        """An online peer whose ledger *and* index are at ``height``."""
        indexing = getattr(self.channel, "indexing", None)
        if indexing is not None:
            return indexing.reference_peer(height)
        for name in sorted(self.channel.peers):
            peer = self.channel.peers[name]
            if (
                peer.online
                and peer.ledger.height == height
                and getattr(peer, "index", None) is not None
                and peer.index.height == height
            ):
                return peer
        return None

    @staticmethod
    def _load_records(peer, entry_ids: list[str]) -> list[dict]:
        out = []
        for entry_id in entry_ids:
            raw = peer.world.get(_DATA_PREFIX + entry_id)
            if raw is not None:
                out.append(json.loads(raw))
        return out

    def _execute_index(self, route: IndexRoute, height: int) -> list[dict] | None:
        """Serve candidates from a peer's secondary index; None = fall back.

        A posting lookup plus point reads of the matching records — no
        chaincode range scan, no per-query proposal signing. ``entry_ids``
        come back sorted, so candidates are already in entry-id order.
        """
        peer = self._index_peer(height)
        if peer is None:
            return None
        with obs_span("query.index_read") as sp:
            if route.time_range is not None:
                entry_ids = peer.index.lookup_time_range(*route.time_range)
            else:
                entry_ids = peer.index.lookup(route.dim, route.value)
            out = self._load_records(peer, entry_ids)
            sp.set_attr("rows", len(out))
        return out

    def _check_index_parity(self, query: Query, plan: Plan, matched: list[dict]) -> None:
        """SAN309: under the ``index`` sanitizer, re-run the chaincode scan
        path and require a byte-identical answer."""
        from repro.analysis.runtime import active_sanitizer

        sanitizer = active_sanitizer()
        if sanitizer is None or "index" not in sanitizer.modes:
            return
        scanned = [r for r in self._execute_paths(plan) if plan.residual.matches(r)]
        scanned = query.apply_post(scanned)
        sanitizer.check_query_parity(plan.explain(), matched, scanned)

    # -- cache -------------------------------------------------------------------

    def _cache_store(self, key: str, height: int, rows: list[QueryRow]) -> None:
        if key not in self._cache:
            while len(self._cache) >= max(1, self.cache_max_entries):
                oldest = next(iter(self._cache))
                del self._cache[oldest]
                self.stats.cache_evictions += 1
                get_registry().counter("query_cache_evictions_total").inc()
        self._cache[key] = (height, list(rows))

    # -- point lookups ---------------------------------------------------------------

    def get(self, entry_id: str, fetch_data: bool = False, verify: bool = True) -> QueryRow:
        with obs_span("query.get") as sp:
            sp.set_attr("entry_id", entry_id)
            raw = self.channel.query(
                self.identity, self.retrieval_chaincode, "get_data", [entry_id]
            )
            record = json.loads(raw)
            data, verified = None, False
            if fetch_data:
                data, verified = self.fetch_payload_verified(record, verify=verify)
            return QueryRow(record=record, data=data, verified=verified)

    # -- the off-chain executor ----------------------------------------------------------

    def fetch_payload(self, record: dict, verify: bool = True) -> bytes:
        """Fetch the raw bytes for a record from IPFS and verify integrity."""
        data, _ = self.fetch_payload_verified(record, verify=verify)
        return data

    def fetch_payload_verified(
        self, record: dict, verify: bool = True
    ) -> tuple[bytes, bool]:
        """Fetch a record's bytes and report whether integrity was *proven*.

        Returns ``(data, verified)``. ``verified`` is True only when the
        record carried an on-chain ``data_hash`` and the bytes matched it;
        a record with no stored hash yields ``verified=False`` rather than
        pretending the check passed. A hash mismatch raises
        :class:`~repro.errors.IntegrityError`. A missing *or malformed*
        ``cid`` field raises a typed :class:`~repro.errors.QueryError`
        (never a raw parse exception).
        """
        with obs_span("query.fetch") as sp:
            try:
                cid = CID.parse(record["cid"])
            except KeyError:
                raise QueryError("record has no CID") from None
            except (EncodingError, ValueError, TypeError, AttributeError) as exc:
                # EncodingError: undecodable CID text; TypeError/Attribute-
                # Error: a non-string cid field (e.g. a number or null).
                raise QueryError(
                    f"record for entry {record.get('entry_id')!r} has a "
                    f"malformed CID: {exc}"
                ) from exc
            data = self.cluster.cat(cid)
            sp.set_attr("bytes", len(data))
            self.stats.bytes_fetched += len(data)
            if not verify:
                return data, False
            with obs_span("query.verify") as vsp:
                stored_hash = record.get("data_hash")
                if stored_hash is None:
                    # Nothing on-chain to verify against: the CID check
                    # (content addressing) ran, but the paper's metadata
                    # cross-check could not — surface that honestly.
                    vsp.set_attr("missing_data_hash", True)
                    return data, False
                self.stats.integrity_checks += 1
                with profiled("crypto.hash", n_bytes=len(data)):
                    actual = hashlib.sha256(data).hexdigest()
                if actual != stored_hash:
                    raise IntegrityError(
                        f"data for entry {record.get('entry_id')} does not match the "
                        f"on-chain hash (expected {stored_hash[:12]}…, got {actual[:12]}…)"
                    )
                return data, True
