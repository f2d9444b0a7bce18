"""Tests for repro.index: the block-incremental authenticated secondary index.

Covers the tentpole acceptance criteria: incremental maintenance matches a
from-scratch rebuild, the query planner/executor route through the index
with answers byte-identical to chaincode scans, Merkle membership proofs
verify without chain replay (and reject tampering), the index survives
crash recovery through the durability paths, and the explorer audits the
epoch digests.
"""

import dataclasses
import hashlib
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaincodes.data import TIME_BUCKET_S
from repro.core import Client, Framework, FrameworkConfig
from repro.crypto.merkle import MerkleTree
from repro.errors import MerkleProofError, QueryError
from repro.index import (
    BlockFilter,
    PeerIndex,
    verify_answer_records,
    verify_posting_proof,
)
from repro.query import QueryEngine, parse_query, plan_query
from repro.trust import SourceTier
from repro.util.clock import WallClock
from repro.util.serialization import canonical_json


def make_framework(**overrides):
    defaults = dict(consensus="solo", n_ipfs_nodes=2)
    defaults.update(overrides)
    return Framework(FrameworkConfig(**defaults))


META = {
    "timestamp": 100.0,
    "camera_id": "idx-cam",
    "detections": [{"vehicle_class": "car", "confidence": 0.9}],
}


def populate(framework, n=6, source="idx-cam"):
    client = Client(framework, framework.register_source(source, tier=SourceTier.TRUSTED))
    receipts = []
    for i in range(n):
        meta = dict(META)
        meta["timestamp"] = 100.0 + 700.0 * i  # spread across time buckets
        meta["detections"] = [
            {"vehicle_class": ("car" if i % 2 == 0 else "truck"), "confidence": 0.9}
        ]
        receipts.append(client.submit(f"payload-{i}".encode(), meta))
    return client, receipts


class TestIncrementalMaintenance:
    def test_every_peer_indexes_every_block(self):
        framework = make_framework(peers_per_org=2)
        populate(framework, n=4)
        height = framework.channel.height()
        roots = set()
        for peer in framework.channel.peers.values():
            assert peer.index is not None
            assert peer.index.height == height
            assert set(peer.index.epochs) == set(range(height))
            roots.add(peer.index.root())
        assert len(roots) == 1  # all peers agree on the epoch root

    def test_incremental_matches_from_world_rebuild(self):
        framework = make_framework()
        populate(framework, n=5)
        peer = next(iter(framework.channel.peers.values()))
        rebuilt = PeerIndex.from_world(peer.world, peer.ledger.height)
        assert rebuilt.root() == peer.index.root()
        assert rebuilt.epochs[peer.ledger.height - 1] == (
            peer.index.epochs[peer.ledger.height - 1]
        )

    def test_lookup_matches_world_scan(self):
        framework = make_framework()
        _, receipts = populate(framework, n=5)
        peer = next(iter(framework.channel.peers.values()))
        expected = sorted(r.entry_id for r in receipts)
        assert peer.index.lookup("source", "idx-cam") == expected
        assert peer.index.lookup("camera", "idx-cam") == expected
        trucks = peer.index.lookup("class", "truck")
        assert trucks == sorted(
            r.entry_id for i, r in enumerate(receipts) if i % 2 == 1
        )

    def test_time_range_lookup(self):
        framework = make_framework()
        _, receipts = populate(framework, n=5)
        peer = next(iter(framework.channel.peers.values()))
        # Timestamps are 100, 800, 1500, 2200, 2900.
        ids = peer.index.lookup_time_range(700.0, 1600.0)
        assert ids == sorted([receipts[1].entry_id, receipts[2].entry_id])
        assert peer.index.lookup_time_range(10_000.0, 20_000.0) == []

    def test_trust_band_lookup(self):
        framework = make_framework()
        _, receipts = populate(framework, n=2)
        framework.record_trust_on_chain("idx-cam")
        peer = next(iter(framework.channel.peers.values()))
        assert peer.index.band_of.get("idx-cam") == "trusted"
        assert peer.index.lookup("trust_band", "trusted") == sorted(
            r.entry_id for r in receipts
        )

    def test_block_filters_narrow_blocks(self):
        framework = make_framework()
        _, receipts = populate(framework, n=4)
        peer = next(iter(framework.channel.peers.values()))
        blocks = peer.index.blocks_possibly_containing("source", "idx-cam")
        assert blocks  # the uploads' blocks admit the token
        # A bloom filter can false-positive but never false-negative: every
        # block that really contains the value must be reported.
        data_blocks = {
            peer.world.get_version(f"data:{r.entry_id}").block for r in receipts
        }
        assert data_blocks <= set(blocks)

    def test_filter_roundtrip(self):
        filt = BlockFilter()
        filt.add("source=cam-1")
        restored = BlockFilter.from_doc(filt.to_doc())
        assert "source=cam-1" in restored
        assert "source=cam-2" not in restored


class TestProofs:
    def test_membership_proof_verifies_without_chain(self):
        framework = make_framework()
        _, receipts = populate(framework, n=3)
        peer = next(iter(framework.channel.peers.values()))
        trusted_root = peer.index.root()  # obtained out-of-band
        proof = peer.index.prove("source", "idx-cam")
        # Verification sees only the proof and the trusted root — no peer,
        # no ledger, no chain replay.
        assert verify_posting_proof(proof, trusted_root)
        records = [
            json.loads(peer.world.get(f"data:{r.entry_id}")) for r in receipts
        ]
        records.sort(key=lambda r: r["entry_id"])
        assert verify_answer_records(records, (proof,), trusted_root) == 3

    def test_tampered_record_rejected(self):
        framework = make_framework()
        _, receipts = populate(framework, n=2)
        peer = next(iter(framework.channel.peers.values()))
        proof = peer.index.prove("source", "idx-cam")
        records = [
            json.loads(peer.world.get(f"data:{r.entry_id}")) for r in receipts
        ]
        records.sort(key=lambda r: r["entry_id"])
        records[0]["cid"] = "bafy-forged"
        with pytest.raises(MerkleProofError):
            verify_answer_records(records, (proof,), peer.index.root())

    def test_wrong_root_rejected(self):
        framework = make_framework()
        populate(framework, n=2)
        peer = next(iter(framework.channel.peers.values()))
        proof = peer.index.prove("source", "idx-cam")
        with pytest.raises(MerkleProofError):
            verify_posting_proof(proof, "00" * 32)

    def test_tampered_entries_rejected(self):
        framework = make_framework()
        populate(framework, n=2)
        peer = next(iter(framework.channel.peers.values()))
        proof = peer.index.prove("source", "idx-cam")
        forged = dataclasses.replace(
            proof, entries=tuple([(eid, "ff" * 32) for eid, _ in proof.entries])
        )
        with pytest.raises(MerkleProofError):
            verify_posting_proof(forged, peer.index.root())

    def test_unknown_posting_raises(self):
        framework = make_framework()
        populate(framework, n=1)
        peer = next(iter(framework.channel.peers.values()))
        with pytest.raises(MerkleProofError):
            peer.index.prove("camera", "no-such-camera")


class TestPlannerRouting:
    def test_equality_routes(self):
        for text, dim, value in (
            ("source_id = 'cam-1'", "source", "cam-1"),
            ("camera_id = 'cam-2'", "camera", "cam-2"),
            ("vehicle_class = 'truck'", "class", "truck"),
            ("violation_type = 'speeding'", "violation", "speeding"),
        ):
            plan = plan_query(parse_query(text))
            assert plan.index_route is not None, text
            assert plan.index_route.dim == dim
            assert plan.index_route.value == value

    def test_time_route(self):
        plan = plan_query(parse_query(
            "metadata.timestamp >= 100 AND metadata.timestamp < 900"
        ))
        assert plan.index_route is not None
        assert plan.index_route.dim == "time"
        lo, hi = plan.index_route.time_range
        assert lo == 100.0 and hi >= 900.0

    def test_unindexed_predicate_has_no_route(self):
        plan = plan_query(parse_query("color = 'red'"))
        assert plan.index_route is None
        assert plan.full_scan

    def test_explain_mentions_route(self):
        plan = plan_query(parse_query("source_id = 'cam-1'"))
        assert "authenticated route: source=cam-1" in plan.explain()


class TestExecutorRouting:
    def test_index_and_scan_answers_byte_identical(self):
        framework = make_framework()
        client, _ = populate(framework, n=5)
        engine = client.engine
        engine.cache_enabled = False
        for text in (
            "source_id = 'idx-cam'",
            "vehicle_class = 'truck'",
            "metadata.timestamp >= 0 AND metadata.timestamp <= 2000 "
            "ORDER BY metadata.timestamp LIMIT 2",
        ):
            engine.use_index = True
            indexed = [r.record for r in engine.run(text)]
            engine.use_index = False
            scanned = [r.record for r in engine.run(text)]
            assert canonical_json(indexed) == canonical_json(scanned), text

    def test_index_route_counts_hits(self):
        framework = make_framework()
        client, _ = populate(framework, n=3)
        engine = client.engine
        engine.cache_enabled = False
        engine.run("source_id = 'idx-cam'")
        assert engine.stats.index_hits == 1
        engine.use_index = False
        engine.run("source_id = 'idx-cam'")
        assert engine.stats.index_hits == 1  # scan route doesn't count

    def test_fallback_when_no_peer_serves_index(self):
        framework = make_framework()
        client, receipts = populate(framework, n=3)
        engine = client.engine
        engine.cache_enabled = False
        for peer in framework.channel.peers.values():
            peer.index = None
        rows = engine.run("source_id = 'idx-cam'")
        assert len(rows) == len(receipts)
        assert engine.stats.index_misses == 1

    def test_run_verified_end_to_end(self):
        framework = make_framework()
        client, receipts = populate(framework, n=4)
        answer = client.engine.run_verified("source_id = 'idx-cam'")
        assert {r["entry_id"] for r in answer.records} == {
            r.entry_id for r in receipts
        }
        assert answer.verify() == len(receipts)
        # The proofs also verify against an out-of-band trusted root.
        peer = next(iter(framework.channel.peers.values()))
        assert answer.verify(peer.index.epochs[peer.ledger.height - 1]) == (
            len(receipts)
        )

    def test_verify_never_falls_back_to_the_served_root(self):
        framework = make_framework()
        client, _ = populate(framework, n=2)
        answer = client.engine.run_verified("source_id = 'idx-cam'")
        peer = next(iter(framework.channel.peers.values()))
        older_epoch = peer.index.epochs[0]
        assert older_epoch != answer.root
        for trusted_root in ("", older_epoch):
            with pytest.raises(MerkleProofError):
                answer.verify(trusted_root)

    def test_run_verified_rejects_unroutable_query(self):
        framework = make_framework()
        client, _ = populate(framework, n=1)
        with pytest.raises(QueryError):
            client.engine.run_verified("color = 'red'")

    def test_run_verified_unknown_value_is_empty(self):
        framework = make_framework()
        client, _ = populate(framework, n=1)
        answer = client.engine.run_verified("source_id = 'ghost'")
        assert answer.records == ()
        assert answer.proofs == ()
        assert answer.verify() == 0


class TestDurability:
    def test_wal_replay_restores_index(self):
        framework = make_framework(
            consensus="bft", peers_per_org=2, durability=True, checkpoint_interval=4
        )
        populate(framework, n=6)
        peer = framework.channel.peers["peer1.org1"]
        root_before = peer.index.root()
        epochs_before = dict(peer.index.epochs)
        outcome = framework.durability.crash_and_recover("peer1.org1")
        assert outcome.kind == "wal_replay", outcome.detail()
        assert peer.index.root() == root_before
        assert dict(peer.index.epochs) == epochs_before
        assert peer.index.height == peer.ledger.height

    def test_state_transfer_rebuilds_index(self):
        from repro.storage import CORRUPT

        framework = make_framework(
            consensus="bft", peers_per_org=2, durability=True, checkpoint_interval=4
        )
        populate(framework, n=6)
        peer = framework.channel.peers["peer1.org1"]
        root_before = peer.index.root()
        framework.durability.damage_wal("peer1.org1", CORRUPT)
        outcome = framework.durability.crash_and_recover("peer1.org1")
        assert outcome.kind == "state_transfer", outcome.detail()
        assert peer.index.root() == root_before
        assert peer.index.height == peer.ledger.height

    def test_index_doc_roundtrip(self):
        framework = make_framework()
        populate(framework, n=4)
        framework.record_trust_on_chain("idx-cam")
        peer = next(iter(framework.channel.peers.values()))
        restored = PeerIndex.from_doc(peer.index.to_doc())
        assert restored.root() == peer.index.root()
        assert restored.height == peer.index.height
        assert restored.epochs == peer.index.epochs
        assert restored.lookup("source", "idx-cam") == (
            peer.index.lookup("source", "idx-cam")
        )


class TestExplorerIntegration:
    def test_block_views_carry_epochs(self):
        from repro.obs.explorer import LedgerExplorer

        framework = make_framework()
        populate(framework, n=3)
        explorer = LedgerExplorer(framework.channel)
        views = explorer.blocks()
        peer = next(iter(framework.channel.peers.values()))
        for view in views:
            assert view["index_epoch"] == peer.index.epochs[view["number"]]

    def test_audit_checks_epochs(self):
        from repro.obs.explorer import LedgerExplorer

        framework = make_framework()
        populate(framework, n=3)
        report = LedgerExplorer(framework.channel).audit_chain(offchain=False)
        assert report.ok
        assert report.index_epochs_checked == framework.channel.height()

    def test_audit_flags_forged_epoch(self):
        from repro.obs.explorer import LedgerExplorer

        framework = make_framework()
        populate(framework, n=3)
        peer = next(iter(framework.channel.peers.values()))
        last = peer.ledger.height - 1
        peer.index.epochs[last] = "ab" * 32
        report = LedgerExplorer(framework.channel).audit_chain(offchain=False)
        assert not report.ok
        assert any(f.check == "index_epoch" for f in report.findings)


class TestSanitizerMode:
    def test_clean_run_has_no_findings(self):
        framework = make_framework(sanitize="index")
        try:
            client, _ = populate(framework, n=3)
            client.engine.cache_enabled = False
            client.engine.run("source_id = 'idx-cam'")
            report = framework.sanitizer.finalize()
        finally:
            import repro.analysis.runtime as runtime

            runtime._ACTIVE = None
        assert report.ok, report.render()
        assert report.checks["index"] > 0

    def test_divergent_index_is_flagged(self):
        framework = make_framework(sanitize="index")
        try:
            client, _ = populate(framework, n=2)
            peer = next(iter(framework.channel.peers.values()))
            # Corrupt one posting chain, then commit another block: SAN308's
            # from-scratch rebuild can no longer reproduce the live root.
            posting = peer.index.postings[("source", "idx-cam")]
            posting.chain = "00" * 32
            client.submit(b"one-more", dict(META))
            report = framework.sanitizer.finalize()
        finally:
            import repro.analysis.runtime as runtime

            runtime._ACTIVE = None
        assert any(f.rule_id == "SAN308" for f in report.findings)


# -- synthetic blocks: drive PeerIndex.apply_block without a network ---------


def _write(key, value):
    return SimpleNamespace(key=key, value=value, is_delete=value is None)


def _data_write(entry_id, source, timestamp, vehicle_class):
    record = {
        "entry_id": entry_id,
        "source_id": source,
        "metadata": {
            "camera_id": f"cam-{source}",
            "timestamp": timestamp,
            "detections": [{"vehicle_class": vehicle_class}],
        },
    }
    return _write(f"data:{entry_id}", canonical_json(record))


def _trust_write(source, score):
    return _write(f"trust:{source}", canonical_json({"score": score}))


def _block(number, writes):
    tx = SimpleNamespace(rwset=SimpleNamespace(writes=list(writes)))
    return SimpleNamespace(number=number, validation_codes=(), transactions=[tx])


_TIMESTAMPS = (-7200.0, -601.0, -1.0, 0.0, 100.0, 800.0, 6.0e6)

_STEP = st.one_of(
    st.tuples(
        st.just("data"),
        st.integers(0, 3),
        st.sampled_from(_TIMESTAMPS),
        st.sampled_from(("car", "truck", "bus")),
    ),
    st.tuples(st.just("trust"), st.integers(0, 3), st.sampled_from((0.1, 0.5, 0.9))),
    st.tuples(st.just("delete"), st.integers(0, 40)),
)


def _writes_for(steps, ids):
    """Writes for one block; ``ids`` collects the inserted entry ids."""
    writes = []
    for step in steps:
        if step[0] == "data":
            _, source, timestamp, vehicle_class = step
            ids.append(f"e{len(ids)}")
            writes.append(_data_write(ids[-1], f"s{source}", timestamp, vehicle_class))
        elif step[0] == "trust":
            writes.append(_trust_write(f"s{step[1]}", step[2]))
        else:
            target = ids[step[1] % len(ids)] if ids else "never-inserted"
            writes.append(_write(f"data:{target}", None))
    return writes


class TestCachedEpochTree:
    """The cached, incrementally rehashed epoch tree must equal a tree built
    from scratch over :meth:`PeerIndex.leaves` after every block."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(_STEP, min_size=1, max_size=4), min_size=1, max_size=8), st.data())
    def test_random_blocks_match_fresh_tree(self, blocks, data):
        index, ids = PeerIndex(), []
        for number, steps in enumerate(blocks):
            epoch = index.apply_block(_block(number, _writes_for(steps, ids)))
            leaves = index.leaves()
            fresh = MerkleTree(leaves)
            assert epoch == index.root() == fresh.root.hex()

            keys = sorted(index.postings) + [("trust_band", b) for b in sorted(index.bands)]
            if not keys:
                continue
            dim, value = data.draw(st.sampled_from(keys))
            proof = index.prove(dim, value)
            assert proof.merkle == fresh.proof(proof.merkle.leaf_index)
            leaf = json.loads(leaves[proof.merkle.leaf_index])
            assert (leaf["dim"], leaf["value"]) == (dim, value)
            assert verify_posting_proof(proof, fresh.root.hex())

            restored = PeerIndex.from_doc(index.to_doc())
            assert restored.prove(dim, value) == proof
            assert restored.root() == epoch

    def test_band_that_empties_leaves_the_tree(self):
        index = PeerIndex()
        index.apply_block(_block(0, [_trust_write("s0", 0.9), _trust_write("s1", 0.5)]))
        assert set(index.bands) == {"trusted", "provisional"}
        index.apply_block(_block(1, [_trust_write("s1", 0.9)]))
        assert set(index.bands) == {"trusted"}
        assert index.root() == MerkleTree(index.leaves()).root.hex()
        with pytest.raises(MerkleProofError):
            index.prove("trust_band", "provisional")

    # Epochs of fixed runs, computed by the implementation that hashed
    # ``leaves()`` afresh on every call: caching must not move a digest.
    SYNTHETIC_EPOCHS_SHA256 = (
        "a931668f8e44d0728ba4fe64a2ad3df5f19d0b8599145499d160e73e919f3fc0"
    )
    FRAMEWORK_EPOCHS_SHA256 = (
        "6936a4f78cb1e891d811a87629fe6e27b8310bae08177e4f9e88e0e915d7630d"
    )

    @staticmethod
    def epochs_digest(epochs):
        return hashlib.sha256(canonical_json({str(n): d for n, d in epochs.items()})).hexdigest()

    def test_synthetic_epochs_are_pinned(self):
        steps = [
            [("data", 0, 100.0, "car"), ("trust", 0, 0.9)],
            [("data", 1, -601.0, "truck"), ("data", 0, 800.0, "car")],
            [("trust", 1, 0.5), ("delete", 0)],
            [("data", 2, 6.0e6, "bus"), ("trust", 1, 0.9)],
            [("trust", 0, 0.1), ("data", 1, -601.0, "bus"), ("delete", 3)],
        ]
        index, ids = PeerIndex(), []
        for number, block_steps in enumerate(steps):
            index.apply_block(_block(number, _writes_for(block_steps, ids)))
        assert index.tombstones and len(index.bands) == 2
        assert self.epochs_digest(index.epochs) == self.SYNTHETIC_EPOCHS_SHA256

    def test_framework_epochs_are_pinned(self, monkeypatch):
        ticks = iter(range(10**9))
        monkeypatch.setattr(WallClock, "now", lambda self: 1.7e9 + 0.001 * next(ticks))
        framework = make_framework()
        cam = Client(framework, framework.register_source("idx-cam", tier=SourceTier.TRUSTED))
        crowd = Client(framework, framework.register_source("crowd", tier=SourceTier.UNTRUSTED))
        for i in range(4):
            meta = dict(META, timestamp=100.0 + 700.0 * i)
            meta["detections"] = [
                {"vehicle_class": ("car" if i % 2 == 0 else "truck"), "confidence": 0.9}
            ]
            (cam if i % 2 == 0 else crowd).submit(f"payload-{i}".encode(), meta)
        framework.record_trust_on_chain("idx-cam")
        framework.record_trust_on_chain("crowd")
        for peer in framework.channel.peers.values():
            assert len(peer.index.epochs) == 19
            assert self.epochs_digest(peer.index.epochs) == self.FRAMEWORK_EPOCHS_SHA256


def _scan_time_buckets(index, lower, upper):
    """The full posting scan ``time_buckets`` replaced, as the reference."""
    if upper < lower:
        return []
    lo_b, hi_b = int(lower // TIME_BUCKET_S), int(upper // TIME_BUCKET_S)
    return sorted(v for (d, v) in index.postings if d == "time" and lo_b <= int(v) <= hi_b)


class TestTimeBuckets:
    BOUNDS = st.sampled_from(
        (-1.0e9, -7200.0, -601.0, -600.0, -1.0, 0.0, 599.0, 600.0, 1500.0, 6.0e6, 1.0e9)
    )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from(_TIMESTAMPS + (-1.0e8, 3.0e8)), min_size=1, max_size=12),
        BOUNDS,
        BOUNDS,
    )
    def test_matches_posting_scan(self, timestamps, lower, upper):
        index, ids = PeerIndex(), []
        steps = [("data", 0, ts, "car") for ts in timestamps]
        index.apply_block(_block(0, _writes_for(steps, ids)))
        expected = _scan_time_buckets(index, lower, upper)
        assert index.time_buckets(lower, upper) == expected
        assert index.lookup_time_range(lower, upper) == sorted(
            {eid for b in expected for eid, _ in index.postings[("time", b)].entries}
        )
        restored = PeerIndex.from_doc(index.to_doc())
        assert restored.time_buckets(lower, upper) == expected

    def test_negative_buckets_keep_string_order(self):
        index, ids = PeerIndex(), []
        steps = [("data", 0, ts, "car") for ts in (-7200.0, -601.0, -1.0, 100.0)]
        index.apply_block(_block(0, _writes_for(steps, ids)))
        buckets = index.time_buckets(-1.0e4, 1.0e4)
        assert buckets == ["-00000000001", "-00000000002", "-00000000012", "000000000000"]
        assert index.lookup_time_range(-1.0e4, 1.0e4) == sorted(ids)

    def test_wide_sparse_range(self):
        index, ids = PeerIndex(), []
        steps = [("data", 0, ts, "car") for ts in (-1.0e8, 100.0, 3.0e8)]
        index.apply_block(_block(0, _writes_for(steps, ids)))
        assert index.time_buckets(-1.0e9, 1.0e9) == _scan_time_buckets(index, -1.0e9, 1.0e9)
        assert len(index.time_buckets(-1.0e9, 1.0e9)) == 3
        assert index.lookup_time_range(-1.0e9, 1.0e9) == sorted(ids)
        assert index.lookup_time_range(1.0e3, 1.0e8) == []
