"""Regression tests for QueryEngine's counters and error mapping.

The engine is single-threaded, so its stats counters must be exact: every
``run()`` counts once, hit or miss, and a ``fetch_data=True`` join counts
every byte it fetched. ``fetch_payload_verified`` must map *every*
malformed-record shape to a typed :class:`~repro.errors.QueryError`, not
leak parser internals.
"""

from types import SimpleNamespace

import pytest

from repro.core import Client, Framework, FrameworkConfig
from repro.errors import QueryError
from repro.query import QueryEngine
from repro.trust import SourceTier

META = {"timestamp": 1.0, "camera_id": "race-cam",
        "detections": [{"vehicle_class": "car", "confidence": 0.9}]}


class TestStatsCounters:
    def test_counters_exact_after_fetch_join(self):
        framework = Framework(FrameworkConfig(consensus="solo"))
        client = Client(
            framework, framework.register_source("race-cam", tier=SourceTier.TRUSTED)
        )
        payloads = [b"row-1", b"row-two"]
        for payload in payloads:
            client.submit(payload, dict(META))
        engine = client.engine
        text = "source_id = 'race-cam'"
        assert len(engine.run(text)) == 2      # executed
        assert len(engine.run(text)) == 2      # served from the cache
        rows = engine.run(text, fetch_data=True)
        assert sorted(row.data for row in rows) == sorted(payloads)
        assert all(row.verified for row in rows)
        assert engine.stats.queries == 3
        assert engine.stats.cache_hits == 1
        assert engine.stats.bytes_fetched == sum(len(p) for p in payloads)
        assert engine.stats.integrity_checks == len(payloads)


class TestMalformedCid:
    def _engine(self):
        return QueryEngine(
            channel=SimpleNamespace(),
            cluster=SimpleNamespace(),
            identity=SimpleNamespace(),
        )

    def test_missing_cid_is_query_error(self):
        with pytest.raises(QueryError):
            self._engine().fetch_payload_verified({"entry_id": "e1"})

    def test_malformed_cid_is_query_error_not_parse_exception(self):
        engine = self._engine()
        for bad in ("not-a-cid", "", "zzz", 42, None):
            with pytest.raises(QueryError):
                engine.fetch_payload_verified({"entry_id": "e1", "cid": bad})
