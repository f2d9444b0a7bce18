"""Tests for repro.analysis.flow — call graph, taint, engine, AST cache.

Fixture trees are written under ``tmp_path`` as a small package and analyzed
through the same entry point the CLI uses, so resolution runs the full
import-alias path (the fixtures are *packages*, not single modules).
"""

import ast
import time

import pytest

from repro.analysis import astcache
from repro.analysis.flow import analyze_paths, build_program
from repro.analysis.flow.callgraph import module_name_for
from pathlib import Path


def write_tree(root, files: dict):
    pkg = root / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    for name, source in files.items():
        target = pkg / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return str(pkg)


def rule_ids(report):
    return [f.rule_id for f in report.findings]


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_module_naming_is_rooted_at_scan_parent(self):
        assert module_name_for(Path("src/repro/util/clock.py"), Path("src/repro")) \
            == "repro.util.clock"
        assert module_name_for(Path("src/repro/__init__.py"), Path("src/repro")) \
            == "repro"

    def test_direct_and_aliased_calls_resolve(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "a.py": "def helper():\n    return 1\n",
            "b.py": (
                "from .a import helper as h\n"
                "def caller():\n"
                "    return h()\n"
            ),
        })
        program = build_program([pkg])
        assert "pkg.a.helper" in program.edges["pkg.b.caller"]

    def test_method_resolves_through_base_class(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "m.py": (
                "class Base:\n"
                "    def shared_thing(self):\n"
                "        return 1\n"
                "class Child(Base):\n"
                "    def go(self):\n"
                "        return self.shared_thing()\n"
            ),
        })
        program = build_program([pkg])
        assert "pkg.m.Base.shared_thing" in program.edges["pkg.m.Child.go"]

    def test_nested_function_indexed_and_resolved(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "n.py": (
                "def outer():\n"
                "    def inner():\n"
                "        return 2\n"
                "    return inner()\n"
            ),
        })
        program = build_program([pkg])
        assert "pkg.n.outer.<locals>.inner" in program.functions
        assert "pkg.n.outer.<locals>.inner" in program.edges["pkg.n.outer"]

    def test_callgraph_dict_is_json_shaped(self, tmp_path):
        pkg = write_tree(tmp_path, {"a.py": "def f():\n    return 0\n"})
        raw = build_program([pkg]).to_dict()
        assert set(raw) == {"modules", "functions", "edges"}
        assert "pkg.a.f" in raw["functions"]


# ---------------------------------------------------------------------------
# Taint pass (FLOW5xx)
# ---------------------------------------------------------------------------


SINK = "import json\n\ndef canonical_json(v):\n    return json.dumps(v, sort_keys=True).encode()\n"


class TestTaint:
    def test_acceptance_helper_two_calls_upstream(self, tmp_path):
        """The ISSUE's acceptance case (a): time.time() two calls upstream of
        canonical_json yields exactly one finding with the full chain."""
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "util.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
                "def mk_meta():\n"
                "    return {'at': stamp()}\n"
            ),
            "block.py": (
                "from .codec import canonical_json\n"
                "from .util import mk_meta\n"
                "def seal(payload):\n"
                "    meta = mk_meta()\n"
                "    return canonical_json({'p': payload, 'meta': meta})\n"
            ),
        })
        report = analyze_paths([pkg])
        assert rule_ids(report) == ["FLOW501"]
        (finding,) = report.findings
        assert finding.path.endswith("block.py")
        # Full interprocedural witness: source, both hops, sink.
        trace = "\n".join(finding.trace)
        assert "time.time() [wall clock]" in trace
        assert "stamp()" in trace and "mk_meta()" in trace
        assert "canonical_json() [sink]" in trace
        # And the JSON view carries the same chain.
        assert finding.to_dict()["trace"] == list(finding.trace)

    def test_each_taint_kind_maps_to_its_rule(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "import os\n"
                "import random\n"
                "import uuid\n"
                "from .codec import canonical_json\n"
                "def f_random():\n"
                "    return canonical_json(random.random())\n"
                "def f_uuid():\n"
                "    return canonical_json(str(uuid.uuid4()))\n"
                "def f_env():\n"
                "    return canonical_json(os.getenv('HOME'))\n"
                "def f_set(items):\n"
                "    s = set(items)\n"
                "    return canonical_json([x for x in s])\n"
                "def f_float(v):\n"
                "    return canonical_json(f'{v:.2f}')\n"
            ),
        })
        report = analyze_paths([pkg])
        assert sorted(set(rule_ids(report))) == [
            "FLOW502", "FLOW503", "FLOW504", "FLOW505", "FLOW506",
        ]

    def test_sorted_kills_set_order_taint(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "from .codec import canonical_json\n"
                "def ok(items):\n"
                "    s = set(items)\n"
                "    return canonical_json(sorted(s))\n"
            ),
        })
        assert analyze_paths([pkg]).findings == []

    def test_len_kills_value_taint(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "import os\n"
                "from .codec import canonical_json\n"
                "def ok():\n"
                "    return canonical_json(len(os.getenv('HOME') or ''))\n"
            ),
        })
        assert analyze_paths([pkg]).findings == []

    def test_gmtime_with_argument_is_a_pure_conversion(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "import time\n"
                "from .codec import canonical_json\n"
                "def render(ts):\n"
                "    return canonical_json(time.strftime('%Y', time.gmtime(ts)))\n"
            ),
        })
        assert analyze_paths([pkg]).findings == []

    def test_gmtime_without_argument_reads_the_clock(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "import time\n"
                "from .codec import canonical_json\n"
                "def render():\n"
                "    return canonical_json(time.strftime('%Y', time.gmtime()))\n"
            ),
        })
        assert rule_ids(analyze_paths([pkg])) == ["FLOW501"]

    def test_taint_through_class_field(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "import time\n"
                "from .codec import canonical_json\n"
                "class Node:\n"
                "    def observe(self):\n"
                "        self.last_seen = time.time()\n"
                "    def digestable(self):\n"
                "    	return canonical_json({'seen': self.last_seen})\n"
            ),
        })
        report = analyze_paths([pkg])
        assert rule_ids(report) == ["FLOW501"]
        trace = "\n".join(report.findings[0].trace)
        assert "stored into field self.last_seen" in trace

    def test_taint_through_sink_wrapper(self, tmp_path):
        """A helper that forwards its argument into the sink counts as a
        sink for its callers (param→sink summary)."""
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "import time\n"
                "from .codec import canonical_json\n"
                "def persist(doc):\n"
                "    return canonical_json(doc)\n"
                "def bad():\n"
                "    return persist({'t': time.time()})\n"
            ),
        })
        report = analyze_paths([pkg])
        assert rule_ids(report) == ["FLOW501"]
        assert report.findings[0].path.endswith("m.py")
        assert "persist" in "\n".join(report.findings[0].trace)

    def test_pragma_at_sink_line_suppresses(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "import time\n"
                "from .codec import canonical_json\n"
                "def bad():\n"
                "    return canonical_json(time.time())  # reprolint: disable=FLOW501\n"
            ),
        })
        assert analyze_paths([pkg]).findings == []

    def test_pragma_at_source_line_suppresses_downstream(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "util.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # reprolint: disable=FLOW501\n"
            ),
            "m.py": (
                "from .codec import canonical_json\n"
                "from .util import stamp\n"
                "def bad():\n"
                "    return canonical_json(stamp())\n"
            ),
        })
        assert analyze_paths([pkg]).findings == []

    def test_put_state_is_a_sink_by_method_name(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "m.py": (
                "import uuid\n"
                "def cc(stub):\n"
                "    stub.put_state('k', str(uuid.uuid4()))\n"
            ),
        })
        assert rule_ids(analyze_paths([pkg])) == ["FLOW503"]


# ---------------------------------------------------------------------------
# Engine / repository acceptance
# ---------------------------------------------------------------------------


class TestEngine:
    def test_repo_is_flow_clean_and_fast(self):
        started = time.monotonic()
        report = analyze_paths(["src/repro"])
        elapsed = time.monotonic() - started
        assert report.findings == []
        assert elapsed < 30.0  # acceptance bound; typically a few seconds
        assert report.stats["modules"] > 100

    def test_findings_are_sorted_deterministically(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "z.py": (
                "import time\n"
                "from .codec import canonical_json\n"
                "def z():\n"
                "    return canonical_json(time.time())\n"
            ),
            "a.py": (
                "import time\n"
                "from .codec import canonical_json\n"
                "def a():\n"
                "    return canonical_json(time.time())\n"
            ),
        })
        report = analyze_paths([pkg])
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths)


# ---------------------------------------------------------------------------
# AST cache
# ---------------------------------------------------------------------------


class TestAstCache:
    def test_memo_hits_by_content(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1\n", encoding="utf-8")
        first = astcache.parse_module(target)
        second = astcache.parse_module(target)
        assert second.tree is first.tree  # same object: memo hit
        target.write_text("x = 2\n", encoding="utf-8")
        third = astcache.parse_module(target)
        assert third.tree is not first.tree

    def test_disk_cache_round_trip(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "astcache"
        monkeypatch.setenv("REPRO_AST_CACHE", str(cache_dir))
        target = tmp_path / "m.py"
        target.write_text("def f():\n    return 41\n", encoding="utf-8")
        parsed = astcache.parse_module(target)
        entries = list(cache_dir.glob("*.astpkl"))
        assert len(entries) == 1
        # A second process would load from disk; simulate by clearing memo.
        astcache.clear_memo()
        again = astcache.parse_module(target)
        assert ast.dump(again.tree) == ast.dump(parsed.tree)

    def test_corrupt_disk_entry_falls_back_to_parse(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "astcache"
        monkeypatch.setenv("REPRO_AST_CACHE", str(cache_dir))
        target = tmp_path / "m.py"
        target.write_text("y = 3\n", encoding="utf-8")
        astcache.parse_module(target)
        (entry,) = cache_dir.glob("*.astpkl")
        entry.write_bytes(b"not a pickle")
        astcache.clear_memo()
        parsed = astcache.parse_module(target)  # must not raise
        assert isinstance(parsed.tree, ast.Module)

    def test_syntax_error_is_typed(self, tmp_path):
        from repro.errors import AnalysisError

        target = tmp_path / "bad.py"
        target.write_text("def broken(:\n", encoding="utf-8")
        with pytest.raises(AnalysisError):
            astcache.parse_module(target)
