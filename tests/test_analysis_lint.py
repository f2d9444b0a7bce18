"""Tests for reprolint: determinism + hygiene rules, pragmas, baselines."""

import json

import pytest

from repro.analysis import (
    diff_baseline,
    lint_paths,
    lint_source,
    load_baseline,
    parse_pragmas,
    write_baseline,
)
from repro.analysis.linter import is_chaincode_module
from repro.errors import AnalysisError

CC_PATH = "src/repro/chaincodes/example.py"


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestDeterminismRules:
    def test_wall_clock_in_chaincode_flagged_with_location(self):
        source = (
            "import time\n"
            "\n"
            "\n"
            "def stamp(stub):\n"
            "    return {'at': time.time()}\n"
        )
        findings = lint_source(source, CC_PATH)
        assert rule_ids(findings) == ["DET101"]
        f = findings[0]
        assert f.line == 5 and f.path == CC_PATH
        assert "time.time" in f.message
        assert "DET101" in f.render() and f"{CC_PATH}:5:" in f.render()
        assert "stub.get_timestamp" in f.fix_hint

    def test_import_alias_resolved(self):
        source = "import time as t\n\ndef f(stub):\n    return t.time()\n"
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET101"]

    def test_from_import_resolved(self):
        source = "from time import time\n\ndef f(stub):\n    return time()\n"
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET101"]

    def test_random_flagged(self):
        source = "import random\n\ndef f(stub):\n    return random.random()\n"
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET102"]

    def test_environ_flagged(self):
        source = "import os\n\ndef f(stub):\n    return os.environ['HOME']\n"
        assert "DET103" in rule_ids(lint_source(source, CC_PATH))

    def test_getenv_flagged(self):
        source = "import os\n\ndef f(stub):\n    return os.getenv('HOME')\n"
        assert "DET103" in rule_ids(lint_source(source, CC_PATH))

    def test_uuid_flagged(self):
        source = "import uuid\n\ndef f(stub):\n    return str(uuid.uuid4())\n"
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET104"]

    def test_json_dumps_without_sort_keys_flagged(self):
        source = "import json\n\ndef f(stub):\n    return json.dumps({'a': 1})\n"
        findings = lint_source(source, CC_PATH)
        assert rule_ids(findings) == ["DET105"]
        assert "canonical_json" in findings[0].fix_hint

    def test_json_dumps_with_sort_keys_clean(self):
        source = "import json\n\ndef f(stub):\n    return json.dumps({'a': 1}, sort_keys=True)\n"
        assert lint_source(source, CC_PATH) == []

    def test_set_iteration_flagged(self):
        source = "def f(stub, keys):\n    for k in set(keys):\n        stub.put_state(k, b'1')\n"
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET106"]

    def test_set_comprehension_iteration_flagged(self):
        source = "def f(stub, keys):\n    return [k for k in {k for k in keys}]\n"
        assert "DET106" in rule_ids(lint_source(source, CC_PATH))

    def test_float_formatting_warned(self):
        source = "def f(stub, score):\n    return f'{score:.2f}'\n"
        findings = lint_source(source, CC_PATH)
        assert rule_ids(findings) == ["DET107"]
        assert findings[0].severity == "warning"

    def test_determinism_rules_skip_non_chaincode_modules(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert lint_source(source, "src/repro/util/anything.py") == []

    def test_chaincode_detected_by_base_class_outside_tree(self):
        source = (
            "import time\n"
            "from repro.fabric.chaincode import Chaincode\n"
            "\n"
            "\n"
            "class Custom(Chaincode):\n"
            "    name = 'custom'\n"
            "\n"
            "    def stamp(self, stub):\n"
            "        return {'at': time.time()}\n"
        )
        assert rule_ids(lint_source(source, "plugins/custom.py")) == ["DET101"]


class TestHygieneRules:
    def test_bare_acquire_warned_everywhere(self):
        source = (
            "import threading\n"
            "lock = threading.Lock()\n"
            "\n"
            "\n"
            "def f():\n"
            "    lock.acquire()\n"
            "    lock.release()\n"
        )
        findings = lint_source(source, "src/repro/util/x.py")
        assert "HYG201" in rule_ids(findings)

    def test_try_lock_not_flagged(self):
        source = "def f(lock):\n    return lock.acquire(blocking=False)\n"
        assert lint_source(source, "src/repro/util/x.py") == []

    def test_swallowed_exception_warned(self):
        source = "def f():\n    try:\n        risky()\n    except Exception:\n        pass\n"
        findings = lint_source(source, "src/repro/util/x.py")
        assert rule_ids(findings) == ["HYG202"]
        assert findings[0].line == 4  # anchored at the except clause

    def test_handled_exception_clean(self):
        source = "def f():\n    try:\n        risky()\n    except Exception:\n        return None\n"
        assert lint_source(source, "src/repro/util/x.py") == []

    def test_mutable_default_flagged(self):
        source = "def f(items=[]):\n    return items\n"
        assert rule_ids(lint_source(source, "src/repro/util/x.py")) == ["HYG203"]

    def test_module_dict_mutation_in_function_warned(self):
        source = "CACHE = {}\n\n\ndef remember(k, v):\n    CACHE[k] = v\n"
        assert rule_ids(lint_source(source, "src/repro/util/x.py")) == ["HYG204"]

    def test_local_dict_mutation_clean(self):
        source = "def f(k, v):\n    cache = {}\n    cache[k] = v\n    return cache\n"
        assert lint_source(source, "src/repro/util/x.py") == []

    def test_module_dict_mutation_under_lock_still_warned(self):
        source = (
            "CACHE = {}\n\n\ndef remember(lock, k, v):\n"
            "    with lock:\n        CACHE[k] = v\n"
        )
        assert rule_ids(lint_source(source, "src/repro/util/x.py")) == ["HYG204"]


class TestThreadImports:
    @pytest.mark.parametrize("line", [
        "import threading",
        "import multiprocessing as mp",
        "from concurrent.futures import ThreadPoolExecutor",
        "from concurrent import futures",
        "from _thread import start_new_thread",
    ])
    def test_thread_api_import_flagged_once(self, line):
        findings = lint_source(line + "\n", "src/repro/util/x.py")
        assert rule_ids(findings) == ["HYG205"]
        assert findings[0].line == 1
        assert findings[0].severity == "error"

    @pytest.mark.parametrize("line", [
        "import threading",
        "import multiprocessing as mp",
        "from concurrent.futures import ThreadPoolExecutor",
        "from concurrent import futures",
        "from _thread import start_new_thread",
    ])
    def test_pragma_suppresses(self, line):
        source = line + "  # reprolint: disable=HYG205\n"
        assert lint_source(source, "src/repro/util/x.py") == []

    def test_similar_names_not_flagged(self):
        source = (
            "import contextvars\n"
            "from repro.util.parallel import parallel_map\n"
            "from .threading_notes import x\n"
        )
        assert lint_source(source, "src/repro/util/x.py") == []


class TestPragmas:
    SOURCE = "import time\n\ndef f(stub):\n    return time.time()  # reprolint: disable=DET101\n"

    def test_line_pragma_suppresses(self):
        assert lint_source(self.SOURCE, CC_PATH) == []

    def test_line_pragma_is_rule_specific(self):
        source = "import time\n\ndef f(stub):\n    return time.time()  # reprolint: disable=DET105\n"
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET101"]

    def test_file_pragma_suppresses_everywhere(self):
        source = "# reprolint: disable-file=DET101\nimport time\n\ndef f(stub):\n    return time.time()\n"
        assert lint_source(source, CC_PATH) == []

    def test_bare_disable_suppresses_all_rules(self):
        source = "import time\n\ndef f(stub):\n    return time.time()  # reprolint: disable\n"
        assert lint_source(source, CC_PATH) == []

    def test_parse_pragmas_collects_both_kinds(self):
        pragmas = parse_pragmas(
            "# reprolint: disable-file=DET107\nx = 1  # reprolint: disable=HYG204\n"
        )
        assert not pragmas.allows("DET107", 99)
        assert not pragmas.allows("HYG204", 2)
        assert pragmas.allows("HYG204", 1)


class TestRepoHygiene:
    def test_repo_is_self_clean(self):
        # The acceptance bar: reprolint over its own codebase, no baseline.
        assert lint_paths(["src/repro"]) == []

    def test_chaincode_modules_detected_by_path(self):
        import ast

        assert is_chaincode_module("src/repro/chaincodes/data.py", ast.parse(""))
        assert not is_chaincode_module("src/repro/query/executor.py", ast.parse(""))

    def test_missing_target_is_usage_error(self):
        with pytest.raises(AnalysisError):
            lint_paths(["no/such/dir"])

    def test_syntax_error_is_analysis_error(self):
        with pytest.raises(AnalysisError):
            lint_source("def broken(:\n", "x.py")


class TestBaseline:
    def test_roundtrip_and_diff(self, tmp_path):
        findings = lint_source(
            "import time\n\ndef f(stub):\n    return time.time()\n", CC_PATH
        )
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, findings)
        known = load_baseline(baseline_file)
        assert known == {f.key() for f in findings}
        assert diff_baseline(findings, known) == []
        fresh = lint_source(
            "import uuid\n\ndef g(stub):\n    return uuid.uuid4()\n", CC_PATH
        )
        assert [f.rule_id for f in diff_baseline(findings + fresh, known)] == ["DET104"]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(["not", "a", "dict"]))
        with pytest.raises(AnalysisError):
            load_baseline(bad)


class TestExpandedSources:
    """Regression net for the wall-clock/entropy source tables: every call
    the flow analyzer treats as a taint source must also lint as DET1xx."""

    @pytest.mark.parametrize("call", [
        "time.monotonic()", "time.monotonic_ns()", "time.perf_counter()",
        "time.perf_counter_ns()", "time.process_time()", "time.thread_time()",
        "time.clock_gettime(0)", "time.clock_gettime_ns(0)",
    ])
    def test_clock_variants_flagged(self, call):
        source = f"import time\n\ndef f(stub):\n    return {call}\n"
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET101"]

    def test_datetime_now_flagged_through_alias(self):
        source = (
            "from datetime import datetime as dt\n\n"
            "def f(stub):\n    return dt.now().isoformat()\n"
        )
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET101"]

    def test_os_urandom_flagged_as_entropy(self):
        source = "import os\n\ndef f(stub):\n    return os.urandom(8)\n"
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET102"]

    def test_linter_and_flow_share_one_source_table(self):
        from repro.analysis import linter
        from repro.analysis.flow import taint

        assert taint.CLOCK_CALLS is linter.CLOCK_CALLS
        assert taint.UUID_CALLS is linter.UUID_CALLS


class TestMultiRulePragmas:
    def test_line_pragma_with_rule_list(self):
        source = (
            "import time\n\n"
            "def f(stub, score):\n"
            "    return f'{score:.2f}', time.time()  # reprolint: disable=DET101,DET107\n"
        )
        assert lint_source(source, CC_PATH) == []

    def test_line_pragma_list_is_still_specific(self):
        source = (
            "import time\n\n"
            "def f(stub, score):\n"
            "    return f'{score:.2f}', time.time()  # reprolint: disable=DET107,DET105\n"
        )
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET101"]

    def test_disable_file_with_rule_list(self):
        source = (
            "# reprolint: disable-file=DET101,DET104\n"
            "import time\nimport uuid\n\n"
            "def f(stub):\n    return time.time(), uuid.uuid4()\n"
        )
        assert lint_source(source, CC_PATH) == []

    def test_disabled_file_findings_do_not_reach_the_baseline_diff(self):
        source = (
            "# reprolint: disable-file=DET101\n"
            "import time\nimport uuid\n\n"
            "def f(stub):\n    return time.time(), uuid.uuid4()\n"
        )
        findings = lint_source(source, CC_PATH)
        # Only the non-suppressed finding is left to diff against a baseline.
        assert [f.rule_id for f in diff_baseline(findings, set())] == ["DET104"]


class TestBaselineStability:
    def test_write_is_deduped_and_sorted(self, tmp_path):
        findings = lint_source(
            "import time\nimport uuid\n\n"
            "def f(stub):\n    return time.time(), uuid.uuid4()\n",
            CC_PATH,
        )
        target = tmp_path / "b.json"
        # Duplicates and arbitrary input order must not change the bytes.
        write_baseline(target, list(reversed(findings)) + findings)
        first = target.read_bytes()
        write_baseline(target, findings + findings)
        assert target.read_bytes() == first
        payload = json.loads(first)
        assert len(payload["findings"]) == len(findings)
        keys = [(f["path"], f["rule_id"]) for f in payload["findings"]]
        assert keys == sorted(keys)

    def test_baseline_identity_ignores_line_moves(self, tmp_path):
        original = lint_source(
            "import time\n\ndef f(stub):\n    return time.time()\n", CC_PATH
        )
        target = tmp_path / "b.json"
        write_baseline(target, original)
        shifted = lint_source(
            "import time\n\n\n\n\ndef f(stub):\n    return time.time()\n", CC_PATH
        )
        assert diff_baseline(shifted, load_baseline(target)) == []
