"""Rule catalogue shared by the linter and the runtime sanitizers.

Every check — static (``DET*``/``HYG*``, reported by :mod:`repro.analysis.
linter`) or dynamic (``SAN*``, reported by the sanitizers) — carries a rule
id, a severity, and a fix hint, so a finding is actionable wherever it
surfaces: linter output, sanitizer report, or the CI lint gate.

Suppression is per line or per file, via pragma comments::

    x = json.dumps(v)  # reprolint: disable=DET105
    y = time.time()    # reprolint: disable          (all rules, this line)
    # reprolint: disable-file=HYG204                 (whole file, these rules)

Findings are plain data (``to_dict``/``from_dict``) so the JSON output and
the checked-in baseline round-trip losslessly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import AnalysisError

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One checkable property, static or dynamic."""

    id: str
    severity: str
    summary: str
    fix_hint: str
    scope: str  # "chaincode" | "repo" | "runtime"


_RULES = (
    # -- determinism rules: chaincode modules only -------------------------
    Rule("DET101", ERROR, "wall-clock read in chaincode",
         "use stub.get_timestamp(); endorsers reading real clocks diverge",
         "chaincode"),
    Rule("DET102", ERROR, "random number source in chaincode",
         "derive values from tx inputs (tx id, args); randomness diverges rwsets",
         "chaincode"),
    Rule("DET103", ERROR, "environment read in chaincode",
         "pass configuration through chaincode args, not os.environ",
         "chaincode"),
    Rule("DET104", ERROR, "uuid generation in chaincode",
         "key state off stub.get_tx_id(); uuids differ per endorser",
         "chaincode"),
    Rule("DET105", ERROR, "json.dumps without sort_keys=True in chaincode",
         "use repro.util.serialization.canonical_json for state values",
         "chaincode"),
    Rule("DET106", ERROR, "iteration over a set in chaincode",
         "sets iterate in hash order; sort first (sorted(...)) before iterating",
         "chaincode"),
    Rule("DET107", WARNING, "float formatting in chaincode",
         "float presentation is locale/precision-fragile in state values; "
         "store numbers as JSON numbers via canonical_json",
         "chaincode"),
    # -- hygiene rules: whole repository -----------------------------------
    Rule("HYG201", WARNING, "lock.acquire() outside a with-statement",
         "use `with lock:` so the release survives exceptions",
         "repo"),
    Rule("HYG202", WARNING, "broad except swallows the error",
         "catch the narrowest type, or at least log/annotate before continuing",
         "repo"),
    Rule("HYG203", ERROR, "mutable default argument",
         "default to None and create the container inside the function",
         "repo"),
    Rule("HYG204", WARNING, "mutation of module-level shared state inside a function",
         "pass the structure explicitly or keep it on the object that owns "
         "it; hidden module state couples every caller",
         "repo"),
    Rule("HYG205", ERROR, "import of a thread or process API",
         "the core is single-threaded: run the work inline (a plain loop), "
         "not on a thread, executor or subprocess pool",
         "repo"),
    # -- runtime sanitizer rules (never produced by the linter) ------------
    Rule("SAN301", ERROR, "endorsement re-simulation diverged",
         "the chaincode is nondeterministic: two simulations of one proposal "
         "produced different rwsets/responses on the same peer",
         "runtime"),
    Rule("SAN302", ERROR, "ledger hash-chain link broken",
         "block's previous_hash does not match the preceding header hash",
         "runtime"),
    Rule("SAN303", ERROR, "block Merkle root mismatch",
         "a transaction envelope was altered after ordering",
         "runtime"),
    Rule("SAN304", ERROR, "non-monotone ledger height",
         "a peer committed out of sequence; block delivery is broken",
         "runtime"),
    Rule("SAN305", ERROR, "world-state replay divergence",
         "replaying all valid write sets does not reproduce the live state",
         "runtime"),
    Rule("SAN306", ERROR, "consensus logs diverged",
         "honest validators' decided logs are not prefix-consistent",
         "runtime"),
    Rule("SAN307", ERROR, "post-recovery state divergence",
         "a crash-recovered peer's state digest disagrees with honest peers "
         "at the same height, or the recovered chain fails audit_chain()",
         "runtime"),
    Rule("SAN308", ERROR, "secondary index diverged from world state",
         "a peer's block-incremental index does not match an index rebuilt "
         "from its world state at the same height",
         "runtime"),
    Rule("SAN309", ERROR, "indexed query answers diverge from scan answers",
         "the authenticated index route and the chaincode scan route "
         "returned different answers for the same query",
         "runtime"),
    # -- flow rules: whole-program interprocedural analysis ----------------
    Rule("FLOW501", ERROR, "wall-clock value flows into a consensus-critical sink",
         "replicas read different clocks; plumb sim_clock / stub.get_timestamp() "
         "instead, or keep timestamps out of digested bytes",
         "flow"),
    Rule("FLOW502", ERROR, "unseeded randomness flows into a consensus-critical sink",
         "derive the value from tx inputs or a seeded repro.util.rng stream",
         "flow"),
    Rule("FLOW503", ERROR, "uuid flows into a consensus-critical sink",
         "uuids differ per replica; key off tx ids or content hashes",
         "flow"),
    Rule("FLOW504", ERROR, "environment value flows into a consensus-critical sink",
         "environment differs per host; pass configuration explicitly",
         "flow"),
    Rule("FLOW505", ERROR, "set-iteration order flows into a consensus-critical sink",
         "set enumeration follows hash order; sorted(...) before the value "
         "becomes consensus-visible",
         "flow"),
    Rule("FLOW506", WARNING, "float-formatted string flows into a consensus-critical sink",
         "float presentation is precision-fragile; ship JSON numbers through "
         "canonical_json instead of formatted strings",
         "flow"),
)

RULES: dict[str, Rule] = {rule.id: rule for rule in _RULES}
LINT_RULE_IDS = tuple(r.id for r in _RULES if r.scope in ("chaincode", "repo"))
FLOW_RULE_IDS = tuple(r.id for r in _RULES if r.scope == "flow")


def get_rule(rule_id: str) -> Rule:
    try:
        return RULES[rule_id]
    except KeyError:
        raise AnalysisError(f"unknown rule id {rule_id!r}") from None


@dataclass(frozen=True)
class Finding:
    """One violation, located as precisely as the evidence allows."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    severity: str = ERROR
    fix_hint: str = ""

    def key(self) -> tuple[str, str, str]:
        """Baseline identity: stable across unrelated edits (no line/col),
        so a baseline entry keeps matching until the finding itself is
        fixed or reworded."""
        return (self.rule_id, self.path, self.message)

    def render(self) -> str:
        hint = f"  [{self.fix_hint}]" if self.fix_hint else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.severity}: {self.message}{hint}"
        )

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
            "fix_hint": self.fix_hint,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Finding":
        return cls(
            rule_id=raw["rule_id"],
            path=raw["path"],
            line=int(raw.get("line", 0)),
            col=int(raw.get("col", 0)),
            message=raw["message"],
            severity=raw.get("severity", ERROR),
            fix_hint=raw.get("fix_hint", ""),
        )

    @classmethod
    def for_rule(cls, rule_id: str, path: str, line: int, col: int, message: str) -> "Finding":
        rule = get_rule(rule_id)
        return cls(
            rule_id=rule_id,
            path=path,
            line=line,
            col=col,
            message=message,
            severity=rule.severity,
            fix_hint=rule.fix_hint,
        )


@dataclass(frozen=True)
class FlowFinding(Finding):
    """A finding with an interprocedural witness chain attached.

    ``trace`` is a tuple of human-readable steps, source first, sink last —
    each ``path:line: what happened``. The trace is presentation only: the
    baseline identity is inherited from :meth:`Finding.key`, so a finding
    keeps matching its baseline entry even when an unrelated edit shifts
    the intermediate hops.
    """

    trace: tuple[str, ...] = ()

    def render(self) -> str:
        head = super().render()
        if not self.trace:
            return head
        steps = "\n".join(f"      {i}. {step}" for i, step in enumerate(self.trace, 1))
        return f"{head}\n{steps}"

    def to_dict(self) -> dict:
        raw = super().to_dict()
        raw["trace"] = list(self.trace)
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "FlowFinding":
        base = Finding.from_dict(raw)
        return cls(
            rule_id=base.rule_id,
            path=base.path,
            line=base.line,
            col=base.col,
            message=base.message,
            severity=base.severity,
            fix_hint=base.fix_hint,
            trace=tuple(raw.get("trace", ())),
        )

    @classmethod
    def for_rule(  # type: ignore[override]
        cls, rule_id: str, path: str, line: int, col: int, message: str,
        trace: tuple[str, ...] = (),
    ) -> "FlowFinding":
        rule = get_rule(rule_id)
        return cls(
            rule_id=rule_id,
            path=path,
            line=line,
            col=col,
            message=message,
            severity=rule.severity,
            fix_hint=rule.fix_hint,
            trace=trace,
        )


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable-file|disable)\s*(?:=\s*(?P<rules>[A-Z0-9,\s]+))?"
)

ALL = "*"


@dataclass(frozen=True)
class Pragmas:
    """Parsed suppression state of one source file."""

    file_disabled: frozenset[str]            # rule ids (or ALL) off everywhere
    line_disabled: dict[int, frozenset[str]]  # line -> rule ids (or ALL)

    def allows(self, rule_id: str, line: int) -> bool:
        for disabled in (self.file_disabled, self.line_disabled.get(line, frozenset())):
            if ALL in disabled or rule_id in disabled:
                return False
        return True


def parse_pragmas(source: str) -> Pragmas:
    file_disabled: set[str] = set()
    line_disabled: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules_raw = match.group("rules")
        rules = (
            frozenset(r.strip() for r in rules_raw.split(",") if r.strip())
            if rules_raw
            else frozenset({ALL})
        )
        if match.group("kind") == "disable-file":
            file_disabled |= rules
        else:
            line_disabled[lineno] = rules | line_disabled.get(lineno, frozenset())
    return Pragmas(file_disabled=frozenset(file_disabled), line_disabled=line_disabled)
