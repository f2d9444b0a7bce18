"""Front door of the flow analyzer: build → analyze → filter → report.

``analyze_paths`` is what the ``repro flowcheck`` CLI and the flow-gate CI
job call: it builds the whole-program index once (through the shared AST
cache), runs the taint pass over it, converts raw pass
output into :class:`~repro.analysis.rules.FlowFinding` records, applies the
same pragma machinery the linter uses (``# reprolint: disable=FLOW501``
suppresses a finding whose *anchor line* carries the pragma;
``disable-file`` suppresses for the whole module), and returns findings in
a deterministic order — sorted by path, line, column, rule — so baseline
diffs never churn from traversal order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from ..rules import FlowFinding, parse_pragmas
from .callgraph import Program, build_program
from .taint import analyze_taint


@dataclass
class FlowReport:
    """Findings plus the program view they were computed from."""

    findings: list[FlowFinding]
    program: Program
    stats: dict = field(default_factory=dict)


def _source_for(program: Program, path: str) -> str | None:
    for module in program.modules.values():
        if module.path == path:
            return module.source
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


_TRACE_LOC_RE = re.compile(r"^(?P<path>.+?):(?P<line>\d+): ")


def _apply_pragmas(program: Program, findings: list[FlowFinding]) -> list[FlowFinding]:
    """Drop findings suppressed at the sink (finding anchor) *or* at the
    source — a pragma on the first step of the witness chain kills every
    downstream finding that chain feeds, so one annotation at the origin
    suppresses the flow instead of decorating every sink."""
    pragma_cache: dict[str, object] = {}

    def pragmas_for(path: str):
        if path not in pragma_cache:
            source = _source_for(program, path)
            pragma_cache[path] = parse_pragmas(source) if source is not None else None
        return pragma_cache[path]

    kept: list[FlowFinding] = []
    for f in findings:
        pragmas = pragmas_for(f.path)
        if pragmas is not None and not pragmas.allows(f.rule_id, f.line):
            continue
        if f.trace:
            loc = _TRACE_LOC_RE.match(f.trace[0])
            if loc is not None:
                src_pragmas = pragmas_for(loc.group("path"))
                if src_pragmas is not None and not src_pragmas.allows(
                    f.rule_id, int(loc.group("line"))
                ):
                    continue
        kept.append(f)
    return kept


def analyze_program(program: Program) -> FlowReport:
    """Run the taint pass over an already-built program index."""
    findings: list[FlowFinding] = []

    taint = analyze_taint(program)
    for t in taint:
        findings.append(FlowFinding.for_rule(
            t.rule_id, t.path, t.line, t.col,
            f"{t.kind} value flows into {t.sink}()",
            trace=t.trace,
        ))

    findings = _apply_pragmas(program, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id, f.message))
    stats = {
        "modules": len(program.modules),
        "functions": len(program.functions),
        "call_edges": sum(len(v) for v in program.edges.values()),
        "taint_findings": len(taint),
        "suppressed": len(taint) - len(findings),
    }
    return FlowReport(findings=findings, program=program, stats=stats)


def analyze_paths(paths: list[str]) -> FlowReport:
    """Build the program index for *paths* and analyze it."""
    return analyze_program(build_program(list(paths)))
