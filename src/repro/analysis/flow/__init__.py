"""Interprocedural flow analysis: nondeterminism taint.

One pass over one whole-program index (see :mod:`.callgraph`):

* :mod:`.taint` — FLOW501–506, nondeterminism sources reaching
  consensus-critical sinks through any number of calls;
* :mod:`.engine` — orchestration, pragma filtering, deterministic output.
"""

from .callgraph import Program, build_program
from .engine import FlowReport, analyze_paths, analyze_program
from .taint import analyze_taint

__all__ = [
    "Program",
    "build_program",
    "analyze_paths",
    "analyze_program",
    "analyze_taint",
    "FlowReport",
]
