"""Op times measured as CPU time at a nominal CPU speed.

Every op is in-process CPU work (network delay is simulated), so an op's
cost is the CPU time the process spends on it. On the shared 2-core x86
virtual machine the benchmark was tuned on, the wall clock measures that
badly, in two ways:

* The hypervisor deschedules the virtual CPUs for tens of milliseconds at a
  time when the host is busy ("steal" in ``/proc/stat``: half the CPU time in
  some minutes). Wall time counts those stalls; CPU time (:func:`cpu_time`:
  every thread of the process, and the child processes it has reaped) does
  not.
* The CPU runs at one of two speeds 1.4-1.8x apart, switching every
  fraction of a second to every few seconds as other tenants come and go.
  The share of a run spent in the slow state moved the median submit
  latency of ``store_fresh`` by 20-30% between runs of the same code, in
  CPU time as in wall time.

:class:`SpeedProbe` samples the speed between ops by timing a fixed
reference task (no ``repro`` code) in thread CPU time, every op or every few
ops (at most about 50 ms apart) and around each set-up. An op's CPU time is
scaled by ``NOMINAL_S`` / (mean of the samples just before and after it): it
reads as if the task had taken ``NOMINAL_S``, a round figure near its time on
that machine. Raw wall times are printed beside.

CPU time counts the work of ``parallel_map``'s worker threads in full, not
only the part that did not overlap: a change that only overlaps more of an
op's work shows in the per-layer ``parallel.speedup``, not in op times.

The task cannot tell a slow CPU from one the program keeps busy from
another thread, which would scale that thread's cost away; and a child
process's CPU time counts only once the child has been reaped. So each
sample also checks that the process runs no other thread and no
``multiprocessing`` child, and the run fails if one outlived an op.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import threading
from bisect import bisect_right
from time import perf_counter, process_time, thread_time

NOMINAL_S = 1.0e-3  # near the reference task's CPU time on a 2-core x86 VM


def cpu_time() -> float:
    """CPU seconds used so far by every thread of this process and by the
    child processes it has reaped."""
    times = os.times()
    return process_time() + times.children_user + times.children_system


def reference_s() -> float:
    """Best of two CPU timings of a fixed task.

    It builds, encodes, hashes and parses a small JSON document, as the
    program's own hot paths do (``canonical_json``, SHA-256, ``json.loads``):
    the slow state slows memory-bound work more than plain arithmetic, and a
    reference that only spins on integers missed part of it.
    """
    best = float("inf")
    for _ in range(2):
        start = thread_time()
        doc = {f"k{i}": [i, str(i) * 3, {"v": i * 0.5}] for i in range(150)}
        text = json.dumps(doc, sort_keys=True)
        for _ in range(4):
            hashlib.sha256(text.encode()).digest()
            json.loads(text)
        best = min(best, thread_time() - start)
    return best


class SpeedProbe:
    """Reference samples over one run, and the scale they give each op."""

    def __init__(self, every: int = 1) -> None:
        self.every = every  # ops between samples
        self.at: list[float] = []  # perf_counter() when each sample was taken
        self.took: list[float] = []
        self.strays = 0  # samples taken while another thread or a child ran

    def sample(self) -> None:
        if threading.active_count() != 1 or multiprocessing.active_children():
            self.strays += 1
        self.at.append(perf_counter())
        # With the collector off, the task's garbage is freed by reference
        # counting and leaves the collector's allocation counts as they were:
        # a collection the program's own allocations are due still runs
        # inside the op that is due it, not in the probe between ops.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.took.append(reference_s())
        finally:
            if enabled:
                gc.enable()

    def before_op(self, i: int) -> None:
        """Sample before every ``every``-th op. A count, not a clock, sets
        the cadence: the task allocates, and a cadence that varied from run
        to run would move the program's garbage collections with it."""
        if i % self.every == 0:
            self.sample()

    def scale(self, when: float) -> float:
        """Factor for an op that started at ``when`` (a ``perf_counter``
        time): nominal over the mean of the samples around it."""
        k = max(0, bisect_right(self.at, when) - 1)
        around = self.took[k:k + 2]
        return NOMINAL_S * len(around) / sum(around)
