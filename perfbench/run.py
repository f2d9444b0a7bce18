"""The repository's benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload store_fresh --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with the program as shipped,
its wall clock stepped (:func:`workloads.stepped_wall_clock`): ``repro.obs``
tracing, the cost-center profiler and the runtime sanitizers must all be
off, or the run is refused. Op and set-up times are the CPU time the
process spends on them, at a nominal CPU speed (:mod:`speed`); the raw wall
times are printed beside.
``--trace 1`` reports the per-layer metrics instead. It runs the same ops
three times on fresh set-ups: traced, untraced, traced again
(:class:`tracing.LayerTracer`), and requires every count metric to repeat
exactly between the two traced passes. The spans of the second traced pass
are written to ``.perfbench/``.

Every op's output is checked against what the generator put in; a wrong
answer fails the run, a raised error is counted as a failed op. After the
timed ops every peer must hold the same height and world state, and
``LedgerExplorer.audit_chain()`` must come back clean. The last line printed
is ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("perfbench: no src/repro beside perfbench/; run it from a checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
from speed import SpeedProbe, cpu_time  # noqa: E402
from tracing import LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    WrongAnswer,
    stepped_wall_clock,
    stored_bytes_per_user_byte,
    system_counters,
)

OUT_DIR = ROOT / ".perfbench"


def load_spec() -> dict[str, str]:
    """Units of the end-to-end metrics, from BENCHMARK.json, after checking
    that its per-layer list is the one :mod:`layers` computes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    computed = [(m.name, m.unit, m.better) for m in layers.METRICS]
    if declared != computed:
        sys.exit("perfbench: BENCHMARK.json per_layer differs from perfbench/layers.py")
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


@dataclass
class PassResult:
    """One pass over the ops. Times are CPU times scaled to the nominal CPU
    speed (:mod:`speed`), except the ``raw`` wall times."""

    latencies: dict = field(default_factory=lambda: defaultdict(list))  # kind -> s
    all_ops: list = field(default_factory=list)  # every completed op, s
    raw: dict = field(default_factory=lambda: defaultdict(list))  # kind -> s
    busy_s: float = 0.0  # summed op time, failed ops included
    raw_busy_s: float = 0.0
    entries: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    wall_s: float = 0.0
    delta: dict = field(default_factory=dict)
    strays: int = 0


def require_uninstrumented(fw=None) -> None:
    """Refuse to measure unless the program's own instruments are all off
    (checked once before set-up, and again on the set-up framework ``fw``)."""
    from repro.analysis.runtime import enabled_modes
    from repro.obs.prof import get_profiler
    from repro.obs.tracer import get_tracer

    on = [
        name
        for name, active in (
            ("REPRO_SANITIZE", bool(enabled_modes(""))),
            ("framework sanitizer", fw is not None and fw.sanitizer is not None),
            ("repro.obs tracing", get_tracer() is not None),
            ("cost-center profiler", get_profiler() is not None),
        )
        if active
    ]
    if on:
        raise SystemExit(f"refusing to measure with instrumentation on: {', '.join(on)}")
    if fw is not None:
        print("instrumentation: REPRO_SANITIZE unset, obs tracing off, profiler off")


def n_ops(workload, seconds: int) -> int:
    return max(workload.min_ops, math.ceil(seconds * workload.rate))


def set_up(workload, inputs, repeats: int, probe: SpeedProbe):
    """Set the system up ``repeats`` times; return the last state, and the
    scaled CPU time and the raw wall time of each set-up.

    A set-up is timed in stretches: it calls ``pause()`` between long steps,
    which samples the CPU speed there, untimed, so each stretch is scaled by
    the speed around it rather than by samples seconds apart.
    """
    times, raw, state = [], [], None
    for _ in range(repeats):
        state = None  # let the previous set-up go before building the next
        gc.collect()
        marks = []  # (wall, cpu) at the start and the end of each stretch

        def pause() -> None:
            marks.append((perf_counter(), cpu_time()))
            probe.sample()
            marks.append((perf_counter(), cpu_time()))

        probe.sample()
        marks.append((perf_counter(), cpu_time()))
        state = workload.setup(inputs, pause)
        marks.append((perf_counter(), cpu_time()))
        probe.sample()
        stretches = list(zip(marks[::2], marks[1::2]))
        times.append(sum((c1 - c0) * probe.scale(t0) for (t0, c0), (_, c1) in stretches))
        raw.append(sum(t1 - t0 for (t0, _), (t1, _) in stretches))
    return state, times, raw


def run_pass(workload, state, inputs, n: int, tracer: LayerTracer | None = None) -> PassResult:
    """Issue ops 0..n-1 back to back (one closed-loop client, no think time)."""
    engines = workload.engines(state)
    before = system_counters(state["fw"], engines)
    result, timed = PassResult(), []
    probe = SpeedProbe(workload.probe_every)
    gc.collect()
    window = perf_counter()
    for i in range(n):
        workload.prepare(inputs, i)  # generates inputs, if any, untimed
        probe.before_op(i)
        kind = None
        start, cpu = perf_counter(), cpu_time()
        try:
            if tracer is None:
                outcome = workload.op(state, inputs, i)
            else:
                with tracer.op_span(i, workload.name):
                    outcome = workload.op(state, inputs, i)
            kind = outcome.kind
            result.entries += outcome.entries
        except WrongAnswer as exc:
            result.wrong.append(str(exc))
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
            result.failed += 1
            result.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        timed.append((start, cpu_time() - cpu, perf_counter() - start, kind))
    probe.sample()
    result.wall_s = perf_counter() - window
    for start, cpu, wall, kind in timed:
        scaled = cpu * probe.scale(start)
        result.busy_s += scaled
        result.raw_busy_s += wall
        if kind is not None:
            result.latencies[kind].append(scaled)
            result.all_ops.append(scaled)
            result.raw[kind].append(wall)
    result.strays = probe.strays
    after = system_counters(state["fw"], engines)
    result.delta = {key: after[key] - before[key] for key in after}
    return result


def pass_problems(res: PassResult) -> list[str]:
    problems = list(res.wrong)
    if res.strays:
        problems.append(f"{res.strays} speed samples saw a thread or child process that "
                        "outlived an op; its cost would be missed or scaled away")
    return problems


def percentile_ms(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return 1e3 * samples[0] if samples else 0.0
    if pct == 50:
        return 1e3 * statistics.median(samples)
    return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def report(errors: list[str], problems: list[str]) -> None:
    """Print failed ops (counted, not fatal) and problems (fatal)."""
    for label, lines in (("FAILED", errors), ("PROBLEM", problems)):
        for line in lines[:20]:
            print(label, line)
        if len(lines) > 20:
            print(f"{label} ... and {len(lines) - 20} more")


def untraced_run(workload, seed: int, seconds: int) -> dict:
    require_uninstrumented()
    n = n_ops(workload, seconds)
    started = perf_counter()
    inputs = workload.inputs(seed, n)
    before, after = workload.setup_repeats
    probe = SpeedProbe()
    with stepped_wall_clock():
        state, setup_s, setup_raw = set_up(workload, inputs, before, probe)
        require_uninstrumented(state["fw"])
        res = run_pass(workload, state, inputs, n)
        checked = perf_counter()
        problems = pass_problems(res) + workload.check(state, inputs)
        stored = stored_bytes_per_user_byte(state["fw"], state["user_bytes"])
        user_bytes = state["user_bytes"]
        del state
        _, more_s, more_raw = set_up(workload, inputs, after, probe)
        setup_s, setup_raw = setup_s + more_s, setup_raw + more_raw
    print(f"run: {perf_counter() - started:.1f} s in all, {sum(setup_raw):.1f} s set-up, "
          f"{res.wall_s:.1f} s ops, {perf_counter() - checked:.1f} s checks")
    main, raw_main = res.latencies.get(workload.main, []), res.raw.get(workload.main, [])
    beyond = len(res.all_ops) * (100 - workload.tail) / 100
    if not main or beyond < 10:
        problems.append(f"{len(main)} {workload.main} ops, {beyond:.0f} ops beyond "
                        f"p{workload.tail}: too few to report")
    ok = n - res.failed - len(res.wrong)
    raw_all = sorted(t for ts in res.raw.values() for t in ts)
    rows = {  # name: (value, raw wall value, note)
        "setup_s": (statistics.median(setup_s), statistics.median(setup_raw),
                    f"median of {len(setup_s)} set-ups"),
        "ops_per_s": (ok / res.busy_s, ok / res.raw_busy_s,
                      f"{ok} ops; {res.wall_s:.2f} s wall with harness"),
        "entries_per_s": (res.entries / res.busy_s, res.entries / res.raw_busy_s,
                          f"{res.entries} entries"),
        "p50_ms": (percentile_ms(main, 50), percentile_ms(raw_main, 50),
                   f"median {workload.main}, n={len(main)}"),
        "tail_ms": (percentile_ms(res.all_ops, workload.tail),
                    percentile_ms(raw_all, workload.tail),
                    f"p{workload.tail} of all ops, n={len(res.all_ops)}"),
        "ok_op_ratio": (ok / n, None, f"{res.failed} failed, {len(res.wrong)} wrong of {n}"),
        "stored_bytes_per_user_byte": (stored, None, f"{user_bytes} payload bytes"),
    }
    units = load_spec()
    if set(rows) != set(units):
        sys.exit("perfbench: BENCHMARK.json end_to_end differs from the metrics computed")
    for name, (value, raw, note) in rows.items():
        wall = "" if raw is None else f", raw wall {raw:.6g}"
        print(f"{name} = {value:.6g} {units[name]}  ({note}{wall})")
    for kind, samples in sorted(res.latencies.items()):
        print(f"  {kind}: p50 {percentile_ms(samples, 50):.3f} ms, n={len(samples)}")
    report(res.errors, problems)
    return {
        "correct": not problems,
        "attempted": n,
        "failed": res.failed + len(res.wrong),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, (value, _, _) in rows.items()
        },
    }


def measured_pass(workload, seed: int, n: int, tracer: LayerTracer | None):
    """Fresh inputs and set-up, then ``n`` ops, traced when given a tracer.
    Returns the pass, the problems found, and the end-of-run index size and
    payload bytes the per-layer metrics divide by."""
    if tracer is None:
        require_uninstrumented()
    inputs = workload.inputs(seed, n)
    with stepped_wall_clock():
        state, _, _ = set_up(workload, inputs, 1, SpeedProbe())
        if tracer is None:
            require_uninstrumented(state["fw"])
            res = run_pass(workload, state, inputs, n)
        else:
            with tracer:
                res = run_pass(workload, state, inputs, n, tracer)
        problems = pass_problems(res) + workload.check(state, inputs)
    leaves = len(state["fw"].indexing.reference_peer().index.leaves())
    return res, problems, leaves, state["user_bytes"]


def traced_run(workload, seed: int, seconds: int) -> dict:
    """Traced, untraced, traced: the untraced pass runs warm, between the two
    traced ones; the metrics come from the second traced pass."""
    n = math.ceil(n_ops(workload, seconds) / 3)
    tracers = [LayerTracer(), None, LayerTracer()]
    passes = [measured_pass(workload, seed, n, tracer) for tracer in tracers]
    untraced = passes[1][0]
    op_ms = {kind: percentile_ms(s, 50) for kind, s in untraced.latencies.items()}
    op_ms["read_p99"] = percentile_ms(untraced.latencies.get("read", []), 99)

    def metrics_of(measured, tracer):
        res, _, leaves, user_bytes = measured
        return layers.compute(layers.Pass(
            stats=tracer.analyse(), delta=res.delta, entries=res.entries, batches=n,
            user_bytes=user_bytes, leaves=leaves, traced_s=res.busy_s,
            untraced_s=untraced.busy_s, op_ms=op_ms,
        ))

    repeat, values = (metrics_of(passes[i], tracers[i]) for i in (0, 2))
    problems = [p for _, found, *_ in passes for p in found]
    for metric in layers.METRICS:
        if metric.exact and values[metric.name] != repeat[metric.name]:
            problems.append(f"count {metric.name} did not repeat: "
                            f"{repeat[metric.name]!r} then {values[metric.name]!r}")
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    tracers[2].write(str(span_file))
    print(f"{len(tracers[2].spans)} spans of the second traced pass in {span_file}")
    for metric in layers.METRICS:
        print(f"{metric.name} = {values[metric.name]:.6g} {metric.unit}  "
              f"(moves {metric.moves})")
    report([e for res, *_ in passes for e in res.errors], problems)
    return {
        "correct": not problems,
        "attempted": 3 * n,
        "failed": sum(res.failed + len(res.wrong) for res, *_ in passes),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in layers.METRICS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_spec()
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    result = run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
