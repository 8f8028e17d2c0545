"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run and reports the per-layer
metrics, the Amdahl table and the tracing overhead.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the units (missions, or cells for ``replay``) the
run tried and ``failed`` those its family's checks rejected, so
``failed / attempted`` is the ``fail_frac`` end-to-end metric.  Results,
provenance and spans are also written under ``.perfbench-out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import SETUP_STEPS, reference_seconds, steps_per_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: The modules whose import is part of set-up.
IMPORTS = ("repro.exp", "repro.eval.campaign", "repro.eval.gray",
           "repro.eval.fleet_campaign", "repro.eval.transition_matrix")

#: Fresh interpreters whose imports a timed run times, and repetitions
#: of the in-process set-up (the median of each counts).
IMPORT_REPS = 13
SETUP_REPS = 5


def load_benchmark() -> dict:
    """``BENCHMARK.json``: the workloads' reasons and the metrics' units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_rev() -> str:
    """The checkout's commit, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def import_in_subprocess() -> tuple:
    """(import seconds, host speed) of one fresh interpreter's imports.

    The speed is the mean of four calibration samples: two in the child
    around its imports, two here around the child."""
    sample = f"calibrate.steps_per_s({SETUP_STEPS})"
    code = (f"import calibrate, time; b = {sample}; "
            "t = time.perf_counter(); "
            + "; ".join(f"import {name}" for name in IMPORTS)
            + f"; t = time.perf_counter() - t; print(t, b, {sample})")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    before = steps_per_s(SETUP_STEPS)
    done = subprocess.run([sys.executable, "-c", code], cwd=str(ROOT),
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    after = steps_per_s(SETUP_STEPS)
    host_s, *child = (float(field) for field in done.stdout.split()[-3:])
    return host_s, statistics.mean([before, after] + child)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def loop(workload, store_factory, seconds: float, passes: int = 0):
    """The closed loop.  Iteration ``i`` runs slot ``i % K`` of the
    workload's ``K = fixed_iterations`` slots, each time in a fresh
    store, so every pass repeats the same work cold.  It runs whole
    passes until ``seconds`` have passed (at least one), or exactly
    ``passes`` passes.  A calibration sample separates iterations."""
    slots = workload.fixed_iterations
    done = []
    speed = steps_per_s()
    start = time.perf_counter()
    while True:
        if len(done) % slots == 0:
            finished = len(done) // slots
            if passes and finished >= passes:
                break
            if not passes and finished and (
                    time.perf_counter() - start >= seconds):
                break
        it = workload.iterate(len(done) % slots, store_factory())
        before, speed = speed, steps_per_s()
        it.ref_s = reference_seconds(it.host_s, before, speed)
        done.append(it)
    return done


def rates(workload, iterations, attr="ref_s"):
    """(missions/s, cells/s) of one pass, each slot timed by the median
    of its repetitions (in reference seconds unless ``attr`` says)."""
    slots = workload.fixed_iterations
    seconds = missions = cells = 0
    for slot in range(slots):
        reps = iterations[slot::slots]
        seconds += statistics.median(getattr(it, attr) for it in reps)
        missions += reps[0].missions
        cells += reps[0].cells
    return missions / seconds, cells / seconds


def tally(workload, iterations):
    """(attempted, failed, problems) over a list of iterations."""
    attempted = failed = 0
    problems = []
    for index, it in enumerate(iterations):
        units = it.missions if workload.unit == "missions" else it.cells
        attempted += units
        if it.problems:
            failed += units
            problems.extend(f"iteration {index}: {p}" for p in it.problems)
    return attempted, failed, problems


def measure_setup(workload):
    """(imports, set-ups): ``(host s, reference s)`` per repetition.

    Imports are timed in ``IMPORT_REPS`` fresh interpreters; the
    in-process set-up is repeated ``SETUP_REPS`` times, each
    step between two calibration samples."""
    imports = []
    for _ in range(IMPORT_REPS):
        host_s, speed = import_in_subprocess()
        imports.append((host_s, reference_seconds(host_s, speed, speed)))
    setups = []
    for _ in range(SETUP_REPS):
        host_s = ref_s = 0.0
        speed = steps_per_s(SETUP_STEPS)
        for step in workload.setup_steps():
            start = time.perf_counter()
            step()
            step_s = time.perf_counter() - start
            before, speed = speed, steps_per_s(SETUP_STEPS)
            host_s += step_s
            ref_s += reference_seconds(step_s, before, speed)
        setups.append((host_s, ref_s))
    return imports, setups


def timed(workload, args, scratch, report):
    """The end-to-end run: tracing off."""
    imports, setups = measure_setup(workload)
    setup_s = (statistics.median(i[1] for i in imports)
               + statistics.median(i[1] for i in setups))
    host_setup_s = (statistics.median(i[0] for i in imports)
                    + statistics.median(i[0] for i in setups))

    iterations = loop(workload, lambda: _store_in(scratch), args.seconds)
    attempted, failed, problems = tally(workload, iterations)
    missions_per_s, cells_per_s = rates(workload, iterations)
    host_rates = rates(workload, iterations, "host_s")
    fixed = iterations[:workload.fixed_iterations]
    metrics = {
        "missions_per_s": missions_per_s,
        "cells_per_s": cells_per_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    host = {"missions_per_s": host_rates[0], "cells_per_s": host_rates[1],
            "setup_s": host_setup_s}
    sim = workload.sim_metrics(fixed)
    report.update(
        iterations=len(iterations), slots=len(fixed),
        import_host_and_reference_s=imports,
        setup_host_and_reference_s=setups,
        iterations_host_s=[it.host_s for it in iterations],
        iterations_reference_s=[it.ref_s for it in iterations],
        host_measured=host, sim_metrics=sim, fail_frac=failed / attempted,
    )
    lines = []
    for name, value in metrics.items():
        line = f"e2e {name} {value:.6g} {report['units'][name]}"
        if name in host:
            line += f" (host-measured {host[name]:.6g})"
        lines.append(line)
    lines.append(f"e2e fail_frac {failed / attempted:.6g} ratio "
                 f"({failed}/{attempted} {workload.unit})")
    for name in ("request_fail_frac", "slo_miss_frac", "detect_ms"):
        value = sim.get(name)
        unit = "ms" if name == "detect_ms" else "ratio"
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"e2e(sim) {name} {shown} {unit}")
    return metrics, attempted, failed, problems, lines


def traced(workload, args, scratch, report):
    """The per-layer run: ``seconds`` untraced, then one pass traced.  The
    tracing overhead compares the traced pass with the untraced passes,
    each slot timed by the median of its untraced repetitions."""
    import layers
    from repro.kernel import world_arena_stats
    from tracer import Tracer

    workload.setup()
    after_setup = world_arena_stats()
    plain = loop(workload, lambda: _store_in(scratch), args.seconds)
    before_traced = world_arena_stats()
    tracer = Tracer()
    roots = []

    def traced_store():
        store = _store_in(scratch)
        roots.append(str(store.root))
        return store

    with tracer:
        spans = loop(workload, traced_store, 0, passes=1)
    if workload.name == "replay":
        roots = [str(workload.store.root)]
    attempted, failed, problems = tally(workload, plain + spans)
    executed = sum(it.executed for it in spans)
    events = {}
    for it in spans:
        for key, value in it.events.items():
            events[key] = events.get(key, 0) + value
    problems.extend(layers.check_tracer(
        tracer, workload.boundaries, executed, events
    ))
    contention = sum(it.sim.get("contention", 0) for it in spans)
    # leases of the set-up and the traced iterations (a fixed number),
    # leaving out the untraced loop, whose length depends on speed
    arena = {key: after_setup[key] + world_arena_stats()[key]
             - before_traced[key] for key in ("hits", "misses")}
    counts, timings = layers.per_layer(tracer, executed, events, arena,
                                       roots, contention)
    metrics = dict(counts, **timings)
    untraced_rate = _unit_rate(workload, plain)
    traced_rate = _unit_rate(workload, spans)
    metrics["trace.untraced_units_per_s"] = untraced_rate
    metrics["trace.traced_units_per_s"] = traced_rate
    metrics["trace.slowdown"] = untraced_rate / traced_rate
    table = layers.amdahl(metrics)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span.as_row()) + "\n")
    report.update(amdahl=table, spans_file=spans_path.name,
                  count_metrics=sorted(counts))
    lines = [f"layer {name} {metrics[name]:.6g} {unit}"
             for name, unit in report["units"].items()]
    lines.append(f"amdahl ({workload.name}): layer, self-time share, "
                 "ceiling if the layer cost nothing")
    lines.extend(f"amdahl {row['layer']:<10} {row['share'] * 100:6.2f} % "
                 + ("    n/a" if row["ceiling"] is None
                    else f"{row['ceiling']:7.3f}x") for row in table)
    lines.append(
        f"tracing overhead: {untraced_rate:.4g} untraced vs "
        f"{traced_rate:.4g} traced {workload.unit}/s "
        f"(x{metrics['trace.slowdown']:.3f})"
    )
    return metrics, attempted, failed, problems, lines


def _unit_rate(workload, iterations):
    """Units per reference second of one pass (see ``rates``)."""
    missions_per_s, cells_per_s = rates(workload, iterations)
    return missions_per_s if workload.unit == "missions" else cells_per_s


def _store_in(scratch):
    from repro import exp

    return exp.ResultStore(scratch())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in IMPORTS:
        importlib.import_module(name)
    from workloads import WORKLOADS

    bench = load_benchmark()
    reasons = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in WORKLOADS or args.workload not in reasons:
        print(f"perfbench: unknown workload {args.workload!r}; pick from "
              f"{sorted(reasons)}", file=sys.stderr)
        return 2
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=str(OUT)))
    counter = iter(range(1_000_000))

    def scratch() -> str:
        path = tmp / f"store-{next(counter)}"
        path.mkdir()
        return str(path)

    workload = WORKLOADS[args.workload](args.seed, scratch)
    report = {
        "workload": workload.name, "why": reasons[workload.name],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "git_rev": git_rev(),
        },
        "units": {m["name"]: m["unit"] for m in listed},
    }
    # a terminated run still removes its scratch stores
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.trace:
            outcome = traced(workload, args, scratch, report)
        else:
            outcome = timed(workload, args, scratch, report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics, attempted, failed, problems, lines = outcome
    metrics = {name: metrics[name] for name in report["units"]}
    correct = not problems and failed == 0
    report.update(correct=correct, attempted=attempted, failed=failed,
                  problems=problems, metrics=metrics)
    result_path = OUT / (f"{workload.name}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    result_path.write_text(json.dumps(report, indent=1, default=str))

    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {report['why']}")
    print("provenance: " + " ".join(
        f"{k}={v}" for k, v in report["provenance"].items()))
    for line in lines:
        print(line)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"results: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": report["units"][name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
