"""Gates on the benchmark itself: determinism and run-to-run spread.

From the root of a checkout::

    python3 perfbench/check.py determinism --seed 3
    python3 perfbench/check.py spread --seeds 10

``determinism`` runs every workload twice with the same seed, untraced
and traced, and requires the deterministic end-to-end metrics
(``fail_frac`` and the simulated ``request_fail_frac``,
``slo_miss_frac``, ``detect_ms``) and every count-type per-layer metric
to be exactly equal.

``spread`` runs every workload untraced on seeds 1..N and prints, per
end-to-end metric, the median and the interquartile range as a share of
the median (``statistics.quantiles(values, n=4)``).  It fails when a
spread exceeds the metric's bound in ``BENCHMARK.json``, and flags
spreads above a third of the bound.

Both exit non-zero on failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"


def bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the results file it wrote."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    subprocess.run(command, cwd=str(ROOT), check=True, timeout=600,
                   stdout=subprocess.DEVNULL)
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def determinism(args) -> int:
    failures = []
    for workload in args.workloads:
        untraced = [run_once(workload, args.seed, args.seconds, 0)
                    for _ in range(2)]
        traced = [run_once(workload, args.seed, args.seconds, 1)
                  for _ in range(2)]
        for name, runs in (("untraced", untraced), ("traced", traced)):
            for run in runs:
                if not run["correct"]:
                    failures.append(f"{workload} {name}: {run['problems']}")
        a, b = untraced
        for key in ("fail_frac", "sim_metrics"):
            if a[key] != b[key]:
                failures.append(f"{workload} {key}: {a[key]} != {b[key]}")
        counts = traced[0]["count_metrics"]
        a, b = (run["metrics"] for run in traced)
        for name in counts:
            if a[name] != b[name]:
                failures.append(f"{workload} {name}: {a[name]} != {b[name]}")
        print(f"{workload}: seed {args.seed}, "
              f"{len(counts)} counts and "
              f"{1 + len(untraced[0]['sim_metrics'])} deterministic "
              "end-to-end metrics compared")
    for failure in failures:
        print(f"NOT DETERMINISTIC: {failure}")
    return 1 if failures else 0


def spread(args) -> int:
    bounds = {m["name"]: m["bound"] for m in bench()["end_to_end"]}
    seconds = args.seconds or bench()["run_seconds"]
    failures = []
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, args.seeds + 1):
            run = run_once(workload, seed, seconds, 0)
            if not run["correct"]:
                failures.append(f"{workload} seed {seed}: {run['problems']}")
            for name in bounds:
                values[name].append(run["metrics"][name])
        for name, sample in values.items():
            q1, q2, q3 = statistics.quantiles(sample, n=4)
            share = (q3 - q1) / q2
            bound = bounds[name]
            flag = ""
            if share > bound:
                flag = "  OVER BOUND"
                failures.append(f"{workload} {name}: spread {share:.3f}")
            elif share > bound / 3:
                flag = "  above a third of the bound"
            print(f"{workload:9} {name:15} median {q2:10.4f} "
                  f"IQR/median {share:.4f} (bound {bound}){flag}")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    names = [w["name"] for w in bench()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="gate", required=True)
    det = sub.add_parser("determinism")
    det.add_argument("--seed", type=int, default=3)
    det.add_argument("--seconds", type=float, default=3.0)
    det.add_argument("--workloads", nargs="+", default=names)
    spr = sub.add_parser("spread")
    spr.add_argument("--seeds", type=int, default=10)
    spr.add_argument("--seconds", type=float, default=0.0,
                     help="default: run_seconds from BENCHMARK.json")
    spr.add_argument("--workloads", nargs="+", default=names)
    args = parser.parse_args(argv)
    return determinism(args) if args.gate == "determinism" else spread(args)


if __name__ == "__main__":
    sys.exit(main())
