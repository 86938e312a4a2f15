"""Run one workload over several seeds and report each metric's spread.

The spread of a metric is the distance between the first and third
quartiles of its per-seed values (``statistics.quantiles(values, n=4)``)
as a share of their median; it is compared with the metric's bound from
``BENCHMARK.json``.  Run from the repository root::

    python3 perfbench/spread.py --workload serve-unique --seeds 1-5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    values = {}
    for seed in args.seeds:
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(benchmark["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - started
        if completed.returncode != 0:
            print(completed.stdout + completed.stderr, file=sys.stderr)
            return 1
        verdict = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: wall={wall:.1f}s correct={verdict['correct']} "
              f"failed={verdict['failed']}/{verdict['attempted']} " +
              " ".join(f"{name}={m['value']:.4f}"
                       for name, m in verdict["metrics"].items()), flush=True)
        for name, metric in verdict["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = bounds.get(name)
        verdict = ("" if bound is None else
                   f" bound={bound} {'ok' if spread <= bound / 3 else 'WIDE'}")
        print(f"{name}: median={q2:.4f} spread={spread:.3f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
