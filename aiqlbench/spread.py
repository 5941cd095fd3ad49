#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 aiqlbench/spread.py --workload hunt --seeds 1 2 3 4 5

Runs `run.py --trace 0` once per seed and prints, for each end-to-end
metric, its median over the runs and the distance between the first and
third quartiles (`statistics.quantiles(values, n=4)`) as a share of that
median, beside the metric's bound from BENCHMARK.json and a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def quartile_spread(values):
    """(q3 − q1) / median, the run-to-run spread the bounds are checked against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    runs = []
    for seed in a.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']}/{result['attempted']} operations failed")
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
    print(f"{'metric':24s} {'median':>12s} {'spread':>8s} {'bound':>6s} {'bound/3':>8s}")
    for m in spec["end_to_end"]:
        values = [r[m["name"]] for r in runs]
        spread = quartile_spread(values) if len(values) >= 2 else float("nan")
        print(f"{m['name']:24s} {statistics.median(values):12.4f} {spread:8.3f} "
              f"{m['bound']:6.2f} {m['bound'] / 3:8.3f}")


if __name__ == "__main__":
    main()
