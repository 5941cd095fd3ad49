#!/usr/bin/env python3
"""Self-tests of the benchmark harness, at a tiny scale.

    python3 aiqlbench/selftest.py

Checks the harness's quantile and interval arithmetic and its hunt draws
(Scala: the same shapes every pass, a fresh footprint for every sweep, and
no pass left after the 9 that 4 hosts allow) and the quartile spread
(Python); runs both workloads with and without tracing and
compares the printed metric names with BENCHMARK.json; and plants a wrong
expected row set for one paper query, which must be counted as failed and
left out of the timings. Takes a few minutes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spread  # noqa: E402

TINY = ["--sf", "0.002", "--seconds", "1"]


def bench(*args):
    out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {out.returncode}:\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


class Arithmetic(unittest.TestCase):

    def test_scala_stats(self):
        jars = run.spark_jars()
        classes, _, _ = run.build(jars)
        out = subprocess.run(["java", "-XX:-UsePerfData", "-cp", os.pathsep.join([classes, os.path.join(jars, "*")]),
                              "repro.perf.SelfTest"], capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)

    def test_quartile_spread(self):
        # statistics.quantiles(n=4) of 1..10 is [2.75, 5.5, 8.25]
        self.assertAlmostEqual(spread.quartile_spread(list(range(1, 11))), 5.5 / 5.5)
        self.assertAlmostEqual(spread.quartile_spread([10.0] * 5), 0.0)


class Workloads(unittest.TestCase):

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = bench("--workload", workload, "--seed", "11",
                                      "--trace", str(trace), *TINY)
                    self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in spec[key]))
                    for m in spec[key]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)

    def test_planted_wrong_rows_count_as_failed(self):
        result, lines = bench("--workload", "investigate", "--seed", "11", "--trace", "0",
                              "--plant-wrong", "q05", *TINY)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any(line.startswith("FAILED q05 aiql") for line in lines), lines)
        # q05's AIQL execution is not among the timed samples
        samples = next(line for line in lines if line.startswith("samples:"))
        timed, passes = map(int, re.match(r"samples: (\d+) untraced timed AIQL queries over (\d+)", samples).groups())
        self.assertEqual(timed, 19 * passes)


if __name__ == "__main__":
    unittest.main(verbosity=2)
