#!/usr/bin/env python3
"""Run one workload of the AIQL benchmark and print its metrics.

    python3 aiqlbench/run.py --workload investigate|hunt \
        --seed N --seconds S --trace 0|1

Run from the root of the repository. The first run compiles the engine
(src/main/scala) together with the harness (aiqlbench/src) into
.bench_build/aiqlbench/classes with the Scala compiler that ships in Spark's
jars; later runs reuse the classes while the sources are unchanged. All
files the run writes stay under .bench_build/aiqlbench.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; its metric names are checked
against BENCHMARK.json (`end_to_end` with --trace 0, `per_layer` with
--trace 1) before it is printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_build", "aiqlbench")
ENGINE_SRC = os.path.join(ROOT, "src", "main", "scala")
# the repository's row canonicaliser, shared with its test suites
ROW_CHECK_SRC = os.path.join(ROOT, "src", "test", "scala", "repro", "TestUtil.scala")

# Fixed run environment: one driver JVM with an explicit heap, Spark in
# local mode on every core this process may use. JVMs run without perf data,
# which they would otherwise write under the system's temporary directory.
DRIVER_HEAP = "3g"
SHUFFLE_PARTITIONS = 4
RUN_TIMEOUT_S = 170
WORKLOADS = ("investigate", "hunt")


def fail(msg, code=2):
    print(f"aiqlbench: {msg}", file=sys.stderr)
    sys.exit(code)


def cores():
    return len(os.sched_getaffinity(0))


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        fail("Spark's jars not found: set SPARK_HOME or put spark-submit on PATH")
    return jars


def scala_sources():
    if not os.path.isdir(ENGINE_SRC) or not os.path.isfile(ROW_CHECK_SRC):
        fail(f"engine sources not found under {ROOT}: run from a full checkout")
    files = [ROW_CHECK_SRC]
    for base in (ENGINE_SRC, os.path.join(BENCH, "src")):
        for d, _, names in os.walk(base):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def source_digest(files):
    h = hashlib.sha1()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(jars):
    """Compile engine + harness unless classes for these sources exist."""
    files = scala_sources()
    digest = source_digest(files)
    classes = os.path.join(WORK, "classes")
    stamp = os.path.join(classes, "SOURCES.sha1")
    if os.path.isfile(stamp):
        with open(stamp) as fh:
            if fh.read().strip() == digest:
                return classes, files, digest
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    scalac_cp = os.pathsep.join(
        os.path.join(jars, f"scala-{m}-2.13.17.jar") for m in ("compiler", "library", "reflect"))
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx1g", "-cp", scalac_cp, "scala.tools.nsc.Main",
           "-nowarn", "-usejavacp", "-cp", os.path.join(jars, "*"), "-d", tmp] + files
    print(f"aiqlbench: compiling {len(files)} sources", file=sys.stderr, flush=True)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("compilation failed")
    with open(os.path.join(tmp, "SOURCES.sha1"), "w") as fh:
        fh.write(digest + "\n")
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    return classes, files, digest


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() or None if out.returncode == 0 else None
    except OSError:
        return None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # scale and a planted wrong result, for the harness's own self-tests
    ap.add_argument("--sf", type=float)
    ap.add_argument("--plant-wrong")
    a = ap.parse_args(argv)

    jars = spark_jars()
    classes, files, digest = build(jars)
    engine_files = [f for f in files if f.startswith(ENGINE_SRC)]
    loc = sum(sum(1 for _ in open(f, encoding="utf-8")) for f in engine_files)
    print(json.dumps({"env": {
        "git_sha": git_sha(), "sources_sha1": digest, "src_main_loc": loc,
        "cores": cores(), "driver_heap": DRIVER_HEAP}}), flush=True)

    run_dir = os.path.join(WORK, "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp)
    cmd = ["java", "-XX:-UsePerfData", f"-Xmx{DRIVER_HEAP}", f"-Djava.io.tmpdir={tmp}",
           "-Dspark.driver.host=127.0.0.1",
           "-cp", os.pathsep.join([classes, os.path.join(jars, "*")]),
           "repro.perf.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--master", f"local[{cores()}]",
           "--shuffle-partitions", str(SHUFFLE_PARTITIONS), "--work", run_dir]
    for flag, v in (("--sf", a.sf), ("--plant-wrong", a.plant_wrong)):
        if v is not None:
            cmd += [flag, str(v)]

    expired = []
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, lambda: (expired.append(1), proc.kill()))
    timer.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    if expired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark JVM exited with code {proc.returncode}")
    try:
        result = json.loads(last or "")
    except ValueError:
        fail(f"last line is not a JSON result: {last!r}")
    want = expected_metrics(a.trace)
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(want) or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys do not match BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    print(last, flush=True)


if __name__ == "__main__":
    main()
