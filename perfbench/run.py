#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record DIR]

The first call builds perfbench/ (which compiles the library from src/)
into the build directory: $CARGO_TARGET_DIR when set, else .bench_build.
Later calls rebuild incrementally. The last line of standard output is one
JSON object with exactly the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1 (names and units as listed in BENCHMARK.json). The lines before
it stamp the environment and give the run's details. --record DIR
additionally appends the whole run (environment stamp included) to
DIR/runs.jsonl for perfbench/compare.py.

The exit code is 0 only when every round passed its output check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ss-onion", "peos-eos", "fleet-solh", "fleet-grr")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(bdir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    cmake_dir = os.path.join(bdir, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                log.write("\n%s\n" % err)
                code = 1
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(cmake_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run to DIR/runs.jsonl")
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 2
    work_dir = os.path.join(bdir, "work", "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(traces, "%s.tsv" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % args.workload)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        run = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("perfbench: no result (exit %d)\n" % proc.returncode)
        return 3
    report = run.get("report", {})
    metrics = report.get("metrics", {})

    correct = bool(run.get("correct")) and proc.returncode == 0
    for spec in expected_metrics(args.trace):
        got = metrics.get(spec["name"])
        if got is None or got.get("unit") != spec["unit"]:
            sys.stderr.write("perfbench: metric %s missing or mis-unit\n"
                             % spec["name"])
            correct = False

    print("env " + json.dumps(report.get("env", {}), sort_keys=True))
    print("details " + json.dumps(report.get("details", {}), sort_keys=True))
    result = {
        "correct": correct,
        "attempted": int(run.get("attempted", 0)),
        "failed": int(run.get("failed", 0)),
        "metrics": metrics,
    }
    if args.record:
        os.makedirs(args.record, exist_ok=True)
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace, seconds=args.seconds,
                      env=report.get("env", {}),
                      details=report.get("details", {}))
        with open(os.path.join(args.record, "runs.jsonl"), "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
