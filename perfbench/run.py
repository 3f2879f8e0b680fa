#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark of the host-backend path.

Usage (from the repository root):

    python3 perfbench/run.py --workload hd_closed|mixed_open|overload_slo \
        --seed N --seconds S --trace 0|1

The first call configures and builds the program's sources together with
the benchmark binary (perfbench/CMakeLists.txt) into .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to stderr. The
benchmark's own self-tests run before every measurement. The last line of
stdout is the run's JSON result; --trace 1 also writes the traced run's
spans to .bench_build/spans/.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hd_closed", "mixed_open", "overload_slo")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no program sources (src/) next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")], stdout=sys.stderr,
                      stderr=sys.stderr).returncode != 0:
        fail("self-tests failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build()
    spans_dir = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
           "--spans", spans]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"run failed with exit code {run.returncode}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
