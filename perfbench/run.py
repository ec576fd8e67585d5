#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload fleet|bulk|duplex|des --seed N \
        --seconds S --trace 0|1 [--quick]

Run from the repository root.  The build (CMake, RelWithDebInfo) goes to
.bench_build/perfbench and is incremental; its output goes to stderr.
The workload's report goes to stdout, and its last line is the JSON
result.  A traced run also writes its spans to
.bench_build/spans-<workload>.bin.  The exit code is the workload's:
nonzero on a payload mismatch, a replay divergence or any other output
error, and nonzero without a result when the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("fleet", "bulk", "duplex", "des")
# A run must end within 180 s; leave room for the incremental build.
RUN_TIMEOUT_S = 160


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="smaller units (smoke test); same checks")
    args = parser.parse_args()

    os.makedirs(BUILD_ROOT, exist_ok=True)
    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD_ROOT, "spans-%s.bin" % args.workload)]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: no result line", file=sys.stderr)
        sys.stderr.write(proc.stdout)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not result.get("correct"):
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
