#!/usr/bin/env python3
"""Quick-mode smoke test of the benchmark: every workload, untraced and
traced, through run.py.

    python3 perfbench/smoke_test.py

Checks that each run exits 0 and prints a result whose metrics are the
ones BENCHMARK.json names, that the traced runs' spans account for their
wall time within a tenth, and that the seeded workloads' replays matched.
Takes about a minute (fleet still holds 10,000 sessions in quick mode).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    return proc.returncode, proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            # Two seeds: the second is the held-out check of the replay.
            seed = 7 + trace
            code, out = run(workload, seed, trace)
            label = "%s seed=%d trace=%d" % (workload, seed, trace)
            lines = out.strip().split("\n")
            try:
                result = json.loads(lines[-1])
            except ValueError:
                failures.append(label + ": no result line")
                continue
            problems = []
            if code != 0 or not result["correct"]:
                problems.append("exit %d, correct=%s" % (code, result["correct"]))
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append("attempted %d, failed %d" % (result["attempted"],
                                                             result["failed"]))
            if set(result["metrics"]) != names[trace]:
                problems.append("metric names differ from BENCHMARK.json")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append("an end-to-end metric is not positive")
            if trace == 1:
                coverage = result["metrics"]["trace.coverage"]["value"]
                if not 0.9 <= coverage <= 1.0:
                    problems.append("spans cover %.3f of the traced wall time" % coverage)
            if "DIVERGED" in out:
                problems.append("replay diverged")
            print("%-28s %s" % (label, "; ".join(problems) if problems else "ok"))
            failures += [label + ": " + p for p in problems]
    if failures:
        print("FAILED:\n  " + "\n  ".join(failures))
        return 1
    print("all smoke runs passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
