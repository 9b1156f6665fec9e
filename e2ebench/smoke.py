#!/usr/bin/env python3
"""Smoke check of the end-to-end benchmark.

    python3 e2ebench/smoke.py          # reduced sizes, about two minutes
    python3 e2ebench/smoke.py --full   # full sizes and run length

Runs every workload of workloads.json (those of BENCHMARK.json and
serve-mixed, which is run by hand) once untraced and once traced, at the
reduced sizes of workloads.json ("smoke") unless --full, prints each
run's summary, and asserts that each run is correct and prints every
metric BENCHMARK.json names, with its unit. Exits 0 when all runs pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    full = sys.argv[1:] == ["--full"]
    if sys.argv[1:] and not full:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "workloads.json")) as handle:
        workloads = json.load(handle)["workloads"]
    # Two seconds give the traced run's span-cover check enough
    # iterations at the reduced sizes.
    size = ["--seconds", str(bench["run_seconds"])] if full else [
        "--seconds", "2", "--smoke"]
    failures = []
    for workload in workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s trace=%d" % (workload, trace)
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", "1",
                 "--trace", str(trace)] + size,
                cwd=ROOT, capture_output=True, text=True)
            print("\n".join(done.stdout.strip().splitlines()[:-1]))
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append("%s: no result line (exit %d)\n%s" % (
                    label, done.returncode, done.stderr[-2000:]))
                continue
            problems = []
            if done.returncode != 0 or not result["correct"]:
                problems.append("exit %d, correct=%s" % (done.returncode,
                                                         result["correct"]))
            for metric in bench[section]:
                printed = result["metrics"].get(metric["name"])
                if printed is None:
                    problems.append("missing " + metric["name"])
                elif printed["unit"] != metric["unit"]:
                    problems.append("%s: unit %s, want %s" % (
                        metric["name"], printed["unit"], metric["unit"]))
                elif not isinstance(printed["value"], (int, float)):
                    problems.append("%s: value %r" % (metric["name"],
                                                      printed["value"]))
            print("%-28s %s\n" % (label, "ok" if not problems else "FAIL"))
            if problems:
                failures.append("%s: %s" % (label, "; ".join(problems)))
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
