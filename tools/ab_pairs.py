#!/usr/bin/env python3
"""Alternating A/B pairs of the end-to-end benchmark: parent ref vs this tree.

    python3 tools/ab_pairs.py HEAD~1 --workload stream-ratio --seed 1 \\
        --pairs 5 --seconds 10

PARENT_REF is exported with `git archive` into .bench_build/ab/<sha>
(reused by later runs; no `git worktree` is registered). Each pair runs
`python3 e2ebench/run.py` once in that copy and once in this checkout,
one after the other; the side that goes first alternates from pair to
pair, so a host that drifts slower or faster over the session favours
neither side. Each side builds its own runner from its own sources into
its own .bench_build/. A pair with a run that printed no result line is
left out of the table.

Prints, for every metric of the result line, each side's median and
quartiles, the relative change of the medians, and how many pairs each
side won, "better" being BENCHMARK.json's direction for the metric.
Ties (equal values, e.g. deterministic metrics) count for neither side.
Nothing under e2ebench/ or BENCHMARK.json is modified. Exit status 1 if
any run failed a check or produced no result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def export_ref(ref, workdir):
    """Exports `ref` into workdir/<sha> unless it is already there."""
    sha = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    target = os.path.join(workdir, sha)
    if not os.path.isfile(os.path.join(target, "e2ebench", "run.py")):
        os.makedirs(target, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", target], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError("git archive %s failed" % sha)
    return sha, target


def run_once(checkout, args):
    """One e2ebench run in `checkout`; returns its result object or None."""
    command = [sys.executable, os.path.join("e2ebench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("ab_pairs: no result line from %s (exit %d)\n%s"
            % (checkout, done.returncode, done.stderr[-2000:]))
        return None
    if not result.get("correct", False):
        log("ab_pairs: %s reported failed checks: %d of %d"
            % (checkout, result["failed"], result["attempted"]))
    return result


def quartiles(values):
    ordered = sorted(values)
    if len(ordered) < 2:
        return ordered[0], ordered[0], ordered[0]
    q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return q1, median, q3


def directions():
    """Metric name -> "lower"/"higher" from this checkout's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["better"]
            for key in ("end_to_end", "per_layer")
            for entry in spec.get(key, [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_ref", metavar="PARENT_REF")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result as JSON")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sha, parent_dir = export_ref(args.parent_ref,
                                 os.path.join(ROOT, ".bench_build", "ab"))
    sides = {"parent": parent_dir, "change": ROOT}
    results = {"parent": [], "change": []}
    failed = False
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args)
            if result is None or not result.get("correct", False):
                failed = True
            results[side].append(result)
        log("ab_pairs: pair %d/%d done (%s first)"
            % (pair + 1, args.pairs, order[0]))

    better = directions()
    print("ab_pairs %s seed=%d trace=%d pairs=%d parent=%s"
          % (args.workload, args.seed, args.trace, args.pairs, sha[:12]))
    print("%-34s %-36s %-36s %8s %s" % ("metric", "parent median [q1, q3]",
                                        "change median [q1, q3]", "change",
                                        "wins parent/change"))
    complete = [(old, new) for old, new in zip(results["parent"],
                                               results["change"])
                if old is not None and new is not None]
    names = complete[0][1]["metrics"] if complete else {}
    for name in names:
        values = {side: [pair[i]["metrics"][name]["value"]
                         for pair in complete]
                  for i, side in enumerate(("parent", "change"))}
        summary = {side: quartiles(values[side]) for side in values}
        wins = {"parent": 0, "change": 0}
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        for old, new in zip(values["parent"], values["change"]):
            if new != old:
                wins["change" if sign * (new - old) > 0 else "parent"] += 1
        base = summary["parent"][1]
        delta = ("%+7.1f%%" % (100.0 * (summary["change"][1] - base) / base)
                 if base else "     n/a")
        print("%-34s %-36s %-36s %8s %d/%d" % (
            name,
            "%.6g [%.6g, %.6g]" % (summary["parent"][1], summary["parent"][0],
                                   summary["parent"][2]),
            "%.6g [%.6g, %.6g]" % (summary["change"][1], summary["change"][0],
                                   summary["change"][2]),
            delta, wins["parent"], wins["change"]))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"parent_ref": sha, "workload": args.workload,
                       "seed": args.seed, "trace": args.trace,
                       "seconds": args.seconds, "runs": results}, handle,
                      indent=1)
    return 1 if failed or len(complete) < args.pairs else 0


if __name__ == "__main__":
    sys.exit(main())
