#!/usr/bin/env python3
"""End-to-end OMFLP benchmark: build the runner, run one workload, report.

    python3 e2ebench/run.py --workload stream-ratio --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The runner (e2ebench/runner.cpp) is
built with CMake from e2ebench/CMakeLists.txt against ../src into
.bench_build/e2ebench. Workload parameters come from
e2ebench/workloads.json; --smoke swaps in its reduced sizes.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer metrics with --trace 1. Lines before it are a
readable summary. Every run also writes the host fingerprint, the full
runner report and (traced runs) the span log under
.bench_build/e2ebench/results/. A failed check makes the exit code 1; a
failed build or runner crash exits 2 without a result line.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUNNER = os.path.join(BUILD, "e2ebench")
RUNNER_TIMEOUT_S = 170
# glibc malloc keeps freed memory instead of unmapping it: each unmap and
# re-fault costs page faults and cross-CPU TLB shootdowns whose price
# varies by +-20% run to run on virtual machines, which would drown the
# iteration-to-iteration differences the benchmark measures.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.trim_threshold=4294967296")
# Library-default threads (kernels, the bound layer's dual ascent). The
# library starts its helper threads per call; new threads begin on one
# CPU and are spread out only after about 100 ms, so multi-threaded
# helpers would make short calls' timings follow the scheduler. Engine
# threads are set per workload in workloads.json.
LIBRARY_THREADS = "1"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_runner():
    """Configure and build the runner; build output goes to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_hash():
    """sha256 over the library and benchmark sources (path + content)."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def workload_params(name, smoke):
    with open(os.path.join(HERE, "workloads.json")) as handle:
        spec = json.load(handle)["workloads"][name]
    params = dict(spec["params"])
    if smoke:
        params.update(spec["smoke"])
    return params


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def check_determinism(key, values):
    """Compares the deterministic outputs with an earlier run of the same
    sources, workload, seed and mode; returns (attempted, failed)."""
    path = os.path.join(BUILD, "determinism.json")
    records = {}
    if os.path.exists(path):
        with open(path) as handle:
            records = json.load(handle)
    previous = records.get(key)
    if previous is None:
        records[key] = values
        with open(path + ".tmp", "w") as handle:
            json.dump(records, handle, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
        return 0, 0
    if previous != values:
        changed = sorted(k for k in set(previous) | set(values)
                         if previous.get(k) != values.get(k))
        log("e2ebench: check failed: deterministic outputs differ from an "
            "earlier run of the same sources and seed:", ", ".join(changed))
        return 1, 1
    return 1, 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes from workloads.json (smoke check)")
    args = parser.parse_args()

    try:
        build_runner()
        params = workload_params(args.workload, args.smoke)
        expected = expected_metrics(args.trace)
    except (subprocess.CalledProcessError, OSError, KeyError,
            ValueError) as error:
        log("e2ebench: set-up failed:", error)
        return 2

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                  "-smoke" if args.smoke else "")
    spans_path = os.path.join(results, tag + ".spans.jsonl")
    command = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(BUILD, "work", args.workload)]
    if args.trace:
        command += ["--spans-out", spans_path]
    for key, value in sorted(params.items()):
        command += ["--param", "%s=%s" % (key, value)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUNNER_TIMEOUT_S,
                              env=dict(os.environ,
                                       GLIBC_TUNABLES=MALLOC_TUNABLES,
                                       OMFLP_THREADS=LIBRARY_THREADS))
    except subprocess.TimeoutExpired:
        log("e2ebench: runner exceeded %d s" % RUNNER_TIMEOUT_S)
        return 2
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("e2ebench: runner exited %d without a report" % done.returncode)
        return 2

    attempted = report["attempted"]
    failed = report["failed"]
    metrics = report["metrics"]
    if not args.trace:
        # check_pass_rate counts this script's checks too; set below.
        metrics["check_pass_rate"] = {"value": 1.0, "unit": "ratio"}

    key = "%s:%s" % (source_hash(), tag)
    det_attempted, det_failed = check_determinism(key, report["deterministic"])
    attempted += det_attempted
    failed += det_failed

    attempted += 1
    missing = [name for name, unit in expected.items()
               if name not in metrics or metrics[name]["unit"] != unit]
    extra = [name for name in metrics if name not in expected]
    if missing or extra:
        failed += 1
        log("e2ebench: check failed: metric set differs from BENCHMARK.json;"
            " missing or wrong unit:", missing, "unexpected:", extra)
    if not args.trace:
        metrics["check_pass_rate"]["value"] = (attempted - failed) / attempted

    host = dict(report["host"])
    host.update({
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "omflp_threads": LIBRARY_THREADS,
        "glibc_tunables": MALLOC_TUNABLES,
        "git_sha": git_sha(),
        "source_hash": key.split(":")[0],
    })
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: metrics[name] for name in expected
                          if name in metrics}}
    with open(os.path.join(results, tag + ".json"), "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "params": params, "host": host,
                   "report": report, "result": result}, handle, indent=1)

    print("e2ebench %s seed=%d trace=%d%s" % (
        args.workload, args.seed, args.trace, " smoke" if args.smoke else ""))
    print("host     " + json.dumps(host, sort_keys=True))
    print("params   " + json.dumps(params, sort_keys=True))
    for name, metric in result["metrics"].items():
        print("  %-34s %20.10g %s" % (name, metric["value"], metric["unit"]))
    if not args.trace:
        print("  %-34s %20.10g %s" % ("error_rate", failed / attempted,
                                      "ratio"))
    for layer, seconds in sorted(report["layer_self_s"].items()):
        print("  self %-29s %20.10g s" % (layer, seconds))
    for note in report["notes"]:
        print("  note " + note)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
