#!/usr/bin/env python3
"""Repository benchmark runner (see perfbench/RATIONALE.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark package (perfbench/CMakeLists.txt, a Release build of
the repository's libraries with their shipped defaults) under .bench_build/
at the root of the checkout, runs one workload in a child process, and
prints a provenance line followed, as the last line of standard output, by
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The full record of the run
(provenance, counts, metrics, span summary) is also written to
.bench_build/results/.

Exit status is 0 when a result was printed, non-zero (and no result) when
the benchmark could not be built or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_DIR = os.path.join(BUILD_ROOT, "run")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")

# A run measures for --seconds plus set-up; this bounds a hung child.
RUN_TIMEOUT_S = 170
# Sources whose contents identify what was measured when there is no git.
DIGEST_PATHS = ["CMakeLists.txt", "cmake", "src", "bench/AppBench.h",
                "perfbench"]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no CEAL source tree at %s; run from a full checkout" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
                 + targets)
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                die("build step failed (%s):\n%s" % (" ".join(cmd), tail))


def git_info():
    def git(*args):
        r = subprocess.run(["git", "-C", ROOT] + list(args),
                           capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None
    try:
        top = git("rev-parse", "--show-toplevel")
    except OSError:
        top = None
    if not top or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown", None
    status = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "HEAD") or "unknown", bool(status)


def source_digest():
    h = hashlib.sha256()
    for rel in DIGEST_PATHS:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def selftest():
    build(["perfbench_selftest"])
    os.makedirs(RUN_DIR, exist_ok=True)
    exe = os.path.join(BUILD_DIR, "perfbench_selftest")
    return subprocess.run([exe, RUN_DIR], cwd=ROOT,
                          timeout=RUN_TIMEOUT_S).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build(["perfbench"])
    os.makedirs(RUN_DIR, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", RUN_DIR]
    started = time.time()
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die("workload run failed with exit code %d" % r.returncode)
    run = json.loads(lines[-1])

    prov = run["provenance"]
    prov["commit"], prov["dirty"] = git_info()
    prov["source_digest"] = source_digest()
    prov["wall_seconds"] = round(time.time() - started, 3)

    wanted = declared_metrics(args.trace == 1)
    missing = [m for m in wanted if m not in run["metrics"]]
    if missing:
        die("run did not report: " + ", ".join(missing))
    metrics = {m: run["metrics"][m] for m in wanted}
    correct = (run["failed"] == 0 and run["checked"] > 0
               and run["setup_ok"] and run["final_ok"])

    record = dict(run, provenance=prov, correct=correct)
    out = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"provenance": prov, "checked": run["checked"],
                      "sweeps": run["sweeps"], "record": out}))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
