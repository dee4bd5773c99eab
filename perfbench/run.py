#!/usr/bin/env python3
"""Builds the benchmark (cflbench) from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. cflbench is built with CMake into
$CARGO_TARGET_DIR, or .bench_build when that is unset. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1. The lines before it are for people: the host
and build fingerprint, every metric with its unit, failed_frac with its
counts, and in traced runs each layer's self time. A "RECORD {...}" line
carries the fingerprint and all figures for compare.py; the same record is
appended to <build dir>/results.jsonl.

Exit status: 0 when the run finished and every answer was correct, 1 when an
answer was wrong, 2 on a usage error or missing sources, 3 when the build or
cflbench failed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("prepare_cold", "enum_deep", "serve_churn")
RUN_TIMEOUT_S = 150


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def cache_source_dir(cache):
    """The perfbench/ directory a CMake build tree was configured from."""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configures and builds cflbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "no library sources under %s/src" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree builds the sources it was configured from; reusing
        # another checkout's would measure that checkout's code.
        owner = cache_source_dir(cache)
        if owner is None or os.path.realpath(owner) != os.path.realpath(HERE):
            fail(3, "build directory %s was configured from %s, not %s; "
                 "point CARGO_TARGET_DIR elsewhere" % (out, owner, HERE))
    else:
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "cflbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(3, "build failed (log: %s)" % log_path)
    return os.path.join(out, "cflbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_fingerprint():
    """The git SHA when the tree is a repository, and a hash of src/."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return sha, h.hexdigest()[:16]


def fingerprint(info):
    sha, src_hash = source_fingerprint()
    return {
        "cpu_model": cpu_model(),
        "isa": info.get("isa", "unknown"),
        "nproc": os.cpu_count(),
        "compiler": info.get("compiler", "unknown"),
        "build_type": info.get("build_type", "unknown"),
        "cfl_stats": info.get("cfl_stats", "unknown"),
        "git_sha": sha,
        "src_sha256": src_hash,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail(2, "--seconds must be positive and --seed non-negative")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    # AF_UNIX socket paths are short; hand cflbench a relative directory.
    out_dir = os.path.relpath(runs, ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    started = time.time()
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, "cflbench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(3, "cflbench exited %d without a report" % r.returncode)
    if r.returncode not in (0, 1):
        fail(3, "cflbench exited %d" % r.returncode)

    metrics = report["metrics"]
    missing = [m["name"] for m in wanted
               if m["name"] not in metrics
               or not math.isfinite(metrics[m["name"]]["value"])]
    if missing:
        fail(3, "cflbench did not report " + ", ".join(missing))

    attempted = max(1, int(report["attempted"]))
    failed = int(report["failed"])
    correct = failed == 0 and r.returncode == 0
    fp = fingerprint(report["info"])

    print("fingerprint " + " ".join("%s=%s" % kv for kv in fp.items()))
    print("workload %s seed %d seconds %g trace %d wall_s %.1f" % (
        args.workload, args.seed, args.seconds, args.trace,
        time.time() - started))
    for name, vu in sorted(metrics.items()):
        print("%-36s %14.6g %s" % (name, vu["value"], vu["unit"]))
    print("%-36s %14.6g frac (%d failed of %d attempted)" % (
        "failed_frac", failed / attempted, failed, attempted))
    for k, v in sorted(report["info"].items()):
        print("info %s=%s" % (k, v))
    for f in report["failures"]:
        print("FAILED " + f)

    record = {
        "fingerprint": fp, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "correct": correct,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "units": {k: v["unit"] for k, v in metrics.items()},
        "info": report["info"],
    }
    line = json.dumps(record, sort_keys=True)
    print("RECORD " + line)
    with open(os.path.join(build_dir(), "results.jsonl"), "a") as f:
        f.write(line + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
