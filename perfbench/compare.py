#!/usr/bin/env python3
"""Compares two sets of same-host benchmark runs (parent A, change B).

    # run N alternating pairs, then report
    python3 perfbench/compare.py run --a CHECKOUT_A --b CHECKOUT_B \
        --workload NAME [--workload NAME ...] [--pairs 10] [--seed 1000] \
        [--out DIR]

    # report on records already collected (RECORD lines / results.jsonl)
    python3 perfbench/compare.py report A.jsonl B.jsonl

`run` alternates which side goes first in each pair and gives both sides of
a pair the same seed; each side builds into its own directory under --out.
Both modes refuse records whose host or build fingerprint differs (CPU
model, ISA, nproc, compiler, build type, CFL_STATS), within a side or
between the sides, and a side whose records come from more than one source
tree (src/ hash).

For every workload and end-to-end metric of BENCHMARK.json the report gives
each side's median and quartiles and one verdict:
  improved    at least 10 pairs, B beats A in at least 9 of 10 of them, and
              the medians differ by more than A's own quartile distance;
  regressed   B's median is worse than A's by more than the metric's bound;
  unresolved  neither, and a side's quartile distance is wider than the
              bound, unless every B run reads better than every A run;
  no worse    otherwise: B's median is within the bound of A's.
Exit status: 0 when nothing regressed, 1 when something did, 2 when the
records cannot be compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10  # fewer pairs cannot show a gain
HOST_KEYS = ("cpu_model", "isa", "nproc", "compiler", "build_type",
             "cfl_stats")


def load(path):
    with open(path) as f:
        return [json.loads(line[7:] if line.startswith("RECORD ") else line)
                for line in f if line.strip()]


def host(record):
    return tuple(record["fingerprint"].get(k) for k in HOST_KEYS)


def check_hosts(a, b):
    hosts = {host(r) for r in a + b}
    if len(hosts) != 1:
        lines = ["fingerprints differ; refusing to compare:"]
        lines += ["  " + ", ".join("%s=%s" % kv for kv in zip(HOST_KEYS, h))
                  for h in sorted(hosts, key=str)]
        return "\n".join(lines)
    for side, records in (("A", a), ("B", b)):
        trees = {r["fingerprint"].get("src_sha256") for r in records}
        if len(trees) > 1:
            return "side %s mixes source trees %s; refusing to compare" % (
                side, ", ".join(sorted(map(str, trees))))
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(a, b, better, bound):
    """Classifies the pairs (a[i], b[i]) of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (len(pairs) >= MIN_PAIRS and wins * 10 >= 9 * len(pairs)
            and sign * (b_med - a_med) > (a_q3 - a_q1)):
        return "improved"
    worse_by = sign * (a_med - b_med) / abs(a_med) if a_med else 0.0
    if worse_by > bound:
        return "regressed"
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    if spread > bound and not (
            min(sign * y for y in b) > max(sign * x for x in a)):
        return "unresolved"
    return "no worse"


def report(a, b, spec):
    problem = check_hosts(a, b)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    regressed = False
    workloads = sorted({r["workload"] for r in a} & {r["workload"] for r in b})
    if not workloads:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    print("%-12s %-22s %32s %32s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "verdict"))
    for w in workloads:
        ra = [r for r in a if r["workload"] == w and r["trace"] == 0]
        rb = [r for r in b if r["workload"] == w and r["trace"] == 0]
        bad = [r for r in ra + rb if not r["correct"]]
        if bad:
            print("%-12s %d run(s) with wrong answers; not compared" % (
                w, len(bad)))
            regressed = True
            continue
        # Pair runs by seed where both sides have it, else by order.
        seeds_b = {r["seed"]: r for r in rb}
        paired = [(r, seeds_b[r["seed"]]) for r in ra if r["seed"] in seeds_b]
        if len(paired) < min(len(ra), len(rb)):
            paired = list(zip(ra, rb))
        for m in spec["end_to_end"]:
            name = m["name"]
            xs = [p[0]["metrics"][name] for p in paired]
            ys = [p[1]["metrics"][name] for p in paired]
            if not xs:
                continue
            v = verdict(xs, ys, m["better"], m["bound"])
            regressed |= v == "regressed"
            qa, qb = quartiles(xs), quartiles(ys)
            print("%-12s %-22s %12.5g [%8.4g, %8.4g] %12.5g [%8.4g, %8.4g]"
                  "  %s (n=%d)" % (w, name, qa[1], qa[0], qa[2], qb[1], qb[0],
                                   qb[2], v, len(xs)))
    return 1 if regressed else 0


def run_one(checkout, build, workload, seed, seconds):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                       env=env)
    for line in r.stdout.splitlines():
        if line.startswith("RECORD "):
            return json.loads(line[7:])
    sys.stderr.write(r.stderr)
    raise SystemExit("run failed in %s (exit %d)" % (checkout, r.returncode))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("--a", required=True, help="checkout of the parent")
    r.add_argument("--b", required=True, help="checkout of the change")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seed", type=int, default=1000,
                   help="first seed; pair i uses seed + i")
    r.add_argument("--out", default=".",
                   help="where A.jsonl, B.jsonl and the two build trees go")
    rp = sub.add_parser("report")
    rp.add_argument("a_jsonl")
    rp.add_argument("b_jsonl")
    args = p.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)

    if args.mode == "report":
        return report(load(args.a_jsonl), load(args.b_jsonl), spec)

    os.makedirs(args.out, exist_ok=True)
    a, b = [], []
    for w in args.workload:
        for i in range(args.pairs):
            seed = args.seed + i
            order = [("A", args.a, a), ("B", args.b, b)]
            if i % 2:
                order.reverse()
            for side, checkout, sink in order:
                build = os.path.abspath(
                    os.path.join(args.out, "build-" + side))
                rec = run_one(checkout, build, w, seed, spec["run_seconds"])
                sink.append(rec)
                with open(os.path.join(args.out, side + ".jsonl"), "a") as f:
                    f.write(json.dumps(rec, sort_keys=True) + "\n")
                print("%s %s seed %d done" % (side, w, seed), file=sys.stderr)
    return report(a, b, spec)


if __name__ == "__main__":
    sys.exit(main())
