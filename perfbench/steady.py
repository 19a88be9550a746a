#!/usr/bin/env python3
"""Steadiness check for the benchmark described in BENCHMARK.json.

Runs every workload several times, alternating between workloads, each
run with its own seed, and prints for every end-to-end metric the median,
the first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (Q3 - Q1) / median. A metric whose spread exceeds its bound in
BENCHMARK.json is flagged, setup_s included. It also checks that the
share of failed operations is the same in every run of a workload.

With --sets 2 (or more) it makes that many separate sets of runs, one
after the other, with seeds that continue from one set to the next, and
also flags a metric whose median in a later set is worse than in the
first set by more than its bound, and a failed share that differs
between sets.

Run from the repository root:

    python3 perfbench/steady.py                      # 10 runs per workload
    python3 perfbench/steady.py --sets 2             # two sets of 10
    python3 perfbench/steady.py --runs 5 --workloads open-mix,warm-burst

Exit status is 1 if any metric is flagged or any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def run_set(bench, workloads, runs, first_seed, seconds, label):
    """Runs every workload `runs` times, alternating; returns the results
    per workload and whether any run failed to produce a result."""
    results = {w: [] for w in workloads}
    broken = False
    for i in range(runs):
        seed = first_seed + i
        for w in workloads:
            out = run_once(bench, w, seed, seconds)
            if out is None:
                print(f"{label} run {i + 1:>2} {w:<16} seed {seed}: FAILED to produce a result")
                broken = True
                continue
            results[w].append(out)
            summary = " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(out["metrics"].items())
            )
            print(f"{label} run {i + 1:>2} {w:<16} seed {seed}: attempted {out['attempted']} "
                  f"failed {out['failed']} {summary}", flush=True)
    return results, broken


def summarise(bench, workloads, results, label):
    """Prints the quartile table of one set; returns the medians per
    (workload, metric), the failed share per workload, and whether any
    metric was flagged."""
    medians, shares, flagged = {}, {}, False
    print()
    print(f"{label}: {'workload':<16} {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for w in workloads:
        runs = results[w]
        if len(runs) < 2:
            print(f"{label}: {w:<16} fewer than two runs")
            flagged = True
            continue
        share = {r["failed"] / r["attempted"] for r in runs}
        if len(share) > 1:
            print(f"{label}: {w:<16} failed share differs between runs: {sorted(share)}")
            flagged = True
        shares[w] = share
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs
                      if m["name"] in r["metrics"]]
            if len(values) < 2:
                print(f"{label}: {w:<16} {m['name']:<16} missing")
                flagged = True
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            medians[(w, m["name"])] = med
            spread = (q3 - q1) / med if med else float("inf")
            over = spread > m["bound"]
            flagged |= over
            mark = "  OVER" if over else ("  (>1/3)" if spread > m["bound"] / 3 else "")
            print(f"{label}: {w:<16} {m['name']:<16} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{spread:>8.3f} {m['bound']:>6.2f}{mark}")
    return medians, shares, flagged


def compare(bench, workloads, first, later, label):
    """Flags a median of `later` worse than `first` by more than the
    metric's bound, and a failed share that differs."""
    (m0, s0), (m1, s1) = first, later
    flagged = False
    print()
    print(f"{label} against set 1: {'workload':<16} {'metric':<16} {'change':>8} {'bound':>6}")
    for w in workloads:
        if w in s0 and w in s1 and s0[w] != s1[w]:
            print(f"{label} against set 1: {w:<16} failed share {sorted(s1[w])} "
                  f"against {sorted(s0[w])}")
            flagged = True
        for m in bench["end_to_end"]:
            key = (w, m["name"])
            if key not in m0 or key not in m1 or not m0[key]:
                continue
            change = m1[key] / m0[key] - 1.0
            worse = change if m["better"] == "lower" else -change
            over = worse > m["bound"]
            flagged |= over
            print(f"{label} against set 1: {w:<16} {m['name']:<16} {change:>+8.3f} "
                  f"{m['bound']:>6.2f}{'  WORSE' if over else ''}")
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1, help="separate sets of runs")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, default=0, help="override run_seconds")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w in workloads]
    seconds = args.seconds or bench["run_seconds"]

    flagged = broken = False
    sets = []
    for k in range(args.sets):
        label = f"set {k + 1}"
        results, failed = run_set(bench, workloads, args.runs,
                                  args.first_seed + k * args.runs, seconds, label)
        broken |= failed
        medians, shares, over = summarise(bench, workloads, results, label)
        flagged |= over
        sets.append((medians, shares))
    for k in range(1, len(sets)):
        flagged |= compare(bench, workloads, sets[0], sets[k], f"set {k + 1}")
    sys.exit(1 if flagged or broken else 0)


if __name__ == "__main__":
    main()
