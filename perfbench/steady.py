#!/usr/bin/env python3
"""Steadiness check for the lkmm-herd benchmark.

Runs the benchmark several times per workload, each time with another
seed, in two interleaved sets, and prints for every workload and
end-to-end metric each set's median and quartiles, the spread
(quartile distance over median) and whether the two medians agree
within the metric's bound from BENCHMARK.json.  A metric whose spread
is wider than its bound is reported "unresolved": two runs of the
same code cannot be told apart from a change on it.  Every run uses
BENCHMARK.json's run_seconds and every workload.

    python3 perfbench/steady.py [--seeds 10]

Run from the repository root.  Exits 1 when any metric disagrees or
is unresolved, or when any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def analyse(records, bench):
    """Print the table; return True when every metric agrees."""
    ok = True
    by_key = {}
    for r in records:
        by_key.setdefault((r["workload"], r["set"]), []).append(r)
    workloads = sorted({w for w, _ in by_key})
    print(f"{'workload':<12} {'metric':<16} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = []
            for s in (1, 2):
                vals = [r["metrics"][name]["value"]
                        for r in by_key.get((w, s), [])
                        if name in r["metrics"]]
                if len(vals) < 2:
                    continue
                stats.append(spread(vals))
            if len(stats) < 2:
                print(f"{w:<12} {name:<16} too few runs")
                ok = False
                continue
            first, second = stats[0][1], stats[1][1]
            change = (second - first) / first if first else 0.0
            worst_spread = max(stats[0][3], stats[1][3])
            if worst_spread > bound:
                verdict = "unresolved"
            elif abs(change) > bound:
                verdict = "DISAGREE"
            else:
                verdict = "agree"
            if worst_spread > bound / 3:
                verdict += " (spread above bound/3)"
            ok = ok and verdict.startswith("agree")
            for s, (q1, q2, q3, sp) in enumerate(stats, 1):
                print(f"{w:<12} {name:<16} {s:>3} {q2:>12.5g} {q1:>12.5g} "
                      f"{q3:>12.5g} {sp:>7.3f} {bound:>6}  "
                      f"{verdict if s == 2 else ''}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10,
                    help="runs per workload and set (seeds 1..N)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    records = []
    failed = False
    for w in (w["name"] for w in bench["workloads"]):
        for seed in range(1, args.seeds + 1):
            for s in (1, 2):
                res = run_once(w, seed, bench["run_seconds"])
                if res is None:
                    print(f"{w} seed {seed} set {s}: run FAILED",
                          file=sys.stderr)
                    failed = True
                    continue
                print(f"{w} seed {seed} set {s}: "
                      + json.dumps(res["metrics"]), flush=True)
                records.append({"workload": w, "set": s,
                                "metrics": res["metrics"]})
    ok = analyse(records, bench)
    return 0 if ok and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
