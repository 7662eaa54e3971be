#!/usr/bin/env python3
"""Summarise or compare sets of join benchmark runs (stdlib only).

Usage (from the repository root):
  python3 joinbench/compare.py BASE_DIR            # one set: spreads
  python3 joinbench/compare.py BASE_DIR NEW_DIR    # two sets: verdicts

A set is a directory of run outputs, one file per run (*.out, the
benchmark's standard output, as sweep.py writes them). For every
workload and end-to-end metric in BENCHMARK.json it prints each side's
median and quartiles and the spread (quartile distance over median).
With two sets it adds the share of (base, new) run pairs the new side
wins, ties counting for neither, and a verdict against the metric's
bound:
  unresolved  a side's spread is wider than the bound, and the new side
              neither wins every pair nor loses every pair
  worse       the new median is worse by more than the bound
  better      the new side wins at least 90% of pairs and its median is
              better by more than the base side's quartile distance
  within      otherwise: no change beyond the bound
Each side's share of failed operations is printed per workload.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    for path in (os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                 "BENCHMARK.json"):
        if os.path.exists(path):
            with open(path) as f:
                return json.load(f)
    sys.exit("compare.py: BENCHMARK.json not found")


def load_runs(directory):
    """{workload: [result dict, ...]} from every *.out in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        workload, result = None, None
        with open(os.path.join(directory, name)) as f:
            for line in f:
                line = line.strip()
                if line.startswith('{"context"'):
                    workload = json.loads(line)["context"]["workload"]
                elif line.startswith('{"correct"'):
                    result = json.loads(line)
        if workload is None or result is None:
            print(f"skipping {name}: no result", file=sys.stderr)
            continue
        runs.setdefault(workload, []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def win_share(base, new, higher_better):
    wins = 0
    for a in base:
        for b in new:
            if (b > a) if higher_better else (b < a):
                wins += 1
    return wins / (len(base) * len(new))


def verdict(base, new, metric):
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    _, m_base, _ = quartiles(base)
    _, m_new, _ = quartiles(new)
    # Relative change, positive when the new side is worse.
    worse = (m_base - m_new) / m_base if higher else (m_new - m_base) / m_base
    wins = win_share(base, new, higher)
    if max(spread(base), spread(new)) > bound and 0 < wins < 1:
        return "unresolved", worse, wins
    if worse > bound:
        return "worse", worse, wins
    q1, _, q3 = quartiles(base)
    if wins >= 0.9 and -worse > (q3 - q1) / m_base:
        return "better", worse, wins
    return "within", worse, wins


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed, attempted


def report(sets, bench):
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        sides = [s.get(workload, []) for s in sets]
        if not any(sides):
            continue
        print(f"\n== {workload}  (runs: {', '.join(str(len(s)) for s in sides)})")
        for i, side in enumerate(sides):
            failed, attempted = failed_share(side)
            share = failed / attempted if attempted else 0.0
            print(f"  set {i}: failed {failed} of {attempted} operations "
                  f"({share:.4%})")
        header = f"  {'metric':<18} {'set':>3} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>7} {'bound':>6}"
        if len(sets) == 2:
            header += f" {'gain':>8} {'wins':>5}  verdict"
        print(header)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [[r["metrics"][name]["value"] for r in side
                       if name in r["metrics"]] for side in sides]
            if not all(values):
                continue
            for i, vals in enumerate(values):
                q1, q2, q3 = quartiles(vals)
                line = (f"  {name:<18} {i:>3} {q1:>11.4f} {q2:>11.4f} "
                        f"{q3:>11.4f} {spread(vals):>7.2%} {metric['bound']:>6.0%}")
                if len(sets) == 2 and i == 1:
                    what, worse, wins = verdict(values[0], vals, metric)
                    line += f" {-worse:>+8.2%} {wins:>5.0%}  {what}"
                elif len(sets) == 1:
                    ok = spread(vals) <= metric["bound"] / 3
                    line += "" if ok else "  (spread above a third of bound)"
                print(line)


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_benchmark()
    report([load_runs(d) for d in sys.argv[1:]], bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
