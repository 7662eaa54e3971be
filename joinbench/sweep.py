#!/usr/bin/env python3
"""Run the join benchmark once per seed and keep every run's output.

Usage (from the repository root):
  python3 joinbench/sweep.py --out runs/a --seeds 1-10
  python3 joinbench/sweep.py --out runs/a --seeds 1,3,5 --workloads spill_fk

Each run's standard output lands in OUT/<workload>.seed<N>.out, and a
summary of the set (median, quartiles and spread per end-to-end metric)
is printed at the end. Compare two such directories with compare.py.
"""

import argparse
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    bench = compare.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  check=False)
            path = os.path.join(args.out, f"{workload}.seed{seed}.out")
            with open(path, "w") as f:
                f.write(done.stdout)
            status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
            print(f"{workload} seed {seed}: {status}", file=sys.stderr,
                  flush=True)
    compare.report([compare.load_runs(args.out)], bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
