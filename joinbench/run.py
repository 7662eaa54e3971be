#!/usr/bin/env python3
"""Build and run one workload of the MPSM join benchmark (README.md).

Usage (from the repository root):
  python3 joinbench/run.py --workload inmem_fk --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark program (joinbench.cc) from source
into the build directory ($CARGO_TARGET_DIR, else .bench_build), runs one
workload, and prints the program's output. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}, summed over the joinbench
processes of the run. An untraced run is five processes: four that only
set up and one that sets up and runs the timed queries. setup_s is the
median of the five set-ups.

With --trace 1 the per-layer metrics are printed instead of the
end-to-end ones, and <build>/out/ receives, per workload:
  trace_<workload>.json   Chrome trace: the benchmark's spans around each
                          public call plus one sampled query's engine trace
  query_<workload>.json   the sampled query's engine trace alone
  metrics_<workload>.prom the process metrics registry (Prometheus text)
  layers_<workload>.txt   table of every per-layer metric
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("inmem_fk", "spill_fk", "service_ingest")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170  # every joinbench process of one run together
SETUPS = 5  # set-ups per timed run; setup_s is their median
BENCH_TID_OFFSET = 1000  # keeps benchmark threads apart from engine tids


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir, env):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False, env=env)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


class BenchError(Exception):
    pass


def run_joinbench(command, deadline, env, echo_context=True):
    """Runs joinbench once; echoes its output lines except the result,
    which it returns (with the trace clock offset, when printed)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, check=False, env=env)
    except subprocess.TimeoutExpired:
        raise BenchError(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    result, offset_ns = None, None
    for line in done.stdout.splitlines():
        if line.startswith('{"correct"'):
            result = json.loads(line)
        elif line.startswith('{"trace_offset_ns"'):
            offset_ns = json.loads(line)["trace_offset_ns"]
        elif echo_context or not line.startswith('{"context"'):
            print(line)
    if done.returncode != 0 or result is None:
        raise BenchError(f"benchmark failed (exit {done.returncode})")
    if offset_ns is not None:
        result["trace_offset_ns"] = offset_ns
    return result


def merge_traces(out_dir, workload, offset_ns):
    """Writes trace_<workload>.json: benchmark spans on pid 0 (tids moved
    past the engine's), the sampled query's events shifted onto the
    benchmark's clock."""
    with open(os.path.join(out_dir, f"bench_{workload}.json")) as f:
        events = json.load(f)["traceEvents"]
    for event in events:
        event["tid"] += BENCH_TID_OFFSET
    query_path = os.path.join(out_dir, f"query_{workload}.json")
    if os.path.exists(query_path):
        with open(query_path) as f:
            query_events = json.load(f)["traceEvents"]
        for event in query_events:
            if "ts" in event:
                event["ts"] = round(event["ts"] + offset_ns / 1e3, 3)
        events += query_events
    with open(os.path.join(out_dir, f"trace_{workload}.json"), "w") as f:
        json.dump({"traceEvents": events}, f)
    os.remove(os.path.join(out_dir, f"bench_{workload}.json"))


def write_layer_table(out_dir, workload, result):
    lines = [f"{'metric':<42} {'value':>16}  unit"]
    for name, metric in result["metrics"].items():
        lines.append(f"{name:<42} {metric['value']:>16.4f}  {metric['unit']}")
    text = "\n".join(lines) + "\n"
    with open(os.path.join(out_dir, f"layers_{workload}.txt"), "w") as f:
        f.write(text)
    sys.stderr.write(text)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "engine", "engine.h")):
        log(f"library sources not found under {ROOT}/src; "
            "run from a full checkout")
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    out_dir = os.path.join(build_dir, "out")
    spill_dir = os.path.join(build_dir, "spill")
    # Compiler and library temporaries stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        if not build(build_dir, env):
            return 1
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 1

    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = [os.path.join(build_dir, "joinbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--out", out_dir, "--spill-dir", spill_dir]
    try:
        if args.trace:
            # The untraced reference run gives obs.trace_overhead_pct its
            # base; the per-layer figures come from the traced run.
            reference = run_joinbench(base + ["--trace", "0"], deadline, env)
            p50 = reference["metrics"]["latency_ms_p50"]["value"]
            result = run_joinbench(base + ["--trace", "1",
                                        "--untraced-p50-ms", repr(p50)],
                                deadline, env)
            results = [reference, result]
        else:
            # Set-up repeats in fresh processes, so memory one set-up
            # frees cannot raise the next one's peak RSS; setup_s is the
            # median over all of them, the timed run's included.
            results = [run_joinbench(base + ["--setup-only", "1"], deadline,
                                  env, echo_context=False)
                       for _ in range(SETUPS - 1)]
            result = run_joinbench(base + ["--trace", "0"], deadline, env)
            results.append(result)
            result["metrics"]["setup_s"]["value"] = statistics.median(
                r["metrics"]["setup_s"]["value"] for r in results)
    except BenchError as error:
        log(str(error))
        return 1
    result["correct"] = all(r["correct"] for r in results)
    result["attempted"] = sum(r["attempted"] for r in results)
    result["failed"] = sum(r["failed"] for r in results)
    if args.trace:
        merge_traces(out_dir, args.workload, result.pop("trace_offset_ns", 0))
        write_layer_table(out_dir, args.workload, result)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
