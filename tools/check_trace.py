#!/usr/bin/env python3
"""Validate an mpsm trace export and Prometheus metrics dump (CI leg).

Usage: check_trace.py TRACE_JSON METRICS_TXT [--coverage FRACTION]

Checks (docs/observability.md):
  1. The trace is well-formed Chrome trace_event JSON: a traceEvents
     list of X (complete), i (instant), and M (metadata) events with
     the fields Perfetto needs (name/cat/ph/pid/tid, ts+dur on spans).
  2. Spans nest per thread: two spans on one tid are either disjoint
     or one contains the other (no partial overlap) — the invariant a
     flame view depends on.
  3. Coverage: the union of non-root spans covers at least --coverage
     (default 0.95) of the root "query" span's wall time, i.e. the
     trace accounts for where the query went.
  4. The metrics dump is Prometheus text exposition with every
     expected family: admission/lane (service), engine, pool, cache,
     and io.

Exit 0 when all checks pass; prints each failure and exits 1 otherwise.
"""

import argparse
import json
import sys

REQUIRED_EVENT_KEYS = {"name", "ph", "pid", "tid"}
VALID_PHASES = {"X", "i", "M"}

# One representative per exported family; prefix match.
REQUIRED_METRIC_FAMILIES = [
    "mpsm_service_submitted_total",      # admission
    "mpsm_service_admission_wait_ns",    # admission latency
    "mpsm_service_lane_queries_total",   # per-lane throughput
    "mpsm_engine_queries_total",
    "mpsm_worker_pin_failures_total",    # placement
    "mpsm_pool_",
    "mpsm_cache_",
    "mpsm_io_",
]

# Span ends are recorded with independent clock reads; allow this much
# partial overlap (microseconds) before calling nesting broken.
NESTING_TOLERANCE_US = 5.0


def fail(errors, message):
    errors.append(message)
    print(f"FAIL: {message}", file=sys.stderr)


def check_trace(path, coverage_floor, errors):
    with open(path) as f:
        trace = json.load(f)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(errors, f"{path}: no traceEvents list")
        return

    spans_by_tid = {}
    root = None
    for i, event in enumerate(events):
        missing = REQUIRED_EVENT_KEYS - event.keys()
        if missing:
            fail(errors, f"{path}: event {i} missing {sorted(missing)}")
            continue
        if event["ph"] not in VALID_PHASES:
            fail(errors, f"{path}: event {i} has phase {event['ph']!r}")
            continue
        if event["ph"] == "M":
            continue
        if "cat" not in event or "ts" not in event:
            fail(errors, f"{path}: event {i} ({event['name']}) lacks cat/ts")
            continue
        if event["ph"] == "X":
            if "dur" not in event:
                fail(errors, f"{path}: span {i} ({event['name']}) lacks dur")
                continue
            spans_by_tid.setdefault(event["tid"], []).append(event)
            if event["name"] == "query" and event["cat"] == "query":
                root = event
    print(f"{path}: {len(events)} events, "
          f"{sum(len(s) for s in spans_by_tid.values())} spans on "
          f"{len(spans_by_tid)} threads")

    # 2. Nesting per tid: sweep by start; every span must close before
    # any enclosing span does (tolerance for clock-read skew).
    for tid, spans in spans_by_tid.items():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for span in spans:
            start, end = span["ts"], span["ts"] + span["dur"]
            while stack and stack[-1][1] <= start + NESTING_TOLERANCE_US:
                stack.pop()
            if stack and end > stack[-1][1] + NESTING_TOLERANCE_US:
                fail(errors,
                     f"{path}: tid {tid}: span '{span['name']}' "
                     f"[{start:.1f}, {end:.1f}] partially overlaps "
                     f"'{stack[-1][0]}' ending {stack[-1][1]:.1f}")
            stack.append((span["name"], end))

    # 3. Coverage of the root query span by everything beneath it.
    if root is None:
        fail(errors, f"{path}: no root 'query' span")
        return
    q_start, q_end = root["ts"], root["ts"] + root["dur"]
    intervals = []
    for spans in spans_by_tid.values():
        for span in spans:
            if span is root:
                continue
            lo = max(span["ts"], q_start)
            hi = min(span["ts"] + span["dur"], q_end)
            if hi > lo:
                intervals.append((lo, hi))
    intervals.sort()
    covered = 0.0
    cursor = q_start
    for lo, hi in intervals:
        if hi <= cursor:
            continue
        covered += hi - max(lo, cursor)
        cursor = hi
    fraction = covered / root["dur"] if root["dur"] > 0 else 0.0
    print(f"{path}: span coverage {fraction:.1%} of the query span "
          f"({root['dur'] / 1e3:.1f} ms)")
    if fraction < coverage_floor:
        fail(errors,
             f"{path}: coverage {fraction:.1%} below the "
             f"{coverage_floor:.0%} floor")


def check_metrics(path, errors):
    with open(path) as f:
        text = f.read()
    families = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            # "# HELP name ..." / "# TYPE name counter|gauge|summary"
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "summary"):
                    fail(errors, f"{path}: bad TYPE line: {line}")
            continue
        name = line.split("{")[0].split()[0]
        if len(line.split()) < 2:
            fail(errors, f"{path}: sample without value: {line}")
        families.add(name)
    print(f"{path}: {len(families)} metric series names")
    for required in REQUIRED_METRIC_FAMILIES:
        if not any(name.startswith(required) for name in families):
            fail(errors, f"{path}: missing metric family {required}*")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace_json")
    parser.add_argument("metrics_txt")
    parser.add_argument("--coverage", type=float, default=0.95)
    args = parser.parse_args()

    errors = []
    check_trace(args.trace_json, args.coverage, errors)
    check_metrics(args.metrics_txt, errors)
    if errors:
        print(f"{len(errors)} check(s) failed", file=sys.stderr)
        return 1
    print("all trace/metrics checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
