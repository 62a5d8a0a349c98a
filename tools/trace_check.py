#!/usr/bin/env python3
"""Validate a Chrome-trace JSON file emitted by the CC_TRACE telemetry sink.

Usage:
    tools/trace_check.py TRACE.json [--require-span NAME]... [--stats STATS.json]

Checks, in order:

  1. The file parses as JSON and has the expected top-level shape
     (`traceEvents` list; every event carries name/ph/pid/tid/ts).
  2. Begin/end balance per thread: each tid's B/E events form a properly
     nested stack, with every E matching the name of the innermost open B.
     A truncated or interleaved writer shows up here immediately.
  3. Timestamps are non-decreasing per tid (spans are recorded by one thread
     into one buffer, so out-of-order timestamps mean a broken clock or a
     corrupted flush).
  4. Every --require-span NAME appears at least once (exact match on the
     event name).  CI uses this to prove the smoke run actually exercised
     the codec, ops, and scheduler instrumentation.
  5. With --stats, the CC_STATS snapshot JSON is also validated for format:
     the expected schema, `counters` and `histograms` objects, and p50/p95/p99
     on every histogram that has samples.  What the counters should hold
     after a given workload is pinned by the unit tests that run it.

Exits 0 when everything holds, 1 with a diagnostic per failure otherwise.
"""

import argparse
import json
import sys


def fail(message):
    print(f"trace_check: FAIL: {message}", file=sys.stderr)
    return 1


def check_trace(path, require_spans):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        return fail(f"{path}: unreadable or invalid JSON: {error}")

    events = data.get("traceEvents")
    if not isinstance(events, list):
        return fail(f"{path}: no traceEvents list")
    if not events:
        return fail(f"{path}: traceEvents is empty — tracing never fired")

    failures = 0
    stacks = {}  # tid -> [open span names]
    last_ts = {}  # tid -> last timestamp seen
    seen_names = set()
    for i, event in enumerate(events):
        for field in ("name", "ph", "pid", "tid", "ts"):
            if field not in event:
                failures += fail(f"{path}: event #{i} missing {field!r}")
                break
        else:
            name, phase, tid, ts = (
                event["name"], event["ph"], event["tid"], event["ts"])
            if phase not in ("B", "E"):
                failures += fail(f"{path}: event #{i} has phase {phase!r}, "
                                 "expected B or E")
                continue
            seen_names.add(name)
            if tid in last_ts and ts < last_ts[tid]:
                failures += fail(
                    f"{path}: event #{i} ({name}) on tid {tid} goes back in "
                    f"time: {ts} after {last_ts[tid]}")
            last_ts[tid] = ts
            stack = stacks.setdefault(tid, [])
            if phase == "B":
                stack.append(name)
            elif not stack:
                failures += fail(
                    f"{path}: event #{i}: E({name}) on tid {tid} with no "
                    "open span")
            elif stack[-1] != name:
                failures += fail(
                    f"{path}: event #{i}: E({name}) on tid {tid} but "
                    f"innermost open span is {stack[-1]!r}")
            else:
                stack.pop()

    for tid, stack in sorted(stacks.items()):
        if stack:
            failures += fail(
                f"{path}: tid {tid} ends with {len(stack)} unclosed span(s): "
                f"{stack}")

    for name in require_spans:
        if name not in seen_names:
            failures += fail(f"{path}: required span {name!r} never appears")

    if not failures:
        print(f"trace_check: {path}: {len(events)} events across "
              f"{len(stacks)} thread(s), balanced and monotonic"
              + (f"; required spans present: {', '.join(require_spans)}"
                 if require_spans else ""))
    return failures


STATS_QUANTILES = ("p50", "p95", "p99")


def check_stats(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        return fail(f"{path}: unreadable or invalid JSON: {error}")

    failures = 0
    if data.get("schema") != "pyblaz-telemetry-v1":
        failures += fail(f"{path}: unexpected schema {data.get('schema')!r}")
    for section in ("counters", "histograms"):
        if not isinstance(data.get(section), dict):
            failures += fail(f"{path}: no {section} object")
    if failures:
        return failures

    sampled = 0
    for name, histogram in data["histograms"].items():
        if not isinstance(histogram, dict):
            failures += fail(f"{path}: histogram {name!r} is not an object")
        elif histogram.get("count", 0) > 0:
            sampled += 1
            for quantile in STATS_QUANTILES:
                if quantile not in histogram:
                    failures += fail(f"{path}: histogram {name!r} has "
                                     f"samples but no {quantile}")

    if not failures:
        print(f"trace_check: {path}: stats snapshot well-formed: "
              f"{len(data['counters'])} counter(s), {sampled} sampled "
              "histogram(s) with p50/p95/p99")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome-trace JSON from CC_TRACE")
    parser.add_argument(
        "--require-span",
        action="append",
        default=[],
        metavar="NAME",
        help="span name that must appear at least once (repeatable)",
    )
    parser.add_argument(
        "--stats",
        metavar="STATS.json",
        help="also validate a CC_STATS snapshot JSON",
    )
    args = parser.parse_args()

    failures = check_trace(args.trace, args.require_span)
    if args.stats:
        failures += check_stats(args.stats)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
