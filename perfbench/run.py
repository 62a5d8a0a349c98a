#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --smoke              # the benchmark's own check

Run from the repository root.  The first run configures and builds the
library and the perfbench binary into .bench_build/ (later runs only
rebuild what changed).  The binary's output is passed through; its last
line is one JSON object, which this script checks against BENCHMARK.json
before exiting 0: every metric named there must be present with its unit
and a finite value.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at the repository root: nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def check_result(line, spec, trace):
    """Problems with the binary's result line against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["attempted"] < 1:
        problems.append("no unit attempted")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append(f"missing metrics {missing}, unexpected {extra}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, "
                            f"expected {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not finite")
    return problems


def run_binary(args, spec):
    """Run one workload; return (result line, problems)."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"timed out after {RUN_TIMEOUT_S} s"]
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return None, [f"perfbench exited with {proc.returncode}"]
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return lines[-1], check_result(lines[-1], spec, args.trace == 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload in both modes, "
                             "and the metric check")
    args = parser.parse_args()

    build()
    with open(SPEC) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = 1 if args.smoke else spec["run_seconds"]

    if args.smoke:
        runs = [(w, t) for w in workloads for t in (0, 1)]
    elif args.workload == "all":
        runs = [(w, args.trace) for w in workloads]
    elif args.workload in workloads:
        runs = [(args.workload, args.trace)]
    else:
        fail(f"unknown workload {args.workload!r}; one of {workloads} or all")

    last = None
    for workload, trace in runs:
        if len(runs) > 1:
            print(f"== {workload} (trace {trace})", flush=True)
        args.workload, args.trace = workload, trace
        line, problems = run_binary(args, spec)
        if problems:
            fail(f"{workload} (trace {trace}): " + "; ".join(problems))
        last = line
        if len(runs) > 1:
            print(line, flush=True)
    if len(runs) == 1:
        print(last, flush=True)
    elif args.smoke:
        print(f"smoke: {len(runs)} runs, every metric present and finite",
              flush=True)


if __name__ == "__main__":
    main()
