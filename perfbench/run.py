#!/usr/bin/env python3
"""End-to-end serving benchmark for the sesemi stack.

Usage (from the repository root):

    python3 perfbench/run.py --workload hot|cold|mixed --seed N --seconds S --trace 0|1

Builds the library and the benchmark binary from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
self-tests of the benchmark's arithmetic, then measures. The measured time is
split over PARTS benchmark processes, run one after another, and each metric is
the median of the processes' values: a process that lands in an unlucky
allocator or scheduler state moves the result less. setup_s is the median of
SETUP_REPEATS set-ups (the PARTS measuring processes' own plus set-up-only
processes).

With --trace 0 the result carries the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced run. The last line of standard output is one
JSON object: {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Metric definitions and workload rationale: perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PARTS = 3
SETUP_REPEATS = 5
BUILD_TIMEOUT_S = 840
PART_TIMEOUT_S = 60
SETUP_TIMEOUT_S = 30
# Counts that add up over the processes instead of taking their median.
SUMMED = {"obs.dropped"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Run cmd to completion; a process that overruns is killed and reaped."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serverless", "platform.h")):
        fail(f"sesemi sources not found under {os.path.join(ROOT, 'src')}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                        BUILD_TIMEOUT_S, stdout=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    built = run(["cmake", "--build", build_dir, "-j", "4"], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if built.returncode != 0:
        fail("build failed")
    return build_dir


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    parser = argparse.ArgumentParser(description="sesemi end-to-end serving benchmark")
    parser.add_argument("--workload", required=True, choices=["hot", "cold", "mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= 60 or args.seed < 0:
        fail("--seconds must be in (0, 60] and --seed non-negative")

    build_dir = build()
    if run([os.path.join(build_dir, "perfbench_selftest")], 60,
           stdout=sys.stderr).returncode != 0:
        fail("self-tests of the benchmark arithmetic failed")

    bench = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--trace", str(args.trace)]
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_REPEATS - PARTS):
            only = run(bench + ["--seconds", "1", "--setup-only"], SETUP_TIMEOUT_S,
                       capture_output=True, text=True)
            result = last_json(only.stdout)
            if only.returncode != 0 or result is None or not result.get("prewarm_ok"):
                sys.stderr.write(only.stdout + only.stderr)
                fail("set-up-only run failed")
            setups.append(result["setup_s"])

    parts = []
    for part in range(PARTS):
        measured = run(bench + ["--seconds", str(args.seconds / PARTS), "--part", str(part)],
                       PART_TIMEOUT_S, capture_output=True, text=True)
        sys.stderr.write(measured.stderr)
        result = last_json(measured.stdout)
        if measured.returncode != 0 or result is None:
            sys.stderr.write(measured.stdout)
            fail(f"benchmark part {part} exited with {measured.returncode}")
        print(f"--- part {part}")
        for line in measured.stdout.strip().splitlines()[:-1]:
            print(line)
        parts.append(result)

    metrics = {}
    for name, first in parts[0]["metrics"].items():
        values = [p["metrics"][name]["value"] for p in parts]
        value = sum(values) if name in SUMMED else statistics.median(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    if args.trace == 0:
        setups += [p["metrics"]["setup_s"]["value"] for p in parts]
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        metrics["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps({
        "correct": all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": metrics,
    }), flush=True)


if __name__ == "__main__":
    main()
