#!/usr/bin/env python3
"""Build the engine and the benchmark runner from this checkout, run one
workload, and print its result as the last line of standard output.

    python3 perfbench/run.py --workload tpch --seed 1 --seconds 10 --trace 0

Workloads: tpch and serving (those of BENCHMARK.json), clickbench and
h2o_csv (run by hand; see perfbench/README.md).
The build goes to $CARGO_TARGET_DIR (default .bench_build), generated
inputs to .bench_data and traces to .bench_out, all under the checkout.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch", "clickbench", "h2o_csv", "serving")
RUN_TIMEOUT_S = 170  # preparation and measurement together, build excluded


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure (once) and build the runner; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_runner", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_runner")


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys in the result line")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} lacks a value or unit")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="alter one answer before checking it (self-test)")
    args = parser.parse_args()

    runner = build(build_dir())
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--data-dir", os.path.join(ROOT, ".bench_data")]
    if args.tiny:
        common.append("--tiny")
    # Inputs and baseline answers are made in a process of their own, so
    # that their memory never counts in the measured process.
    try:
        prepared = subprocess.run([runner, "--prepare"] + common, cwd=ROOT,
                                  stdout=sys.stderr, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        fail(f"preparing {args.workload} took over {RUN_TIMEOUT_S} s")
    if prepared.returncode != 0:
        fail(f"preparing {args.workload} failed with code {prepared.returncode}")
    cmd = [runner] + common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--out-dir", os.path.join(ROOT, ".bench_out")]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"runner exited with code {proc.returncode}")
    try:
        check_result(lines[-1])
    except ValueError as err:
        sys.stdout.write(proc.stdout)
        fail(f"malformed result line: {err}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
