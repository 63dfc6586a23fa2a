#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-scale pass over every workload.

    python3 perfbench/selftest.py

Checks that
  * every end_to_end metric of BENCHMARK.json is printed, with its unit,
    by an untraced run of each workload (clickbench and h2o_csv included,
    though they are not in BENCHMARK.json), and every per_layer metric by
    a traced run;
  * every answer of those runs passes the oracle;
  * the oracle flags a deliberately altered result, on a batch workload
    (checked against TIE) and on serving (checked against in-process
    execution).
Exits 0 when all checks pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
from run import WORKLOADS  # noqa: E402


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        return None, f"{' '.join(cmd[1:])} exited with {proc.returncode}"
    return json.loads(proc.stdout.strip().split("\n")[-1]), None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, err = run(workload, trace)
            if err:
                problems.append(err)
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{workload} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} answers wrong")
            for metric in bench[section]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{workload} trace={trace}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: {metric['name']} in "
                                    f"{got['unit']}, not {metric['unit']}")
            print(f"ok   {workload} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} answers checked")
    for workload in ("tpch", "serving"):
        result, err = run(workload, 0, corrupt=True)
        if err:
            problems.append(err)
        elif result["failed"] == 0 or result["correct"]:
            problems.append(f"{workload}: the oracle missed an altered result")
        else:
            print(f"ok   {workload}: altered result flagged ({result['failed']} failed)")
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
