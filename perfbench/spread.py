#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload local-smr --runs 10 [--first-seed 1]

Runs the benchmark command of BENCHMARK.json once per seed, one run at a
time, and prints for every end-to-end metric its median, its quartiles, and
the spread: the distance between the first and third quartile as a share
of the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound.  A spread at or above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(out.stdout[-2000:], out.stderr[-2000:], sep="\n")
            return 1
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("\n".join(line for line in lines if line.startswith("  check:")))
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(f"{k}={v:.5g}" for k, v in row.items()),
              flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    worst = 0
    for metric in bench["end_to_end"]:
        series = values[metric["name"]]
        q1, q2, q3 = statistics.quantiles(series, n=4)
        med = statistics.median(series)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < metric["bound"] / 3 else "  <-- spread >= bound/3"
        if spread >= metric["bound"] / 3:
            worst += 1
        print(f"{metric['name']:<24} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f} bound {metric['bound']}{flag}")
    return 0 if not worst else 2


if __name__ == "__main__":
    sys.exit(main())
