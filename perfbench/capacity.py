#!/usr/bin/env python3
"""Closed-loop capacity of an open-loop workload's shape.

    python3 perfbench/capacity.py --workload global-1r --seed 1 --seconds 10

Runs the workload's topology and destination mix with the closed loop of
``local-smr`` (200 logical clients x 4 in flight) instead of its fixed
rate, and prints completed messages per second.  The open-loop rates in
``cluster_load.py`` are fixed shares of this figure; BENCHMARK.json records
both.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("global-1r", "rejoin"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import cluster_load

    workload = cluster_load.WORKLOADS[args.workload]
    # The capacity of the shape without its fault: the rate is set for the
    # steady state the fault interrupts.
    shape = cluster_load.ClusterWorkload(
        workload.name, workload.groups, workload.replication, workload.pick
    )
    workdir = os.path.join(ROOT, ".perfbench_work", f"capacity-{os.getpid()}")
    run = cluster_load.ClusterRun(shape, args.seed, args.seconds, workdir, closed_loop=True)
    try:
        asyncio.run(run.run())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    win = run.window(run.phases[0])
    print(f"{args.workload} closed-loop capacity: {win['throughput_msg_s']:.1f} msg/s "
          f"(p50 {win['delivery']['p50']:.1f} ms, check: "
          f"{'PASS' if not run.violations else '; '.join(run.violations)})")
    return 0 if not run.violations else 1


if __name__ == "__main__":
    sys.exit(main())
