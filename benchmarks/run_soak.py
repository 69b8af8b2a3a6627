#!/usr/bin/env python3
"""Soak benchmark CLI: a process cluster under sustained load, with a verdict.

Thin wrapper over :mod:`repro.workload.soak`: parse knobs, run one soak
against a real N-groups × M-replicas process cluster, write
``BENCH_soak.json``, print a human summary, and exit non-zero if the oracle
found any violation (loss, duplication, resubmit exhaustion, or cross-replica
divergence).  The report schema is documented in DESIGN.md next to the
BENCH_micro.json provenance notes.

Examples
--------
Tier-1-sized smoke (seconds)::

    PYTHONPATH=src python benchmarks/run_soak.py \
        --messages 10000 --clients 200 --output BENCH_soak.json

The acceptance-scale run (>= 1M messages, kill + restart mid-run)::

    PYTHONPATH=src python benchmarks/run_soak.py \
        --messages 1000000 --clients 2000 \
        --kill-at 0.3 --restart-at 0.5 --output BENCH_soak.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n", 1)[0],
        epilog="Cluster topology and operations: docs/OPERATIONS.md.",
    )
    parser.add_argument("--groups", type=int, default=2)
    parser.add_argument("--replication", type=int, default=3)
    parser.add_argument("--messages", type=int, default=1_000_000)
    parser.add_argument("--clients", type=int, default=2000,
                        help="logical closed-loop clients")
    parser.add_argument("--inflight", type=int, default=4,
                        help="outstanding messages per logical client")
    parser.add_argument("--global-fraction", type=float, default=0.2)
    parser.add_argument("--payload-bytes", type=int, default=64)
    parser.add_argument("--batch", type=int, default=128,
                        help="ingress batching window size")
    parser.add_argument("--delay-ms", type=float, default=10.0,
                        help="ingress batching window delay")
    parser.add_argument("--timeout-ms", type=float, default=30_000.0,
                        help="per-message resubmit timeout (keep well above "
                        "outstanding/throughput queueing latency)")
    parser.add_argument("--retries", type=int, default=6)
    parser.add_argument("--flush-every-ms", type=float, default=500.0,
                        help="GC flush cadence (0 disables)")
    parser.add_argument("--kill-at", type=float, default=None,
                        help="SIGKILL one replica at this completed fraction")
    parser.add_argument("--restart-at", type=float, default=None,
                        help="restart it at this completed fraction")
    parser.add_argument("--kill-group", type=int, default=0)
    parser.add_argument("--kill-replica", type=int, default=2)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--storage-root", default=None,
                        help="WAL directory (default: a fresh tmpdir)")
    parser.add_argument("--drain-timeout", type=float, default=300.0,
                        help="abort after this long without progress")
    parser.add_argument("--restart-ready-timeout", type=float, default=600.0,
                        help="ready timeout for the restarted victim "
                        "(it replays its commit log first)")
    parser.add_argument("--convergence-timeout", type=float, default=360.0,
                        help="post-drain wait for cross-replica agreement "
                        "(the victim re-applies the suffix it missed)")
    parser.add_argument("--deep-check", action="store_true",
                        help="force the full-sequence oracle at any scale")
    parser.add_argument("--output", default="BENCH_soak.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    from repro.workload.soak import SoakConfig, run_soak

    config = SoakConfig(
        groups=args.groups,
        replication=args.replication,
        storage_root=args.storage_root,
        messages=args.messages,
        clients=args.clients,
        inflight_per_client=args.inflight,
        global_fraction=args.global_fraction,
        payload_bytes=args.payload_bytes,
        max_batch=args.batch,
        max_delay_ms=args.delay_ms,
        timeout_ms=args.timeout_ms,
        max_retries=args.retries,
        flush_every_ms=args.flush_every_ms,
        kill_at=args.kill_at,
        restart_at=args.restart_at,
        kill_target=(args.kill_group, args.kill_replica),
        seed=args.seed,
        drain_timeout=args.drain_timeout,
        restart_ready_timeout=args.restart_ready_timeout,
        convergence_timeout=args.convergence_timeout,
        deep_check=True if args.deep_check else None,
    )
    report = asyncio.run(run_soak(config))

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    totals = report["totals"]
    latency = report["latency_ms"]["delivery"]
    print(
        f"soak: {totals['completed']}/{totals['issued']} messages in "
        f"{totals['wall_s']:.1f}s = {totals['throughput_msg_per_s']:.0f} msg/s"
    )
    print(
        f"delivery latency ms: p50={latency['p50']} p99={latency['p99']} "
        f"p999={latency['p999']} max={latency['max']}"
    )
    print(
        f"retries={totals['retries']} exhausted={totals['exhausted']} "
        f"batches={totals['batches_sent']} skew={report['skew_max_over_mean']}"
    )
    for gid, info in sorted(report["per_group"].items()):
        print(f"group {gid}: delivered={info['delivered']} converged={info['converged']}")
    violations = report["oracle"]["violations"]
    if violations:
        print(f"ORACLE VIOLATIONS ({len(violations)}):", file=sys.stderr)
        for violation in violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    print(f"oracle: clean ({args.output} written)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
