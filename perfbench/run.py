#!/usr/bin/env python3
"""FlexCast benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``
(pure Python, nothing to build).  Workloads:

* ``local-smr``  2 groups x 3 replicas, single-group messages, closed loop;
* ``global-1r``  3 groups x 1 replica, every message global, open loop;
* ``rejoin``     2 groups x 3 replicas, 20% global, open loop, one replica
  killed and restarted inside the measured phase;
* ``sim-gtpcc``  the paper's gTPC-C run in the WAN simulator.

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics.  The lines before it are a
human summary: every metric with its unit, the failed ratio, the verdict of
the output check, and the workload's own figures (rejoin and fault-window
latency, simulated latency, generator lateness).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import statistics
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BOOT = os.path.join(HERE, "boot")

#: (name, unit) of every end-to-end metric.
END_TO_END: List[Tuple[str, str]] = [
    ("throughput_msg_s", "msg/s"),
    ("delivery_p50_ms", "ms"),
    ("first_response_p50_ms", "ms"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
]

WORKLOADS = ("local-smr", "global-1r", "sim-gtpcc", "rejoin")


class Result:
    """What one run reports: metrics, counts, verdict and a human summary."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.violations: List[str] = []
        self.lines: List[str] = []

    def line(self, name: str, value: Any, unit: str = "", note: str = "") -> None:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        self.lines.append(f"  {name:<34} {text} {unit}{'  ' + note if note else ''}")


def _latency_note(summary: Dict[str, Any]) -> str:
    top = summary.get("highest_supported_p")
    if top is None:
        return f"n={summary.get('count', 0)}"
    return f"n={summary['count']}, p{top:g}={summary['p_top']:.6g} ms (highest with >=10 beyond)"


# --------------------------------------------------------------- process runs
def run_cluster(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    import cluster_load

    recorder = None
    spans_dir = os.path.join(workdir, "spans")
    if trace:
        import pbtrace

        recorder = pbtrace.Recorder("driver")
        pbtrace.install(recorder)
        os.makedirs(spans_dir, exist_ok=True)
        # Replica processes inherit this environment: the bootstrap arms
        # them for SIGUSR1/SIGUSR2 and writes their spans at exit.
        os.environ["PERFBENCH_SPANS"] = spans_dir
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (BOOT, os.environ.get("PYTHONPATH")) if p
        )
    workload = cluster_load.WORKLOADS[name]
    run = cluster_load.ClusterRun(workload, seed, seconds, os.path.join(workdir, "cluster"), recorder)
    # The driver's own garbage collector would stall the load generator
    # (its heap grows with every message tracked); replicas keep theirs.
    gc.disable()
    try:
        asyncio.run(run.run())
    finally:
        gc.enable()

    res = Result()
    res.violations.extend(run.violations)
    windows = [run.window(phase) for phase in run.phases]
    for phase, win in zip(run.phases, windows):
        res.attempted += win["attempted"] + (1 if workload.fault else 0)
        res.failed += win["failed"]
        if win.get("backlog_grew"):
            res.violations.append("open-loop backlog grew over the measured phase")
    res.failed += run.rejoin_failures
    if run.rejoin_failures:
        res.violations.append(f"{run.rejoin_failures} rejoin(s) did not catch up")
    win = windows[0]
    e2e = {
        "throughput_msg_s": win["throughput_msg_s"],
        "delivery_p50_ms": win["delivery_p50_ms"],
        "first_response_p50_ms": win["first_response_p50_ms"],
        "setup_s": statistics.median(run.setup_s),
        "rss_mb": run.rss_mb,
    }
    res.lines.append(
        f"  (latency and throughput: medians over {win['windows']} windows of {cluster_load.WINDOW_S:g} s)"
    )
    _describe_e2e(res, e2e)
    res.line("delivery_p99_ms", win["delivery_p99_ms"], "ms", "median over windows; not gated, see README")
    res.line("whole_phase_delivery_p99_ms", win["delivery"]["p99"], "ms", _latency_note(win["delivery"]))
    if workload.rate is not None:
        res.line("offered_rate_msg_s", workload.rate, "msg/s", "open loop, timed from due time")
        res.line("generator_lateness_p99_ms", win["generator_lateness_ms"].get("p99", 0.0), "ms")
    res.line("setup_runs_s", ", ".join(f"{s:.4f}" for s in run.setup_s), "s")
    if workload.fault:
        for phase in run.phases:
            cycle = phase.cycle or {}
            res.line("rejoin_s", cycle.get("rejoin_s"), "s", "restart call -> leader's applied reached")
            res.line("restart_ready_s", cycle.get("restart_ready_s"), "s")
            fault = run.window(phase).get("fault_delivery", {})
            res.line("fault_delivery_p99_ms", fault.get("p99"), "ms",
                     "messages due from a kill until caught up; " + _latency_note(fault))
            for event in phase.events:
                res.lines.append(f"  event {json.dumps(event, sort_keys=True)}")
    if trace:
        import layers

        replicas = []
        for entry in sorted(os.listdir(spans_dir)):
            with open(os.path.join(spans_dir, entry), "r", encoding="utf-8") as handle:
                dump = json.load(handle)
            if dump["wall_s"] > 0:
                replicas.append(dump)
        driver = recorder.to_json()
        res.metrics = layers.cluster_layers(run, driver, replicas)
        res.lines.append(f"  traced replica processes: {len(replicas)}")
        res.lines.extend(layers.message_trace([driver] + replicas))
    else:
        res.metrics = e2e
    return res


def _describe_e2e(res: Result, e2e: Dict[str, float]) -> None:
    units = dict(END_TO_END)
    for name, value in e2e.items():
        res.line(name, value, units[name])


# ------------------------------------------------------------------ simulator
def run_sim(seed: int, seconds: float, trace: bool) -> Result:
    import sim_gtpcc
    import stats

    res = Result()
    setups: List[Tuple[float, float]] = []
    # A traced run splits ``--seconds`` between the untraced and the
    # traced pass over the same experiments.
    count = sim_gtpcc.experiments_for(seconds / 2 if trace else seconds)
    batch = sim_gtpcc.run_batch(seed, count, setups)
    res.attempted = batch["issued"]
    res.failed = batch["issued"] - batch["completed"]
    res.violations.extend(batch["violations"])
    e2e = sim_gtpcc.end_to_end(batch, setups)
    delivery = stats.summarize(batch["delivery"])
    _describe_e2e(res, e2e)
    res.line("sim_delivery_p50_ms", e2e["delivery_p50_ms"], "ms", "simulated; same seed, same value")
    res.line("sim_delivery_p99_ms", delivery["p99"], "ms", _latency_note(delivery))
    res.line("sim_txn_wall_s", batch["completed"] / batch["wall_s"], "txn/s",
             "transactions per wall second, uncorrected")
    res.line("experiments", count, "", f"{sim_gtpcc.DURATION_MS:g} simulated ms each")
    res.line("experiment_wall_s", batch["wall_s"] / count, "s", "mean wall time of one experiment")
    res.line("setup_samples", len(setups), "", "one build each")
    res.line("setup_raw_s", statistics.median(s for s, _ in setups), "s", "median, uncorrected")
    res.line("host_slowdown", statistics.median(slow for _, slow in setups), "",
             "median over the set-up samples (see hostspeed.py)")
    # One count per property, so the kind of a violation shows even though
    # the verdict is a single boolean.
    for prop, n in batch["violations_by_property"].items():
        res.line(f"check.{prop}_violations", n)
    if trace:
        import layers
        import pbtrace

        recorder = pbtrace.Recorder("driver")
        pbtrace.install(recorder)
        recorder.enable()
        traced = sim_gtpcc.run_batch(seed, count)
        recorder.disable()
        events = sum(loop.events_processed for loop in recorder.event_loops)
        res.metrics = layers.sim_layers(batch, traced, recorder.to_json(), events)
    else:
        res.metrics = e2e
    return res


# ----------------------------------------------------------------------- main
def _declared(trace: bool) -> List[Tuple[str, str]]:
    if trace:
        import layers

        return layers.PER_LAYER
    return END_TO_END


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE, BOOT]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.workload == "sim-gtpcc":
            res = run_sim(args.seed, args.seconds, bool(args.trace))
        else:
            res = run_cluster(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    declared = _declared(bool(args.trace))
    missing = [name for name, _ in declared if name not in res.metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 3
    correct = not res.violations
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for text in res.lines:
        print(text)
    ratio = res.failed / res.attempted if res.attempted else 0.0
    print(f"  failed_ratio                       {ratio:.6g}  ({res.failed} of {res.attempted})")
    shown = "; ".join(v[:200] for v in res.violations[:3])
    more = f" (+{len(res.violations) - 3} more)" if len(res.violations) > 3 else ""
    print("  check: " + ("PASS" if correct else f"FAIL: {shown}{more}"))
    if args.trace:
        for name, unit in declared:
            print(f"  {name:<46} {res.metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            name: {"value": float(res.metrics[name]), "unit": unit} for name, unit in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
