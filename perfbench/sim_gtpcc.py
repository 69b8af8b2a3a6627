"""The paper's gTPC-C experiment in the in-process WAN simulator.

FlexCast on overlay O1 over the 12-region AWS latency matrix, gTPC-C
global-only at 0.90 locality, 48 closed-loop clients, 2 ms seeded jitter,
GC on, with conflict-scoped order claims declared over every destination
set gTPC-C can generate (see ``build_protocol``).  A run is
``experiments_for(seconds)`` independent experiments whose seeds derive
from ``--seed``; latencies are simulated milliseconds, so they
are identical for the same seed, while transactions per wall-clock second
measure the cost of the protocol code itself.
"""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.checker import check_trace
from repro.core.flexcast import FlexCastProtocol
from repro.core.message import reset_message_ids
from repro.experiments import runner
from repro.experiments.config import flexcast_config
from repro.experiments.runner import group_node, run_experiment
from repro.overlay.builders import standard_overlays
from repro.sim.events import EventLoop
from repro.sim.latencies import aws_latency_matrix
from repro.sim.network import Network
from repro.sim.transport import SimTransport
from repro.workload.gtpcc import GTPCCConfig

import hostspeed
import stats

CLIENTS = 48
LOCALITY = 0.90
JITTER_MS = 2.0
#: Simulated time per experiment, and the GC flush period inside it.  The
#: paper's scenarios run 6 s with a 2 s flush; at that size one experiment
#: takes minutes of wall time here, so the benchmark runs many shorter
#: experiments whose flush period keeps GC active inside each.
DURATION_MS = 1000.0
GC_MS = 500.0
#: Wall seconds one experiment takes on a 2-core x86 machine, with its
#: trace check, the set-up sample taken before it and the reference work
#: around both (see ``hostspeed``); it only converts ``--seconds`` into a
#: fixed experiment count, so the count (and with it every simulated
#: latency) depends on the arguments alone.
EXPERIMENT_WALL_S = 0.75
#: Set-up samples: one build timed before every experiment and one after
#: the last (after ``SETUP_WARMUP`` untimed builds), with the cyclic
#: collector off as ``timeit`` does, so a sample does not carry a
#: collection of the heap the experiments left.  One build takes 0.12 to
#: 0.26 s on a 2-core x86 machine, nearly all of it finding the hot
#: conflict components of the 287 declared shapes, once per group.
SETUP_WARMUP = 1
#: Property names of ``repro.checker``'s trace check, plus the benchmark's
#: own ``completion`` (every issued transaction completed); one count each.
PROPERTIES = ("integrity", "validity/agreement", "prefix-order", "acyclic-order", "completion")


def experiments_for(seconds: float) -> int:
    return max(1, round(seconds / EXPERIMENT_WALL_S))


def config_for(seed: int, index: int):
    return flexcast_config(
        num_clients=CLIENTS,
        locality=LOCALITY,
        duration_ms=DURATION_MS,
        seed=seed * 1000 + index,
        jitter_ms=JITTER_MS,
        gc_interval_ms=GC_MS,
        record_deliveries=True,
    )


def conflict_shapes(groups) -> List[frozenset]:
    """Every destination set a gTPC-C client can submit (its home plus up
    to ``max_destinations - 1`` other warehouses, any of which the locality
    walk can reach) and the all-groups shape of the GC flushes."""
    groups = sorted(groups)
    widest = GTPCCConfig().max_destinations
    shapes = [
        frozenset(c) for k in range(2, widest + 1) for c in itertools.combinations(groups, k)
    ]
    shapes.append(frozenset(groups))
    return shapes


def build_protocol(config, latencies) -> FlexCastProtocol:
    """FlexCast on the configured overlay with order claims over gTPC-C's
    shape universe.  ``runner.build_protocol`` builds a plain
    ``FlexCastProtocol(overlay)`` without declared shapes, which violates
    acyclic order on this workload; with the shapes declared every global
    message is claim-ordered."""
    overlay = standard_overlays(latencies)[config.overlay]
    return FlexCastProtocol(overlay, conflict_shapes=conflict_shapes(range(latencies.num_sites)))


#: ``run_experiment`` looks its protocol builder up in its own module.
runner.build_protocol = build_protocol


def setup_once(seed: int) -> None:
    """Build the protocol, overlay and simulated network (what
    ``run_experiment`` builds before its first event)."""
    config = config_for(seed, 0)
    latencies = aws_latency_matrix()
    protocol = build_protocol(config, latencies)
    loop = EventLoop()
    network = Network(loop, latencies, jitter_ms=config.jitter_ms, seed=config.seed)
    for gid in protocol.groups:
        group = protocol.create_group(gid, SimTransport(network, group_node(gid)), lambda g, m: None)
        network.register(group_node(gid), site=gid, handler=group.on_envelope)


def setup_sample(seed: int) -> float:
    """Seconds one set-up takes."""
    gc.disable()
    try:
        started = time.perf_counter()
        setup_once(seed)
        return time.perf_counter() - started
    finally:
        gc.enable()


def run_batch(
    seed: int, count: int, setups: Optional[List[Tuple[float, float]]] = None
) -> Dict[str, Any]:
    """Run ``count`` experiments; collect latencies, checks and counters.
    With a ``setups`` list (the measured pass), set-up samples are taken
    around every experiment and appended to it as (seconds, host
    slowdown), and every experiment's wall time is also divided by the
    host's slowdown around it (``ref_wall_s``); the traced pass leaves the
    reference work out."""
    if setups is not None:
        for _ in range(SETUP_WARMUP):
            setup_once(seed)
    delivery: List[float] = []
    first: List[float] = []
    wall = ref_wall = cpu = 0.0
    issued = completed = 0
    violations: List[str] = []
    by_property = {name: 0 for name in PROPERTIES}
    counters: Dict[str, int] = {}
    sends = deliveries = vertices_max = queue_max = 0
    for index in range(count + 1):
        if setups is not None:
            before = hostspeed.reference_work()
            seconds = setup_sample(seed)
            after = hostspeed.reference_work()
            setups.append((seconds, hostspeed.slowdown(before, after)))
        if index == count:
            break
        config = config_for(seed, index)
        # Message ids break ties in claim order; restarting them makes an
        # experiment independent of what ran before it in this process.
        reset_message_ids()
        started, cpu0 = time.perf_counter(), time.process_time()
        result = run_experiment(config)
        elapsed = time.perf_counter() - started
        cpu += time.process_time() - cpu0
        wall += elapsed
        if setups is not None:
            # ``after`` was taken just before this experiment started.
            ref_wall += elapsed / hostspeed.slowdown(after, hostspeed.reference_work())
        issued += result.issued
        completed += result.completed
        for txn in result.latency.transactions:
            delivery.append(txn.latencies_by_arrival[-1])
            first.append(txn.latencies_by_arrival[0])
        sink = result.deliveries
        multicast = {m.msg_id: m for seq in sink.per_group.values() for m in seq}
        report = check_trace(sink, multicast.values(), expect_all_delivered=True)
        violations.extend(f"seed {config.seed}: {v}" for v in report.violations)
        for v in report.violations:
            by_property[v.property_name] = by_property.get(v.property_name, 0) + 1
        if result.issued != result.completed:
            by_property["completion"] += 1
            violations.append(
                f"seed {config.seed}: {result.issued - result.completed} transactions incomplete"
            )
        for group in result.groups.values():
            for key, value in group.stats.items():
                counters[key] = counters.get(key, 0) + value
            vertices_max = max(vertices_max, len(group.history))
            queue_max = max(queue_max, sum(group.queue_sizes().values()))
        sends += sum(t.messages_sent for t in result.traffic.values())
        deliveries += sum(result.delivered_by_group.values())
    return {
        "delivery": delivery,
        "first": first,
        "wall_s": wall,
        "ref_wall_s": ref_wall,
        "cpu_s": cpu,
        "issued": issued,
        "completed": completed,
        "violations": violations,
        "violations_by_property": by_property,
        "counters": counters,
        "group_sends": sends,
        "deliveries": deliveries,
        "vertices_max": vertices_max,
        "queue_depth_max": queue_max,
    }


def end_to_end(batch: Dict[str, Any], setups: List[Tuple[float, float]]) -> Dict[str, float]:
    """The gated metrics; the CPU-bound ones (throughput, set-up) are
    corrected for the host's speed (see ``hostspeed``)."""
    delivery = sorted(batch["delivery"])
    first = sorted(batch["first"])
    return {
        "throughput_msg_s": batch["completed"] / batch["ref_wall_s"],
        "delivery_p50_ms": stats.quantile(delivery, 50.0),
        "first_response_p50_ms": stats.quantile(first, 50.0),
        "setup_s": statistics.median(seconds / slow for seconds, slow in setups),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
