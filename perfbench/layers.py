"""Per-layer metrics of a traced run.

Counts come from the untraced phase (phase A): ``/metrics`` diffs for the
process cluster, the groups' own counters for the simulator.  Frame counts,
self times and raw call durations come from the spans of the traced phase
(phase B).  Every metric is reported on every workload; a layer that does
not run on a workload reads 0 there.

Bases: ``per_msg`` is per completed application message (the client's
view, all processes' work summed); ``per_delivery`` is per delivery by any
replica's protocol copy; ``per_decision`` is per decision of a group's
multi-Paxos leader; ``per_frame``/``per_call`` are per wrapped call.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import stats

KINDS = ("client", "paxos", "flexcast", "response")

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("core.batching.msgs_per_batch", "msg/batch"),
    ("core.batching.timer_flush_ratio", "share"),
    ("core.batching.self_us_per_msg", "us/msg"),
    ("workload.clients.retries_per_msg", "retry/msg"),
    ("core.client.self_us_per_msg", "us/msg"),
    *[(f"runtime.codec.frames_per_msg.{k}", "frame/msg") for k in KINDS],
    *[(f"runtime.codec.bytes_per_msg.{k}", "B/msg") for k in KINDS],
    ("runtime.codec.encode_us_per_frame", "us/frame"),
    ("runtime.codec.decode_us_per_frame", "us/frame"),
    ("runtime.codec.self_us_per_msg", "us/msg"),
    ("runtime.transport.sends_per_msg", "send/msg"),
    ("runtime.transport.failed_sends", "count"),
    ("runtime.transport.send_wait_ms_p99", "ms"),
    ("runtime.transport.self_us_per_msg", "us/msg"),
    ("runtime.proc.frames_received_per_msg", "frame/msg"),
    ("runtime.proc.self_us_per_msg", "us/msg"),
    ("smr.replica_envelopes_per_decision", "frame/decision"),
    ("smr.value_frames_per_decision", "frame/decision"),
    ("smr.phase1_per_decision", "frame/decision"),
    ("smr.proposed_per_committed", "ratio"),
    ("smr.nacks", "count"),
    ("smr.ballot_retries", "count"),
    ("smr.self_ms_per_decision", "ms/decision"),
    ("smr.apply_us_per_entry", "us/entry"),
    ("smr.catchup_entries_per_s", "entry/s"),
    ("storage.file.appends_per_msg", "append/msg"),
    ("storage.file.fsyncs_per_msg", "fsync/msg"),
    ("storage.file.bytes_per_msg", "B/msg"),
    ("storage.file.append_ms_p50", "ms"),
    ("storage.file.append_ms_p99", "ms"),
    ("storage.file.fsync_ms_p50", "ms"),
    ("storage.file.fsync_ms_p99", "ms"),
    ("storage.file.self_us_per_msg", "us/msg"),
    ("storage.recovery.rejoin_s", "s"),
    ("storage.recovery.restart_ready_s", "s"),
    ("storage.recovery.converge_s", "s"),
    ("core.flexcast.self_us_per_delivery", "us/delivery"),
    ("core.flexcast.reprocess_passes_per_delivery", "pass/delivery"),
    ("core.flexcast.pivot_guard_stalls", "count"),
    ("core.flexcast.guard_escapes", "count"),
    ("core.flexcast.ts_proposals_per_global_msg", "proposal/msg"),
    ("core.flexcast.acks_per_msg", "ack/msg"),
    ("core.flexcast.notifs_per_msg", "notif/msg"),
    ("core.flexcast.queue_depth_max", "count"),
    ("core.history.self_us_per_delivery", "us/delivery"),
    ("core.history.ancestors_of_calls_per_delivery", "call/delivery"),
    ("core.history.ancestors_of_us_per_call", "us/call"),
    ("core.history.merge_delta_us", "us/call"),
    ("core.history.diff_items_per_diff", "item/diff"),
    ("core.history.empty_diff_ratio", "share"),
    ("core.history.vertices_max", "count"),
    ("sim.network_sends_per_txn", "send/txn"),
    ("sim.events_per_txn", "event/txn"),
    ("sim.self_share", "share"),
    ("trace.cpu_us_per_msg", "us/msg"),
    ("trace.cpu_per_msg_ratio", "ratio"),
    ("trace.uncovered_cpu_share.driver", "share"),
    ("trace.uncovered_cpu_share.replicas", "share"),
    ("trace.uncovered_wall_share.driver", "share"),
    ("trace.uncovered_wall_share.replicas", "share"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Spans:
    """Span dumps of several processes, merged."""

    def __init__(self, dumps: Sequence[Dict[str, Any]]) -> None:
        from pbtrace import LAYER_OF

        self.layer_of = LAYER_OF
        self.stats: Dict[str, List[int]] = {}
        self.sent: Dict[str, List[int]] = {}
        self.samples: Dict[str, List[float]] = {}
        self.send_wait: List[float] = []
        self.value_frames = self.prepares = self.failed_sends = 0
        self.diffs = [0, 0, 0]
        for dump in dumps:
            for name, (count, total, own) in dump["stats"].items():
                entry = self.stats.setdefault(name, [0, 0, 0])
                entry[0] += count
                entry[1] += total
                entry[2] += own
            for kind, (frames, size) in dump["sent"].items():
                entry = self.sent.setdefault(kind, [0, 0])
                entry[0] += frames
                entry[1] += size
            for name, values in dump["samples"].items():
                self.samples.setdefault(name, []).extend(values)
            self.send_wait.extend(dump["send_wait_ms"])
            self.value_frames += dump["value_frames"]
            self.prepares += dump["prepares"]
            self.failed_sends += dump["failed_sends"]
            for i in range(3):
                self.diffs[i] += dump["diffs"][i]

    def count(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def mean_us(self, name: str) -> float:
        count, total, _ = self.stats.get(name, [0, 0, 0])
        return _ratio(total / 1000.0, count)

    def mean_self_us(self, name: str) -> float:
        count, _, own = self.stats.get(name, [0, 0, 0])
        return _ratio(own / 1000.0, count)

    def self_us(self, layer: str) -> float:
        return sum(
            own / 1000.0 for name, (_, _, own) in self.stats.items()
            if self.layer_of[name] == layer
        )

    def pct_ms(self, name: str, p: float) -> float:
        values = sorted(self.samples.get(name, ()))
        return stats.quantile(values, p) / 1000.0 if values else 0.0


def _common(spans: Spans, msgs: float, deliveries: float) -> Dict[str, float]:
    """Metrics computed the same way from spans on every workload."""
    m: Dict[str, float] = {
        "core.batching.self_us_per_msg": _ratio(spans.self_us("core.batching"), msgs),
        "core.client.self_us_per_msg": _ratio(spans.self_us("core.client"), msgs),
        "runtime.codec.encode_us_per_frame": spans.mean_us("encode_frame"),
        "runtime.codec.decode_us_per_frame": spans.mean_us("decode_frame"),
        "runtime.codec.self_us_per_msg": _ratio(spans.self_us("runtime.codec"), msgs),
        "runtime.transport.sends_per_msg": _ratio(spans.count("AsyncioTransport.send"), msgs),
        "runtime.transport.failed_sends": float(spans.failed_sends),
        "runtime.transport.send_wait_ms_p99": (
            stats.quantile(sorted(spans.send_wait), 99.0) if spans.send_wait else 0.0
        ),
        "runtime.transport.self_us_per_msg": _ratio(spans.self_us("runtime.transport"), msgs),
        "runtime.proc.self_us_per_msg": _ratio(spans.self_us("runtime.proc"), msgs),
        # SMR's own work per applied log entry, without the protocol copy's
        # ``on_envelope`` it calls (that is core.flexcast time).
        "smr.apply_us_per_entry": spans.mean_self_us("GroupReplica._apply"),
        "storage.file.append_ms_p50": spans.pct_ms("FileWAL.append", 50.0),
        "storage.file.append_ms_p99": spans.pct_ms("FileWAL.append", 99.0),
        "storage.file.fsync_ms_p50": spans.pct_ms("FileWAL.sync", 50.0),
        "storage.file.fsync_ms_p99": spans.pct_ms("FileWAL.sync", 99.0),
        "storage.file.self_us_per_msg": _ratio(spans.self_us("storage.file"), msgs),
        "core.flexcast.self_us_per_delivery": _ratio(spans.self_us("core.flexcast"), deliveries),
        "core.history.self_us_per_delivery": _ratio(spans.self_us("core.history"), deliveries),
        "core.history.ancestors_of_calls_per_delivery": _ratio(
            spans.count("History.ancestors_of"), deliveries
        ),
        "core.history.ancestors_of_us_per_call": spans.mean_us("History.ancestors_of"),
        "core.history.merge_delta_us": spans.mean_us("History.merge_delta"),
        "core.history.diff_items_per_diff": _ratio(spans.diffs[2], spans.diffs[0]),
        "core.history.empty_diff_ratio": _ratio(spans.diffs[1], spans.diffs[0]),
    }
    for kind in KINDS:
        frames, size = spans.sent.get(kind, [0, 0])
        m[f"runtime.codec.frames_per_msg.{kind}"] = _ratio(frames, msgs)
        m[f"runtime.codec.bytes_per_msg.{kind}"] = _ratio(size, msgs)
    return m


def cluster_layers(run: Any, driver: Dict[str, Any], replicas: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of a traced process-cluster run."""
    from cluster_load import diff, gauge_max

    untraced, traced = run.phases
    win_a, win_b = run.window(untraced), run.window(traced)
    msgs_a, msgs_b = win_a["completed"], win_b["completed"]
    spans = Spans([driver] + replicas)
    deliveries_b = diff(traced, "group_delivered_total")
    decisions_b = diff(traced, "smr_committed_total", leaders_only=True)
    a = untraced

    def lead(name: str) -> float:
        return diff(a, name, leaders_only=True)

    batch = a.batcher
    closes = batch.get("flush_timer", 0) + batch.get("flush_size", 0) + batch.get("flush_explicit", 0)
    # The untraced phase's kill/restart cycle (0 without a fault).
    cycle = a.cycle if a.cycle is not None and a.cycle["rejoin_s"] is not None else None
    rejoin_s = cycle["rejoin_s"] if cycle else 0.0
    ready_s = cycle["restart_ready_s"] if cycle else 0.0
    converge_s = rejoin_s - ready_s
    m = _common(spans, msgs_b, deliveries_b)
    replica_wall = sum(d["wall_s"] for d in replicas)
    replica_top = sum(d["top_s"] for d in replicas)
    replica_top_wall = sum(d["top_wall_s"] for d in replicas)
    replica_cpu = sum(d["cpu_s"] for d in replicas)
    m.update({
        "core.batching.msgs_per_batch": _ratio(batch.get("messages_batched", 0), batch.get("batches_sent", 0)),
        "core.batching.timer_flush_ratio": _ratio(batch.get("flush_timer", 0), closes),
        "workload.clients.retries_per_msg": _ratio(a.retries, msgs_a),
        "runtime.proc.frames_received_per_msg": _ratio(diff(a, "server_frames_received_total"), msgs_a),
        "smr.replica_envelopes_per_decision": _ratio(spans.sent.get("paxos", [0, 0])[0], decisions_b),
        "smr.value_frames_per_decision": _ratio(spans.value_frames, decisions_b),
        "smr.phase1_per_decision": _ratio(spans.prepares, decisions_b),
        "smr.proposed_per_committed": _ratio(diff(a, "smr_proposed_total"), diff(a, "smr_committed_total")),
        "smr.nacks": diff(a, "smr_nacks_total"),
        "smr.ballot_retries": diff(a, "smr_ballot_retries_total"),
        "smr.self_ms_per_decision": _ratio(spans.self_us("smr") / 1000.0, decisions_b),
        "smr.catchup_entries_per_s": _ratio(diff(a, "smr_catchup_entries_applied_total"), converge_s),
        "storage.file.appends_per_msg": _ratio(diff(a, "wal_append_ms_count"), msgs_a),
        "storage.file.fsyncs_per_msg": _ratio(diff(a, "wal_fsync_ms_count"), msgs_a),
        "storage.file.bytes_per_msg": _ratio(a.wal_bytes, msgs_a),
        "storage.recovery.rejoin_s": rejoin_s,
        "storage.recovery.restart_ready_s": ready_s,
        "storage.recovery.converge_s": converge_s,
        "core.flexcast.reprocess_passes_per_delivery": _ratio(
            lead("flexcast_reprocess_passes_total"), lead("group_delivered_total")
        ),
        "core.flexcast.pivot_guard_stalls": lead("flexcast_pivot_guard_stalls_total"),
        "core.flexcast.guard_escapes": lead("flexcast_guard_escapes_total"),
        "core.flexcast.ts_proposals_per_global_msg": _ratio(
            lead("flexcast_ts_proposals_sent_total"), win_a["global_completed"]
        ),
        "core.flexcast.acks_per_msg": _ratio(lead("flexcast_acks_sent_total"), msgs_a),
        "core.flexcast.notifs_per_msg": _ratio(lead("flexcast_notifs_sent_total"), msgs_a),
        "core.flexcast.queue_depth_max": gauge_max(a, "flexcast_queue_depth"),
        "core.history.vertices_max": gauge_max(a, "history_vertices"),
        "sim.network_sends_per_txn": 0.0,
        "sim.events_per_txn": 0.0,
        "sim.self_share": 0.0,
        "trace.cpu_us_per_msg": _ratio(a.cpu_s * 1e6, msgs_a),
        "trace.cpu_per_msg_ratio": _ratio(
            _ratio(traced.cpu_s, msgs_b), _ratio(a.cpu_s, msgs_a)
        ),
        "trace.uncovered_cpu_share.driver": 1.0 - _ratio(driver["top_s"], driver["cpu_s"]),
        "trace.uncovered_cpu_share.replicas": 1.0 - _ratio(replica_top, replica_cpu),
        "trace.uncovered_wall_share.driver": 1.0 - _ratio(driver["top_wall_s"], driver["wall_s"]),
        "trace.uncovered_wall_share.replicas": 1.0 - _ratio(replica_top_wall, replica_wall),
    })
    return m


def sim_layers(untraced: Dict[str, Any], traced: Dict[str, Any], dump: Dict[str, Any],
               event_count: int) -> Dict[str, float]:
    """Per-layer metrics of a traced simulator run (one process)."""
    spans = Spans([dump])
    txns = traced["completed"]
    deliveries = traced["deliveries"]
    counters = untraced["counters"]
    globals_ = untraced["completed"]  # gTPC-C global-only: every txn is global
    m = _common(spans, txns, deliveries)
    m.update({name: 0.0 for name, _ in PER_LAYER if name not in m})
    m.update({
        "core.flexcast.reprocess_passes_per_delivery": _ratio(
            counters.get("reprocess_passes", 0), untraced["deliveries"]
        ),
        "core.flexcast.pivot_guard_stalls": float(counters.get("pivot_guard_stalls", 0)),
        "core.flexcast.guard_escapes": float(counters.get("guard_escapes", 0)),
        "core.flexcast.ts_proposals_per_global_msg": _ratio(counters.get("ts_proposals_sent", 0), globals_),
        "core.flexcast.acks_per_msg": _ratio(counters.get("acks_sent", 0), untraced["completed"]),
        "core.flexcast.notifs_per_msg": _ratio(counters.get("notifs_sent", 0), untraced["completed"]),
        "core.flexcast.queue_depth_max": float(untraced["queue_depth_max"]),
        "core.history.vertices_max": float(untraced["vertices_max"]),
        "sim.network_sends_per_txn": _ratio(spans.count("Network.send"), txns),
        "sim.events_per_txn": _ratio(event_count, txns),
        "sim.self_share": _ratio(spans.self_us("sim") / 1e6, dump["wall_s"]),
        "trace.cpu_us_per_msg": _ratio(untraced["cpu_s"] * 1e6, untraced["completed"]),
        "trace.cpu_per_msg_ratio": _ratio(traced["cpu_s"], untraced["cpu_s"]),
        "trace.uncovered_cpu_share.driver": 1.0 - _ratio(dump["top_s"], dump["cpu_s"]),
        "trace.uncovered_wall_share.driver": 1.0 - _ratio(dump["top_wall_s"], dump["wall_s"]),
    })
    return m



def message_trace(dumps: Sequence[Dict[str, Any]], limit: int = 16) -> List[str]:
    """Report lines following one message's kept spans across processes:
    the msg_id seen by the most processes, in wall-clock order."""
    by_msg: Dict[str, List[Tuple[float, str, int, str, float]]] = {}
    for dump in dumps:
        for name, start_us, cpu_us, _, msg_id in dump["kept"]:
            if msg_id is not None:
                by_msg.setdefault(msg_id, []).append(
                    (start_us, dump["role"], dump["pid"], name, cpu_us)
                )
    if not by_msg:
        return []
    msg_id, spans = max(
        by_msg.items(), key=lambda kv: (len({s[2] for s in kv[1]}), len(kv[1]))
    )
    spans.sort()
    lines = [f"  spans of {msg_id} across {len({s[2] for s in spans})} processes:"]
    for start, role, pid, name, cpu in spans[:limit]:
        lines.append(
            f"    +{(start - spans[0][0]) / 1000.0:9.3f} ms  {role}/{pid}  {name}  ({cpu:.1f} us CPU)"
        )
    return lines
