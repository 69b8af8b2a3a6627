"""Span recorder for the benchmark's traced runs.

The benchmark times calls into each layer's public functions from its own
code: :func:`install` replaces those functions (on their classes, or in the
module where a function imported by name is looked up) with wrappers that
record one span per call while the recorder is enabled.  Nothing under
``src/`` changes.

Spans run on one thread (every process of the cluster is one asyncio loop,
and the simulator is synchronous), so a stack gives exact self time: a
span's duration minus the part its child spans cover.  Span durations are
thread CPU time, so a process that waits for a core mid-span (a cluster
has more processes than the machine has cores) is not charged for the
wait; the calls in ``SAMPLED`` also keep their wall-clock durations (WAL
appends and fsyncs wait on the disk), and top-level spans (those with no
span around them) add up their wall-clock durations too, so the share of
wall time no span covers can be told.  All spans are aggregated as
``[count, total_ns, self_ns]`` per span name; the first ``KEEP_SPANS`` are
also kept whole (name, monotonic wall start in microseconds, CPU
duration, parent, msg_id) so one message's spans can be followed across
layers and processes.

Replica processes load this module through the ``sitecustomize`` beside it
(see that file); the driver process imports it directly.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Whole spans kept per process (the aggregates cover every span).
KEEP_SPANS = 4000

#: Span names whose every duration is kept, for exact percentiles.
SAMPLED = ("FileWAL.append", "FileWAL.sync")

#: Layer of every span name (module names of the program).
LAYER_OF = {
    "BatchingClient.submit": "core.batching",
    "BatchingClient.flush": "core.batching",
    "BatchingClient._flush_window": "core.batching",
    "MulticastClient.on_response": "core.client",
    "encode_frame": "runtime.codec",
    "decode_frame": "runtime.codec",
    "AsyncioTransport.send": "runtime.transport",
    "ReplicaServer.handle_frame": "runtime.proc",
    "GroupReplica.on_message": "smr",
    "GroupReplica._apply": "smr",
    "MultiPaxosReplica.on_message": "smr",
    "MultiPaxosReplica.submit": "smr",
    "MultiPaxosReplica.rejoin": "smr",
    "FileWAL.append": "storage.file",
    "FileWAL.sync": "storage.file",
    "FlexCastGroup.on_client_request": "core.flexcast",
    "FlexCastGroup.on_envelope": "core.flexcast",
    "History.merge_delta": "core.history",
    "HistoryDiffTracker.diff_for": "core.history",
    "History.ancestors_of": "core.history",
    "Network.send": "sim",
}

#: Wire kind of every envelope class the codec frames.
FRAME_KIND = {
    "ClientRequest": "client",
    "FlexCastBatch": "client",
    "NodeHello": "client",
    "Prepare": "paxos",
    "Promise": "paxos",
    "Accept": "paxos",
    "Accepted": "paxos",
    "Nack": "paxos",
    "Commit": "paxos",
    "ClientCommand": "paxos",
    "Heartbeat": "paxos",
    "CatchupRequest": "paxos",
    "CatchupReply": "paxos",
    "FlexCastMsg": "flexcast",
    "FlexCastAck": "flexcast",
    "FlexCastNotif": "flexcast",
    "FlexCastTsPropose": "flexcast",
    "HistorySnapshotFrame": "flexcast",
    "ClientResponse": "response",
}

#: Paxos frames that carry the decided value.
VALUE_FRAMES = ("Accept", "Accepted", "Commit")


def _msg_id(args: Tuple[Any, ...]) -> Optional[str]:
    """The msg_id a call is about, dug out of its arguments (bounded depth)."""
    for arg in args:
        obj = arg
        for _ in range(4):
            mid = getattr(obj, "msg_id", None)
            if isinstance(mid, str):
                return mid
            nxt = None
            for attr in ("message", "envelope", "value", "payload"):
                nxt = getattr(obj, attr, None)
                if nxt is not None:
                    break
            if nxt is None:
                break
            obj = nxt
    return None


class Recorder:
    """Per-process span aggregates, frame counts and phase clocks."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.enabled = False
        self.stats: Dict[str, List[int]] = {name: [0, 0, 0] for name in LAYER_OF}
        self.samples: Dict[str, array] = {name: array("d") for name in SAMPLED}
        self.kept: List[Tuple[str, float, float, Optional[str], Optional[str]]] = []
        self.stack: List[List[Any]] = []
        self.top_ns = 0
        self.top_wall_ns = 0
        #: Encoded frames: kind -> [frames, bytes].
        self.sent: Dict[str, List[int]] = {}
        self.value_frames = 0
        self.prepares = 0
        #: History diffs built (``diff_for`` calls), empty ones, and items.
        self.diffs = [0, 0, 0]
        self.send_t0: Dict[int, int] = {}
        self.send_wait_ms = array("d")
        self.transports: List[Any] = []
        self.event_loops: List[Any] = []
        self._failed_base = 0
        self.wall_ns = 0
        self.cpu_s = 0.0
        self._t_enable = 0
        self._cpu_enable = 0.0

    # ---------------------------------------------------------------- phases
    def enable(self) -> None:
        if self.enabled:
            return
        self._failed_base = sum(t.failed_sends for t in self.transports)
        self._t_enable = time.perf_counter_ns()
        self._cpu_enable = time.process_time()
        self.enabled = True

    def disable(self) -> None:
        if not self.enabled:
            return
        self.enabled = False
        self.wall_ns += time.perf_counter_ns() - self._t_enable
        self.cpu_s += time.process_time() - self._cpu_enable

    def failed_sends(self) -> int:
        return sum(t.failed_sends for t in self.transports) - self._failed_base

    # ------------------------------------------------------------------ spans
    def wrap(self, func: Callable, name: str) -> Callable:
        stats = self.stats[name]
        samples = self.samples.get(name)
        stack = self.stack
        cpu = time.thread_time_ns
        wall = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            frame = [0, name]
            top = not stack
            stack.append(frame)
            keep = len(self.kept) < KEEP_SPANS
            wall0 = wall() if samples is not None or keep or top else 0
            started = cpu()
            try:
                return func(*args, **kwargs)
            finally:
                duration = cpu() - started
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_ns += duration
                if samples is not None or top:
                    elapsed = wall() - wall0
                    if samples is not None:
                        samples.append(elapsed / 1000.0)
                    if top:
                        self.top_wall_ns += elapsed
                if keep:
                    self.kept.append((
                        name,
                        wall0 / 1000.0,
                        duration / 1000.0,
                        stack[-1][1] if stack else None,
                        _msg_id(args),
                    ))

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # ----------------------------------------------------------------- frames
    def count_frame(self, envelope: Any, size: int) -> None:
        cls = type(envelope).__name__
        entry = self.sent.setdefault(FRAME_KIND.get(cls, "other"), [0, 0])
        entry[0] += 1
        entry[1] += size
        if cls in VALUE_FRAMES:
            self.value_frames += 1
        elif cls == "Prepare":
            self.prepares += 1

    # ------------------------------------------------------------------- dump
    def to_json(self) -> Dict[str, Any]:
        return {
            "role": self.role,
            "pid": os.getpid(),
            "wall_s": self.wall_ns / 1e9,
            "cpu_s": self.cpu_s,
            "top_s": self.top_ns / 1e9,
            "top_wall_s": self.top_wall_ns / 1e9,
            "stats": self.stats,
            "samples": {k: list(v) for k, v in self.samples.items()},
            "kept": self.kept,
            "sent": self.sent,
            "value_frames": self.value_frames,
            "diffs": self.diffs,
            "prepares": self.prepares,
            "send_wait_ms": list(self.send_wait_ms),
            "failed_sends": self.failed_sends(),
        }


def _patch(owner: Any, attr: str, rec: Recorder, name: str) -> None:
    current = getattr(owner, attr)
    if getattr(current, "__wrapped__", None) is not None:
        return  # already installed
    setattr(owner, attr, rec.wrap(current, name))


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark traces (idempotent)."""
    from repro.core import batching, client, flexcast, history
    from repro.runtime import codec, transport
    from repro.sim import events, network
    from repro.smr import multipaxos, replica
    from repro.storage import file as storage_file

    _patch(batching.BatchingClient, "submit", rec, "BatchingClient.submit")
    _patch(batching.BatchingClient, "flush", rec, "BatchingClient.flush")
    _patch(batching.BatchingClient, "_flush_window", rec, "BatchingClient._flush_window")
    _patch(client.MulticastClient, "on_response", rec, "MulticastClient.on_response")
    _patch(transport.AsyncioTransport, "send", rec, "AsyncioTransport.send")
    _patch(replica.GroupReplica, "on_message", rec, "GroupReplica.on_message")
    _patch(replica.GroupReplica, "_apply", rec, "GroupReplica._apply")
    _patch(multipaxos.MultiPaxosReplica, "on_message", rec, "MultiPaxosReplica.on_message")
    _patch(multipaxos.MultiPaxosReplica, "submit", rec, "MultiPaxosReplica.submit")
    _patch(multipaxos.MultiPaxosReplica, "rejoin", rec, "MultiPaxosReplica.rejoin")
    _patch(storage_file.FileWAL, "append", rec, "FileWAL.append")
    _patch(storage_file.FileWAL, "sync", rec, "FileWAL.sync")
    _patch(flexcast.FlexCastGroup, "on_client_request", rec, "FlexCastGroup.on_client_request")
    _patch(flexcast.FlexCastGroup, "on_envelope", rec, "FlexCastGroup.on_envelope")
    _patch(history.History, "merge_delta", rec, "History.merge_delta")
    tracker = history.HistoryDiffTracker
    if getattr(tracker.diff_for, "__wrapped__", None) is None:
        diff_for = rec.wrap(tracker.diff_for, "HistoryDiffTracker.diff_for")

        def diff_counted(self, *args, _diff_for=diff_for, **kwargs):
            delta = _diff_for(self, *args, **kwargs)
            if rec.enabled:
                items = len(delta)
                rec.diffs[0] += 1
                rec.diffs[1] += items == 0
                rec.diffs[2] += items
            return delta

        diff_counted.__wrapped__ = diff_for  # type: ignore[attr-defined]
        tracker.diff_for = diff_counted
    _patch(history.History, "ancestors_of", rec, "History.ancestors_of")
    _patch(network.Network, "send", rec, "Network.send")
    loop_init = events.EventLoop.__init__
    if getattr(loop_init, "__wrapped__", None) is None:

        def loop_tracked(self, *args, _init=loop_init, **kwargs):
            _init(self, *args, **kwargs)
            if rec.enabled:
                rec.event_loops.append(self)

        loop_tracked.__wrapped__ = loop_init  # type: ignore[attr-defined]
        events.EventLoop.__init__ = loop_tracked

    # A replica process runs ``python -m repro.runtime.proc``: its server
    # class lives in ``__main__``, not in the imported module.
    main = sys.modules.get("__main__")
    server_cls = getattr(main, "ReplicaServer", None)
    if server_cls is None:
        from repro.runtime import proc

        server_cls = proc.ReplicaServer
    _patch(server_cls, "handle_frame", rec, "ReplicaServer.handle_frame")

    # The codec functions are imported by name: wrap them where they are
    # looked up (``transport`` sends through its own ``encode_frame``;
    # ``read_frame`` reaches ``decode_frame`` through the codec module).
    if getattr(transport.encode_frame, "__wrapped__", None) is None:
        encode = rec.wrap(transport.encode_frame, "encode_frame")

        def encode_counted(sender, envelope, _encode=encode):
            frame = _encode(sender, envelope)
            if rec.enabled:
                rec.count_frame(envelope, len(frame))
                rec.send_t0[id(frame)] = time.perf_counter_ns()
            return frame

        encode_counted.__wrapped__ = encode  # type: ignore[attr-defined]
        transport.encode_frame = encode_counted
    if getattr(codec.decode_frame, "__wrapped__", None) is None:
        codec.decode_frame = rec.wrap(codec.decode_frame, "decode_frame")

    # Send wait: from the encode inside ``send()`` to the drained write.
    cls = transport.AsyncioTransport
    if getattr(cls._deliver_pooled, "__wrapped__", None) is None:
        deliver = cls._deliver_pooled

        async def deliver_timed(self, dst, frame, _deliver=deliver):
            try:
                await _deliver(self, dst, frame)
            finally:
                started = rec.send_t0.pop(id(frame), None)
                if started is not None and rec.enabled:
                    rec.send_wait_ms.append((time.perf_counter_ns() - started) / 1e6)

        deliver_timed.__wrapped__ = deliver  # type: ignore[attr-defined]
        cls._deliver_pooled = deliver_timed


# ------------------------------------------------------------ child processes
_CHILD: Optional[Recorder] = None


def _child_start(*_: Any) -> None:
    from repro.runtime.transport import AsyncioTransport

    assert _CHILD is not None
    install(_CHILD)
    _rebind_apply()
    _CHILD.transports = _live(AsyncioTransport)
    _CHILD.enable()


def _child_stop(*_: Any) -> None:
    assert _CHILD is not None
    _CHILD.disable()


def _live(cls: type) -> List[Any]:
    import gc

    return [o for o in gc.get_objects() if isinstance(o, cls)]


def _rebind_apply() -> None:
    """A ``MultiPaxosReplica`` keeps the ``GroupReplica._apply`` it was
    built with as a bound method: re-bind it so it reaches the wrapper."""
    from repro.smr.multipaxos import MultiPaxosReplica
    from repro.smr.replica import GroupReplica

    for smr in _live(MultiPaxosReplica):
        owner = getattr(smr._apply, "__self__", None)
        if isinstance(owner, GroupReplica):
            smr._apply = owner._apply


def _child_dump(directory: str) -> None:
    assert _CHILD is not None
    _CHILD.disable()
    path = os.path.join(directory, f"spans-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_CHILD.to_json(), handle)


def child_bootstrap(directory: str) -> None:
    """Arm a replica process: SIGUSR1 starts tracing, SIGUSR2 stops it,
    and the spans are written to ``directory`` when the process exits."""
    import signal

    global _CHILD
    _CHILD = Recorder(role="replica")
    signal.signal(signal.SIGUSR1, _child_start)
    signal.signal(signal.SIGUSR2, _child_stop)
    atexit.register(_child_dump, directory)
