"""Process-cluster workloads: one driver process against a ProcessCluster.

The driver is one asyncio loop.  Its logical clients share one pooled
transport and one response port; the ingress is the program's own
``BatchingClient`` (batch 128, 10 ms window) plus a GC flush multicast every
500 ms, as in the soak harness.  Destinations and 64-byte payloads come from
a ``random.Random(seed)``, so a seed fixes the sequence of messages.

A run is: set up the cluster ``SETUPS`` times (the last one is kept), warm
up, then one measured phase (two for a traced run: untraced, then traced),
then drain and check.  ``/metrics`` is scraped only at phase boundaries.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import shutil
import signal
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.batching import BatchingClient
from repro.core.message import ClientRequest, ClientResponse, Message, NodeHello
from repro.runtime import codec
from repro.runtime.proc import ProcessCluster
from repro.runtime.transport import AsyncioTransport
from repro.smr.replica import replica_node
from repro.workload.clients import BoundedResubmitter

import stats

CLIENTS = 200
INFLIGHT = 4
PAYLOAD_BYTES = 64
MAX_BATCH = 128
WINDOW_MS = 10.0
FLUSH_EVERY_S = 0.5
SETUPS = 3
WARMUP_S = 2.0
#: The closed loop runs a fixed amount of work per second of ``--seconds``
#: (about its rate on a 2-core x86 machine), so that memory and the state
#: replicas accumulate do not depend on how fast a run happened to go.
CLOSED_LOOP_MSG_PER_S = 8000
#: Resubmit timeout: far above queueing latency, so it fires only on loss.
RESUBMIT_MS = 30_000.0
RESUBMIT_RETRIES = 6
#: Rejoin: the victim stays down this long before ``restart_replica``.
DOWN_S = 1.5
#: Latency and throughput are medians over windows of this length.
WINDOW_S = 1.0
VICTIM = (0, 2)
#: Give up on a stalled drain / a rejoin / convergence after this long.
DRAIN_STALL_S = 30.0
REJOIN_TIMEOUT_S = 60.0
CONVERGE_TIMEOUT_S = 60.0
#: Open loop: the backlog has "grown" when the mean number outstanding over
#: the last quarter of a phase exceeds twice that of the first quarter plus
#: this many seconds of offered load.
BACKLOG_SLACK_S = 0.25

GLOBAL_SHAPES = ((0, 1), (0, 2), (1, 2), (0, 1, 2))


def _single_group(rng: random.Random) -> Sequence[int]:
    return (rng.randrange(2),)


def _all_global(rng: random.Random) -> Sequence[int]:
    return GLOBAL_SHAPES[rng.randrange(len(GLOBAL_SHAPES))]


def _fifth_global(rng: random.Random) -> Sequence[int]:
    if rng.random() < 0.2:
        return (0, 1)
    return (rng.randrange(2),)


@dataclass(frozen=True)
class ClusterWorkload:
    name: str
    groups: int
    replication: int
    pick: Callable[[random.Random], Sequence[int]]
    #: Offered load in msg/s for an open loop; ``None`` for the closed loop
    #: of ``CLIENTS`` x ``INFLIGHT``.
    rate: Optional[float] = None
    fault: bool = False


#: Open-loop rates, each a fixed share of the closed-loop capacity that
#: ``perfbench/capacity.py`` measured for the same shape (see BENCHMARK.json).
GLOBAL_1R_RATE = 375.0
REJOIN_RATE = 350.0

WORKLOADS = {
    "local-smr": ClusterWorkload("local-smr", 2, 3, _single_group),
    "global-1r": ClusterWorkload("global-1r", 3, 1, _all_global, rate=GLOBAL_1R_RATE),
    "rejoin": ClusterWorkload("rejoin", 2, 3, _fifth_global, rate=REJOIN_RATE, fault=True),
}


@dataclass
class Phase:
    """One measured window and everything sampled at its boundaries."""

    traced: bool
    t0: float = 0.0
    t1: float = 0.0
    before: Dict[Tuple, float] = field(default_factory=dict)
    after: Dict[Tuple, float] = field(default_factory=dict)
    cpu_s: float = 0.0
    wal_bytes: int = 0
    batcher: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Rejoin: the phase's kill/restart cycle (times in driver ms).
    cycle: Optional[Dict[str, Optional[float]]] = None
    backlog_grew: bool = False


def parse_prometheus(text: str, coords: Tuple[int, int, int]) -> Dict[Tuple, float]:
    """``{(name, labels, group, replica, pid): value}`` for one scrape."""
    out: Dict[Tuple, float] = {}
    for line in text.splitlines():
        if not line or line[0] == "#":
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        out[(name, labels) + coords] = float(value)
    return out


def diff(phase: Phase, name: str, leaders_only: bool = False) -> float:
    """Counter growth over a phase, summed over replica incarnations.

    A replica restarted inside the phase (new pid) starts from zero; a
    replica killed inside it contributes nothing.
    """
    total = 0.0
    for key, value in phase.after.items():
        if key[0] != name or (leaders_only and key[3] != 0):
            continue
        total += value - phase.before.get(key, 0.0)
    return total


def gauge_max(phase: Phase, name: str) -> float:
    values = [v for k, v in list(phase.before.items()) + list(phase.after.items()) if k[0] == name]
    return max(values) if values else 0.0


def _proc_cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


async def http_get(host: str, port: int, path: str, timeout: float = 2.0) -> bytes:
    """Body of one HTTP/1.0 GET against a replica's admin port."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode("ascii"))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout)
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    if b" 200 " not in head.split(b"\r\n", 1)[0] + b" ":
        raise OSError(f"GET {path}: {head[:40]!r}")
    return body


def _dir_bytes(root: str) -> int:
    total = 0
    for base, _, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


class ClusterRun:
    """One run of one process-cluster workload."""

    def __init__(
        self,
        workload: ClusterWorkload,
        seed: int,
        seconds: float,
        workdir: str,
        recorder: Any = None,
        closed_loop: bool = False,
    ) -> None:
        self.wl = workload
        self.seconds = seconds
        self.workdir = workdir
        #: Driver span recorder (traced runs only).
        self.recorder = recorder
        self.closed = closed_loop or workload.rate is None
        self.rng = random.Random(seed)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.cluster: Optional[ProcessCluster] = None
        self.transport: Optional[AsyncioTransport] = None
        self.batcher: Optional[BatchingClient] = None
        self.resubmitter: Optional[BoundedResubmitter] = None
        self.port = 0
        self.stopping = False
        #: msg_id -> (client index, start ms: submit time, or due time in
        #: an open loop).
        self.owner: Dict[str, Tuple[int, float]] = {}
        self.issued_by_group: Dict[int, set] = {g: set() for g in range(workload.groups)}
        self.flush_ids: set = set()
        self.starts = array("d")
        self.ends = array("d")
        self.firsts = array("d")
        #: Destination count of each completed message.
        self.widths = array("b")
        self.lateness: List[Tuple[float, float]] = []
        self.backlog: List[Tuple[float, int]] = []
        self.setup_s: List[float] = []
        self.phases: List[Phase] = []
        self.violations: List[str] = []
        self.rejoin_failures = 0
        self.rss_mb = 0.0
        self.incomplete_starts: List[float] = []
        self._clusters: List[Tuple[ProcessCluster, AsyncioTransport]] = []
        self._tasks: List[asyncio.Task] = []

    # ----------------------------------------------------------------- clock
    def now_ms(self) -> float:
        assert self.loop is not None
        return self.loop.time() * 1000.0

    def _schedule(self, delay_ms: float, callback: Callable[[], None]) -> Any:
        assert self.loop is not None
        return self.loop.call_later(delay_ms / 1000.0, callback)

    # ---------------------------------------------------------------- set-up
    async def _response_plane(self) -> asyncio.AbstractServer:
        async def handle(reader, writer):
            try:
                while True:
                    try:
                        _, envelope = await codec.read_frame(reader)
                    except (asyncio.IncompleteReadError, codec.CodecError, ConnectionError):
                        break
                    if isinstance(envelope, ClientResponse):
                        self._on_response(envelope)
            finally:
                writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        self.port = server.sockets[0].getsockname()[1]
        return server

    async def _setup_once(self, index: int) -> Tuple[ProcessCluster, AsyncioTransport]:
        """Start the cluster and announce every logical client; timed."""
        cluster = ProcessCluster(
            groups=self.wl.groups,
            replication=self.wl.replication,
            storage_root=os.path.join(self.workdir, f"cluster-{index}"),
        )
        transport = AsyncioTransport(node_id="pb-driver", addresses={}, pool=True)
        started = time.perf_counter()
        try:
            await cluster.start(ready_timeout=60.0)
            for node_id, address in cluster.spec.address_book().items():
                transport.register_address(node_id, *address)
            names = [f"pb-client-{i}" for i in range(CLIENTS)] + ["pb-flush"]
            for gid, rindex in cluster.replica_coords():
                rid = replica_node(gid, rindex)
                for name in names:
                    transport.send(rid, NodeHello(node_id=name, host="127.0.0.1", port=self.port))
            expected = len(names) * len(cluster.replica_coords())
            deadline = time.perf_counter() + 30.0
            while transport.sent_frames < expected:
                if time.perf_counter() > deadline:
                    raise TimeoutError("client announcements were not written")
                await asyncio.sleep(0.001)
        except BaseException:
            await self._teardown(cluster, transport)
            raise
        self.setup_s.append(time.perf_counter() - started)
        if self.recorder is not None and transport not in self.recorder.transports:
            self.recorder.transports.append(transport)
        return cluster, transport

    async def _teardown(self, cluster: ProcessCluster, transport: AsyncioTransport) -> None:
        await transport.aclose()
        await cluster.stop()
        shutil.rmtree(cluster.spec.storage_root, ignore_errors=True)

    # --------------------------------------------------------------- issuing
    def _issue(self, client: int, start_ms: Optional[float] = None) -> None:
        assert self.batcher is not None and self.resubmitter is not None
        rng = self.rng
        message = Message.create(
            destinations=self.wl.pick(rng),
            sender=f"pb-client-{client}",
            payload=f"{rng.getrandbits(256):064x}",
            payload_bytes=PAYLOAD_BYTES,
        )
        self.owner[message.msg_id] = (client, self.now_ms() if start_ms is None else start_ms)
        for gid in message.dst:
            self.issued_by_group[gid].add(message.msg_id)
        self.batcher.submit(message)
        self.resubmitter.track(message.msg_id)

    def _on_response(self, response: ClientResponse) -> None:
        assert self.batcher is not None
        call = self.batcher.on_response(response.group, response.msg_id)
        if call is None:
            return
        info = self.owner.pop(call.message.msg_id, None)
        if len(self.batcher.completed) > 10_000:
            self.batcher.completed.clear()
        if len(self.batcher.batch_log) > 10_000:
            self.batcher.batch_log.clear()
        if info is None:
            return
        client, start = info
        self.starts.append(start)
        self.ends.append(self.now_ms())
        self.firsts.append(min(call.responses.values()))
        self.widths.append(len(call.message.dst))
        if self.closed and not self.stopping:
            self._issue(client)

    def _resend(self, msg_id: str) -> None:
        assert self.batcher is not None
        call = self.batcher.inflight.get(msg_id)
        if call is not None:
            # Same re-dispatch as the soak harness: through the batching
            # window, idempotent end to end.
            self.batcher._dispatch(call.message)

    async def _open_loop(self, rate: float) -> None:
        """Send at fixed due times; a late tick sends every message now due."""
        assert self.loop is not None
        period_ms = 1000.0 / rate
        origin = self.now_ms()
        sent = 0
        while not self.stopping:
            now = self.now_ms()
            due = origin + sent * period_ms
            while due <= now:
                self._issue(sent % CLIENTS, start_ms=due)
                self.lateness.append((due, now - due))
                sent += 1
                due = origin + sent * period_ms
            self.backlog.append((now, len(self.owner)))
            await asyncio.sleep(max(0.0, (due - self.now_ms()) / 1000.0))

    async def _flush_loop(self) -> None:
        assert self.transport is not None and self.cluster is not None
        groups = list(range(self.wl.groups))
        while not self.stopping:
            await asyncio.sleep(FLUSH_EVERY_S)
            message = Message.create(destinations=groups, sender="pb-flush", is_flush=True)
            self.flush_ids.add(message.msg_id)
            for entry in self.cluster.protocol.entry_groups(message):
                self.transport.send(entry, ClientRequest(message=message))

    # --------------------------------------------------------------- phases
    async def _scrape_all(self) -> Dict[Tuple, float]:
        assert self.cluster is not None
        out: Dict[Tuple, float] = {}
        for gid in range(self.wl.groups):
            for index in self.cluster.live_replicas(gid):
                pid = self.cluster.processes[(gid, index)].pid
                text = await self.cluster.scrape(gid, index)
                out.update(parse_prometheus(text, (gid, index, pid)))
        return out

    def _pids(self) -> List[int]:
        assert self.cluster is not None
        return [p.pid for p in self.cluster.processes.values() if p.poll() is None]

    def _signal_children(self, signum: int) -> None:
        for pid in self._pids():
            os.kill(pid, signum)

    async def _measure(self, traced: bool) -> Phase:
        assert self.cluster is not None and self.batcher is not None
        phase = Phase(traced=traced)
        phase.before = await self._scrape_all()
        wal0 = _dir_bytes(self.cluster.spec.storage_root)
        batch0 = dict(self.batcher.stats)
        retries0 = self.resubmitter.retries if self.resubmitter else 0
        cpu0 = {pid: _proc_cpu_s(pid) for pid in self._pids()}
        driver0 = time.process_time()
        if traced:
            self._signal_children(signal.SIGUSR1)
            self.recorder.enable()
        phase.t0 = self.now_ms()
        if self.wl.fault:
            await self._fault_cycle(phase)
            await asyncio.sleep(max(0.0, phase.t0 / 1000.0 + self.seconds - self.now_ms() / 1000.0))
        elif self.closed:
            await self._complete(self.seconds * CLOSED_LOOP_MSG_PER_S)
        else:
            await asyncio.sleep(self.seconds)
        phase.t1 = self.now_ms()
        if traced:
            self.recorder.disable()
            self._signal_children(signal.SIGUSR2)
        cpu1 = {pid: _proc_cpu_s(pid) for pid in self._pids()}
        phase.cpu_s = time.process_time() - driver0 + sum(
            cpu1[pid] - cpu0.get(pid, 0.0) for pid in cpu1
        )
        phase.after = await self._scrape_all()
        phase.wal_bytes = _dir_bytes(self.cluster.spec.storage_root) - wal0
        phase.batcher = {k: v - batch0.get(k, 0) for k, v in self.batcher.stats.items()}
        phase.retries = (self.resubmitter.retries if self.resubmitter else 0) - retries0
        if not self.closed:
            phase.backlog_grew = self._backlog_grew(phase)
        self.phases.append(phase)
        return phase

    async def _complete(self, count: float) -> None:
        """Wait until ``count`` more messages have completed."""
        target = len(self.ends) + count
        while len(self.ends) < target:
            await asyncio.sleep(0.005)

    def _backlog_grew(self, phase: Phase) -> bool:
        # Under a fault, judge only the part of the phase after the victim
        # caught up: the fault itself raises the backlog for a while.
        start = phase.cycle["end_ms"] if phase.cycle is not None else phase.t0
        span = phase.t1 - start
        first = [n for t, n in self.backlog if start <= t < start + span / 4]
        last = [n for t, n in self.backlog if phase.t1 - span / 4 <= t < phase.t1]
        if not first or not last:
            return False
        slack = (self.wl.rate or 0.0) * BACKLOG_SLACK_S
        return statistics.fmean(last) > 2 * statistics.fmean(first) + slack

    async def _ready_doc(self, gid: int, index: int) -> Dict[str, Any]:
        assert self.cluster is not None
        host, port = self.cluster.replica_address(gid, index)
        return json.loads(await http_get(host, port, "/ready"))

    async def _first_ready(self) -> float:
        gid, index = VICTIM
        while True:
            try:
                await self._ready_doc(gid, index)
                return self.now_ms()
            except (OSError, ValueError, asyncio.TimeoutError):
                await asyncio.sleep(0.01)

    async def _fault_cycle(self, phase: Phase) -> None:
        """Kill the victim, restart it ``DOWN_S`` later, and wait until its
        ``/ready.applied`` reaches the leader's ``applied`` sampled at the
        restart call.  Every step (also a failed or timed-out one) is
        written to ``phase.events`` when it happens."""
        assert self.cluster is not None
        gid, index = VICTIM
        cycle: Dict[str, Optional[float]] = {
            "kill_ms": None, "rejoin_s": None, "restart_ready_s": None, "end_ms": None,
        }
        phase.cycle = cycle

        def event(name: str, **extra: Any) -> None:
            phase.events.append(
                {"event": name, "t_s": (self.now_ms() - phase.t0) / 1000.0, **extra}
            )

        try:
            cycle["kill_ms"] = self.now_ms()
            await self.cluster.kill_replica(gid, index)
            event("kill", replica=[gid, index])
            await asyncio.sleep(DOWN_S)
            target = (await self._ready_doc(gid, 0))["applied"]
            restart_at = self.now_ms()
            event("restart", replica=[gid, index], leader_applied=target)
            first_ready = asyncio.ensure_future(self._first_ready())
            try:
                await self.cluster.restart_replica(gid, index, ready_timeout=REJOIN_TIMEOUT_S)
                ready_at = await asyncio.wait_for(first_ready, 5.0)
            finally:
                first_ready.cancel()
            cycle["restart_ready_s"] = (ready_at - restart_at) / 1000.0
            event("ready", after_restart_s=cycle["restart_ready_s"])
            if phase.traced:
                os.kill(self.cluster.processes[(gid, index)].pid, signal.SIGUSR1)
            deadline = restart_at + REJOIN_TIMEOUT_S * 1000.0
            while True:
                applied = (await self._ready_doc(gid, index))["applied"]
                if applied >= target:
                    break
                if self.now_ms() > deadline:
                    event("caught_up_timeout", applied=applied, target=target)
                    self.rejoin_failures += 1
                    return
                await asyncio.sleep(0.01)
            cycle["rejoin_s"] = (self.now_ms() - restart_at) / 1000.0
            event("caught_up", after_restart_s=cycle["rejoin_s"], applied=applied)
        except Exception as exc:  # noqa: BLE001 - every failed step is reported
            event("error", error=repr(exc))
            self.rejoin_failures += 1
        finally:
            cycle["end_ms"] = self.now_ms()

    # ---------------------------------------------------------------- drain
    async def _drain(self) -> float:
        assert self.batcher is not None
        self.stopping = True
        self.batcher.flush()
        progress = (len(self.owner), time.perf_counter())
        while self.owner:
            await asyncio.sleep(0.05)
            if len(self.owner) < progress[0]:
                progress = (len(self.owner), time.perf_counter())
            elif time.perf_counter() - progress[1] > DRAIN_STALL_S:
                break
        return self.now_ms()

    async def _check(self) -> None:
        assert self.cluster is not None
        if self.owner:
            self.violations.append(f"{len(self.owner)} messages never completed")
        if self.resubmitter is not None and self.resubmitter.exhausted:
            self.violations.append(f"{len(self.resubmitter.exhausted)} resubmits exhausted")
        all_ids = set().union(*self.issued_by_group.values())
        for gid in range(self.wl.groups):
            try:
                await self.cluster.await_group_convergence(gid, timeout=CONVERGE_TIMEOUT_S)
            except TimeoutError as exc:
                self.violations.append(f"group {gid}: replicas disagree: {exc}"[:300])
                continue
            live = self.cluster.live_replicas(gid)
            sequence = await self.cluster.delivered_sequence(gid, live[0])
            ids = [mid for mid in sequence if mid not in self.flush_ids]
            unique = set(ids)
            if len(unique) != len(ids):
                self.violations.append(f"group {gid}: {len(ids) - len(unique)} duplicate deliveries")
            missing = self.issued_by_group[gid] - unique - set(self.owner)
            if missing:
                self.violations.append(f"group {gid}: {len(missing)} completed messages not delivered")
            unknown = unique - all_ids
            if unknown:
                self.violations.append(f"group {gid}: {len(unknown)} deliveries never issued")

    # ------------------------------------------------------------------ run
    async def run(self) -> "ClusterRun":
        self.loop = asyncio.get_running_loop()
        os.makedirs(self.workdir, exist_ok=True)
        server = await self._response_plane()
        try:
            for index in range(SETUPS):
                cluster, transport = await self._setup_once(index)
                self._clusters.append((cluster, transport))
                if index < SETUPS - 1:
                    await self._teardown(cluster, transport)
                    self._clusters.pop()
            self.cluster, self.transport = cluster, transport
            await self._drive()
        finally:
            self.stopping = True
            for task in self._tasks:
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)
            if self.cluster is not None:
                self.rss_mb = sum(_proc_hwm_kb(pid) for pid in self._pids()) / 1024.0
            for cluster, transport in self._clusters:
                await self._teardown(cluster, transport)
            server.close()
            await server.wait_closed()
        return self

    async def _drive(self) -> None:
        assert self.cluster is not None and self.transport is not None
        transport = self.transport
        self.batcher = BatchingClient(
            client_id="pb-ingress",
            protocol=self.cluster.protocol,
            send_request=lambda group, request: transport.send(group, request),
            clock=self.now_ms,
            max_batch=MAX_BATCH,
            max_delay_ms=WINDOW_MS,
            schedule=self._schedule,
        )
        self.resubmitter = BoundedResubmitter(
            resend=self._resend,
            is_settled=lambda msg_id: msg_id not in self.owner,
            schedule=self._schedule,
            timeout_ms=RESUBMIT_MS,
            max_retries=RESUBMIT_RETRIES,
        )
        self._tasks.append(asyncio.ensure_future(self._flush_loop()))
        if self.closed:
            for client in range(CLIENTS):
                for _ in range(INFLIGHT):
                    self._issue(client)
        else:
            self._tasks.append(asyncio.ensure_future(self._open_loop(self.wl.rate)))
        if self.closed:
            await self._complete(WARMUP_S * CLOSED_LOOP_MSG_PER_S)
        else:
            await asyncio.sleep(WARMUP_S)
        if self.recorder is not None:
            # A traced run splits ``--seconds`` between an untraced and a
            # traced phase of the same cluster.
            self.seconds /= 2
            await self._measure(traced=False)
            await self._measure(traced=True)
        else:
            await self._measure(traced=False)
        verdict_ms = await self._drain()
        # Messages still outstanding count as failed, with their age at the
        # verdict as a lower bound of their latency.
        for _, start in self.owner.values():
            self.starts.append(start)
            self.ends.append(verdict_ms)
            self.firsts.append(verdict_ms)
            self.widths.append(0)
        self.incomplete_starts = [start for _, start in self.owner.values()]
        await self._check()

    # -------------------------------------------------------------- results
    def windows(self, phase: Phase) -> List[Tuple[float, float]]:
        """The ``WINDOW_S`` windows a phase's metrics are medians over."""
        count = max(1, int((phase.t1 - phase.t0) / (WINDOW_S * 1000.0)))
        step = (phase.t1 - phase.t0) / count
        return [(phase.t0 + i * step, phase.t0 + (i + 1) * step) for i in range(count)]

    def window(self, phase: Phase) -> Dict[str, Any]:
        """A phase's metrics: medians over its windows, plus whole-phase
        latency summaries and failure counts for the report."""
        order = sorted(range(len(self.starts)), key=self.starts.__getitem__)
        starts = [self.starts[i] for i in order]
        ends_sorted = sorted(e for e, w in zip(self.ends, self.widths) if w)

        def between(a: float, b: float) -> List[int]:
            return order[bisect.bisect_left(starts, a):bisect.bisect_left(starts, b)]

        def latencies(idx: List[int], base: array) -> List[float]:
            return [base[i] - self.starts[i] for i in idx]

        per = []
        for a, b in self.windows(phase):
            idx = between(a, b)
            if not idx:
                continue
            done = bisect.bisect_left(ends_sorted, b) - bisect.bisect_left(ends_sorted, a)
            delivery = sorted(latencies(idx, self.ends))
            first = sorted(latencies(idx, self.firsts))
            per.append((
                done / ((b - a) / 1000.0),
                stats.quantile(delivery, 50.0),
                stats.quantile(delivery, 99.0),
                stats.quantile(first, 50.0),
            ))
        inside = between(phase.t0, phase.t1)
        completed = [
            i for i in range(len(self.ends))
            if self.widths[i] and phase.t0 <= self.ends[i] < phase.t1
        ]
        out: Dict[str, Any] = {
            "windows": len(per),
            "throughput_msg_s": statistics.median(p[0] for p in per),
            "delivery_p50_ms": statistics.median(p[1] for p in per),
            "delivery_p99_ms": statistics.median(p[2] for p in per),
            "first_response_p50_ms": statistics.median(p[3] for p in per),
            "attempted": len(inside),
            "completed": len(completed),
            "global_completed": sum(1 for i in completed if self.widths[i] > 1),
            "failed": sum(1 for s in self.incomplete_starts if phase.t0 <= s < phase.t1),
            "delivery": stats.summarize(latencies(inside, self.ends)),
        }
        if not self.closed:
            late = [lag for due, lag in self.lateness if phase.t0 <= due < phase.t1]
            out["generator_lateness_ms"] = stats.summarize(late)
            out["backlog_grew"] = phase.backlog_grew
        if phase.cycle is not None and phase.cycle["kill_ms"] is not None:
            # Messages due from the kill until the victim caught up.
            faulted = between(phase.cycle["kill_ms"], phase.cycle["end_ms"])
            out["fault_delivery"] = stats.summarize(latencies(faulted, self.ends))
        return out
