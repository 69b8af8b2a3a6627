"""Deterministic fault profiles.

A profile decorates a base workload scenario with fault injection and sets
the matching oracle expectations:

* ``none`` — schedule/jitter exploration only (baseline);
* ``dup`` — a seeded fraction of FlexCast protocol envelopes is duplicated
  through ``Network.set_drop_filter`` (idempotence must absorb them; full
  delivery is still expected);
* ``loss`` — a seeded fraction of protocol envelopes is dropped.  FlexCast
  assumes reliable channels, so liveness is forfeit by design; the oracle
  switches to safety-only mode (everything that *was* delivered must still
  satisfy integrity/prefix/acyclic order and replay consistency);
* ``crash`` — the run uses a multi-Paxos replicated group
  (:class:`repro.smr.replica.ReplicatedGroup`) and crashes a seeded victim
  replica mid-run; survivors must agree, and — thanks to the bounded client
  retry layer — *every* submission must still be delivered exactly once;
* ``crash-restart`` — like ``crash``, but the victim also reboots from its
  persisted WAL + snapshot mid-run (sometimes twice, sometimes a second
  victim).  On top of the ``crash`` oracle, the recovery oracle pins the
  rejoined replica's delivery sequence: duplicate-free, prefix-consistent
  with its own pre-crash deliveries, and convergent with the survivors;
* ``reconfig`` — one or two scripted overlay switches (random permutations)
  run mid-traffic through the epoch coordinator; the whole multi-epoch trace
  must satisfy the regular properties plus ``check_epochs``;
* ``cold`` — no faults, but every destination set is redrawn from a *cold*
  shape family (nested, chain, disjoint or paired) in which no two shapes
  intersect in exactly one group.  A declared cold universe makes the protocol pick
  the pivot guard rather than timestamps, so this is the profile that keeps
  the guard path under fuzz.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from typing import Any, Callable, List, Optional, Tuple

from ..core.message import (
    FlexCastAck,
    FlexCastBatch,
    FlexCastMsg,
    FlexCastNotif,
    FlexCastTsPropose,
)
from .scenario import Crash, FuzzScenario, Reconfig, Restart

PROFILES = ("none", "dup", "loss", "crash", "reconfig", "crash-restart", "cold")

#: Bounded resubmit attempts for crash-family profiles (see
#: :class:`repro.workload.clients.BoundedResubmitter`).
_CRASH_CLIENT_RETRIES = 4

#: Envelope kinds subject to fault injection, per fault mode.  Hybrid-mode
#: timestamp proposals are *duplicated* (exercising the authority's
#: duplicate-propose absorption) but never *dropped*: FlexCast assumes
#: reliable channels either way, and a lost proposal head-of-line-blocks the
#: entire convoy — every later global message at that destination stalls
#: behind the undecided entry, so loss runs would degenerate into checking
#: ever-emptier delivery prefixes instead of exploring msg/ack/notif loss.
#: Batch submissions (client -> lca) are both droppable and duplicable: a
#: dropped batch must degrade exactly like N dropped messages (all-or-
#: nothing, checked by the harness's batch-atomicity oracle) and a
#: duplicated one must be absorbed once, like any re-submitted request.
#: Plain ClientRequests stay exempt, so the seeded fault schedule of every
#: pre-batching scenario is unchanged; batch envelopes only exist when a
#: scenario's ``batch_window`` > 1.
_DROPPABLE_ENVELOPES = (FlexCastMsg, FlexCastAck, FlexCastNotif, FlexCastBatch)
_DUPLICABLE_ENVELOPES = _DROPPABLE_ENVELOPES + (FlexCastTsPropose,)


def apply_profile(scenario: FuzzScenario, profile: str) -> FuzzScenario:
    """Attach ``profile`` to a base workload scenario (deterministic)."""
    rng = random.Random(scenario.profile_seed)
    horizon = max((s.at_ms for s in scenario.submissions), default=1_000.0)
    if profile == "none":
        return replace(scenario, profile="none")
    if profile == "dup":
        return replace(
            scenario, profile="dup", profile_rate=rng.choice([0.05, 0.15, 0.4])
        )
    if profile == "loss":
        return replace(
            scenario,
            profile="loss",
            profile_rate=rng.choice([0.01, 0.05, 0.15]),
            expect_all_delivered=False,
            # Loss keeps histories permanently incomplete; periodic flushes
            # would just stall too, so drop them for clarity.
            gc_interval_ms=None,
        )
    if profile in ("crash", "crash-restart"):
        # SMR mode: a single replicated group absorbing the whole submission
        # stream, with a seeded victim replica crashed mid-run.  The crash
        # time is drawn before the victim so every pre-existing ``crash``
        # seed keeps its historical crash instant.
        submissions = tuple(
            replace(s, dst=(0,)) for s in scenario.submissions
        )
        crash_at = round(rng.uniform(horizon * 0.2, horizon * 0.7), 3)
        victim = rng.randrange(3)
        common = dict(
            order=(0,),
            submissions=submissions,
            replication_factor=3,
            # Bounded resubmit-on-timeout: requests lost with a crashing
            # replica are retried by the client, so full delivery is back in
            # the oracle's contract (re-submission is idempotent end to end).
            client_retries=_CRASH_CLIENT_RETRIES,
            expect_all_delivered=True,
            gc_interval_ms=None,
            jitter_ms=min(scenario.jitter_ms, 1.0),
        )
        if profile == "crash":
            return replace(
                scenario,
                profile="crash",
                crashes=(Crash(at_ms=crash_at, replica=victim),),
                **common,
            )
        # crash-restart: the victim reboots from its persisted state while
        # traffic continues; ~1 in 3 seeds follows with a second crash-and-
        # rejoin cycle (possibly of a different replica, possibly of the same
        # one again — exercising WAL reuse across incarnations).
        restart_at = round(crash_at + rng.uniform(0.15, 0.35) * horizon, 3)
        crashes = [Crash(at_ms=crash_at, replica=victim)]
        restarts = [Restart(at_ms=restart_at, replica=victim)]
        if rng.random() < 0.34:
            victim2 = rng.randrange(3)
            crash2_at = round(restart_at + rng.uniform(0.1, 0.25) * horizon, 3)
            restart2_at = round(crash2_at + rng.uniform(0.1, 0.25) * horizon, 3)
            crashes.append(Crash(at_ms=crash2_at, replica=victim2))
            restarts.append(Restart(at_ms=restart2_at, replica=victim2))
        return replace(
            scenario,
            profile="crash-restart",
            crashes=tuple(crashes),
            restarts=tuple(restarts),
            **common,
        )
    if profile == "reconfig":
        num_switches = rng.randint(1, 2)
        reconfigs = []
        for i in range(1, num_switches + 1):
            at = round(horizon * i / (num_switches + 1.0), 3)
            order = list(scenario.order)
            rng.shuffle(order)
            reconfigs.append(Reconfig(at_ms=at, order=tuple(order)))
        return replace(scenario, profile="reconfig", reconfigs=tuple(reconfigs))
    if profile == "cold":
        shapes = cold_shapes(scenario.order, rng)
        submissions = tuple(
            replace(s, dst=rng.choice(shapes)) for s in scenario.submissions
        )
        return replace(scenario, profile="cold", submissions=submissions)
    raise ValueError(f"unknown fault profile {profile!r}")


def cold_shapes(order: Tuple[Any, ...], rng: random.Random) -> List[Tuple[Any, ...]]:
    """A seeded destination-set family with no single-shared pair.

    Drawn over a shuffled copy ``p`` of ``order``, cut into two-group
    blocks ``b0 = p[0:2], b1 = p[2:4], …``:

    * ``nested`` — prefixes ``p[:2] ⊂ p[:3] ⊂ …``: any two share >= 2 groups;
    * ``chain`` — unions of neighbouring blocks (``b0 ∪ b1``, ``b1 ∪ b2``,
      …): neighbours share a block, the rest nothing;
    * ``disjoint`` — consecutive blocks of two or three groups;
    * ``paired`` — every block and every union of two blocks: pairs share
      zero, two or four groups, and three unions can meet pairwise in two
      groups each — the overlap pattern that makes the pivot guard stall.

    The all-groups flush shape meets each of these in >= 2 groups, so a
    scenario's whole declared universe stays cold.
    """
    perm = list(order)
    rng.shuffle(perm)
    blocks = [perm[i:i + 2] for i in range(0, len(perm) - 1, 2)]
    # Weighted towards ``paired``: of the four, only it makes the guard
    # stall (measured over 50 seeds each), which is what this profile is for.
    family = rng.choices(("nested", "chain", "disjoint", "paired"), (1, 1, 1, 3))[0]
    if family == "chain" and len(blocks) >= 2:
        shapes = [a + b for a, b in zip(blocks, blocks[1:])]
    elif family == "paired" and len(blocks) >= 2:
        shapes = blocks + [a + b for a, b in itertools.combinations(blocks, 2)]
    elif family == "disjoint":
        shapes, start = [], 0
        while len(perm) - start >= 2:
            size = 3 if len(perm) - start == 3 else rng.choice((2, 3))
            shapes.append(perm[start:start + size])
            start += size
    else:
        shapes = [perm[:k] for k in range(2, len(perm) + 1)]
    return [tuple(shape) for shape in shapes]


class EnvelopeFaultFilter:
    """Seeded drop/duplicate filter for protocol envelopes.

    Installed via ``Network.set_drop_filter``.  Duplication re-sends the same
    payload once; a re-entrancy flag lets the nested send pass through
    untouched.  All decisions come from one seeded RNG stream and nothing
    depends on object identity, so two runs of the same scenario inject the
    exact same fault schedule (the replay/shrink contract).
    """

    def __init__(
        self,
        network,
        rate: float,
        seed: int,
        mode: str,
        predicate: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        if mode not in ("drop", "dup"):
            raise ValueError(f"unknown fault mode {mode!r}")
        if predicate is None:
            kinds = _DROPPABLE_ENVELOPES if mode == "drop" else _DUPLICABLE_ENVELOPES
            predicate = lambda p: isinstance(p, kinds)  # noqa: E731
        self._network = network
        self._rate = float(rate)
        self._rng = random.Random(seed)
        self._mode = mode
        self._predicate = predicate
        self._resending = False
        self.dropped = 0
        self.duplicated = 0

    def __call__(self, src, dst, payload) -> bool:
        if self._resending or not self._predicate(payload):
            return False
        if self._mode == "drop":
            if self._rng.random() < self._rate:
                self.dropped += 1
                return True
            return False
        if self._rng.random() < self._rate:
            self.duplicated += 1
            self._resending = True
            try:
                self._network.send(src, dst, payload)
            finally:
                self._resending = False
        return False
