"""Differential tests: the batching layer vs the unbatched delivery path.

Mirrors the :mod:`tests.core.test_history_equivalence` methodology: the same
deterministic scenarios are driven through two implementations — the plain
submission path (each message its own ``ClientRequest``) and the
:class:`~repro.core.batching.BatchingClient` — and the outcomes are compared.

Two claims are pinned, matching DESIGN.md "batching the delivery path":

* **batch_window=1 is bit-identical** — with a window of one the batching
  client ships the exact same envelopes at the exact same (virtual) times,
  so per-group delivery sequences are *equal as sequences*, with the
  scenario's shapes declared (guard or timestamps, as the universe picks)
  and undeclared (guard only).  This is the contract that lets batching
  default off.
* **batch_window>1 preserves every guarantee** — the delivered message
  *sets* per group are unchanged, all oracle-checked invariants hold, and
  batches are delivered atomically (all-or-nothing, contiguous, in member
  order at every group).
"""

from dataclasses import replace

import pytest

from repro.fuzz.harness import run_scenario
from repro.fuzz.profiles import apply_profile
from repro.fuzz.workload import generate_scenario

#: Seeds chosen to cover the generator's shapes: hotspot conflicts, bursts,
#: GC flush traffic, and a mix of overlay sizes.
SEEDS = (3, 7, 11, 19)


def _scenario(seed, batch_window, profile="none"):
    scenario = apply_profile(generate_scenario(seed, profile), profile)
    return replace(scenario, batch_window=batch_window)


DECLARED = pytest.mark.parametrize(
    "declared", [False, True], ids=["undeclared", "declared"]
)


class TestWindowOneBitIdentical:
    """The differential pin: a window of one changes nothing at all."""

    @DECLARED
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sequences_identical(self, seed, declared):
        scenario = _scenario(seed, batch_window=1)
        unbatched = run_scenario(scenario, order_claims=declared)
        batched = run_scenario(
            scenario, use_batching_client=True, order_claims=declared
        )
        # Bit-identical: same per-group delivery *sequences*, same oracle
        # outcome, and the window-1 client never formed an actual batch.
        assert batched.sequences == unbatched.sequences
        assert batched.violations == unbatched.violations
        assert batched.ordering_anomalies == unbatched.ordering_anomalies
        assert batched.batches == []

    def test_flushes_bypass_the_window(self):
        # A GC-flush-heavy scenario: flush multicasts must never be
        # coalesced or delayed, so window 1 (and the bypass) stays
        # bit-identical even with periodic flush traffic interleaved.
        scenario = replace(
            _scenario(3, batch_window=1), gc_interval_ms=200.0
        )
        unbatched = run_scenario(scenario)
        batched = run_scenario(scenario, use_batching_client=True)
        assert batched.sequences == unbatched.sequences
        assert batched.ok and unbatched.ok


class TestBatchedRunsPreserveGuarantees:
    @DECLARED
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("window", [4, 16])
    def test_same_deliveries_all_invariants(self, seed, declared, window):
        reference = run_scenario(
            _scenario(seed, batch_window=1), order_claims=declared
        )
        batched = run_scenario(
            _scenario(seed, batch_window=window), order_claims=declared
        )
        assert batched.ok, batched.violations[:5]
        if declared:
            # A declared universe guarantees global acyclic order; batching
            # must not reintroduce anomalies guard or timestamps rule out.
            assert batched.strict_ok, batched.ordering_anomalies[:5]
        # Batching reorders legally (windows delay submissions) but must
        # deliver exactly the same messages everywhere.
        for group in batched.scenario.order:
            assert set(batched.sequences[group]) == set(reference.sequences[group])

    def test_batches_actually_form(self):
        # Guard against the axis silently degenerating: at least one
        # generated scenario must coalesce real batches under window 16.
        formed = sum(
            len(run_scenario(_scenario(seed, batch_window=16)).batches)
            for seed in SEEDS
        )
        assert formed > 0

    def test_members_contiguous_in_batch_order(self):
        # Direct structural check on top of the harness's own oracle: each
        # delivered batch appears as one contiguous run, in member order.
        result = run_scenario(_scenario(3, batch_window=16))
        assert result.batches
        for batch_id, members in result.batches:
            for group, sequence in result.sequences.items():
                positions = [
                    index for index, mid in enumerate(sequence) if mid in set(members)
                ]
                if not positions:
                    continue
                assert [sequence[i] for i in positions] == list(members), (
                    batch_id,
                    group,
                )
                assert positions == list(
                    range(positions[0], positions[0] + len(members))
                )
