"""Regression: the ``replicated_inventory`` lost-delivery schedule.

The JSON schedules in ``schedules/`` were produced by the fuzz harness from
the example's exact workload (ISSUE 3): the full 300-transfer scenario
reproduces the original ``11/12 warehouses`` failure, and the ddmin-shrunk
12-submission schedule pins its root cause — the Strategy (c) ack race that
lets groups commit complementary halves of a delivery cycle, which then
deadlocked the highest-ranked destination forever (four transfers applied at
only one endpoint).

The pivot guard is the fix for that race: the shrunk schedule must stay
clean both with its shapes declared (the harness default) and undeclared
(the guard-only protocol).

The full schedule doubles as the gate for the guard-or-timestamps choice:
its transfers admit single-shared-group pairs, so with the shapes declared
the deployment timestamps every global message and the run must be
*strictly* clean — zero violations **and** zero acyclic-order anomalies.
Undeclared, the same schedule still exhibits the residual anomaly of the
down-only c-DAG information flow (never a lost/duplicated/misordered-per-pair
delivery), which pins both that the hole is real and that an ordering
authority is what closes it.
"""

from pathlib import Path

import pytest

from repro.fuzz import FuzzScenario, run_scenario

SCHEDULES = Path(__file__).parent / "schedules"


@pytest.fixture(scope="module")
def shrunk():
    return FuzzScenario.load(SCHEDULES / "lost_delivery_inventory.json")


@pytest.fixture(scope="module")
def full():
    return FuzzScenario.load(SCHEDULES / "inventory_seed3_full.json")


class TestShrunkSchedule:
    def test_passes_on_fixed_protocol(self, shrunk):
        result = run_scenario(shrunk)
        assert result.strict_ok, result.violations + result.ordering_anomalies
        # Everything submitted is delivered at every destination.
        assert result.delivered == sum(len(s.dst) for s in shrunk.submissions)

    def test_passes_on_guard_only_protocol(self, shrunk):
        result = run_scenario(shrunk, order_claims=False)
        assert result.strict_ok, result.violations + result.ordering_anomalies
        assert result.delivered == sum(len(s.dst) for s in shrunk.submissions)


class TestFullInventorySchedule:
    """The example's full workload, replayed through the harness.

    This is the tier-1 form of the CI gate
    ``python -m repro.fuzz --replay .../inventory_seed3_full.json``.
    """

    def test_strictly_clean_with_declared_shapes(self, full):
        result = run_scenario(full)
        # Hard gate: zero violations of any kind, anomalies included — with
        # the ordering authority on, acyclic order is a guaranteed property.
        assert result.strict_ok, result.violations + result.ordering_anomalies
        # Every transfer reaches both endpoints (the original bug lost 4).
        assert result.delivered == sum(len(s.dst) for s in full.submissions)

    def test_residual_anomaly_when_undeclared(self, full):
        result = run_scenario(full, order_claims=False)
        # Guaranteed properties still hold without either authority...
        assert result.ok, result.violations
        assert result.delivered == sum(len(s.dst) for s in full.submissions)
        # ...but the down-only information flow leaves the documented
        # acyclic-order hole this schedule was committed to reproduce.
        assert result.ordering_anomalies, (
            "expected the known acyclic-order anomaly with the shapes "
            "undeclared; if the guard-only protocol now closes it, "
            "fold this into DESIGN.md"
        )

    def test_shrunk_is_much_smaller_than_full(self, shrunk, full):
        assert len(shrunk.submissions) <= 15 < len(full.submissions)
