"""Property tests over the single-shared-group conflict class (ISSUE 10).

The strategies (:mod:`repro.fuzz.strategies`) generate scenarios that
contain a cycle of message pairs meeting at exactly one group each — the
precondition of the guard-only 3-cycle that declaring the shapes closes
(the deployment then timestamps every global message).  Here hypothesis
drives that class unbatched and batched and asserts ``strict_ok``: acyclic
order is a *hard* property, so any anomaly is a failure, shrunk by
hypothesis to a minimal scenario.

Example counts follow the hypothesis profile (``tests/conftest.py``): the
default ``ci`` profile keeps this file fast; nightly runs set
``HYPOTHESIS_PROFILE=nightly`` for a 10x longer search.
"""

from hypothesis import given

from repro.fuzz import run_scenario
from repro.fuzz.strategies import (
    batched_single_shared_group_scenarios,
    single_shared_group_scenarios,
    single_shared_pairs,
)


class TestGeneratorShape:
    @given(scenario=single_shared_group_scenarios())
    def test_every_scenario_contains_a_single_shared_cycle(self, scenario):
        # At least a triangle's worth of exactly-one-group intersections.
        assert len(single_shared_pairs(scenario)) >= 3
        for sub in scenario.submissions:
            assert set(sub.dst) <= set(scenario.order)


class TestStrictOrderAcrossModes:
    @given(scenario=single_shared_group_scenarios())
    def test_plain_mode_with_claims_is_strictly_acyclic(self, scenario):
        result = run_scenario(scenario)
        assert result.strict_ok, result.violations + result.ordering_anomalies
        assert result.delivered == sum(
            len(s.dst) for s in scenario.submissions
        )

    @given(scenario=batched_single_shared_group_scenarios())
    def test_batched_mode_is_strictly_acyclic_and_atomic(self, scenario):
        result = run_scenario(scenario)
        assert result.strict_ok, result.violations + result.ordering_anomalies
        assert result.delivered == sum(
            len(s.dst) for s in scenario.submissions
        )
