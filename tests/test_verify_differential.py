"""Property-based differential tests over every optimized backend pair.

Hypothesis drives :func:`repro.verify.random_problem` through random
seeds (including degenerate twists: duplicate columns, empty OD rows,
θ at capacity, α = 0 links) and asserts that dense/CSR, presolved/full,
stacked/scalar and supervised/direct solves all land on the same
optimum within the certified tolerances — and that the gradient
projection optimum matches the provably-optimal brute-force reference
on small instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.gradient_projection import ARC_MIN_CANDIDATES
from repro.verify import (
    TOLERANCES,
    check_arc_start,
    check_backends,
    check_presolve,
    check_reconfig,
    check_reference,
    check_stacked,
    check_stream,
    check_supervised,
    differential_check,
    random_problem,
    run_differential_suite,
)

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _problem(seed: int, degenerate: bool = False):
    rng = np.random.default_rng(seed)
    return random_problem(rng, max_links=6, max_od=4, degenerate=degenerate)


class TestStrategies:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_problem_is_well_formed(self, seed):
        problem = _problem(seed)
        assert problem.num_links >= 3
        assert problem.num_od_pairs >= 2
        problem.check_feasible()
        # Budget strictly inside the absorbable range (non-degenerate).
        absorbable = float(
            (problem.alpha * problem.link_loads_pps).sum()
        ) * problem.interval_seconds
        assert 0.0 < problem.theta_packets <= absorbable + 1e-6

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_degenerate_problem_is_still_feasible(self, seed):
        problem = _problem(seed, degenerate=True)
        problem.check_feasible()


class TestBackendPairs:
    @given(seed=st.integers(0, 2**32 - 1))
    @SLOW
    def test_dense_matches_csr(self, seed):
        record = check_backends(_problem(seed))
        assert record["passed"], record
        assert record["objective_gap"] <= TOLERANCES["dense_csr"]

    @given(seed=st.integers(0, 2**32 - 1))
    @SLOW
    def test_presolve_matches_full(self, seed):
        record = check_presolve(_problem(seed))
        assert record["passed"], record
        assert record["lifted_feasibility"] <= TOLERANCES["kkt"]

    @given(seed=st.integers(0, 2**32 - 1))
    @SLOW
    def test_stacked_matches_scalar(self, seed):
        record = check_stacked(_problem(seed))
        assert record["passed"], record

    @given(seed=st.integers(0, 2**32 - 1))
    @SLOW
    def test_supervised_matches_direct(self, seed):
        record = check_supervised(_problem(seed))
        assert record["passed"], record
        assert not record["degraded"]

    @given(seed=st.integers(0, 2**32 - 1), degenerate=st.booleans())
    @SLOW
    def test_arc_start_matches_paper_start(self, seed, degenerate):
        record = check_arc_start(_problem(seed, degenerate=degenerate))
        assert record["passed"], record
        assert record["candidates"] >= ARC_MIN_CANDIDATES

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_degenerate_instances_agree_across_backends(self, seed):
        result = differential_check(
            _problem(seed, degenerate=True), include_reference=False
        )
        assert result["passed"], result["checks"]


class TestStreamPairs:
    @given(seed=st.integers(0, 2**32 - 1))
    @SLOW
    def test_warm_incremental_matches_cold_exact(self, seed):
        """Every drifted interval's warm solve lands on the cold optimum."""
        record = check_stream(_problem(seed))
        assert record["passed"], record
        assert record["objective_gap"] <= TOLERANCES["stream"]
        assert record["warm_hits"] == record["intervals"] - 1

    @given(seed=st.integers(0, 2**32 - 1))
    @SLOW
    def test_reconfig_penalty_lifts_to_certified_point(self, seed):
        """The penalized optimum is KKT-certified and its exact mapping
        back to the unpenalized objective (gap bound, churn bound) holds."""
        record = check_reconfig(_problem(seed))
        assert record["passed"], record

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_stream_pairs_survive_degenerate_instances(self, seed):
        problem = _problem(seed, degenerate=True)
        assert check_stream(problem)["passed"]
        assert check_reconfig(problem)["passed"]


class TestReferenceCrossCheck:
    @given(seed=st.integers(0, 2**32 - 1))
    # Newton on the free-block slice used to spend its step budget a
    # hair above the stationarity exit and reject the optimal partition.
    @example(seed=758)
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_gp_matches_brute_force_and_slsqp(self, seed):
        record = check_reference(_problem(seed))
        assert record["passed"], record
        assert record["reference_kkt_satisfied"]


class TestSuite:
    def test_quick_suite_smoke(self):
        report = run_differential_suite(
            instances=10, seed=1234, max_links=5, degenerate_instances=3
        )
        assert report["passed"], report["failures"]
        assert report["instances"] == 13  # 10 well-posed + 3 degenerate
        assert report["degenerate_instances"] == 3
        assert report["reference_instances"] == 10
        for pair, tolerance in TOLERANCES.items():
            if pair in ("kkt", "brute_force", "slsqp_cross"):
                continue
            assert report["pairs"][pair]["failures"] == 0
            assert report["pairs"][pair]["tolerance"] == tolerance

    def test_suite_is_seed_deterministic(self):
        a = run_differential_suite(
            instances=4, seed=99, max_links=5,
            degenerate_instances=1, include_reference=False,
        )
        b = run_differential_suite(
            instances=4, seed=99, max_links=5,
            degenerate_instances=1, include_reference=False,
        )
        assert a["pairs"] == b["pairs"]

    def test_failures_are_reported_not_raised(self):
        """A violated tolerance shows up in the report, not a crash."""
        report = run_differential_suite(
            instances=2, seed=5, max_links=4,
            degenerate_instances=0, include_reference=False,
        )
        assert isinstance(report["failures"], list)
        assert report["passed"] == (len(report["failures"]) == 0)


@pytest.mark.parametrize("pair", sorted(TOLERANCES))
def test_tolerances_are_documented_and_positive(pair):
    assert 0.0 < TOLERANCES[pair] <= 1e-4
