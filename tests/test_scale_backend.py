"""Tests for scale-backend selection and dispatch (``solve_scaled``)."""

import numpy as np
import pytest

from repro import SamplingProblem, janet_task
from repro.obs import collecting_metrics
from repro.scale import (
    APPROX_AUTO_LINKS,
    SCALE_BACKENDS,
    choose_backend,
    solve_scaled,
)
from repro.topology import hierarchical_routing_problem


@pytest.fixture(scope="module")
def geant_problem():
    return SamplingProblem.from_task(janet_task(), theta_packets=100_000)


class TestChooseBackend:
    def test_explicit_request_wins(self, geant_problem):
        for backend in SCALE_BACKENDS:
            assert choose_backend(geant_problem, backend) == backend

    def test_unknown_backend_rejected(self, geant_problem):
        with pytest.raises(ValueError, match="unknown scale backend"):
            choose_backend(geant_problem, "simplex")

    def test_small_problem_stays_exact(self, geant_problem):
        assert choose_backend(geant_problem, "auto") == "exact"

    # The auto policy keys on *candidate* links (columns some OD row
    # touches).  Exact GP owns everything below the approximation
    # threshold, pod-local or not: with its reduced-Newton finish it
    # beats ``decompose`` on the 10k+ pod-local instances too.
    @pytest.mark.parametrize(
        "pods, leaves, share, od_pairs, candidates, backend",
        [
            (16, 30, 0.5, None, (512, 1_000), "exact"),
            (40, 60, 1.0, None, (2_048, 10_000), "exact"),
            (85, 98, 1.0, None, (10_000, APPROX_AUTO_LINKS), "exact"),
            (200, 200, 0.5, 120_000, (APPROX_AUTO_LINKS, None), "approx"),
        ],
        ids=["1k-exact", "40x60-podlocal-exact", "85x98-podlocal-exact",
             "50k-approx"],
    )
    def test_auto_picks_by_measured_size(
        self, pods, leaves, share, od_pairs, candidates, backend
    ):
        problem = hierarchical_routing_problem(
            pods, leaves, 2, intra_pod_fraction=share,
            num_od_pairs=od_pairs, seed=1,
        )
        low, high = candidates
        count = int(problem.candidate_mask.sum())
        assert count >= low and (high is None or count < high)
        assert choose_backend(problem, "auto") == backend
        assert choose_backend(problem, "compiled") == "exact"


class TestSolveScaled:
    def test_dispatch_records_method_and_counter(self, geant_problem):
        with collecting_metrics(reset=True) as registry:
            solution = solve_scaled(geant_problem, backend="approx")
            counters = registry.snapshot()["counters"]
        assert solution.diagnostics.method == "approx_waterfill"
        assert counters["scale.backend.approx"] == 1

    def test_exact_dispatch_matches_solve(self, geant_problem):
        from repro.core import solve

        scaled = solve_scaled(geant_problem, backend="exact")
        exact = solve(geant_problem)
        assert scaled.diagnostics.objective_value == pytest.approx(
            exact.diagnostics.objective_value, rel=1e-9
        )
        assert scaled.diagnostics.optimality_gap is None

    def test_compiled_dispatch(self, geant_problem):
        # "compiled" is a retired backend name, kept as an exact alias.
        with collecting_metrics(reset=True) as registry:
            solution = solve_scaled(geant_problem, backend="compiled")
            counters = registry.snapshot()["counters"]
        assert solution.diagnostics.method == "gradient_projection"
        assert counters["scale.backend.exact"] == 1

    def test_auto_converges_above_the_paper_iteration_cap(self):
        # ~1.9k candidates: from the paper's water-filling start exact
        # GP needs more than 2000 iterations here, which the derived
        # cap allows; the projection-arc start finishes well inside it.
        problem = hierarchical_routing_problem(
            24, 60, intra_pod_fraction=0.5, seed=2
        )
        solution = solve_scaled(problem, backend="auto")
        assert solution.diagnostics.converged
        assert solution.diagnostics.kkt.satisfied

    def test_decompose_dispatch(self):
        from repro.scale import DecomposeOptions

        problem = hierarchical_routing_problem(
            4, 8, 2, intra_pod_fraction=1.0, seed=2006
        )
        solution = solve_scaled(
            problem,
            backend="decompose",
            decompose_options=DecomposeOptions(parallel=False),
        )
        assert solution.diagnostics.method == "decompose"
        assert solution.diagnostics.converged

    def test_warm_start_reaches_approx(self, geant_problem):
        exact = solve_scaled(geant_problem, backend="exact")
        warm = solve_scaled(
            geant_problem, backend="approx", warm_start=exact.rates
        )
        assert warm.diagnostics.converged
        assert warm.diagnostics.iterations <= 2

    def test_warm_start_reaches_exact(self, geant_problem):
        exact = solve_scaled(geant_problem, backend="exact")
        warm = solve_scaled(
            geant_problem, backend="exact", warm_start=exact.rates
        )
        assert warm.diagnostics.converged
        assert warm.diagnostics.iterations <= 2
        assert warm.objective_value == pytest.approx(
            exact.objective_value, rel=1e-12
        )

    def test_decompose_rejects_warm_start(self, geant_problem):
        with pytest.raises(ValueError, match="decompose"):
            solve_scaled(
                geant_problem,
                backend="decompose",
                warm_start=np.zeros(geant_problem.num_links),
            )

    def test_every_backend_feasible_result(self, geant_problem):
        from repro.scale import DecomposeOptions

        for backend in SCALE_BACKENDS:
            solution = solve_scaled(
                geant_problem,
                backend=backend,
                decompose_options=DecomposeOptions(parallel=False),
            )
            assert np.all(solution.rates >= 0.0)
            assert np.all(solution.rates <= geant_problem.alpha + 1e-12)
            assert solution.budget_used_packets <= (
                geant_problem.theta_packets * (1 + 1e-9)
            )
