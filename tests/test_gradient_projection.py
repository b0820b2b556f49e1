"""Tests for the gradient-projection solver — correctness and §IV-D behaviour."""

import numpy as np
import pytest

from repro.core import (
    GradientProjectionOptions,
    InfeasibleProblemError,
    MeanSquaredRelativeAccuracy,
    SamplingProblem,
    SoftMinUtilityObjective,
    SumUtilityObjective,
    check_kkt,
    initial_feasible_point,
    solve_gradient_projection,
    solve_scipy,
)
from repro.core import gradient_projection
from repro.core.gradient_projection import ARC_MIN_CANDIDATES
from repro.obs import collecting_metrics
from repro.stream.controller import ReconfigurationPenaltyObjective
from repro.topology import hierarchical_routing_problem
from tests.conftest import make_random_problem


class TestInitialFeasiblePoint:
    def test_uniform_rate_when_unclamped(self):
        loads = np.array([10.0, 20.0, 30.0])
        alpha = np.ones(3)
        x = initial_feasible_point(loads, alpha, target_rate=6.0)
        np.testing.assert_allclose(x, 0.1)
        assert x @ loads == pytest.approx(6.0)

    def test_water_filling_clamps_tight_bounds(self):
        loads = np.array([10.0, 10.0])
        alpha = np.array([0.05, 1.0])
        x = initial_feasible_point(loads, alpha, target_rate=5.0)
        assert x[0] == pytest.approx(0.05)
        assert x @ loads == pytest.approx(5.0)
        assert x[1] <= 1.0

    def test_exact_saturation(self):
        loads = np.array([10.0, 10.0])
        alpha = np.array([0.5, 0.5])
        x = initial_feasible_point(loads, alpha, target_rate=10.0)
        np.testing.assert_allclose(x, 0.5)

    def test_infeasible_target_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            initial_feasible_point(np.array([10.0]), np.array([0.1]), 5.0)

    def test_zero_target(self):
        x = initial_feasible_point(np.array([10.0]), np.array([1.0]), 0.0)
        assert x[0] == 0.0

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            initial_feasible_point(np.array([10.0]), np.array([1.0]), -1.0)


def two_od_problem(theta=60.0):
    """One big and one small OD pair over three links.

    OD 0 (big) crosses links 0-1; OD 1 (small) crosses links 1-2.
    Link 2 is lightly loaded — the optimum should use it for OD 1.
    """
    routing = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    loads = np.array([1000.0, 1100.0, 100.0])
    utilities = [
        MeanSquaredRelativeAccuracy(1e-5),
        MeanSquaredRelativeAccuracy(1e-3),
    ]
    return SamplingProblem(routing, loads, theta, utilities, interval_seconds=1.0)


class TestSolverCorrectness:
    def test_converges_with_kkt_certificate(self):
        solution = solve_gradient_projection(two_od_problem())
        assert solution.diagnostics.converged
        assert solution.diagnostics.kkt is not None
        assert solution.diagnostics.kkt.satisfied

    def test_capacity_constraint_met_with_equality(self):
        problem = two_od_problem()
        solution = solve_gradient_projection(problem)
        assert solution.budget_used_rate_pps == pytest.approx(
            problem.theta_rate_pps, rel=1e-9
        )

    def test_bounds_respected(self):
        solution = solve_gradient_projection(two_od_problem())
        assert np.all(solution.rates >= 0)
        assert np.all(solution.rates <= 1.0 + 1e-12)

    def test_matches_scipy_optimum(self):
        problem = two_od_problem()
        gp = solve_gradient_projection(problem)
        ref = solve_scipy(problem, method="SLSQP")
        assert gp.objective_value == pytest.approx(ref.objective_value, rel=1e-8)

    def test_lightly_loaded_link_preferred_for_small_od(self):
        solution = solve_gradient_projection(two_od_problem())
        # The small OD pair's cheap dedicated link (2) gets a higher
        # rate than the expensive shared link (1).
        assert solution.rates[2] > solution.rates[1]

    def test_alpha_cap_becomes_active(self):
        routing = np.array([[1.0, 1.0]])
        loads = np.array([10.0, 1000.0])
        problem = SamplingProblem(
            routing, loads, 15.0,
            [MeanSquaredRelativeAccuracy(1e-3)],
            alpha=np.array([0.5, 1.0]), interval_seconds=1.0,
        )
        solution = solve_gradient_projection(problem)
        assert solution.diagnostics.converged
        # Cheap link saturates at its cap; remainder spills to link 1.
        assert solution.rates[0] == pytest.approx(0.5)
        assert solution.rates[1] == pytest.approx(10.0 / 1000.0)

    def test_non_traversed_links_stay_off(self):
        problem = two_od_problem()
        routing = np.hstack([problem.routing, np.zeros((2, 1))])
        loads = np.append(problem.link_loads_pps, 500.0)
        extended = SamplingProblem(
            routing, loads, problem.theta_packets, problem.utilities,
            interval_seconds=1.0,
        )
        solution = solve_gradient_projection(extended)
        assert solution.rates[3] == 0.0

    def test_zero_load_traversed_link_saturates_free(self):
        routing = np.array([[1.0, 1.0]])
        loads = np.array([100.0, 0.0])
        problem = SamplingProblem(
            routing, loads, 5.0, [MeanSquaredRelativeAccuracy(1e-3)],
            interval_seconds=1.0,
        )
        solution = solve_gradient_projection(problem)
        assert solution.rates[1] == pytest.approx(1.0)

    def test_infeasible_problem_raises(self):
        problem = two_od_problem(theta=1e9)
        with pytest.raises(InfeasibleProblemError):
            solve_gradient_projection(problem)

    def test_default_cap_derived_from_candidates(self):
        options = GradientProjectionOptions()
        assert options.iteration_cap(500) == 2000  # the paper's cap
        assert options.iteration_cap(1_000) == 4_000
        explicit = GradientProjectionOptions(max_iterations=7)
        assert explicit.iteration_cap(1_000_000) == 7

    def test_iteration_cap_respected(self):
        options = GradientProjectionOptions(max_iterations=1)
        solution = solve_gradient_projection(two_od_problem(), options=options)
        assert solution.diagnostics.iterations == 1
        if not solution.diagnostics.converged:
            assert "aborted" in solution.diagnostics.message


class TestSolverOnGeant:
    def test_table1_problem_converges(self, geant_solution):
        d = geant_solution.diagnostics
        assert d.converged
        assert d.iterations <= 2000  # the paper's threshold
        assert d.kkt.satisfied

    def test_joint_placement_deactivates_most_monitors(self, geant_solution):
        # Table I: only ~10 of 72 monitors participate.
        assert geant_solution.num_active_monitors <= 15

    def test_rates_extremely_low(self, geant_solution):
        # §V-B: "sampling rates are extremely low", ~1% at most.
        assert geant_solution.rates.max() < 0.02

    def test_few_monitors_per_od(self, geant_solution):
        # §V-B: each OD pair is sampled on at most a couple of links.
        assert geant_solution.monitors_per_od().max() <= 3

    def test_utilities_balanced(self, geant_solution):
        # §V-B fairness: individual utilities well balanced despite a
        # 1500x OD size spread.
        utilities = geant_solution.od_utilities
        assert utilities.min() > 0.9 * utilities.max()

    def test_matches_scipy_on_geant(self, geant_problem, geant_solution):
        ref = solve_scipy(geant_problem, method="SLSQP")
        assert geant_solution.objective_value == pytest.approx(
            ref.objective_value, rel=1e-7
        )
        np.testing.assert_allclose(
            geant_solution.rates, ref.rates, atol=5e-5
        )


class TestRandomizedCrossValidation:
    @pytest.mark.parametrize("seed", range(8))
    def test_gp_matches_slsqp_on_random_problems(self, seed):
        problem = make_random_problem(seed)
        gp = solve_gradient_projection(problem)
        ref = solve_scipy(problem, method="SLSQP")
        assert gp.diagnostics.converged
        assert gp.objective_value >= ref.objective_value - 1e-6 * abs(
            ref.objective_value
        )
        report = check_kkt(problem, gp.rates, tolerance=1e-5)
        assert report.satisfied

    @pytest.mark.parametrize("seed", range(4))
    def test_tight_alpha_random_problems(self, seed):
        problem = make_random_problem(seed + 100)
        tight = SamplingProblem(
            problem.routing,
            problem.link_loads_pps,
            min(problem.theta_packets, 0.5 * problem.max_absorbable_rate
                * problem.interval_seconds * 0.01),
            problem.utilities,
            alpha=0.01,
            interval_seconds=problem.interval_seconds,
        )
        solution = solve_gradient_projection(tight)
        assert solution.diagnostics.converged
        assert np.all(solution.rates <= 0.01 + 1e-12)


class TestAlternativeObjective:
    def test_soft_min_objective_solves(self):
        problem = two_od_problem()
        cand = np.flatnonzero(problem.candidate_mask)
        objective = SoftMinUtilityObjective(
            problem.routing[:, cand], problem.utilities, temperature=0.01
        )
        solution = solve_gradient_projection(problem, objective=objective)
        assert solution.diagnostics.converged
        # Max-min pushes the two utilities together more than sum does.
        sum_solution = solve_gradient_projection(problem)
        minmax_gap = np.ptp(solution.od_utilities)
        sum_gap = np.ptp(sum_solution.od_utilities)
        assert minmax_gap <= sum_gap + 1e-9


class TestPolakRibiere:
    def test_blending_does_not_change_optimum(self):
        problem = two_od_problem()
        with_pr = solve_gradient_projection(
            problem, options=GradientProjectionOptions(polak_ribiere=True)
        )
        without = solve_gradient_projection(
            problem, options=GradientProjectionOptions(polak_ribiere=False)
        )
        assert with_pr.objective_value == pytest.approx(
            without.objective_value, rel=1e-8
        )

    def test_options_validated(self):
        with pytest.raises(ValueError):
            GradientProjectionOptions(max_iterations=0)
        with pytest.raises(ValueError):
            GradientProjectionOptions(tolerance=0.0)


class TestWarmNewton:
    """Reduced-Newton warm path: an acceleration, never a semantics change."""

    def test_same_optimum_as_first_order(self, geant_problem):
        newton = solve_gradient_projection(
            geant_problem, options=GradientProjectionOptions(warm_newton=True)
        )
        plain = solve_gradient_projection(geant_problem)
        assert newton.diagnostics.converged
        assert newton.diagnostics.kkt is not None
        assert newton.diagnostics.kkt.satisfied
        assert newton.objective_value == pytest.approx(
            plain.objective_value, rel=1e-10
        )
        np.testing.assert_allclose(newton.rates, plain.rates, atol=1e-7)

    def test_warm_restart_converges_in_a_handful_of_iterations(
        self, geant_problem
    ):
        """The tentpole claim behind the streaming control plane.

        From a warm start near the optimum the first-order method still
        needs tens of iterations (linear convergence); the reduced-
        Newton direction gets there quadratically.
        """
        cold = solve_gradient_projection(geant_problem)
        perturbed = cold.rates * (
            1.0 + 1e-3 * np.sin(np.arange(cold.rates.size))
        )
        newton = solve_gradient_projection(
            geant_problem,
            options=GradientProjectionOptions(warm_newton=True),
            warm_start=perturbed,
        )
        assert newton.diagnostics.converged
        assert newton.diagnostics.iterations <= 8
        assert newton.objective_value == pytest.approx(
            cold.objective_value, rel=1e-10
        )

    def test_matches_first_order_on_random_problems(self):
        for seed in range(6):
            problem = make_random_problem(seed)
            newton = solve_gradient_projection(
                problem, options=GradientProjectionOptions(warm_newton=True)
            )
            plain = solve_gradient_projection(problem)
            assert newton.diagnostics.converged
            assert newton.objective_value == pytest.approx(
                plain.objective_value, rel=1e-8
            ), f"seed {seed}"

    def test_falls_back_without_curvature_weights(self):
        """Objectives without a separable Hessian use first-order steps."""
        problem = two_od_problem()
        cand = np.flatnonzero(problem.candidate_mask)
        objective = SoftMinUtilityObjective(
            problem.routing[:, cand], problem.utilities, temperature=0.01
        )
        solution = solve_gradient_projection(
            problem,
            objective=objective,
            options=GradientProjectionOptions(warm_newton=True),
        )
        assert solution.diagnostics.converged


def _paper_start(problem):
    """The lifted water-filling point: a warm start the solver keeps as is."""
    cand = problem.candidate_mask
    start = np.zeros(problem.num_links)
    start[cand] = initial_feasible_point(
        problem.link_loads_pps[cand], problem.alpha[cand],
        problem.theta_rate_pps,
    )
    return start


class TestProjectionArcStart:
    """Cold solves above ARC_MIN_CANDIDATES start from the projection arc."""

    def test_large_cold_solve_takes_the_arc_and_matches_the_paper_start(
        self,
    ):
        problem = hierarchical_routing_problem(
            16, 30, intra_pod_fraction=0.5, seed=3
        )
        assert problem.candidate_mask.sum() >= ARC_MIN_CANDIDATES
        with collecting_metrics() as registry:
            arc = solve_gradient_projection(problem)
            arc_steps = registry.counter("solver.gp.arc_steps")
            paper = solve_gradient_projection(
                problem, warm_start=_paper_start(problem)
            )
            assert registry.counter("solver.gp.arc_steps") == arc_steps
        assert arc_steps > 0
        assert arc.diagnostics.converged
        assert arc.diagnostics.kkt is not None and arc.diagnostics.kkt.satisfied
        assert paper.diagnostics.kkt.satisfied
        assert arc.objective_value == pytest.approx(
            paper.objective_value, rel=1e-9
        )
        assert arc.diagnostics.iterations < paper.diagnostics.iterations

    def test_geant_stays_on_the_paper_start(self, geant_problem):
        with collecting_metrics() as registry:
            solution = solve_gradient_projection(geant_problem)
            assert registry.counter("solver.gp.arc_steps") == 0
        paper = solve_gradient_projection(
            geant_problem, warm_start=_paper_start(geant_problem)
        )
        np.testing.assert_array_equal(solution.rates, paper.rates)
        assert solution.diagnostics.iterations == paper.diagnostics.iterations

    def test_wall_clock_limit_ends_the_phase_unconverged(self):
        problem = hierarchical_routing_problem(
            40, 60, intra_pod_fraction=1.0, seed=1
        )
        with collecting_metrics() as registry:
            solution = solve_gradient_projection(
                problem,
                options=GradientProjectionOptions(wall_clock_limit_s=0.01),
            )
            aborts = registry.counter("solver.gp.wall_clock_aborts")
        assert not solution.diagnostics.converged
        assert "wall-clock limit 0.01s exceeded" in solution.diagnostics.message
        assert aborts == 1


@pytest.fixture(scope="module")
def hier_1k():
    problem = hierarchical_routing_problem(
        16, 30, intra_pod_fraction=0.5, seed=3
    )
    assert problem.candidate_mask.sum() >= ARC_MIN_CANDIDATES
    assert problem.candidate_routing_op().backend == "sparse"
    return problem


def _counted_solve(problem, **kwargs):
    """A solve and the ``solver.gp.*`` counters it emitted."""
    with collecting_metrics(reset=True) as registry:
        solution = solve_gradient_projection(problem, **kwargs)
        counters = registry.snapshot()["counters"]
    return solution, counters


class TestNewtonFinish:
    """After the arc, cold solves finish with reduced-Newton steps."""

    def test_cold_solve_finishes_in_few_newton_iterations(self, hier_1k):
        finished, counters = _counted_solve(hier_1k)
        paper = solve_gradient_projection(
            hier_1k, warm_start=_paper_start(hier_1k)
        )
        assert counters["solver.gp.arc_steps"] > 0
        assert counters["solver.gp.newton_steps"] > 0
        assert "solver.gp.newton_fill_fallbacks" not in counters
        assert finished.diagnostics.iterations <= 30
        assert finished.diagnostics.kkt is not None
        assert finished.diagnostics.kkt.satisfied
        assert paper.diagnostics.kkt.satisfied
        assert finished.objective_value == pytest.approx(
            paper.objective_value, rel=1e-9
        )

    def test_fill_guard_falls_back_to_first_order_for_good(
        self, hier_1k, monkeypatch
    ):
        finished = solve_gradient_projection(hier_1k)
        monkeypatch.setattr(gradient_projection, "_NEWTON_MAX_FILL", 0.0)
        guarded, counters = _counted_solve(hier_1k)
        assert counters["solver.gp.newton_fill_fallbacks"] == 1
        assert counters["solver.gp.newton_steps"] == 0
        assert guarded.diagnostics.converged
        assert guarded.diagnostics.kkt.satisfied
        assert guarded.diagnostics.iterations > finished.diagnostics.iterations
        assert guarded.objective_value == pytest.approx(
            finished.objective_value, rel=1e-9
        )

    def test_dense_reduced_hessian_is_never_factored(
        self, hier_1k, monkeypatch
    ):
        # Sixteen parallel copies of every link: each OD row couples 16×
        # more columns, so H holds over 20× the entries of R_F.
        segmented = SamplingProblem(
            np.repeat(hier_1k.routing, 16, axis=1),
            np.repeat(hier_1k.link_loads_pps, 16),
            hier_1k.theta_packets,
            hier_1k.utilities,
            interval_seconds=hier_1k.interval_seconds,
        )

        def _no_factor():
            raise AssertionError("factored a reduced Hessian past the guard")

        monkeypatch.setattr(gradient_projection, "_splu", _no_factor)
        guarded, counters = _counted_solve(segmented)
        assert counters["solver.gp.arc_steps"] > 0
        assert counters["solver.gp.newton_fill_fallbacks"] == 1
        assert counters["solver.gp.newton_steps"] == 0
        assert guarded.diagnostics.kkt.satisfied

    def test_dense_operator_runs_the_dense_branch(self, hier_1k, monkeypatch):
        sparse = solve_gradient_projection(hier_1k)

        def _no_sparse_factor(*args):
            raise AssertionError("the dense operator reached SuperLU")

        monkeypatch.setattr(
            gradient_projection, "_sparse_reduced_solve", _no_sparse_factor
        )
        dense, counters = _counted_solve(
            hier_1k.with_routing_backend("dense")
        )
        assert counters["solver.gp.newton_steps"] > 0
        assert dense.diagnostics.kkt.satisfied
        assert dense.objective_value == pytest.approx(
            sparse.objective_value, rel=1e-9
        )

    def test_penalized_objective_uses_its_diagonal_shift(self, hier_1k):
        cand = np.flatnonzero(hier_1k.candidate_mask)
        start = _paper_start(hier_1k)
        base = SumUtilityObjective(
            hier_1k.candidate_routing_op(), hier_1k.utilities
        )

        def _penalized():
            return ReconfigurationPenaltyObjective(base, start[cand], 0.1)

        assert _penalized().hessian_diagonal_shift != 0.0
        finished, counters = _counted_solve(hier_1k, objective=_penalized())
        first_order = solve_gradient_projection(
            hier_1k, objective=_penalized(), warm_start=start
        )
        assert counters["solver.gp.arc_steps"] > 0
        assert counters["solver.gp.newton_steps"] > 0
        report = check_kkt(hier_1k, finished.rates, objective=_penalized())
        assert report.satisfied
        assert first_order.diagnostics.kkt.satisfied
        assert finished.objective_value == pytest.approx(
            first_order.objective_value, rel=1e-9
        )
