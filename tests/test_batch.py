"""Tests for warm-started chains, θ sweeps and parallel batches.

Warm starting is an acceleration, never a semantics change: every test
here pins the warm path to the cold path's optimum, and the sweep
tests additionally pin the iteration savings that justify the chain.
"""

import numpy as np
import pytest

from repro import LogUtility, SamplingProblem, janet_task
from repro.core import (
    GradientProjectionOptions,
    WarmStartChain,
    solve_batch,
    solve_chain,
    solve_gradient_projection,
    solve_theta_sweep,
)
from repro.obs import collecting_metrics
from repro.traffic.dynamics import fail_link, scale_diurnal

THETAS = [30_000.0, 60_000.0, 120_000.0, 240_000.0]


class TestThetaSweep:
    def test_warm_matches_cold_optimum(self, geant_problem):
        warm = solve_theta_sweep(geant_problem, THETAS, warm_start=True)
        cold = solve_theta_sweep(geant_problem, THETAS, warm_start=False)
        assert len(warm) == len(THETAS)
        for w, c in zip(warm, cold):
            assert w.diagnostics.converged and c.diagnostics.converged
            assert w.objective_value == pytest.approx(
                c.objective_value, rel=1e-8
            )
            np.testing.assert_allclose(w.rates, c.rates, atol=1e-6)

    def test_warm_start_saves_iterations(self, geant_problem):
        warm = solve_theta_sweep(geant_problem, THETAS, warm_start=True)
        cold = solve_theta_sweep(geant_problem, THETAS, warm_start=False)
        assert sum(s.diagnostics.iterations for s in warm) < sum(
            s.diagnostics.iterations for s in cold
        )

    def test_rejects_nonpositive_theta(self, geant_problem):
        with pytest.raises(ValueError, match="positive"):
            solve_theta_sweep(geant_problem, [50_000.0, 0.0])

    def test_unclamped_sweep_keeps_theta(self, geant_problem):
        solutions = solve_theta_sweep(geant_problem, THETAS[:2], clamp=False)
        assert len(solutions) == 2


class TestWarmStartChain:
    def test_chain_reaches_cold_optimum(self, geant_problem):
        chain = WarmStartChain()
        first = chain.solve(geant_problem)
        again = chain.solve(geant_problem)
        reference = solve_gradient_projection(geant_problem)
        assert again.objective_value == pytest.approx(
            reference.objective_value, rel=1e-9
        )
        np.testing.assert_allclose(again.rates, reference.rates, atol=1e-7)
        # The second solve starts at the optimum: it must converge in
        # (nearly) no iterations.
        assert again.diagnostics.iterations < first.diagnostics.iterations

    def test_topology_change_cold_starts(self, geant_task):
        theta = 100_000.0
        chain = WarmStartChain()
        chain.solve(SamplingProblem.from_task(geant_task, theta))
        assert chain.previous_rates is not None
        failed = fail_link(geant_task, "UK", "FR")
        solution = chain.solve(
            SamplingProblem.from_task(failed, theta).clamped()
        )
        assert solution.diagnostics.converged
        reference = solve_gradient_projection(
            SamplingProblem.from_task(failed, theta).clamped()
        )
        assert solution.objective_value == pytest.approx(
            reference.objective_value, rel=1e-8
        )

    def test_stale_warm_start_detected_by_fingerprint(self, geant_task):
        """A rerouting that keeps every size must still cold-start.

        This is the regression the fingerprint exists for: swapping two
        routing columns preserves the link count, the OD count and even
        the nnz, so any shape- or density-based check would silently
        reuse the stale optimum.  Only the content digest can tell.
        """
        theta = 100_000.0
        healthy = SamplingProblem.from_task(geant_task, theta)
        routing = healthy.routing_op.toarray()
        j, k = 0, next(
            i for i in range(1, routing.shape[1])
            if not np.array_equal(routing[:, i], routing[:, 0])
        )
        swapped = routing.copy()
        swapped[:, [j, k]] = swapped[:, [k, j]]
        rerouted = SamplingProblem(
            swapped, healthy.link_loads_pps, theta, healthy.utilities
        )
        assert rerouted.num_links == healthy.num_links
        chain = WarmStartChain()
        with collecting_metrics() as metrics:
            chain.solve(healthy)
            chain.solve(rerouted)
        counters = metrics.counters()
        assert counters.get("batch.warm_start.stale", 0) == 1
        assert counters.get("batch.warm_start.hit", 0) == 0

    def test_theta_change_keeps_warm_start(self, geant_problem):
        chain = WarmStartChain()
        with collecting_metrics() as metrics:
            chain.solve(geant_problem)
            chain.solve(
                geant_problem.with_theta(0.5 * geant_problem.theta_packets)
            )
        counters = metrics.counters()
        assert counters.get("batch.warm_start.hit", 0) == 1
        assert counters.get("batch.warm_start.stale", 0) == 0

    def test_diurnal_load_drift_keeps_warm_start(self, geant_task):
        """Load *levels* are not part of the fingerprint.

        A warm start is only an initial point — the solver projects it
        onto the new feasible set — so per-interval load drift (the
        adaptive controller's normal regime) must not cold-start.
        """
        theta = 100_000.0
        chain = WarmStartChain()
        with collecting_metrics() as metrics:
            chain.solve(SamplingProblem.from_task(geant_task, theta))
            chain.solve(
                SamplingProblem.from_task(
                    scale_diurnal(geant_task, 9.0), theta
                ).clamped()
            )
        counters = metrics.counters()
        assert counters.get("batch.warm_start.hit", 0) == 1
        assert counters.get("batch.warm_start.stale", 0) == 0

    def test_failed_member_preserves_prefailure_warm_start(
        self, geant_problem, chain_task
    ):
        """Regression: a raising member must not disturb the chain.

        The adaptive controller's hold-on-failure path swallows the
        exception and plans the next interval with the same chain; the
        chain must still describe the last *good* optimum so that
        re-entry is a warm start from the pre-failure point.
        """
        chain = WarmStartChain()
        good = chain.solve(geant_problem)
        infeasible = SamplingProblem.from_task(chain_task, 1e15)
        with pytest.raises(ValueError, match="exceeds the maximum absorbable"):
            chain.solve(infeasible)
        np.testing.assert_array_equal(chain.previous_rates, good.rates)
        with collecting_metrics() as metrics:
            again = chain.solve(geant_problem)
        assert chain.last_solve_warm
        assert metrics.counters().get("batch.warm_start.hit", 0) == 1
        assert again.diagnostics.converged
        np.testing.assert_allclose(again.rates, good.rates, atol=1e-7)

    def test_failed_member_does_not_poison_fingerprint(
        self, geant_problem, chain_task
    ):
        """Regression: fingerprint and rates must commit as a pair.

        Committing the fingerprint *before* a member solve meant that a
        raising member left the chain holding (old rates, new
        fingerprint) — a later problem with the failed member's
        structure would then warm-start from rates produced under a
        different structure.  After the fix it must solve cold.
        """
        chain = WarmStartChain()
        chain.solve(geant_problem)
        with pytest.raises(ValueError, match="exceeds the maximum absorbable"):
            chain.solve(SamplingProblem.from_task(chain_task, 1e15))
        valid = SamplingProblem.from_task(chain_task, 10_000.0).clamped()
        solution = chain.solve(valid)
        assert not chain.last_solve_warm
        assert solution.diagnostics.converged
        reference = solve_gradient_projection(valid)
        assert solution.objective_value == pytest.approx(
            reference.objective_value, rel=1e-9
        )

    def test_seed_primes_warm_start(self, geant_problem):
        cold = solve_gradient_projection(geant_problem)
        chain = WarmStartChain()
        chain.seed(geant_problem, cold.rates)
        with collecting_metrics() as metrics:
            solution = chain.solve(geant_problem)
        assert chain.last_solve_warm
        assert metrics.counters().get("batch.warm_start.hit", 0) == 1
        assert solution.diagnostics.iterations < cold.diagnostics.iterations

    def test_warm_solves_observe_iteration_histogram(self, geant_problem):
        """Warm solves publish ``solver.gp.warm_iterations``.

        The streaming benchmark gates on this histogram's p95; it must
        count exactly the warm-started solves (the cold first member
        contributes nothing).
        """
        chain = WarmStartChain(
            options=GradientProjectionOptions(warm_newton=True)
        )
        with collecting_metrics() as metrics:
            chain.solve(geant_problem)
            chain.solve(geant_problem)
            chain.solve(geant_problem)
            snapshot = metrics.snapshot()
        histogram = snapshot["histograms"]["solver.gp.warm_iterations"]
        assert histogram["count"] == 2
        # Warm re-solves of an unchanged problem terminate in a couple
        # of iterations; the histogram must reflect that.
        assert histogram["sum_s"] <= 2 * 10

    def test_presolve_chain_matches_plain_chain(self, geant_problem):
        problems = [
            geant_problem.with_theta(theta).clamped() for theta in THETAS
        ]
        plain = solve_chain(problems)
        reduced = solve_chain(problems, presolve=True)
        for p, r in zip(plain, reduced):
            assert r.objective_value == pytest.approx(
                p.objective_value, rel=1e-9
            )
            np.testing.assert_allclose(r.rates, p.rates, atol=1e-6)

    def test_reset_forgets_state(self, geant_problem):
        chain = WarmStartChain()
        chain.solve(geant_problem)
        chain.reset()
        assert chain.previous_rates is None

    def test_non_gradient_method_never_warm_starts(self, geant_problem):
        pytest.importorskip("scipy")
        chain = WarmStartChain(method="slsqp")
        solution = chain.solve(geant_problem)
        assert chain.previous_rates is not None
        assert solution.rates.shape == (geant_problem.num_links,)

    def test_respects_solver_options(self, geant_problem):
        options = GradientProjectionOptions(max_iterations=3)
        chain = WarmStartChain(options=options)
        solution = chain.solve(geant_problem)
        assert solution.diagnostics.iterations <= 3


class TestSolveChain:
    def test_chain_over_diurnal_tasks(self, geant_task):
        theta = 100_000.0
        problems = [
            SamplingProblem.from_task(
                scale_diurnal(geant_task, hour), theta
            ).clamped()
            for hour in (3.0, 9.0, 15.0)
        ]
        chained = solve_chain(problems)
        independent = [solve_gradient_projection(p) for p in problems]
        for c, ref in zip(chained, independent):
            assert c.objective_value == pytest.approx(
                ref.objective_value, rel=1e-8
            )


class TestSolveBatch:
    def test_sequential_matches_chainless_solves(self, geant_problem):
        problems = [
            geant_problem.with_theta(theta).clamped() for theta in THETAS[:2]
        ]
        batch = solve_batch(problems)
        for solution, problem in zip(batch, problems):
            reference = solve_gradient_projection(problem)
            assert solution.objective_value == pytest.approx(
                reference.objective_value, rel=1e-10
            )

    @staticmethod
    def _family(theta: float = 100_000.0) -> list[SamplingProblem]:
        # Three problems: enough to clear the inline-batch threshold so
        # the pool genuinely spawns workers.
        task = janet_task()
        return [
            SamplingProblem.from_task(task, theta),
            SamplingProblem.from_task(scale_diurnal(task, 3.0), theta).clamped(),
            SamplingProblem.from_task(scale_diurnal(task, 15.0), theta).clamped(),
        ]

    def test_process_pool_matches_sequential(self):
        problems = self._family()
        sequential = solve_batch(problems, processes=1)
        parallel = solve_batch(problems, processes=2)
        for seq, par in zip(sequential, parallel):
            np.testing.assert_allclose(par.rates, seq.rates, atol=1e-12)
            assert par.objective_value == pytest.approx(
                seq.objective_value, rel=1e-12
            )

    def test_pool_solutions_bind_original_problems(self):
        problems = self._family()
        solutions = solve_batch(problems, processes=2)
        for solution, problem in zip(solutions, problems):
            assert solution.problem is problem

    def test_heterogeneous_utilities_fall_back_to_pickle(self):
        base = self._family()
        logs = SamplingProblem(
            routing=base[0].routing_op.toarray(),
            link_loads_pps=base[0].link_loads_pps,
            theta_packets=base[0].theta_packets,
            utilities=[LogUtility() for _ in range(base[0].num_od_pairs)],
        )
        problems = [*base[:2], logs]
        solutions = solve_batch(problems, processes=2)
        for solution, problem in zip(solutions, problems):
            reference = solve_gradient_projection(problem)
            assert solution.objective_value == pytest.approx(
                reference.objective_value, rel=1e-9
            )

    def test_small_batches_run_inline(self, geant_problem):
        problems = [
            geant_problem.with_theta(theta).clamped() for theta in THETAS[:2]
        ]
        with collecting_metrics() as metrics:
            solutions = solve_batch(problems, processes=4)
        counters = metrics.counters()
        assert len(solutions) == 2
        assert counters.get("batch.sequential.tasks", 0) == 2
        assert counters.get("batch.pool.tasks", 0) == 0

    def test_single_problem_skips_pool(self, geant_problem):
        solutions = solve_batch([geant_problem], processes=8)
        assert len(solutions) == 1
        assert solutions[0].diagnostics.converged

    def test_default_processes_inline_on_small_hosts(self, geant_problem):
        # processes=None sizes the pool to min(cpu_count, len(problems));
        # whatever the host, the call must succeed and match references.
        problems = [
            geant_problem.with_theta(theta).clamped() for theta in THETAS[:3]
        ]
        solutions = solve_batch(problems)
        for solution, problem in zip(solutions, problems):
            reference = solve_gradient_projection(problem)
            assert solution.objective_value == pytest.approx(
                reference.objective_value, rel=1e-10
            )

    def test_batch_presolve_matches_reference(self):
        problems = self._family()
        solutions = solve_batch(problems, presolve=True)
        for solution, problem in zip(solutions, problems):
            reference = solve_gradient_projection(problem)
            assert solution.objective_value == pytest.approx(
                reference.objective_value, rel=1e-9
            )


class TestMaxProcessesEnv:
    """The REPRO_MAX_PROCESSES cap on solve_batch's default pool size."""

    def test_env_caps_default(self, monkeypatch):
        from repro.core.batch import MAX_PROCESSES_ENV, _default_processes

        monkeypatch.delenv(MAX_PROCESSES_ENV, raising=False)
        uncapped = _default_processes(64)
        monkeypatch.setenv(MAX_PROCESSES_ENV, "1")
        assert _default_processes(64) == 1
        monkeypatch.setenv(MAX_PROCESSES_ENV, "10000")
        assert _default_processes(64) == uncapped

    def test_invalid_env_ignored_and_counted(self, monkeypatch):
        from repro.core.batch import MAX_PROCESSES_ENV, _default_processes

        monkeypatch.delenv(MAX_PROCESSES_ENV, raising=False)
        uncapped = _default_processes(64)
        for bad in ("zero", "", "0", "-3"):
            monkeypatch.setenv(MAX_PROCESSES_ENV, bad)
            with collecting_metrics(reset=True) as registry:
                assert _default_processes(64) == uncapped
                counters = registry.snapshot()["counters"]
            assert counters["batch.env_cap.invalid"] == 1

    def test_capped_batch_still_correct(self, geant_problem, monkeypatch):
        from repro.core.batch import MAX_PROCESSES_ENV

        problems = [
            geant_problem.with_theta(theta).clamped() for theta in THETAS[:3]
        ]
        monkeypatch.setenv(MAX_PROCESSES_ENV, "1")
        solutions = solve_batch(problems)
        for solution, problem in zip(solutions, problems):
            reference = solve_gradient_projection(problem)
            assert solution.objective_value == pytest.approx(
                reference.objective_value, rel=1e-10
            )

    def test_explicit_processes_ignores_cap(self, geant_problem, monkeypatch):
        from repro.core.batch import MAX_PROCESSES_ENV

        # The cap only flows through the *default*; explicit callers
        # pick their own worker count at the solve_batch call site.
        problems = [
            geant_problem.with_theta(theta).clamped() for theta in THETAS[:3]
        ]
        monkeypatch.setenv(MAX_PROCESSES_ENV, "1")
        with collecting_metrics(reset=True) as registry:
            solve_batch(problems, processes=2)
            snapshot = registry.snapshot()
        assert snapshot["gauges"]["batch.pool.workers"] == 2

    def test_cap_applied_counter(self, monkeypatch):
        from repro.core.batch import MAX_PROCESSES_ENV, _default_processes

        import os

        if (os.cpu_count() or 1) < 2:  # pragma: no cover - 1-cpu hosts
            pytest.skip("host has a single CPU; cap never binds")
        monkeypatch.setenv(MAX_PROCESSES_ENV, "1")
        with collecting_metrics(reset=True) as registry:
            _default_processes(64)
            counters = registry.snapshot()["counters"]
        assert counters["batch.env_cap.applied"] == 1
