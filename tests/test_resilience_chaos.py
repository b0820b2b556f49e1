"""Chaos tests: injected worker deaths and failing pool tasks.

These exercise the crash-safe pool end to end with *real* process
deaths (``os._exit`` in a worker, indistinguishable from a SIGKILL)
and verify the two survival properties: results identical to the
unfaulted run, and bounded degradation when faults persist.
"""

import numpy as np
import pytest

from repro import SamplingProblem, solve_batch
from repro.cli import main
from repro.core import batch
from repro.obs import collecting_metrics
from repro.resilience.faults import (
    SITE_WORKER_EXIT,
    FaultPlan,
    FaultSpec,
    clear_faults,
    injected_faults,
)

THETAS = [500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_faults()
    yield
    clear_faults()


@pytest.fixture()
def batch_problems(chain_task) -> list[SamplingProblem]:
    base = SamplingProblem.from_task(chain_task, theta_packets=2000.0)
    return [base.with_theta(theta).clamped() for theta in THETAS]


def _kill_plan(index: int) -> FaultPlan:
    return FaultPlan(
        specs=(
            FaultSpec(
                site=SITE_WORKER_EXIT, hits=frozenset({index}), key="index"
            ),
        )
    )


class TestWorkerDeath:
    def test_killed_worker_mid_batch_recovers_exact_results(
        self, batch_problems
    ):
        baseline = solve_batch(batch_problems, processes=1)
        with injected_faults(_kill_plan(2)), collecting_metrics() as reg:
            survived = solve_batch(batch_problems, processes=3)
            counters = reg.snapshot()["counters"]
        assert counters["resilience.pool.broken"] >= 1
        assert counters["resilience.pool.requeued"] >= 1
        for a, b in zip(baseline, survived):
            np.testing.assert_array_equal(a.rates, b.rates)
            assert b.diagnostics.converged

    def test_exhausted_pool_budget_degrades_to_inline(self, batch_problems):
        baseline = solve_batch(batch_problems, processes=1)
        with injected_faults(_kill_plan(0)), collecting_metrics() as reg:
            survived = solve_batch(
                batch_problems, processes=3, max_pool_restarts=0
            )
            counters = reg.snapshot()["counters"]
        assert counters["resilience.pool.broken"] == 1
        assert counters["resilience.pool.inline_degraded"] == 1
        for a, b in zip(baseline, survived):
            np.testing.assert_array_equal(a.rates, b.rates)


class TestTaskFailure:
    def test_raising_task_falls_back_inline(self, batch_problems, monkeypatch):
        def broken(payload):
            raise RuntimeError("worker-side failure")

        # Forked workers inherit the patched task body; the parent's
        # inline recovery path calls the solver directly.
        monkeypatch.setattr(batch, "_solve_task", broken)
        baseline = solve_batch(batch_problems, processes=1)
        with collecting_metrics() as reg:
            survived = solve_batch(
                batch_problems, processes=3, task_retries=0,
                start_method="fork",
            )
            counters = reg.snapshot()["counters"]
        assert counters["resilience.task.inline"] == len(batch_problems)
        for a, b in zip(baseline, survived):
            np.testing.assert_array_equal(a.rates, b.rates)


class TestChaosCli:
    def test_chaos_sweep_passes_end_to_end(self, capsys):
        code = main(
            [
                "sweep",
                "--topology", "abilene",
                "--od", "NYC:LAX:5000",
                "--od", "SEA:ATL:300",
                "--background", "200000",
                "--seed", "7",
                "--theta-min", "100",
                "--theta-max", "5000",
                "--points", "5",
                "--chaos",
                "--timeout", "1.0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "resilience.pool.broken = 1" in out
