"""Tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import os
import select
import signal
import threading

import pytest

from repro.core import solve_batch, solve_gradient_projection
from repro.obs import (
    METRICS,
    MetricsRegistry,
    collecting_metrics,
    disable_metrics,
    get_metrics,
)

from conftest import make_random_problem


class TestRegistryBasics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.increment("a.b")
        registry.increment("a.b", 4)
        assert registry.counter("a.b") == 5

    def test_unknown_counter_is_zero(self):
        assert MetricsRegistry().counter("never.touched") == 0

    def test_gauge_keeps_latest(self):
        registry = MetricsRegistry()
        registry.gauge("pool.workers", 2)
        registry.gauge("pool.workers", 8)
        assert registry.snapshot()["gauges"]["pool.workers"] == 8

    def test_timer_counts_and_totals(self):
        registry = MetricsRegistry()
        registry.observe_timer("t", 0.5)
        registry.observe_timer("t", 1.5)
        stats = registry.snapshot()["timers"]["t"]
        assert stats["count"] == 2
        assert stats["total_s"] == pytest.approx(2.0)
        assert stats["mean_s"] == pytest.approx(1.0)

    def test_timer_context_manager_records(self):
        registry = MetricsRegistry()
        with registry.timer("scope"):
            pass
        stats = registry.snapshot()["timers"]["scope"]
        assert stats["count"] == 1
        assert stats["total_s"] >= 0.0

    def test_counters_prefix_filter(self):
        registry = MetricsRegistry()
        registry.increment("routing.matvec.dense")
        registry.increment("objective.rho.memo_hit")
        assert set(registry.counters("routing.")) == {"routing.matvec.dense"}

    def test_reset_clears_values_not_enablement(self):
        registry = MetricsRegistry()
        registry.increment("x")
        registry.reset()
        assert registry.counter("x") == 0
        assert registry.enabled


class TestDisabledFastPath:
    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.increment("x")
        registry.gauge("g", 1.0)
        registry.observe_timer("t", 1.0)
        with registry.timer("scope"):
            pass
        snap = registry.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["timers"] == {}

    def test_global_registry_disabled_by_default(self):
        # The hot path must pay nothing unless a caller opts in.
        assert not get_metrics().enabled

    def test_disabled_timer_is_shared_noop(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.timer("a") is registry.timer("b")


class TestCollectingMetrics:
    def test_scope_enables_then_restores(self):
        assert not get_metrics().enabled
        with collecting_metrics() as registry:
            assert registry is get_metrics()
            assert registry.enabled
            registry.increment("inside")
            assert registry.counter("inside") == 1
        assert not get_metrics().enabled

    def test_reset_on_entry(self):
        registry = get_metrics()
        registry.enable()
        registry.increment("stale")
        try:
            with collecting_metrics(reset=True) as fresh:
                assert fresh.counter("stale") == 0
        finally:
            disable_metrics()
            registry.reset()


class TestThreadSafety:
    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        threads = 8
        per_thread = 2_000
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                registry.increment("contested")
                registry.observe_timer("t", 0.001)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert registry.counter("contested") == threads * per_thread
        assert registry.snapshot()["timers"]["t"]["count"] == threads * per_thread

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_forked_under_held_lock_can_snapshot(self):
        # A pool worker forked while another thread holds the registry
        # lock must not inherit it held.
        held, release = threading.Event(), threading.Event()

        def hold():
            with METRICS._lock:
                held.set()
                release.wait()

        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(5.0)
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:  # child: the holder thread did not survive
                try:
                    METRICS.snapshot()
                    os.write(write_fd, b"ok")
                finally:
                    os._exit(0)
        finally:
            release.set()
            holder.join(5.0)
        assert not holder.is_alive()
        os.close(write_fd)
        ready, _, _ = select.select([read_fd], [], [], 5.0)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        answer = os.read(read_fd, 2) if ready else b""
        os.close(read_fd)
        assert answer == b"ok", "child blocked in snapshot() for 5 s"


class TestSolverInstrumentation:
    def test_solve_records_counters(self):
        problem = make_random_problem(3)
        with collecting_metrics() as registry:
            solution = solve_gradient_projection(problem)
            counters = registry.snapshot()["counters"]
        assert solution.diagnostics.converged
        assert counters["solver.gp.solves"] == 1
        assert counters["solver.gp.iterations"] == solution.diagnostics.iterations
        # Every iteration evaluates rho at least once via the memo.
        total_rho = counters.get("objective.rho.memo_hit", 0) + counters.get(
            "objective.rho.memo_miss", 0
        )
        assert total_rho >= solution.diagnostics.iterations

    def test_pool_fanout_recorded_on_parent(self):
        problems = [make_random_problem(seed) for seed in (11, 12, 13, 14)]
        with collecting_metrics() as registry:
            solutions = solve_batch(problems, processes=2)
            counters = registry.snapshot()["counters"]
        assert all(s.diagnostics.converged for s in solutions)
        # The parent records the dispatch fan-out, and worker-side
        # counts merge back: one solver.gp.solves per pooled task.
        assert counters["batch.pool.tasks"] == len(problems)
        assert counters["batch.pool.dispatches"] == 1
        assert counters["solver.gp.solves"] == len(problems)

    def test_sequential_batch_counts_tasks(self):
        problems = [make_random_problem(seed) for seed in (21, 22)]
        with collecting_metrics() as registry:
            solve_batch(problems, processes=1)
            counters = registry.snapshot()["counters"]
        assert counters["batch.sequential.tasks"] == 2
        assert counters["solver.gp.solves"] == 2


class TestHistograms:
    def test_quantiles_interpolate_within_buckets(self):
        registry = MetricsRegistry()
        for _ in range(100):
            registry.observe_histogram("h", 0.003)
        record = registry.snapshot()["histograms"]["h"]
        assert record["count"] == 100
        assert record["sum_s"] == pytest.approx(0.3)
        # Every sample landed in the (0.0025, 0.005] bucket, so every
        # quantile interpolates inside it.
        for q in ("p50", "p95", "p99"):
            assert 0.0025 <= record[q] <= 0.005

    def test_overflow_bucket_clamps_to_last_bound(self):
        from repro.obs.metrics import HISTOGRAM_BUCKETS

        registry = MetricsRegistry()
        registry.observe_histogram("h", 10 * HISTOGRAM_BUCKETS[-1])
        record = registry.snapshot()["histograms"]["h"]
        assert record["buckets"][-1] == 1
        assert record["p99"] == pytest.approx(HISTOGRAM_BUCKETS[-1])

    def test_disabled_histogram_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.observe_histogram("h", 1.0)
        assert registry.snapshot()["histograms"] == {}

    def test_timer_pairs_count_counter(self):
        registry = MetricsRegistry()
        registry.observe_timer("solver.wall", 0.5)
        registry.observe_timer("solver.wall", 0.5)
        assert registry.counter("solver.wall.count") == 2

    def test_reset_clears_histograms(self):
        registry = MetricsRegistry()
        registry.observe_histogram("h", 0.01)
        registry.reset()
        assert registry.snapshot()["histograms"] == {}


class TestSnapshotAlgebra:
    def _snap(self, **counters):
        registry = MetricsRegistry()
        for name, value in counters.items():
            registry.increment(name, value)
        return registry.snapshot()

    def test_diff_subtracts_counters_and_histograms(self):
        from repro.obs.metrics import diff_snapshots

        registry = MetricsRegistry()
        registry.increment("c", 2)
        registry.observe_histogram("h", 0.01)
        before = registry.snapshot()
        registry.increment("c", 3)
        registry.observe_histogram("h", 0.02)
        delta = diff_snapshots(registry.snapshot(), before)
        assert delta["counters"] == {"c": 3}
        assert delta["histograms"]["h"]["count"] == 1

    def test_diff_against_none_is_identity(self):
        from repro.obs.metrics import diff_snapshots

        snap = self._snap(a=4)
        assert diff_snapshots(snap, None)["counters"] == {"a": 4}

    def test_merge_adds_counters_and_timers(self):
        registry = MetricsRegistry()
        registry.increment("c", 1)
        registry.observe_timer("t", 1.0)
        registry.observe_histogram("h", 0.01)
        delta = registry.snapshot()
        target = MetricsRegistry()
        target.increment("c", 1)
        target.merge_snapshot(delta)
        merged = target.snapshot()
        assert merged["counters"]["c"] == 2
        assert merged["timers"]["t"]["count"] == 1
        assert merged["histograms"]["h"]["count"] == 1

    def test_merge_into_disabled_registry_is_noop(self):
        target = MetricsRegistry(enabled=False)
        target.merge_snapshot(self._snap(c=5))
        assert target.snapshot()["counters"] == {}

    def test_merge_skips_mismatched_bucket_layout(self):
        registry = MetricsRegistry()
        registry.observe_histogram("h", 0.01)
        delta = registry.snapshot()
        delta["histograms"]["h"]["buckets"] = [1, 2]  # wrong arity
        target = MetricsRegistry()
        target.merge_snapshot(delta)
        assert "h" not in target.snapshot()["histograms"]


class TestPrometheusExposition:
    def test_renders_all_families(self):
        from repro.obs.metrics import render_prometheus

        registry = MetricsRegistry()
        registry.increment("batch.pool.tasks", 4)
        registry.gauge("pool.workers", 2)
        registry.observe_timer("solver.gp.wall_time", 0.5)
        registry.observe_histogram("solver.gp.solve_seconds", 0.05)
        text = render_prometheus(registry.snapshot())
        assert "repro_batch_pool_tasks_total 4" in text
        assert "repro_pool_workers 2" in text
        assert "repro_solver_gp_wall_time_seconds_count 1" in text
        assert 'le="+Inf"' in text

    def test_histogram_buckets_are_cumulative(self):
        from repro.obs.metrics import HISTOGRAM_BUCKETS, render_prometheus

        registry = MetricsRegistry()
        registry.observe_histogram("h", 0.0002)
        registry.observe_histogram("h", 0.04)
        lines = [
            line
            for line in render_prometheus(registry.snapshot()).splitlines()
            if line.startswith("repro_h_seconds_bucket")
        ]
        counts = [float(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 2  # the +Inf bucket sees everything
        assert len(lines) == len(HISTOGRAM_BUCKETS) + 1

    def test_metric_names_sanitized(self):
        from repro.obs.metrics import render_prometheus

        registry = MetricsRegistry()
        registry.increment("weird.name-with/chars", 1)
        text = render_prometheus(registry.snapshot())
        assert "repro_weird_name_with_chars_total 1" in text
