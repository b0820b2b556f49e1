"""Admission control, deadlines, degradation and drain for the daemon.

Unit tests drive :mod:`repro.serve.admission` with injected clocks;
end-to-end tests run a real daemon (:class:`ServerThread`) and stage
overload, deadline pressure and drain deterministically through the
chaos fault sites — no timing-sensitive load generation.  The SIGTERM
test runs the daemon as a real subprocess and asserts the full drain
contract: in-flight work completes, the journal is fsynced, and a
restarted daemon answers warm from the replay.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.resilience.faults import (
    SITE_SERVE_QUEUE_FULL,
    SITE_SERVE_SLOW_SOLVE,
    SITE_SOLVE_RAISE,
    FaultPlan,
    FaultSpec,
    injected_faults,
)
from repro.serve import (
    AdmissionController,
    Deadline,
    DeadlineExceededError,
    OverloadedError,
    ServeClient,
    ServeConnectionError,
    ServeRequestError,
    ServerConfig,
    ServerThread,
    daemon_available,
)

SOLVE = {"theta": 100000.0}


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _config(tmp_path, **overrides) -> ServerConfig:
    defaults = dict(socket_path=str(tmp_path / "ns.sock"), ttl_s=300.0)
    defaults.update(overrides)
    return ServerConfig(**defaults)


def _client(config: ServerConfig, **kwargs) -> ServeClient:
    return ServeClient(config.socket_path, **kwargs)


def _poll(predicate, timeout_s: float = 15.0, interval_s: float = 0.01):
    """Poll ``predicate`` until truthy; its last value, or fail."""
    end = time.monotonic() + timeout_s
    while time.monotonic() < end:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError("condition not reached in time")


class TestAdmissionController:
    def test_admits_until_the_high_watermark(self):
        ctl = AdmissionController(high_watermark=3)
        for _ in range(3):
            ctl.try_admit()
        with pytest.raises(OverloadedError):
            ctl.try_admit()
        assert ctl.pending == 3
        assert ctl.shedding is True

    def test_hysteresis_sheds_until_below_the_low_watermark(self):
        ctl = AdmissionController(high_watermark=4, low_watermark=2)
        for _ in range(4):
            ctl.try_admit()
        with pytest.raises(OverloadedError):
            ctl.try_admit()
        # Draining to the low watermark is not enough: shedding only
        # clears strictly below it.
        ctl.release()
        ctl.release()
        with pytest.raises(OverloadedError):
            ctl.try_admit()
        ctl.release()  # pending 1 < low 2 -> clear
        ctl.try_admit()
        assert ctl.shedding is False

    def test_retry_hint_scales_with_backlog_depth(self):
        ctl = AdmissionController(
            high_watermark=4, low_watermark=2, retry_after_ms=10.0
        )
        for _ in range(4):
            ctl.try_admit()
        with pytest.raises(OverloadedError) as excinfo:
            ctl.try_admit()
        assert excinfo.value.retry_after_ms == pytest.approx(10.0 * 4 / 2)

    def test_release_never_goes_negative(self):
        ctl = AdmissionController(high_watermark=2)
        ctl.release()
        assert ctl.pending == 0

    def test_snapshot_reports_watermarks(self):
        ctl = AdmissionController(high_watermark=8)
        ctl.try_admit()
        snap = ctl.snapshot()
        assert snap == {
            "pending": 1,
            "shedding": False,
            "high_watermark": 8,
            "low_watermark": 4,
        }

    def test_rejects_bad_watermarks(self):
        with pytest.raises(ValueError):
            AdmissionController(high_watermark=0)
        with pytest.raises(ValueError):
            AdmissionController(high_watermark=2, low_watermark=3)
        with pytest.raises(ValueError):
            AdmissionController(high_watermark=2, retry_after_ms=0)

    def test_injected_queue_full_sheds_without_load(self):
        plan = FaultPlan(
            specs=(FaultSpec(SITE_SERVE_QUEUE_FULL, hits={0}),)
        )
        ctl = AdmissionController(high_watermark=64)
        with injected_faults(plan):
            with pytest.raises(OverloadedError) as excinfo:
                ctl.try_admit()
            assert excinfo.value.retry_after_ms > 0
            ctl.try_admit()  # only occurrence 0 fires
        assert ctl.pending == 1


class TestDeadline:
    def test_budget_spends_against_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert not deadline.expired
        clock.advance(1.5)
        assert deadline.remaining_s == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.expired

    def test_to_error_carries_elapsed_and_budget(self):
        clock = FakeClock()
        deadline = Deadline(0.25, clock=clock)
        clock.advance(0.4)
        error = deadline.to_error()
        assert isinstance(error, DeadlineExceededError)
        assert error.elapsed_ms == pytest.approx(400.0)
        assert error.budget_ms == pytest.approx(250.0)
        assert "400.0 ms" in str(error)

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestOverloadE2E:
    def test_injected_queue_full_returns_structured_overloaded(
        self, tmp_path
    ):
        config = _config(tmp_path)
        plan = FaultPlan(
            specs=(FaultSpec(SITE_SERVE_QUEUE_FULL, hits={0}),)
        )
        with ServerThread(config), injected_faults(plan):
            client = _client(config)
            with pytest.raises(ServeRequestError) as excinfo:
                client.request("solve", SOLVE)
            assert excinfo.value.kind == "overloaded"
            assert excinfo.value.retry_after_ms > 0
            # The shed is not an unstructured failure, and the daemon
            # recovers as soon as the pressure clears.
            recovered = client.request("solve", SOLVE)
            stats = client.result("stats")
        assert recovered["result"]["converged"] is True
        assert stats["counters"]["serve.admission.shed"] == 1
        assert "serve.request.errors" not in stats["counters"]

    def test_real_backlog_past_the_watermark_sheds(self, tmp_path):
        # One solve slot; the first solve hangs on the injected slow
        # site, so the concurrent second distinct solve must shed.
        config = _config(tmp_path, max_pending=1, low_watermark=1)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    SITE_SERVE_SLOW_SOLVE, hits={0}, hang_seconds=1.5
                ),
            )
        )
        outcomes: list[object] = []

        def _ask(theta: float) -> None:
            try:
                outcomes.append(_client(config).request(
                    "solve", {"theta": theta}
                ))
            except ServeRequestError as exc:
                outcomes.append(exc)

        with ServerThread(config), injected_faults(plan):
            first = threading.Thread(target=_ask, args=(1e5,))
            first.start()
            _poll(lambda: _client(config).result("stats")["admission"][
                "pending"] >= 1)
            second = threading.Thread(target=_ask, args=(2e5,))
            second.start()
            first.join()
            second.join()
            health = _client(config).result("health")
        sheds = [o for o in outcomes if isinstance(o, ServeRequestError)]
        served = [o for o in outcomes if isinstance(o, dict)]
        assert len(sheds) == 1 and len(served) == 1
        assert sheds[0].kind == "overloaded"
        assert sheds[0].retry_after_ms > 0
        assert served[0]["result"]["converged"] is True
        assert health["status"] in ("ok", "shedding")

    def test_cache_hits_are_never_shed_during_overload(self, tmp_path):
        config = _config(tmp_path, max_pending=1, low_watermark=1)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    SITE_SERVE_SLOW_SOLVE, hits={1}, hang_seconds=1.5
                ),
            )
        )
        with ServerThread(config), injected_faults(plan):
            client = _client(config)
            client.request("solve", SOLVE)  # occurrence 0: fills cache
            slow = threading.Thread(
                target=lambda: _client(config).request(
                    "solve", {"theta": 2e5}
                ),
            )
            slow.start()  # occurrence 1 hangs, saturating admission
            _poll(lambda: client.result("stats")["admission"][
                "pending"] >= 1)
            hit = client.request("solve", SOLVE)
            slow.join()
        assert hit["cache"] == "hit"

    def test_client_retry_honors_the_hint_and_recovers(self, tmp_path):
        config = _config(tmp_path)
        plan = FaultPlan(
            specs=(FaultSpec(SITE_SERVE_QUEUE_FULL, hits={0, 1}),)
        )
        with ServerThread(config), injected_faults(plan):
            client = _client(
                config, max_retries=3, retry_seed=7, backoff_base_ms=1.0
            )
            response = client.request("solve", SOLVE)
        assert response["result"]["converged"] is True

    def test_invalidate_never_retries(self, tmp_path):
        client = ServeClient(
            str(tmp_path / "absent.sock"),
            max_retries=5,
            retry_seed=7,
            backoff_base_ms=1.0,
        )
        attempts: list[str] = []
        original = client._request_once

        def _counting(op, params, timeout_s, deadline_ms):
            attempts.append(op)
            raise ServeConnectionError("injected connection failure")

        client._request_once = _counting
        # Idempotent ops retry on connection failures...
        with pytest.raises(ServeConnectionError):
            client.request("ping")
        assert attempts.count("ping") == 6
        # ...but invalidate (a destructive write) is sent exactly once.
        with pytest.raises(ServeConnectionError):
            client.request("invalidate", {"topology": "geant"})
        assert attempts.count("invalidate") == 1
        client._request_once = original


class TestDeadlineE2E:
    def test_deadline_exceeded_is_structured_with_elapsed_and_budget(
        self, tmp_path
    ):
        config = _config(tmp_path, deadline_fallback=False)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    SITE_SERVE_SLOW_SOLVE, hits={0}, hang_seconds=0.6
                ),
            )
        )
        with ServerThread(config), injected_faults(plan):
            client = _client(config)
            with pytest.raises(ServeRequestError) as excinfo:
                client.request("solve", SOLVE, deadline_ms=150.0)
            stats = client.result("stats")
        assert excinfo.value.kind == "deadline_exceeded"
        response = excinfo.value.response
        assert response["budget_ms"] == pytest.approx(150.0)
        assert response["elapsed_ms"] > response["budget_ms"]
        assert stats["counters"]["serve.deadline.exceeded"] == 1

    def test_generous_deadline_still_answers_exact(self, tmp_path):
        config = _config(tmp_path)
        with ServerThread(config):
            response = _client(config).request(
                "solve", SOLVE, deadline_ms=60_000.0
            )
        assert response["result"]["tier"] == "exact"
        assert response["result"]["converged"] is True

    def test_deadline_pressure_falls_back_to_certified_approx(
        self, tmp_path
    ):
        # Deterministic stand-in for budget exhaustion: the exact
        # solve fails under a deadline, and the armed fallback answers
        # from the certified-gap approx backend instead of erroring.
        config = _config(tmp_path)
        plan = FaultPlan(specs=(FaultSpec(SITE_SOLVE_RAISE, hits={0}),))
        with ServerThread(config) as thread, injected_faults(plan):
            client = _client(config)
            degraded = client.request(
                "solve", SOLVE, deadline_ms=60_000.0
            )
            result = degraded["result"]
            # Degraded answers must not poison the cache for later
            # full-fidelity askers.
            assert len(thread.server.cache) == 0
            recovered = client.request("solve", SOLVE)
            stats = client.result("stats")
        assert result["tier"] == "approx"
        assert result["backend"] == "approx"
        assert result["fallback_reason"].startswith("error:")
        assert result["gap_certified"] is True
        assert result["optimality_gap"] is not None
        assert recovered["cache"] == "miss"
        assert recovered["result"]["tier"] == "exact"
        assert stats["counters"]["serve.degraded.approx"] == 1
        latency = stats["histograms"].get("serve.request.latency.approx")
        assert latency is not None and latency["count"] == 1

    def test_without_a_deadline_the_same_fault_stays_an_error(
        self, tmp_path
    ):
        # The fallback arms only when the request carries a budget:
        # an un-deadlined exact solve keeps strict error semantics.
        config = _config(tmp_path)
        plan = FaultPlan(specs=(FaultSpec(SITE_SOLVE_RAISE, hits={0}),))
        with ServerThread(config), injected_faults(plan):
            with pytest.raises(ServeRequestError) as excinfo:
                _client(config).request("solve", SOLVE)
        assert excinfo.value.kind == "solve"


class TestStaleWhileRevalidate:
    def test_expired_entry_serves_stale_and_refreshes_behind(
        self, tmp_path
    ):
        config = _config(tmp_path, ttl_s=0.4, stale_grace_s=60.0)
        with ServerThread(config):
            client = _client(config)
            fresh = client.request("solve", SOLVE)
            time.sleep(0.6)
            stale = client.request("solve", SOLVE)
            assert stale["cache"] == "stale"
            result = stale["result"]
            assert result["tier"] == "stale"
            assert result["stale"] is True
            assert result["age_s"] > 0.4
            assert result["objective"] == fresh["result"]["objective"]
            # The background refresh re-solves and the next asker gets
            # a fresh exact answer again.
            refreshed = _poll(
                lambda: (
                    lambda r: r if r["cache"] == "hit" else None
                )(client.request("solve", SOLVE))
            )
            stats = client.result("stats")
        assert refreshed["result"]["tier"] == "exact"
        assert stats["counters"]["serve.degraded.stale"] >= 1
        assert stats["counters"]["serve.cache.refresh"] >= 1
        assert stats["counters"]["serve.cache.stale_hit"] >= 1

    def test_without_grace_expiry_stays_a_miss(self, tmp_path):
        config = _config(tmp_path, ttl_s=0.3)
        with ServerThread(config):
            client = _client(config)
            client.request("solve", SOLVE)
            time.sleep(0.5)
            assert client.request("solve", SOLVE)["cache"] == "miss"


class TestDrain:
    def test_drain_completes_in_flight_and_sheds_queued(self, tmp_path):
        # One worker: the first solve hangs mid-flight on the slow
        # site while the second sits queued-unstarted behind it.
        config = _config(tmp_path, executor_workers=1)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    SITE_SERVE_SLOW_SOLVE, hits={0}, hang_seconds=1.5
                ),
            )
        )
        outcomes: dict[str, object] = {}

        def _ask(name: str, theta: float) -> None:
            try:
                outcomes[name] = _client(config).request(
                    "solve", {"theta": theta}, timeout_s=30.0
                )
            except (ServeRequestError, ServeConnectionError) as exc:
                outcomes[name] = exc

        with ServerThread(config), injected_faults(plan):
            inflight = threading.Thread(target=_ask, args=("inflight", 1e5))
            inflight.start()
            _poll(lambda: _client(config).result("stats")["admission"][
                "pending"] >= 1)
            queued = threading.Thread(target=_ask, args=("queued", 2e5))
            queued.start()
            _poll(lambda: _client(config).result("stats")["admission"][
                "pending"] >= 2)
            drained = _client(config).request("drain")
            inflight.join()
            queued.join()
        assert drained["result"]["draining"] is True
        assert isinstance(outcomes["inflight"], dict)
        assert outcomes["inflight"]["result"]["converged"] is True
        assert isinstance(outcomes["queued"], ServeRequestError)
        assert outcomes["queued"].kind == "draining"
        assert not daemon_available(config.socket_path)

    def test_new_work_is_refused_while_draining(self, tmp_path):
        config = _config(tmp_path, executor_workers=1)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    SITE_SERVE_SLOW_SOLVE, hits={0}, hang_seconds=1.5
                ),
            )
        )
        response: dict[str, object] = {}

        def _ask() -> None:
            response["inflight"] = _client(config).request(
                "solve", SOLVE, timeout_s=30.0
            )

        with ServerThread(config), injected_faults(plan):
            inflight = threading.Thread(target=_ask)
            inflight.start()
            _poll(lambda: _client(config).result("stats")["admission"][
                "pending"] >= 1)
            _client(config).request("drain")
            # The listener is closed: a fresh connection is refused
            # outright (never an unstructured mid-protocol failure).
            with pytest.raises(ServeConnectionError):
                _client(config).request("solve", {"theta": 3e5})
            inflight.join()
        assert response["inflight"]["result"]["converged"] is True


class TestSigtermDrain:
    def test_sigterm_drains_flushes_journal_and_replays_on_restart(
        self, tmp_path
    ):
        socket_path = str(tmp_path / "drill.sock")
        journal = str(tmp_path / "drill.jsonl")
        env = dict(os.environ)
        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        argv = [
            sys.executable, "-c",
            "from repro.cli import main; raise SystemExit(main())",
            "serve", "--socket", socket_path, "--journal", journal,
        ]

        def _spawn() -> subprocess.Popen:
            proc = subprocess.Popen(
                argv, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            _poll(lambda: daemon_available(socket_path), timeout_s=30.0)
            return proc

        proc = _spawn()
        try:
            client = ServeClient(socket_path)
            outcome: dict[str, object] = {}
            sweep = {"theta_min": 2e4, "theta_max": 4e5, "points": 10}

            def _sweep() -> None:
                try:
                    outcome["sweep"] = client.request(
                        "sweep", sweep, timeout_s=120.0
                    )
                except (ServeRequestError, ServeConnectionError) as exc:
                    outcome["sweep"] = exc

            worker = threading.Thread(target=_sweep)
            worker.start()
            # Wait until the sweep is genuinely mid-solve, then SIGTERM.
            _poll(
                lambda: ServeClient(socket_path).result("stats")[
                    "counters"].get("solver.gp.solves", 0) >= 1,
                timeout_s=60.0,
            )
            proc.send_signal(signal.SIGTERM)
            worker.join(timeout=120.0)
            assert not worker.is_alive()
            assert proc.wait(timeout=60.0) == 0
            # Drain completed the in-flight sweep and answered it.
            assert isinstance(outcome["sweep"], dict), outcome["sweep"]
            assert outcome["sweep"]["result"]["converged"] is True
            assert os.path.exists(journal)

            # The fsynced journal re-warms a restarted daemon: the
            # same sweep answers from cache without re-solving.
            proc = _spawn()
            warm = ServeClient(socket_path).request(
                "sweep", sweep, timeout_s=120.0
            )
            stats = ServeClient(socket_path).result("stats")
            assert warm["cache"] == "hit"
            assert (
                warm["result"]["points"]
                == outcome["sweep"]["result"]["points"]
            )
            assert stats["counters"].get("solver.gp.solves", 0) == 0
            ServeClient(socket_path).request("shutdown")
            assert proc.wait(timeout=60.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30.0)


class TestHealth:
    def test_health_reports_ok_and_admission_state(self, tmp_path):
        config = _config(tmp_path, max_pending=16)
        with ServerThread(config):
            health = _client(config).result("health")
        assert health["status"] == "ok"
        assert health["admission"]["high_watermark"] == 16
        assert health["admission"]["pending"] == 0
        assert health["inflight_solves"] == 0
