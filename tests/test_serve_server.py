"""End-to-end tests of the warm solver daemon.

Each test runs a real daemon (:class:`ServerThread`) on a Unix socket
under ``tmp_path`` and talks to it with the blocking client — the same
path production requests take, including the asyncio front, the thread
executor, the warm session and the result cache.
"""

from __future__ import annotations

import json
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import solve
from repro.scale import BACKEND_ALIASES, BACKEND_NAMES
from repro.resilience.faults import (
    SITE_SERVE_CLIENT_DISCONNECT,
    SITE_SERVE_SLOW_SOLVE,
    SITE_SOLVE_RAISE,
    FaultPlan,
    FaultSpec,
    injected_faults,
)
from repro.serve import (
    ServeClient,
    ServeConnectionError,
    ServeRequestError,
    ServerConfig,
    ServerThread,
    SolverSession,
    daemon_available,
)

from conftest import ROOT, documented_metric_names, emitted_metric_names

SOLVE = {"theta": 100000.0}


def _config(tmp_path, **overrides) -> ServerConfig:
    defaults = dict(socket_path=str(tmp_path / "ns.sock"), ttl_s=300.0)
    defaults.update(overrides)
    return ServerConfig(**defaults)


def _client(config: ServerConfig) -> ServeClient:
    return ServeClient(config.socket_path)


class TestLifecycle:
    def test_ping_and_availability(self, tmp_path):
        config = _config(tmp_path)
        assert not daemon_available(config.socket_path)
        with ServerThread(config):
            assert daemon_available(config.socket_path)
            result = _client(config).result("ping")
            assert result["pong"] is True
            assert result["protocol"] == 1
        assert not daemon_available(config.socket_path)

    def test_unknown_op_is_a_protocol_error(self, tmp_path):
        config = _config(tmp_path)
        with ServerThread(config):
            with pytest.raises(ServeRequestError) as excinfo:
                _client(config).request("frobnicate")
            assert excinfo.value.kind == "protocol"

    def test_bad_params_are_a_protocol_error(self, tmp_path):
        config = _config(tmp_path)
        with ServerThread(config):
            with pytest.raises(ServeRequestError) as excinfo:
                _client(config).request("solve", {"theta": -1})
            assert excinfo.value.kind == "protocol"


class TestResultCache:
    def test_repeat_solve_hits_the_cache_with_identical_payload(
        self, tmp_path
    ):
        config = _config(tmp_path)
        with ServerThread(config):
            client = _client(config)
            first = client.request("solve", SOLVE)
            second = client.request("solve", SOLVE)
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert second["result"] == first["result"]
        assert second["latency_s"] < first["latency_s"]

    def test_equivalent_spellings_share_one_entry(self, tmp_path):
        config = _config(tmp_path)
        with ServerThread(config):
            client = _client(config)
            client.request("solve", {"theta": 1e5})
            spelled = client.request(
                "solve",
                {"theta": 100000, "topology": "geant", "presolve": True},
            )
        assert spelled["cache"] == "hit"

    def test_cached_result_carries_the_same_certificate(
        self, tmp_path, geant_problem
    ):
        config = _config(tmp_path)
        with ServerThread(config):
            client = _client(config)
            cold = client.result("solve", SOLVE)
            cached = client.result("solve", SOLVE)
        inline = solve(geant_problem)
        assert cached["gap_certified"] is True
        assert cached["gap_certified"] == cold["gap_certified"]
        assert cached["optimality_gap"] == cold["optimality_gap"]
        assert cached["objective"] == pytest.approx(
            inline.objective_value, rel=1e-9
        )

    def test_ttl_expiry_forces_a_re_solve(self, tmp_path):
        config = _config(tmp_path, ttl_s=0.5)
        with ServerThread(config):
            client = _client(config)
            assert client.request("solve", SOLVE)["cache"] == "miss"
            time.sleep(0.7)
            assert client.request("solve", SOLVE)["cache"] == "miss"

    def test_invalidate_drops_results_and_resident_state(self, tmp_path):
        config = _config(tmp_path)
        with ServerThread(config):
            client = _client(config)
            client.request("solve", SOLVE)
            removed = client.result("invalidate", {"topology": "geant"})
            assert removed["removed_results"] == 1
            assert removed["dropped_resident"] >= 1
            assert client.request("solve", SOLVE)["cache"] == "miss"

    def test_invalidate_other_topology_keeps_entries(self, tmp_path):
        config = _config(tmp_path)
        with ServerThread(config):
            client = _client(config)
            client.request("solve", SOLVE)
            removed = client.result("invalidate", {"topology": "abilene"})
            assert removed["removed_results"] == 0
            assert client.request("solve", SOLVE)["cache"] == "hit"


class TestCoalescing:
    def test_identical_concurrent_requests_solve_exactly_once(
        self, tmp_path
    ):
        config = _config(tmp_path)
        # Hold the leader's solve open so that every follower arrives
        # while it is in flight; a follower that arrives after it ends
        # is rightly a cache hit, not a coalesced wait.
        hold = FaultPlan(
            specs=(
                FaultSpec(SITE_SERVE_SLOW_SOLVE, hits={0}, hang_seconds=1.0),
            )
        )
        with ServerThread(config), injected_faults(hold):
            client_count = 6
            with ThreadPoolExecutor(client_count) as pool:
                responses = list(
                    pool.map(
                        lambda _: _client(config).request("solve", SOLVE),
                        range(client_count),
                    )
                )
            stats = _client(config).result("stats")
        states = sorted(r["cache"] for r in responses)
        assert states == ["coalesced"] * (client_count - 1) + ["miss"]
        assert stats["counters"]["solver.gp.solves"] == 1
        assert stats["counters"]["serve.request.coalesced"] == (
            client_count - 1
        )
        payloads = [json.dumps(r["result"], sort_keys=True) for r in responses]
        assert len(set(payloads)) == 1

    def test_distinct_concurrent_misses_solve_on_the_warm_chain(
        self, tmp_path
    ):
        config = _config(tmp_path)
        thetas = [2e4, 4e4, 8e4, 1.6e5, 3.2e5, 6.4e5]
        with ServerThread(config):
            client = _client(config)
            client.request("solve", {"theta": 5e4})  # warm the task
            before = client.result("stats")["counters"]
            with ThreadPoolExecutor(len(thetas)) as pool:
                responses = list(
                    pool.map(
                        lambda theta: _client(config).request(
                            "solve", {"theta": theta}
                        ),
                        thetas,
                    )
                )
            after = client.result("stats")["counters"]
        assert [r["cache"] for r in responses] == ["miss"] * len(thetas)
        assert all(r["result"]["gap_certified"] for r in responses)
        objectives = [r["result"]["objective"] for r in responses]
        assert all(a < b for a, b in zip(objectives, objectives[1:]))
        warm_hits = after.get("serve.warm.hit", 0) - before.get(
            "serve.warm.hit", 0
        )
        assert warm_hits == len(thetas)
        assert "batch.pool.dispatches" not in after


class TestJournalRestart:
    def test_restarted_daemon_answers_from_the_replayed_journal(
        self, tmp_path
    ):
        journal = str(tmp_path / "cache.jsonl")
        config = _config(tmp_path, journal_path=journal)
        with ServerThread(config):
            cold = _client(config).request("solve", SOLVE)
        with ServerThread(config):
            client = _client(config)
            warm = client.request("solve", SOLVE)
            stats = client.result("stats")
        assert warm["cache"] == "hit"
        assert warm["result"] == cold["result"]
        assert stats["counters"].get("serve.journal.replayed", 0) >= 1
        assert stats["counters"].get("solver.gp.solves", 0) == 0

    def test_journaled_invalidation_survives_restart(self, tmp_path):
        journal = str(tmp_path / "cache.jsonl")
        config = _config(tmp_path, journal_path=journal)
        with ServerThread(config):
            client = _client(config)
            client.request("solve", SOLVE)
            client.request("invalidate", {"topology": "geant"})
        with ServerThread(config):
            assert _client(config).request("solve", SOLVE)["cache"] == "miss"


class TestChaos:
    def test_injected_solve_fault_does_not_poison_the_cache(self, tmp_path):
        config = _config(tmp_path)
        plan = FaultPlan(specs=(FaultSpec(SITE_SOLVE_RAISE, hits={0}),))
        with ServerThread(config) as thread, injected_faults(plan):
            client = _client(config)
            with pytest.raises(ServeRequestError) as excinfo:
                client.request("solve", SOLVE)
            assert excinfo.value.kind == "solve"
            assert len(thread.server.cache) == 0
            recovered = client.request("solve", SOLVE)
            stats = client.result("stats")
        assert recovered["cache"] == "miss"
        assert recovered["result"]["converged"] is True
        assert stats["counters"]["serve.request.errors"] == 1
        assert stats["resident"]["results"] == 1


class TestStatsAndTrace:
    def test_stats_reports_residency_and_latency_histogram(self, tmp_path):
        config = _config(tmp_path)
        with ServerThread(config):
            client = _client(config)
            client.request("solve", SOLVE)
            client.request("solve", SOLVE)
            stats = client.result("stats")
        assert stats["resident"]["results"] == 1
        assert stats["resident"]["tasks"] == 1
        assert stats["requests"] == 3
        latency = stats["histograms"]["serve.request.latency"]
        assert latency["count"] == 2
        assert stats["spans_recorded"] >= 1

    def test_dump_trace_writes_a_manifest_with_serve_spans(self, tmp_path):
        config = _config(tmp_path)
        manifest = tmp_path / "serve-trace.jsonl"
        with ServerThread(config):
            client = _client(config)
            client.request("solve", SOLVE)
            dumped = client.result("dump_trace", {"path": str(manifest)})
        assert dumped["spans"] >= 1
        names = set()
        with manifest.open(encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("record") == "span":
                    names.add(record["name"])
        assert "serve.request" in names
        assert "serve.solve" in names


#: The degradation tiers of the per-tier latency histogram.
TIERS = ("exact", "stale", "approx")


class TestMetricNames:
    def test_emitted_names_match_the_documented_table(self):
        documented = documented_metric_names(
            "serving.md", "| name | kind | meaning |"
        )
        emitted = emitted_metric_names(
            sorted((ROOT / "src" / "repro" / "serve").glob("*.py")),
            ("serve.",),
            {"serve.request.latency.": TIERS},
        )
        assert "serve.request.latency.stale" in emitted
        assert "serve.journal.synced" in emitted
        assert documented - emitted == set(), "documented, never emitted"
        assert emitted - documented == set(), "emitted, not documented"


def _raw_exchange(config: ServerConfig, payload: bytes) -> bytes:
    """Send raw bytes on a fresh socket; return the response line."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10.0)
        sock.connect(config.socket_path)
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
        return b"".join(chunks)


class TestMalformedInput:
    def test_oversized_frame_is_a_structured_protocol_error(self, tmp_path):
        config = _config(tmp_path, max_frame_bytes=4096)
        with ServerThread(config):
            blob = b'{"op": "solve", "params": {"pad": "' + b"x" * 8192
            response = json.loads(_raw_exchange(config, blob + b'"}}\n'))
            # The daemon survives the oversized client.
            assert _client(config).result("ping")["pong"] is True
        assert response["ok"] is False
        assert response["kind"] == "protocol"
        assert "4096" in response["error"]

    def test_invalid_utf8_is_a_protocol_error(self, tmp_path):
        config = _config(tmp_path)
        with ServerThread(config):
            response = json.loads(
                _raw_exchange(config, b"\xff\xfe\x00garbage\n")
            )
        assert response["ok"] is False
        assert response["kind"] == "protocol"

    def test_truncated_json_is_a_protocol_error(self, tmp_path):
        config = _config(tmp_path)
        with ServerThread(config):
            response = json.loads(
                _raw_exchange(config, b'{"op": "ping", "id": \n')
            )
        assert response["ok"] is False
        assert response["kind"] == "protocol"
        assert "not JSON" in response["error"]

    def test_unterminated_frame_at_eof_is_answered_best_effort(
        self, tmp_path
    ):
        config = _config(tmp_path)
        with ServerThread(config):
            with socket.socket(
                socket.AF_UNIX, socket.SOCK_STREAM
            ) as sock:
                sock.settimeout(10.0)
                sock.connect(config.socket_path)
                sock.sendall(b'{"op": "ping"')  # no newline, then EOF
                sock.shutdown(socket.SHUT_WR)
                response = json.loads(sock.recv(65536))
        assert response["ok"] is False
        assert response["kind"] == "protocol"
        assert "truncated" in response["error"]

    def test_half_open_connection_flood_leaves_the_daemon_responsive(
        self, tmp_path
    ):
        config = _config(tmp_path)
        with ServerThread(config):
            socks = []
            for _ in range(20):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.connect(config.socket_path)
                socks.append(sock)
            try:
                assert _client(config).result("ping")["pong"] is True
            finally:
                for sock in socks:
                    sock.close()
            # And after the flood hangs up, still responsive.
            assert _client(config).result("ping")["pong"] is True

    def test_pipelined_frames_answer_out_of_order_safely(self, tmp_path):
        config = _config(tmp_path)
        with ServerThread(config):
            frames = b"".join(
                json.dumps({"op": "ping", "id": f"p{i}"}).encode() + b"\n"
                for i in range(4)
            )
            with socket.socket(
                socket.AF_UNIX, socket.SOCK_STREAM
            ) as sock:
                sock.settimeout(10.0)
                sock.connect(config.socket_path)
                sock.sendall(frames)
                data = b""
                while data.count(b"\n") < 4:
                    data += sock.recv(65536)
        responses = [json.loads(line) for line in data.splitlines()]
        assert {r["id"] for r in responses} == {"p0", "p1", "p2", "p3"}
        assert all(r["ok"] for r in responses)


class TestClientDisconnect:
    def test_disconnect_mid_solve_orphan_completes_into_the_cache(
        self, tmp_path
    ):
        # The injected fault aborts the connection just before the
        # response write — the server-side view of a client that died
        # mid-solve.  The finished answer must land in the cache
        # anyway (no silent loss of paid-for work).
        config = _config(tmp_path)
        plan = FaultPlan(
            specs=(FaultSpec(SITE_SERVE_CLIENT_DISCONNECT, hits={0}),)
        )
        with ServerThread(config) as thread, injected_faults(plan):
            client = _client(config)
            with pytest.raises(ServeConnectionError):
                client.request("solve", SOLVE)
            assert len(thread.server.cache) == 1
            rescued = client.request("solve", SOLVE)
            stats = client.result("stats")
        assert rescued["cache"] == "hit"
        assert rescued["result"]["converged"] is True
        assert stats["counters"]["serve.request.abandoned"] == 1


class TestSessionIdentity:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_protocol_accepts_every_backend_name(self, backend):
        from repro.serve.protocol import normalize_solve_params

        params = normalize_solve_params({"theta": 1e5, "backend": backend})
        assert params["backend"] == BACKEND_ALIASES.get(backend, backend)

    @pytest.mark.parametrize("param", ["alpha", "interval"])
    def test_explicit_zero_is_rejected_not_defaulted(self, param):
        from repro.serve.protocol import ProtocolError, normalize_solve_params

        with pytest.raises(ProtocolError, match=f"param '{param}' must be"):
            normalize_solve_params({"theta": 1e5, param: 0})

    def test_equivalent_params_share_a_key_and_theta_splits_it(self):
        from repro.serve.protocol import normalize_solve_params

        session = SolverSession()
        a = session.prepare(
            "solve", normalize_solve_params({"theta": 1e5})
        )
        b = session.prepare(
            "solve",
            normalize_solve_params(
                {"theta": 100000, "topology": "geant", "method": None}
            ),
        )
        c = session.prepare(
            "solve", normalize_solve_params({"theta": 2e5})
        )
        sweep = session.prepare(
            "sweep",
            {
                **a.params,
                "theta_min": 1e5,
                "theta_max": 2e5,
                "points": 3,
            },
        )
        assert a.key == b.key
        assert a.key != c.key
        assert sweep.key != a.key
        assert session.resident_tasks == 1  # one GEANT task serves all
