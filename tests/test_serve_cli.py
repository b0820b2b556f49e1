"""Tests for the daemon-facing CLI: serve, request, and --daemon routing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main
from repro.serve import ServerConfig, ServerThread


@pytest.fixture()
def daemon(tmp_path):
    """A live daemon; yields its socket path."""
    config = ServerConfig(socket_path=str(tmp_path / "cli.sock"))
    with ServerThread(config):
        yield config.socket_path


class TestRequestCommand:
    def test_ping(self, daemon, capsys):
        assert main(["request", "ping", "--socket", daemon]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pong"] is True

    def test_solve_json_and_cached_repeat(self, daemon, capsys):
        argv = ["request", "solve", "--socket", daemon,
                "--theta", "100000", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["converged"] is True
        assert first["gap_certified"] is True
        assert second == first

    def test_solve_text_reports_cache_state(self, daemon, capsys):
        argv = ["request", "solve", "--socket", daemon, "--theta", "100000"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "active monitors" in captured.out
        assert "worst OD pair" in captured.out
        assert "[cache miss" in captured.err

    def test_solve_requires_theta(self, daemon):
        with pytest.raises(SystemExit, match="needs --theta"):
            main(["request", "solve", "--socket", daemon])

    def test_sweep_requires_range(self, daemon):
        with pytest.raises(SystemExit, match="theta-min"):
            main(["request", "sweep", "--socket", daemon])

    def test_stats(self, daemon, capsys):
        assert main(["request", "stats", "--socket", daemon]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "resident" in payload and "counters" in payload

    def test_dead_socket_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot reach daemon"):
            main(["request", "ping", "--socket", str(tmp_path / "no.sock")])

    def test_dump_trace_requires_path(self, daemon):
        with pytest.raises(SystemExit, match="needs --path"):
            main(["request", "dump-trace", "--socket", daemon])


class TestDaemonRouting:
    def test_solve_routes_through_the_daemon(self, daemon, capsys):
        code = main(["solve", "--theta", "100000",
                     "--daemon", daemon, "--json"])
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["converged"] is True
        # Repeat answers come from the warm cache.
        assert main(["solve", "--theta", "100000", "--daemon", daemon]) == 0
        captured = capsys.readouterr()
        assert "active monitors" in captured.out
        assert "cache hit" in captured.err

    def test_sweep_routes_through_the_daemon(self, daemon, capsys):
        code = main(["sweep", "--theta-min", "50000", "--theta-max",
                     "100000", "--points", "2", "--daemon", daemon])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("theta=") == 2
        assert "[ok]" in out

    def test_unreachable_daemon_falls_back_inline(self, tmp_path, capsys):
        code = main(["solve", "--theta", "100000",
                     "--daemon", str(tmp_path / "gone.sock"), "--json"])
        assert code == 0
        captured = capsys.readouterr()
        assert "daemon unavailable" in captured.err
        assert "solving inline" in captured.err
        assert json.loads(captured.out)["converged"] is True

    def test_daemon_rejects_incompatible_solve_flags(self, daemon):
        with pytest.raises(SystemExit, match="--quantize"):
            main(["solve", "--theta", "100000",
                  "--daemon", daemon, "--quantize"])

    def test_daemon_rejects_incompatible_sweep_flags(self, daemon, tmp_path):
        with pytest.raises(SystemExit, match="--checkpoint"):
            main(["sweep", "--theta-min", "1e4", "--theta-max", "1e5",
                  "--daemon", daemon,
                  "--checkpoint", str(tmp_path / "ck.jsonl")])

    def test_daemon_and_inline_agree(self, daemon, capsys):
        # Whole --json payloads, certificates included: only the
        # solver's wall time may differ.  The daemon is fresh, so every
        # case misses there and both routes solve cold.
        for argv in (
            ["solve", "--theta", "100000"],
            ["solve", "--theta", "100000", "--backend", "approx"],
            ["sweep", "--theta-min", "1e4", "--theta-max", "1e6",
             "--points", "4"],
        ):
            assert main(argv + ["--daemon", daemon, "--json"]) == 0
            captured = capsys.readouterr()
            assert "cache miss" in captured.err
            remote = json.loads(captured.out)
            assert main(argv + ["--json"]) == 0
            inline = json.loads(capsys.readouterr().out)
            for payload in (remote, inline):
                points = payload if isinstance(payload, list) else [payload]
                for point in points:
                    assert "gap_certified" in point
                    del point["wall_time_s"]
            assert remote == inline, argv

    def test_daemon_and_inline_print_the_same_text(self, daemon, capsys):
        argv = ["solve", "--theta", "100000"]
        assert main(argv + ["--daemon", daemon]) == 0
        remote = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == remote


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports ``repro`` from src."""
    env = dict(os.environ)
    repo_src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
    )


class TestColdPath:
    def test_session_imports_without_the_server(self):
        # The CLI's in-process route imports the session; asyncio and
        # the daemon load only with the first server or client name.
        code = (
            "import sys\n"
            "import repro.cli, repro.serve.session\n"
            "loaded = [m for m in ('asyncio', 'repro.serve.server')\n"
            "          if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            "from repro.serve import ServerThread, ServeClient, "
            "daemon_available\n"
            "assert 'repro.serve.server' in sys.modules\n"
            "print(ServerThread.__name__, ServeClient.__name__, "
            "daemon_available.__name__)\n"
        )
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "ServerThread", "ServeClient", "daemon_available",
        ]

    def test_cold_solve_loads_no_deferred_module(self):
        # A cold GEANT solve runs no SciPy, networkx or process-pool
        # code, so it must not pay for importing them; each loads on
        # its first real use instead.
        code = textwrap.dedent("""
            import contextlib, io, json, sys
            import numpy as np
            import repro, repro.cli

            deferred = ("scipy.optimize", "scipy.stats", "scipy.sparse",
                        "networkx", "asyncio", "multiprocessing",
                        "concurrent.futures")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = repro.cli.main(["solve", "--theta", "100000", "--json"])
            assert code == 0, code
            assert json.loads(out.getvalue())["converged"]
            loaded = [m for m in deferred if m in sys.modules]
            assert not loaded, loaded

            # scipy.optimize imports scipy.sparse, so the CSR operator
            # goes first.
            op = repro.RoutingOperator.from_matrix(np.eye(3), prefer="sparse")
            assert op.backend == "sparse"
            assert op.matvec(np.arange(3.0)).tolist() == [0.0, 1.0, 2.0]
            assert "scipy.sparse" in sys.modules

            task = repro.janet_task()
            assert task.network.is_strongly_connected()
            assert "networkx" in sys.modules

            problem = repro.SamplingProblem.from_task(task, theta_packets=1e5)
            reference = repro.solve_scipy(problem)
            assert reference.diagnostics.kkt.satisfied
            assert "scipy.optimize" in sys.modules
            print("ok")
        """)
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ok"]


class TestServeCommand:
    def test_rejects_bad_ttl(self, tmp_path):
        with pytest.raises(SystemExit, match="--ttl must be positive"):
            main(["serve", "--socket", str(tmp_path / "s.sock"),
                  "--ttl", "0"])
