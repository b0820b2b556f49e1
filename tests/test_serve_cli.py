"""Tests for the daemon-facing CLI: serve, request, and --daemon routing."""

from __future__ import annotations

import json

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
        assert main(["solve", "--theta", "100000",
                     "--daemon", daemon, "--json"]) == 0
        remote = json.loads(capsys.readouterr().out)
        assert main(["solve", "--theta", "100000", "--json"]) == 0
        inline = json.loads(capsys.readouterr().out)
        assert remote["objective"] == pytest.approx(
            inline["objective"], rel=1e-9
        )
        assert set(remote["monitors"]) == set(inline["monitors"])


class TestServeCommand:
    def test_rejects_bad_ttl(self, tmp_path):
        with pytest.raises(SystemExit, match="--ttl must be positive"):
            main(["serve", "--socket", str(tmp_path / "s.sock"),
                  "--ttl", "0"])
