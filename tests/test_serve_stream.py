"""The daemon's ``stream`` op and the ``netsampling stream`` command.

Streaming requests are stateful end to end — the tracker and the
warm-start chain live for the duration of one request — so unlike
``solve`` they bypass the result cache entirely.  These tests cover
the param normalizer, the live daemon path, and both CLI routes
(inline and ``--daemon``).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.serve import (
    ProtocolError,
    ServeClient,
    ServerConfig,
    ServerThread,
    SolverSession,
    normalize_stream_params,
)

STREAM = {"theta": 100000.0, "intervals": 4, "trace_seed": 7}


@pytest.fixture()
def daemon(tmp_path):
    config = ServerConfig(socket_path=str(tmp_path / "stream.sock"))
    with ServerThread(config):
        yield config.socket_path


class TestNormalizeStreamParams:
    def test_defaults(self):
        params = normalize_stream_params({"theta": 1e5})
        assert params["theta"] == 1e5
        assert params["intervals"] == 24
        assert params["noise"] == 0.05
        assert params["trough"] == 0.4
        assert params["start_hour"] == 0.0
        assert params["reconfig_weight"] == 0.0
        assert params["trace_seed"] is None
        assert params["anomaly"] is None
        assert params["topology"] == "geant"

    def test_requires_theta(self):
        with pytest.raises(ProtocolError, match="theta"):
            normalize_stream_params({"intervals": 4})

    def test_rejects_unknown_params(self):
        with pytest.raises(ProtocolError, match="unknown stream params"):
            normalize_stream_params({"theta": 1e5, "points": 3})

    @pytest.mark.parametrize("bad", [
        {"intervals": 0},
        {"intervals": "many"},
        {"noise": -0.1},
        {"trough": 0.0},
        {"trough": 1.5},
        {"start_hour": -1.0},
        {"reconfig_weight": -2.0},
        {"anomaly": [0, 4.0, 3]},
        {"anomaly": [-1, 4.0, 3, 2]},
        {"anomaly": [0, 0.0, 3, 2]},
        {"anomaly": [0, 4.0, -1, 2]},
        {"anomaly": [0, 4.0, 3, 0]},
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ProtocolError):
            normalize_stream_params({"theta": 1e5, **bad})

    def test_anomaly_is_canonicalized(self):
        params = normalize_stream_params(
            {"theta": 1e5, "anomaly": ["0", "4.0", "3", "2"]}
        )
        assert params["anomaly"] == [0, 4.0, 3, 2]

    def test_spelling_variants_normalize_identically(self):
        a = normalize_stream_params({"theta": 1e5, "intervals": 4})
        b = normalize_stream_params({"theta": 100000, "intervals": "4"})
        assert a == b


class TestStreamOp:
    def test_per_interval_report(self, daemon):
        result = ServeClient(daemon).result("stream", STREAM)
        assert result["tier"] == "stream"
        assert result["converged"] is True
        assert len(result["intervals"]) == 4
        first, *rest = result["intervals"]
        assert first["cold"] is True or first["warm"] is False
        for entry in rest:
            assert entry["warm"] is True
            assert entry["warm_iterations"] is not None
        summary = result["summary"]
        assert summary["intervals"] == 4
        assert summary["warm_iterations_p95"] is not None
        assert result["final_monitors"]

    def test_stream_bypasses_the_result_cache(self, daemon):
        client = ServeClient(daemon)
        first = client.request("stream", STREAM)
        second = client.request("stream", STREAM)
        # No cache state is ever reported: every stream request runs.
        assert "cache" not in first
        assert "cache" not in second

        # Deterministic trace + solver => identical reports anyway
        # (up to wall-clock timings).
        def _strip(entries):
            return [
                {k: v for k, v in e.items() if k != "step_seconds"}
                for e in entries
            ]

        assert _strip(first["result"]["intervals"]) == _strip(
            second["result"]["intervals"]
        )

    def test_anomaly_fires_a_change_point(self, daemon):
        params = {
            "theta": 100000.0,
            "intervals": 24,
            "noise": 0.05,
            "trace_seed": 42,
            "interval": 3600.0,
            "anomaly": [0, 4.0, 12, 12],
        }
        result = ServeClient(daemon).result("stream", params)
        summary = result["summary"]
        assert summary["change_point_intervals"] == [12]
        assert summary["cold_resolves"] == 1
        assert result["intervals"][12]["cold"] is True
        assert result["intervals"][12]["change_points"] == [0]

    def test_matches_the_inline_session(self, daemon):
        remote = ServeClient(daemon).result("stream", STREAM)
        params = normalize_stream_params(STREAM)
        inline = SolverSession().execute_stream(params)
        for key in ("intervals", "cold_resolves", "change_point_intervals",
                    "warm_iterations_p95"):
            assert remote["summary"][key] == inline["summary"][key]
        for a, b in zip(remote["intervals"], inline["intervals"]):
            assert a["objective"] == pytest.approx(b["objective"], rel=1e-9)
            assert a["cold"] == b["cold"]
            assert a["change_points"] == b["change_points"]

    def test_unknown_param_is_a_protocol_error(self, daemon):
        from repro.serve import ServeRequestError

        with pytest.raises(ServeRequestError) as err:
            ServeClient(daemon).result(
                "stream", {"theta": 1e5, "bogus": True}
            )
        assert err.value.kind == "protocol"

    def test_bad_anomaly_index_is_a_solve_error(self, daemon):
        from repro.serve import ServeRequestError

        with pytest.raises(ServeRequestError) as err:
            ServeClient(daemon).result(
                "stream", {**STREAM, "anomaly": [999, 4.0, 1, 1]}
            )
        assert err.value.kind == "solve"
        assert "out of range" in str(err.value)


class TestStreamCli:
    def test_inline_json(self, capsys):
        code = main(["stream", "--theta", "100000", "--intervals", "3",
                     "--trace-seed", "7", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["intervals"] == 3
        assert payload["converged"] is True

    def test_inline_table(self, capsys):
        code = main(["stream", "--theta", "100000", "--intervals", "3",
                     "--trace-seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "objective" in out
        assert "3 intervals" in out

    def test_zero_alpha_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="alpha"):
            main(["stream", "--theta", "100000", "--alpha", "0",
                  "--intervals", "2"])

    def test_anomaly_flag_shape_is_validated(self):
        with pytest.raises(SystemExit, match="anomaly"):
            main(["stream", "--theta", "100000", "--anomaly", "0:4.0"])

    def test_request_stream_requires_theta(self, daemon):
        with pytest.raises(SystemExit, match="needs --theta"):
            main(["request", "stream", "--socket", daemon])

    def test_request_stream_renders_the_table(self, daemon, capsys):
        code = main(["request", "stream", "--socket", daemon,
                     "--theta", "100000", "--intervals", "3",
                     "--trace-seed", "7"])
        assert code == 0
        assert "3 intervals" in capsys.readouterr().out

    def test_daemon_routing_matches_inline(self, daemon, capsys):
        argv = ["stream", "--theta", "100000", "--intervals", "3",
                "--trace-seed", "7", "--json"]
        assert main(argv + ["--daemon", daemon]) == 0
        remote = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        inline = json.loads(capsys.readouterr().out)
        for a, b in zip(remote["intervals"], inline["intervals"]):
            assert a["objective"] == pytest.approx(b["objective"], rel=1e-9)

    def test_unreachable_daemon_falls_back_inline(self, tmp_path, capsys):
        code = main(["stream", "--theta", "100000", "--intervals", "2",
                     "--daemon", str(tmp_path / "gone.sock"), "--json"])
        assert code == 0
        captured = capsys.readouterr()
        assert "streaming inline" in captured.err
        assert json.loads(captured.out)["converged"] is True
