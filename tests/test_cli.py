"""Tests for the netsampling CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.scale import BACKEND_NAMES


class TestTopologyCommands:
    def test_show_geant(self, capsys):
        assert main(["topology", "show", "geant"]) == 0
        out = capsys.readouterr().out
        assert "GEANT-2004: 23 nodes, 72 links" in out
        assert "UK" in out

    def test_export_json_round_trips(self, capsys, tmp_path):
        assert main(["topology", "export", "abilene", "--format", "json"]) == 0
        out = capsys.readouterr().out
        path = tmp_path / "abilene.json"
        path.write_text(out)
        assert main(["topology", "show", str(path)]) == 0
        assert "11 nodes" in capsys.readouterr().out

    def test_export_edgelist(self, capsys):
        assert main(["topology", "export", "geant", "--format", "edgelist"]) == 0
        out = capsys.readouterr().out
        assert "UK FR" in out

    def test_unknown_topology(self):
        with pytest.raises(SystemExit, match="unknown topology"):
            main(["topology", "show", "nonexistent"])


class TestSolveCommand:
    def test_geant_defaults_to_janet(self, capsys):
        code = main(["solve", "--theta", "100000", "--method", "slsqp"])
        assert code == 0
        out = capsys.readouterr().out
        assert "active monitors" in out
        assert "worst OD pair: JANET-" in out

    def test_json_output(self, capsys):
        code = main(["solve", "--theta", "100000", "--method", "slsqp",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"]
        assert payload["budget_used_packets"] <= 100_000 * (1 + 1e-9)
        assert "JANET-LU" in payload["od_utilities"]

    def test_custom_od_pairs(self, capsys):
        code = main([
            "solve", "--topology", "abilene", "--theta", "10000",
            "--od", "NYC:LAX:5000", "--od", "SEA:ATL:300",
            "--background", "100000", "--seed", "1", "--method", "slsqp",
        ])
        assert code == 0
        assert "active monitors" in capsys.readouterr().out

    def test_non_geant_requires_od(self):
        with pytest.raises(SystemExit, match="--od is required"):
            main(["solve", "--topology", "abilene", "--theta", "1000"])

    def test_bad_od_spec(self):
        with pytest.raises(SystemExit, match="bad --od"):
            main(["solve", "--topology", "abilene", "--theta", "1000",
                  "--od", "NYC:LAX"])
        with pytest.raises(SystemExit, match="PPS must be a number"):
            main(["solve", "--topology", "abilene", "--theta", "1000",
                  "--od", "NYC:LAX:fast"])

    def test_quantize_flag(self, capsys):
        code = main(["solve", "--theta", "100000", "--method", "slsqp",
                     "--quantize", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for rate in payload["monitors"].values():
            assert rate > 0
            n = round(1.0 / rate)
            assert rate == pytest.approx(1.0 / n)

    def test_restrict_to_node(self, capsys):
        code = main(["solve", "--theta", "100000", "--method", "slsqp",
                     "--restrict-to-node", "UK", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(name.startswith("UK->") for name in payload["monitors"])

    def test_backend_approx_reports_certified_gap(self, capsys):
        code = main(["solve", "--theta", "100000",
                     "--backend", "approx", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"]
        assert payload["method"] == "approx_waterfill"
        assert payload["backend"] == "approx"
        assert payload["optimality_gap"] >= 0.0

    def test_backend_compiled_is_exact(self, capsys):
        code = main(["solve", "--theta", "100000",
                     "--backend", "compiled", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "gradient_projection"
        assert payload["backend"] == "exact"
        assert payload["converged"]

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_solve_and_request_accept_every_backend_name(self, backend):
        parser = build_parser()
        for argv in (
            ["solve", "--theta", "1", "--backend", backend],
            ["request", "solve", "--socket", "x", "--backend", backend],
        ):
            assert parser.parse_args(argv).backend == backend

    def test_backend_exact_leaves_gap_unset(self, capsys):
        code = main(["solve", "--theta", "100000", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "exact"
        assert payload["optimality_gap"] is None

    def test_backend_rejects_restrict_to_node(self):
        with pytest.raises(SystemExit, match="network-wide"):
            main(["solve", "--theta", "100000", "--backend", "approx",
                  "--restrict-to-node", "UK"])

    def test_backend_rejects_scipy_method(self):
        with pytest.raises(SystemExit, match="replaces the solver"):
            main(["solve", "--theta", "100000", "--backend", "approx",
                  "--method", "slsqp"])


class TestTraceCommands:
    def _solve_with_trace(self, tmp_path, name, theta):
        path = tmp_path / name
        code = main(["solve", "--theta", str(theta), "--json",
                     "--trace-out", str(path)])
        assert code == 0
        return path

    def test_solve_trace_out_writes_manifest(self, capsys, tmp_path):
        from repro.obs import read_manifest

        path = self._solve_with_trace(tmp_path, "run.jsonl", 100_000)
        captured = capsys.readouterr()
        # The JSON result stays on stdout, the trace notice on stderr.
        payload = json.loads(captured.out)
        assert "[trace written" in captured.err
        manifest = read_manifest(path)
        assert manifest.fingerprint["theta_packets"] == 100_000
        assert manifest.total_iterations == payload["iterations"]
        summary = manifest.summary_for(0)
        assert summary["objective_value"] == payload["objective"]
        assert manifest.metrics["counters"]["solver.gp.solves"] == 1

    def test_trace_summary(self, capsys, tmp_path):
        path = self._solve_with_trace(tmp_path, "run.jsonl", 100_000)
        capsys.readouterr()
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "manifest: label='solve:GEANT-2004'" in out
        assert "iterations" in out
        assert "metric solver.gp.solves = 1" in out

    def test_trace_compare(self, capsys, tmp_path):
        a = self._solve_with_trace(tmp_path, "a.jsonl", 100_000)
        b = self._solve_with_trace(tmp_path, "b.jsonl", 50_000)
        capsys.readouterr()
        assert main(["trace", "compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "solve[0]: iterations" in out
        assert "objective" in out

    def test_trace_summary_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "summary", str(tmp_path / "absent.jsonl")])


class TestExperimentsCommand:
    def test_figure1(self, capsys):
        assert main(["experiments", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "splice points" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiments", "bogus"])

    def test_export_dir_writes_files(self, capsys, tmp_path):
        outdir = tmp_path / "results"
        assert main(
            ["experiments", "figure1", "--export-dir", str(outdir)]
        ) == 0
        out = capsys.readouterr().out
        assert "[exported" in out
        assert (outdir / "figure1.csv").exists()
        header = (outdir / "figure1.csv").read_text().splitlines()[0]
        assert header.startswith("rho,")


class TestMetricsCommand:
    @pytest.fixture()
    def traced_manifest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["solve", "--theta", "100000",
                     "--trace-out", str(path)]) == 0
        return path

    def test_prometheus_exposition(self, capsys, traced_manifest):
        assert main(["metrics", str(traced_manifest)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_solver_gp_solves_total counter" in out
        assert "repro_solver_gp_solves_total 1" in out
        assert "repro_solver_gp_solve_seconds_bucket" in out
        assert 'le="+Inf"' in out

    def test_custom_prefix(self, capsys, traced_manifest):
        assert main(["metrics", str(traced_manifest),
                     "--prefix", "net"]) == 0
        out = capsys.readouterr().out
        assert "net_solver_gp_solves_total 1" in out
        assert "repro_" not in out

    def test_manifest_without_metrics_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text(
            '{"record": "manifest", "schema_version": 1, "label": "x"}\n'
        )
        with pytest.raises(SystemExit, match="no metrics record"):
            main(["metrics", str(path)])

    def test_unreadable_manifest_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read manifest"):
            main(["metrics", str(tmp_path / "missing.jsonl")])


class TestSpanFlows:
    def test_trace_summary_spans_waterfall(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["solve", "--theta", "100000",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(path), "--spans"]) == 0
        out = capsys.readouterr().out
        assert "span waterfall:" in out
        assert "solver.gp" in out
        assert "trace " in out

    def test_summary_without_flag_omits_waterfall(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["solve", "--theta", "100000",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "span waterfall:" not in out
        assert "spans: " in out  # the summary line still counts them

    def test_decomposed_traced_solve_records_scale_spans(
        self, capsys, tmp_path
    ):
        path = tmp_path / "decomposed.jsonl"
        assert main(["solve", "--theta", "100000",
                     "--backend", "decompose",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(path), "--spans"]) == 0
        out = capsys.readouterr().out
        assert "scale.decompose" in out

    def test_verify_trace_out_embeds_spans(self, capsys, tmp_path):
        from repro.obs import read_manifest

        path = tmp_path / "verify.jsonl"
        code = main(["verify", "--suite", "quick", "--instances", "2",
                     "--trace-out", str(path)])
        assert code == 0
        manifest = read_manifest(path)
        assert manifest.spans, "verify solves must emit spans"
