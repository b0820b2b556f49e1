"""The perf-regression gate trips on slowdowns and stays green on noise."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_gate import (  # noqa: E402
    DEFAULT_BASELINE,
    DEFAULT_TOLERANCES,
    compare_reports,
    load_tolerances,
    main,
    tolerance,
)

TOLERANCES = {
    "default": {"max_slowdown": 1.8, "min_speedup_retention": 0.45},
    "solver": {
        "max_slowdown": 1.7,
        "max_rate_gap": 1e-9,
        "max_relative_objective_gap": 1e-9,
    },
    "sweep": {"max_slowdown": 1.7},
    "scaling": {"max_approx_gap": 0.01},
}


def _report(**overrides) -> dict:
    """A minimal synthetic bench report with one entry per kind."""
    entries = [
        {
            "kind": "solver",
            "name": "solver-entry",
            "baseline_seconds": 0.10,
            "optimized_seconds": 0.05,
            "max_rate_gap": 1e-15,
            "relative_objective_gap": 0.0,
        },
        {
            "kind": "sweep",
            "name": "sweep-entry",
            "cold_seconds": 0.40,
            "warm_seconds": 0.10,
            "presolved_seconds": 0.08,
            "relative_objective_gap": 0.0,
            "gap_certified": True,
        },
        {
            "kind": "scaling",
            "name": "scaling-entry",
            "approx_seconds": 0.02,
            "exact_seconds": 2.0,
            "approx_gap_relative": 2e-3,
        },
        {
            "kind": "serve",
            "name": "serve-entry",
            "cold_cli_seconds": 0.70,
            "warm_request_seconds": 0.001,
            "warm_miss_seconds": 0.004,
            "relative_objective_gap": 0.0,
            "gap_certified": True,
        },
    ]
    by_name = {e["name"]: e for e in entries}
    for name, fields in overrides.items():
        by_name[name].update(fields)
    return {"benchmark": "hotpath", "entries": entries}


class TestCompareReports:
    def test_identity_passes(self):
        result = compare_reports(_report(), _report(), TOLERANCES)
        assert result.passed
        assert result.checks  # it actually checked things

    def test_injected_2x_slowdown_fails_each_kind(self):
        for name, metric in (
            ("solver-entry", "optimized_seconds"),
            ("sweep-entry", "warm_seconds"),
            ("scaling-entry", "approx_seconds"),
            ("scaling-entry", "exact_seconds"),
            # A slower cold CLI raises the serve speedup (cold / warm),
            # so only the tracked cold_cli_seconds can catch it.
            ("serve-entry", "cold_cli_seconds"),
            ("serve-entry", "warm_miss_seconds"),
        ):
            base = _report()
            slow_value = {
                e["name"]: e for e in base["entries"]
            }[name][metric] * 2.0
            fresh = _report(**{name: {metric: slow_value}})
            result = compare_reports(base, fresh, TOLERANCES)
            assert not result.passed, f"2x {name}.{metric} must trip"
            assert any(metric in c["check"] for c in result.failures)

    def test_slowdown_within_band_passes(self):
        fresh = _report(**{"solver-entry": {"optimized_seconds": 0.05 * 1.5}})
        result = compare_reports(_report(), fresh, TOLERANCES)
        assert result.passed

    def test_missing_entry_fails(self):
        fresh = _report()
        fresh["entries"] = [
            e for e in fresh["entries"] if e["name"] != "sweep-entry"
        ]
        result = compare_reports(_report(), fresh, TOLERANCES)
        assert not result.passed
        assert any("present" in c["check"] for c in result.failures)

    def test_lost_certification_fails(self):
        fresh = _report(**{"sweep-entry": {"gap_certified": False}})
        result = compare_reports(_report(), fresh, TOLERANCES)
        assert not result.passed
        assert any("gap_certified" in c["check"] for c in result.failures)

    def test_gap_over_ceiling_fails(self):
        fresh = _report(**{"solver-entry": {"max_rate_gap": 1e-6}})
        result = compare_reports(_report(), fresh, TOLERANCES)
        assert not result.passed

    def test_joint_slowdown_trips_retention(self):
        # Both variants slow 3x together: every ratio check passes on
        # the tracked metric alone?  No — baseline_seconds is not
        # tracked, so the recomputed speedup guards this case.
        fresh = _report(
            **{
                "solver-entry": {
                    "baseline_seconds": 0.10 * 0.4,
                    "optimized_seconds": 0.05,
                }
            }
        )
        result = compare_reports(_report(), fresh, TOLERANCES)
        assert not result.passed
        assert any("speedup" in c["check"] for c in result.failures)

    def test_slack_loosens_bands(self):
        fresh = _report(**{"solver-entry": {"optimized_seconds": 0.05 * 2.0}})
        strict = compare_reports(_report(), fresh, TOLERANCES)
        loose = compare_reports(_report(), fresh, TOLERANCES, slack=2.0)
        assert not strict.passed
        assert all(
            c["passed"]
            for c in loose.checks
            if "optimized_seconds" in c["check"]
        )


class TestTolerances:
    def test_committed_file_parses_with_sane_bands(self):
        tolerances = load_tolerances(DEFAULT_TOLERANCES)
        for kind in ("solver", "presolve", "sweep", "scaling", "obs",
                     "default"):
            band = tolerance(tolerances, kind, "max_slowdown")
            assert band is not None
            # Bands must catch a genuine 2x regression yet tolerate
            # quick-mode noise.
            assert 1.4 <= float(band) < 2.0

    def test_per_kind_overrides_default(self):
        assert tolerance(TOLERANCES, "solver", "max_slowdown") == 1.7
        assert tolerance(TOLERANCES, "presolve", "max_slowdown") == 1.8
        assert tolerance(TOLERANCES, "presolve", "missing", 7) == 7


class TestMainEntry:
    def _write(self, path: Path, report: dict) -> Path:
        path.write_text(json.dumps(report))
        return path

    def test_exit_zero_on_identity(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", _report())
        fresh = self._write(tmp_path / "fresh.json", _report())
        code = main(["--baseline", str(baseline), "--fresh", str(fresh),
                     "--tolerances", str(DEFAULT_TOLERANCES)])
        assert code == 0
        assert "0 failures" in capsys.readouterr().out

    def test_exit_nonzero_on_regression(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", _report())
        fresh = self._write(
            tmp_path / "fresh.json",
            _report(**{"sweep-entry": {"warm_seconds": 0.25}}),
        )
        out_path = tmp_path / "gate.json"
        code = main(["--baseline", str(baseline), "--fresh", str(fresh),
                     "--tolerances", str(DEFAULT_TOLERANCES),
                     "--output", str(out_path)])
        assert code == 1
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is False
        assert payload["failures"] >= 1

    def test_update_baseline_writes_and_passes(self, tmp_path, capsys):
        fresh = self._write(tmp_path / "fresh.json", _report())
        target = tmp_path / "nested" / "baseline.json"
        code = main(["--baseline", str(target), "--fresh", str(fresh),
                     "--update-baseline"])
        assert code == 0
        assert json.loads(target.read_text())["benchmark"] == "hotpath"

    def test_missing_baseline_is_actionable(self, tmp_path):
        fresh = self._write(tmp_path / "fresh.json", _report())
        with pytest.raises(SystemExit, match="update-baseline"):
            main(["--baseline", str(tmp_path / "nope.json"),
                  "--fresh", str(fresh)])

    def test_committed_baseline_gates_itself(self, capsys):
        # The acceptance bar: the gate exits 0 when the fresh report IS
        # the committed baseline.
        code = main(["--fresh", str(DEFAULT_BASELINE)])
        assert code == 0

    def test_committed_baseline_trips_on_injected_2x(self, tmp_path, capsys):
        with DEFAULT_BASELINE.open() as handle:
            report = json.load(handle)
        for entry in report["entries"]:
            if entry["kind"] == "solver":
                entry["optimized_seconds"] *= 2.0
        fresh = self._write(tmp_path / "slow.json", report)
        assert main(["--fresh", str(fresh)]) == 1
