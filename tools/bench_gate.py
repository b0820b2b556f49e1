#!/usr/bin/env python
"""Performance-regression gate over the hot-path benchmark.

Compares a fresh ``benchmarks/bench_hotpath.py`` report against the
committed baseline (``benchmarks/baselines/bench_hotpath_quick.json``)
and fails — exit status 1 — when any tracked entry slowed down past
its tolerance band, lost its certified optimality gap, or disappeared
from the report.  CI runs this as the ``bench-gate`` job; locally::

    python tools/bench_gate.py --quick               # run fresh + compare
    python tools/bench_gate.py --fresh report.json   # compare existing
    python tools/bench_gate.py --quick --update-baseline

Three families of checks per benchmark entry, matched by ``name``:

``slowdown``
    For each tracked wall-clock metric of the entry's kind (e.g.
    ``optimized_seconds`` for solvers, ``warm_request_seconds`` for the
    daemon), ``fresh / baseline`` must stay at or below the kind's
    ``max_slowdown`` band.  Every band ships below 2.0 so a
    genuine 2x regression always trips the gate, while quick-mode
    timing noise does not.
``speedup retention``
    The entry's headline speedup, *recomputed from the raw seconds*
    (never trusted from the report), must retain at least
    ``min_speedup_retention`` of the baseline's — catching the case
    where both variants slow down together and the ratio test alone
    would stay green.
``certified gaps``
    Correctness riding along with performance: certified optimality
    gaps must stay below their absolute ceilings and a
    ``gap_certified: true`` baseline entry must not turn uncertified.

Tolerances live in ``.bench-tolerances.toml`` at the repo root
(stdlib ``tomllib``; per-kind tables override ``[default]``).  The
``--slack`` multiplier loosens every slowdown band uniformly for
cross-machine comparisons where absolute seconds are not comparable.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = ROOT / "benchmarks" / "baselines" / "bench_hotpath_quick.json"
DEFAULT_TOLERANCES = ROOT / ".bench-tolerances.toml"

#: Wall-clock metrics the gate tracks, by entry kind.  A metric listed
#: here that exists in the baseline entry must exist in the fresh one.
TRACKED_SECONDS = {
    "solver": ("optimized_seconds",),
    "presolve": ("reduced_seconds",),
    "sweep": ("warm_seconds", "presolved_seconds"),
    "scaling": ("approx_seconds", "decompose_seconds"),
    "obs": ("disabled_seconds",),
    "serve": ("warm_request_seconds",),
    "stream": ("incremental_seconds",),
}

#: (numerator, denominator) for recomputing each kind's headline
#: speedup from raw seconds.
SPEEDUP_PAIRS = {
    "solver": ("baseline_seconds", "optimized_seconds"),
    "presolve": ("full_seconds", "reduced_seconds"),
    "sweep": ("cold_seconds", "warm_seconds"),
    "scaling": ("exact_seconds", "approx_seconds"),
    "serve": ("cold_cli_seconds", "warm_request_seconds"),
    "stream": ("cold_seconds", "incremental_seconds"),
}

#: Certified-gap fields per kind -> the tolerance key holding their
#: absolute ceiling.
GAP_CEILINGS = {
    "solver": {
        "max_rate_gap": "max_rate_gap",
        "relative_objective_gap": "max_relative_objective_gap",
    },
    "presolve": {"relative_objective_gap": "max_relative_objective_gap"},
    "sweep": {"relative_objective_gap": "max_relative_objective_gap"},
    "scaling": {
        "approx_gap_relative": "max_approx_gap",
        "decompose_gap_relative": "max_decompose_gap",
    },
    "obs": {
        "disabled_overhead_relative": "max_disabled_overhead",
        "relative_objective_gap": "max_relative_objective_gap",
    },
    "serve": {"relative_objective_gap": "max_relative_objective_gap"},
    "stream": {
        "relative_objective_gap": "max_relative_objective_gap",
        "warm_iterations_p95": "max_warm_iterations_p95",
    },
}


@dataclass
class GateResult:
    """One comparison: every check, its verdict, and the numbers."""

    checks: list[dict] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str, **numbers) -> None:
        self.checks.append(
            {"check": name, "passed": bool(passed), "detail": detail, **numbers}
        )

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    @property
    def failures(self) -> list[dict]:
        return [c for c in self.checks if not c["passed"]]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": self.checks,
            "failures": len(self.failures),
        }


def load_tolerances(path: Path) -> dict:
    with path.open("rb") as handle:
        return tomllib.load(handle)


def tolerance(tolerances: dict, kind: str, key: str, fallback=None):
    """Per-kind value, else ``[default]``, else the hardcoded fallback."""
    if key in tolerances.get(kind, {}):
        return tolerances[kind][key]
    if key in tolerances.get("default", {}):
        return tolerances["default"][key]
    return fallback


def _recomputed_speedup(entry: dict, kind: str) -> float | None:
    pair = SPEEDUP_PAIRS.get(kind)
    if pair is None:
        return None
    num, den = pair
    if num not in entry or den not in entry:
        return None
    if entry[den] <= 0:
        return None
    return entry[num] / entry[den]


def compare_reports(
    baseline: dict, fresh: dict, tolerances: dict, slack: float = 1.0
) -> GateResult:
    """Every gate check for one baseline/fresh report pair."""
    result = GateResult()
    fresh_by_name = {e["name"]: e for e in fresh.get("entries", [])}
    for base in baseline.get("entries", []):
        name = base["name"]
        kind = base["kind"]
        live = fresh_by_name.get(name)
        if live is None:
            result.add(
                f"{name}: present",
                False,
                "entry missing from the fresh report",
            )
            continue

        band = float(tolerance(tolerances, kind, "max_slowdown", 1.8)) * slack
        for metric in TRACKED_SECONDS.get(kind, ()):
            if metric not in base:
                continue
            if metric not in live:
                result.add(
                    f"{name}: {metric}",
                    False,
                    "tracked metric missing from the fresh report",
                )
                continue
            if base[metric] <= 0:
                continue
            ratio = live[metric] / base[metric]
            result.add(
                f"{name}: {metric}",
                ratio <= band,
                f"{base[metric]:.4f}s -> {live[metric]:.4f}s "
                f"({ratio:.2f}x, band {band:.2f}x)",
                ratio=ratio,
                band=band,
            )

        retention = float(
            tolerance(tolerances, kind, "min_speedup_retention", 0.45)
        )
        base_speedup = _recomputed_speedup(base, kind)
        live_speedup = _recomputed_speedup(live, kind)
        if base_speedup is not None and base_speedup > 0:
            if live_speedup is None:
                result.add(
                    f"{name}: speedup",
                    False,
                    "speedup no longer computable from the fresh report",
                )
            else:
                kept = live_speedup / base_speedup
                result.add(
                    f"{name}: speedup",
                    kept >= retention,
                    f"{base_speedup:.2f}x -> {live_speedup:.2f}x "
                    f"(retained {kept:.2f}, floor {retention:.2f})",
                    retained=kept,
                    floor=retention,
                )

        for gap_field, ceiling_key in GAP_CEILINGS.get(kind, {}).items():
            if gap_field not in live:
                continue
            ceiling = tolerance(tolerances, kind, ceiling_key)
            if ceiling is None:
                continue
            result.add(
                f"{name}: {gap_field}",
                live[gap_field] <= float(ceiling),
                f"{live[gap_field]:.3e} (ceiling {float(ceiling):.3e})",
                value=live[gap_field],
                ceiling=float(ceiling),
            )
        if base.get("gap_certified") is True:
            result.add(
                f"{name}: gap_certified",
                live.get("gap_certified") is True,
                "certified in baseline; fresh must stay certified",
            )
    return result


def run_fresh_bench(
    quick: bool, repeats: int | None, output: Path
) -> dict:
    """Run ``bench_hotpath`` in-process and return its report."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import bench_hotpath
    finally:
        sys.path.pop(0)
    argv = ["--output", str(output)]
    if quick:
        argv.append("--quick")
    if repeats is not None:
        argv.extend(["--repeats", str(repeats)])
    status = bench_hotpath.main(argv)
    if status not in (0, None):
        raise SystemExit(f"bench_hotpath failed with status {status}")
    with output.open() as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"committed baseline report (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--fresh", type=Path, default=None,
        help="existing fresh report to compare; omit to run the "
             "benchmark now",
    )
    parser.add_argument(
        "--tolerances", type=Path, default=DEFAULT_TOLERANCES,
        help=f"tolerance bands (default: {DEFAULT_TOLERANCES})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run the fresh benchmark in quick mode (CI smoke)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats for the fresh run",
    )
    parser.add_argument(
        "--slack", type=float, default=1.0,
        help="multiply every slowdown band (cross-machine comparisons)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the machine-readable gate report as JSON",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the fresh report over the baseline and exit 0",
    )
    args = parser.parse_args(argv)
    if args.slack <= 0:
        parser.error("--slack must be positive")

    if args.fresh is not None:
        with args.fresh.open() as handle:
            fresh = json.load(handle)
    else:
        with tempfile.TemporaryDirectory(prefix="bench-gate-") as tmp:
            fresh = run_fresh_bench(
                args.quick, args.repeats, Path(tmp) / "fresh.json"
            )

    if args.update_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        with args.baseline.open("w") as handle:
            json.dump(fresh, handle, indent=2)
            handle.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if not args.baseline.exists():
        raise SystemExit(
            f"no baseline at {args.baseline}; seed one with "
            "--update-baseline"
        )
    with args.baseline.open() as handle:
        baseline = json.load(handle)
    tolerances = load_tolerances(args.tolerances)

    result = compare_reports(baseline, fresh, tolerances, slack=args.slack)
    for check in result.checks:
        marker = "PASS" if check["passed"] else "FAIL"
        print(f"[{marker}] {check['check']}: {check['detail']}")
    print(
        f"\nbench gate: {len(result.checks)} checks, "
        f"{len(result.failures)} failures"
    )
    if args.output is not None:
        payload = {
            "baseline": str(args.baseline),
            "slack": args.slack,
            **result.to_dict(),
        }
        with args.output.open("w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"[gate report written {args.output}]")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
