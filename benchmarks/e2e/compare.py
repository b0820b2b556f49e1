#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 benchmarks/e2e/compare.py --parent p1.txt p2.txt ... \\
        --change c1.txt c2.txt ...

Each file is the standard output of one ``run.py`` run (one workload
or ``all``), made with the same ``--seconds`` on both sides.  The i-th
parent run of a workload is paired with its i-th change run; collect
them alternating which side runs first.  For every workload and every
``end_to_end`` metric of ``BENCHMARK.json`` the verdict is:

* ``gain`` — at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither), and the medians differ by more than
  the parent's interquartile range;
* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound (a share of the parent's median);
* ``unresolved`` — the parent's interquartile range is wider than the
  bound, unless every change run is better than every parent run;
* ``unchanged`` — none of the above.

A gain does not count when the change failed more ops than the
parent.  A run whose answers were not all correct, or whose load
generator ran more than 5 ms late at p99, is invalid, and so is a
traced run: its pair is dropped and the run is listed as such.  Every
run is listed.  Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: The load generator's p99 lateness above which a run is invalid.
LATE_LIMIT_MS = 5.0
MIN_PAIRS = 10
WIN_SHARE = 0.9


def parse_run_file(path: Path) -> list[dict]:
    """One record per workload in a captured ``run.py`` output."""
    runs: dict[str, dict] = {}
    correct = None
    for line in path.read_text().splitlines():
        if line.startswith("# e2e "):
            fields = dict(item.split("=", 1) for item in line[6:].split())
            runs[fields["workload"]] = {
                "file": str(path), "workload": fields["workload"],
                "seed": fields["seed"], "traced": fields["trace"] != "0",
                "values": {},
            }
        elif line.startswith("{"):
            correct = json.loads(line)["correct"]
        else:
            parts = line.split()
            if len(parts) == 4 and parts[0] in runs:
                runs[parts[0]]["values"][parts[1]] = float(parts[2])
    for run in runs.values():
        if run["traced"]:
            run["status"] = "traced"
        elif not correct:
            run["status"] = "incorrect"
        elif run["values"].get("loadgen.late_p99_ms", 0.0) > LATE_LIMIT_MS:
            run["status"] = "late"
        else:
            run["status"] = "ok"
    return list(runs.values())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, more_failures: bool) -> tuple[str, dict]:
    """The verdict for one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    iqr = p_q3 - p_q1
    detail = {
        "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
        "wins": wins, "pairs": len(parent),
    }
    improved = sign * (c_med - p_med)
    if (
        len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and improved > iqr
        and not more_failures
    ):
        return "gain", detail
    if -improved > bound * abs(p_med):
        return "regression", detail
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_med and iqr / abs(p_med) > bound and not all_better:
        return "unresolved", detail
    return "unchanged", detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    metrics = json.loads(args.spec.read_text())["end_to_end"]

    sides = {
        side: [run for path in paths for run in parse_run_file(path)]
        for side, paths in (("parent", args.parent), ("change", args.change))
    }
    workloads = sorted({run["workload"] for run in sides["parent"]}
                       & {run["workload"] for run in sides["change"]})
    regressed = False
    rows = []
    details = []
    for workload in workloads:
        parent = [r for r in sides["parent"] if r["workload"] == workload]
        change = [r for r in sides["change"] if r["workload"] == workload]
        pairs = [
            (p, c) for p, c in zip(parent, change)
            if p["status"] == c["status"] == "ok"
        ]
        if not pairs:
            rows.append(f"{workload:<14} no valid pairs")
            continue

        def failures(side: int) -> float:
            return sum(pair[side]["values"].get("fail_frac", 0.0)
                       for pair in pairs)

        more_failures = failures(1) > failures(0)
        cells = []
        for metric in metrics:
            name = metric["name"]
            outcome, detail = verdict(
                [p["values"][name] for p, _ in pairs],
                [c["values"][name] for _, c in pairs],
                metric["better"], metric["bound"], more_failures,
            )
            regressed |= outcome == "regression"
            cells.append(f"{name}={outcome}")
            details.append(
                f"{workload:<14} {name:<15} parent {detail['parent'][0]:.6g} "
                f"[{detail['parent'][1]:.6g}, {detail['parent'][2]:.6g}]  "
                f"change {detail['change'][0]:.6g} "
                f"[{detail['change'][1]:.6g}, {detail['change'][2]:.6g}]  "
                f"wins {detail['wins']}/{detail['pairs']}  "
                f"bound {metric['bound']:.0%}  {outcome}"
            )
        note = "  (change failed more ops: no gain counts)" if more_failures else ""
        rows.append(f"{workload:<14} {len(pairs):>2} pairs  "
                    + "  ".join(cells) + note)

    print("workload       verdicts")
    print("\n".join(rows))
    print("\nmedian [q1, q3] per side")
    print("\n".join(details))
    print("\nruns")
    for side, runs in sides.items():
        for run in runs:
            values = " ".join(
                f"{name}={value:.6g}" for name, value in run["values"].items()
            )
            print(f"{side:<6} {run['workload']:<14} seed={run['seed']:<6} "
                  f"{run['status']:<9} {run['file']}  {values}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
