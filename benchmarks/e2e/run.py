#!/usr/bin/env python3
"""End-to-end benchmark of netsampling: run workloads, check, report.

    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        --seconds 10 --trace {0,1}

Run from the repository root.  ``--workload all`` (the default) runs
the five workloads of ``BENCHMARK.json`` in turn.  Every end-to-end
metric is printed as ``workload metric value unit``, and the last line
is one JSON object: ``correct`` (no answer failed its check),
``attempted`` and ``failed`` op counts, and ``metrics`` — the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.

With ``--trace 0`` each workload runs its set-up in
:data:`SETUP_SAMPLES` fresh processes, the last of which also runs the
timed part; ``setup_s`` is the median.  With ``--trace 1`` it runs once
untraced and once traced, and ``obs.trace_overhead`` compares their
``op_p50_ms``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("cli-cold", "daemon-light", "daemon-burst", "stream-week",
             "scale-hier")
#: Set-up samples per untraced run (the last one is the timed run).
SETUP_SAMPLES = 3
#: A run must end within this, set-up and checks included.
RUN_BUDGET_S = 170.0
#: Where runs keep sockets, span files and results; removed after.
SCRATCH = ".e2e_tmp"

#: Units of the metrics that only some workloads report.
EXTRA_UNITS = {
    "ops": "count",
    "op_tail_ms": "ms",
    "fail_frac": "ratio",
    "miss_p50_ms": "ms",
    "miss_tail_ms": "ms",
    "hit_p50_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "serve.teardown_hung": "count",
}


class ChildFailed(RuntimeError):
    pass


def child(workload: str, args, phase: str, trace: int, tmp: Path,
          deadline: float) -> dict:
    """One workload process; returns the JSON it wrote."""
    out = tmp / f"{workload}-{phase}-{trace}-{time.monotonic_ns()}.json"
    command = [sys.executable]
    if trace:
        command += ["-X", "importtime"]
    command += [
        str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--phase", phase, "--trace", str(trace), "--tmp", str(tmp),
        "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {phase}: over the run budget") from exc
    if proc.returncode != 0 or not out.exists():
        raise ChildFailed(
            f"{workload} {phase} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    result = json.loads(out.read_text())
    if trace:
        result["importtime"] = layers.parse_importtime(proc.stderr)
    return result


def run_workload(workload: str, args, tmp: Path, deadline: float) -> dict:
    """Metrics, counts and checks of one workload."""
    if not args.trace:
        samples = 1 if args.smoke else SETUP_SAMPLES
        setups = [
            child(workload, args, "setup", 0, tmp, deadline)["setup_s"]
            for _ in range(samples - 1)
        ]
        full = child(workload, args, "full", 0, tmp, deadline)
        full["metrics"]["setup_s"] = statistics.median(
            setups + [full["setup_s"]]
        )
        return full
    untraced = child(workload, args, "full", 0, tmp, deadline)
    traced = child(workload, args, "full", 1, tmp, deadline)
    per_layer = traced["layers"]
    if workload in ("stream-week", "scale-hier"):
        per_layer.update(traced["importtime"])
    base = untraced["metrics"]["op_p50_ms"]
    per_layer["obs.trace_overhead"] = (
        traced["metrics"]["op_p50_ms"] / base - 1.0 if base else 0.0
    )
    traced["layers"] = per_layer
    for key in ("attempted", "failed", "wrong"):
        traced[key] += untraced[key]
    return traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sizes each workload's timed part to take "
                             "about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program at {ROOT / 'src' / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    deadline = time.monotonic() + RUN_BUDGET_S * len(workloads)
    (ROOT / SCRATCH).mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / SCRATCH))
    results = {}
    try:
        for workload in workloads:
            print(f"# e2e workload={workload} seed={args.seed} "
                  f"seconds={args.seconds:g} trace={args.trace}", flush=True)
            results[workload] = run_workload(workload, args, tmp, deadline)
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / SCRATCH).rmdir()
        except OSError:
            pass  # another run is using it

    metrics = {}
    for workload, result in results.items():
        values = result["layers"] if args.trace else result["metrics"]
        for entry in listed:
            value = values[entry["name"]]
            print(f"{workload} {entry['name']} {value!r} {entry['unit']}")
            key = entry["name"] if len(workloads) == 1 else (
                f"{workload}.{entry['name']}")
            metrics[key] = {"value": value, "unit": entry["unit"]}
        for name, unit in EXTRA_UNITS.items():
            if name in result["metrics"] and not any(
                entry["name"] == name for entry in listed
            ):
                print(f"{workload} {name} {result['metrics'][name]!r} {unit}")
        for kind, count in sorted(result["fail_kinds"].items()):
            print(f"{workload} fail.{kind} {count} count")
    print(json.dumps({
        "correct": all(result["wrong"] == 0 for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
