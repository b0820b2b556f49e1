"""Which program functions the traced run wraps, and the per-layer metrics.

A layer is a group of public functions of ``repro``; its time is the
self time of their spans (duration minus the time of the spans they
caused).  Times are reported in milliseconds per timed op, counts as
totals over the timed part, and distributions as percentiles.  Every
per-layer metric is always present: a layer a workload never enters
reports 0.

This module imports nothing from ``repro``: the attribute extractors
read the returned objects duck-typed, so the runner can aggregate
spans without importing the program.
"""

from __future__ import annotations

import math
from collections import defaultdict


def _solution_attrs(warm):
    def extract(args, kwargs, result):
        diagnostics = result.diagnostics
        return {
            "iterations": int(diagnostics.iterations),
            "line_search": int(diagnostics.line_search_evaluations),
            "releases": int(diagnostics.constraint_releases),
            "warm": bool(warm(args, kwargs)),
        }

    return extract


_COLD = _solution_attrs(lambda args, kwargs: False)
_GP = _solution_attrs(lambda args, kwargs: kwargs.get("warm_start") is not None)
_CHAIN = _solution_attrs(lambda args, kwargs: args[0].last_solve_warm)


def _presolve_attrs(args, kwargs, result):
    return {"links_eliminated": int(result.stats.links_eliminated)}


def _batch_attrs(args, kwargs, result):
    return {"tasks": len(args[0])}


def _choose_attrs(args, kwargs, result):
    return {"backend": str(result)}


def _step_attrs(args, kwargs, result):
    return {
        "cold": bool(result.cold),
        "change_points": len(result.change_points),
        "warm_iterations": result.warm_iterations,
    }


#: (layer, module, qualified name, attribute extractor).  The traced
#: run wraps each one whose module is imported when tracing starts.
TARGETS = [
    ("cli", "repro.cli", "main", None),
    ("task", "repro.traffic.workloads", "janet_task", None),
    ("task", "repro.traffic.workloads", "make_task", None),
    ("task", "repro.serve.session", "build_task", None),
    ("problem", "repro.core.problem", "SamplingProblem.__init__", None),
    ("problem", "repro.core.problem", "SamplingProblem.from_task", None),
    ("problem", "repro.core.problem", "SamplingProblem.with_theta", None),
    ("problem", "repro.core.problem", "SamplingProblem.clamped", None),
    ("presolve", "repro.core.presolve", "presolve", _presolve_attrs),
    ("presolve", "repro.core.presolve", "ReducedProblem.lift", None),
    ("solver", "repro.core.solver", "solve", _COLD),
    ("solver", "repro.core.gradient_projection", "solve_gradient_projection",
     _GP),
    ("solver", "repro.core.batch", "WarmStartChain.solve", _CHAIN),
    ("kkt", "repro.core.kkt", "check_kkt", None),
    ("batch", "repro.core.batch", "solve_batch", _batch_attrs),
    ("batch", "repro.core.batch", "solve_theta_sweep", None),
    ("scale", "repro.scale", "choose_backend", _choose_attrs),
    ("scale", "repro.scale", "solve_scaled", None),
    ("scale", "repro.scale.approx", "solve_approx", None),
    ("scale", "repro.scale.compiled", "solve_compiled", None),
    ("scale", "repro.scale.decompose", "solve_decomposed", None),
    ("stream", "repro.stream.controller", "StreamingController.step",
     _step_attrs),
    ("stream", "repro.stream.tracker", "TrafficTracker.observe", None),
    ("serve", "repro.serve.session", "SolverSession.prepare", None),
    ("serve", "repro.serve.session", "SolverSession.execute", None),
    ("serve", "repro.serve.session", "solution_payload", None),
    ("serve", "repro.serve.protocol", "encode_message", None),
    ("serve", "repro.serve.protocol", "decode_message", None),
]

SCALE_BACKENDS = ("exact", "approx", "decompose", "compiled")

#: Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    "import.repro_ms", "import.scipy_ms", "import.modules",
    "cli.self_ms", "cli.interp_ms",
    "task.build_ms", "task.build_calls", "trace.generate_ms",
    "problem.build_ms", "presolve.ms", "presolve.links_eliminated",
    "solver.ms", "kkt.ms", "solver.iterations_p50", "solver.iterations_p95",
    "solver.line_search_evals", "solver.releases", "solver.warm_ratio",
    "batch.ms", "batch.calls", "batch.tasks",
    "batch.shm.bytes_shared", "batch.shm.bytes_avoided",
    "scale.choose_ms",
    *(f"scale.picks.{backend}" for backend in SCALE_BACKENDS),
    "scale.approx_ms", "scale.compiled_ms", "scale.decompose_ms",
    "stream.step_self_ms", "stream.tracker_ms", "stream.cold_resolves",
    "stream.change_points", "stream.warm_iterations_p95",
    "serve.prepare_ms", "serve.execute_ms", "serve.payload_ms",
    "serve.codec_ms", "serve.wait_ms", "serve.cache_hit_ratio",
    "serve.batch_grouped", "serve.shed", "serve.teardown_hung",
    "loadgen.late_p99_ms", "obs.trace_overhead", "obs.attributed_frac",
)

_SERVE_NAMES = {
    "SolverSession.prepare": "serve.prepare_ms",
    "SolverSession.execute": "serve.execute_ms",
    "solution_payload": "serve.payload_ms",
    "encode_message": "serve.codec_ms",
    "decode_message": "serve.codec_ms",
}

_SCALE_NAMES = {
    "choose_backend": "scale.choose_ms",
    "solve_approx": "scale.approx_ms",
    "solve_compiled": "scale.compiled_ms",
    "solve_decomposed": "scale.decompose_ms",
}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def empty() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def op_scoped(spans: list[dict]) -> tuple[list[dict], list[dict]]:
    """(op root spans, spans caused by an op) of one in-process run."""
    roots = [record for record in spans if record["layer"] == "op"]
    root_ids = {record["id"] for record in roots}
    inner = [
        record for record in spans
        if record["root"] in root_ids and record["layer"] != "op"
    ]
    return roots, inner


def in_window(spans: list[dict], start_ns: int, end_ns: int) -> list[dict]:
    """Spans that began inside ``[start_ns, end_ns]`` (a timed window)."""
    return [
        record for record in spans
        if start_ns <= record["start"] <= end_ns and record["layer"] != "cli"
    ]


def span_metrics(spans: list[dict], ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of the timed ops.

    ``spans`` carry ``self`` times (see :func:`tracer.annotate_self_times`)
    and may come from several processes.  ``ops`` is the number of
    timed ops they belong to.
    """
    out = empty()
    per_op = 1e-6 / max(ops, 1)
    self_ns: dict[str, int] = defaultdict(int)
    by_key = {}
    for record in spans:
        self_ns[record["layer"]] += record["self"]
        by_key[(record.get("process"), record["id"])] = record

    def outermost(record) -> bool:
        parent = by_key.get((record.get("process"), record["parent"]))
        return parent is None or parent["layer"] != record["layer"]

    out["cli.self_ms"] = self_ns["cli"] * per_op
    out["task.build_ms"] = self_ns["task"] * per_op
    out["problem.build_ms"] = self_ns["problem"] * per_op
    out["presolve.ms"] = self_ns["presolve"] * per_op
    out["solver.ms"] = self_ns["solver"] * per_op
    out["kkt.ms"] = self_ns["kkt"] * per_op
    out["batch.ms"] = self_ns["batch"] * per_op

    iterations: list[int] = []
    warm_iterations: list[int] = []
    warm = 0
    for record in spans:
        attrs = record.get("attrs") or {}
        layer = record["layer"]
        name = record["name"]
        if layer == "task" and outermost(record):
            out["task.build_calls"] += 1
        elif layer == "presolve":
            out["presolve.links_eliminated"] += attrs.get("links_eliminated", 0)
        elif layer == "solver" and outermost(record) and attrs:
            iterations.append(attrs["iterations"])
            out["solver.line_search_evals"] += attrs["line_search"]
            out["solver.releases"] += attrs["releases"]
            warm += attrs["warm"]
        elif layer == "batch" and name == "solve_batch":
            out["batch.calls"] += 1
            out["batch.tasks"] += attrs.get("tasks", 0)
        elif layer == "scale":
            metric = _SCALE_NAMES.get(name)
            if metric is not None:
                out[metric] += record["self"] * per_op
            if name == "choose_backend" and outermost(record):
                out[f"scale.picks.{attrs['backend']}"] += 1
        elif layer == "stream":
            if name == "StreamingController.step":
                out["stream.step_self_ms"] += record["self"] * per_op
                out["stream.cold_resolves"] += attrs.get("cold", False)
                out["stream.change_points"] += attrs.get("change_points", 0)
                if attrs.get("warm_iterations") is not None:
                    warm_iterations.append(attrs["warm_iterations"])
            else:
                out["stream.tracker_ms"] += record["self"] * per_op
        elif layer == "serve":
            out[_SERVE_NAMES[name]] += record["self"] * per_op
    if iterations:
        out["solver.iterations_p50"] = percentile(iterations, 50)
        out["solver.iterations_p95"] = percentile(iterations, 95)
        out["solver.warm_ratio"] = warm / len(iterations)
    out["stream.warm_iterations_p95"] = percentile(warm_iterations, 95)
    return out


def attributed_fraction(roots: list[dict]) -> float:
    """Share of op time that the layers' self times account for."""
    total = sum(record["end"] - record["start"] for record in roots)
    unattributed = sum(record["self"] for record in roots)
    return (total - unattributed) / total if total else 0.0


def parse_importtime(text: str) -> dict[str, float]:
    """``import.*`` metrics from the ``-X importtime`` lines of one process.

    ``import.repro_ms`` is the cumulative time of the top-level imports
    of ``repro`` and its subpackages, ``import.scipy_ms`` the time spent
    in SciPy module bodies wherever they were imported from, and
    ``import.modules`` the number of modules the process imported.
    """
    modules = 0
    repro_us = 0
    scipy_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        try:
            self_us = int(fields[0])
            cumulative_us = int(fields[1])
        except ValueError:
            continue  # the header line
        column = fields[2]
        name = column.strip()
        depth = (len(column) - len(column.lstrip()) - 1) // 2
        modules += 1
        if depth == 0 and (name == "repro" or name.startswith("repro.")):
            repro_us += cumulative_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return {
        "import.repro_ms": repro_us / 1e3,
        "import.scipy_ms": scipy_us / 1e3,
        "import.modules": float(modules),
    }
