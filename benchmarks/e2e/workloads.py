"""The five workloads of the end-to-end benchmark, one per child process.

    python benchmarks/e2e/workloads.py --workload NAME --seed N \\
        --seconds S --phase {setup,full} --trace {0,1} --tmp DIR --out FILE

``run.py`` starts this script once per setup sample and once for the
timed run, so import cost and peak memory belong to one workload.  The
child writes one JSON object to ``--out``:

* ``setup_s`` — time until the workload was ready to time ops;
* ``metrics`` — the end-to-end metrics of the timed part, including
  the ones only some workloads have (``op_tail_ms``, ``miss_p50_ms``…);
* ``attempted``, ``failed``, ``wrong`` and ``fail_kinds`` — every op is
  checked after the timed part, and a failure is an error, a shed, a
  timeout, an uncertified answer or a wrong one;
* ``layers`` — with ``--trace 1``, the per-layer metrics.

Inputs come only from ``--seed`` and ``--seconds``: see the
``*_inputs`` functions.  ``--seconds`` fixes how much work a run does,
sized so that the timed part takes about that long on a 2-CPU machine;
a faster program does the same work sooner, so both sides of a
comparison solve the same problems and hold the same data.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import loadgen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: θ range (packets per interval) every workload draws from.
THETA_RANGE = (2e4, 5e5)
#: Relative objective agreement required against a reference solve.
OBJECTIVE_RTOL = 1e-9
#: Certified relative optimality gap accepted from a scale backend.
SCALE_GAP_RTOL = 1e-6

now = time.perf_counter


def log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def seeded(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


class Run:
    """What one child knows: its arguments, recorder and outcome."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.setup_only = args.phase == "setup"
        self.smoke = args.smoke
        self.tmp = Path(args.tmp)
        self.recorder = tracer.Recorder() if args.trace else None
        self.fail_kinds: dict[str, int] = {}
        self.attempted = 0

    def fail(self, kind: str) -> None:
        self.fail_kinds[kind] = self.fail_kinds.get(kind, 0) + 1

    def trace_layers(self) -> None:
        """Wrap the program's functions (traced runs only)."""
        if self.recorder is not None:
            self.recorder.install(layers.TARGETS)

    def span(self, name: str, layer: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name, layer)

    def in_process_layers(self, ops: int) -> dict:
        """Per-layer metrics from this process's own spans."""
        path = self.tmp / f"{self.workload}.spans.jsonl"
        self.recorder.write_jsonl(path)
        spans = tracer.read_jsonl(path)
        roots, inner = layers.op_scoped(spans)
        out = layers.span_metrics(inner, ops)
        out["obs.attributed_frac"] = layers.attributed_fraction(roots)
        out["trace.generate_ms"] = sum(
            ((record["end"] - record["start"]) / 1e6
             for record in spans if record["layer"] == "trace"),
            0.0,
        )
        return out

    def result(self, setup_s: float, metrics: dict, layer_metrics=None) -> dict:
        failed = sum(self.fail_kinds.values())
        metrics["fail_frac"] = failed / max(self.attempted, 1)
        return {
            "setup_s": setup_s,
            "metrics": metrics,
            "attempted": self.attempted,
            "failed": failed,
            "wrong": self.fail_kinds.get("wrong", 0)
            + self.fail_kinds.get("uncertified", 0),
            "fail_kinds": self.fail_kinds,
            "layers": layer_metrics,
        }


def closed_loop_metrics(op_s: list[float], wall_s: float, certified: int,
                        tail: float | None) -> dict:
    """Latency and throughput of a closed loop of timed ops."""
    ms = [value * 1e3 for value in op_s]
    metrics = {
        "ops": len(ms),
        "op_p50_ms": layers.percentile(ms, 50),
        "throughput_ops": certified / wall_s if wall_s > 0 else 0.0,
    }
    if tail is not None and len(ms) >= 40:
        metrics["op_tail_ms"] = layers.percentile(ms, tail)
    return metrics


# -- cli-cold ------------------------------------------------------------


#: CLI processes per second of ``--seconds`` (one takes about 1.2 s).
CLI_OPS_PER_S = 1.0


def cli_inputs(seed: int, seconds: float) -> list[tuple[float, int]]:
    """(θ, gravity-background seed) of each CLI op."""
    rng = seeded("cli-cold", seed)
    return [
        (log_uniform(rng, *THETA_RANGE), rng.randrange(1, 2**31))
        for _ in range(max(2, round(CLI_OPS_PER_S * seconds)))
    ]


def cli_cold(run: Run) -> dict:
    """Sequential one-shot ``python -m repro solve --json`` processes."""
    start = now()
    # The reference solves below need the program in this process;
    # importing it here also leaves its files in the page cache, as a
    # user's earlier runs would.
    from repro import SamplingProblem, janet_task, solve

    inputs = cli_inputs(run.seed, run.seconds)
    setup_s = now() - start
    if run.setup_only:
        return run.result(setup_s, {})

    env = child_env()
    ops = []
    loop_start = now()
    for index, (theta, seed) in enumerate(inputs):
        argv = ["solve", "--json", "--theta", repr(theta), "--seed", str(seed)]
        spans = run.tmp / f"cli-{index}.spans.jsonl"
        if run.recorder is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            command = [
                sys.executable, "-X", "importtime", str(HERE / "driver.py"),
                "--spans", str(spans), "--", *argv,
            ]
        began = now()
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=60,
            )
        except subprocess.TimeoutExpired:
            proc = None
        wall = now() - began
        ops.append((theta, seed, wall, proc, spans))
    wall_s = now() - loop_start

    certified = 0
    for theta, seed, wall, proc, spans in ops:
        run.attempted += 1
        if proc is None:
            run.fail("timeout")
            continue
        if proc.returncode != 0:
            run.fail("error")
            continue
        answer = json.loads(proc.stdout)
        if not answer["converged"]:
            run.fail("uncertified")
            continue
        reference = solve(
            SamplingProblem.from_task(janet_task(seed=seed), theta),
            presolve=True,
        )
        if relative_error(answer["objective"], reference.objective_value) > (
            OBJECTIVE_RTOL
        ):
            run.fail("wrong")
            continue
        certified += 1

    metrics = closed_loop_metrics(
        [wall for _, _, wall, _, _ in ops], wall_s, certified, tail=None
    )
    metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    layer_metrics = cli_layers(ops) if run.recorder is not None else None
    return run.result(setup_s, metrics, layer_metrics)


def cli_layers(ops: list) -> dict:
    """Per-layer metrics over the traced CLI processes, per op."""
    spans: list[dict] = []
    imports: list[dict] = []
    wall_ms = 0.0
    root_ms = 0.0
    for _, _, wall, proc, path in ops:
        if proc is None or not path.exists():
            continue
        process = tracer.read_jsonl(path)
        spans.extend(process)
        imports.append(layers.parse_importtime(proc.stderr))
        wall_ms += wall * 1e3
        root_ms += sum(
            record["end"] - record["start"]
            for record in process if record["parent"] is None
        ) / 1e6
    count = max(len(imports), 1)
    out = layers.span_metrics(spans, count)
    for name in ("import.repro_ms", "import.scipy_ms", "import.modules"):
        out[name] = sum(entry[name] for entry in imports) / count
    # The interpreter's own share: start-up, imports and exit, which
    # no span covers.
    out["cli.interp_ms"] = (wall_ms - root_ms) / count
    out["obs.attributed_frac"] = (
        (root_ms + out["import.repro_ms"] * count) / wall_ms if wall_ms else 0.0
    )
    return out


# -- daemon-light / daemon-burst -----------------------------------------

#: Share of each request kind in the open-loop mix.  Hits stay under
#: half, so the median request is among the fastest solves and does
#: not flip between the hit and miss modes from one seed to the next;
#: task builds, the heaviest requests, are kept rare enough that the
#: daemon's single interpreter lock rarely queues behind them.
MIX = {"hot": 0.45, "theta": 0.5, "task": 0.05}
HOT_SET = 8
BURST_SIZE = 6
BURST_PERIOD_S = 2.5
#: Goodput counts certified answers within this latency.
GOODPUT_MS = 100.0
DAEMON_RATES = {"daemon-light": (10.0, False), "daemon-burst": (20.0, True)}


def daemon_inputs(workload: str, seed: int,
                  seconds: float) -> tuple[int, list[float], list[dict]]:
    """(background seed, hot-set θs, request schedule) of one run.

    The schedule holds exactly ``rate × seconds`` Poisson arrivals (a
    Poisson process conditioned on its count: sorted uniform times),
    with the kinds in the exact proportions of :data:`MIX`, so runs
    with different seeds offer the same load.  ``daemon-burst`` adds
    :data:`BURST_SIZE` distinct fresh-θ solves every
    :data:`BURST_PERIOD_S`.
    """
    rate, bursts = DAEMON_RATES[workload]
    rng = seeded(workload, seed)
    base_seed = rng.randrange(1, 2**31)
    hot = [log_uniform(rng, *THETA_RANGE) for _ in range(HOT_SET)]
    count = max(1, round(rate * seconds))
    kinds = ["hot"] * round(MIX["hot"] * count)
    kinds += ["task"] * round(MIX["task"] * count)
    kinds += ["theta"] * (count - len(kinds))
    rng.shuffle(kinds)
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))

    def fresh_theta(kind: str, t: float) -> dict:
        return {"t": t, "kind": kind,
                "params": {"theta": log_uniform(rng, *THETA_RANGE),
                           "seed": base_seed}}

    schedule = []
    for t, kind in zip(times, kinds):
        if kind == "hot":
            schedule.append({"t": t, "kind": kind,
                             "params": {"theta": rng.choice(hot),
                                        "seed": base_seed}})
        elif kind == "theta":
            schedule.append(fresh_theta(kind, t))
        else:
            schedule.append({"t": t, "kind": kind,
                             "params": {"theta": log_uniform(rng, *THETA_RANGE),
                                        "seed": rng.randrange(1, 2**31)}})
    if bursts:
        for k in range(int(seconds / BURST_PERIOD_S)):
            t = (k + 0.5) * BURST_PERIOD_S
            schedule += [fresh_theta("burst", t) for _ in range(BURST_SIZE)]
    schedule.sort(key=lambda entry: entry["t"])
    return base_seed, hot, schedule


def daemon(run: Run) -> dict:
    """An open-loop request mix against one ``netsampling serve``."""
    base_seed, hot, schedule = daemon_inputs(
        run.workload, run.seed, run.seconds
    )
    # The run's scratch directory (removed by run.py) holds the socket,
    # the daemon's stderr and its spans.
    workdir = Path(tempfile.mkdtemp(prefix="daemon-", dir=run.tmp))
    server = loadgen.Daemon(ROOT, workdir, child_env(),
                            traced=run.recorder is not None)
    conns: list[loadgen.Connection] = []
    try:
        start = now()
        conns.append(server.start())
        for theta in hot:
            answer = conns[0].call("solve", {"theta": theta, "seed": base_seed})
            if not answer.get("ok"):
                raise RuntimeError(f"hot-set solve failed: {answer}")
        setup_s = now() - start
        if run.setup_only:
            return run.result(setup_s, {})
        conns.append(loadgen.Connection(str(ROOT / server.socket_path)))
        before = conns[0].call("stats")["result"]["counters"]
        window_start = time.monotonic_ns()
        records = loadgen.open_loop(conns, schedule, time.monotonic() + 0.05)
        window_end = time.monotonic_ns()
        peak_mb = server.peak_rss_mb()
        try:
            after = conns[0].call("stats")["result"]["counters"]
        except OSError:
            after = {}  # the daemon is gone; its failures are counted
    finally:
        for conn in conns:
            conn.close()
        hung = server.stop()

    metrics, latencies, references = daemon_answers(run, records)
    metrics["peak_rss_mb"] = peak_mb
    metrics["serve.teardown_hung"] = float(hung)
    check_references(run, references)
    layer_metrics = None
    if run.recorder is not None:
        layer_metrics = daemon_layers(
            server, window_start, window_end, latencies, before, after
        )
        layer_metrics["loadgen.late_p99_ms"] = metrics["loadgen.late_p99_ms"]
        layer_metrics["serve.teardown_hung"] = float(hung)
    return run.result(setup_s, metrics, layer_metrics)


def daemon_answers(run: Run, records: list[dict]):
    """Classify every answer; latency runs from the scheduled send time."""
    latencies: list[float] = []
    by_cache: dict[str, list[float]] = {"hit": [], "miss": []}
    references = []
    fresh_misses = 0
    good = 0
    for record in records:
        run.attempted += 1
        response = record["response"]
        if response is None:
            run.fail("connection" if record["lost_connection"] else "timeout")
            continue
        if not response.get("ok"):
            run.fail("overloaded" if response.get("kind") == "overloaded"
                     else "error")
            continue
        result = response["result"]
        if not (result.get("converged") and result.get("gap_certified")
                and result.get("tier") == "exact"):
            run.fail("uncertified")
            continue
        latency = (record["recv"] - record["due"]) * 1e3
        latencies.append(latency)
        cache = response.get("cache")
        if cache in by_cache:
            by_cache[cache].append(latency)
        if record["kind"] in ("theta", "burst") and cache == "miss":
            if fresh_misses % 10 == 0:
                references.append((record["params"], result["objective"]))
            fresh_misses += 1
        good += latency <= GOODPUT_MS
    # Lateness of the generator itself: requests held back by the
    # per-connection cap waited on the daemon, not on the generator.
    late = [
        (record["sent"] - record["due"]) * 1e3
        for record in records
        if record["sent"] is not None and not record["held"]
    ]
    metrics = {
        "ops": len(latencies),
        "op_p50_ms": layers.percentile(latencies, 50),
        "throughput_ops": good / run.seconds,
        "miss_p50_ms": layers.percentile(by_cache["miss"], 50),
        "hit_p50_ms": layers.percentile(by_cache["hit"], 50),
        "loadgen.late_p99_ms": layers.percentile(late, 99),
    }
    if len(latencies) >= 40:
        metrics["op_tail_ms"] = layers.percentile(latencies, 95)
    if len(by_cache["miss"]) >= 40:
        metrics["miss_tail_ms"] = layers.percentile(by_cache["miss"], 95)
    return metrics, latencies, references


def check_references(run: Run, references: list) -> None:
    """Re-solve sampled misses in this process; a mismatch is wrong."""
    if not references:
        return
    from repro import SamplingProblem, janet_task, solve

    for params, objective in references:
        reference = solve(
            SamplingProblem.from_task(
                janet_task(seed=params["seed"]), params["theta"]
            ),
            presolve=True,
        )
        if relative_error(objective, reference.objective_value) > OBJECTIVE_RTOL:
            run.fail("wrong")


def daemon_layers(server: loadgen.Daemon, start_ns: int, end_ns: int,
                  latencies: list[float], before: dict, after: dict) -> dict:
    """Per-layer metrics of the daemon's timed window."""
    requests = max(len(latencies), 1)
    spans: list[dict] = []
    if server.spans_path is not None and server.spans_path.exists():
        spans = tracer.read_jsonl(server.spans_path)
    by_id = {record["id"]: record for record in spans}
    window = layers.in_window(spans, start_ns, end_ns)
    out = layers.span_metrics(window, requests)
    out.update(layers.parse_importtime(
        server.stderr_path.read_text(errors="replace")
    ))
    # Top-level work units: spans with no parent, or whose parent is
    # the daemon's long-lived ``main`` span.
    server_ns = sum(
        record["end"] - record["start"] for record in window
        if record["parent"] not in by_id
        or by_id[record["parent"]]["layer"] == "cli"
    )
    client_ms = sum(latencies) / requests
    out["serve.wait_ms"] = client_ms - server_ns / 1e6 / requests
    out["obs.attributed_frac"] = (
        (server_ns / 1e6 / requests) / client_ms if client_ms else 0.0
    )

    def delta(name: str) -> float:
        return float(after.get(name, 0) - before.get(name, 0))

    hits, misses = delta("serve.cache.hit"), delta("serve.cache.miss")
    out["serve.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["serve.batch_grouped"] = delta("serve.batch.grouped")
    out["serve.shed"] = delta("serve.admission.shed")
    out["batch.shm.bytes_shared"] = delta("batch.shm.bytes_shared")
    out["batch.shm.bytes_avoided"] = delta("batch.shm.bytes_avoided")
    return out


# -- stream-week ---------------------------------------------------------

WEEK = 168
#: Week-long traces per second of ``--seconds`` (a step takes ~1.2 ms).
TRACES_PER_S = 4.8
#: Penalty weight γ of the traces that limit placement churn.
RECONFIG_WEIGHT = 0.05
#: A cold reference solve checks every 16th interval, thinned to at
#: most this many per run so the check stays a few seconds.
STREAM_CHECKS = 48


def stream_inputs(seed: int, seconds: float, smoke: bool):
    """(base task, trace specs) of one run; the last spec is the warm-up.

    Every trace is one week of hourly GEANT intervals with a 4× shock
    on one OD pair, a sustained 3× level shift on another, and a
    circuit failure that leaves every task pair connected.  One trace
    in four limits churn with a reconfiguration penalty.
    """
    from repro import janet_task
    from repro.traffic import TraceEvent

    rng = seeded("stream-week", seed)
    base = janet_task(interval_seconds=3600.0, seed=rng.randrange(1, 2**31))
    circuits = failable_circuits(base)
    intervals = 24 if smoke else WEEK
    scale = intervals / WEEK
    specs = []
    for index in range(max(2, round(TRACES_PER_S * seconds)) + 1):
        shock_od, shift_od = rng.sample(range(base.num_od_pairs), 2)
        node_a, node_b = rng.choice(circuits)
        events = (
            TraceEvent("anomaly", int(rng.randrange(24, 60) * scale), 2,
                       od_index=shock_od, magnitude=4.0),
            TraceEvent("anomaly", int(rng.randrange(72, 96) * scale),
                       max(1, int(48 * scale)), od_index=shift_od,
                       magnitude=3.0),
            TraceEvent("failure", int(rng.randrange(120, 150) * scale), 6,
                       node_a=node_a, node_b=node_b),
        )
        specs.append({
            "intervals": intervals,
            "theta": log_uniform(rng, *THETA_RANGE),
            "reconfig_weight": RECONFIG_WEIGHT if index % 4 == 3 else 0.0,
            "events": events,
            "trace_seed": rng.randrange(1, 2**31),
        })
    return base, specs


def failable_circuits(base) -> list[tuple[str, str]]:
    """Circuits on a task path whose failure disconnects no task pair."""
    import numpy as np
    from repro.traffic.dynamics import fail_link

    used = set(np.flatnonzero(np.asarray(base.routing.matrix).sum(axis=0) > 0))
    circuits = []
    for link in base.network.links:
        pair = tuple(sorted((link.src, link.dst)))
        if link.index not in used or pair in circuits:
            continue
        try:
            fail_link(base, *pair)
        except ValueError:
            continue
        circuits.append(pair)
    return circuits


def generate(base, spec: dict) -> list:
    from repro.traffic import generate_trace

    return [
        interval.task
        for interval in generate_trace(
            base, spec["intervals"], noise_sigma=0.05,
            events=list(spec["events"]), seed=spec["trace_seed"],
        )
    ]


def stream_week(run: Run) -> dict:
    """``StreamingController.step`` over a week of hourly intervals."""
    start = now()
    from repro import solve
    from repro.stream import StreamConfig, StreamingController

    run.trace_layers()
    base, specs = stream_inputs(run.seed, run.seconds, run.smoke)
    with run.span("generate_trace", "trace"):
        traces = [generate(base, spec) for spec in specs]
    *timed, warmup = list(zip(specs, traces))

    def config(spec):
        return StreamConfig(theta_packets=spec["theta"],
                            reconfig_weight=spec["reconfig_weight"])

    controller = StreamingController(config(warmup[0]))
    for task in warmup[1]:
        controller.step(task)
    setup_s = now() - start
    if run.setup_only:
        return run.result(setup_s, {})

    op_s: list[float] = []
    checks = []
    certified = 0
    loop_start = now()
    for spec, trace in timed:
        controller = StreamingController(config(spec))
        for task in trace:
            with run.span("op", "op"):
                began = now()
                step = controller.step(task)
                op_s.append(now() - began)
            report = (step.reconfig.kkt if step.reconfig is not None
                      else step.solution.diagnostics.kkt)
            run.attempted += 1
            if report is None or not report.satisfied:
                run.fail("uncertified")
            else:
                certified += 1
            if step.index % 16 == 0:
                checks.append(step)
    wall_s = now() - loop_start

    for step in checks[::max(1, math.ceil(len(checks) / STREAM_CHECKS))]:
        cold = solve(step.problem, presolve=False).objective_value
        if step.reconfig is None:
            bad = relative_error(step.solution.objective_value, cold) > (
                OBJECTIVE_RTOL
            )
        else:
            # The penalized optimum may give up plain objective, but no
            # more than its certified bound.
            loss = cold - step.reconfig.base_objective
            slack = OBJECTIVE_RTOL * abs(cold)
            bad = not -slack <= loss <= step.reconfig.unpenalized_gap_bound + slack
        if bad:
            run.fail("wrong")

    metrics = closed_loop_metrics(op_s, wall_s, certified, tail=99)
    metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
    layer_metrics = (
        run.in_process_layers(len(op_s)) if run.recorder is not None else None
    )
    return run.result(setup_s, metrics, layer_metrics)


# -- scale-hier ----------------------------------------------------------

#: (pods, leaves per pod, intra-pod share) of the instances: 1k-link
#: ones, alternately with half the flows crossing pods and pod-local,
#: which ``auto`` gives to the compiled kernels, and pod-local 5k-link
#: ones, which it decomposes.  The solve time of one 1k instance varies
#: by a fifth from seed to seed, so a run solves many of them.
SMALL_SHAPES = ((16, 30, 0.5), (16, 30, 1.0))
LARGE_SHAPE = (40, 60, 1.0)
SMOKE_SHAPES = ((4, 6, 0.5), (4, 6, 1.0), (6, 8, 1.0))
#: Instances per second of ``--seconds``: 1k ones take ~0.3 s each,
#: 5k ones ~3.2 s.
SMALL_PER_S = 2.2
LARGE_PER_S = 0.1


def scale_inputs(seed: int, seconds: float, smoke: bool) -> list[tuple]:
    """(pods, leaves, intra-pod share, instance seed) of each instance."""
    rng = seeded("scale-hier", seed)
    if smoke:
        shapes = list(SMOKE_SHAPES)
    else:
        small = max(2, round(SMALL_PER_S * seconds))
        shapes = [SMALL_SHAPES[i % 2] for i in range(small)]
        shapes += [LARGE_SHAPE] * max(1, round(LARGE_PER_S * seconds))
    return [(*shape, rng.randrange(1, 2**31)) for shape in shapes]


def scale_hier(run: Run) -> dict:
    """``solve_scaled(backend="auto")`` on hierarchical instances."""
    start = now()
    from repro.core.kkt import check_kkt
    from repro.scale import solve_scaled
    from repro.topology.generators import hierarchical_routing_problem

    run.trace_layers()
    problems = [
        hierarchical_routing_problem(
            pods, leaves, intra_pod_fraction=share, seed=instance_seed
        )
        for pods, leaves, share, instance_seed in scale_inputs(
            run.seed, run.seconds, run.smoke
        )
    ]
    for backend in ("exact", "compiled", "decompose", "approx"):
        solve_scaled(
            hierarchical_routing_problem(4, 6, intra_pod_fraction=1.0, seed=0),
            backend=backend,
        )
    setup_s = now() - start
    if run.setup_only:
        return run.result(setup_s, {})

    op_s: list[float] = []
    answers = []
    loop_start = now()
    for problem in problems:
        with run.span("op", "op"):
            began = now()
            solution = solve_scaled(problem, backend="auto")
            op_s.append(now() - began)
        answers.append(solution)
    wall_s = now() - loop_start

    certified = 0
    for solution in answers:
        run.attempted += 1
        gap = solution.diagnostics.optimality_gap
        gap_ok = gap is not None and gap <= SCALE_GAP_RTOL * abs(
            solution.objective_value
        )
        if gap_ok or check_kkt(solution.problem, solution.rates).satisfied:
            certified += 1
        else:
            run.fail("uncertified")

    metrics = closed_loop_metrics(op_s, wall_s, certified, tail=None)
    metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
    layer_metrics = (
        run.in_process_layers(len(op_s)) if run.recorder is not None else None
    )
    return run.result(setup_s, metrics, layer_metrics)


WORKLOADS = {
    "cli-cold": cli_cold,
    "daemon-light": daemon,
    "daemon-burst": daemon,
    "stream-week": stream_week,
    "scale-hier": scale_hier,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "full"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = WORKLOADS[args.workload](Run(args))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
