"""Command-line interface.

Nine subcommands::

    netsampling topology {show,export} <name>     # inspect topologies
    netsampling solve ...                         # run the optimizer
    netsampling sweep ...                         # θ sweeps (+ --chaos)
    netsampling experiments [name ...] [--quick]  # regenerate the paper
    netsampling trace {summary,compare} ...       # inspect run manifests
    netsampling metrics <manifest>                # Prometheus exposition
    netsampling verify [--suite quick|full]       # differential checks
    netsampling serve --socket PATH               # warm solver daemon
    netsampling request <op> --socket PATH        # talk to the daemon

Examples::

    netsampling topology show geant
    netsampling topology export geant --format edgelist > geant.txt
    netsampling solve --topology geant --theta 100000
    netsampling solve --theta 100000 --trace-out run.jsonl
    netsampling solve --topology abilene --theta 20000 \\
        --od NYC:LAX:5000 --od SEA:ATL:300 --background 200000
    netsampling sweep --theta-min 1e4 --theta-max 1e6 --points 20
    netsampling sweep --theta-min 1e4 --theta-max 1e6 --points 10 \\
        --checkpoint sweep.jsonl          # resumable
    netsampling sweep --theta-min 1e4 --theta-max 1e6 --points 8 --chaos
    netsampling experiments table1 comparison --quick
    netsampling trace summary run.jsonl
    netsampling trace summary run.jsonl --spans   # span waterfall
    netsampling trace compare before.jsonl after.jsonl
    netsampling metrics run.jsonl                 # scrape-able text
    netsampling verify --suite quick --report verify_report.json
    netsampling verify --update-golden
    netsampling serve --socket /tmp/ns.sock --journal cache.jsonl \\
        --max-pending 32 --stale-grace 60 --default-deadline-ms 5000
    netsampling request ping --socket /tmp/ns.sock
    netsampling request health --socket /tmp/ns.sock --json
    netsampling solve --theta 100000 --daemon /tmp/ns.sock --json
    netsampling request solve --theta 1e5 --socket /tmp/ns.sock \\
        --deadline-ms 2000 --retries 3
    netsampling request drain --socket /tmp/ns.sock
    netsampling request shutdown --socket /tmp/ns.sock

``solve`` and ``sweep`` accept ``--daemon SOCKET`` to route through a
running ``netsampling serve`` daemon (warm caches, millisecond repeat
answers) and fall back to the inline solver — with a stderr warning —
when the socket is absent, so scripts work unchanged either way.

Results go to stdout; diagnostics (``--log-level``) and trace-written
notices go to stderr, so ``--json`` output stays machine-parseable.

``sweep --chaos`` is the self-checking resilience smoke: it re-runs the
sweep with a seeded worker kill and a seeded solver hang injected
(:mod:`repro.resilience.faults`) and fails unless the faulted runs
reproduce the unfaulted rates exactly and every exact member carries
a satisfied KKT certificate.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .baselines import solve_restricted
from .core import SamplingProblem, quantize_solution, solve
from .experiments.runner import EXPERIMENTS
from .obs import (
    SolverTrace,
    collecting_metrics,
    collecting_spans,
    compare_manifests,
    configure_logging,
    fingerprint_problem,
    get_logger,
    read_manifest,
    render_prometheus,
    render_span_tree,
    summarize_manifest,
    tracing,
    write_manifest,
)
from .routing import ODPair
from .scale import BACKEND_ALIASES, BACKEND_NAMES
from .topology import (
    Network,
    abilene_network,
    geant_network,
    load_network,
    network_to_edge_list,
    network_to_json,
    nsfnet_network,
)
from .traffic import janet_task, make_task

__all__ = ["main", "build_parser"]

logger = get_logger("cli")

_LOG_LEVELS = ("debug", "info", "warning", "error")

_BUILTIN_TOPOLOGIES = {
    "geant": geant_network,
    "abilene": abilene_network,
    "nsfnet": nsfnet_network,
}


def _resolve_topology(name: str) -> Network:
    """A built-in topology name or a JSON file path."""
    builder = _BUILTIN_TOPOLOGIES.get(name.lower())
    if builder is not None:
        return builder()
    try:
        return load_network(name)
    except OSError as exc:
        raise SystemExit(
            f"unknown topology {name!r}: not a built-in "
            f"({', '.join(_BUILTIN_TOPOLOGIES)}) and not a readable file "
            f"({exc})"
        )


def _parse_od(spec: str) -> tuple[str, str, float]:
    """Parse an ``ORIGIN:DEST:PPS`` OD-pair specification."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise SystemExit(f"bad --od {spec!r}: expected ORIGIN:DEST:PPS")
    try:
        pps = float(parts[2])
    except ValueError:
        raise SystemExit(f"bad --od {spec!r}: PPS must be a number")
    if pps <= 0:
        raise SystemExit(f"bad --od {spec!r}: PPS must be positive")
    return parts[0], parts[1], pps


def _add_log_level(parser: argparse.ArgumentParser, default=None) -> None:
    kwargs = {"default": default} if default else {"default": argparse.SUPPRESS}
    parser.add_argument(
        "--log-level", choices=_LOG_LEVELS, metavar="LEVEL",
        help="stderr logging threshold (debug, info, warning, error)",
        **kwargs,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsampling",
        description="Optimal network-wide packet sampling (CoNEXT 2006).",
    )
    _add_log_level(parser, default="warning")
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topology", help="inspect or export topologies")
    topo_sub = topo.add_subparsers(dest="topology_command", required=True)
    show = topo_sub.add_parser("show", help="print a topology summary")
    show.add_argument("name", help="geant, abilene, or a JSON file")
    export = topo_sub.add_parser("export", help="write a topology to stdout")
    export.add_argument("name", help="geant, abilene, or a JSON file")
    export.add_argument(
        "--format", choices=("json", "edgelist"), default="json"
    )

    slv = sub.add_parser("solve", help="optimize placement and rates")
    slv.add_argument("--topology", default="geant",
                     help="geant, abilene, or a JSON file (default: geant)")
    slv.add_argument("--theta", type=float, required=True,
                     help="capacity: max sampled packets per interval")
    slv.add_argument("--interval", type=float, default=300.0,
                     help="measurement interval in seconds (default 300)")
    slv.add_argument("--alpha", type=float, default=1.0,
                     help="per-link max sampling rate (default 1.0)")
    slv.add_argument("--od", action="append", default=[],
                     metavar="ORIGIN:DEST:PPS",
                     help="OD pair of interest (repeatable); on geant "
                          "defaults to the paper's JANET task")
    slv.add_argument("--task-file", default=None, metavar="FILE.json",
                     help="declarative task document (overrides "
                          "--topology/--od/--background)")
    slv.add_argument("--background", type=float, default=None,
                     help="gravity background traffic in pkt/s")
    slv.add_argument("--seed", type=int, default=None,
                     help="seed for the gravity background")
    slv.add_argument("--method", default="gradient_projection",
                     choices=("gradient_projection", "slsqp", "trust-constr"))
    slv.add_argument("--backend", default="exact", choices=BACKEND_NAMES,
                     help="scale backend: exact GP (default), Frank-Wolfe "
                          "water-filling, connectivity decomposition, or "
                          "auto by measured size ('compiled' is an alias "
                          "of exact); non-exact answers carry a "
                          "certified optimality gap")
    slv.add_argument("--presolve", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="reduce the problem (eliminate/merge links, drop "
                          "empty OD rows) before solving; exact — the lifted "
                          "solution has the identical objective "
                          "(default: on)")
    slv.add_argument("--restrict-to-node", default=None, metavar="NODE",
                     help="only links leaving NODE may host monitors")
    slv.add_argument("--quantize", action="store_true",
                     help="round rates to deployable 1-in-N sampling")
    slv.add_argument("--json", action="store_true", dest="as_json",
                     help="machine-readable output")
    slv.add_argument("--trace-out", default=None, metavar="FILE.jsonl",
                     help="write a per-iteration run manifest "
                          "(trace + metrics + fingerprint) as JSONL")
    slv.add_argument("--daemon", default=None, metavar="SOCKET",
                     help="route through a running `netsampling serve` "
                          "daemon (falls back inline, with a warning, "
                          "when the socket is unreachable)")
    _add_log_level(slv)

    swp = sub.add_parser(
        "sweep",
        help="solve a θ capacity sweep (resumable; --chaos self-check)",
    )
    swp.add_argument("--topology", default="geant",
                     help="geant, abilene, or a JSON file (default: geant)")
    swp.add_argument("--theta-min", type=float, required=True,
                     help="smallest capacity in the sweep")
    swp.add_argument("--theta-max", type=float, required=True,
                     help="largest capacity in the sweep")
    swp.add_argument("--points", type=int, default=10,
                     help="number of geometrically spaced θ points")
    swp.add_argument("--interval", type=float, default=300.0,
                     help="measurement interval in seconds (default 300)")
    swp.add_argument("--alpha", type=float, default=1.0,
                     help="per-link max sampling rate (default 1.0)")
    swp.add_argument("--od", action="append", default=[],
                     metavar="ORIGIN:DEST:PPS",
                     help="OD pair of interest (repeatable); on geant "
                          "defaults to the paper's JANET task")
    swp.add_argument("--task-file", default=None, metavar="FILE.json",
                     help="declarative task document (overrides "
                          "--topology/--od/--background)")
    swp.add_argument("--background", type=float, default=None,
                     help="gravity background traffic in pkt/s")
    swp.add_argument("--seed", type=int, default=None,
                     help="seed for the gravity background")
    swp.add_argument("--method", default="gradient_projection",
                     choices=("gradient_projection", "slsqp", "trust-constr"))
    swp.add_argument("--presolve", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="reduce the problem before solving (default: on)")
    swp.add_argument("--checkpoint", default=None, metavar="FILE.jsonl",
                     help="append completed points to FILE and resume from "
                          "it on restart (bitwise-identical to an "
                          "uninterrupted sweep)")
    swp.add_argument("--timeout", type=float, default=None, metavar="S",
                     help="supervise each member solve with an S-second "
                          "wall-clock budget (retries + fallback chain)")
    swp.add_argument("--retries", type=int, default=1,
                     help="supervised retries per solve stage (default 1)")
    swp.add_argument("--chaos", action="store_true",
                     help="inject a seeded worker kill and solver hang, "
                          "then verify the sweep still reproduces the "
                          "unfaulted rates exactly")
    swp.add_argument("--chaos-seed", type=int, default=0,
                     help="seed for the injected fault schedule (default 0)")
    swp.add_argument("--json", action="store_true", dest="as_json",
                     help="machine-readable output")
    swp.add_argument("--daemon", default=None, metavar="SOCKET",
                     help="route through a running `netsampling serve` "
                          "daemon (falls back inline, with a warning, "
                          "when the socket is unreachable)")
    _add_log_level(swp)

    stm = sub.add_parser(
        "stream",
        help="run the streaming re-optimization loop over a traffic trace",
    )
    stm.add_argument("--topology", default="geant",
                     help="geant, abilene, or a JSON file (default: geant)")
    stm.add_argument("--theta", type=float, required=True,
                     help="capacity: max sampled packets per interval")
    stm.add_argument("--interval", type=float, default=3600.0,
                     help="measurement interval in seconds (default 3600: "
                          "one diurnal hour per interval)")
    stm.add_argument("--alpha", type=float, default=1.0,
                     help="per-link max sampling rate (default 1.0)")
    stm.add_argument("--od", action="append", default=[],
                     metavar="ORIGIN:DEST:PPS",
                     help="OD pair of interest (repeatable); on geant "
                          "defaults to the paper's JANET task")
    stm.add_argument("--task-file", default=None, metavar="FILE.json",
                     help="declarative task document (overrides "
                          "--topology/--od/--background)")
    stm.add_argument("--background", type=float, default=None,
                     help="gravity background traffic in pkt/s")
    stm.add_argument("--seed", type=int, default=None,
                     help="seed for the gravity background")
    stm.add_argument("--intervals", type=int, default=24,
                     help="number of trace intervals to stream (default 24)")
    stm.add_argument("--noise", type=float, default=0.05,
                     help="per-OD log-normal fluctuation sigma (default "
                          "0.05)")
    stm.add_argument("--trough", type=float, default=0.4,
                     help="diurnal trough factor in (0, 1]; 1 flattens the "
                          "cycle (default 0.4)")
    stm.add_argument("--start-hour", type=float, default=0.0,
                     help="hour of day the trace starts at (default 0)")
    stm.add_argument("--reconfig-weight", type=float, default=0.0,
                     help="reconfiguration penalty weight gamma; 0 disables "
                          "the penalty (default 0)")
    stm.add_argument("--trace-seed", type=int, default=None,
                     help="seed for the trace's fluctuation noise")
    stm.add_argument("--anomaly", default=None,
                     metavar="OD:MAGNITUDE:START:DURATION",
                     help="inject one traffic anomaly: OD index spikes by "
                          "MAGNITUDE for DURATION intervals from START")
    stm.add_argument("--json", action="store_true", dest="as_json",
                     help="machine-readable output")
    stm.add_argument("--daemon", default=None, metavar="SOCKET",
                     help="route through a running `netsampling serve` "
                          "daemon (falls back inline, with a warning, "
                          "when the socket is unreachable)")
    _add_log_level(stm)

    exp = sub.add_parser("experiments", help="regenerate paper experiments")
    exp.add_argument("names", nargs="*", choices=[*EXPERIMENTS, []],
                     help=f"subset of: {', '.join(EXPERIMENTS)}")
    exp.add_argument("--quick", action="store_true")
    exp.add_argument("--export-dir", default=None, metavar="DIR",
                     help="also write CSV/JSON for exportable experiments")
    exp.add_argument("--trace-out", default=None, metavar="FILE.jsonl",
                     help="capture every solve of the selected experiments "
                          "into one JSONL run manifest")
    exp.add_argument("--seed", type=int, default=None,
                     help="pin the ambient RNG seed for every stochastic "
                          "component (default: the package seed, 2006)")
    _add_log_level(exp)

    ver = sub.add_parser(
        "verify",
        help="differential correctness suites + golden regression corpus",
    )
    ver.add_argument("--suite", choices=("quick", "full"), default="quick",
                     help="quick: CI smoke (50 instances, GEANT golden); "
                          "full: wider instance pool + whole golden corpus")
    ver.add_argument("--instances", type=int, default=None,
                     help="override the suite's differential instance count")
    ver.add_argument("--seed", type=int, default=None,
                     help="seed for the random-instance generator "
                          "(default: the package seed, 2006)")
    ver.add_argument("--update-golden", action="store_true",
                     dest="update_golden",
                     help="regenerate the golden JSON corpus instead of "
                          "comparing against it")
    ver.add_argument("--report", default=None, metavar="FILE.json",
                     help="write the machine-readable report as JSON")
    ver.add_argument("--json", action="store_true", dest="as_json",
                     help="print the report JSON on stdout")
    ver.add_argument("--trace-out", default=None, metavar="FILE.jsonl",
                     help="write a run manifest embedding the report")
    _add_log_level(ver)

    trc = sub.add_parser("trace", help="inspect solver run manifests")
    trc_sub = trc.add_subparsers(dest="trace_command", required=True)
    summ = trc_sub.add_parser("summary", help="digest one manifest")
    summ.add_argument("manifest", help="JSONL manifest from --trace-out")
    summ.add_argument("--spans", action="store_true", dest="show_spans",
                      help="also render the span waterfall (parent/child "
                           "timing tree across every recording process)")
    comp = trc_sub.add_parser("compare", help="diff two manifests")
    comp.add_argument("manifest_a")
    comp.add_argument("manifest_b")

    met = sub.add_parser(
        "metrics",
        help="export a manifest's metrics as Prometheus text",
    )
    met.add_argument("manifest", help="JSONL manifest from --trace-out")
    met.add_argument("--prefix", default="repro",
                     help="metric name prefix (default: repro)")
    _add_log_level(met)

    srv = sub.add_parser(
        "serve",
        help="warm solver daemon on a Unix socket (see docs/serving.md)",
    )
    srv.add_argument("--socket", required=True, metavar="PATH",
                     help="Unix socket path to listen on")
    srv.add_argument("--ttl", type=float, default=300.0,
                     help="cached-result time to live in seconds "
                          "(default 300)")
    srv.add_argument("--journal", default=None, metavar="FILE.jsonl",
                     help="fsynced cache journal; a restarted daemon "
                          "replays it to re-warm the result cache")
    srv.add_argument("--max-results", type=int, default=256,
                     help="LRU cap on cached results (default 256)")
    srv.add_argument("--max-tasks", type=int, default=8,
                     help="LRU cap on resident tasks/problems (default 8)")
    srv.add_argument("--max-warm", type=int, default=16,
                     help="LRU cap on warm-start chains (default 16)")
    srv.add_argument("--batch-min", type=int, default=3,
                     help="min concurrent solves to group through the "
                          "shared-memory pool (default 3)")
    srv.add_argument("--batch-window", type=float, default=0.004,
                     help="micro-batch collection window in seconds "
                          "(default 0.004; 0 disables batching)")
    srv.add_argument("--workers", type=int, default=4,
                     help="solver thread-pool width (default 4)")
    srv.add_argument("--max-pending", type=int, default=64,
                     help="admission high watermark: pending solves at "
                          "which new solves are shed with `overloaded` "
                          "(default 64)")
    srv.add_argument("--low-watermark", type=int, default=None,
                     help="backlog depth below which shedding clears "
                          "(default: half of --max-pending)")
    srv.add_argument("--retry-after-ms", type=float, default=50.0,
                     help="base retry hint on shed requests, scaled by "
                          "backlog depth (default 50)")
    srv.add_argument("--max-inflight-per-conn", type=int, default=8,
                     help="pipelined frames in flight per connection "
                          "(default 8)")
    srv.add_argument("--max-frame-bytes", type=int, default=1024 * 1024,
                     help="request frame size bound (default 1 MiB)")
    srv.add_argument("--default-deadline-ms", type=float, default=None,
                     help="server-side deadline for requests that carry "
                          "none (default: unlimited)")
    srv.add_argument("--deadline-fallback",
                     action=argparse.BooleanOptionalAction, default=True,
                     help="degrade deadline-bound exact solves to the "
                          "certified-gap approx backend instead of "
                          "erroring (default on)")
    srv.add_argument("--stale-grace", type=float, default=0.0,
                     help="serve expired cache entries for this many "
                          "seconds past TTL (tier `stale`) while a "
                          "background refresh re-solves (default 0: off)")
    srv.add_argument("--drain-timeout", type=float, default=30.0,
                     help="hard bound on waiting for in-flight work "
                          "during drain (default 30)")
    _add_log_level(srv)

    req = sub.add_parser(
        "request",
        help="send one request to a running solver daemon",
    )
    req.add_argument("op",
                     choices=("ping", "stats", "health", "solve", "sweep",
                              "stream", "invalidate", "dump-trace", "drain",
                              "shutdown"),
                     help="daemon operation")
    req.add_argument("--socket", required=True, metavar="PATH",
                     help="daemon Unix socket path")
    req.add_argument("--timeout", type=float, default=300.0,
                     help="client receive timeout in seconds (default 300)")
    req.add_argument("--deadline-ms", type=float, default=None,
                     help="server-side budget for this request; on "
                          "exhaustion the answer degrades or fails with "
                          "kind=deadline_exceeded")
    req.add_argument("--retries", type=int, default=0,
                     help="client retries on overloaded sheds and "
                          "connection failures, with jittered backoff "
                          "honoring retry_after_ms (default 0; "
                          "invalidate/drain/shutdown never retry)")
    req.add_argument("--topology", default=None,
                     help="task topology (solve/sweep/invalidate; "
                          "default geant, or all entries for invalidate)")
    req.add_argument("--od", action="append", default=[],
                     metavar="ORIGIN:DEST:PPS",
                     help="OD pair of interest (repeatable)")
    req.add_argument("--task-file", default=None, metavar="FILE.json")
    req.add_argument("--background", type=float, default=None)
    req.add_argument("--seed", type=int, default=None)
    req.add_argument("--interval", type=float, default=300.0)
    req.add_argument("--alpha", type=float, default=1.0)
    req.add_argument("--theta", type=float, default=None,
                     help="capacity for op=solve")
    req.add_argument("--theta-min", type=float, default=None,
                     help="smallest capacity for op=sweep")
    req.add_argument("--theta-max", type=float, default=None,
                     help="largest capacity for op=sweep")
    req.add_argument("--points", type=int, default=10)
    req.add_argument("--intervals", type=int, default=24,
                     help="trace length for op=stream")
    req.add_argument("--noise", type=float, default=0.05,
                     help="fluctuation sigma for op=stream")
    req.add_argument("--trough", type=float, default=0.4,
                     help="diurnal trough for op=stream")
    req.add_argument("--start-hour", type=float, default=0.0,
                     help="trace start hour for op=stream")
    req.add_argument("--reconfig-weight", type=float, default=0.0,
                     help="reconfiguration penalty weight for op=stream")
    req.add_argument("--trace-seed", type=int, default=None,
                     help="trace noise seed for op=stream")
    req.add_argument("--anomaly", default=None,
                     metavar="OD:MAGNITUDE:START:DURATION",
                     help="injected anomaly for op=stream")
    req.add_argument("--method", default="gradient_projection",
                     choices=("gradient_projection", "slsqp", "trust-constr"))
    req.add_argument("--backend", default="exact", choices=BACKEND_NAMES)
    req.add_argument("--presolve", action=argparse.BooleanOptionalAction,
                     default=True)
    req.add_argument("--path", default=None, metavar="FILE.jsonl",
                     help="output manifest for op=dump-trace")
    req.add_argument("--json", action="store_true", dest="as_json",
                     help="machine-readable output")
    _add_log_level(req)
    return parser


def _cmd_topology(args: argparse.Namespace) -> int:
    net = _resolve_topology(args.name)
    if args.topology_command == "show":
        print(f"{net.name}: {net.num_nodes} nodes, {net.num_links} links")
        for node in net.nodes:
            out = ", ".join(sorted(net.neighbors(node.name)))
            print(f"  {node.name:>6} -> {out}")
        return 0
    if args.format == "json":
        print(network_to_json(net))
    else:
        print(network_to_edge_list(net), end="")
    return 0


def _build_task(args: argparse.Namespace):
    """The measurement task shared by ``solve`` and ``sweep``.

    Resolution order: an explicit ``--task-file``, then ``--od`` specs
    on the chosen topology, then the paper's JANET task on GEANT.
    """
    if args.task_file:
        from .traffic import load_task_file

        try:
            return load_task_file(args.task_file, _resolve_topology)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc))
    if args.od:
        net = _resolve_topology(args.topology)
        specs = [_parse_od(spec) for spec in args.od]
        od_pairs = [ODPair(o, d) for o, d, _ in specs]
        sizes = [pps for _, _, pps in specs]
        return make_task(
            net, od_pairs, sizes,
            background_pps=args.background or 0.0,
            interval_seconds=args.interval,
            seed=args.seed,
        )
    if args.topology.lower() == "geant":
        kwargs = {"interval_seconds": args.interval}
        if args.background is not None:
            kwargs["background_pps"] = args.background
        if args.seed is not None:
            kwargs["seed"] = args.seed
        return janet_task(**kwargs)
    raise SystemExit(
        "--od is required for non-GEANT topologies (GEANT defaults to "
        "the paper's JANET task)"
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    args.backend = BACKEND_ALIASES.get(args.backend, args.backend)
    if args.daemon:
        code = _solve_via_daemon(args)
        if code is not None:
            return code
    task = _build_task(args)
    problem = SamplingProblem.from_task(task, args.theta, alpha=args.alpha)
    if args.backend != "exact" and args.restrict_to_node:
        raise SystemExit(
            "--backend only applies to the network-wide solve; "
            "--restrict-to-node always uses exact GP"
        )
    if args.backend != "exact" and args.method != "gradient_projection":
        raise SystemExit(
            "--backend replaces the solver; drop --method or use "
            "--backend exact"
        )
    logger.info(
        "solving %s: %d links, %d OD pairs, theta=%g, method=%s, backend=%s",
        task.network.name, problem.num_links, problem.num_od_pairs,
        args.theta, args.method, args.backend,
    )

    def _run_solve() -> object:
        if args.restrict_to_node:
            links = [
                link.index
                for link in task.network.out_links(args.restrict_to_node)
            ]
            solution = solve_restricted(
                problem, links, method=args.method, presolve=args.presolve
            )
        elif args.backend != "exact":
            from .scale import solve_scaled

            solution = solve_scaled(problem, backend=args.backend)
        else:
            solution = solve(problem, method=args.method, presolve=args.presolve)
        if args.quantize:
            solution = quantize_solution(problem, solution).solution
        return solution

    if args.trace_out:
        # The ambient trace also captures nested solves (restricted,
        # quantization refinement) without parameter plumbing; the
        # span recorder stitches pooled/decomposed work into one tree.
        trace = SolverTrace(label=f"solve:{task.network.name}")
        with tracing(trace), collecting_metrics() as registry, \
                collecting_spans(f"solve:{task.network.name}") as recorder:
            solution = _run_solve()
            metrics_snapshot = registry.snapshot()
        manifest_path = write_manifest(
            args.trace_out,
            trace,
            metrics=metrics_snapshot,
            spans=recorder.spans,
            fingerprint=fingerprint_problem(
                problem,
                topology=task.network.name,
                seed=args.seed,
                method=args.method,
                alpha=args.alpha,
            ),
        )
        logger.info("run manifest written to %s", manifest_path)
        print(f"[trace written {manifest_path}]", file=sys.stderr)
    else:
        solution = _run_solve()

    logger.info(
        "solved in %d iterations (%.4fs wall, %d line-search trials, "
        "%d releases)",
        solution.diagnostics.iterations,
        solution.diagnostics.wall_time_s,
        solution.diagnostics.line_search_evaluations,
        solution.diagnostics.constraint_releases,
    )

    names = [link.name for link in task.network.links]
    if args.as_json:
        payload = {
            "converged": solution.diagnostics.converged,
            "method": solution.diagnostics.method,
            "backend": args.backend,
            "optimality_gap": solution.diagnostics.optimality_gap,
            "iterations": solution.diagnostics.iterations,
            "wall_time_s": solution.diagnostics.wall_time_s,
            "objective": solution.objective_value,
            "budget_used_packets": solution.budget_used_packets,
            "monitors": {
                names[i]: solution.rates[i]
                for i in solution.active_link_indices
            },
            "od_utilities": {
                od.name: float(u)
                for od, u in zip(task.routing.od_pairs, solution.od_utilities)
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        print(solution.summary(names))
        worst = int(np.argmin(solution.od_utilities))
        print(
            f"worst OD pair: {task.routing.od_pairs[worst].name} "
            f"(utility {solution.od_utilities[worst]:.4f})"
        )
    return 0 if solution.diagnostics.converged else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .core.batch import solve_theta_sweep
    from .resilience import SupervisorPolicy

    if args.daemon:
        code = _sweep_via_daemon(args)
        if code is not None:
            return code

    if args.theta_min <= 0 or args.theta_max < args.theta_min:
        raise SystemExit("need 0 < --theta-min <= --theta-max")
    if args.points < 2:
        raise SystemExit("--points must be at least 2")
    if args.chaos and args.checkpoint:
        raise SystemExit("--chaos is a self-contained check; drop --checkpoint")
    if args.chaos and args.points < 4:
        raise SystemExit("--chaos needs --points >= 4 to exercise the pool")

    task = _build_task(args)
    thetas = [
        float(t)
        for t in np.geomspace(args.theta_min, args.theta_max, args.points)
    ]
    problem = SamplingProblem.from_task(task, thetas[0], alpha=args.alpha)
    logger.info(
        "sweeping %s: %d links, %d points in [%g, %g], method=%s",
        task.network.name, problem.num_links, args.points,
        args.theta_min, args.theta_max, args.method,
    )

    policy = None
    if args.timeout is not None or args.chaos:
        policy = SupervisorPolicy(
            timeout_s=args.timeout if args.timeout is not None else 2.0,
            max_retries=args.retries,
        )
    if args.chaos:
        return _run_chaos_sweep(args, problem, thetas, policy)

    solutions = solve_theta_sweep(
        problem, thetas, method=args.method, presolve=args.presolve,
        policy=policy, checkpoint=args.checkpoint,
    )
    names = [link.name for link in task.network.links]
    if args.as_json:
        payload = [
            {
                "theta_packets": theta,
                "converged": s.diagnostics.converged,
                "degraded": s.diagnostics.degraded,
                "objective": s.objective_value,
                "monitors": {
                    names[i]: s.rates[i] for i in s.active_link_indices
                },
            }
            for theta, s in zip(thetas, solutions)
        ]
        print(json.dumps(payload, indent=2))
    else:
        for theta, s in zip(thetas, solutions):
            status = "ok" if s.diagnostics.converged else "DEGRADED"
            print(
                f"theta={theta:>12.1f}  monitors={len(s.active_link_indices):>3d}  "
                f"objective={s.objective_value:.6f}  [{status}]"
            )
    return 0 if all(s.diagnostics.converged for s in solutions) else 1


def _run_chaos_sweep(args, problem, thetas, policy) -> int:
    """``sweep --chaos``: inject faults, verify nothing changed.

    Two faulted re-runs of the same sweep — a seeded worker SIGKILL
    through the crash-safe pool, and a seeded solver hang through the
    supervisor — must reproduce their unfaulted twins' rates bitwise
    and keep every member's KKT certificate satisfied.  Exit is
    non-zero on any violation.
    """
    from .core.batch import solve_batch, solve_theta_sweep
    from .resilience import chaos_plan, injected_faults

    hang_seconds = 3.0 * policy.timeout_s
    instances = [problem.with_theta(t).clamped() for t in thetas]
    with collecting_metrics() as registry:
        reference = solve_theta_sweep(
            problem, thetas, method=args.method, presolve=args.presolve,
            policy=policy,
        )
        hang = chaos_plan(
            args.chaos_seed, len(thetas), hang_seconds=hang_seconds,
            kill_worker=False,
        )
        with injected_faults(hang):
            hung = solve_theta_sweep(
                problem, thetas, method=args.method, presolve=args.presolve,
                policy=policy,
            )
        batch_reference = solve_batch(
            instances, processes=1, method=args.method, presolve=args.presolve
        )
        kill = chaos_plan(args.chaos_seed, len(thetas), hang_solve=False)
        with injected_faults(kill):
            batch_killed = solve_batch(
                instances, processes=min(4, len(instances)),
                method=args.method, presolve=args.presolve,
            )
        counters = registry.snapshot()["counters"]

    def _bitwise(a, b) -> bool:
        return all(
            np.array_equal(x.rates, y.rates) for x, y in zip(a, b)
        )

    def _kkt_ok(solutions) -> bool:
        return all(
            s.diagnostics.kkt is not None and s.diagnostics.kkt.satisfied
            for s in solutions
            if s.diagnostics.converged and not s.diagnostics.degraded
        )

    checks = {
        "hang: faulted sweep rates bitwise-equal unfaulted": _bitwise(
            reference, hung
        ),
        "hang: no member degraded": not any(
            s.diagnostics.degraded for s in hung
        ),
        "kill: faulted batch rates bitwise-equal unfaulted": _bitwise(
            batch_reference, batch_killed
        ),
        "kill: no member degraded": not any(
            s.diagnostics.degraded for s in batch_killed
        ),
        "kkt: every exact member carries a satisfied certificate": (
            _kkt_ok(hung) and _kkt_ok(batch_killed)
        ),
        "faults: the hang actually fired and tripped the timeout": (
            counters.get("faults.injected.solve.hang", 0) >= 1
            and counters.get("resilience.timeout", 0) >= 1
        ),
        "faults: the worker kill actually broke the pool": (
            counters.get("resilience.pool.broken", 0) >= 1
        ),
    }
    resilience_counters = {
        key: value
        for key, value in sorted(counters.items())
        if key.startswith(("resilience.", "faults."))
    }
    if args.as_json:
        print(
            json.dumps(
                {
                    "passed": all(checks.values()),
                    "checks": checks,
                    "counters": resilience_counters,
                },
                indent=2,
            )
        )
    else:
        for name, passed in checks.items():
            print(f"[{'PASS' if passed else 'FAIL'}] {name}")
        print("\nresilience counters:")
        for key, value in resilience_counters.items():
            print(f"  {key} = {value}")
    return 0 if all(checks.values()) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from contextlib import nullcontext
    from pathlib import Path

    from .rng import get_default_seed, set_default_seed
    from .verify import run_verification, update_golden

    set_default_seed(args.seed)
    if args.update_golden:
        for path in update_golden():
            print(f"regenerated {path}")
        return 0

    seed = args.seed if args.seed is not None else get_default_seed()
    trace = SolverTrace(label=f"verify:{args.suite}")
    scope = tracing(trace) if args.trace_out else nullcontext()
    span_scope = (
        collecting_spans(f"verify:{args.suite}")
        if args.trace_out
        else nullcontext()
    )
    with scope, collecting_metrics() as registry, span_scope as recorder:
        report = run_verification(
            suite=args.suite, seed=seed, instances=args.instances
        )
        metrics_snapshot = registry.snapshot()
    payload = report.to_dict()

    if args.report:
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[report written {args.report}]", file=sys.stderr)
    if args.trace_out:
        manifest_path = write_manifest(
            args.trace_out,
            trace,
            metrics=metrics_snapshot,
            # `is not None`: an empty SpanRecorder is falsy (len == 0).
            spans=recorder.spans if recorder is not None else None,
            extra={"verify": payload},
        )
        logger.info("run manifest written to %s", manifest_path)
        print(f"[trace written {manifest_path}]", file=sys.stderr)
    if args.as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(report.summary())
    return 0 if report.passed else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from contextlib import nullcontext
    from pathlib import Path

    from .experiments.runner import EXPORTERS
    from .rng import set_default_seed

    set_default_seed(args.seed)
    names = args.names or list(EXPERIMENTS)
    export_dir = Path(args.export_dir) if args.export_dir else None
    if export_dir is not None:
        export_dir.mkdir(parents=True, exist_ok=True)

    trace = SolverTrace(label=f"experiments:{','.join(names)}")
    scope = (
        tracing(trace) if args.trace_out else nullcontext()
    )
    metrics_scope = (
        collecting_metrics() if args.trace_out else nullcontext()
    )
    span_scope = (
        collecting_spans("experiments") if args.trace_out else nullcontext()
    )
    with scope, metrics_scope as registry, span_scope as recorder:
        for name in names:
            logger.info("running experiment %s (quick=%s)", name, args.quick)
            print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
            print(EXPERIMENTS[name](args.quick))
            if export_dir is not None and name in EXPORTERS:
                for path in EXPORTERS[name](args.quick, export_dir):
                    logger.info("exported %s", path)
                    print(f"[exported {path}]")
        metrics_snapshot = registry.snapshot() if registry else None
    if args.trace_out:
        manifest_path = write_manifest(
            args.trace_out,
            trace,
            metrics=metrics_snapshot,
            # `is not None`: an empty SpanRecorder is falsy (len == 0).
            spans=recorder.spans if recorder is not None else None,
            extra={"experiments": names, "quick": args.quick},
        )
        logger.info("run manifest written to %s", manifest_path)
        print(f"[trace written {manifest_path}]", file=sys.stderr)
    return 0


def _read_manifest_arg(path: str):
    try:
        return read_manifest(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read manifest {path!r}: {exc}")


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "summary":
        manifest = _read_manifest_arg(args.manifest)
        print(summarize_manifest(manifest))
        if args.show_spans:
            print("\nspan waterfall:")
            print(render_span_tree(manifest.spans))
        return 0
    print(
        compare_manifests(
            _read_manifest_arg(args.manifest_a),
            _read_manifest_arg(args.manifest_b),
        )
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    manifest = _read_manifest_arg(args.manifest)
    if manifest.metrics is None:
        raise SystemExit(
            f"manifest {args.manifest!r} carries no metrics record "
            "(was the run traced with --trace-out?)"
        )
    print(render_prometheus(manifest.metrics, prefix=args.prefix), end="")
    return 0


def _render_remote_solution(result: dict) -> str:
    """Text summary of a daemon solve result (mirrors the inline shape)."""
    status = "ok" if result["converged"] else "DEGRADED"
    gap = result.get("optimality_gap")
    head = (
        f"{result['num_monitors']} active monitors, "
        f"objective={result['objective']:.6f}, "
        f"budget={result['budget_used_packets']:.1f} packets  [{status}]"
    )
    if gap is not None:
        head += f"  (certified gap {gap:.2e})"
    lines = [head]
    monitors = sorted(
        result["monitors"].items(), key=lambda kv: (-kv[1], kv[0])
    )
    for name, rate in monitors:
        lines.append(f"  {name:>14}  rate={rate:.6f}")
    utilities = result.get("od_utilities") or {}
    if utilities:
        worst = min(utilities, key=utilities.get)
        lines.append(
            f"worst OD pair: {worst} (utility {utilities[worst]:.4f})"
        )
    return "\n".join(lines)


def _daemon_note(args, response: dict) -> None:
    latency_ms = float(response.get("latency_s") or 0.0) * 1e3
    print(
        f"[daemon {args.daemon}: cache {response.get('cache', '?')}, "
        f"{latency_ms:.1f} ms]",
        file=sys.stderr,
    )


def _solve_via_daemon(args: argparse.Namespace) -> int | None:
    """Route ``solve --daemon`` through a running server.

    Returns the exit code, or ``None`` (after a stderr warning) when
    the daemon is unreachable and the caller should solve inline.
    """
    from .serve import (
        ProtocolError,
        ServeClient,
        ServeConnectionError,
        ServeRequestError,
        solve_params_from_args,
    )

    unsupported = [
        flag for flag, value in (
            ("--restrict-to-node", args.restrict_to_node),
            ("--quantize", args.quantize),
            ("--trace-out", args.trace_out),
        ) if value
    ]
    if unsupported:
        raise SystemExit(
            f"--daemon solves do not support {', '.join(unsupported)}; "
            "drop the flag or solve inline"
        )
    try:
        params = solve_params_from_args(args)
    except (ProtocolError, ValueError) as exc:
        raise SystemExit(str(exc))
    try:
        response = ServeClient(args.daemon).request("solve", params)
    except ServeConnectionError as exc:
        logger.warning("%s; solving inline", exc)
        print(f"[daemon unavailable ({exc}); solving inline]",
              file=sys.stderr)
        return None
    except ServeRequestError as exc:
        raise SystemExit(f"daemon error: {exc}")
    result = response["result"]
    if args.as_json:
        print(json.dumps(result, indent=2))
    else:
        print(_render_remote_solution(result))
        _daemon_note(args, response)
    return 0 if result["converged"] else 1


def _sweep_via_daemon(args: argparse.Namespace) -> int | None:
    """Route ``sweep --daemon`` through a running server (or ``None``)."""
    from .serve import (
        ProtocolError,
        ServeClient,
        ServeConnectionError,
        ServeRequestError,
        sweep_params_from_args,
    )

    unsupported = [
        flag for flag, value in (
            ("--checkpoint", args.checkpoint),
            ("--timeout", args.timeout is not None),
            ("--chaos", args.chaos),
        ) if value
    ]
    if unsupported:
        raise SystemExit(
            f"--daemon sweeps do not support {', '.join(unsupported)}; "
            "drop the flag or sweep inline"
        )
    try:
        params = sweep_params_from_args(args)
    except (ProtocolError, ValueError) as exc:
        raise SystemExit(str(exc))
    try:
        response = ServeClient(args.daemon).request("sweep", params)
    except ServeConnectionError as exc:
        logger.warning("%s; sweeping inline", exc)
        print(f"[daemon unavailable ({exc}); sweeping inline]",
              file=sys.stderr)
        return None
    except ServeRequestError as exc:
        raise SystemExit(f"daemon error: {exc}")
    result = response["result"]
    points = result["points"]
    if args.as_json:
        print(json.dumps(points, indent=2))
    else:
        for point in points:
            status = "ok" if point["converged"] else "DEGRADED"
            print(
                f"theta={point['theta_packets']:>12.1f}  "
                f"monitors={point['num_monitors']:>3d}  "
                f"objective={point['objective']:.6f}  [{status}]"
            )
        _daemon_note(args, response)
    return 0 if result["converged"] else 1


def _render_stream_report(payload: dict) -> str:
    """Human-readable per-interval table of one streaming run."""
    lines = [
        f"{'int':>4}  {'objective':>12}  {'mon':>4}  {'mode':>4}  "
        f"{'iters':>5}  {'churn_l1':>10}  change-points"
    ]
    for entry in payload["intervals"]:
        mode = "cold" if entry["cold"] else "warm"
        iters = (
            "-"
            if entry["warm_iterations"] is None
            else str(entry["warm_iterations"])
        )
        churn = (
            "-" if entry["churn_l1"] is None else f"{entry['churn_l1']:.4f}"
        )
        cps = ",".join(str(od) for od in entry["change_points"]) or "-"
        lines.append(
            f"{entry['index']:>4}  {entry['objective']:>12.6f}  "
            f"{entry['num_monitors']:>4}  {mode:>4}  {iters:>5}  "
            f"{churn:>10}  {cps}"
        )
    summary = payload["summary"]
    p95 = summary["warm_iterations_p95"]
    change_points = summary["change_point_intervals"]
    lines.append(
        f"{summary['intervals']} intervals: "
        f"{summary['cold_resolves']} cold re-solve(s), "
        f"change points at "
        f"{','.join(str(i) for i in change_points) if change_points else 'none'}, "
        f"warm-iteration p95 {'-' if p95 is None else format(p95, '.1f')}"
    )
    return "\n".join(lines)


def _stream_via_daemon(args: argparse.Namespace, params: dict) -> int | None:
    """Route ``stream --daemon`` through a running server (or ``None``)."""
    from .serve import ServeClient, ServeConnectionError, ServeRequestError

    try:
        response = ServeClient(args.daemon).request("stream", params)
    except ServeConnectionError as exc:
        logger.warning("%s; streaming inline", exc)
        print(f"[daemon unavailable ({exc}); streaming inline]",
              file=sys.stderr)
        return None
    except ServeRequestError as exc:
        raise SystemExit(f"daemon error: {exc}")
    result = response["result"]
    if args.as_json:
        print(json.dumps(result, indent=2))
    else:
        print(_render_stream_report(result))
        _daemon_note(args, response)
    return 0 if result["converged"] else 1


def _cmd_stream(args: argparse.Namespace) -> int:
    from .serve import ProtocolError, stream_params_from_args
    from .serve.session import SolverSession

    try:
        params = stream_params_from_args(args)
    except (ProtocolError, ValueError) as exc:
        raise SystemExit(str(exc))
    if args.daemon:
        code = _stream_via_daemon(args, params)
        if code is not None:
            return code
    logger.info(
        "streaming %s: %d intervals, theta=%g, reconfig_weight=%g",
        params["topology"], params["intervals"], params["theta"],
        params["reconfig_weight"],
    )
    # The inline path runs the daemon's own session code, so the two
    # routes can never drift apart.
    try:
        payload = SolverSession(max_tasks=1, max_warm=1).execute_stream(
            params
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(_render_stream_report(payload))
    return 0 if payload["converged"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServerConfig, run_server

    if args.ttl <= 0:
        raise SystemExit("--ttl must be positive")
    if args.batch_window < 0:
        raise SystemExit("--batch-window must be >= 0")
    config = ServerConfig(
        socket_path=args.socket,
        ttl_s=args.ttl,
        max_cached_results=args.max_results,
        max_resident_tasks=args.max_tasks,
        max_warm_chains=args.max_warm,
        journal_path=args.journal,
        batch_min=args.batch_min,
        batch_window_s=args.batch_window,
        executor_workers=args.workers,
        max_pending=args.max_pending,
        low_watermark=args.low_watermark,
        retry_after_ms=args.retry_after_ms,
        max_inflight_per_conn=args.max_inflight_per_conn,
        max_frame_bytes=args.max_frame_bytes,
        default_deadline_ms=args.default_deadline_ms,
        deadline_fallback=args.deadline_fallback,
        stale_grace_s=args.stale_grace,
        drain_timeout_s=args.drain_timeout,
    )
    print(
        f"[serving on {args.socket}; stop with ctrl-c or "
        "`netsampling request shutdown`]",
        file=sys.stderr,
    )
    try:
        run_server(config)
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        raise SystemExit(f"cannot serve on {args.socket}: {exc}")
    return 0


def _cmd_request(args: argparse.Namespace) -> int:
    from .serve import (
        ProtocolError,
        ServeClient,
        ServeConnectionError,
        ServeRequestError,
        solve_params_from_args,
        stream_params_from_args,
        sweep_params_from_args,
    )

    op = args.op.replace("-", "_")
    try:
        if op == "solve":
            if args.theta is None:
                raise SystemExit("request solve needs --theta")
            params = solve_params_from_args(args)
        elif op == "stream":
            if args.theta is None:
                raise SystemExit("request stream needs --theta")
            params = stream_params_from_args(args)
        elif op == "sweep":
            if args.theta_min is None or args.theta_max is None:
                raise SystemExit(
                    "request sweep needs --theta-min and --theta-max"
                )
            params = sweep_params_from_args(args)
        elif op == "invalidate":
            params = (
                {"topology": args.topology} if args.topology else {}
            )
        elif op == "dump_trace":
            if not args.path:
                raise SystemExit("request dump-trace needs --path")
            params = {"path": args.path}
        else:
            params = None
    except (ProtocolError, ValueError) as exc:
        raise SystemExit(str(exc))

    client = ServeClient(
        args.socket, timeout_s=args.timeout, max_retries=args.retries
    )
    try:
        response = client.request(
            op, params, deadline_ms=args.deadline_ms
        )
    except ServeConnectionError as exc:
        raise SystemExit(str(exc))
    except ServeRequestError as exc:
        raise SystemExit(f"daemon error ({exc.kind}): {exc}")
    result = response.get("result", {})
    if op == "solve" and not args.as_json:
        print(_render_remote_solution(result))
        print(
            f"[cache {response.get('cache', '?')}, "
            f"{float(response.get('latency_s') or 0.0) * 1e3:.1f} ms]",
            file=sys.stderr,
        )
        return 0 if result["converged"] else 1
    if op == "sweep" and not args.as_json:
        for point in result["points"]:
            status = "ok" if point["converged"] else "DEGRADED"
            print(
                f"theta={point['theta_packets']:>12.1f}  "
                f"monitors={point['num_monitors']:>3d}  "
                f"objective={point['objective']:.6f}  [{status}]"
            )
        return 0 if result["converged"] else 1
    if op == "stream" and not args.as_json:
        print(_render_stream_report(result))
        return 0 if result["converged"] else 1
    print(json.dumps(result, indent=2, sort_keys=True))
    if op in ("solve", "sweep", "stream"):
        return 0 if result["converged"] else 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "log_level", None) or "warning")
    try:
        if args.command == "topology":
            return _cmd_topology(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "stream":
            return _cmd_stream(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "request":
            return _cmd_request(args)
        return _cmd_experiments(args)
    except BrokenPipeError:
        # Output was piped to a consumer (head, less) that closed early.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
