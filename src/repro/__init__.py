"""netsampling — optimal network-wide packet sampling.

Reproduction of *Reformulating the Monitor Placement Problem: Optimal
Network-Wide Sampling* (Cantieni, Iannaccone, Barakat, Diot, Thiran —
CoNEXT 2006): given a network where every link can host a monitor,
jointly decide which monitors to activate and at which sampling rate,
maximizing the utility of a measurement task under a system-wide
capacity constraint.

Quickstart::

    from repro import janet_task, SamplingProblem, solve

    task = janet_task()
    problem = SamplingProblem.from_task(task, theta_packets=100_000)
    solution = solve(problem)
    print(solution.summary([l.name for l in task.network.links]))

Packages
--------
``repro.core``
    The paper's contribution: problem, utilities, gradient-projection
    solver with KKT certification, SciPy reference solvers.
``repro.topology`` / ``repro.routing`` / ``repro.traffic``
    Substrates: backbone topologies, IS-IS routing, gravity traffic,
    NetFlow simulation, measurement workloads.
``repro.sampling``
    Monte-Carlo evaluation of configurations (the paper's §V method).
``repro.baselines``
    Access-link, restricted-set, uniform and two-phase comparators.
``repro.adaptive``
    Closed-loop adaptive monitoring: re-solve from sampled estimates,
    with volume-anomaly alarms.
``repro.inference``
    Traffic-matrix inference (tomogravity) from link counts.
``repro.stream``
    Streaming re-optimization: per-OD traffic tracking with change
    points and certified warm re-solves every interval.
``repro.scale``
    Backends past exact-GP scale: Frank-Wolfe ``approx`` and
    connectivity ``decompose``, picked by measured size under
    ``auto``.
``repro.serve``
    The solve daemon: resident tasks and warm chains behind a Unix
    socket, with a certified result cache (``netsampling serve``).
``repro.experiments``
    One module per paper table/figure.
``repro.obs``
    Observability: per-iteration solver traces, a metrics registry,
    structured logging, JSONL run manifests (``netsampling trace``).
``repro.resilience``
    Fault tolerance: supervised solves (timeout / retry / fallback
    chain), crash-safe sweep checkpoints, deterministic fault
    injection for chaos testing (``netsampling sweep --chaos``).
``repro.verify``
    Differential correctness: naive reference kernels, a brute-force
    enumeration solver, randomized backend cross-checks and the golden
    regression corpus (``netsampling verify``).
"""

from .adaptive import AdaptiveController, ControllerConfig, run_closed_loop
from .baselines import (
    access_link_solution,
    capacity_to_match_rate,
    greedy_placement,
    solve_restricted,
    two_phase_solution,
    uniform_solution,
)
from .core import (
    ExponentialUtility,
    GradientProjectionOptions,
    InfeasibleProblemError,
    KKTReport,
    LogUtility,
    MeanSquaredRelativeAccuracy,
    SamplingProblem,
    SamplingSolution,
    SoftMinUtilityObjective,
    SumUtilityObjective,
    UtilityFunction,
    check_kkt,
    exact_effective_rates,
    linear_effective_rates,
    solve,
    solve_gradient_projection,
    solve_scipy,
)
from .core import (
    build_robust_problem,
    quantize_solution,
    shadow_price,
    solve_robust,
)
from .core import (
    PresolveStats,
    ReducedProblem,
    RoutingOperator,
    WarmStartChain,
    check_kkt_family,
    presolve,
    solve_batch,
    solve_chain,
    solve_theta_sweep,
)
from .core import SolveAttempt, SolverDiagnostics
from .inference import estimate_traffic_matrix, gravity_prior
from .obs import (
    IterationRecord,
    MetricsRegistry,
    RunManifest,
    SolverTrace,
    Span,
    SpanRecorder,
    collecting_metrics,
    collecting_spans,
    compare_manifests,
    configure_logging,
    disable_metrics,
    enable_metrics,
    fingerprint_problem,
    get_logger,
    get_metrics,
    read_manifest,
    record_span,
    render_prometheus,
    render_span_tree,
    span,
    summarize_manifest,
    summarize_spans,
    tracing,
    write_manifest,
)
from .resilience import (
    CheckpointMismatchError,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    SolveTimeoutError,
    SupervisorError,
    SupervisorPolicy,
    SweepCheckpoint,
    chaos_plan,
    injected_faults,
    supervised_solve,
)
from .rng import DEFAULT_SEED, default_rng, derive_seed, set_default_seed
from .routing import ODPair, Path, RoutingMatrix, ShortestPathRouter
from .scale import choose_backend, solve_scaled
from .sampling import SamplingExperiment, accuracy, estimate_sizes
from .topology import (
    Network,
    abilene_network,
    geant_network,
    hierarchical_network,
    hierarchical_routing_problem,
)
from .traffic import (
    MeasurementTask,
    TrafficMatrix,
    gravity_traffic_matrix,
    janet_task,
    make_task,
)
from .verify import run_differential_suite, run_golden_suite, run_verification

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "SamplingProblem",
    "SamplingSolution",
    "InfeasibleProblemError",
    "solve",
    "solve_gradient_projection",
    "solve_scipy",
    "GradientProjectionOptions",
    "UtilityFunction",
    "MeanSquaredRelativeAccuracy",
    "LogUtility",
    "ExponentialUtility",
    "SumUtilityObjective",
    "SoftMinUtilityObjective",
    "check_kkt",
    "KKTReport",
    "linear_effective_rates",
    "exact_effective_rates",
    "RoutingOperator",
    "WarmStartChain",
    "check_kkt_family",
    "presolve",
    "PresolveStats",
    "ReducedProblem",
    "solve_chain",
    "solve_theta_sweep",
    "solve_batch",
    "SolverDiagnostics",
    "SolveAttempt",
    # resilience
    "SupervisorPolicy",
    "supervised_solve",
    "SolveTimeoutError",
    "SupervisorError",
    "SweepCheckpoint",
    "CheckpointMismatchError",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "chaos_plan",
    "injected_faults",
    # substrates
    "Network",
    "geant_network",
    "abilene_network",
    "hierarchical_network",
    "hierarchical_routing_problem",
    "ODPair",
    "Path",
    "RoutingMatrix",
    "ShortestPathRouter",
    "TrafficMatrix",
    "gravity_traffic_matrix",
    "MeasurementTask",
    "janet_task",
    "make_task",
    # evaluation
    "SamplingExperiment",
    "accuracy",
    "estimate_sizes",
    # baselines
    "uniform_solution",
    "access_link_solution",
    "capacity_to_match_rate",
    "solve_restricted",
    "greedy_placement",
    "two_phase_solution",
    # extensions
    "AdaptiveController",
    "ControllerConfig",
    "run_closed_loop",
    "build_robust_problem",
    "solve_robust",
    "quantize_solution",
    "shadow_price",
    "estimate_traffic_matrix",
    "gravity_prior",
    # observability
    "SolverTrace",
    "IterationRecord",
    "tracing",
    "MetricsRegistry",
    "get_metrics",
    "enable_metrics",
    "disable_metrics",
    "collecting_metrics",
    "render_prometheus",
    "Span",
    "SpanRecorder",
    "span",
    "record_span",
    "collecting_spans",
    "summarize_spans",
    "render_span_tree",
    "configure_logging",
    "get_logger",
    "RunManifest",
    "fingerprint_problem",
    "write_manifest",
    "read_manifest",
    "summarize_manifest",
    "compare_manifests",
    # reproducible randomness
    "DEFAULT_SEED",
    "default_rng",
    "derive_seed",
    "set_default_seed",
    # scaling backends
    "choose_backend",
    "solve_scaled",
    # verification
    "run_verification",
    "run_differential_suite",
    "run_golden_suite",
]
