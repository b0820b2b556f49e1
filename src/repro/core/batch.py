"""Families of solves: warm-started chains, θ sweeps, parallel batches.

The paper's evaluation repeatedly solves *families* of closely related
problems — the capacity sweep behind Figure 2, per-interval
re-optimization under traffic change (§I's motivation), failure
scenarios.  Two structural facts make families much cheaper than
independent solves:

* adjacent instances have nearby optima, so chaining each solution
  into the next solve as a warm start (projected onto the new feasible
  set) collapses the iteration count;
* instances *across* families are independent, so they fan out over a
  process pool.

:class:`WarmStartChain` is the stateful primitive (the adaptive
controller holds one across control intervals); :func:`solve_chain`
and :func:`solve_theta_sweep` run a whole family through a chain; and
:func:`solve_batch` distributes independent problems over
``concurrent.futures`` workers.

Warm starts are guarded by a *structural fingerprint*: the chain
reuses the previous optimum only when the problem's dimensions,
candidate set, routing content and bounds all match the instance that
produced it (θ, the interval length and load *levels* are exempt —
capacity sweeps and per-interval load drift are the whole point of
chaining).  A mismatch — a failure scenario on an equal-sized
topology, a re-routed OD pair — cold-starts silently and counts
``batch.warm_start.stale``.

Pool workers receive each problem pickled and send back only the
rates and diagnostics; the parent re-binds them to its own problem
object, so the problem never crosses the pipe twice.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..obs.logsetup import get_logger
from ..obs.manifest import fingerprint_problem
from ..obs.metrics import METRICS, diff_snapshots
from ..obs.spans import (
    active_span_recorder,
    current_span_context,
    record_span,
    remote_span_context,
    span,
)
from ..obs.trace import SolverTrace
from .gradient_projection import (
    GradientProjectionOptions,
    solve_gradient_projection,
)
from .kkt import check_kkt_family
from .presolve import ReducedProblem
from .problem import SamplingProblem
from .solution import SamplingSolution
from .solver import solve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.supervisor import SupervisorPolicy

logger = get_logger(__name__)

__all__ = [
    "WarmStartChain",
    "solve_chain",
    "solve_theta_sweep",
    "solve_batch",
]

#: Fingerprint keys a warm start is allowed to differ on: the capacity
#: θ and the interval length are exactly what sweeps vary.
_NON_STRUCTURAL_KEYS = frozenset({"theta_packets", "interval_seconds"})

#: Pool batches at or below this size run inline: two solves never
#: amortize worker spawn + import cost.
_INLINE_BATCH_MAX = 2

#: Environment variable capping the *default* worker count of
#: :func:`solve_batch` (and everything fanning out through it — the
#: θ-sweep pool, the decomposition solver).  CI runners and shared
#: machines set it so a batch never oversubscribes the host; an
#: explicit ``processes=`` argument always wins.
MAX_PROCESSES_ENV = "REPRO_MAX_PROCESSES"


def _default_processes(num_problems: int) -> int:
    """``min(cpu, len)`` capped by ``$REPRO_MAX_PROCESSES`` when set.

    Unparseable or non-positive override values are ignored (the
    batch layer must never crash over a stray environment variable);
    the ignored value is counted in ``batch.env_cap.invalid``.
    """
    processes = min(os.cpu_count() or 1, max(num_problems, 1))
    raw = os.environ.get(MAX_PROCESSES_ENV)
    if raw is None:
        return processes
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        METRICS.increment("batch.env_cap.invalid")
        return processes
    if cap < processes:
        METRICS.increment("batch.env_cap.applied")
    return min(processes, cap)


def _structural_fingerprint(problem: SamplingProblem) -> tuple:
    """Hashable identity of everything a warm start must agree on.

    Builds on :func:`repro.obs.manifest.fingerprint_problem` (sizes,
    candidate count, α range, routing nnz/backend) and adds content
    digests of the routing storage, bounds, monitorable mask and the
    loads' zero pattern — nnz alone cannot distinguish two
    equal-density failure scenarios.  Load *levels* are deliberately
    left out: a warm start is only an initial point (the solver
    projects it onto the new feasible set), and per-interval load
    drift — diurnal scaling, the adaptive controller's SNMP readouts —
    is exactly when chaining pays.  A load crossing zero changes the
    candidate set, which the zero-pattern digest does catch.
    """
    digest = hashlib.blake2b(digest_size=16)
    csr = problem.routing_op.tosparse()
    if csr is not None:
        digest.update(csr.indptr.tobytes())
        digest.update(csr.indices.tobytes())
        digest.update(csr.data.tobytes())
    else:
        digest.update(np.ascontiguousarray(problem.routing_op.toarray()).tobytes())
    digest.update((problem.link_loads_pps > 0).tobytes())
    digest.update(problem.alpha.tobytes())
    digest.update(problem.monitorable.tobytes())
    fingerprint = fingerprint_problem(problem, content_digest=digest.hexdigest())
    return tuple(
        sorted(
            (key, value)
            for key, value in fingerprint.items()
            if key not in _NON_STRUCTURAL_KEYS
        )
    )


class WarmStartChain:
    """Solve successive problems, warm-starting each from the last optimum.

    Warm starts apply only to the gradient-projection method (the SciPy
    reference solvers take no starting point through the façade) and
    only while the structural fingerprint of the incoming problem
    matches the one that produced the previous optimum — θ may change
    (that is what sweeps do), but a changed routing matrix, load
    vector, bound vector or monitorable mask cold-starts silently.
    Stale fallbacks count ``batch.warm_start.stale`` in
    :data:`~repro.obs.metrics.METRICS`.

    With ``presolve`` enabled each member is reduced first (see
    :mod:`repro.core.presolve`) and the warm start is carried across
    the reduction boundary by group-summing the previous full-space
    optimum; solutions are lifted back, so callers always see
    full-space optima.

    With a ``policy``
    (:class:`~repro.resilience.supervisor.SupervisorPolicy`) each
    member solve runs supervised: per-attempt timeout, bounded
    retries, then the policy's fallback chain — the chain keeps
    advancing on a degraded answer instead of crashing the family.
    """

    def __init__(
        self,
        method: str = "gradient_projection",
        options: GradientProjectionOptions | None = None,
        warm_start: bool = True,
        trace: SolverTrace | None = None,
        presolve: bool = False,
        policy: "SupervisorPolicy | None" = None,
    ) -> None:
        self._method = method
        self._options = options
        self._warm_start = warm_start
        self._trace = trace
        self._presolve = presolve
        self._policy = policy
        self._previous_rates: np.ndarray | None = None
        self._previous_fingerprint: tuple | None = None
        self._last_solve_warm = False

    @property
    def previous_rates(self) -> np.ndarray | None:
        """The last optimum's full-length rate vector (or None)."""
        return self._previous_rates

    @property
    def last_solve_warm(self) -> bool:
        """Whether the most recent :meth:`solve` passed a warm start.

        The streaming controller reports per-interval warm/cold status
        from this; it reflects the *attempt* (set before the member
        solve runs), so a failed member still reads back truthfully.
        """
        return self._last_solve_warm

    def reset(self) -> None:
        """Forget the chain state; the next solve starts cold."""
        self._previous_rates = None
        self._previous_fingerprint = None
        self._last_solve_warm = False

    def seed(self, problem: SamplingProblem, rates: np.ndarray) -> None:
        """Prime the chain as if ``problem`` had just solved to ``rates``.

        Checkpoint resume uses this: restoring the completed prefix
        and seeding the chain from its last optimum makes the resumed
        sweep's remaining members solve from exactly the warm starts
        the uninterrupted sweep would have used.
        """
        self._previous_rates = np.asarray(rates, dtype=float)
        if self._warm_start and self._method == "gradient_projection":
            self._previous_fingerprint = _structural_fingerprint(problem)

    def solve(
        self,
        problem: SamplingProblem,
        options: GradientProjectionOptions | None = None,
    ) -> SamplingSolution:
        """Solve one member, warm-started from the previous optimum.

        ``options`` overrides the chain's construction-time options
        for this call only — the serve daemon uses this to thread a
        per-request deadline into ``wall_clock_limit_s`` without
        rebuilding the chain.
        """
        warm = None
        fingerprint: tuple | None = None
        if self._warm_start and self._method == "gradient_projection":
            fingerprint = _structural_fingerprint(problem)
            if self._previous_rates is not None:
                if fingerprint == self._previous_fingerprint:
                    warm = self._previous_rates
                else:
                    METRICS.increment("batch.warm_start.stale")
        self._last_solve_warm = warm is not None
        METRICS.increment(
            "batch.warm_start.hit" if warm is not None else "batch.warm_start.miss"
        )
        with span("batch.chain.solve", warm=warm is not None,
                  supervised=self._policy is not None):
            if self._policy is None:
                solution = self._solve_one(problem, warm, options)
            else:
                solution = self._solve_supervised(problem, warm, options)
        # Commit (rates, fingerprint) as a pair, only after success: a
        # member that raises — the adaptive controller's hold-on-failure
        # path — must leave the chain describing the last *good* optimum.
        # Committing the fingerprint before the solve let a later
        # structurally-matching problem warm-start from rates produced
        # under a different structure.
        self._previous_rates = solution.rates
        if fingerprint is not None:
            self._previous_fingerprint = fingerprint
        return solution

    def _solve_supervised(
        self,
        problem: SamplingProblem,
        warm: np.ndarray | None,
        options: GradientProjectionOptions | None = None,
    ) -> SamplingSolution:
        """One member through the supervisor: primary (warm) + fallbacks."""
        from ..resilience.supervisor import (
            fallback_stages,
            supervise_stages,
            with_cooperative_limit,
        )

        options = options if options is not None else self._options
        if self._method == "gradient_projection":
            options = with_cooperative_limit(options, self._policy.timeout_s)
        stages = [
            (self._method, lambda: self._solve_one(problem, warm, options))
        ]
        stages += fallback_stages(
            problem, self._policy, options=self._options,
            trace=self._trace, exclude=self._method,
        )
        return supervise_stages(stages, self._policy)

    def _solve_one(
        self,
        problem: SamplingProblem,
        warm: np.ndarray | None,
        options: GradientProjectionOptions | None = None,
    ) -> SamplingSolution:
        options = options if options is not None else self._options
        if self._method != "gradient_projection":
            return solve(
                problem, method=self._method, options=options,
                trace=self._trace, presolve=self._presolve,
            )
        if not self._presolve:
            return solve_gradient_projection(
                problem, options=options, warm_start=warm,
                trace=self._trace,
            )
        reduction = problem.presolve()
        forced = reduction.forced_solution()
        if forced is not None:
            return forced
        if reduction.identity:
            return solve_gradient_projection(
                problem, options=options, warm_start=warm,
                trace=self._trace,
            )
        warm_reduced = reduction.restrict_rates(warm) if warm is not None else None
        inner = solve_gradient_projection(
            reduction.problem, options=options,
            warm_start=warm_reduced, trace=self._trace,
        )
        kkt_tolerance = (
            options.kkt_tolerance
            if options is not None
            else GradientProjectionOptions().kkt_tolerance
        )
        return reduction.lift(inner, kkt_tolerance=kkt_tolerance)


def solve_chain(
    problems: Iterable[SamplingProblem],
    method: str = "gradient_projection",
    options: GradientProjectionOptions | None = None,
    warm_start: bool = True,
    trace: SolverTrace | None = None,
    presolve: bool = False,
    policy: "SupervisorPolicy | None" = None,
) -> list[SamplingSolution]:
    """Solve an ordered family, chaining warm starts between neighbours.

    A single ``trace`` spans the whole family — each member solve
    contributes its own solve scope, so per-solve convergence curves
    stay separable in the manifest.  A ``policy`` runs every member
    solve supervised (timeout / retries / fallback chain) so one bad
    member degrades instead of aborting the family.
    """
    chain = WarmStartChain(
        method=method, options=options, warm_start=warm_start, trace=trace,
        presolve=presolve, policy=policy,
    )
    return [chain.solve(problem) for problem in problems]


def solve_theta_sweep(
    problem: SamplingProblem,
    thetas: Sequence[float],
    clamp: bool = True,
    method: str = "gradient_projection",
    options: GradientProjectionOptions | None = None,
    warm_start: bool = True,
    trace: SolverTrace | None = None,
    presolve: bool = False,
    policy: "SupervisorPolicy | None" = None,
    checkpoint: "str | Path | None" = None,
) -> list[SamplingSolution]:
    """Solve ``problem`` across a capacity sweep (Figure 2's shape).

    Each point re-uses the previous point's optimum as a warm start —
    adjacent capacities have adjacent optima, so the sweep costs far
    fewer iterations than independent solves.  With ``clamp`` (default)
    capacities beyond what the candidate links can absorb saturate
    instead of raising, which is how sweep curves plateau.

    ``presolve`` reduces the topology *once* — every reduction is
    θ-independent — and runs the whole chain in the reduced space,
    lifting each point back to a full-space solution.  On instances
    with redundant links this shrinks every member solve; when nothing
    reduces the sweep is identical to the plain path.  Points the
    clamp pins to saturation skip the solver entirely
    (:meth:`ReducedProblem.forced_solution`), and the lifted family is
    re-certified against the full-space KKT conditions in one stacked
    pass (:func:`~repro.core.kkt.check_kkt_family`) instead of one
    gradient assembly per point.

    ``checkpoint`` names a JSONL file each completed point is appended
    to (fsynced per entry); rerunning the same sweep against the same
    file restores the completed prefix, seeds the warm-start chain
    from the last restored optimum and solves only the remainder —
    bitwise-identical to the uninterrupted sweep.  ``policy`` runs
    each member supervised (see :func:`solve_chain`).  Either option
    routes through the member-at-a-time chain, bypassing the stacked
    presolved fast path.
    """
    instances = []
    for theta in thetas:
        if theta <= 0:
            raise ValueError("theta values must be positive")
        instance = problem.with_theta(float(theta))
        instances.append(instance.clamped() if clamp else instance)
    with span("batch.theta_sweep", points=len(instances),
              presolve=presolve, checkpointed=checkpoint is not None):
        if checkpoint is not None:
            return _solve_checkpointed_sweep(
                instances, thetas, checkpoint, method=method, options=options,
                warm_start=warm_start, trace=trace, presolve=presolve,
                policy=policy,
            )
        if presolve and policy is None:
            base = problem.presolve()
            if not base.identity:
                return _solve_presolved_sweep(
                    base, instances, method=method, options=options,
                    warm_start=warm_start, trace=trace,
                )
        return solve_chain(
            instances, method=method, options=options, warm_start=warm_start,
            trace=trace, presolve=(presolve and policy is not None),
            policy=policy,
        )


def _solve_checkpointed_sweep(
    instances: Sequence[SamplingProblem],
    thetas: Sequence[float],
    checkpoint: "str | Path",
    method: str,
    options: GradientProjectionOptions | None,
    warm_start: bool,
    trace: SolverTrace | None,
    presolve: bool,
    policy: "SupervisorPolicy | None",
) -> list[SamplingSolution]:
    """Run a θ sweep against a crash-safe JSONL checkpoint.

    Completed entries restore without re-solving; the chain is seeded
    with the last restored optimum so the remaining members see the
    exact warm starts the uninterrupted sweep would have produced —
    resumed rates are bitwise-equal (JSON float repr round-trips
    IEEE-754 doubles exactly).
    """
    from ..resilience.checkpoint import SweepCheckpoint

    if not instances:
        return []
    store = SweepCheckpoint(
        checkpoint, thetas=[float(t) for t in thetas],
        num_links=instances[0].num_links, method=method,
    )
    completed = store.load()
    store.write_header()
    chain = WarmStartChain(
        method=method, options=options, warm_start=warm_start, trace=trace,
        presolve=presolve, policy=policy,
    )
    kkt_tolerance = (
        options.kkt_tolerance
        if options is not None and method == "gradient_projection"
        else GradientProjectionOptions().kkt_tolerance
    )
    solutions: list[SamplingSolution] = []
    for index, instance in enumerate(instances):
        entry = completed.get(index)
        if entry is not None:
            solution = store.restore_solution(
                instance, entry, kkt_tolerance=kkt_tolerance
            )
            chain.seed(instance, solution.rates)
            METRICS.increment("resilience.checkpoint.skipped")
            solutions.append(solution)
            continue
        solution = chain.solve(instance)
        store.append(index, solution)
        solutions.append(solution)
    return solutions


def _solve_presolved_sweep(
    base: ReducedProblem,
    instances: Sequence[SamplingProblem],
    method: str,
    options: GradientProjectionOptions | None,
    warm_start: bool,
    trace: SolverTrace | None,
) -> list[SamplingSolution]:
    """Chain a θ sweep through one reduction, certify the family once.

    Per-point full-space re-certification would cost one gradient
    assembly per θ — a single ``check_kkt_family`` call batches all of
    them through one rmatmat, which is what keeps the presolved sweep's
    per-point overhead below the warm chain's marginal solve cost.
    """
    reductions = [
        base.with_theta(instance.theta_packets) for instance in instances
    ]
    chain = WarmStartChain(
        method=method, options=options, warm_start=warm_start, trace=trace,
    )
    solutions: list[SamplingSolution | None] = [None] * len(reductions)
    solved: list[int] = []
    for index, reduction in enumerate(reductions):
        forced = reduction.forced_solution()
        if forced is not None:
            solutions[index] = forced
            continue
        inner = chain.solve(reduction.problem)
        solutions[index] = reduction.lift(inner)
        solved.append(index)
    if solved:
        kkt_tolerance = (
            options.kkt_tolerance
            if options is not None and method == "gradient_projection"
            else GradientProjectionOptions().kkt_tolerance
        )
        reports = check_kkt_family(
            instances[solved[0]],
            np.stack([solutions[index].rates for index in solved]),
            tolerance=kkt_tolerance,
            theta_rates=[instances[index].theta_rate_pps for index in solved],
        )
        for index, report in zip(solved, reports):
            lifted = solutions[index]
            solutions[index] = SamplingSolution(
                problem=lifted.problem,
                rates=lifted.rates,
                diagnostics=dataclasses.replace(
                    lifted.diagnostics, kkt=report
                ),
            )
    return solutions


def _solve_task(
    payload: tuple[SamplingProblem, str, GradientProjectionOptions | None, bool],
) -> tuple[np.ndarray, object]:
    """Pool target: solve one problem, return ``(rates, diagnostics)``.

    Not the full solution — the parent re-binds the result to *its*
    problem object, so the worker never pickles the problem back.
    """
    problem, method, options, presolve = payload
    solution = solve(problem, method=method, options=options, presolve=presolve)
    return solution.rates, solution.diagnostics


@dataclasses.dataclass
class _ObsEnvelope:
    """A pool task's result wrapped with its observability payload.

    ``metrics`` is a snapshot-shaped delta of what the worker recorded
    while running the task (see :func:`diff_snapshots`); ``spans`` are
    the worker's finished spans as dicts.  The parent unwraps exactly
    one envelope per *successful* result, so retried tasks can never
    double-merge.
    """

    result: object
    metrics: dict | None
    spans: list


def _obs_context() -> dict | None:
    """What the parent ships so workers stitch observability back.

    None when both spans and metrics are off in the parent — the
    common case — so the pool path stays payload-identical to the
    uninstrumented one.
    """
    context: dict = {}
    if METRICS.enabled:
        context["metrics"] = True
    span_context = current_span_context()
    if span_context is not None:
        context["spans"] = span_context
    return context or None


def _run_observed(payload, index: int, attempt: int, obs: dict):
    """Worker-side task body under shipped observability context.

    Enables the worker-local registry for the task (restoring after),
    runs the solve inside a ``batch.task`` span parented to the
    shipped remote context, and returns an :class:`_ObsEnvelope` with
    the metrics delta and recorded spans.
    """
    collect_metrics = obs.get("metrics", False)
    span_context = obs.get("spans")
    was_enabled = METRICS.enabled
    # Snapshot unconditionally: a reused worker's registry still holds
    # earlier tasks' counts even when collection was toggled off
    # between tasks, and those must not ship twice.
    before = METRICS.snapshot() if collect_metrics else None
    if collect_metrics and not was_enabled:
        METRICS.enable()
    try:
        submitted = obs.get("submitted_s")
        if submitted is not None:
            METRICS.observe_histogram(
                "batch.pool.queue_wait_seconds", time.time() - submitted
            )
        if span_context is not None:
            with remote_span_context(
                span_context, label=f"worker:{os.getpid()}"
            ) as recorder:
                with span("batch.task", index=index, attempt=attempt):
                    result = _solve_task(payload)
            shipped = [item.to_dict() for item in recorder.spans]
        else:
            result = _solve_task(payload)
            shipped = []
        delta = (
            diff_snapshots(METRICS.snapshot(), before)
            if collect_metrics
            else None
        )
    finally:
        if collect_metrics and not was_enabled:
            METRICS.disable()
    return _ObsEnvelope(result=result, metrics=delta, spans=shipped)


def _pool_run(task):
    """Pool entry point: arm fault injection, then solve.

    ``task`` is ``(payload, index, attempt, plan, obs)``.  The
    fault plan travels *inside* the task (a forked worker's inherited
    module state is a snapshot, and spawn-start workers have none), so
    worker behaviour is governed entirely by what the parent shipped.
    ``obs`` (or None) likewise carries the parent's span context and
    metrics opt-in — worker registries and recorders are process-local
    snapshots, so enablement cannot be inherited reliably either.
    """
    payload, index, attempt, plan, obs = task
    from ..resilience import faults

    if plan is not None:
        faults.install_faults(plan)
    else:
        faults.clear_faults()
    faults.maybe_fire(faults.SITE_WORKER_EXIT, index=index, attempt=attempt)
    if obs is not None:
        return _run_observed(payload, index, attempt, obs)
    return _solve_task(payload)


def _merge_envelope(envelope: _ObsEnvelope) -> None:
    """Fold one worker envelope into the parent's registry and trace."""
    if envelope.metrics is not None:
        METRICS.merge_snapshot(envelope.metrics)
    if envelope.spans:
        recorder = active_span_recorder()
        if recorder is not None:
            recorder.absorb(envelope.spans)


def _run_crash_safe_pool(
    tasks: Sequence[tuple],
    workers: int,
    context,
    max_pool_restarts: int,
    task_retries: int,
    inline_solve: Callable[[int], SamplingSolution],
) -> dict[int, object]:
    """Run pool tasks to completion despite dying workers.

    A worker that exits uncleanly (SIGKILL, ``os._exit``) breaks the
    whole :class:`ProcessPoolExecutor` — every unfinished future raises
    :class:`BrokenProcessPool`.  This driver keeps already-completed
    results, re-queues the lost tasks with a bumped attempt counter
    (so index-keyed injected faults fire exactly once) and restarts a
    fresh pool, up to ``max_pool_restarts`` times; past that the
    remainder degrades to inline execution in the parent.  Tasks that
    *raise* (as opposed to killing their worker) retry up to
    ``task_retries`` times before going inline.

    Counters: ``resilience.pool.broken`` / ``resilience.pool.requeued``
    / ``resilience.pool.inline_degraded`` for pool deaths,
    ``resilience.task.requeued`` / ``resilience.task.inline`` for
    task-level failures.
    """
    from ..resilience import faults as fault_mod

    plan = fault_mod.active_plan()
    base_obs = _obs_context()
    attempts = {index: 0 for index in range(len(tasks))}
    results: dict[int, object] = {}
    pending = list(range(len(tasks)))
    pool_failures = 0
    while pending:
        if pool_failures > max_pool_restarts:
            METRICS.increment("resilience.pool.inline_degraded")
            logger.warning(
                "process pool died %d times; solving %d remaining tasks inline",
                pool_failures, len(pending),
            )
            for index in pending:
                results[index] = inline_solve(index)
            return results
        requeue: list[int] = []
        broken = False
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending)), mp_context=context
        ) as executor:
            futures = {}
            for index in pending:
                task_obs = (
                    None
                    if base_obs is None
                    else {**base_obs, "submitted_s": time.time()}
                )
                futures[
                    executor.submit(
                        _pool_run,
                        (tasks[index], index, attempts[index], plan, task_obs),
                    )
                ] = index
            for future in as_completed(futures):
                index = futures[future]
                try:
                    value = future.result()
                except BrokenProcessPool:
                    broken = True
                except Exception as exc:  # noqa: BLE001 - isolate task faults
                    attempts[index] += 1
                    record_span(
                        "batch.task", duration_s=0.0, status="error",
                        index=index, attempt=attempts[index] - 1,
                        error=type(exc).__name__,
                    )
                    if attempts[index] <= task_retries:
                        METRICS.increment("resilience.task.requeued")
                        logger.warning(
                            "pool task %d failed (%s); re-queueing", index, exc
                        )
                        requeue.append(index)
                    else:
                        METRICS.increment("resilience.task.inline")
                        logger.warning(
                            "pool task %d failed %d times (%s); solving inline",
                            index, attempts[index], exc,
                        )
                        results[index] = inline_solve(index)
                else:
                    if isinstance(value, _ObsEnvelope):
                        _merge_envelope(value)
                        value = value.result
                    results[index] = value
        if broken:
            pool_failures += 1
            METRICS.increment("resilience.pool.broken")
            lost = [
                index for index in pending
                if index not in results and index not in requeue
            ]
            for index in lost:
                # The worker died before shipping its span; close the
                # task on the parent side so the trace shows the loss.
                record_span(
                    "batch.task", duration_s=0.0, status="error",
                    index=index, attempt=attempts[index],
                    error="BrokenProcessPool",
                )
                attempts[index] += 1
            METRICS.increment("resilience.pool.requeued", len(lost))
            logger.warning(
                "process pool broke; restarting and re-queueing %d lost tasks",
                len(lost),
            )
            requeue.extend(lost)
        pending = requeue
    return results


def solve_batch(
    problems: Sequence[SamplingProblem],
    processes: int | None = None,
    method: str = "gradient_projection",
    options: GradientProjectionOptions | None = None,
    presolve: bool = False,
    start_method: str | None = None,
    max_pool_restarts: int = 2,
    task_retries: int = 1,
) -> list[SamplingSolution]:
    """Solve independent problems, optionally across a process pool.

    ``processes`` is the worker count; ``None`` defaults to
    ``min(os.cpu_count(), len(problems))``, capped by the
    ``REPRO_MAX_PROCESSES`` environment variable when set (so CI
    runners and nested fan-outs don't oversubscribe shared machines —
    an explicit ``processes`` argument ignores the cap).  Batches of
    at most two
    problems (or ``processes <= 1``) always run inline — a pool can
    never amortize its spawn cost over so few solves.  Ordering of the
    results always matches the input.  Use this for *independent*
    instances — scenario grids, per-topology batches; for ordered
    families where neighbours inform each other, prefer
    :func:`solve_chain`.

    Solutions always carry the caller's own problem objects.
    ``start_method`` forces a multiprocessing start method
    (``fork`` / ``forkserver`` / ``spawn``).

    Observability: pool fan-out is recorded on the parent registry
    (``batch.pool.tasks`` / ``batch.pool.workers``).  When the parent has
    metrics collection or span recording on, each task additionally
    ships the parent's context into the worker and returns an
    :class:`_ObsEnvelope`: the worker's counter/gauge/timer/histogram
    delta merges into the parent registry (so ``solver.*`` /
    ``routing.*`` / ``objective.*`` reflect pooled work) and its
    ``batch.task`` span subtree stitches under the parent's open span.
    Workers that die before shipping get a parent-synthesized
    ``batch.task`` span with ``status="error"``; deltas only travel
    with successful results, so requeued tasks never merge twice.

    Crash safety: a worker that dies mid-task (OOM kill, segfault,
    injected ``worker.exit``) no longer aborts the batch — lost tasks
    are re-queued onto a fresh pool up to ``max_pool_restarts`` times,
    tasks that raise retry up to ``task_retries`` times, and past
    either budget the remainder runs inline in the parent (see
    :func:`_run_crash_safe_pool` for the counters).  Result ordering
    still matches the input.
    """
    if processes is None:
        processes = _default_processes(len(problems))
    if processes <= 1 or len(problems) <= _INLINE_BATCH_MAX:
        METRICS.increment("batch.sequential.tasks", len(problems))
        with span("batch.solve_batch", tasks=len(problems), mode="inline"):
            return [
                solve(problem, method=method, options=options,
                      presolve=presolve)
                for problem in problems
            ]

    workers = min(processes, len(problems))
    METRICS.increment("batch.pool.tasks", len(problems))
    METRICS.increment("batch.pool.dispatches")
    METRICS.gauge("batch.pool.workers", workers)
    context = (
        multiprocessing.get_context(start_method) if start_method else None
    )

    def _inline(index: int) -> SamplingSolution:
        return solve(
            problems[index], method=method, options=options, presolve=presolve
        )

    tasks = [(problem, method, options, presolve) for problem in problems]
    with span("batch.solve_batch", tasks=len(tasks), workers=workers,
              mode="pool"):
        with METRICS.timer("batch.pool.map"):
            results = _run_crash_safe_pool(
                tasks, workers, context, max_pool_restarts, task_retries,
                _inline,
            )
    solutions = []
    for index, problem in enumerate(problems):
        result = results[index]
        # Inline-degraded tasks come back as full solutions already.
        if not isinstance(result, SamplingSolution):
            rates, diagnostics = result
            result = SamplingSolution(
                problem=problem, rates=rates, diagnostics=diagnostics
            )
        solutions.append(result)
    return solutions
