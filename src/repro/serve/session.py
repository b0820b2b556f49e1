"""Resident solver state: tasks, problems, warm chains, result identity.

This is the one request path.  The daemon runs it for every request,
and ``netsampling solve``, ``sweep`` and ``stream`` run it in-process
(a one-task, one-chain :class:`SolverSession`) unless ``--daemon``
sends the same params over the socket.  The daemon's whole advantage
over a cold CLI call is what this module keeps alive between requests:

* **Task cache** — built measurement tasks (topology + routing +
  gravity background), LRU-keyed by the canonical task params.  The
  expensive parts (shortest paths, the routing matrix, the
  :class:`~repro.core.routing_op.RoutingOperator`) are built once; a
  repeat request at a different θ reuses them through
  ``problem.with_theta`` (which shares the routing operator).
* **Warm-start chains** — one
  :class:`~repro.core.batch.WarmStartChain` per (task, method,
  presolve) family, so a repeat solve at a nearby θ starts from the
  previous optimum and the presolve reduction logic inside the chain.
* **Request identity** — :meth:`SolverSession.prepare` normalizes a
  request into a :class:`PreparedRequest` carrying the *content*
  fingerprint (routing bytes, load levels, bounds, utility
  parameters, solver coordinates) whose digest is the result-cache
  key.  Load levels are deliberately part of this key — unlike
  warm-start fingerprints, changed loads change the certified answer.

Counters: ``serve.task.hit`` / ``miss`` / ``evicted``,
``serve.warm.hit`` / ``miss`` / ``evicted``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core import SamplingProblem, solve
from ..core.batch import WarmStartChain, solve_theta_sweep
from ..core.kkt import check_kkt
from ..obs.logsetup import get_logger
from ..obs.manifest import fingerprint_problem
from ..obs.metrics import METRICS
from ..obs.spans import span
from ..resilience import faults
from ..routing import ODPair
from ..topology import BUILTIN_TOPOLOGIES, Network, load_network
from ..traffic import janet_task, load_task_file, make_task
from .admission import Deadline
from .cache import fingerprint_key
from .protocol import ProtocolError

logger = get_logger(__name__)

__all__ = [
    "resolve_topology",
    "build_task",
    "PreparedRequest",
    "SolverSession",
    "solution_payload",
    "sweep_thetas",
    "sweep_payload",
    "stream_payload",
]

def resolve_topology(name: str) -> Network:
    """A built-in topology name or a JSON file path.

    Raises :class:`ValueError` on failure — the CLI wraps this into a
    ``SystemExit``, the daemon into an error response.
    """
    build = BUILTIN_TOPOLOGIES.get(name.lower())
    if build is not None:
        return build()
    try:
        return load_network(name)
    except OSError as exc:
        raise ValueError(
            f"unknown topology {name!r}: not a built-in "
            f"({', '.join(BUILTIN_TOPOLOGIES)}) and not a readable file "
            f"({exc})"
        )


def build_task(params: dict):
    """Build the measurement task for normalized task params.

    Resolution order: an explicit ``task_file``, then ``od`` specs on
    the chosen topology, then the paper's JANET task on GEANT.  Raises
    :class:`ValueError` on unbuildable requests.
    """
    if params.get("task_file"):
        try:
            return load_task_file(params["task_file"], resolve_topology)
        except (OSError, ValueError) as exc:
            raise ValueError(str(exc))
    if params.get("od"):
        net = resolve_topology(params["topology"])
        od_pairs = [ODPair(o, d) for o, d, _ in params["od"]]
        sizes = [pps for _, _, pps in params["od"]]
        return make_task(
            net,
            od_pairs,
            sizes,
            background_pps=params.get("background") or 0.0,
            interval_seconds=params["interval"],
            seed=params.get("seed"),
        )
    if params["topology"].lower() == "geant":
        kwargs = {"interval_seconds": params["interval"]}
        if params.get("background") is not None:
            kwargs["background_pps"] = params["background"]
        if params.get("seed") is not None:
            kwargs["seed"] = params["seed"]
        return janet_task(**kwargs)
    raise ValueError(
        "--od is required for non-GEANT topologies (GEANT defaults to "
        "the paper's JANET task)"
    )


def _task_key(params: dict) -> str:
    """Canonical identity of the task-building subset of the params."""
    subset = {
        key: params.get(key)
        for key in (
            "topology", "od", "task_file", "background", "seed",
            "interval", "alpha",
        )
    }
    return json.dumps(subset, sort_keys=True, separators=(",", ":"))


def _problem_digest(problem: SamplingProblem) -> str:
    """Content digest over everything that determines the answer.

    Unlike the warm-start structural fingerprint
    (:func:`repro.core.batch._structural_fingerprint`), load *levels*
    and the utility parameters are hashed in: a result cached under
    this digest is only served for a bit-identical problem.
    """
    digest = hashlib.blake2b(digest_size=16)
    csr = problem.routing_op.tosparse()
    if csr is not None:
        digest.update(csr.indptr.tobytes())
        digest.update(csr.indices.tobytes())
        digest.update(csr.data.tobytes())
    else:
        digest.update(
            np.ascontiguousarray(problem.routing_op.toarray()).tobytes()
        )
    digest.update(problem.link_loads_pps.tobytes())
    digest.update(problem.alpha.tobytes())
    digest.update(problem.monitorable.tobytes())
    for utility in problem.utilities:
        digest.update(repr(utility).encode("utf-8"))
    return digest.hexdigest()


@dataclass
class PreparedRequest:
    """A normalized request bound to its resident problem and identity."""

    op: str
    params: dict
    task: object
    problem: SamplingProblem
    link_names: list[str]
    od_names: list[str]
    fingerprint: dict
    key: str
    warm_key: tuple | None = None


@dataclass
class _WarmEntry:
    chain: WarmStartChain
    lock: threading.Lock = field(default_factory=threading.Lock)


class SolverSession:
    """The daemon's resident warm state (thread-safe).

    ``prepare`` runs on any thread (it builds tasks and problems);
    per-family solve serialization happens through each warm entry's
    lock, so concurrent heterogeneous requests still solve in
    parallel.
    """

    def __init__(self, max_tasks: int = 8, max_warm: int = 16) -> None:
        self.max_tasks = int(max_tasks)
        self.max_warm = int(max_warm)
        self._tasks: OrderedDict[str, tuple] = OrderedDict()
        self._warm: OrderedDict[tuple, _WarmEntry] = OrderedDict()
        self._lock = threading.Lock()

    # -- task / problem residency ------------------------------------

    def _resident_task(self, params: dict) -> tuple:
        """(task, base_problem, link_names, od_names) from the LRU."""
        key = _task_key(params)
        with self._lock:
            hit = self._tasks.get(key)
            if hit is not None:
                self._tasks.move_to_end(key)
                METRICS.increment("serve.task.hit")
                return hit
        METRICS.increment("serve.task.miss")
        with span("serve.build_task", topology=params["topology"]):
            task = build_task(params)
            theta0 = params.get("theta") or params.get("theta_min") or 1.0
            base = SamplingProblem.from_task(
                task, float(theta0), alpha=params["alpha"]
            )
        link_names = [link.name for link in task.network.links]
        od_names = [od.name for od in task.routing.od_pairs]
        value = (task, base, link_names, od_names)
        with self._lock:
            self._tasks[key] = value
            self._tasks.move_to_end(key)
            while len(self._tasks) > self.max_tasks:
                self._tasks.popitem(last=False)
                METRICS.increment("serve.task.evicted")
        return value

    def _warm_entry(self, warm_key: tuple, params: dict) -> _WarmEntry:
        with self._lock:
            entry = self._warm.get(warm_key)
            if entry is not None:
                self._warm.move_to_end(warm_key)
                METRICS.increment("serve.warm.hit")
                return entry
            METRICS.increment("serve.warm.miss")
            entry = _WarmEntry(
                chain=WarmStartChain(
                    method=params["method"], presolve=params["presolve"]
                )
            )
            self._warm[warm_key] = entry
            self._warm.move_to_end(warm_key)
            while len(self._warm) > self.max_warm:
                self._warm.popitem(last=False)
                METRICS.increment("serve.warm.evicted")
            return entry

    # -- request identity --------------------------------------------

    def prepare(self, op: str, params: dict) -> PreparedRequest:
        """Bind normalized params to a resident problem + cache key."""
        task, base, link_names, od_names = self._resident_task(params)
        if op == "solve":
            theta = params["theta"]
            solver_coords = {
                "method": params["method"],
                "backend": params["backend"],
                "presolve": params["presolve"],
            }
        else:  # sweep
            theta = params["theta_min"]
            solver_coords = {
                "method": params["method"],
                "presolve": params["presolve"],
                "theta_min": params["theta_min"],
                "theta_max": params["theta_max"],
                "points": params["points"],
            }
        problem = (
            base
            if base.theta_packets == float(theta)
            else base.with_theta(float(theta))
        )
        # ``topology`` is the *request's* normalized name — invalidation
        # scopes match against it — while the network's display name
        # travels separately.
        fingerprint = fingerprint_problem(
            problem,
            topology=params["topology"].lower(),
            network=task.network.name,
            seed=params.get("seed"),
            op=op,
            content_digest=_problem_digest(problem),
            solver=solver_coords,
        )
        warm_key = None
        if op == "solve" and params["backend"] == "exact":
            warm_key = (
                _task_key(params), params["method"], params["presolve"],
            )
        return PreparedRequest(
            op=op,
            params=params,
            task=task,
            problem=problem,
            link_names=link_names,
            od_names=od_names,
            fingerprint=fingerprint,
            key=fingerprint_key(fingerprint),
            warm_key=warm_key,
        )

    # -- execution ----------------------------------------------------

    #: Share of the remaining deadline budget the exact solver may
    #: spend when an approx fallback is armed — the held-back fraction
    #: is the reserve the certified-gap fallback runs in.
    EXACT_BUDGET_SHARE = 0.6

    def execute(
        self,
        prepared: PreparedRequest,
        deadline: Deadline | None = None,
        deadline_fallback: bool = True,
    ) -> dict:
        """Run one prepared request to a result payload (may raise).

        ``deadline`` is the request's remaining wall-clock budget —
        queue wait has already been spent from it.  For exact
        gradient-projection solves the remaining budget is threaded
        into the solver's cooperative wall clock (the PR 4
        ``wall_clock_limit_s`` machinery); when ``deadline_fallback``
        is set, a deadline-bound exact solve that fails or runs out of
        budget degrades to the certified-gap approximation backend
        (Kallitsis et al.) instead of erroring, labelled
        ``tier: "approx"``.
        """
        faults.maybe_fire(faults.SITE_SERVE_SLOW_SOLVE)
        if prepared.op == "solve":
            return self._execute_solve(prepared, deadline, deadline_fallback)
        return self._execute_sweep(prepared, deadline)

    def _budget_options(self, deadline: Deadline | None, reserve: bool):
        """Gradient-projection options bounded by the remaining budget."""
        if deadline is None:
            return None
        from ..resilience.supervisor import with_cooperative_limit

        remaining = deadline.remaining_s
        share = self.EXACT_BUDGET_SHARE if reserve else 1.0
        # Clamp to a tiny positive budget: validation requires > 0 and
        # an already-expired deadline was rejected before solving.
        limit = max(remaining * share, 1e-3)
        return with_cooperative_limit(None, limit)

    def _execute_solve(
        self,
        prepared: PreparedRequest,
        deadline: Deadline | None = None,
        deadline_fallback: bool = True,
    ) -> dict:
        params = prepared.params
        exact_gp = (
            params["backend"] == "exact"
            and params["method"] == "gradient_projection"
        )
        fallback_armed = (
            deadline is not None and deadline_fallback and exact_gp
        )
        with span(
            "serve.solve",
            topology=params["topology"],
            backend=params["backend"],
            warm=prepared.warm_key is not None,
            deadline=deadline is not None,
        ):
            if deadline is not None and deadline.expired:
                raise deadline.to_error()
            try:
                faults.maybe_fire(faults.SITE_SOLVE_RAISE)
                if params["backend"] != "exact":
                    from ..scale import solve_scaled

                    solution = solve_scaled(
                        prepared.problem, backend=params["backend"]
                    )
                elif prepared.warm_key is not None:
                    options = self._budget_options(deadline, fallback_armed)
                    entry = self._warm_entry(prepared.warm_key, params)
                    with entry.lock:
                        solution = entry.chain.solve(
                            prepared.problem, options=options
                        )
                else:
                    solution = solve(
                        prepared.problem,
                        method=params["method"],
                        presolve=params["presolve"],
                        options=self._budget_options(
                            deadline, fallback_armed
                        ),
                    )
            except Exception as exc:
                if not fallback_armed:
                    raise
                if deadline.expired:
                    raise deadline.to_error()
                return self._approx_fallback(
                    prepared, reason=f"error:{type(exc).__name__}"
                )
            if fallback_armed and not solution.diagnostics.converged:
                # The cooperative wall clock tripped: the budget ran
                # out before the exact optimum.  Spend the reserve on
                # the certified-gap approximation.
                if deadline.expired:
                    raise deadline.to_error()
                return self._approx_fallback(prepared, reason="budget")
        return solution_payload(
            solution,
            prepared.link_names,
            prepared.od_names,
            backend=params["backend"],
        )

    def _approx_fallback(self, prepared: PreparedRequest, reason: str) -> dict:
        """Deadline-triggered degradation to the certified-gap backend.

        The answer is near-optimal with an a-posteriori duality-gap
        certificate (``optimality_gap`` + ``gap_certified``), labelled
        ``tier: "approx"`` so callers know what they got — the same
        optimality-for-tractability trade Kallitsis et al. make at
        scale, applied here to latency.
        """
        from ..scale.approx import solve_approx

        METRICS.increment("serve.degraded.approx")
        METRICS.increment("serve.deadline.fallback")
        logger.warning(
            "deadline fallback to approx backend (%s) for %s",
            reason, prepared.params["topology"],
        )
        with span("serve.fallback.approx", reason=reason):
            solution = solve_approx(prepared.problem)
        payload = solution_payload(
            solution,
            prepared.link_names,
            prepared.od_names,
            backend="approx",
            tier="approx",
        )
        payload["fallback_reason"] = reason
        return payload

    def _execute_sweep(
        self,
        prepared: PreparedRequest,
        deadline: Deadline | None = None,
    ) -> dict:
        # Sweeps check the deadline once, up front: a sweep is an
        # explicit batch workload, and partially-solved frontiers are
        # worse than a clean deadline_exceeded.  (Per-theta budget
        # slicing would break warm-start chaining mid-frontier.)
        if deadline is not None and deadline.expired:
            raise deadline.to_error()
        params = prepared.params
        thetas = sweep_thetas(params)
        with span(
            "serve.sweep", topology=params["topology"], points=len(thetas)
        ):
            solutions = solve_theta_sweep(
                prepared.problem,
                thetas,
                method=params["method"],
                presolve=params["presolve"],
            )
        return sweep_payload(prepared, thetas, solutions)

    def execute_stream(self, params: dict, deadline: Deadline | None = None) -> dict:
        """Run a whole streaming trace server-side (may raise).

        A stream request is stateful end to end: the tracker, the
        warm-start chain and the change-point logic live across the
        intervals of this one request, so the result is a per-interval
        report, never a single cacheable solution.  Like sweeps, the
        deadline is checked once up front — slicing the budget across
        intervals would break warm-start chaining mid-trace.
        """
        if deadline is not None and deadline.expired:
            raise deadline.to_error()
        from ..stream import StreamConfig, run_stream
        from ..traffic import TraceEvent, generate_trace

        task, _base, link_names, _od_names = self._resident_task(params)
        events = []
        if params.get("anomaly") is not None:
            od_index, magnitude, start, duration = params["anomaly"]
            if not 0 <= od_index < task.num_od_pairs:
                raise ValueError(
                    f"anomaly od_index {od_index} out of range "
                    f"(task has {task.num_od_pairs} OD pairs)"
                )
            events.append(
                TraceEvent(
                    kind="anomaly",
                    start_interval=start,
                    duration_intervals=duration,
                    od_index=od_index,
                    magnitude=magnitude,
                )
            )
        trace = generate_trace(
            task,
            params["intervals"],
            start_hour=params["start_hour"],
            noise_sigma=params["noise"],
            trough=params["trough"],
            events=events or None,
            seed=params.get("trace_seed"),
        )
        config = StreamConfig(
            theta_packets=params["theta"],
            alpha=params["alpha"],
            reconfig_weight=params["reconfig_weight"],
        )
        with span(
            "serve.stream",
            topology=params["topology"],
            intervals=params["intervals"],
        ):
            results = run_stream(trace, config)
        return stream_payload(results, link_names)

    # -- lifecycle ----------------------------------------------------

    def invalidate(self, topology: str | None = None) -> int:
        """Drop resident state for ``topology`` (None: everything).

        Called on load updates: the next request rebuilds the task
        from its source and every warm chain for the scope restarts
        cold.  Returns the number of resident objects dropped.
        """
        dropped = 0
        with self._lock:
            if topology is None:
                dropped = len(self._tasks) + len(self._warm)
                self._tasks.clear()
                self._warm.clear()
            else:
                scope = topology.lower()

                def _matches(key_json: str) -> bool:
                    return json.loads(key_json)["topology"].lower() == scope

                for key in [k for k in self._tasks if _matches(k)]:
                    del self._tasks[key]
                    dropped += 1
                for key in [k for k in self._warm if _matches(k[0])]:
                    del self._warm[key]
                    dropped += 1
        return dropped

    @property
    def resident_tasks(self) -> int:
        with self._lock:
            return len(self._tasks)

    @property
    def resident_chains(self) -> int:
        with self._lock:
            return len(self._warm)


def _gap_certified(solution) -> bool:
    """Does this solution carry a satisfied optimality certificate?

    Exact solves certify through KKT (sufficient for global optimality
    on this concave program); approximate backends through their
    a-posteriori duality-gap bound.  A converged exact solve missing a
    stored report gets one computed here — daemon answers always ship
    their certificate.
    """
    diagnostics = solution.diagnostics
    # The gap bound outranks KKT when both are present: approximate
    # backends attach a (legitimately unsatisfied) KKT report next to
    # their certified duality gap, and the gap is their certificate.
    if diagnostics.optimality_gap is not None:
        return True
    if diagnostics.kkt is not None:
        return bool(diagnostics.kkt.satisfied)
    if not diagnostics.converged or diagnostics.degraded:
        return False
    try:
        return bool(check_kkt(solution.problem, solution.rates).satisfied)
    except Exception:  # pragma: no cover - defensive
        return False


def solution_payload(
    solution,
    link_names: list[str],
    od_names: list[str],
    backend: str = "exact",
    include_utilities: bool = True,
    tier: str = "exact",
) -> dict:
    """JSON-ready result payload (the daemon's unit of caching).

    ``tier`` labels the degradation level of the answer: ``"exact"``
    (full-fidelity solve), ``"approx"`` (deadline fallback to the
    certified-gap backend) or ``"stale"`` (an expired-but-grace-valid
    cache entry, stamped by the server).  Only ``tier == "exact"``
    results are admitted to the result cache.
    """
    diagnostics = solution.diagnostics
    payload = {
        "converged": bool(diagnostics.converged),
        "degraded": bool(diagnostics.degraded),
        "tier": tier,
        "method": diagnostics.method,
        "backend": backend,
        "iterations": int(diagnostics.iterations),
        "wall_time_s": float(diagnostics.wall_time_s),
        "optimality_gap": (
            None
            if diagnostics.optimality_gap is None
            else float(diagnostics.optimality_gap)
        ),
        "gap_certified": _gap_certified(solution),
        "objective": float(solution.objective_value),
        "budget_used_packets": float(solution.budget_used_packets),
        "num_monitors": int(len(solution.active_link_indices)),
        "monitors": {
            link_names[i]: float(solution.rates[i])
            for i in solution.active_link_indices
        },
    }
    if include_utilities:
        payload["od_utilities"] = {
            name: float(u)
            for name, u in zip(od_names, solution.od_utilities)
        }
    return payload


def sweep_thetas(params: dict) -> list[float]:
    """The geometric θ grid of normalized sweep params."""
    return [
        float(t)
        for t in np.geomspace(
            params["theta_min"], params["theta_max"], params["points"]
        )
    ]


def sweep_payload(prepared: PreparedRequest, thetas, solutions) -> dict:
    """JSON-ready sweep result: one utility-free payload per θ."""
    points = []
    for theta, solution in zip(thetas, solutions):
        point = solution_payload(
            solution, prepared.link_names, prepared.od_names,
            backend="exact", include_utilities=False,
        )
        point["theta_packets"] = theta
        points.append(point)
    return {
        "points": points,
        "converged": all(p["converged"] for p in points),
        "degraded": any(p["degraded"] for p in points),
        "tier": "exact",
    }


def stream_payload(results, link_names: list[str]) -> dict:
    """JSON-ready report of one streaming run (never cached).

    ``tier: "stream"`` keeps these results out of the certified
    result cache by construction — a stream answer depends on the
    controller's whole history, not just the request params.
    """
    warm_counts = [
        int(r.warm_iterations)
        for r in results
        if r.warm_iterations is not None
    ]
    intervals = []
    for r in results:
        entry = {
            "index": int(r.index),
            "objective": float(r.solution.objective_value),
            "num_monitors": int(len(r.solution.active_link_indices)),
            "converged": bool(r.solution.diagnostics.converged),
            "cold": bool(r.cold),
            "warm": bool(r.warm),
            "warm_iterations": (
                None if r.warm_iterations is None else int(r.warm_iterations)
            ),
            "change_points": [int(od) for od in r.change_points],
            "churn_l1": None if r.churn_l1 is None else float(r.churn_l1),
            "step_seconds": float(r.step_seconds),
        }
        if r.reconfig is not None:
            entry["reconfig"] = {
                "gamma": float(r.reconfig.gamma),
                "base_objective": float(r.reconfig.base_objective),
                "penalty": float(r.reconfig.penalty),
                "unpenalized_gap_bound": float(
                    r.reconfig.unpenalized_gap_bound
                ),
                "churn_l2": float(r.reconfig.churn_l2),
                "churn_bound_l2": float(r.reconfig.churn_bound_l2),
            }
        intervals.append(entry)
    converged = all(entry["converged"] for entry in intervals)
    final = results[-1] if results else None
    return {
        "tier": "stream",
        "converged": converged,
        "degraded": not converged,
        "summary": {
            "intervals": len(intervals),
            "cold_resolves": sum(1 for e in intervals if e["cold"]),
            "change_point_intervals": [
                e["index"] for e in intervals if e["change_points"]
            ],
            "warm_iterations_p95": (
                float(np.percentile(warm_counts, 95)) if warm_counts else None
            ),
            "total_step_seconds": float(
                sum(e["step_seconds"] for e in intervals)
            ),
        },
        "intervals": intervals,
        "final_monitors": (
            {}
            if final is None
            else {
                link_names[i]: float(final.solution.rates[i])
                for i in final.solution.active_link_indices
            }
        ),
    }
