"""The paper's optimal algorithm: gradient projection with active sets.

§IV-D in full: at each iteration the objective's gradient is projected
onto the subspace spanned by the active constraints; the projected
gradient (blended with the previous direction by the Polak-Ribière
rule to damp zig-zagging) gives the search direction, along which a
Newton one-dimensional search either maximizes the objective or runs
into an inactive constraint, which is then activated.  When the
projected gradient vanishes, the Lagrange multipliers decide: all
non-negative → the KKT conditions hold and the point is the *global*
optimum (concave objective over a convex polytope); some negative →
the corresponding active constraints are released and the search
continues.  A run aborts after ``max_iterations`` search directions
(the paper uses 2000 and observes 98.6 % convergence within it; the
default here keeps 2000 up to 500 candidate links and grows with the
input beyond, see :class:`GradientProjectionOptions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..obs.metrics import METRICS
from ..obs.spans import record_span, spans_active
from ..obs.trace import SolverTrace, active_trace
from .active_set import ActiveSet
from .kkt import check_kkt
from .line_search import line_search_along_ray
from .objective import Objective, SumUtilityObjective
from .problem import SamplingProblem
from .solution import SamplingSolution, SolverDiagnostics

__all__ = [
    "GradientProjectionOptions",
    "solve_gradient_projection",
    "initial_feasible_point",
]


#: The paper's iteration cap (§IV-D).
PAPER_MAX_ITERATIONS = 2000

#: Per-candidate-link iteration allowance of the derived cap.  The
#: worst rate measured on hierarchical instances from 1k to 20k links
#: was 2.13 iterations per candidate link, so 4 leaves ≥1.9× headroom.
ITERATIONS_PER_CANDIDATE = 4


@dataclass(frozen=True)
class GradientProjectionOptions:
    """Tunable knobs of the gradient-projection solver.

    Defaults follow the paper — Polak-Ribière blending on, and at most
    2000 iterations on every instance with up to 500 candidate links.
    ``max_iterations=None`` (the default) derives the cap from the
    input as ``max(2000, 4 × candidate links)`` (see
    :meth:`iteration_cap`), because larger instances need more than
    the paper's fixed 2000 search directions to converge; an explicit
    ``max_iterations`` always wins.
    """

    max_iterations: int | None = None
    tolerance: float = 1e-9
    line_search_tolerance: float = 1e-10
    polak_ribiere: bool = True
    kkt_tolerance: float = 1e-6
    line_search: str = "newton"
    #: Evaluate line-search trials through the objective's incremental
    #: ray (O(K) per trial).  Off = recompute ``R(x + t s)`` at every
    #: trial — the pre-optimization behaviour, kept for benchmarking.
    incremental_ray: bool = True
    #: Reduced-Newton search directions on the current active set.  On
    #: the free coordinates the problem is a smooth equality-constrained
    #: concave program whose Newton step converges quadratically — the
    #: streaming control plane's warm re-solves finish in a handful of
    #: iterations instead of the first-order path's linear-rate tail.
    #: Off by default: the plain projected gradient is the paper's
    #: algorithm and the behaviour every existing caller was
    #: benchmarked and goldened against.  Requires an objective that
    #: exposes ``curvature_weights`` (the separable Hessian structure);
    #: others silently fall back to the first-order direction.
    warm_newton: bool = False
    #: Cooperative wall-clock budget in seconds (None = unbounded): the
    #: loop checks its monotonic clock between iterations and aborts
    #: with ``converged=False`` once exceeded.  The resilience
    #: supervisor sets this to its per-attempt timeout so slow (rather
    #: than hung) solves stop themselves instead of being abandoned in
    #: a watchdog thread.
    wall_clock_limit_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0 or self.line_search_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.line_search not in ("newton", "golden"):
            raise ValueError("line_search must be 'newton' or 'golden'")
        if self.wall_clock_limit_s is not None and self.wall_clock_limit_s <= 0:
            raise ValueError("wall_clock_limit_s must be positive (or None)")

    def iteration_cap(self, candidate_links: int) -> int:
        """The iteration budget for an instance of this many candidates."""
        if self.max_iterations is not None:
            return self.max_iterations
        return max(
            PAPER_MAX_ITERATIONS, ITERATIONS_PER_CANDIDATE * candidate_links
        )


def initial_feasible_point(
    loads: np.ndarray, alpha: np.ndarray, target_rate: float
) -> np.ndarray:
    """A feasible starting point on the capacity plane (§IV-D).

    Water-filling on a uniform sampling rate: start from the single
    rate ``r`` with ``Σ r·u_i = target``, clamp links whose bound ``α``
    is exceeded, and redistribute among the rest.  Terminates in at
    most ``n`` rounds; assumes ``target <= Σ α_i u_i`` (checked by
    :meth:`SamplingProblem.check_feasible`).
    """
    loads = np.asarray(loads, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if target_rate < 0:
        raise ValueError("target rate must be non-negative")
    x = np.zeros_like(loads)
    unclamped = np.ones(loads.shape, dtype=bool)
    remaining = float(target_rate)
    for _ in range(loads.shape[0]):
        denom = float(loads[unclamped].sum())
        if denom <= 0:
            break
        rate = remaining / denom
        overflow = unclamped & (alpha < rate)
        if not np.any(overflow):
            x[unclamped] = rate
            return x
        x[overflow] = alpha[overflow]
        remaining -= float(alpha[overflow] @ loads[overflow])
        unclamped &= ~overflow
    if remaining > 1e-9 * max(target_rate, 1.0):
        raise ValueError("target rate exceeds Σ α·u: infeasible")
    return x


def solve_gradient_projection(
    problem: SamplingProblem,
    options: GradientProjectionOptions | None = None,
    objective: Objective | None = None,
    warm_start: np.ndarray | None = None,
    trace: SolverTrace | None = None,
) -> SamplingSolution:
    """Solve a :class:`SamplingProblem` with the paper's algorithm.

    Parameters
    ----------
    problem:
        The placement-and-rates problem; must be feasible.
    options:
        Solver knobs; defaults match the paper.
    objective:
        Override the objective (e.g. a
        :class:`~repro.core.objective.SoftMinUtilityObjective`); it must
        be built on the problem's *candidate* routing columns.  By
        default the paper's sum-of-utilities objective is used.
    warm_start:
        Optional full-length rate vector (e.g. a previous interval's
        optimum) used as the starting point after projection onto the
        new feasible set — re-optimization under traffic change (§I's
        motivation) converges much faster from a warm start.
    trace:
        Optional :class:`~repro.obs.trace.SolverTrace` receiving one
        record per iteration.  ``None`` (default) falls back to the
        ambiently installed trace (:func:`repro.obs.trace.tracing`);
        with neither, the loop constructs no records and reads no
        per-iteration clocks.

    Returns
    -------
    SamplingSolution
        Optimal rates over all network links (zeros on deactivated
        monitors), with convergence diagnostics and a KKT certificate.
    """
    t_start = perf_counter()
    options = options or GradientProjectionOptions()
    problem.check_feasible()
    if trace is None:
        trace = active_trace()

    cand = np.flatnonzero(problem.candidate_mask)
    loads = problem.link_loads_pps[cand]
    alpha = problem.alpha[cand]
    if objective is None:
        objective = SumUtilityObjective(
            problem.candidate_routing_op(), problem.utilities
        )

    if warm_start is not None:
        warm_start = np.asarray(warm_start, dtype=float)
        if warm_start.shape != (problem.num_links,):
            raise ValueError("warm start does not match link count")
        x = _project_to_feasible(
            warm_start[cand], loads, alpha, problem.theta_rate_pps
        )
    else:
        x = initial_feasible_point(loads, alpha, problem.theta_rate_pps)
    active = ActiveSet(loads, alpha)
    active.sync_with_point(x)

    if trace is not None:
        trace.begin_solve(
            method="gradient_projection",
            num_links=problem.num_links,
            num_od_pairs=problem.num_od_pairs,
            candidate_links=int(x.size),
            theta_packets=problem.theta_packets,
            warm_start=warm_start is not None,
            objective=type(objective).__name__,
            backend=getattr(
                getattr(objective, "routing_operator", None), "backend", ""
            ),
            line_search=options.line_search,
            incremental_ray=options.incremental_ray,
        )

    def _emit(event: str, step: float, trials: int) -> None:
        # Emission sites are guarded by ``trace is not None``; the
        # objective value here shares the ρ memo with the surrounding
        # gradient/KKT evaluations, so tracing adds no extra matvec.
        trace.emit(
            iteration=iterations,
            event=event,
            objective=objective.value(x),
            gradient_norm=gradient_norm,
            projected_gradient_norm=projected_norm,
            step_length=step,
            line_search_trials=trials,
            active_set_size=int(x.size - active.num_free()),
            constraint_releases=releases,
            wall_time_s=perf_counter() - t_start,
        )

    use_newton = options.warm_newton and hasattr(objective, "curvature_weights")
    iterations = 0
    releases = 0
    line_search_evaluations = 0
    converged = False
    message = ""
    prev_projected: np.ndarray | None = None
    prev_direction: np.ndarray | None = None

    timed_out = False
    max_iterations = options.iteration_cap(x.size)
    while iterations < max_iterations:
        if (
            options.wall_clock_limit_s is not None
            and perf_counter() - t_start > options.wall_clock_limit_s
        ):
            timed_out = True
            METRICS.increment("solver.gp.wall_clock_aborts")
            break
        iterations += 1
        g = objective.gradient(x)
        projected = active.project(g)
        gradient_norm = float(np.abs(g).max())
        projected_norm = float(np.abs(projected).max())
        scale = max(1.0, gradient_norm)

        if projected_norm <= options.tolerance * scale:
            # Stationary on the current active set: ask the multipliers.
            mult = active.multipliers(g)
            release_tol = options.tolerance * scale
            neg_lower = mult.negative_lower(release_tol)
            neg_upper = mult.negative_upper(release_tol)
            if neg_lower.size == 0 and neg_upper.size == 0:
                converged = True
                message = "KKT conditions satisfied"
                if trace is not None:
                    _emit("converged", 0.0, 0)
                break
            # §IV-D strategy: release every active constraint whose
            # multiplier is negative and recompute the projection.
            active.release(np.concatenate([neg_lower, neg_upper]))
            releases += 1
            prev_projected = None
            prev_direction = None
            if trace is not None:
                _emit("release", 0.0, 0)
            continue

        direction = projected
        newton_used = False
        if use_newton:
            newton = _newton_direction(objective, active, x, g)
            if newton is not None:
                direction = newton
                newton_used = True

        # Polak-Ribière blending of successive directions (§IV-D).
        if (
            not newton_used
            and options.polak_ribiere
            and prev_projected is not None
            and prev_direction is not None
        ):
            denom = float(prev_projected @ prev_projected)
            if denom > 0:
                beta = float(projected @ (projected - prev_projected)) / denom
                if beta > 0:
                    blended = projected + beta * prev_direction
                    # Keep only ascent directions inside the null space.
                    blended = active.project(blended)
                    if float(blended @ g) > 0:
                        direction = blended

        t_max, blocking = active.max_step(x, direction)
        if t_max <= 0.0:
            # Numerically pinned against a bound not yet marked active.
            for index in blocking:
                _activate_blocking(active, x, direction, int(index))
            prev_projected = None
            prev_direction = None
            if trace is not None:
                _emit("pinned", 0.0, 0)
            continue

        # ρ₀ was just computed for the gradient, so building the ray
        # costs one extra matvec (δ = R s); each trial is then O(K).
        if options.incremental_ray:
            ray = objective.along_ray(x, direction)
        else:
            ray = Objective.along_ray(objective, x, direction)
        result = line_search_along_ray(
            ray,
            t_max,
            method=options.line_search,
            tolerance=options.line_search_tolerance,
        )
        if result.step == 0.0 and not result.hit_boundary:
            # The line search found no resolvable progress along an
            # ascent direction: the iterate is stationary to machine
            # precision even though the projected-gradient test hasn't
            # tripped (its tolerance can sit below the attainable
            # floor).  Decide exactly like the stationary branch — the
            # final KKT certificate still judges independently.
            line_search_evaluations += result.newton_iterations
            mult = active.multipliers(g)
            release_tol = options.tolerance * scale
            neg_lower = mult.negative_lower(release_tol)
            neg_upper = mult.negative_upper(release_tol)
            if neg_lower.size == 0 and neg_upper.size == 0:
                converged = True
                message = "stationary at line-search resolution"
                if trace is not None:
                    _emit("converged", 0.0, result.newton_iterations)
                break
            active.release(np.concatenate([neg_lower, neg_upper]))
            releases += 1
            prev_projected = None
            prev_direction = None
            if trace is not None:
                _emit("release", 0.0, result.newton_iterations)
            continue
        x = x + result.step * direction
        np.clip(x, 0.0, alpha, out=x)
        _restore_capacity(x, active, loads, problem.theta_rate_pps)
        line_search_evaluations += result.newton_iterations

        if result.hit_boundary:
            for index in blocking:
                _activate_blocking(active, x, direction, int(index))
            prev_projected = None
            prev_direction = None
        elif newton_used:
            # Newton steps carry no useful conjugacy memory — blending
            # the next projected gradient with a second-order step
            # would corrupt the Polak-Ribière recurrence.
            prev_projected = None
            prev_direction = None
        else:
            prev_projected = projected
            prev_direction = direction

        if trace is not None:
            _emit("step", result.step, result.newton_iterations)

    if not converged:
        message = (
            f"wall-clock limit {options.wall_clock_limit_s:g}s exceeded "
            f"after {iterations} iterations"
            if timed_out
            else f"aborted after {iterations} iterations"
        )

    rates = np.zeros(problem.num_links)
    rates[cand] = x
    rates[problem.free_saturated_mask] = problem.alpha[problem.free_saturated_mask]

    # At convergence the loop's last gradient was evaluated at the
    # final x, and rates[cand] == x exactly — hand both to the KKT
    # check so it certifies without recomputing ρ or ∇f.
    kkt = (
        check_kkt(
            problem,
            rates,
            tolerance=options.kkt_tolerance,
            objective=objective,
            gradient=g,
        )
        if converged
        else None
    )
    wall_time_s = perf_counter() - t_start
    diagnostics = SolverDiagnostics(
        method="gradient_projection",
        iterations=iterations,
        constraint_releases=releases,
        converged=converged,
        objective_value=objective.value(x),
        kkt=kkt,
        message=message,
        wall_time_s=wall_time_s,
        line_search_evaluations=line_search_evaluations,
    )
    METRICS.increment("solver.gp.solves")
    METRICS.increment("solver.gp.iterations", iterations)
    METRICS.observe_timer("solver.gp.wall_time", wall_time_s)
    METRICS.observe_histogram("solver.gp.solve_seconds", wall_time_s)
    if warm_start is not None:
        # Iteration *count* through the histogram machinery: the
        # streaming control plane's convergence claim is a p95 over
        # warm-started solves, and the bucket bounds (1, 2.2, 5, ...)
        # resolve single-digit counts well enough to assert p95 <= 5.
        METRICS.observe_histogram("solver.gp.warm_iterations", float(iterations))
    if spans_active():
        # Post-hoc leaf span: the solve produced no child spans, so
        # recording after the fact keeps the hot loop untouched while
        # still parenting under whatever span was open around us.
        record_span(
            "solver.gp",
            duration_s=wall_time_s,
            iterations=iterations,
            converged=converged,
            links=problem.num_links,
        )
    if trace is not None:
        trace.end_solve(
            iterations=iterations,
            constraint_releases=releases,
            converged=converged,
            objective_value=diagnostics.objective_value,
            wall_time_s=wall_time_s,
            line_search_evaluations=line_search_evaluations,
            message=message,
        )
    return SamplingSolution(problem=problem, rates=rates, diagnostics=diagnostics)


def _project_to_feasible(
    x: np.ndarray, loads: np.ndarray, alpha: np.ndarray, target_rate: float
) -> np.ndarray:
    """Project a warm-start point onto ``{x·u = θ', 0 <= x <= α}``.

    Clip to the box, then rescale toward the capacity plane and repair
    residual drift with water-filling on the slack.  Cheap rather than
    an exact Euclidean projection — the solver only needs a feasible
    start near the previous optimum.
    """
    x = np.clip(x, 0.0, alpha)
    if float(x @ loads) <= 0:
        return initial_feasible_point(loads, alpha, target_rate)
    # Iterated rescale-and-clip converges geometrically: scaling is
    # exact when nothing clips, and each clip only leaves a shrinking
    # deficit to spread over the unclipped coordinates.
    tiny = 1e-12 * max(target_rate, 1.0)
    for _ in range(200):
        used = float(x @ loads)
        if abs(used - target_rate) <= tiny:
            return x
        if used <= tiny:
            # Scaling from a near-zero point is numerically unstable.
            break
        x = np.clip(x * (target_rate / used), 0.0, alpha)
    return initial_feasible_point(loads, alpha, target_rate)


#: Hard cap on the free-subspace dimension of the reduced-Newton
#: direction: beyond this the dense block factorization (O(K³)) stops
#: paying for itself and the loop falls back to the projected gradient.
_NEWTON_MAX_FREE = 512


def _newton_direction(
    objective: Objective,
    active: ActiveSet,
    x: np.ndarray,
    g: np.ndarray,
) -> np.ndarray | None:
    """Reduced-Newton ascent direction on the current active set.

    Restricted to the free coordinates ``F`` the problem is a smooth
    equality-constrained concave program over ``{d : u_F · d = 0}``;
    its Newton step solves ``H d = ν u_F − g_F`` with the reduced
    Hessian ``H = R_Fᵀ diag(w ∘ M''(ρ)) R_F`` (plus any diagonal shift
    a penalized objective declares) and the multiplier ``ν`` chosen so
    the step stays on the capacity plane.  Consecutive streaming
    intervals keep the same active set almost always, so a warm solve
    reduces to this subspace problem and converges quadratically.

    ``d`` is always an ascent direction: with ``M = −H⁻¹ ≻ 0``,
    ``dᵀg = gᵀMg − (u_FᵀMg)²/(u_FᵀMu_F) ≥ 0`` by Cauchy-Schwarz in the
    M-inner product, with equality only at stationarity.  Returns
    ``None`` when the free block is empty or too large, or the system
    is numerically unusable — the caller falls back to the first-order
    direction, so correctness never depends on this path.
    """
    free_idx = np.flatnonzero(active.free_mask)
    k = int(free_idx.size)
    if k == 0 or k > _NEWTON_MAX_FREE:
        return None
    routing = getattr(objective, "routing_operator", None)
    if routing is None:
        return None
    restricted = routing.restrict_columns(free_idx).toarray()
    hess_weights = objective.curvature_weights(x)
    hessian = restricted.T @ (hess_weights[:, None] * restricted)
    # Concavity gives H ⪯ 0 but not full rank — more free links than OD
    # pairs leaves a null space — so a relative Tikhonov term keeps the
    # factorization definite without meaningfully disturbing the step.
    diag = np.abs(np.diagonal(hessian))
    regularizer = 1e-10 * max(1.0, float(diag.max()) if k else 1.0)
    shift = float(getattr(objective, "hessian_diagonal_shift", 0.0))
    hessian[np.diag_indices_from(hessian)] += shift - regularizer
    u_free = active.loads[free_idx]
    try:
        solved = np.linalg.solve(
            hessian, np.column_stack((g[free_idx], u_free))
        )
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(solved)):
        return None
    h_inv_g, h_inv_u = solved[:, 0], solved[:, 1]
    denom = float(u_free @ h_inv_u)
    if denom == 0.0:
        return None
    nu = float(u_free @ h_inv_g) / denom
    direction = np.zeros_like(x)
    direction[free_idx] = nu * h_inv_u - h_inv_g
    if not float(direction @ g) > 0.0:
        return None
    return direction


def _activate_blocking(
    active: ActiveSet, x: np.ndarray, direction: np.ndarray, index: int
) -> None:
    """Pin coordinate ``index`` to the bound its direction pushed into."""
    if direction[index] < 0:
        x[index] = 0.0
        active.activate_lower(index)
    elif direction[index] > 0:
        x[index] = active.alpha[index]
        active.activate_upper(index)


def _restore_capacity(
    x: np.ndarray, active: ActiveSet, loads: np.ndarray, target_rate: float
) -> None:
    """Remove capacity-equality drift caused by clipping/roundoff.

    Shifts the free coordinates along the load direction — the minimal-
    norm correction — so ``x·u`` returns to the target exactly.
    """
    drift = float(x @ loads) - target_rate
    if drift == 0.0:
        return
    free = active.free_mask
    u_free = np.where(free, loads, 0.0)
    norm2 = float(u_free @ u_free)
    if norm2 <= 0:
        return
    x -= (drift / norm2) * u_free
    np.clip(x, 0.0, active.alpha, out=x)
