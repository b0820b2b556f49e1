"""Routing-connectivity decomposition: split, solve in parallel, merge.

Two links interact in the optimum only when some OD pair crosses both
— directly or through a chain of shared OD pairs.  Formally: take the
bipartite graph on OD rows and candidate links with an edge where the
routing matrix has a nonzero; the connected components of that graph
partition the problem into subproblems that share *nothing* except
the scalar budget θ.  Hierarchical topologies with regional traffic,
multi-task batches flattened into one matrix, and federated networks
all produce many components.

The coupling through θ is one-dimensional, which is what makes the
recombination exact rather than heuristic.  Each component's optimal
value ``V_c(θ_c)`` is concave in its budget share with derivative
equal to the component's KKT capacity multiplier λ_c (the shadow
price of budget).  The split ``Σ θ_c = θ`` is optimal exactly when
no budget transfer pays: every unsaturated component sits at a
common waterline λ* (saturated components, pinned at ``Σ α U``, may
price higher).  The outer loop equalizes λ: solve the components at
the current split — round 0 fans out on the batch process pool
(:func:`~repro.core.batch.solve_batch`), later rounds re-solve
warm-started — then re-split by inverting each component's local
price curve through a monotone waterline search.

The merge is *proved*, not assumed: the stitched full-length vector
is handed to :func:`~repro.core.kkt.check_kkt` on the original
problem, whose conditions are sufficient for global optimality here,
and additionally stamped with the Frank-Wolfe bound from
:mod:`repro.scale.approx` — the same two certificates the presolve
lift relies on, extended across the budget split.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..core.batch import solve_batch
from ..core.gradient_projection import (
    GradientProjectionOptions,
    initial_feasible_point,
    solve_gradient_projection,
)
from ..core.kkt import check_kkt
from ..core.objective import SumUtilityObjective
from ..core.problem import SamplingProblem
from ..core.solution import SamplingSolution, SolverDiagnostics
from ..obs.metrics import METRICS
from ..obs.spans import span
from .approx import frank_wolfe_gap

__all__ = [
    "DecomposeOptions",
    "RoutingComponents",
    "routing_components",
    "solve_decomposed",
]

#: Multiplier floor: a component whose reported shadow price is this
#: small (or negative, from a degenerate multiplier fit) is treated as
#: priced-out rather than poisoning the log-space waterline search.
_LAMBDA_FLOOR = 1e-30


@dataclass(frozen=True)
class DecomposeOptions:
    """Knobs of the decomposition solver.

    ``kkt_tolerance`` is the certificate the merged point must pass on
    the *full* problem for the recombination to count as exact;
    ``gap_tolerance`` is the alternative success criterion — a
    relative Frank-Wolfe bound at least this tight certifies the
    merge even when many tiny components leave the multiplier fit
    short of exact stationarity.

    ``max_subproblems`` bounds the number of budget blocks the outer
    waterline coordinates.  A topology that fragments into hundreds
    of small components would otherwise pay per-solve setup overhead
    on every one each round; a *union* of components is itself a
    valid subproblem whose inner solve allocates across its members
    exactly, so small components are packed together (largest-first
    into the lightest block) and only the blocks are coordinated.
    ``processes`` flows into :func:`solve_batch` for the round-0
    fan-out (``None`` = its default, including the
    ``REPRO_MAX_PROCESSES`` cap); ``parallel=False`` forces every
    round inline — deterministic single-process debugging.

    ``polish=True`` finishes a stalled waterline with one warm-started
    gradient-projection pass on the *full* problem.  The merged point
    is already within ~1e-6 of optimal when that happens, so the
    polish converges in a handful of iterations and upgrades the
    certificate from "tight Frank-Wolfe gap" to "exact KKT"; switch
    it off at extreme scale to keep the solve strictly per-component.
    """

    max_rounds: int = 25
    kkt_tolerance: float = 1e-6
    gap_tolerance: float = 1e-8
    max_subproblems: int = 32
    gp_options: GradientProjectionOptions | None = None
    processes: int | None = None
    parallel: bool = True
    polish: bool = True

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.kkt_tolerance <= 0:
            raise ValueError("kkt_tolerance must be positive")
        if self.gap_tolerance <= 0:
            raise ValueError("gap_tolerance must be positive")
        if self.max_subproblems < 1:
            raise ValueError("max_subproblems must be >= 1")


@dataclass(frozen=True)
class RoutingComponents:
    """The OD×link bipartite component structure of a problem.

    ``candidate_links`` are full-problem link indices; each component
    is a pair of index arrays *into the candidate set* (columns) and
    into the OD rows.  ``dropped_rows`` are OD rows touching no
    candidate link — constants of the optimization, exactly as in
    presolve's row-drop rule.
    """

    candidate_links: np.ndarray
    components: tuple[tuple[np.ndarray, np.ndarray], ...]  # (rows, cols)
    dropped_rows: np.ndarray

    @property
    def num_components(self) -> int:
        return len(self.components)


def routing_components(problem: SamplingProblem) -> RoutingComponents:
    """Connected components of the candidate OD×link bipartite graph."""
    import scipy.sparse as sparse
    from scipy.sparse import csgraph

    cand = np.flatnonzero(problem.candidate_mask)
    csr = problem.candidate_routing_op().tosparse()
    if csr is None:
        csr = sparse.csr_matrix(problem.candidate_routing_op().toarray())
    num_rows, num_cols = csr.shape
    pattern = sparse.csr_matrix(
        (np.ones_like(csr.data), csr.indices, csr.indptr), shape=csr.shape
    )
    bipartite = sparse.bmat(
        [[None, pattern], [pattern.T, None]], format="csr"
    )
    _, labels = csgraph.connected_components(bipartite, directed=False)
    row_labels = labels[:num_rows]
    col_labels = labels[num_rows:]

    components = []
    for label in np.unique(col_labels):
        rows = np.flatnonzero(row_labels == label)
        cols = np.flatnonzero(col_labels == label)
        components.append((rows, cols))
    dropped = np.flatnonzero(~np.isin(row_labels, col_labels))
    return RoutingComponents(
        candidate_links=cand,
        components=tuple(components),
        dropped_rows=dropped,
    )


def _group_components(
    components: tuple[tuple[np.ndarray, np.ndarray], ...],
    max_subproblems: int,
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Pack components into at most ``max_subproblems`` budget blocks.

    Largest-first into the lightest block (by candidate-link count):
    the classic LPT bound keeps the blocks within 4/3 of perfectly
    balanced, which is what the round-0 parallel fan-out cares about.
    A block-diagonal union of components is itself a valid
    subproblem, so correctness is unaffected — only the number of
    budget shares the outer waterline has to coordinate.
    """
    if len(components) <= max_subproblems:
        return tuple(components)
    order = sorted(
        range(len(components)),
        key=lambda i: components[i][1].size,
        reverse=True,
    )
    bins: list[list[int]] = [[] for _ in range(max_subproblems)]
    weights = [0] * max_subproblems
    for i in order:
        b = weights.index(min(weights))
        bins[b].append(i)
        weights[b] += components[i][1].size
    grouped = []
    for members in bins:
        if not members:
            continue
        rows = np.sort(np.concatenate([components[i][0] for i in members]))
        cols = np.sort(np.concatenate([components[i][1] for i in members]))
        grouped.append((rows, cols))
    return tuple(grouped)


#: Per-round damping: a component's budget share may move by at most
#: this multiplicative factor between rounds.  Combined with the
#: sample-table price model it rules out the secant limit cycles a
#: memoryless update is prone to near saturation boundaries.
_DAMPING = 3.0

#: Clip on local log-log price-curve slopes dθ/dλ used when the
#: waterline lands outside a component's sampled range.
_SLOPE_MIN, _SLOPE_MAX = -20.0, -0.05


def _directional_price(
    x: np.ndarray, ratio: np.ndarray, alpha: np.ndarray
) -> float:
    """Marginal value of budget for one component, ``V_c'(θ_c)``.

    ``ratio`` is the per-unit-budget gradient ``g_i / U_i``.  At the
    component optimum, links holding budget price removal at
    ``min ratio`` and links with headroom price addition at
    ``max ratio``; the true derivative lies between them (they
    coincide on any free coordinate).  Unlike the KKT multiplier fit,
    this stays well-defined when the active set has no free
    coordinate — a fully saturated component reports its *removal*
    price instead of an indeterminate-interval midpoint, which is the
    quantity the waterline comparison actually needs.
    """
    holds = x > 1e-12 * np.maximum(alpha, 1e-300)
    takes = x < alpha * (1.0 - 1e-9)
    remove = float(ratio[holds].min()) if np.any(holds) else None
    add = float(ratio[takes].max()) if np.any(takes) else None
    if remove is None:
        return max(add if add is not None else _LAMBDA_FLOOR, _LAMBDA_FLOOR)
    if add is None:
        return max(remove, _LAMBDA_FLOOR)
    return float(
        np.sqrt(max(add, _LAMBDA_FLOOR) * max(remove, _LAMBDA_FLOOR))
    )


def _waterline_split(
    theta_hist: list[list[float]],
    lam_hist: list[list[float]],
    theta_prev: np.ndarray,
    absorbable: np.ndarray,
    target: float,
) -> np.ndarray:
    """Budget shares equalizing the shadow price across components.

    Each component's price curve ``λ_c(θ)`` is modeled from *all*
    rounds solved so far: the ``(θ, λ)`` samples, made monotone in
    log-log space (concavity says θ must be non-increasing in λ), are
    interpolated between brackets and power-law extrapolated with
    clipped end slopes beyond them.  The waterline λ* with
    ``Σ θ_c(λ*) = target`` is found by bisection — every per-
    component curve is non-increasing in λ*, so the sum is monotone
    and the root unique.  Shares are clipped to ``[θ_prev/D, θ_prev·D]``
    (damping, :data:`_DAMPING`) and ``[0, Σ α U]``, then nudged to
    sum to ``target`` exactly.

    Keeping the whole sample history is what makes this robust where
    a two-point secant oscillates: once the waterline is bracketed by
    samples, interpolation keeps every later iterate inside the
    bracket.
    """
    m = len(theta_hist)
    rounds = len(theta_hist[0])
    theta_floor = target * 1e-15 + _LAMBDA_FLOOR
    ys = np.log(np.maximum(np.asarray(theta_hist, dtype=float), theta_floor))
    xs = np.log(np.maximum(np.asarray(lam_hist, dtype=float), _LAMBDA_FLOOR))
    order = np.argsort(xs, axis=1, kind="stable")
    xs = np.take_along_axis(xs, order, axis=1)
    ys = np.take_along_axis(ys, order, axis=1)
    # Concavity cleanup: θ non-increasing as λ increases.
    ys = np.minimum.accumulate(ys, axis=1)

    if rounds >= 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            slope_lo = np.where(
                xs[:, 1] - xs[:, 0] > 1e-12,
                (ys[:, 1] - ys[:, 0]) / (xs[:, 1] - xs[:, 0]),
                -1.0,
            )
            slope_hi = np.where(
                xs[:, -1] - xs[:, -2] > 1e-12,
                (ys[:, -1] - ys[:, -2]) / (xs[:, -1] - xs[:, -2]),
                -1.0,
            )
        slope_lo = np.clip(
            np.nan_to_num(slope_lo, nan=-1.0), _SLOPE_MIN, _SLOPE_MAX
        )
        slope_hi = np.clip(
            np.nan_to_num(slope_hi, nan=-1.0), _SLOPE_MIN, _SLOPE_MAX
        )
    else:
        slope_lo = slope_hi = np.full(m, -1.0)

    # Damping window.  A drained component keeps a re-entry allowance
    # so a zero share is never an absorbing state.
    hi_cap = np.minimum(
        absorbable, np.maximum(theta_prev * _DAMPING, target / (10.0 * m))
    )
    lo_cap = theta_prev / _DAMPING

    rows = np.arange(m)

    def shares(log_waterline: float) -> np.ndarray:
        below = log_waterline <= xs[:, 0]
        above = log_waterline >= xs[:, -1]
        j = np.clip((xs < log_waterline).sum(axis=1), 1, rounds - 1) if (
            rounds >= 2
        ) else np.ones(m, dtype=int)
        if rounds >= 2:
            x0, x1 = xs[rows, j - 1], xs[rows, j]
            y0, y1 = ys[rows, j - 1], ys[rows, j]
            t = (log_waterline - x0) / np.maximum(x1 - x0, 1e-300)
            y = y0 + t * (y1 - y0)
        else:
            y = ys[:, 0]
        y = np.where(
            below, ys[:, 0] + slope_lo * (log_waterline - xs[:, 0]), y
        )
        y = np.where(
            above, ys[:, -1] + slope_hi * (log_waterline - xs[:, -1]), y
        )
        return np.clip(np.exp(y), lo_cap, hi_cap)

    lo = float(xs.min()) - 60.0
    hi = float(xs.max()) + 60.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if float(shares(mid).sum()) > target:
            lo = mid
        else:
            hi = mid
    split = shares(0.5 * (lo + hi))
    # Exact budget: spread the residual (bisection roundoff, or the
    # damping window binding) over components with headroom —
    # absorbable is the only hard bound here.
    residual = target - float(split.sum())
    for _ in range(4):
        # A vanishing residual is feasibility noise, not misallocation
        # — leave the shares alone so settled components stay settled
        # (and are not needlessly re-solved).
        if abs(residual) <= 1e-12 * max(target, 1.0):
            break
        room = (absorbable - split) if residual > 0 else split
        open_ = room > 0
        if not np.any(open_):
            break
        weights = room[open_] / float(room[open_].sum())
        split[open_] = np.clip(
            split[open_] + residual * weights, 0.0, absorbable[open_]
        )
        residual = target - float(split.sum())
    return split


def solve_decomposed(
    problem: SamplingProblem,
    options: DecomposeOptions | None = None,
) -> SamplingSolution:
    """Solve by component decomposition with exact recombination.

    Always returns a feasible full-length solution.  ``converged``
    means the merged point passed the full-problem KKT check — a
    certificate of *global* optimality; either way the diagnostics
    carry the certified Frank-Wolfe ``optimality_gap``.  A problem
    whose bipartite graph is one component degenerates gracefully
    into a single exact solve (plus the certificate).
    """
    with span("scale.decompose", links=problem.num_links):
        return _solve_decomposed(problem, options)


def _solve_decomposed(
    problem: SamplingProblem,
    options: DecomposeOptions | None = None,
) -> SamplingSolution:
    import scipy.sparse as sparse

    t_start = perf_counter()
    options = options or DecomposeOptions()
    problem.check_feasible()

    cand = np.flatnonzero(problem.candidate_mask)
    loads = problem.link_loads_pps[cand]
    alpha = problem.alpha[cand]
    target = problem.theta_rate_pps

    structure = routing_components(problem)
    num_true_components = structure.num_components
    components = _group_components(
        structure.components, options.max_subproblems
    )
    m = len(components)
    csr = problem.candidate_routing_op().tosparse()
    if csr is None:
        csr = sparse.csr_matrix(problem.candidate_routing_op().toarray())

    METRICS.increment("scale.decompose.solves")
    METRICS.gauge("scale.decompose.components", num_true_components)
    METRICS.gauge("scale.decompose.blocks", m)

    # Round-0 split: the global water-filling start is feasible, so
    # its per-component budget shares are too (and strictly positive
    # wherever the component has headroom).
    x0 = initial_feasible_point(loads, alpha, target)
    theta_c = np.array(
        [float(x0[cols] @ loads[cols]) for _, cols in components]
    )
    absorbable_c = np.array(
        [float(alpha[cols] @ loads[cols]) for _, cols in components]
    )

    full_objective = SumUtilityObjective(
        problem.candidate_routing_op(), problem.utilities
    )
    gp_options = options.gp_options or GradientProjectionOptions()

    x = np.zeros(cand.size)
    theta_hist: list[list[float]] = [[] for _ in range(m)]
    lam_hist: list[list[float]] = [[] for _ in range(m)]
    solutions: list[SamplingSolution | None] = [None] * m
    iterations = 0
    releases = 0
    rounds = 0
    kkt = None
    # One CSC conversion and one slice per component for the whole
    # solve — the sliced structure never changes across rounds, only
    # each component's θ share does.
    csc = csr.tocsc()
    parts = [
        (
            csc[:, cols].tocsr()[rows],
            [problem.utilities[int(k)] for k in rows],
        )
        for rows, cols in components
    ]

    def make_subproblem(i: int, theta_rate: float) -> SamplingProblem:
        rows, cols = components[i]
        sub_routing, utilities = parts[i]
        return SamplingProblem(
            sub_routing,
            loads[cols],
            theta_rate * problem.interval_seconds,
            utilities,
            alpha=alpha[cols],
            interval_seconds=problem.interval_seconds,
        )

    # A component is re-solved only when its share moved materially on
    # its own scale; sub-1e-9 jitter costs ~λ·Δθ objective — far below
    # every certificate this solver issues.
    share_scale = np.maximum(np.abs(theta_c), max(target, 1.0) / max(m, 1))
    solved_theta = np.full(m, np.nan)
    certified_by_gap = False
    for rounds in range(1, options.max_rounds + 1):
        with np.errstate(invalid="ignore"):
            moved = ~(
                np.abs(theta_c - solved_theta) <= 1e-9 * share_scale
            )
        stale = [
            i
            for i in range(m)
            if solutions[i] is None or bool(moved[i])
        ]
        subproblems = {
            i: make_subproblem(i, float(theta_c[i])) for i in stale
        }
        with span("scale.decompose.round", round=rounds, stale=len(stale)):
            if rounds == 1 and options.parallel:
                fresh = solve_batch(
                    [subproblems[i] for i in stale],
                    processes=options.processes,
                    options=gp_options,
                    presolve=False,
                )
                for i, sol in zip(stale, fresh):
                    solutions[i] = sol
            else:
                # Later rounds: only components whose share actually
                # moved are re-solved, warm-started from their previous
                # optimum — near the waterline fixed point that is a
                # handful of cheap iterations on a shrinking set of
                # components.
                for i in stale:
                    prev = solutions[i]
                    solutions[i] = solve_gradient_projection(
                        subproblems[i],
                        options=gp_options,
                        warm_start=None if prev is None else prev.rates,
                    )
        for i in stale:
            solved_theta[i] = float(theta_c[i])
            iterations += solutions[i].diagnostics.iterations
            releases += solutions[i].diagnostics.constraint_releases
            x[components[i][1]] = solutions[i].rates

        gradient = full_objective.gradient(x)
        kkt = check_kkt(
            problem,
            _lift(problem, cand, x),
            tolerance=options.kkt_tolerance,
            objective=full_objective,
            gradient=gradient,
        )
        if kkt.satisfied:
            break
        round_gap, _ = frank_wolfe_gap(gradient, x, loads, alpha, target)
        if round_gap <= options.gap_tolerance * max(
            1.0, abs(float(full_objective.value(x)))
        ):
            certified_by_gap = True
            break
        if rounds == options.max_rounds:
            break

        # Extend each component's sampled price curve with the
        # directional shadow price at this round's share, then
        # re-split at the common waterline the model predicts.
        for i, (_, cols) in enumerate(components):
            ratio = gradient[cols] / loads[cols]
            theta_hist[i].append(float(theta_c[i]))
            lam_hist[i].append(
                _directional_price(x[cols], ratio, alpha[cols])
            )
        next_theta = _waterline_split(
            theta_hist, lam_hist, theta_c, absorbable_c, target
        )
        if float(np.abs(next_theta - theta_c).max()) <= 1e-14 * target:
            # The price model reproduces the current split exactly —
            # more rounds cannot move it.  Leave the loop to the
            # polish (or the certified gap).
            theta_c = next_theta
            break
        theta_c = next_theta

    polish_iterations = 0
    if (
        options.polish
        and not certified_by_gap
        and kkt is not None
        and not kkt.satisfied
    ):
        polished = solve_gradient_projection(
            problem,
            options=gp_options,
            objective=full_objective,
            warm_start=_lift(problem, cand, x),
        )
        polish_iterations = polished.diagnostics.iterations
        iterations += polish_iterations
        releases += polished.diagnostics.constraint_releases
        x = polished.rates[cand]
        kkt = polished.diagnostics.kkt
        if kkt is None or not kkt.satisfied:
            kkt = check_kkt(
                problem,
                _lift(problem, cand, x),
                tolerance=options.kkt_tolerance,
                objective=full_objective,
            )

    rates = _lift(problem, cand, x)
    value = float(full_objective.value(x))
    gap, _ = frank_wolfe_gap(
        full_objective.gradient(x), x, loads, alpha, target
    )
    relative_gap = gap / max(1.0, abs(value))
    certified_by_gap = certified_by_gap or (
        relative_gap <= options.gap_tolerance
    )
    converged = bool(kkt is not None and kkt.satisfied) or certified_by_gap
    blocks_label = (
        f"{num_true_components} component(s)"
        if m == num_true_components
        else f"{num_true_components} component(s) in {m} block(s)"
    )
    METRICS.increment("scale.decompose.rounds", rounds)
    wall = perf_counter() - t_start
    if kkt is not None and kkt.satisfied and polish_iterations == 0:
        message = (
            f"{blocks_label} recombined exactly in {rounds} round(s): "
            f"full-problem KKT certified"
        )
    elif kkt is not None and kkt.satisfied:
        message = (
            f"{blocks_label}, {rounds} waterline round(s) + "
            f"{polish_iterations} polish iteration(s): full-problem "
            f"KKT certified"
        )
    elif certified_by_gap:
        message = (
            f"{blocks_label} recombined in {rounds} round(s): "
            f"certified within {relative_gap:.2e} of optimal"
        )
    else:
        message = (
            f"{blocks_label}, waterline not converged after "
            f"{rounds} round(s); certified gap {relative_gap:.2e}"
        )
    diagnostics = SolverDiagnostics(
        method="decompose",
        iterations=iterations,
        constraint_releases=releases,
        converged=converged,
        objective_value=value,
        kkt=kkt,
        message=message,
        wall_time_s=wall,
        optimality_gap=gap,
    )
    return SamplingSolution(problem=problem, rates=rates, diagnostics=diagnostics)


def _lift(
    problem: SamplingProblem, cand: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Candidate-space rates → full-length vector (plus free saturation)."""
    rates = np.zeros(problem.num_links)
    rates[cand] = x
    free = problem.free_saturated_mask
    rates[free] = problem.alpha[free]
    return rates
