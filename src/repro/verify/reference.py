"""Slow, obviously-correct reference kernels for differential testing.

Everything here is written for auditability, not speed: Python loops,
dense arrays, scalar arithmetic transcribed directly from the paper's
formulas (Cantieni et al., CoNEXT 2006).  The optimized kernels in
:mod:`repro.core` — sparse backends, stacked multi-θ evaluation,
presolve reductions — are checked *against* these, never the other way
around, so this module must not import any of the fast paths it
certifies beyond the problem container itself.

Contents:

* effective rates ρ — the exact product form ``1 − Π(1 − p_i)^{r_ki}``
  (eq. 1) and the linear approximation ``ρ = R p`` (eq. 7);
* the spliced utility ``M(ρ)`` with the closed-form splice
  ``x₀ = 3c/(1+c)`` — hyperbolic accuracy ``A(ρ) = 1 + c − c/ρ``
  above ``x₀``, its second-order Taylor expansion ``A*`` below;
* the objective ``Σ M_k(ρ_k)`` and its gradient ``Rᵀ M'(ρ)`` over the
  candidate links;
* naive KKT residuals for the polytope
  ``{p : Σ p_i U_i = θ/T, 0 ≤ p_i ≤ α_i}``;
* :func:`brute_force_solve` — exhaustive active-set enumeration,
  provably optimal on small instances; and
* :func:`slsqp_cross_solve` — an independent SciPy SLSQP solve built
  on the naive objective, for instances too large to enumerate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..core.problem import SamplingProblem
from ..core.utility import MeanSquaredRelativeAccuracy, UtilityFunction

__all__ = [
    "reference_linear_rho",
    "reference_exact_rho",
    "reference_utility_value",
    "reference_utility_derivative",
    "reference_utility_second_derivative",
    "reference_objective",
    "reference_candidate_objective",
    "reference_candidate_gradient",
    "reference_kkt_residuals",
    "BruteForceResult",
    "brute_force_solve",
    "CrossSolveResult",
    "slsqp_cross_solve",
]


# ----------------------------------------------------------------------
# effective rates
# ----------------------------------------------------------------------

def reference_linear_rho(routing: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Eq. 7: ``ρ_k = Σ_i r_ki p_i`` by explicit loops."""
    routing = np.asarray(routing, dtype=float)
    rates = np.asarray(rates, dtype=float)
    num_od, num_links = routing.shape
    rho = np.zeros(num_od)
    for k in range(num_od):
        total = 0.0
        for i in range(num_links):
            total += float(routing[k, i]) * float(rates[i])
        rho[k] = total
    return rho


def reference_exact_rho(routing: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Eq. 1: ``ρ_k = 1 − Π_i (1 − p_i)^{r_ki}`` by explicit loops."""
    routing = np.asarray(routing, dtype=float)
    rates = np.asarray(rates, dtype=float)
    num_od, num_links = routing.shape
    rho = np.zeros(num_od)
    for k in range(num_od):
        miss = 1.0
        for i in range(num_links):
            r = float(routing[k, i])
            if r != 0.0:
                miss *= (1.0 - min(float(rates[i]), 1.0)) ** r
        rho[k] = 1.0 - miss
    return rho


# ----------------------------------------------------------------------
# the spliced utility
# ----------------------------------------------------------------------

def _splice(c: float) -> tuple[float, float, float, float]:
    """``(x₀, A(x₀), A'(x₀), A''(x₀))`` of the paper's splice."""
    x0 = 3.0 * c / (1.0 + c)
    a0 = 2.0 * (1.0 + c) / 3.0
    d1 = c / (x0 * x0)
    d2 = -2.0 * c / (x0 * x0 * x0)
    return x0, a0, d1, d2


def reference_utility_value(c: float, rho: float) -> float:
    """``M(ρ)`` for mean inverse size ``c``: spliced accuracy.

    The quadratic branch is the natural extension below 0 as well — it
    is what makes the objective concave and C² on all of ℝ, which the
    brute-force Newton solve relies on.
    """
    x0, a0, d1, d2 = _splice(c)
    if rho >= x0:
        return 1.0 + c - c / rho
    y = rho - x0
    return a0 + y * d1 + 0.5 * y * y * d2


def reference_utility_derivative(c: float, rho: float) -> float:
    """``M'(ρ)``."""
    x0, _a0, d1, d2 = _splice(c)
    if rho >= x0:
        return c / (rho * rho)
    return d1 + (rho - x0) * d2


def reference_utility_second_derivative(c: float, rho: float) -> float:
    """``M''(ρ)``."""
    x0, _a0, _d1, d2 = _splice(c)
    if rho >= x0:
        return -2.0 * c / (rho * rho * rho)
    return d2


def _utility_value(utility: UtilityFunction, rho: float) -> float:
    if isinstance(utility, MeanSquaredRelativeAccuracy):
        return reference_utility_value(utility.mean_inverse_size, rho)
    return float(utility.value(max(rho, 0.0)))


def _utility_derivative(utility: UtilityFunction, rho: float) -> float:
    if isinstance(utility, MeanSquaredRelativeAccuracy):
        return reference_utility_derivative(utility.mean_inverse_size, rho)
    return float(utility.derivative(max(rho, 0.0)))


def _utility_curvature(utility: UtilityFunction, rho: float) -> float:
    if isinstance(utility, MeanSquaredRelativeAccuracy):
        return reference_utility_second_derivative(
            utility.mean_inverse_size, rho
        )
    return float(utility.second_derivative(max(rho, 0.0)))


# ----------------------------------------------------------------------
# objective / gradient over the candidate links
# ----------------------------------------------------------------------

def reference_objective(problem: SamplingProblem, rates: np.ndarray) -> float:
    """``Σ_k M_k(ρ_k)`` at a full-length rate vector, linear ρ model."""
    rho = reference_linear_rho(problem.routing, rates)
    return sum(
        _utility_value(u, float(r)) for u, r in zip(problem.utilities, rho)
    )


def _candidate_pieces(problem: SamplingProblem):
    cand = np.flatnonzero(problem.candidate_mask)
    return (
        cand,
        np.asarray(problem.routing[:, cand], dtype=float),
        problem.link_loads_pps[cand],
        problem.alpha[cand],
    )


def reference_candidate_objective(
    problem: SamplingProblem, x: np.ndarray
) -> float:
    """The solvers' objective: ``Σ_k M_k((R_cand x)_k)``.

    ``x`` has one entry per *candidate* link, in candidate order —
    the same convention the gradient-projection and SciPy solvers use
    internally and report in ``diagnostics.objective_value``.
    """
    _cand, routing, _loads, _alpha = _candidate_pieces(problem)
    rho = reference_linear_rho(routing, x)
    return sum(
        _utility_value(u, float(r)) for u, r in zip(problem.utilities, rho)
    )


def reference_candidate_gradient(
    problem: SamplingProblem, x: np.ndarray
) -> np.ndarray:
    """``∇_x Σ_k M_k((R_cand x)_k) = R_candᵀ M'(ρ)`` by loops."""
    _cand, routing, _loads, _alpha = _candidate_pieces(problem)
    rho = reference_linear_rho(routing, x)
    num_od, n = routing.shape
    g = np.zeros(n)
    for k in range(num_od):
        slope = _utility_derivative(problem.utilities[k], float(rho[k]))
        for i in range(n):
            g[i] += float(routing[k, i]) * slope
    return g


# ----------------------------------------------------------------------
# KKT residuals
# ----------------------------------------------------------------------

def reference_kkt_residuals(
    problem: SamplingProblem,
    rates: np.ndarray,
    tolerance: float = 1e-6,
) -> dict:
    """Naive KKT residuals of a full-length rate vector.

    Stationarity (``g_i = λ U_i`` on free links), dual feasibility
    (multiplier signs at active bounds), primal feasibility of the
    capacity equality, and box violations — all from first principles,
    without the solver's ``ActiveSet`` machinery.  Residuals are
    normalized the same way :func:`repro.core.check_kkt` normalizes
    them so tolerances are comparable.
    """
    rates = np.asarray(rates, dtype=float)
    cand, _routing, loads, alpha = _candidate_pieces(problem)
    x = rates[cand]
    g = reference_candidate_gradient(problem, x)
    target = problem.theta_rate_pps

    bound_violation = 0.0
    budget = 0.0
    for i in range(x.size):
        bound_violation = max(bound_violation, -x[i], x[i] - alpha[i])
        budget += x[i] * loads[i]
    bound_violation = max(bound_violation, 0.0)
    feasibility = abs(budget - target) / max(target, 1e-12)

    atol = max(1e-9, 1e-6 * float(alpha.min()))
    lower = [i for i in range(x.size) if x[i] <= atol]
    upper = [
        i for i in range(x.size) if i not in lower and x[i] >= alpha[i] - atol
    ]
    free = [i for i in range(x.size) if i not in lower and i not in upper]

    scale = max(1.0, float(np.abs(g).max()) if g.size else 1.0)
    if free:
        num = sum(g[i] * loads[i] for i in free)
        den = sum(loads[i] * loads[i] for i in free)
        lam = num / den
        stationarity = max(abs(g[i] - lam * loads[i]) for i in free) / scale
    else:
        # No free link pins λ; any value between the lower-bound floors
        # and the upper-bound ceilings certifies.  Pick the midpoint of
        # the admissible interval (empty interval → worst violation).
        floors = [g[i] / loads[i] for i in lower] or [-math.inf]
        ceilings = [g[i] / loads[i] for i in upper] or [math.inf]
        lo, hi = max(floors), min(ceilings)
        if lo <= hi:
            lam = (
                (lo + hi) / 2.0
                if math.isfinite(lo) and math.isfinite(hi)
                else (lo if math.isfinite(lo) else hi)
            )
            if not math.isfinite(lam):
                lam = 0.0
        else:
            lam = (lo + hi) / 2.0
        stationarity = 0.0

    worst = 0.0
    for i in lower:  # ν_i = λU_i − g_i must be ≥ 0
        worst = min(worst, lam * loads[i] - g[i])
    for i in upper:  # μ_i = g_i − λU_i must be ≥ 0
        worst = min(worst, g[i] - lam * loads[i])
    worst /= scale

    return {
        "lam": float(lam),
        "stationarity_residual": float(stationarity),
        "feasibility_residual": float(feasibility),
        "bound_violation": float(bound_violation),
        "worst_multiplier": float(worst),
        "satisfied": bool(
            bound_violation <= tolerance
            and feasibility <= tolerance
            and stationarity <= tolerance
            and worst >= -tolerance
        ),
    }


# ----------------------------------------------------------------------
# brute-force active-set enumeration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BruteForceResult:
    """Provably optimal solution of a small instance.

    ``objective`` is the candidate-space objective (the same quantity
    the solvers report in ``diagnostics.objective_value``); ``rates``
    is the full-length vector with free-saturated links pinned at α,
    mirroring the solvers' convention.
    """

    rates: np.ndarray
    objective: float
    lam: float
    partition: tuple[str, ...]
    partitions_checked: int
    partitions_feasible: int


def _slice_maximize(
    problem: SamplingProblem,
    routing: np.ndarray,
    free: list[int],
    x: np.ndarray,
    loads: np.ndarray,
    rem: float,
) -> bool:
    """Maximize the objective over ``{x_F : u_F · x_F = rem}`` in place.

    The box bounds are ignored here (the caller validates them after);
    the extended quadratic branch keeps the objective concave and C²
    on all of ℝ, so damped Newton on the null-space parametrization
    converges globally.  Returns False when Newton fails to converge.
    """
    uF = loads[free]
    norm2 = float(uF @ uF)
    x[free] = rem * uF / norm2  # minimum-norm particular solution
    if len(free) == 1:
        return True

    # Orthonormal basis of null(uFᵀ): the last f−1 left-singular
    # vectors of the 1×f constraint row.
    _q, _r = np.linalg.qr(
        np.column_stack([uF / math.sqrt(norm2), np.eye(len(free))])
    )
    basis = _q[:, 1:len(free)]

    for _ in range(120):
        g_full = reference_candidate_gradient(problem, x)
        gz = basis.T @ g_full[free]
        residual = float(np.abs(gz).max())
        scale = max(1.0, float(np.abs(g_full).max()))
        # The objective error of a stationarity residual r is O(r²/|H|),
        # so 1e-9 here keeps the objective exact to far below the 1e-6
        # comparison tolerance.
        if residual <= 1e-9 * scale:
            return True
        rho = reference_linear_rho(routing, x)
        curv = np.array(
            [
                _utility_curvature(u, float(r))
                for u, r in zip(problem.utilities, rho)
            ]
        )
        rf = routing[:, free]
        hz = basis.T @ (rf.T @ (curv[:, None] * rf)) @ basis
        step, *_ = np.linalg.lstsq(hz, -gz, rcond=None)
        # Backtrack on the (to-be-increased) objective for safety at
        # the splice kinks; concavity means full steps almost always
        # succeed.
        before = reference_candidate_objective(problem, x)
        t = 1.0
        for _trial in range(40):
            candidate = x.copy()
            candidate[free] += t * (basis @ step)
            if reference_candidate_objective(problem, candidate) >= before:
                x[:] = candidate
                break
            t *= 0.5
        else:
            # Backtracking stalled: at float resolution the objective
            # cannot increase any further.  Accept if the stationarity
            # residual says we are (near-)optimal, else a real failure.
            return residual <= 1e-6 * scale
    # Budget spent with the residual a hair above 1e-9: at float
    # resolution backtracking can keep accepting steps of unchanged
    # objective without ever crossing the exit.  Judge the final point
    # by the stall branch's rule.
    g_full = reference_candidate_gradient(problem, x)
    residual = float(np.abs(basis.T @ g_full[free]).max())
    return residual <= 1e-6 * max(1.0, float(np.abs(g_full).max()))


def brute_force_solve(
    problem: SamplingProblem, max_candidates: int = 12
) -> BruteForceResult:
    """Globally optimal rates by exhaustive active-set enumeration.

    Every partition of the candidate links into Lower (``p = 0``),
    Upper (``p = α``) and Free is tried; the free block is maximized
    exactly on the budget slice (strictly concave ⇒ unique optimum),
    and the best *feasible* point over all partitions is returned.
    The true optimum's own partition reproduces it exactly, and every
    evaluated point is feasible, so the maximum is the global optimum
    — a proof by enumeration, at Θ(3ⁿ) cost.  Refuses instances with
    more than ``max_candidates`` candidate links.
    """
    problem.check_feasible()
    cand, routing, loads, alpha = _candidate_pieces(problem)
    n = cand.size
    if n > max_candidates:
        raise ValueError(
            f"{n} candidate links exceed the enumeration cap "
            f"{max_candidates}; use slsqp_cross_solve instead"
        )
    target = problem.theta_rate_pps
    feas_tol = 1e-9 * max(1.0, target)
    box_tol = 1e-7

    best_obj = -math.inf
    best_x: np.ndarray | None = None
    best_partition: tuple[str, ...] | None = None
    checked = 0
    feasible = 0

    for assignment in itertools.product("LUF", repeat=n):
        checked += 1
        upper = [i for i in range(n) if assignment[i] == "U"]
        free = [i for i in range(n) if assignment[i] == "F"]
        fixed = sum(float(alpha[i] * loads[i]) for i in upper)
        rem = target - fixed
        x = np.zeros(n)
        for i in upper:
            x[i] = alpha[i]
        if not free:
            if abs(rem) > feas_tol:
                continue
        else:
            headroom = sum(float(alpha[i] * loads[i]) for i in free)
            if rem < -feas_tol or rem > headroom + feas_tol:
                continue
            if not _slice_maximize(problem, routing, free, x, loads, rem):
                continue
            # Validate the box (the slice solve ignored it); tiny
            # excursions are clipped, real ones disqualify the
            # partition — the optimum's partition never needs them.
            clipped = np.clip(x, 0.0, alpha)
            if float(np.abs(clipped - x).max()) > box_tol:
                continue
            x = clipped
            if abs(float(x @ loads) - target) > max(feas_tol, 1e-9 * target):
                continue
        feasible += 1
        obj = reference_candidate_objective(problem, x)
        if obj > best_obj:
            best_obj = obj
            best_x = x
            best_partition = tuple(assignment)

    if best_x is None:  # pragma: no cover - check_feasible precludes this
        raise RuntimeError("no feasible partition found")

    g = reference_candidate_gradient(problem, best_x)
    free_idx = [
        i
        for i in range(n)
        if best_partition[i] == "F" and 0.0 < best_x[i] < alpha[i]
    ]
    if free_idx:
        uF = loads[free_idx]
        lam = float((g[free_idx] @ uF) / (uF @ uF))
    else:
        lam = 0.0

    rates = np.zeros(problem.num_links)
    rates[cand] = best_x
    saturated = problem.free_saturated_mask
    rates[saturated] = problem.alpha[saturated]
    return BruteForceResult(
        rates=rates,
        objective=float(best_obj),
        lam=lam,
        partition=best_partition,
        partitions_checked=checked,
        partitions_feasible=feasible,
    )


# ----------------------------------------------------------------------
# independent SLSQP cross-solve
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CrossSolveResult:
    """An independent SLSQP solve over the naive reference objective."""

    rates: np.ndarray
    objective: float
    success: bool
    message: str


def slsqp_cross_solve(
    problem: SamplingProblem, max_iterations: int = 500
) -> CrossSolveResult:
    """Solve with SciPy's SLSQP driven purely by the reference kernels.

    Shares no code with :mod:`repro.core.scipy_solver` beyond SciPy
    itself: objective, gradient and constraint Jacobian all come from
    this module's loop implementations, so agreement with the
    gradient-projection optimum certifies both the solver *and* the
    optimized objective kernels at once.
    """
    from scipy.optimize import minimize

    problem.check_feasible()
    cand, _routing, loads, alpha = _candidate_pieces(problem)
    target = problem.theta_rate_pps
    x0 = alpha * (target / float(alpha @ loads))

    result = minimize(
        lambda x: -reference_candidate_objective(problem, x),
        x0,
        jac=lambda x: -reference_candidate_gradient(problem, x),
        bounds=[(0.0, float(a)) for a in alpha],
        constraints=[
            {
                "type": "eq",
                "fun": lambda x: float(x @ loads) - target,
                "jac": lambda x: loads,
            }
        ],
        method="SLSQP",
        options={"maxiter": max_iterations, "ftol": 1e-12},
    )
    x = np.clip(np.asarray(result.x, dtype=float), 0.0, alpha)
    rates = np.zeros(problem.num_links)
    rates[cand] = x
    saturated = problem.free_saturated_mask
    rates[saturated] = problem.alpha[saturated]
    return CrossSolveResult(
        rates=rates,
        objective=reference_candidate_objective(problem, x),
        success=bool(result.success),
        message=str(result.message),
    )
