"""SciPy reference solvers for cross-validation.

The gradient-projection algorithm is the paper's contribution; these
wrappers solve the identical convex program with off-the-shelf
constrained optimizers (SLSQP and trust-constr) so that tests and
ablation benchmarks can certify both solvers find the same global
optimum — the property the paper claims over heuristic approaches
(§II: "Our approach ... allows to indicate whether a solution
corresponds to the global optimum").
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .gradient_projection import initial_feasible_point
from .kkt import check_kkt
from .objective import Objective, SumUtilityObjective
from .problem import SamplingProblem
from .solution import SamplingSolution, SolverDiagnostics

__all__ = ["solve_scipy"]

_METHODS = ("SLSQP", "trust-constr")


def solve_scipy(
    problem: SamplingProblem,
    method: str = "SLSQP",
    objective: Objective | None = None,
    max_iterations: int = 500,
    tolerance: float = 1e-12,
) -> SamplingSolution:
    """Solve a :class:`SamplingProblem` with a SciPy optimizer.

    ``method`` is ``"SLSQP"`` or ``"trust-constr"``.  Returns the same
    :class:`SamplingSolution` shape as the gradient-projection solver,
    including a KKT certificate.
    """
    from scipy.optimize import Bounds, LinearConstraint, minimize

    t_start = perf_counter()
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    problem.check_feasible()

    cand = np.flatnonzero(problem.candidate_mask)
    loads = problem.link_loads_pps[cand]
    alpha = problem.alpha[cand]
    if objective is None:
        objective = SumUtilityObjective(
            problem.candidate_routing_op(), problem.utilities
        )

    x0 = initial_feasible_point(loads, alpha, problem.theta_rate_pps)

    def negated(x: np.ndarray) -> float:
        return -objective.value(np.clip(x, 0.0, alpha))

    def negated_grad(x: np.ndarray) -> np.ndarray:
        return -objective.gradient(np.clip(x, 0.0, alpha))

    constraint = LinearConstraint(
        loads[np.newaxis, :], problem.theta_rate_pps, problem.theta_rate_pps
    )
    bounds = Bounds(np.zeros_like(alpha), alpha)

    if method == "SLSQP":
        result = minimize(
            negated,
            x0,
            jac=negated_grad,
            bounds=bounds,
            constraints=[constraint],
            method="SLSQP",
            options={"maxiter": max_iterations, "ftol": tolerance},
        )
    else:
        result = minimize(
            negated,
            x0,
            jac=negated_grad,
            bounds=bounds,
            constraints=[constraint],
            method="trust-constr",
            options={"maxiter": max_iterations * 10, "gtol": 1e-10, "xtol": 1e-12},
        )

    x = np.clip(result.x, 0.0, alpha)
    rates = np.zeros(problem.num_links)
    rates[cand] = x
    rates[problem.free_saturated_mask] = problem.alpha[problem.free_saturated_mask]

    # SLSQP sometimes exits with "positive directional derivative" when
    # pushed to very tight ftol despite sitting on the optimum; trust
    # the KKT certificate over the solver's own status in that case.
    kkt = check_kkt(problem, rates, tolerance=1e-4)
    converged = bool(result.success) or kkt.satisfied
    diagnostics = SolverDiagnostics(
        method=f"scipy:{method}",
        iterations=int(getattr(result, "nit", 0) or 0),
        constraint_releases=0,
        converged=converged,
        objective_value=objective.value(x),
        kkt=kkt,
        message=str(result.message),
        wall_time_s=perf_counter() - t_start,
    )
    return SamplingSolution(problem=problem, rates=rates, diagnostics=diagnostics)
