"""``repro.scale``: backends that push the solver past exact-GP scale.

Two backends beside plain exact gradient projection, each certified
rather than trusted:

``approx``
    Frank-Wolfe water-filling (:mod:`~repro.scale.approx`) — near-
    optimal in ``O(rounds · (nnz + n log n))`` with an a-posteriori
    duality-gap bound on every answer.
``decompose``
    OD×link connectivity decomposition (:mod:`~repro.scale.decompose`)
    — exact recombination across independent components, parallel on
    the batch process pool, certified by full-problem KKT.  Runs only
    when asked for by name: exact GP with its reduced-Newton finish
    beats it at every size measured.

:func:`solve_scaled` routes between them and plain exact GP with the
same auto-policy mechanism :class:`~repro.core.routing_op
.RoutingOperator` uses for dense/CSR: explicit ``backend=`` always
wins; ``"auto"`` compares the candidate count against
:data:`APPROX_AUTO_LINKS` and records its choice in
``scale.backend.*`` counters.  The threshold is a measured crossover
on a 2-CPU host (``docs/performance.md`` §5).
"""

from __future__ import annotations

import numpy as np

from ..core.problem import SamplingProblem
from ..core.solution import SamplingSolution
from ..obs.metrics import METRICS
from ..obs.spans import span
from .approx import (
    ApproxOptions,
    budget_lp_vertex,
    frank_wolfe_gap,
    solve_approx,
)
from .decompose import (
    DecomposeOptions,
    RoutingComponents,
    routing_components,
    solve_decomposed,
)

__all__ = [
    "SCALE_BACKENDS",
    "BACKEND_ALIASES",
    "BACKEND_NAMES",
    "APPROX_AUTO_LINKS",
    "ApproxOptions",
    "DecomposeOptions",
    "RoutingComponents",
    "budget_lp_vertex",
    "frank_wolfe_gap",
    "routing_components",
    "choose_backend",
    "solve_approx",
    "solve_decomposed",
    "solve_scaled",
]

#: The concrete backends; :func:`choose_backend` returns one of these.
SCALE_BACKENDS = ("exact", "approx", "decompose")

#: Retired backend names still accepted, and what they resolve to.
BACKEND_ALIASES = {"compiled": "exact"}

#: Every ``backend`` value the CLI, the daemon and :func:`solve_scaled`
#: accept.
BACKEND_NAMES = ("auto", *SCALE_BACKENDS, *BACKEND_ALIASES)

#: Auto policy: candidate counts at or above this get the water-
#: filling approximation — exact GP's active-set bookkeeping stops
#: amortizing around here on one core.
APPROX_AUTO_LINKS = 50_000


def choose_backend(
    problem: SamplingProblem, backend: str = "auto"
) -> str:
    """Resolve ``backend`` (maybe ``"auto"``) to a concrete backend.

    Mirrors :meth:`RoutingOperator.from_matrix`: an explicit request
    is honored verbatim (an alias resolves to its backend); ``"auto"``
    picks by size — approximation for very large candidate sets, exact
    GP otherwise.
    """
    if backend != "auto":
        if backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown scale backend {backend!r}; know {BACKEND_NAMES}"
            )
        return BACKEND_ALIASES.get(backend, backend)
    if int(problem.candidate_mask.sum()) >= APPROX_AUTO_LINKS:
        return "approx"
    return "exact"


def solve_scaled(
    problem: SamplingProblem,
    backend: str = "auto",
    approx_options: ApproxOptions | None = None,
    decompose_options: DecomposeOptions | None = None,
    gp_options=None,
    warm_start: np.ndarray | None = None,
) -> SamplingSolution:
    """Solve through a scale backend selected by :func:`choose_backend`.

    The returned diagnostics identify the backend that ran
    (``diagnostics.method``) and — for every non-exact backend —
    carry a certified ``optimality_gap``.  ``warm_start`` reaches
    ``exact`` and ``approx``; ``decompose`` has no warm path and
    raises rather than drop it.
    """
    resolved = choose_backend(problem, backend)
    if resolved == "decompose" and warm_start is not None:
        raise ValueError("scale backend 'decompose' takes no warm_start")
    METRICS.increment(f"scale.backend.{resolved}")
    with span("scale.solve_scaled", backend=resolved,
              links=problem.num_links):
        if resolved == "approx":
            return solve_approx(
                problem, options=approx_options, warm_start=warm_start
            )
        if resolved == "decompose":
            return solve_decomposed(problem, options=decompose_options)
        if warm_start is not None:
            from ..core.gradient_projection import solve_gradient_projection

            return solve_gradient_projection(
                problem, options=gp_options, warm_start=warm_start
            )
        from ..core.solver import solve

        return solve(problem, options=gp_options)
