"""Differential harness: every fast path against every other, and all
of them against the slow reference.

Each check solves (or evaluates) the *same* :class:`SamplingProblem`
through two independent code paths and demands agreement within the
documented tolerance (see :data:`TOLERANCES` and
``docs/verification.md``).  The pairs:

``dense_csr``
    Gradient-projection optimum with the routing operator forced onto
    the dense backend vs forced onto the CSR backend.
``presolve``
    Full-space solve vs presolved-reduce-solve-lift.
``stacked``
    Per-member θ-sweep solves vs the stacked multi-θ sweep kernel.
``supervised``
    Direct ``solve`` vs the supervised/fallback wrapper (no faults
    injected — the wrapper must be a transparent pass-through).
``reference``
    Gradient-projection optimum vs the brute-force active-set
    enumeration (small instances) and the independent SLSQP
    cross-solve built on the naive kernels.
``approx``
    The water-filling approximation's *certificate soundness*: the
    exact optimum must not beat the approximate value by more than
    the approximation's own certified ``optimality_gap``.
``decompose``
    Component decomposition vs one full solve on a block-diagonal
    instance assembled from the problem (guaranteed ≥ 2 components).

Comparisons gate on the *objective* (unique at the optimum even when
the rate vector is degenerate) plus each solution's own KKT
certificate; rate deltas are recorded for forensics but never gate.

:func:`random_problem` generates seeded random instances, including
the degenerate shapes that historically break reductions: duplicate
routing columns, empty OD rows, θ exactly at capacity, α = 0 links,
zero-load (free-saturated) links.
"""

from __future__ import annotations

import numpy as np

from ..core import solve, solve_theta_sweep
from ..core.kkt import check_kkt
from ..core.problem import InfeasibleProblemError, SamplingProblem
from ..core.utility import accuracy_utilities
from ..obs.metrics import METRICS
from ..resilience import SupervisorPolicy, supervised_solve
from ..rng import default_rng
from .reference import (
    brute_force_solve,
    reference_candidate_objective,
    reference_kkt_residuals,
    slsqp_cross_solve,
)

__all__ = [
    "TOLERANCES",
    "random_problem",
    "block_diagonal_problem",
    "check_backends",
    "check_presolve",
    "check_stacked",
    "check_supervised",
    "check_reference",
    "check_approx",
    "check_decompose",
    "check_stream",
    "check_reconfig",
    "differential_check",
    "run_differential_suite",
]

#: The certified tolerances, all on *relative* objective gaps
#: (``|a−b| / max(1, |a|, |b|)``) except ``kkt`` (the certificate
#: tolerance applied to each compared solution).  The policy behind
#: the numbers is documented in ``docs/verification.md``.
TOLERANCES: dict[str, float] = {
    "dense_csr": 1e-7,
    "presolve": 1e-7,
    "stacked": 1e-6,
    "supervised": 1e-9,
    "brute_force": 1e-6,
    "slsqp_cross": 1e-5,
    "kkt": 1e-5,
    # Scale backends (repro.scale): "approx" is slack on the
    # *certificate* — the exact optimum may exceed the approximate
    # value by at most the certified gap plus this roundoff allowance;
    # "decompose" gates merged-vs-full objectives.
    "approx": 1e-9,
    "decompose": 1e-6,
    # Streaming control plane (repro.stream): "stream" gates each
    # interval's warm incremental optimum against a cold exact solve
    # of the identical problem; "reconfig" gates the penalized
    # program's certified mapping back to the unpenalized objective
    # (gap-bound and churn-bound soundness, roundoff allowance only).
    "stream": 1e-7,
    "reconfig": 1e-6,
}


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _candidate_rates(problem: SamplingProblem, rates: np.ndarray) -> np.ndarray:
    return np.asarray(rates, dtype=float)[
        np.flatnonzero(problem.candidate_mask)
    ]


def _ref_objective(problem: SamplingProblem, solution) -> float:
    """The reference-kernel objective of a solution — neutral arbiter."""
    return reference_candidate_objective(
        problem, _candidate_rates(problem, solution.rates)
    )


def _kkt_ok(problem: SamplingProblem, solution) -> bool:
    report = check_kkt(problem, solution.rates, tolerance=TOLERANCES["kkt"])
    return bool(report.satisfied)


# ----------------------------------------------------------------------
# instance generation
# ----------------------------------------------------------------------

def random_problem(
    rng: np.random.Generator,
    max_links: int = 8,
    max_od: int = 5,
    degenerate: bool = False,
) -> SamplingProblem:
    """A feasible random instance; ``degenerate=True`` adds edge cases.

    Loads are drawn continuously, so no two links share a load (and no
    objective slice is flat) unless a degenerate twist deliberately
    duplicates a column *with* its load.
    """
    for _attempt in range(64):
        num_links = int(rng.integers(3, max_links + 1))
        num_od = int(rng.integers(2, max_od + 1))
        routing = (
            rng.random((num_od, num_links)) < rng.uniform(0.3, 0.7)
        ).astype(float)
        for k in range(num_od):
            if not routing[k].any():
                routing[k, int(rng.integers(num_links))] = 1.0
        loads = rng.uniform(50.0, 5000.0, num_links)
        alpha = rng.uniform(0.3, 1.0, num_links)
        theta_fraction = float(rng.uniform(0.15, 0.8))

        if degenerate:
            twists = rng.choice(5, size=int(rng.integers(1, 3)), replace=False)
            if 0 in twists and num_links >= 2:  # duplicate column + load
                routing[:, 1] = routing[:, 0]
                loads[1] = loads[0]
                alpha[1] = alpha[0]
            if 1 in twists and num_od >= 2:  # empty OD row
                routing[0, :] = 0.0
            if 2 in twists:  # θ exactly at capacity
                theta_fraction = 1.0
            if 3 in twists and num_links >= 3:  # α = 0 link
                alpha[2] = 0.0
            if 4 in twists and num_links >= 4:  # zero-load traversed link
                loads[3] = 0.0

        utilities = accuracy_utilities(rng.uniform(0.005, 0.45, num_od))
        probe = SamplingProblem(
            routing, loads, 1.0, utilities, alpha=alpha,
            interval_seconds=300.0,
        )
        absorbable = probe.max_absorbable_rate
        if absorbable <= 0.0:
            continue
        theta = theta_fraction * absorbable * probe.interval_seconds
        problem = probe.with_theta(theta)
        try:
            problem.check_feasible()
        except InfeasibleProblemError:
            continue
        return problem
    raise RuntimeError("could not generate a feasible random instance")


def block_diagonal_problem(
    problem: SamplingProblem, load_scale: float = 1.7
) -> SamplingProblem:
    """A ≥ 2-component instance assembled from ``problem``.

    Two copies of the routing on disjoint link/OD blocks — the second
    with loads scaled by ``load_scale`` so the blocks price budget
    differently — and double the budget (feasible: the absorbable
    capacity more than doubles).  Deterministic, which is what the
    differential and golden harnesses need.
    """
    routing = np.asarray(problem.routing, dtype=float)
    num_od, num_links = routing.shape
    stacked = np.zeros((2 * num_od, 2 * num_links))
    stacked[:num_od, :num_links] = routing
    stacked[num_od:, num_links:] = routing
    loads = np.concatenate(
        [problem.link_loads_pps, load_scale * problem.link_loads_pps]
    )
    alpha = np.concatenate([problem.alpha, problem.alpha])
    utilities = list(problem.utilities) + list(problem.utilities)
    probe = SamplingProblem(
        stacked,
        loads,
        1.0,
        utilities,
        alpha=alpha,
        interval_seconds=problem.interval_seconds,
    )
    return probe.with_theta(2.0 * problem.theta_packets)


# ----------------------------------------------------------------------
# pairwise checks
# ----------------------------------------------------------------------

def check_backends(problem: SamplingProblem) -> dict:
    """Dense routing backend vs CSR routing backend."""
    dense = solve(problem.with_routing_backend("dense"))
    sparse = solve(problem.with_routing_backend("sparse"))
    gap = _rel_gap(_ref_objective(problem, dense), _ref_objective(problem, sparse))
    return {
        "pair": "dense_csr",
        "objective_gap": gap,
        "max_rate_diff": float(np.abs(dense.rates - sparse.rates).max()),
        "kkt_ok": _kkt_ok(problem, dense) and _kkt_ok(problem, sparse),
        "tolerance": TOLERANCES["dense_csr"],
        "passed": gap <= TOLERANCES["dense_csr"]
        and _kkt_ok(problem, dense)
        and _kkt_ok(problem, sparse),
    }


def check_presolve(problem: SamplingProblem) -> dict:
    """Full-space solve vs presolved-and-lifted solve."""
    full = solve(problem, presolve=False)
    lifted = solve(problem, presolve=True)
    gap = _rel_gap(_ref_objective(problem, full), _ref_objective(problem, lifted))
    budget = float(lifted.rates @ problem.link_loads_pps)
    feasibility = abs(budget - problem.theta_rate_pps) / max(
        problem.theta_rate_pps, 1e-12
    )
    return {
        "pair": "presolve",
        "objective_gap": gap,
        "lifted_feasibility": feasibility,
        "max_rate_diff": float(np.abs(full.rates - lifted.rates).max()),
        "kkt_ok": _kkt_ok(problem, full) and _kkt_ok(problem, lifted),
        "tolerance": TOLERANCES["presolve"],
        "passed": gap <= TOLERANCES["presolve"]
        and feasibility <= TOLERANCES["kkt"]
        and _kkt_ok(problem, full)
        and _kkt_ok(problem, lifted),
    }


def check_stacked(problem: SamplingProblem) -> dict:
    """Stacked multi-θ sweep members vs one-at-a-time scalar solves."""
    thetas = [
        problem.theta_packets * f for f in (0.5, 0.8, 1.0)
    ]
    stacked = solve_theta_sweep(problem, thetas, presolve=True)
    worst = 0.0
    for theta, member in zip(thetas, stacked):
        scalar = solve(problem.with_theta(theta).clamped(), presolve=True)
        worst = max(
            worst,
            _rel_gap(
                _ref_objective(problem, member),
                _ref_objective(problem, scalar),
            ),
        )
    return {
        "pair": "stacked",
        "objective_gap": worst,
        "members": len(thetas),
        "tolerance": TOLERANCES["stacked"],
        "passed": worst <= TOLERANCES["stacked"],
    }


def check_supervised(problem: SamplingProblem) -> dict:
    """Supervised/fallback wrapper vs direct solve (no faults)."""
    direct = solve(problem)
    supervised = supervised_solve(
        problem, policy=SupervisorPolicy(timeout_s=60.0)
    )
    gap = _rel_gap(
        _ref_objective(problem, direct), _ref_objective(problem, supervised)
    )
    return {
        "pair": "supervised",
        "objective_gap": gap,
        "degraded": bool(supervised.diagnostics.degraded),
        "max_rate_diff": float(
            np.abs(direct.rates - supervised.rates).max()
        ),
        "tolerance": TOLERANCES["supervised"],
        "passed": gap <= TOLERANCES["supervised"]
        and not supervised.diagnostics.degraded,
    }


def check_reference(
    problem: SamplingProblem, max_candidates: int = 10
) -> dict:
    """Gradient projection vs brute force (small) and SLSQP cross-solve."""
    gp = solve(problem)
    gp_obj = _ref_objective(problem, gp)
    record: dict = {"pair": "reference", "gp_objective": gp_obj}

    num_candidates = int(problem.candidate_mask.sum())
    passed = True
    if num_candidates <= max_candidates:
        brute = brute_force_solve(problem, max_candidates=max_candidates)
        record["brute_force_gap"] = _rel_gap(gp_obj, brute.objective)
        record["brute_force_tolerance"] = TOLERANCES["brute_force"]
        # The enumeration is exact, so the GP objective must not trail
        # it — and cannot *beat* it beyond roundoff either.
        passed = passed and (
            record["brute_force_gap"] <= TOLERANCES["brute_force"]
        )

    cross = slsqp_cross_solve(problem)
    record["slsqp_cross_gap"] = _rel_gap(gp_obj, cross.objective)
    record["slsqp_cross_tolerance"] = TOLERANCES["slsqp_cross"]
    passed = passed and (
        record["slsqp_cross_gap"] <= TOLERANCES["slsqp_cross"]
    )

    residuals = reference_kkt_residuals(
        problem, gp.rates, tolerance=TOLERANCES["kkt"]
    )
    record["reference_kkt_satisfied"] = residuals["satisfied"]
    record["passed"] = passed and residuals["satisfied"]
    return record


def check_approx(problem: SamplingProblem) -> dict:
    """Water-filling approximation: certificate soundness vs exact GP.

    The Frank-Wolfe bound claims ``f* − f(x̂) ≤ optimality_gap``; the
    exact solver supplies ``f*``, so the claim is directly testable.
    A *negative* shortfall (approximation matching or beating the
    exact path's roundoff) is always sound.
    """
    from ..scale import solve_approx

    exact = solve(problem)
    approx = solve_approx(problem)
    exact_obj = _ref_objective(problem, exact)
    approx_obj = _ref_objective(problem, approx)
    certified = float(approx.diagnostics.optimality_gap)
    shortfall = exact_obj - approx_obj
    scale = max(1.0, abs(exact_obj), abs(approx_obj))
    violation = max(shortfall - certified, 0.0) / scale
    sound = violation <= TOLERANCES["approx"]
    return {
        "pair": "approx",
        # The gated quantity: by how much reality exceeded the
        # certificate (0 when the bound held, which it must).
        "objective_gap": violation,
        "certified_gap": certified,
        "shortfall": shortfall,
        "approx_converged": bool(approx.diagnostics.converged),
        "tolerance": TOLERANCES["approx"],
        "passed": sound,
    }


def check_decompose(problem: SamplingProblem) -> dict:
    """Decomposition merge vs one full solve, on ≥ 2 components.

    Assembles a deterministic block-diagonal instance from
    ``problem`` (see :func:`block_diagonal_problem`) so every input —
    including single-component ones — exercises a real split/merge.
    """
    from ..scale import DecomposeOptions, routing_components, solve_decomposed

    block = block_diagonal_problem(problem)
    components = routing_components(block).num_components
    full = solve(block)
    # Inline rounds: spawning a process pool per differential instance
    # would dwarf the solves themselves at this size.
    merged = solve_decomposed(block, options=DecomposeOptions(parallel=False))
    gap = _rel_gap(
        _ref_objective(block, full), _ref_objective(block, merged)
    )
    return {
        "pair": "decompose",
        "objective_gap": gap,
        "components": components,
        "merged_converged": bool(merged.diagnostics.converged),
        "certified_gap": float(merged.diagnostics.optimality_gap),
        "tolerance": TOLERANCES["decompose"],
        "passed": gap <= TOLERANCES["decompose"]
        and components >= 2
        and bool(merged.diagnostics.converged),
    }


def _utility_inverse_sizes(problem: SamplingProblem) -> np.ndarray:
    """Per-OD mean inverse packet counts behind the problem's utilities."""
    return np.array([u.mean_inverse_size for u in problem.utilities])


def check_stream(problem: SamplingProblem, intervals: int = 4) -> dict:
    """Warm incremental stream solves vs cold exact solves, per interval.

    Drives a :class:`~repro.core.batch.WarmStartChain` with the
    streaming controller's solver options (reduced-Newton warm path)
    over a deterministic mini-stream of utility perturbations — the
    same problem family the online control plane produces — and
    demands every interval's warm optimum match a cold exact solve of
    the *identical* problem within ``TOLERANCES["stream"]``, with the
    warm solution's own KKT certificate intact.
    """
    from ..core.batch import WarmStartChain
    from ..core.gradient_projection import GradientProjectionOptions

    options = GradientProjectionOptions(warm_newton=True, tolerance=1e-7)
    chain = WarmStartChain(options=options, presolve=False)
    base_inverse = _utility_inverse_sizes(problem)
    worst = 0.0
    kkt_ok = True
    warm_hits = 0
    for index in range(intervals):
        # Deterministic smooth drift, ±5 %, different phase per OD —
        # the shape of diurnal load evolution between change points.
        # Clamped below 1/2: the accuracy family's domain is open at
        # c = 1/2 and a random instance may already sit near it.
        drift = 1.0 + 0.05 * np.sin(
            0.7 * index + np.arange(base_inverse.size)
        )
        drifted_inverse = np.minimum(base_inverse * drift, 0.5 - 1e-6)
        member = SamplingProblem(
            problem.routing,
            problem.link_loads_pps,
            problem.theta_packets,
            accuracy_utilities(drifted_inverse),
            alpha=problem.alpha,
            interval_seconds=problem.interval_seconds,
        ).clamped()
        warm = chain.solve(member)
        warm_hits += int(chain.last_solve_warm)
        cold = solve(member, presolve=False)
        worst = max(
            worst,
            _rel_gap(
                _ref_objective(member, warm), _ref_objective(member, cold)
            ),
        )
        kkt_ok = kkt_ok and _kkt_ok(member, warm)
    return {
        "pair": "stream",
        "objective_gap": worst,
        "intervals": intervals,
        "warm_hits": warm_hits,
        "kkt_ok": kkt_ok,
        "tolerance": TOLERANCES["stream"],
        "passed": worst <= TOLERANCES["stream"]
        and kkt_ok
        and warm_hits == intervals - 1,
    }


def check_reconfig(problem: SamplingProblem, gamma: float = 0.5) -> dict:
    """Certified mapping of the reconfiguration-penalized optimum.

    Solves ``max F(p) − (γ/2)‖p − prev‖²`` (``prev`` = the optimum of
    a drifted variant, i.e. a realistic previous placement) and checks
    the three exact claims the streaming controller's
    :class:`~repro.stream.controller.ReconfigReport` makes:

    1. the returned point carries a KKT certificate *of the penalized
       objective* (sufficient for its global optimality);
    2. ``0 ≤ F(p°) − F(p*) ≤ unpenalized_gap_bound`` against the
       independently computed unpenalized optimum ``p°``;
    3. the realized movement respects the certified churn bound.

    All three are mathematical consequences of penalized optimality,
    so only roundoff slack (``TOLERANCES["reconfig"]``) is allowed.
    """
    from ..core.gradient_projection import (
        GradientProjectionOptions,
        solve_gradient_projection,
    )
    from ..core.objective import SumUtilityObjective
    from ..stream.controller import ReconfigurationPenaltyObjective

    base_inverse = _utility_inverse_sizes(problem)
    # Heterogeneous drift: a *uniform* scaling of the accuracy family's
    # inverse sizes leaves the optimum unchanged (the gradient scales
    # uniformly), which would make every claim below vacuously tight.
    drift = 1.0 + 0.15 * np.sin(1.3 + np.arange(base_inverse.size))
    drifted_inverse = np.minimum(base_inverse * drift, 0.5 - 1e-6)
    drifted = SamplingProblem(
        problem.routing,
        problem.link_loads_pps,
        problem.theta_packets,
        accuracy_utilities(drifted_inverse),
        alpha=problem.alpha,
        interval_seconds=problem.interval_seconds,
    ).clamped()
    previous = solve(drifted, presolve=False).rates

    cand = np.flatnonzero(problem.candidate_mask)
    alpha = problem.alpha[cand]
    prev = np.clip(previous[cand], 0.0, alpha)
    base = SumUtilityObjective(
        problem.candidate_routing_op(), problem.utilities
    )
    penalized = ReconfigurationPenaltyObjective(base, prev, gamma)
    solution = solve_gradient_projection(
        problem,
        options=GradientProjectionOptions(warm_newton=True, tolerance=1e-7),
        objective=penalized,
        warm_start=previous,
    )
    kkt = solution.diagnostics.kkt
    kkt_ok = bool(kkt is not None and kkt.satisfied)

    x = solution.rates[cand]
    diff = x - prev
    moved_sq = float(diff @ diff)
    reach = np.maximum(prev, alpha - prev)
    gap_bound = 0.5 * gamma * max(float(reach @ reach) - moved_sq, 0.0)

    unpenalized = solve(problem, presolve=False)
    f_star = _ref_objective(problem, unpenalized)
    f_pen = reference_candidate_objective(problem, x)
    scale = max(1.0, abs(f_star), abs(f_pen))
    shortfall = (f_star - f_pen) / scale
    # p° maximizes F, so the shortfall cannot be meaningfully negative;
    # penalized optimality caps it by the certified bound.
    gap_sound = -TOLERANCES["reconfig"] <= shortfall <= (
        gap_bound / scale + TOLERANCES["reconfig"]
    )

    # ``drifted`` shares loads, θ and α with ``problem``, so the
    # previous placement is already feasible here and serves as its own
    # projection ``q_prev`` in the churn bound.
    churn_bound_sq = max(
        0.0,
        (2.0 / gamma) * (float(base.value(x)) - float(base.value(prev))),
    )
    churn_sound = moved_sq <= churn_bound_sq + TOLERANCES["reconfig"]

    violation = max(
        shortfall - gap_bound / scale,  # gap bound exceeded
        -shortfall,  # penalized point beat the true optimum
        moved_sq - churn_bound_sq,  # churn bound exceeded
        0.0,
    )
    return {
        "pair": "reconfig",
        "objective_gap": violation,
        "gamma": gamma,
        "shortfall": shortfall,
        "gap_bound": gap_bound / scale,
        "churn_l2": float(np.sqrt(moved_sq)),
        "churn_bound_l2": float(np.sqrt(churn_bound_sq)),
        "kkt_ok": kkt_ok,
        "tolerance": TOLERANCES["reconfig"],
        "passed": kkt_ok and gap_sound and churn_sound,
    }


# ----------------------------------------------------------------------
# per-instance and whole-suite drivers
# ----------------------------------------------------------------------

def differential_check(
    problem: SamplingProblem, include_reference: bool = True
) -> dict:
    """Run every applicable pairwise check on one instance."""
    checks = [
        check_backends(problem),
        check_presolve(problem),
        check_stacked(problem),
        check_supervised(problem),
        check_approx(problem),
        check_decompose(problem),
        check_stream(problem),
        check_reconfig(problem),
    ]
    if include_reference:
        checks.append(check_reference(problem))
    return {
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def run_differential_suite(
    instances: int = 50,
    seed: int | None = None,
    max_links: int = 6,
    degenerate_instances: int = 10,
    include_reference: bool = True,
) -> dict:
    """The machine-readable differential report over random instances.

    ``instances`` well-posed instances all get the full check matrix
    including the brute-force/SLSQP reference comparison;
    ``degenerate_instances`` additional edge-case instances exercise
    the backend pairs only (degenerate optima are non-unique, so only
    the exhaustive pairs are meaningful there).
    """
    rng = default_rng(seed)
    per_pair: dict[str, dict] = {}
    failures: list[dict] = []
    reference_checked = 0

    def _absorb(index: int, degenerate: bool, result: dict) -> None:
        nonlocal reference_checked
        for record in result["checks"]:
            pair = record["pair"]
            bucket = per_pair.setdefault(
                pair,
                {
                    "instances": 0,
                    "failures": 0,
                    "max_objective_gap": 0.0,
                    "tolerance": TOLERANCES.get(pair),
                },
            )
            bucket["instances"] += 1
            gap = record.get("objective_gap")
            if gap is None:
                gap = max(
                    record.get("brute_force_gap", 0.0),
                    record.get("slsqp_cross_gap", 0.0),
                )
            bucket["max_objective_gap"] = max(
                bucket["max_objective_gap"], float(gap)
            )
            if pair == "reference":
                reference_checked += 1
            if not record["passed"]:
                bucket["failures"] += 1
                failures.append(
                    {"instance": index, "degenerate": degenerate, **record}
                )
                METRICS.increment("verify.differential.failures")
        METRICS.increment("verify.differential.instances")

    for index in range(instances):
        problem = random_problem(rng, max_links=max_links)
        _absorb(
            index, False, differential_check(
                problem, include_reference=include_reference
            )
        )
    for index in range(degenerate_instances):
        problem = random_problem(rng, max_links=max_links, degenerate=True)
        _absorb(
            instances + index, True,
            differential_check(problem, include_reference=False),
        )

    return {
        "seed": seed,
        "instances": instances + degenerate_instances,
        "degenerate_instances": degenerate_instances,
        "reference_instances": reference_checked,
        "pairs": per_pair,
        "failures": failures,
        "passed": not failures,
    }
