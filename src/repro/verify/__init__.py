"""Differential-correctness subsystem (``netsampling verify``).

Three layers certify that every optimized path in :mod:`repro.core`
agrees with a slow, obviously-correct reference:

:mod:`repro.verify.reference`
    Naive pure-loop kernels (ρ, the spliced utility, objective,
    gradient, KKT residuals), a brute-force active-set enumeration
    solver that is provably optimal on small instances, and an
    independent SLSQP cross-solve.
:mod:`repro.verify.differential`
    Randomized instances solved through every backend pair —
    dense/CSR, presolved/full, stacked/scalar, supervised/direct,
    projection-arc/paper start — plus the reference cross-check, with
    certified tolerances.
:mod:`repro.verify.golden`
    Versioned golden JSON artifacts for GEANT/NSFNET solves with
    tolerance-tracked comparison and ``--update-golden`` regeneration.

See ``docs/verification.md`` for the tolerance policy and workflow.
"""

from .differential import (
    TOLERANCES,
    check_arc_start,
    check_backends,
    check_presolve,
    check_reconfig,
    check_reference,
    check_stacked,
    check_stream,
    check_supervised,
    differential_check,
    random_problem,
    run_differential_suite,
)
from .golden import (
    GOLDEN_DIR,
    GOLDEN_TOLERANCES,
    build_golden_case,
    compare_golden,
    golden_case_names,
    run_golden_suite,
    solve_golden_case,
    stream_case_names,
    update_golden,
)
from .reference import (
    BruteForceResult,
    CrossSolveResult,
    brute_force_solve,
    reference_candidate_gradient,
    reference_candidate_objective,
    reference_exact_rho,
    reference_kkt_residuals,
    reference_linear_rho,
    reference_objective,
    reference_utility_derivative,
    reference_utility_second_derivative,
    reference_utility_value,
    slsqp_cross_solve,
)
from .suite import SUITES, VerificationReport, run_verification

__all__ = [
    "TOLERANCES",
    "GOLDEN_DIR",
    "GOLDEN_TOLERANCES",
    "SUITES",
    "VerificationReport",
    "run_verification",
    "random_problem",
    "differential_check",
    "run_differential_suite",
    "check_backends",
    "check_arc_start",
    "check_presolve",
    "check_stacked",
    "check_stream",
    "check_reconfig",
    "check_supervised",
    "check_reference",
    "golden_case_names",
    "stream_case_names",
    "build_golden_case",
    "solve_golden_case",
    "compare_golden",
    "update_golden",
    "run_golden_suite",
    "BruteForceResult",
    "brute_force_solve",
    "CrossSolveResult",
    "slsqp_cross_solve",
    "reference_linear_rho",
    "reference_exact_rho",
    "reference_utility_value",
    "reference_utility_derivative",
    "reference_utility_second_derivative",
    "reference_objective",
    "reference_candidate_objective",
    "reference_candidate_gradient",
    "reference_kkt_residuals",
]
