"""Exact-arithmetic laboratory for irrationality measure step functions.

The package follows psi(t) = min over 1 <= q <= t of the distance from
q*x to the nearest integer, for single numbers and for tuples: exact
continued-fraction machinery, certified interval comparisons, permutation
sweeps, structural coincidence screening, and a window replay of the
distinct-ordering count bound n <= k(k+1)/2.
"""

from .bound import (BoundVerdict, NjCheck, ProofTrace, VerifiedRun,
                    build_proof_trace, check_theorem_bound, render_proof_trace,
                    verify_with_retries)
from .cf import (DEFAULT_DEPTH_CAP, CombinationKind, ContinuedFraction,
                 Convergent, ErrorTerm, Ordering, compare_errors, convergents,
                 integer_combination_check, star_value, surd_to_cf)
from .corpus import (SQUAREFREE_POOL, random_independent_members,
                     random_periodic_cf, random_surd)
from .screening import (CoincidenceLog, ReversalRecord, RigidityOutcome,
                        RigidityRecord, RigidityScan, Verdict,
                        check_reversal_pattern, check_rigidity, rigidity_scan,
                        scan_coincidences)
from .specfile import (NumberSpec, TupleSpecFile, parse_spec, serialize_spec)
from .stepfunc import (BruteForceMin, StepTrajectory, brute_force_psi_sweep,
                       build_trajectory, psi_at, serialize_trajectory)
from .surd import QuadraticSurd, sqrt_of, squarefree_decompose
from .sweep import (PermutationEvent, TrajectoryReport, TupleContext,
                    format_permutation, serialize_report, sigma_at,
                    sign_change_count, sweep, tau_at)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BoundVerdict", "BruteForceMin", "CoincidenceLog", "CombinationKind",
    "ContinuedFraction", "Convergent", "DEFAULT_DEPTH_CAP", "ErrorTerm",
    "NjCheck", "NumberSpec", "Ordering", "PermutationEvent", "ProofTrace",
    "QuadraticSurd", "ReversalRecord", "RigidityOutcome", "RigidityRecord",
    "RigidityScan", "SQUAREFREE_POOL", "StepTrajectory", "TrajectoryReport",
    "TupleContext", "TupleSpecFile", "Verdict", "VerifiedRun",
    "brute_force_psi_sweep", "build_proof_trace", "build_trajectory",
    "check_reversal_pattern", "check_rigidity", "check_theorem_bound",
    "compare_errors", "convergents", "errors", "format_permutation",
    "integer_combination_check", "parse_spec", "psi_at",
    "random_independent_members",
    "random_periodic_cf", "random_surd", "render_proof_trace",
    "rigidity_scan", "scan_coincidences", "serialize_report",
    "serialize_spec", "serialize_trajectory", "sigma_at", "sign_change_count",
    "sqrt_of", "squarefree_decompose", "star_value",
    "surd_to_cf", "sweep", "tau_at", "verify_with_retries",
]
