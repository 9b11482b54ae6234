"""Exact classical simulation and register auditing for Shor order finding.

The package computes the post-Fourier measurement distribution of the
order-finding circuit in closed form, runs the continued-fraction recovery
and factor extraction exactly as a single hardware invocation would, and
audits register-width configurations against the arithmetic conditions the
recovery step needs. Everything is deterministic given a seed; no state
vectors are materialized.
"""

from .auditor import (
    COND_CFE_DISTINGUISH,
    COND_Q_GE_N2,
    COND_Q_LT_2N2,
    COND_REG2_WIDTH,
    COND_TOTAL_QUBITS,
    ApplicabilityReport,
    AuditCheck,
    AuditReport,
    RegisterConfig,
    Verdict,
    audit,
    bound_argument_applicability,
    count_fractions,
    count_indistinguishable_pairs,
)
from .numtheory import (
    ConvergentSequence,
    NotAUnitError,
    continued_fraction,
    factorize,
    recover_rational,
    signed_residue,
)
from .pipeline import (
    FailureReason,
    QChoice,
    RunTrace,
    SuccessEstimate,
    choose_q,
    estimate_success,
    run_once,
    run_trials,
    sample_measurement,
    success_bound,
)
from .spectrum import (
    BoundReport,
    FactoringInstance,
    SpectrumTable,
    build_spectrum,
    good_c_set,
    integral_term,
    joint_probability,
    verify_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "ApplicabilityReport",
    "AuditCheck",
    "AuditReport",
    "BoundReport",
    "COND_CFE_DISTINGUISH",
    "COND_Q_GE_N2",
    "COND_Q_LT_2N2",
    "COND_REG2_WIDTH",
    "COND_TOTAL_QUBITS",
    "ConvergentSequence",
    "FactoringInstance",
    "FailureReason",
    "NotAUnitError",
    "QChoice",
    "RegisterConfig",
    "RunTrace",
    "SpectrumTable",
    "SuccessEstimate",
    "Verdict",
    "audit",
    "bound_argument_applicability",
    "build_spectrum",
    "choose_q",
    "continued_fraction",
    "count_fractions",
    "count_indistinguishable_pairs",
    "estimate_success",
    "factorize",
    "good_c_set",
    "integral_term",
    "joint_probability",
    "recover_rational",
    "run_once",
    "run_trials",
    "sample_measurement",
    "signed_residue",
    "success_bound",
    "verify_bounds",
]
