"""Exact and numerical verification toolkit for the two-oscillator model of
the damped harmonic oscillator: pseudo-bosonic operator algebra over
Q(sqrt2, i), vacuum existence analysis, truncated Fock-space experiments,
divergent-series certification, and the classical Hamiltonian layer."""

from .classical import (
    BatemanParams,
    EomResiduals,
    HamiltonianConsistency,
    IntegrationError,
    PhaseState,
    Trajectory,
    eom_residual,
    hamiltonian_consistency,
    hamiltonian_mixed,
    hamiltonian_rotated,
    integrate_eom,
    rotate,
    trajectory_csv,
)
from .field import Coeff, I_UNIT, INV_SQRT2, ONE, SQRT2, ZERO, rational_sqrt
from .fock import (
    FockOp,
    NullExperimentReport,
    SqueezeReport,
    build_fock,
    commutator_residual,
    hamiltonian_equiv_residual,
    interior_indices,
    joint_null_experiment,
    squeeze_factored_action,
    squeeze_truncated_norms,
)
from .operators import (
    LinDiffOp,
    PolyGauss,
    commutator,
    hamiltonian_build,
    make_ladder,
    make_pseudo,
    op_adjoint,
    op_apply,
    op_compose,
)
from .radicals import SqrtRational, factorial_sqrt, squarefree_decompose
from .series import (
    GrowthReport,
    RaabeReport,
    SeriesTerms,
    partial_sum_growth,
    raabe_test,
    squeeze_norm_series,
    term_norm2,
)
from .vacuum import (
    AnsatzReport,
    DeltaDist,
    DistributionalCheckReport,
    MultiplierCert,
    QuadratureError,
    delta_pair,
    distributional_vacuum_check,
    gaussian_ansatz_solve,
    multiplier_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "BatemanParams",
    "Coeff",
    "DeltaDist",
    "FockOp",
    "LinDiffOp",
    "PhaseState",
    "PolyGauss",
    "SqrtRational",
    "SeriesTerms",
    "Trajectory",
    "build_fock",
    "commutator",
    "commutator_residual",
    "delta_pair",
    "distributional_vacuum_check",
    "eom_residual",
    "gaussian_ansatz_solve",
    "hamiltonian_build",
    "hamiltonian_consistency",
    "hamiltonian_equiv_residual",
    "integrate_eom",
    "joint_null_experiment",
    "make_ladder",
    "make_pseudo",
    "multiplier_reduction",
    "op_adjoint",
    "op_apply",
    "op_compose",
    "partial_sum_growth",
    "raabe_test",
    "squeeze_factored_action",
    "squeeze_norm_series",
    "squeeze_truncated_norms",
    "term_norm2",
]
