"""Exact and numerical verification toolkit for the two-oscillator model of
the damped harmonic oscillator: pseudo-bosonic operator algebra over
Q(sqrt2, i), vacuum existence analysis, truncated Fock-space experiments,
divergent-series certification, and the classical Hamiltonian layer.
The squeeze example's Fock amplitudes (``fock``) and its divergent series
(``series``) are derived apart and meet only in the CLI's
``squeeze-factored-amplitudes`` check.

The names below are imported from their submodule on first use (PEP 562), so
the exact layer (``field``, ``radicals``, ``operators``, ``vacuum``,
``series``) loads without the numpy-based ``fock`` layer.  That layer takes
numpy from ``_lazy_import``: it is loaded on its first numeric call, not at
import.  ``classical`` runs in plain floats, so ``import bateman.cli`` loads
every layer and ``bateman counterexample``, ``bateman vacuum`` (whose null
sweep runs in plain floats), ``bateman classical``, ``bateman --help`` and a
configuration error never run numpy's code."""

import importlib.util
import sys
from importlib import import_module

__version__ = "0.1.0"


def _lazy_import(name: str):
    """The module ``name``, executed on its first attribute access (the stdlib
    ``LazyLoader`` recipe); the loaded module itself if it is already loaded."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "classical": (
            "BatemanParams", "EomResiduals", "HamiltonianConsistency", "IntegrationError",
            "PhaseState", "Trajectory", "eom_residual", "hamiltonian_consistency",
            "hamiltonian_mixed", "integrate_eom", "trajectory_csv",
        ),
        "field": ("Coeff", "I_UNIT", "INV_SQRT2", "ONE", "SQRT2", "ZERO", "rational_sqrt"),
        "fock": (
            "FockOp", "NullExperimentReport", "SqueezeReport", "build_fock",
            "commutator_residual", "hamiltonian_equiv_residual", "interior_indices",
            "joint_null_experiment", "squeeze_factored_action", "squeeze_truncated_norms",
        ),
        "operators": (
            "LinDiffOp", "PolyGauss", "commutator", "hamiltonian_build", "make_ladder",
            "make_pseudo", "op_adjoint", "op_apply", "op_compose",
        ),
        "series": (
            "GrowthReport", "RaabeReport", "partial_sum_growth", "raabe_test",
            "squeeze_partial_sums", "squeeze_terms", "term_norm2",
        ),
        "vacuum": (
            "AnsatzReport", "DeltaDist", "DistributionalCheckReport", "MultiplierCert",
            "QuadratureError", "delta_pair", "distributional_vacuum_check",
            "gaussian_ansatz_solve", "multiplier_reduction",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


__all__ = [
    "BatemanParams",
    "Coeff",
    "DeltaDist",
    "FockOp",
    "LinDiffOp",
    "PhaseState",
    "PolyGauss",
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
    "squeeze_truncated_norms",
    "term_norm2",
]
