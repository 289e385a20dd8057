"""The package's re-exports: each name resolves to its submodule's object."""

import importlib

import pytest

import bateman

# Every name the package re-exports, by the submodule that defines it.
REEXPORTS = {
    "classical": (
        "BatemanParams", "EomResiduals", "HamiltonianConsistency", "IntegrationError",
        "PhaseState", "Trajectory", "eom_residual", "hamiltonian_consistency",
        "hamiltonian_mixed", "integrate_eom", "trajectory_csv",
    ),
    "field": ("Coeff", "I_UNIT", "INV_SQRT2", "ONE", "SQRT2", "ZERO", "rational_sqrt"),
    "fock": (
        "FockOp", "NullExperimentReport", "SqueezeReport", "build_fock", "commutator_residual",
        "hamiltonian_equiv_residual", "interior_indices", "joint_null_experiment",
        "squeeze_factored_action", "squeeze_truncated_norms",
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
}
ALL = [
    "BatemanParams", "Coeff", "DeltaDist", "FockOp", "LinDiffOp", "PhaseState", "PolyGauss",
    "Trajectory", "build_fock", "commutator",
    "commutator_residual", "delta_pair", "distributional_vacuum_check", "eom_residual",
    "gaussian_ansatz_solve", "hamiltonian_build", "hamiltonian_consistency",
    "hamiltonian_equiv_residual", "integrate_eom", "joint_null_experiment", "make_ladder",
    "make_pseudo", "multiplier_reduction", "op_adjoint", "op_apply", "op_compose",
    "partial_sum_growth", "raabe_test", "squeeze_factored_action",
    "squeeze_truncated_norms", "term_norm2",
]


@pytest.mark.parametrize("module", sorted(REEXPORTS))
def test_reexports_are_the_submodule_objects(module):
    source = importlib.import_module(f"bateman.{module}")
    for name in REEXPORTS[module]:
        assert getattr(bateman, name) is getattr(source, name), name
    namespace = {}
    exec(f"from bateman import {', '.join(REEXPORTS[module])}", namespace)
    assert all(namespace[name] is getattr(source, name) for name in REEXPORTS[module])


def test_all_and_dir():
    assert bateman.__all__ == ALL
    assert set(ALL) <= {name for names in REEXPORTS.values() for name in names}
    listed = dir(bateman)
    assert set(bateman._EXPORTS) <= set(listed)
    assert all(name in listed for names in REEXPORTS.values() for name in names)
    assert bateman.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bateman.no_such_name
    with pytest.raises(ImportError):
        exec("from bateman import no_such_name", {})
    assert not hasattr(bateman, "numpy")
    for name in ("SqrtRational", "squarefree_decompose", "factorial_sqrt"):
        assert not hasattr(bateman, name), name
