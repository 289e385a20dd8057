"""The package's re-exports, each name resolving to its submodule's object,
and the semantics of its records: NamedTuples, read-only like the frozen
records they replaced, and ``Trajectory``, a read-only plain class."""

import importlib
import math
from array import array
from fractions import Fraction

import pytest

import bateman
from bateman.classical import BatemanParams, PhaseState, Trajectory, integrate_eom
from bateman.cli import build_parser, config_from_args

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
        "GrowthReport", "RaabeReport", "Step", "partial_sum_growth", "raabe_test",
        "squeeze_terms",
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
    "squeeze_truncated_norms",
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


# Every NamedTuple record, by the submodule that defines it; BatemanParams and
# Trajectory are tested on their own below.
RECORDS = {
    "classical": ("EomResiduals", "HamiltonianConsistency", "PhaseState"),
    "fock": ("FockOp", "NullExperimentReport", "NullRecord", "SqueezeNormRecord", "SqueezeReport"),
    "vacuum": ("AnsatzReport", "DistributionalCheckReport", "LinearEquation", "MultiplierCert"),
    "series": ("GrowthReport", "RaabeReport"),
    "reporting": ("RunConfig", "VerdictReport"),
    "cli": ("Check",),
}


def assert_read_only(record, names) -> None:
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("module, name", [(m, n) for m, names in RECORDS.items() for n in names])
def test_records_are_read_only(module, name):
    cls = getattr(importlib.import_module(f"bateman.{module}"), name)
    record = cls(*range(len(cls._fields)))
    assert tuple(record) == tuple(range(len(cls._fields)))
    assert_read_only(record, cls._fields)


def test_params_convert_and_validate_on_every_construction():
    params = BatemanParams(1, Fraction(1, 2), 2)
    assert params == (1, Fraction(1, 2), 2) and all(type(v) is Fraction for v in params)
    assert_read_only(params, params._fields)
    assert params._replace(k_spring=3) == BatemanParams(1, Fraction(1, 2), 3)
    with pytest.raises(ValueError, match="mass must be positive"):
        params._replace(m=0)
    with pytest.raises(ValueError, match="not underdamped"):
        BatemanParams(1, 4, 1)


def test_trajectory_is_read_only_and_caches_its_energies():
    params = BatemanParams.from_omega(1, Fraction(1, 5), 1)
    traj = integrate_eom(params, PhaseState(1.0, 0.0, 0.5, 0.0), 0.01, 1e-3)
    assert isinstance(traj.times, array) and len(traj.states) == 4 and traj.params is params
    assert traj.energies is traj.energies
    assert_read_only(traj, ("times", "states", "params", "energies"))
    direct = Trajectory(traj.times, traj.states, params)
    assert direct.energies == traj.energies and direct.energies is not traj.energies


@pytest.mark.parametrize("argv, expected", [
    (["all"], [("subcommand", "all"), ("m", "1"), ("gamma", "1/5"), ("omega", "1"),
               ("k_spring", None), ("theta", 7 * math.pi / 8), ("cutoffs", None),
               ("kmax", 1000), ("tol", 1e-10), ("format", "both")]),
    (["squeeze", "--k-spring", "2", "--cutoffs", "8,16", "--format", "json"],
     [("subcommand", "squeeze"), ("m", "1"), ("gamma", "1/5"), ("omega", None),
      ("k_spring", "2"), ("theta", 7 * math.pi / 8), ("cutoffs", [8, 16]), ("kmax", 1000),
      ("tol", 1e-10), ("format", "json")]),
])
def test_run_config_keeps_its_report_keys_in_order(argv, expected):
    # every field but ``out``, in field order, ``fmt`` written as ``format``:
    # the config block of every report
    cfg = config_from_args(build_parser().parse_args(argv))
    assert list(cfg.to_jsonable().items()) == expected
