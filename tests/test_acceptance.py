"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints a `[acceptance] <criterion>: PASS|FAIL` line through the
conftest hook; run with `pytest tests/test_acceptance.py -v -s` to see them
inline.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from bateman.classical import (
    BatemanParams,
    PhaseState,
    eom_residual,
    forms_agree,
    hamiltonian_consistency,
    integrate_eom,
)
from bateman.cli import DRIFT_ORDER_STEPS
from bateman.cli import main as cli_main
from bateman.field import Coeff, SQRT2
from bateman.fock import (
    build_fock,
    commutator_residual,
    hamiltonian_equiv_residual,
    joint_null_experiment,
    squeeze_factored_action,
    squeeze_truncated_norms,
)
from bateman.operators import (
    LinDiffOp,
    PolyGauss,
    commutator,
    hamiltonian_build,
    make_ladder,
    make_pseudo,
    op_adjoint,
    op_apply,
)
from bateman.series import (
    partial_sum_growth,
    raabe_test,
    squeeze_partial_sums,
    squeeze_terms,
    term_norm2,
)
from bateman.vacuum import (
    DeltaDist,
    distributional_vacuum_check,
    gaussian_ansatz_solve,
    multiplier_reduction,
)

PAIR_NAMES = ("A1", "A2", "B1", "B2")


def criterion(label):
    def mark(fn):
        fn._criterion = label
        return fn

    return mark


@criterion("1 counterexample action on the proposed vacuum")
def test_criterion_1_counterexample():
    start = time.monotonic()
    vac = PolyGauss.standard_vacuum(2)
    out1 = op_apply(make_pseudo("abar1minus"), vac)
    assert out1 == PolyGauss(2, {(0, 1): -1}, [[1, 0], [0, 1]])  # exactly -x2 * vac
    assert not out1.is_zero()
    out2 = op_apply(make_pseudo("abar2minus"), vac)
    assert not out2.is_zero()
    assert time.monotonic() - start < 1.0


@criterion("2 no function vacuum: ansatz inconsistency and multiplier certificates")
def test_criterion_2_proposition_certificates():
    start = time.monotonic()
    lowering = [make_pseudo("A1"), make_pseudo("A2")]
    raising_adj = [op_adjoint(make_pseudo("B1")), op_adjoint(make_pseudo("B2"))]

    rep_low = gaussian_ansatz_solve(lowering)
    assert not rep_low.solvable and rep_low.inconsistency
    rep_raise = gaussian_ansatz_solve(raising_adj)
    assert not rep_raise.solvable and rep_raise.inconsistency

    certs_low = multiplier_reduction(lowering)
    assert len(certs_low) == 1
    assert certs_low[0].poly_dict() == {(1, 0): Coeff(1), (0, 1): Coeff(-1)}
    certs_raise = multiplier_reduction(raising_adj)
    assert len(certs_raise) == 1
    assert certs_raise[0].poly_dict() == {(1, 0): Coeff(1), (0, 1): Coeff(1)}

    # re-verify by recomposition through the operator algebra
    for certs, ops in ((certs_low, lowering), (certs_raise, raising_adj)):
        total = LinDiffOp.zero(2)
        for lam, op in zip(certs[0].combo, ops):
            total = total + op.scale(lam)
        assert total == LinDiffOp.multiplication(certs[0].poly_dict(), 2)
    assert time.monotonic() - start < 1.0


@criterion("3 sixteen pseudo-boson commutators, symbolic and truncated")
def test_criterion_3_commutator_table():
    ops = {name: make_pseudo(name) for name in PAIR_NAMES}
    for ln in PAIR_NAMES:
        for rn in PAIR_NAMES:
            expected = 0
            if ln[0] != rn[0] and ln[1] == rn[1]:
                expected = 1 if ln[0] == "A" else -1
            assert commutator(ops[ln], ops[rn]).as_scalar() == Coeff(expected), (ln, rn)
    cutoff = 12
    for ln in PAIR_NAMES:
        for rn in PAIR_NAMES:
            expected = 0
            if ln[0] != rn[0] and ln[1] == rn[1]:
                expected = 1 if ln[0] == "A" else -1
            res = commutator_residual(
                build_fock(ln, cutoff), build_fock(rn, cutoff), expected
            )
            assert res < 1e-10, (ln, rn, res)


@criterion("4 Hamiltonian assemblies agree, symbolic and truncated")
def test_criterion_4_hamiltonian_equivalence():
    rng = random.Random(42)
    for _ in range(5):
        params = BatemanParams.from_omega(
            Fraction(rng.randint(1, 9), rng.randint(1, 6)),
            Fraction(rng.randint(0, 9), rng.randint(1, 6)),
            Fraction(rng.randint(1, 9), rng.randint(1, 6)),
        )
        diff = hamiltonian_build(params, "bosonic") - hamiltonian_build(params, "pseudo")
        assert diff.is_zero()
    res = hamiltonian_equiv_residual(BatemanParams.from_omega(1, Fraction(1, 5), 1), 16)
    assert res < 1e-10


@criterion("5 squared-norm series: exact ratios, divergence verdict, growth")
def test_criterion_5_series():
    start = time.monotonic()
    report = raabe_test(squeeze_terms(0, 1001))
    for k in range(1, 1001):
        assert report.ratio(k) == Coeff(Fraction(k, 2 * k + 1))
    assert report.verdict == "divergent"
    assert term_norm2(0) == SQRT2
    assert term_norm2(1) == Coeff(0, Fraction(1, 2))
    assert term_norm2(2) == Coeff(0, Fraction(3, 8))
    checkpoints = [10**3, 10**4, 10**5]
    growth = partial_sum_growth(checkpoints, squeeze_partial_sums(checkpoints))
    # exactly sqrt2 (2K+1) / (2 sqrt K) <= S_K <= sqrt2 (2K+1) / sqrt(3K+1)
    assert growth.bounds_hold
    assert growth.partial_sums[1] > Coeff(100)  # exact comparison
    assert time.monotonic() - start < 30.0


@criterion("6 factored squeeze amplitudes match the closed form exactly")
def test_criterion_6_factored_action():
    # the signed squares of c_k = (-1)^k sqrt((2k)!)/(2^k k!), exactly
    signed_squares = squeeze_factored_action(50)
    assert len(signed_squares) == 51
    for k, q in enumerate(signed_squares):
        assert q == Fraction((-1) ** k * math.factorial(2 * k), 4**k * math.factorial(k) ** 2)


@criterion("7 truncated squeeze norms grow; unitary control stays at one")
def test_criterion_7_truncated_norms():
    report = squeeze_truncated_norms(7 * math.pi / 8, [16, 32, 64, 128])
    logs = report.log_norms()
    assert all(x < y for x, y in zip(logs, logs[1:]))
    control = squeeze_truncated_norms(0.1, [16, 32], generator="antihermitian")
    assert all(abs(n - 1.0) < 1e-8 for n in control.norms())


@criterion("8 hyperplane delta pairings: weak annihilation and negative control")
def test_criterion_8_delta_pairings():
    dist = DeltaDist([1], 0, PolyGauss(0, {(): 1}))
    tests = [PolyGauss(1, {(k,): Fraction(1, k + 1)}, [[1]]) for k in range(10)]
    report = distributional_vacuum_check([LinDiffOp.position(0, 1)], dist, tests, tol=1e-10)
    assert report.passes

    neg = DeltaDist([1, 0], 0, PolyGauss.standard_vacuum(1))
    g = PolyGauss.standard_vacuum(2)
    control = distributional_vacuum_check(
        [make_ladder(0, "lower", 2)], neg, [g.mul_x(0)], tol=1e-10
    )
    assert not control.passes
    assert control.max_abs > 1e-3


@criterion("9 classical layer: analytic match, residuals, conservation")
def test_criterion_9_classical():
    params = BatemanParams.from_omega(1, Fraction(1, 5), 1)
    init = PhaseState.from_velocities(params, x=1.0, xdot=0.0, y=0.5, ydot=0.0)
    traj = integrate_eom(params, init, t_end=10.0, dt=1e-3)

    g, m, w = 0.2, 1.0, 1.0
    t = np.asarray(traj.times)
    analytic = np.exp(-g * t / (2 * m)) * (
        np.cos(w * t) + (g / (2 * m * w)) * np.sin(w * t)
    )
    assert np.max(np.abs(np.asarray(traj.states[0]) - analytic)) < 1e-5

    res = eom_residual(traj)
    assert max(res.damped, res.amplified) < 1e-4

    # the mixed and rotated forms are one quadratic form, exactly
    assert forms_agree(params)
    cons = hamiltonian_consistency(traj)
    assert cons.max_drift < 1e-7
    # order check where truncation sets the drift (at dt = 1e-3 it is at the
    # rounding floor): RK4's energy drift on a linear system is O(dt^5)
    coarse, fine = (
        hamiltonian_consistency(integrate_eom(params, init, 10.0, dt))
        for dt in DRIFT_ORDER_STEPS
    )
    assert abs(coarse.max_drift / fine.max_drift - 32.0) < 1.0


@criterion("10 null-vector sweep: decaying pseudo pair, stable bosonic control")
def test_criterion_10_null_sweep():
    cutoffs = [8, 12, 16, 20]
    pseudo = joint_null_experiment(cutoffs, "pseudo").sigma_mins()
    assert all(x > y for x, y in zip(pseudo, pseudo[1:]))
    bosonic = joint_null_experiment(cutoffs, "bosonic").sigma_mins()
    top = max(bosonic)
    spread = (top - min(bosonic)) / top if top > 0 else 0.0
    assert spread < 0.05


@criterion("11 CLI end-to-end: exit 0 and byte-identical reports")
def test_criterion_11_cli_end_to_end(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli_main(["all", "--out", str(out1)]) == 0
    assert cli_main(["all", "--out", str(out2)]) == 0
    names = [
        "report_all.json",
        "null_experiment_pseudo.csv",
        "null_experiment_bosonic.csv",
        "squeeze_norms.csv",
        "raabe.csv",
        "trajectory.csv",
    ]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
