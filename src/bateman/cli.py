"""Command-line entry point: rerun every mechanized check and emit reports.

Subcommands mirror the verification areas: ``counterexample`` (the proposed
two-mode vacuum is not annihilated), ``vacuum`` (no Gaussian or function
vacuum for the pseudo-boson pair; the hyperplane delta works weakly),
``commutators`` (the pseudo-boson table, symbolically and at finite cutoff),
``hamiltonian`` (the bosonic and pseudo-boson assemblies agree, plus the
classical consistency checks), ``squeeze`` (exact factored amplitudes, ratio
test divergence, truncated norm growth), ``classical`` (equations of motion
and conservation), and ``all``.

Exit status: 0 when no pass/fail check fails, 1 on any failure, 2 on
configuration errors.  Reports are byte-deterministic for a fixed
configuration.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .classical import (
    BatemanParams,
    PhaseState,
    eom_residual,
    hamiltonian_consistency,
    integrate_eom,
    trajectory_csv,
    underdamped_solution,
)
from .field import Coeff
from .fock import (
    build_fock,
    commutator_residual,
    hamiltonian_equiv_residual,
    joint_null_experiment,
    null_experiment_csv,
    squeeze_csv,
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
)
from .radicals import factorial_sqrt
from .reporting import RunConfig, VerdictReport, write_report
from .series import (
    SQUEEZE_SUM_EXPONENT,
    partial_sum_growth,
    raabe_csv,
    raabe_test,
    squeeze_norm_series,
)
from .vacuum import (
    DeltaDist,
    distributional_vacuum_check,
    gaussian_ansatz_solve,
    multiplier_reduction,
)

DEFAULT_NULL_CUTOFFS = (8, 12, 16, 20)
DEFAULT_SQUEEZE_CUTOFFS = (16, 32, 64, 128)
GROWTH_CHECKPOINTS = (10**3, 10**4, 10**5)
# Steps where truncation error, not rounding, sets the energy drift: at
# 2e-2/1e-2 the finer drift is 6e-12 for the reference setup, while at
# 4e-3/2e-3 it can sit at the rounding floor (1.2e-15 at gamma = 1/10).
DRIFT_ORDER_STEPS = (2e-2, 1e-2)

Runner = Callable[[RunConfig], tuple[list[VerdictReport], dict[str, str]]]


def _params(cfg: RunConfig) -> BatemanParams:
    if cfg.k_spring is not None:
        return BatemanParams(cfg.m, cfg.gamma, cfg.k_spring)
    omega = cfg.omega if cfg.omega is not None else Fraction(1)
    return BatemanParams.from_omega(cfg.m, cfg.gamma, omega)


def _test_family_2d() -> list[PolyGauss]:
    """Ten monomial-times-Gaussian test functions on two variables."""
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
    return [PolyGauss(2, {m: 1}, [[1, 0], [0, 1]]) for m in monos]


def _test_family_1d() -> list[PolyGauss]:
    return [PolyGauss(1, {(k,): 1}, [[1]]) for k in range(10)]


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def run_counterexample(cfg: RunConfig) -> tuple[list[VerdictReport], dict[str, str]]:
    vacuum00 = PolyGauss.standard_vacuum(2)
    abar1 = make_pseudo("abar1minus")
    abar2 = make_pseudo("abar2minus")
    applied1 = op_apply(abar1, vacuum00)
    applied2 = op_apply(abar2, vacuum00)
    expected1 = PolyGauss(2, {(0, 1): -1}, [[1, 0], [0, 1]])

    verdicts = [
        VerdictReport(
            check="counterexample-mode1",
            claim="the minus-branch mode-1 lowering operator maps the proposed "
            "two-mode Gaussian vacuum to -x2 times it, not to zero",
            status="pass" if applied1 == expected1 and not applied1.is_zero() else "fail",
            payload={
                "applied": str(applied1),
                "expected": str(expected1),
                "is_zero": applied1.is_zero(),
            },
        ),
        VerdictReport(
            check="counterexample-mode2",
            claim="the minus-branch mode-2 lowering operator does not annihilate "
            "the proposed two-mode Gaussian vacuum",
            status="pass" if not applied2.is_zero() else "fail",
            payload={"applied": str(applied2), "is_zero": applied2.is_zero()},
        ),
    ]
    branches = {}
    for name in ("abar1minus", "abar2minus", "abar1plus", "abar2plus"):
        result = op_apply(make_pseudo(name), vacuum00)
        branches[name] = {"applied": str(result), "is_zero": result.is_zero()}
    verdicts.append(
        VerdictReport(
            check="counterexample-branches",
            claim="action of every sign branch of the mixed lowering operators "
            "on the proposed vacuum (no branch is singled out)",
            status="report-only",
            payload={"branches": branches},
        )
    )
    return verdicts, {}


def run_vacuum(cfg: RunConfig) -> tuple[list[VerdictReport], dict[str, str]]:
    big_a1, big_a2 = make_pseudo("A1"), make_pseudo("A2")
    b1d = op_adjoint(make_pseudo("B1"))
    b2d = op_adjoint(make_pseudo("B2"))
    a1 = make_ladder(0, "lower", 2)
    a2 = make_ladder(1, "lower", 2)

    verdicts = []

    rep_a = gaussian_ansatz_solve([big_a1, big_a2])
    verdicts.append(
        VerdictReport(
            check="ansatz-pseudo-lowering",
            claim="no Gaussian-with-linear-term ansatz is annihilated by both "
            "pseudo-boson lowering operators",
            status="pass" if not rep_a.solvable else "fail",
            payload={"inconsistent_equations": [eq.render() for eq in rep_a.inconsistency]},
        )
    )
    rep_b = gaussian_ansatz_solve([b1d, b2d])
    verdicts.append(
        VerdictReport(
            check="ansatz-pseudo-raising-adjoint",
            claim="no Gaussian-with-linear-term ansatz is annihilated by both "
            "adjoint raising operators",
            status="pass" if not rep_b.solvable else "fail",
            payload={"inconsistent_equations": [eq.render() for eq in rep_b.inconsistency]},
        )
    )
    rep_c = gaussian_ansatz_solve([a1, a2])
    standard = rep_c.solvable and rep_c.witness() == PolyGauss.standard_vacuum(2)
    verdicts.append(
        VerdictReport(
            check="ansatz-bosonic-control",
            claim="the plain bosonic pair keeps its standard Gaussian ground state",
            status="pass" if standard else "fail",
            payload={
                "witness_quad": [[str(v) for v in row] for row in (rep_c.witness_quad or ())],
                "witness_lin": [str(v) for v in (rep_c.witness_lin or ())],
            },
        )
    )

    certs_a = multiplier_reduction([big_a1, big_a2])
    expect_a = {(1, 0): Coeff(1), (0, 1): Coeff(-1)}
    ok_a = len(certs_a) == 1 and certs_a[0].poly_dict() == expect_a
    certs_b = multiplier_reduction([b1d, b2d])
    expect_b = {(1, 0): Coeff(1), (0, 1): Coeff(1)}
    ok_b = len(certs_b) == 1 and certs_b[0].poly_dict() == expect_b
    certs_control = multiplier_reduction([a1, a2])
    verdicts.append(
        VerdictReport(
            check="multiplication-certificates",
            claim="eliminating derivatives inside the operator span yields the "
            "multiplication operators x1 - x2 and x1 + x2, so any function "
            "vacuum vanishes almost everywhere; the bosonic pair yields none",
            status="pass" if ok_a and ok_b and not certs_control else "fail",
            payload={
                "pseudo_lowering": [c.render() for c in certs_a],
                "adjoint_raising": [c.render() for c in certs_b],
                "bosonic_control": [c.render() for c in certs_control],
            },
        )
    )

    # weak (distributional) vacuum checks
    one_d = DeltaDist([1], 0, PolyGauss(0, {(): 1}))
    rep_x = distributional_vacuum_check(
        [LinDiffOp.position(0, 1)], one_d, _test_family_1d(), tol=cfg.tol
    )
    verdicts.append(
        VerdictReport(
            check="delta-annihilated-by-x",
            claim="multiplication by x annihilates the point delta weakly",
            status="pass" if rep_x.passes else "fail",
            payload={"max_abs_pairing": rep_x.max_abs, "tol": rep_x.tol},
        )
    )

    ambient = PolyGauss.gaussian(
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    )
    line_delta = DeltaDist.from_ambient([1, -1], 0, ambient)
    rep_line = distributional_vacuum_check(
        [big_a1 - big_a2], line_delta, _test_family_2d(), tol=cfg.tol
    )
    verdicts.append(
        VerdictReport(
            check="delta-on-diagonal-hyperplane",
            claim="the diagonal hyperplane delta with Gaussian envelope is a "
            "weak null vector of the multiplication combination of the "
            "pseudo-boson lowering pair",
            status="pass" if rep_line.passes else "fail",
            payload={"max_abs_pairing": rep_line.max_abs, "tol": rep_line.tol},
        )
    )

    neg_delta = DeltaDist([1, 0], 0, PolyGauss.standard_vacuum(1))
    rep_neg = distributional_vacuum_check(
        [a1], neg_delta, _test_family_2d(), tol=cfg.tol
    )
    verdicts.append(
        VerdictReport(
            check="delta-negative-control",
            claim="a mismatched hyperplane delta is detected as not weakly "
            "annihilated (pairing stays far from zero)",
            status="pass" if not rep_neg.passes else "fail",
            payload={"max_abs_pairing": rep_neg.max_abs, "tol": rep_neg.tol},
        )
    )

    cutoffs = cfg.cutoffs or DEFAULT_NULL_CUTOFFS
    sweep_pseudo = joint_null_experiment(cutoffs, "pseudo")
    sweep_bosonic = joint_null_experiment(cutoffs, "bosonic")
    sp = sweep_pseudo.sigma_mins()
    sb = sweep_bosonic.sigma_mins()
    verdicts.append(
        VerdictReport(
            check="null-vector-sweep",
            claim="least singular value of the stacked pseudo-boson lowering "
            "pair keeps decaying with the cutoff (no normalizable joint "
            "null vector) while the bosonic control stays at zero",
            status="report-only",
            payload={
                "cutoffs": list(cutoffs),
                "pseudo_sigma_min": sp,
                "pseudo_tail_mass": sweep_pseudo.tail_masses(),
                "bosonic_sigma_min": sb,
                "pseudo_strictly_decreasing": all(x > y for x, y in zip(sp, sp[1:])),
                "bosonic_max_spread": (max(sb) - min(sb)) / max(sb) if max(sb) > 0 else 0.0,
            },
        )
    )
    csvs = {
        "null_experiment_pseudo.csv": null_experiment_csv(sweep_pseudo),
        "null_experiment_bosonic.csv": null_experiment_csv(sweep_bosonic),
    }
    return verdicts, csvs


_PAIR_NAMES = ("A1", "A2", "B1", "B2")


def _expected_commutator(left: str, right: str) -> int:
    kind_l, idx_l = left[0], left[1]
    kind_r, idx_r = right[0], right[1]
    if kind_l == kind_r or idx_l != idx_r:
        return 0
    return 1 if kind_l == "A" else -1


def run_commutators(cfg: RunConfig) -> tuple[list[VerdictReport], dict[str, str]]:
    ops = {name: make_pseudo(name) for name in _PAIR_NAMES}
    table = {}
    all_ok = True
    for left in _PAIR_NAMES:
        for right in _PAIR_NAMES:
            expected = _expected_commutator(left, right)
            actual = commutator(ops[left], ops[right]).as_scalar()
            ok = actual is not None and actual == Coeff(expected)
            all_ok = all_ok and ok
            table[f"[{left},{right}]"] = {
                "expected": expected,
                "actual": "non-scalar" if actual is None else str(actual),
                "ok": ok,
            }
    verdicts = [
        VerdictReport(
            check="pseudo-commutator-table",
            claim="all sixteen commutators of the pseudo-boson pairs match the "
            "delta table exactly in canonical form",
            status="pass" if all_ok else "fail",
            payload={"table": table},
        )
    ]

    ladders = {
        "a1": make_ladder(0, "lower", 2),
        "a2": make_ladder(1, "lower", 2),
        "adag1": make_ladder(0, "raise", 2),
        "adag2": make_ladder(1, "raise", 2),
    }
    bos_ok = (
        commutator(ladders["a1"], ladders["adag1"]).as_scalar() == Coeff(1)
        and commutator(ladders["a2"], ladders["adag2"]).as_scalar() == Coeff(1)
        and commutator(ladders["a1"], ladders["adag2"]).as_scalar() == Coeff(0)
        and commutator(ladders["a1"], ladders["a2"]).as_scalar() == Coeff(0)
        and commutator(ladders["adag1"], ladders["adag2"]).as_scalar() == Coeff(0)
    )
    verdicts.append(
        VerdictReport(
            check="bosonic-commutator-table",
            claim="the underlying two-mode ladder operators satisfy the "
            "canonical commutation table exactly",
            status="pass" if bos_ok else "fail",
            payload={},
        )
    )

    cutoff, bound = 12, 10
    residuals = {}
    worst = 0.0
    for left in _PAIR_NAMES:
        for right in _PAIR_NAMES:
            expected = _expected_commutator(left, right)
            res = commutator_residual(
                build_fock(left, cutoff), build_fock(right, cutoff), expected, bound
            )
            residuals[f"[{left},{right}]"] = res
            worst = max(worst, res)
    verdicts.append(
        VerdictReport(
            check="pseudo-commutator-fock-residuals",
            claim="the same sixteen commutators hold on the interior of the "
            "truncated Fock space below tolerance",
            status="pass" if worst < cfg.tol else "fail",
            payload={
                "cutoff": cutoff,
                "interior_bound": bound,
                "max_residual": worst,
                "residuals": residuals,
                "tol": cfg.tol,
            },
        )
    )
    return verdicts, {}


def run_hamiltonian(cfg: RunConfig) -> tuple[list[VerdictReport], dict[str, str]]:
    rng = random.Random(20240801)
    trials = []
    all_equal = True
    configured = _params(cfg)
    trial_params = [
        BatemanParams.from_omega(
            Fraction(rng.randint(1, 6), rng.randint(1, 4)),
            Fraction(rng.randint(0, 8), rng.randint(1, 5)),
            Fraction(rng.randint(1, 7), rng.randint(1, 4)),
        )
        for _ in range(5)
    ]
    if configured.rational_omega is not None:
        trial_params.append(configured)
    for params in trial_params:
        equal = hamiltonian_build(params, "bosonic") == hamiltonian_build(params, "pseudo")
        all_equal = all_equal and equal
        trials.append(
            {
                "m": str(params.m),
                "gamma": str(params.gamma),
                "omega": str(params.rational_omega),
                "equal": equal,
            }
        )
    verdicts = [
        VerdictReport(
            check="hamiltonian-forms-symbolic",
            claim="the bosonic and pseudo-boson Hamiltonian assemblies "
            "normal-order to the identical operator for randomized "
            "rational parameters",
            status="pass" if all_equal else "fail",
            payload={"trials": trials},
        )
    ]

    cutoff, bound = 16, 14
    res = hamiltonian_equiv_residual(configured, cutoff, bound)
    verdicts.append(
        VerdictReport(
            check="hamiltonian-forms-fock",
            claim="the two assemblies agree on the interior of the truncated "
            "Fock space below tolerance",
            status="pass" if res < cfg.tol else "fail",
            payload={"cutoff": cutoff, "interior_bound": bound, "residual": res, "tol": cfg.tol},
        )
    )

    init = PhaseState.from_velocities(configured, x=1.0, xdot=0.0, y=0.5, ydot=0.0)
    traj = integrate_eom(configured, init, t_end=10.0, dt=1e-3)
    cons = hamiltonian_consistency(traj, configured)
    verdicts.append(
        VerdictReport(
            check="hamiltonian-forms-classical",
            claim="along an integrated trajectory the mixed-coordinate and "
            "rotated-coordinate energies agree pointwise and the energy "
            "is conserved",
            status="pass" if cons.max_form_gap < 1e-10 and cons.max_drift < 1e-7 else "fail",
            payload={
                "max_form_gap": cons.max_form_gap,
                "max_drift": cons.max_drift,
                "initial_energy": cons.initial_energy,
            },
        )
    )
    return verdicts, {}


def run_squeeze(cfg: RunConfig) -> tuple[list[VerdictReport], dict[str, str]]:
    kmax_coeffs = min(cfg.kmax, 50)
    amplitudes = squeeze_factored_action(max(kmax_coeffs, 1))
    closed_ok = True
    for k, amp in enumerate(amplitudes):
        closed = factorial_sqrt(2 * k) * Fraction((-1) ** k, 2**k * math.factorial(k))
        if amp != closed:
            closed_ok = False
            break
    verdicts = [
        VerdictReport(
            check="squeeze-factored-amplitudes",
            claim="iterating the squared raising operator on the ground state "
            "reproduces the closed-form amplitudes (-1/2)^k sqrt((2k)!)/k! "
            "exactly, as radical pairs",
            status="pass" if closed_ok else "fail",
            payload={
                "kmax": max(kmax_coeffs, 1),
                "first_amplitudes": [str(a) for a in amplitudes[:6]],
            },
        )
    ]

    series = squeeze_norm_series()
    raabe = raabe_test(series, cfg.kmax)
    verdicts.append(
        VerdictReport(
            check="squeeze-series-ratio-test",
            claim="the ratio test certifies divergence of the squared-norm "
            "series of the factored squeeze action",
            status="pass" if raabe.verdict == "divergent" else "fail",
            payload={
                "verdict": raabe.verdict,
                "kmax": raabe.kmax,
                "tail_monotone": raabe.tail_monotone,
                "limit_bracket": [str(raabe.limit_low), str(raabe.limit_high)],
                "limit_bracket_float": [float(raabe.limit_low), float(raabe.limit_high)],
                "rho_1": str(raabe.ratio(1)),
                "rho_kmax": str(raabe.ratio(raabe.kmax)),
            },
        )
    )

    growth = partial_sum_growth(series, list(GROWTH_CHECKPOINTS))
    exceeds = growth.partial_sums[1] > Coeff(100)
    p = growth.fitted_exponent
    verdicts.append(
        VerdictReport(
            check="squeeze-series-partial-sums",
            claim="exact partial sums of the squared-norm series grow like a "
            "positive power of the truncation point and exceed 100 within "
            "the computed range",
            status="pass" if 0.45 <= p <= 0.55 and exceeds else "fail",
            payload={
                "checkpoints": list(growth.checkpoints),
                "partial_sums": list(growth.partial_sum_floats),
                "fitted_exponent": p,
                "analytic_exponent": SQUEEZE_SUM_EXPONENT,
                "exceeds_100_at_104_exact": bool(exceeds),
            },
        )
    )

    cutoffs = cfg.cutoffs or DEFAULT_SQUEEZE_CUTOFFS
    norms = squeeze_truncated_norms(cfg.theta, cutoffs)
    ln = norms.log_norms()
    gaps = [list(r.coeff_gaps) for r in norms.records]
    payload = {
        "theta": cfg.theta,
        "cutoffs": list(cutoffs),
        "norms": norms.norms(),
        "log_norms": ln,
        "strictly_increasing": all(x < y for x, y in zip(ln, ln[1:])),
        "amplitude_gaps_vs_factored": gaps,
    }
    if None in payload["norms"] or any(None in g for g in gaps):
        payload["null_reason"] = (
            "a null norm or amplitude gap exceeds the float range, or its "
            "amplitude fell below the float range at the cutoff's common scale; "
            "log_norms holds the scale of every norm"
        )
    verdicts.append(
        VerdictReport(
            check="squeeze-truncated-norms",
            claim="norms of the truncated exponential applied to the ground "
            "state, per cutoff (they keep growing; the image of the "
            "untruncated operator is not square integrable)",
            status="report-only",
            payload=payload,
        )
    )

    control = squeeze_truncated_norms(0.1, (16, 32), generator="antihermitian")
    verdicts.append(
        VerdictReport(
            check="squeeze-unitary-control",
            claim="the antihermitian-generator control keeps norm one at every "
            "cutoff (a true unitary squeeze)",
            status="report-only",
            payload={
                "cutoffs": [16, 32],
                "max_norm_deviation": max(abs(n - 1.0) for n in control.norms()),
            },
        )
    )

    csvs = {
        "squeeze_norms.csv": squeeze_csv(norms),
        "raabe.csv": raabe_csv(raabe),
    }
    return verdicts, csvs


def run_classical(cfg: RunConfig) -> tuple[list[VerdictReport], dict[str, str]]:
    params = _params(cfg)
    init = PhaseState.from_velocities(params, x=1.0, xdot=0.0, y=0.5, ydot=0.0)
    traj = integrate_eom(params, init, t_end=10.0, dt=1e-3)

    residuals = eom_residual(traj, params)
    verdicts = [
        VerdictReport(
            check="classical-eom-residuals",
            claim="the integrated trajectory satisfies the damped and amplified "
            "second-order equations within finite-difference tolerance",
            status="pass" if max(residuals.damped, residuals.amplified) < 1e-4 else "fail",
            payload={
                "damped_residual": residuals.damped,
                "amplified_residual": residuals.amplified,
                "tol": 1e-4,
            },
        )
    ]

    cons = hamiltonian_consistency(traj, params)
    verdicts.append(
        VerdictReport(
            check="classical-energy-forms",
            claim="the mixed and rotated energy expressions agree pointwise "
            "under the coordinate rotation",
            status="pass" if cons.max_form_gap < 1e-10 else "fail",
            payload={"max_form_gap": cons.max_form_gap, "tol": 1e-10},
        )
    )
    verdicts.append(
        VerdictReport(
            check="classical-energy-drift",
            claim="the energy is conserved along the trajectory",
            status="pass" if cons.max_drift < 1e-7 else "fail",
            payload={"max_drift": cons.max_drift, "tol": 1e-7},
        )
    )

    drifts = [
        hamiltonian_consistency(integrate_eom(params, init, t_end=10.0, dt=dt), params).max_drift
        for dt in DRIFT_ORDER_STEPS
    ]
    verdicts.append(
        VerdictReport(
            check="classical-drift-order",
            claim="halving the step divides the energy drift by about 2^5 = 32 "
            "(RK4 changes the energy of a linear system by O(dt^6) per step, "
            "so by O(dt^5) over a fixed time)",
            status="report-only",
            payload={
                "dt": list(DRIFT_ORDER_STEPS),
                "drift": drifts,
                "ratio": drifts[0] / drifts[1] if drifts[1] > 0 else None,
            },
        )
    )

    x_exact, y_exact = underdamped_solution(params, init, traj.times)
    verdicts.append(
        VerdictReport(
            check="classical-envelopes",
            claim="the damped coordinate and its amplified partner follow the "
            "closed-form underdamped solutions e^(-+gamma t/2m) (A cos wt + "
            "B sin wt) pointwise",
            status="report-only",
            payload={
                "gamma_over_2m": float(params.gamma) / (2.0 * float(params.m)),
                "omega": params.omega,
                "t_end": float(traj.times[-1]),
                "max_error_x": float(np.max(np.abs(traj.states[:, 0] - x_exact))),
                "max_error_y": float(np.max(np.abs(traj.states[:, 1] - y_exact))),
            },
        )
    )
    return verdicts, {"trajectory.csv": trajectory_csv(traj)}


RUNNERS: dict[str, Runner] = {
    "counterexample": run_counterexample,
    "vacuum": run_vacuum,
    "commutators": run_commutators,
    "hamiltonian": run_hamiltonian,
    "squeeze": run_squeeze,
    "classical": run_classical,
}


def run(cfg: RunConfig) -> int:
    """Execute the configured subcommand, write reports, return the exit code."""
    if cfg.subcommand == "all":
        names = list(RUNNERS)
    else:
        names = [cfg.subcommand]
    verdicts: list[VerdictReport] = []
    csvs: dict[str, str] = {}
    for name in names:
        v, c = RUNNERS[name](cfg)
        verdicts.extend(v)
        csvs.update(c)

    cfg.out.mkdir(parents=True, exist_ok=True)
    if cfg.fmt in ("json", "both"):
        write_report(cfg.out / f"report_{cfg.subcommand}.json", cfg, verdicts)
    if cfg.fmt in ("csv", "both"):
        for fname, text in csvs.items():
            (cfg.out / fname).write_text(text)

    failures = [v for v in verdicts if v.status == "fail"]
    for v in verdicts:
        print(f"{v.status.upper():11s} {v.check}")
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("value must be finite")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _cutoff_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc
    if not values or any(b <= a for a, b in zip(values, values[1:])) or values[0] < 8:
        raise argparse.ArgumentTypeError("cutoffs must be strictly increasing and at least 8")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bateman",
        description="Rerun the mechanized damped-oscillator checks and emit reports.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("counterexample", "the proposed two-mode Gaussian vacuum is not a vacuum"),
        ("vacuum", "no Gaussian or function vacuum; weak delta vacuum checks"),
        ("commutators", "pseudo-boson commutator table, symbolic and truncated"),
        ("hamiltonian", "equivalence of the two Hamiltonian assemblies"),
        ("squeeze", "factored amplitudes, ratio test, truncated norms"),
        ("classical", "equations of motion, rotation, conservation"),
        ("all", "every check"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--m", type=_fraction, default=Fraction(1), help="mass (exact rational)")
        p.add_argument(
            "--gamma", type=_fraction, default=Fraction(1, 5), help="friction (exact rational)"
        )
        p.add_argument(
            "--k-spring",
            type=_fraction,
            default=None,
            help="spring constant (exact rational); overrides --omega for the classical layer",
        )
        p.add_argument(
            "--omega",
            type=_fraction,
            default=None,
            help="rotated-mode frequency (exact rational, default 1 unless --k-spring is given)",
        )
        p.add_argument(
            "--theta",
            type=_finite_float,
            default=7 * math.pi / 8,
            help="squeeze exponent parameter (default 7*pi/8)",
        )
        p.add_argument(
            "--cutoffs",
            type=_cutoff_list,
            default=None,
            help="comma-separated increasing cutoffs for the sweeps",
        )
        p.add_argument(
            "--kmax", type=_positive_int, default=1000, help="ratio-test depth (positive)"
        )
        p.add_argument("--tol", type=_positive_float, default=1e-10, help="residual tolerance")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("json", "csv", "both"),
            default="both",
            help="report format(s) to write",
        )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.k_spring is not None:
        probe = BatemanParams(args.m, args.gamma, args.k_spring)
        if args.omega is not None and probe.rational_omega != args.omega:
            raise ValueError(
                "--k-spring and --omega disagree; drop one or make them consistent"
            )
    omega = args.omega
    if omega is None and args.k_spring is None:
        omega = Fraction(1)
    if args.kmax < 10:
        raise ValueError("--kmax below 10 cannot support the ratio-test protocol")
    return RunConfig(
        subcommand=args.subcommand,
        m=args.m,
        gamma=args.gamma,
        omega=omega,
        k_spring=args.k_spring,
        theta=args.theta,
        cutoffs=args.cutoffs,
        kmax=args.kmax,
        tol=args.tol,
        out=args.out,
        fmt=args.fmt,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
