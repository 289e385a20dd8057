"""Command-line entry point: rerun every mechanized check and emit reports.

Subcommands mirror the verification areas: ``counterexample`` (the proposed
two-mode vacuum is not annihilated), ``vacuum`` (no Gaussian or function
vacuum for the pseudo-boson pair; the hyperplane delta works weakly),
``commutators`` (the pseudo-boson table, symbolically and at finite cutoff),
``hamiltonian`` (the bosonic and pseudo-boson assemblies agree, plus the
classical consistency checks), ``squeeze`` (exact factored amplitudes, ratio
test divergence, truncated norm growth), ``classical`` (equations of motion
and conservation), and ``all``.

Each check is one function, registered with ``@check`` under its area, id
and claim, in report order.  It reads the run's shared inputs from an
``Artifacts`` object, which computes each of them once, on first use, and
returns ``(ok, payload)``: ``ok`` is a bool for a pass/fail check and None
for a report-only entry.  Each registration is a ``Check``, a NamedTuple
like every record of the package: a process start defines the records
without generating and compiling methods for each, and without importing
``inspect``.

Exit status: 0 when no pass/fail check fails, 1 on any failure or on an
error raised inside a check, 2 on configuration errors.  Reports are
byte-deterministic for a fixed configuration.  No subcommand runs numpy's
code: every check computes in plain Python floats, integers and exact
arithmetic.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from functools import cached_property
from itertools import product
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence, TextIO

from .classical import (
    BatemanParams,
    HamiltonianConsistency,
    IntegrationError,
    PhaseState,
    Trajectory,
    eom_residual,
    forms_agree,
    hamiltonian_consistency,
    integrate_eom,
    trajectory_csv,
    underdamped_solution,
)
from .field import SQRT2, Coeff
from .fock import (
    DEFAULT_THETA,
    NullExperimentReport,
    SqueezeReport,
    check_cutoffs,
    check_null_range,
    check_squeeze_range,
    commutator_residual,
    hamiltonian_equiv_residual,
    interior_bound,
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
    hamiltonian_parts,
    make_ladder,
    make_pseudo,
    op_adjoint,
    op_apply,
)
from .reporting import RunConfig, VerdictReport, write_report
from .series import (
    SQUEEZE_SUM_EXPONENT,
    RaabeReport,
    check_kmax,
    partial_sum_growth,
    raabe_csv,
    raabe_test,
    squeeze_partial_sums,
    squeeze_terms,
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
_PAIR_NAMES = ("A1", "A2", "B1", "B2")
DRIFT_TOL = 1e-7  # absolute, on the energy drift along the trajectory
EOM_TOL = 1e-4  # absolute, on the equation-of-motion residuals

Runner = Callable[["Artifacts"], list[VerdictReport]]


def resolve_params(cfg: RunConfig) -> BatemanParams:
    """The run's oscillator parameters: from ``k_spring`` when it is given
    (and then consistent with ``omega``, if that is given too), else from
    ``omega``.  Raises ValueError for parameters the model rejects."""
    if cfg.k_spring is None:
        return BatemanParams.from_omega(cfg.m, cfg.gamma, cfg.omega)
    params = BatemanParams(cfg.m, cfg.gamma, cfg.k_spring)
    if cfg.omega is not None and params.rational_omega != cfg.omega:
        raise ValueError("--k-spring and --omega disagree; drop one or make them consistent")
    return params


class Artifacts:
    """The shared inputs of one run, each computed on first use and then
    kept, so that every check reading an input sees the same value."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    @cached_property
    def params(self) -> BatemanParams:
        return resolve_params(self.cfg)

    @cached_property
    def init(self) -> PhaseState:
        return PhaseState.from_velocities(self.params, x=1.0, xdot=0.0, y=0.5, ydot=0.0)

    @cached_property
    def trajectory(self) -> Trajectory:
        return integrate_eom(self.params, self.init, t_end=10.0, dt=1e-3)

    @cached_property
    def consistency(self) -> HamiltonianConsistency:
        return hamiltonian_consistency(self.trajectory)

    @cached_property
    def forms_agree(self) -> bool:
        return forms_agree(self.params)

    @cached_property
    def branches(self) -> dict[str, PolyGauss]:
        """Every sign branch of the mixed lowering operators applied to the
        proposed two-mode Gaussian vacuum."""
        vacuum = PolyGauss.standard_vacuum(2)
        names = ("abar1minus", "abar2minus", "abar1plus", "abar2plus")
        return {name: op_apply(make_pseudo(name), vacuum) for name in names}

    @cached_property
    def pseudo(self) -> dict[str, LinDiffOp]:
        return {name: make_pseudo(name) for name in _PAIR_NAMES}

    @cached_property
    def adjoint_raising(self) -> list[LinDiffOp]:
        return [op_adjoint(self.pseudo["B1"]), op_adjoint(self.pseudo["B2"])]

    @cached_property
    def ladders(self) -> dict[str, LinDiffOp]:
        return {
            "a1": make_ladder(0, "lower", 2),
            "a2": make_ladder(1, "lower", 2),
            "adag1": make_ladder(0, "raise", 2),
            "adag2": make_ladder(1, "raise", 2),
        }

    @cached_property
    def null_sweeps(self) -> dict[str, NullExperimentReport]:
        cutoffs = self.cfg.cutoffs or DEFAULT_NULL_CUTOFFS
        return {family: joint_null_experiment(cutoffs, family) for family in ("pseudo", "bosonic")}

    @cached_property
    def raabe(self) -> RaabeReport:
        return raabe_test(squeeze_terms(0, self.cfg.kmax + 1))

    @cached_property
    def squeeze_norms(self) -> SqueezeReport:
        return squeeze_truncated_norms(self.cfg.theta, self.cfg.cutoffs or DEFAULT_SQUEEZE_CUTOFFS)


# ---------------------------------------------------------------------------
# the check registry
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    """One check: its area (the subcommand that runs it), stable id, claim,
    and the function returning ``(ok, payload)`` (``ok`` None: report-only)."""

    area: str
    id: str
    claim: str
    fn: Callable[[Artifacts], tuple[bool | None, dict[str, Any]]]

    def verdict(self, art: Artifacts) -> VerdictReport:
        ok, payload = self.fn(art)
        status = "report-only" if ok is None else "pass" if ok else "fail"
        return VerdictReport(check=self.id, claim=self.claim, status=status, payload=payload)


# Every check, in report order.
CHECKS: list[Check] = []


def check(area: str, check_id: str, claim: str):
    """Register the decorated function as the next check of ``area``."""

    def register(fn):
        CHECKS.append(Check(area, check_id, claim, fn))
        return fn

    return register


def _test_family_2d() -> list[PolyGauss]:
    """Ten monomial-times-Gaussian test functions on two variables."""
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
    return [PolyGauss(2, {m: 1}, [[1, 0], [0, 1]]) for m in monos]


def _expected_commutator(left: str, right: str) -> int:
    """[A_j, B_j] = 1 and [B_j, A_j] = -1; every other pair commutes."""
    if left[0] == right[0] or left[1] != right[1]:
        return 0
    return 1 if left[0] == "A" else -1


@check("counterexample", "counterexample-mode1",
       "the minus-branch mode-1 lowering operator maps the proposed "
       "two-mode Gaussian vacuum to -x2 times it, not to zero")
def counterexample_mode1(art: Artifacts):
    applied = art.branches["abar1minus"]
    expected = PolyGauss(2, {(0, 1): -1}, [[1, 0], [0, 1]])
    payload = {"applied": str(applied), "expected": str(expected), "is_zero": applied.is_zero()}
    return applied == expected and not applied.is_zero(), payload


@check("counterexample", "counterexample-mode2",
       "the minus-branch mode-2 lowering operator does not annihilate "
       "the proposed two-mode Gaussian vacuum")
def counterexample_mode2(art: Artifacts):
    applied = art.branches["abar2minus"]
    return not applied.is_zero(), {"applied": str(applied), "is_zero": applied.is_zero()}


@check("counterexample", "counterexample-branches",
       "action of every sign branch of the mixed lowering operators "
       "on the proposed vacuum (no branch is singled out)")
def counterexample_branches(art: Artifacts):
    return None, {
        "branches": {
            name: {"applied": str(result), "is_zero": result.is_zero()}
            for name, result in art.branches.items()
        }
    }


@check("vacuum", "ansatz-pseudo-lowering",
       "no Gaussian-with-linear-term ansatz is annihilated by both "
       "pseudo-boson lowering operators")
def ansatz_pseudo_lowering(art: Artifacts):
    rep = gaussian_ansatz_solve([art.pseudo["A1"], art.pseudo["A2"]])
    return not rep.solvable, {"inconsistent_equations": [eq.render() for eq in rep.inconsistency]}


@check("vacuum", "ansatz-pseudo-raising-adjoint",
       "no Gaussian-with-linear-term ansatz is annihilated by both "
       "adjoint raising operators")
def ansatz_pseudo_raising_adjoint(art: Artifacts):
    rep = gaussian_ansatz_solve(art.adjoint_raising)
    return not rep.solvable, {"inconsistent_equations": [eq.render() for eq in rep.inconsistency]}


@check("vacuum", "ansatz-bosonic-control",
       "the plain bosonic pair keeps its standard Gaussian ground state")
def ansatz_bosonic_control(art: Artifacts):
    rep = gaussian_ansatz_solve([art.ladders["a1"], art.ladders["a2"]])
    return rep.solvable and rep.witness() == PolyGauss.standard_vacuum(2), {
        "witness_quad": [[str(v) for v in row] for row in (rep.witness_quad or ())],
        "witness_lin": [str(v) for v in (rep.witness_lin or ())],
    }


@check("vacuum", "multiplication-certificates",
       "eliminating derivatives inside the operator span yields the "
       "multiplication operators x1 - x2 and x1 + x2, so any function "
       "vacuum vanishes almost everywhere; the bosonic pair yields none")
def multiplication_certificates(art: Artifacts):
    lowering = multiplier_reduction([art.pseudo["A1"], art.pseudo["A2"]])
    raising = multiplier_reduction(art.adjoint_raising)
    control = multiplier_reduction([art.ladders["a1"], art.ladders["a2"]])
    ok = (
        [c.poly_dict() for c in lowering] == [{(1, 0): Coeff(1), (0, 1): Coeff(-1)}]
        and [c.poly_dict() for c in raising] == [{(1, 0): Coeff(1), (0, 1): Coeff(1)}]
        and not control
    )
    return ok, {
        "pseudo_lowering": [c.render() for c in lowering],
        "adjoint_raising": [c.render() for c in raising],
        "bosonic_control": [c.render() for c in control],
    }


@check("vacuum", "delta-annihilated-by-x",
       "multiplication by x annihilates the point delta weakly")
def delta_annihilated_by_x(art: Artifacts):
    point = DeltaDist([1], 0, PolyGauss(0, {(): 1}))
    tests = [PolyGauss(1, {(k,): 1}, [[1]]) for k in range(10)]
    rep = distributional_vacuum_check([LinDiffOp.position(0, 1)], point, tests, tol=art.cfg.tol)
    return rep.passes, {"max_abs_pairing": rep.max_abs, "tol": rep.tol}


@check("vacuum", "delta-on-diagonal-hyperplane",
       "the diagonal hyperplane delta with Gaussian envelope is a "
       "weak null vector of the multiplication combination of the "
       "pseudo-boson lowering pair")
def delta_on_diagonal_hyperplane(art: Artifacts):
    half = Fraction(1, 2)
    line = DeltaDist.from_ambient([1, -1], 0, PolyGauss.gaussian([[half, half], [half, half]]))
    rep = distributional_vacuum_check(
        [art.pseudo["A1"] - art.pseudo["A2"]], line, _test_family_2d(), tol=art.cfg.tol
    )
    return rep.passes, {"max_abs_pairing": rep.max_abs, "tol": rep.tol}


@check("vacuum", "delta-negative-control",
       "a mismatched hyperplane delta is detected as not weakly "
       "annihilated (pairing stays far from zero)")
def delta_negative_control(art: Artifacts):
    mismatched = DeltaDist([1, 0], 0, PolyGauss.standard_vacuum(1))
    rep = distributional_vacuum_check(
        [art.ladders["a1"]], mismatched, _test_family_2d(), tol=art.cfg.tol
    )
    return not rep.passes, {"max_abs_pairing": rep.max_abs, "tol": rep.tol}


@check("vacuum", "null-vector-sweep",
       "least singular value of the stacked pseudo-boson lowering "
       "pair keeps decaying with the cutoff (no normalizable joint "
       "null vector) while the bosonic control stays at zero")
def null_vector_sweep(art: Artifacts):
    pseudo = art.null_sweeps["pseudo"]
    sp = pseudo.sigma_mins()
    sb = art.null_sweeps["bosonic"].sigma_mins()
    return None, {
        "cutoffs": [r.cutoff for r in pseudo.records],
        "pseudo_sigma_min": sp,
        "pseudo_tail_mass": pseudo.tail_masses(),
        "bosonic_sigma_min": sb,
        "pseudo_strictly_decreasing": all(x > y for x, y in zip(sp, sp[1:])),
        "bosonic_max_spread": (max(sb) - min(sb)) / max(sb) if max(sb) > 0 else 0.0,
    }


@check("commutators", "pseudo-commutator-table",
       "all sixteen commutators of the pseudo-boson pairs match the "
       "delta table exactly in canonical form")
def pseudo_commutator_table(art: Artifacts):
    table = {}
    for left, right in product(_PAIR_NAMES, repeat=2):
        expected = _expected_commutator(left, right)
        actual = commutator(art.pseudo[left], art.pseudo[right]).as_scalar()
        table[f"[{left},{right}]"] = {
            "expected": expected,
            "actual": "non-scalar" if actual is None else str(actual),
            "ok": actual is not None and actual == Coeff(expected),
        }
    return all(entry["ok"] for entry in table.values()), {"table": table}


@check("commutators", "bosonic-commutator-table",
       "the underlying two-mode ladder operators satisfy the "
       "canonical commutation table exactly")
def bosonic_commutator_table(art: Artifacts):
    expected = (("a1", "adag1", 1), ("a2", "adag2", 1), ("a1", "adag2", 0),
                ("a1", "a2", 0), ("adag1", "adag2", 0))
    return all(
        commutator(art.ladders[left], art.ladders[right]).as_scalar() == Coeff(value)
        for left, right, value in expected
    ), {}


@check("commutators", "pseudo-commutator-fock-residuals",
       "the same sixteen commutators hold on the interior of the "
       "truncated Fock space below tolerance")
def pseudo_commutator_fock_residuals(art: Artifacts):
    cutoff = 12
    residuals = {
        f"[{left},{right}]": commutator_residual(
            left, right, cutoff, _expected_commutator(left, right)
        )
        for left, right in product(_PAIR_NAMES, repeat=2)
    }
    worst = max(residuals.values())
    return worst < art.cfg.tol, {
        "cutoff": cutoff,
        "interior_bound": interior_bound(cutoff),
        "max_residual": worst,
        "residuals": residuals,
        "tol": art.cfg.tol,
    }


@check("hamiltonian", "hamiltonian-forms-symbolic",
       "the bosonic and pseudo-boson Hamiltonian assemblies have "
       "identical free and interaction parts in canonical form, so they "
       "normal-order to the identical operator for every m, gamma and omega")
def hamiltonian_forms_symbolic(art: Artifacts):
    (free_b, inter_b), (free_p, inter_p) = map(hamiltonian_parts, ("bosonic", "pseudo"))
    free_equal, interaction_equal = free_b == free_p, inter_b == inter_p
    return free_equal and interaction_equal, {
        "free_equal": free_equal, "interaction_equal": interaction_equal
    }


@check("hamiltonian", "hamiltonian-forms-fock",
       "the two assemblies agree on the interior of the truncated "
       "Fock space below tolerance")
def hamiltonian_forms_fock(art: Artifacts):
    cutoff = 16
    res = hamiltonian_equiv_residual(art.params, cutoff)
    return res < art.cfg.tol, {
        "cutoff": cutoff, "interior_bound": interior_bound(cutoff), "residual": res,
        "tol": art.cfg.tol,
    }


@check("hamiltonian", "hamiltonian-forms-classical",
       "the mixed-coordinate and rotated-coordinate energies agree at "
       "every phase-space point, and the energy is conserved along an "
       "integrated trajectory")
def hamiltonian_forms_classical(art: Artifacts):
    # passes exactly when both classical checks below pass, by their rules
    cons = art.consistency
    return classical_energy_forms(art)[0] and classical_energy_drift(art)[0], {
        "forms_agree": art.forms_agree,
        "max_drift": cons.max_drift,
        "initial_energy": cons.initial_energy,
    }


@check("squeeze", "squeeze-factored-amplitudes",
       "iterating the squared raising operator on the ground state gives "
       "amplitudes c_k of sign (-1)^k whose squares times sqrt2 are exactly "
       "the terms of the series that the ratio test certifies")
def squeeze_factored_amplitudes(art: Artifacts):
    # the Fock iteration and the series terms are derived apart; they meet here
    kmax = min(art.cfg.kmax, 50)
    signed_squares = squeeze_factored_action(kmax)
    terms = art.raabe.terms
    ok = all(
        SQRT2 * abs(q) == terms[k] and (-1) ** k * q > 0 for k, q in enumerate(signed_squares)
    )
    return ok, {"kmax": kmax, "first_signed_squares": [str(q) for q in signed_squares[:6]]}


@check("squeeze", "squeeze-series-ratio-test",
       "the ratio test certifies divergence of the squared-norm "
       "series of the factored squeeze action")
def squeeze_series_ratio_test(art: Artifacts):
    raabe = art.raabe
    return raabe.verdict == "divergent", {
        "verdict": raabe.verdict,
        "kmax": raabe.kmax,
        "rho_1": str(raabe.ratio(1)),
        "rho_kmax": str(raabe.ratio(raabe.kmax)),
    }


@check("squeeze", "squeeze-series-partial-sums",
       "exact partial sums of the squared-norm series grow like a "
       "positive power of the truncation point and exceed 100 within "
       "the computed range")
def squeeze_series_partial_sums(art: Artifacts):
    growth = partial_sum_growth(GROWTH_CHECKPOINTS, squeeze_partial_sums(GROWTH_CHECKPOINTS))
    exceeds = growth.partial_sums[1] > Coeff(100)
    return growth.bounds_hold and exceeds, {
        "checkpoints": list(growth.checkpoints),
        "partial_sums": [float(s) for s in growth.partial_sums],
        "bounds_hold": growth.bounds_hold,
        "analytic_exponent": SQUEEZE_SUM_EXPONENT,
        "exceeds_100_at_104_exact": exceeds,
    }


@check("squeeze", "squeeze-truncated-norms",
       "norms of the truncated exponential applied to the ground "
       "state, per cutoff (they keep growing; the image of the "
       "untruncated operator is not square integrable)")
def squeeze_truncated_norms_check(art: Artifacts):
    norms = art.squeeze_norms
    ln = norms.log_norms()
    gaps = [list(r.coeff_gaps) for r in norms.records]
    payload = {
        "theta": art.cfg.theta,
        "cutoffs": [r.cutoff for r in norms.records],
        "norms": norms.norms(),
        "log_norms": ln,
        "strictly_increasing": all(x < y for x, y in zip(ln, ln[1:])),
        "amplitude_gaps_vs_factored": gaps,
    }
    if None in payload["norms"] or any(None in g for g in gaps):
        payload["null_reason"] = (
            "a null norm or amplitude gap exceeds the float range; "
            "log_norms holds the scale of every norm"
        )
    return None, payload


@check("squeeze", "squeeze-unitary-control",
       "the antihermitian-generator control keeps norm one at every "
       "cutoff (a true unitary squeeze)")
def squeeze_unitary_control(art: Artifacts):
    control = squeeze_truncated_norms(0.1, (16, 32), generator="antihermitian")
    return None, {
        "cutoffs": [16, 32],
        "max_norm_deviation": max(abs(n - 1.0) for n in control.norms()),
    }


@check("classical", "classical-eom-residuals",
       "the integrated trajectory satisfies the damped and amplified "
       "second-order equations within finite-difference tolerance")
def classical_eom_residuals(art: Artifacts):
    residuals = eom_residual(art.trajectory)
    return max(residuals.damped, residuals.amplified) < EOM_TOL, {
        "damped_residual": residuals.damped,
        "amplified_residual": residuals.amplified,
        "tol": EOM_TOL,
    }


@check("classical", "classical-energy-forms",
       "the mixed and rotated energy forms agree at every phase-space "
       "point: Q_mixed = 1/2 B Q_rot B holds exactly")
def classical_energy_forms(art: Artifacts):
    return art.forms_agree, {"forms_agree": art.forms_agree}


@check("classical", "classical-energy-drift",
       "the energy is conserved along the trajectory")
def classical_energy_drift(art: Artifacts):
    drift = art.consistency.max_drift
    return drift < DRIFT_TOL, {"max_drift": drift, "tol": DRIFT_TOL}


@check("classical", "classical-drift-order",
       "halving the step divides the energy drift by about 2^5 = 32 "
       "(RK4 changes the energy of a linear system by O(dt^6) per step, "
       "so by O(dt^5) over a fixed time)")
def classical_drift_order(art: Artifacts):
    drifts = [
        hamiltonian_consistency(integrate_eom(art.params, art.init, t_end=10.0, dt=dt)).max_drift
        for dt in DRIFT_ORDER_STEPS
    ]
    return None, {
        "dt": list(DRIFT_ORDER_STEPS),
        "drift": drifts,
        "ratio": drifts[0] / drifts[1] if drifts[1] > 0 else None,
    }


@check("classical", "classical-envelopes",
       "the damped coordinate and its amplified partner follow the "
       "closed-form underdamped solutions e^(-+gamma t/2m) (A cos wt + "
       "B sin wt) pointwise")
def classical_envelopes(art: Artifacts):
    traj, params = art.trajectory, art.params
    x_exact, y_exact = underdamped_solution(params, art.init, traj.times)
    payload = {
        "gamma_over_2m": float(params.gamma) / (2.0 * float(params.m)),
        "omega": params.omega,
        "t_end": traj.times[-1],
        "max_error_x": max(abs(u - v) for u, v in zip(traj.states[0], x_exact)),
        "max_error_y": max(abs(u - v) for u, v in zip(traj.states[1], y_exact)),
    }
    # the trajectory is finite, so an overflowing closed form shows up as inf
    if not all(map(math.isfinite, payload.values())):
        raise IntegrationError("the closed-form solution left the representable range")
    return None, payload


# The CSVs each area writes, by file name: each writer puts its table, built
# from the run's artifacts, into an open text file.
CSVS: dict[str, dict[str, Callable[[Artifacts, TextIO], object]]] = {
    "vacuum": {
        "null_experiment_pseudo.csv":
            lambda art, out: out.write(null_experiment_csv(art.null_sweeps["pseudo"])),
        "null_experiment_bosonic.csv":
            lambda art, out: out.write(null_experiment_csv(art.null_sweeps["bosonic"])),
    },
    "squeeze": {
        "squeeze_norms.csv": lambda art, out: out.write(squeeze_csv(art.squeeze_norms)),
        "raabe.csv": lambda art, out: out.write(raabe_csv(art.raabe)),
    },
    "classical": {"trajectory.csv": lambda art, out: trajectory_csv(art.trajectory, out)},
}


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _runner(area: str) -> Runner:
    """The runner of one area: the verdicts of its checks in report order."""

    def run_area(art: Artifacts) -> list[VerdictReport]:
        return [c.verdict(art) for c in CHECKS if c.area == area]

    return run_area


# One runner per area, in the order the areas' checks were registered.
RUNNERS: dict[str, Runner] = {
    area: _runner(area) for area in dict.fromkeys(c.area for c in CHECKS)
}
run_counterexample = RUNNERS["counterexample"]
run_vacuum = RUNNERS["vacuum"]
run_commutators = RUNNERS["commutators"]
run_hamiltonian = RUNNERS["hamiltonian"]
run_squeeze = RUNNERS["squeeze"]
run_classical = RUNNERS["classical"]


def run(cfg: RunConfig) -> int:
    """Execute the configured subcommand, write reports, return the exit code.
    Every check runs before the first file is opened."""
    art = Artifacts(cfg)
    areas = list(RUNNERS) if cfg.subcommand == "all" else [cfg.subcommand]
    verdicts = [v for area in areas for v in RUNNERS[area](art)]

    cfg.out.mkdir(parents=True, exist_ok=True)
    if cfg.fmt in ("json", "both"):
        write_report(cfg.out / f"report_{cfg.subcommand}.json", cfg, verdicts)
    if cfg.fmt in ("csv", "both"):
        for area in areas:
            for fname, write in CSVS.get(area, {}).items():
                with open(cfg.out / fname, "w") as out:
                    write(art, out)

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
    try:
        return check_cutoffs(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


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
        ("classical", "equations of motion, energy forms, conservation"),
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
            help="spring constant (exact rational), used by every layer; "
            "must agree with --omega when both are given",
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
            default=DEFAULT_THETA,
            help="squeeze exponent parameter (default 7*pi/8)",
        )
        p.add_argument(
            "--cutoffs",
            type=_cutoff_list,
            default=None,
            help="comma-separated increasing cutoffs for the sweeps",
        )
        p.add_argument("--kmax", type=int, default=1000, help="ratio-test depth")
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
    """The run's configuration; raises ValueError for one no run accepts."""
    check_kmax(args.kmax)
    if args.subcommand in ("vacuum", "all"):
        check_null_range((args.cutoffs or DEFAULT_NULL_CUTOFFS)[-1])
    if args.subcommand in ("squeeze", "all"):
        check_squeeze_range(args.theta, (args.cutoffs or DEFAULT_SQUEEZE_CUTOFFS)[-1])
    cfg = RunConfig(**vars(args))
    if cfg.omega is None and cfg.k_spring is None:
        cfg = cfg._replace(omega=Fraction(1))
    resolve_params(cfg)  # every subcommand rejects parameters the model rejects
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except ValueError as exc:
        # the configuration was accepted, so this is a defect in a check
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write to {exc.filename or args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        rate = float(args.gamma / (2 * args.m))
        print(
            f"integration error: {exc}; the amplified mode grows like exp(gamma t / 2m) "
            f"with gamma/2m = {rate:g}, so use a smaller --gamma or a larger --m",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
