"""The ``exact-ops`` workload: seeded jobs against the exact symbolic layer.

Why this workload: it stands in for the property-test share of the test
suite.  Nearly all of its time goes to ``field`` (``Coeff`` arithmetic with
all four components set), ``operators`` (compose, apply, adjoint, Hamiltonian
assembly) and ``vacuum`` (Gaussian-ansatz solves and multiplier
certificates).  It never touches ``series``, ``classical`` or ``fock``, so a
``Coeff`` fast path that helps ``cli-all`` (where ``field`` mostly sees
rational Q(sqrt2) values inside ``series``) but slows mixed complex
arithmetic shows up here, and a ``fock`` or ``classical`` rewrite should
leave every figure of this workload unchanged.

Inputs follow the hypothesis strategies of the test suite
(``tests/strategies.py``): ``Coeff`` components are fractions in [-3, 3] with
denominator at most 4 (here all four nonzero), operators have 0 to 3 terms
with powers at most 2, functions 1 to 3 terms, and each kind uses the
variable count of its test.  One job list holds as many jobs of each kind as
the matching property test runs examples (``SUITE``), so each kind's share of
the workload's time is its share of the library work in those tests.  The
field-only tests of ``test_field.py`` have no kind of their own: ``Coeff``
arithmetic is exercised inside every operator job.  Every job checks an exact
identity; a job whose identity does not hold, or that raises, is a failed job.

Known defect, kept out of the timed jobs and counted apart:
``gaussian_ansatz_solve`` raises ``ValueError("quadratic form entries must
be real")`` (or ``"linear term entries must be real"``) on a complex
first-order family whose only Gaussian vacuum has a complex ``S`` or ``t``,
e.g. ``[d1 + (1+i) x1, d2 + (1+i) x2]``.  A benchmark workload must be one
on which no operation fails, so the random families of the timed jobs have
real Q(sqrt2) coefficients, whose solutions are real; the complex ladder
mixes still give the solver complex coefficients with all four components
set.  ``defect_probe`` draws ``PROBE_FAMILIES`` complex families from the
same seed, and the traced run reports how many of them make the solver
raise as ``vacuum.gaussian_ansatz_solve.raises``; a fix to the solver moves
that count to 0.

Run as a program, this file is one iteration of the workload: it generates
the jobs from ``--seed``, prints ``ready`` once set-up is done, runs every
job once and prints one JSON line with the per-job latencies and failures.
Every iteration of a benchmark run gets the same seed, so the same jobs, and
two commits measured with one seed measure the same jobs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from typing import Callable

from bateman import classical, field, operators, vacuum

# Jobs per kind in one list: the examples its property test runs
# (tests/test_operators.py, tests/test_vacuum.py), and the term-count range of
# each random operand.  ``adjoint`` covers both adjoint tests, ``hamiltonian``
# the five draws of the random-rationals test; the two ansatz kinds share the
# count of the vacuum-layer property test.
SUITE = (
    ("compose_apply", 40, ((0, 3), (0, 3), (1, 3))),  # test_apply_compose_consistency
    ("apply_linear", 40, ((0, 3), (1, 3), (1, 3))),   # test_apply_is_linear
    ("associativity", 40, ((0, 3),) * 3),             # test_compose_is_associative
    ("adjoint", 40, ((0, 3),) * 2),                   # test_adjoint_antihomomorphism, _involution
    ("hamiltonian", 5, ()),                           # test_hamiltonian_forms_agree_for_random_rationals
    ("ansatz_mix", 30, ()),                           # test_no_gaussian_escapes_the_unsolvable_verdict
    ("ansatz_family", 30, ()),
)
JOBS = sum(count for _, count, _ in SUITE)
# Complex first-order families that ``defect_probe`` hands to the solver.
PROBE_FAMILIES = 100

# Seed of the operator and function shapes: term counts, multi-indices, which
# Gaussian weights are zero, and job order.  The run seed draws every other
# value (coefficients, nonzero Gaussian weights, Hamiltonian parameters) and
# the whole ansatz families, so each seed gives other inputs but nearly the
# same amount of work.  Drawing the shapes per seed too would let a few large
# compose jobs swing a list's total time by a fifth from seed to seed.
SHAPE_SEED = 0


class JobFailure(Exception):
    """An identity that must hold exactly did not."""


class Draws:
    """Random shapes from ``SHAPE_SEED``, random values from the run seed."""

    def __init__(self, seed: int):
        self.shape = random.Random(SHAPE_SEED)
        self.value = random.Random(seed)

    def fraction(self, nonzero: bool = False) -> Fraction:
        while True:
            den = self.value.randint(1, 4)
            value = Fraction(self.value.randint(-3 * den, 3 * den), den)
            if value or not nonzero:
                return value

    def weight(self) -> Fraction:
        """A Gaussian weight, zero as often as a drawn fraction is.

        Whether it is zero is a shape: a zero weight drops whole terms from
        every derivative of the function.
        """
        den = self.shape.randint(1, 4)
        if self.shape.randint(-3 * den, 3 * den) == 0:
            return Fraction(0)
        return self.fraction(nonzero=True)

    def coeff(self, real: bool = False) -> field.Coeff:
        # every component set, so full Q(sqrt2, i) arithmetic is exercised;
        # ``real`` sets the two real ones only
        return field.Coeff(*(self.fraction(nonzero=True) for _ in range(2 if real else 4)))

    def index(self, nvars: int) -> tuple[int, ...]:
        return tuple(self.shape.randint(0, 2) for _ in range(nvars))

    def operator(self, nvars: int, nterms: int) -> operators.LinDiffOp:
        """As ``lin_diff_ops``: ``nterms`` draws of a term, powers at most 2."""
        terms = {}
        for _ in range(nterms):
            terms[(self.index(nvars), self.index(nvars))] = self.coeff()
        return operators.LinDiffOp(nvars, terms)

    def first_order(self, nvars: int, real: bool) -> operators.LinDiffOp:
        """As ``first_order_ops``: 1 to 3 draws of a term with affine coefficient.

        Shapes too come from the run seed: the jobs are cheap.  ``real``
        keeps the coefficients in Q(sqrt2), clear of the solver defect named
        above.
        """
        units = [(0,) * nvars] + [tuple(int(i == k) for i in range(nvars)) for k in range(nvars)]
        terms = {}
        for _ in range(self.value.randint(1, 3)):
            terms[(self.value.choice(units), self.value.choice(units))] = self.coeff(real)
        return operators.LinDiffOp(nvars, terms)

    def function(self, nvars: int, nterms: int) -> operators.PolyGauss:
        """As ``poly_gausses``: ``nterms`` draws of a monomial, powers at most 2."""
        poly = {}
        for _ in range(nterms):
            poly[self.index(nvars)] = self.coeff()
        quad = [[Fraction(0)] * nvars for _ in range(nvars)]
        for i in range(nvars):
            for j in range(i, nvars):
                quad[i][j] = quad[j][i] = self.weight()
        lin = [self.weight() for _ in range(nvars)]
        return operators.PolyGauss(nvars, poly, quad, lin)

    def ladder_mix(self) -> list[operators.LinDiffOp]:
        """An invertible combination of a1, a2: its joint vacuum is the standard one."""
        a1 = operators.make_ladder(0, "lower", 2)
        a2 = operators.make_ladder(1, "lower", 2)
        while True:
            m = [[self.coeff() for _ in range(2)] for _ in range(2)]
            if not (m[0][0] * m[1][1] - m[0][1] * m[1][0]).is_zero():
                return [a1.scale(row[0]) + a2.scale(row[1]) for row in m]

    def term_counts(self, count: int, low: int, high: int) -> list[int]:
        """``count`` term counts in [low, high], each equally often, in shuffled order."""
        values = [low + i % (high - low + 1) for i in range(count)]
        self.shape.shuffle(values)
        return values

    def args(self, kind: str, *n: int) -> tuple:
        if kind == "compose_apply":
            return (self.operator(2, n[0]), self.operator(2, n[1]), self.function(2, n[2]))
        if kind == "apply_linear":
            return (self.operator(2, n[0]), self.function(2, n[1]), self.function(2, n[2]),
                    self.coeff())
        if kind in ("associativity", "adjoint"):
            nvars = 1 if kind == "associativity" else 2
            return tuple(self.operator(nvars, k) for k in n)
        if kind == "hamiltonian":
            m, gamma, omega = (Fraction(self.value.randint(low, 9), self.value.randint(1, 9))
                               for low in (1, 0, 1))
            return (classical.BatemanParams.from_omega(m, gamma, omega),)
        # invertible ladder mixes are solvable; random real first-order
        # families are mostly inconsistent, so both solver outcomes occur
        if kind == "ansatz_mix":
            return (self.ladder_mix(), True)
        return ([self.first_order(2, real=True) for _ in range(2)], False)


def make_jobs(seed: int) -> list[tuple[str, tuple]]:
    """The job list of a run; the same seed gives the same jobs.

    Term counts are balanced within each kind rather than drawn one by one,
    so the one draw of shapes follows the strategies' uniform distribution.
    """
    draws = Draws(seed)
    jobs = []
    for kind, count, ranges in SUITE:
        sizes = list(zip(*(draws.term_counts(count, *r) for r in ranges))) or [()] * count
        jobs += [(kind, draws.args(kind, *n)) for n in sizes]
    draws.shape.shuffle(jobs)
    return jobs


def defect_probe(seed: int) -> int:
    """How many of ``PROBE_FAMILIES`` complex families make the ansatz solver raise.

    The families are drawn like the timed ones but with complex
    coefficients.  Only the ``ValueError`` about non-real entries is the
    known defect; any other exception propagates.
    """
    draws = Draws(seed)
    raises = 0
    for _ in range(PROBE_FAMILIES):
        try:
            vacuum.gaussian_ansatz_solve([draws.first_order(2, real=False) for _ in range(2)])
        except ValueError as exc:
            if "must be real" not in str(exc):
                raise
            raises += 1
    return raises


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise JobFailure(what)


def _compose_apply(left, right, f) -> None:
    composed = operators.op_apply(operators.op_compose(left, right), f)
    _require(composed == operators.op_apply(left, operators.op_apply(right, f)),
             "apply(compose(L, R), f) != apply(L, apply(R, f))")


def _apply_linear(op, f, g, c) -> None:
    if not f.same_weight(g):
        g = operators.PolyGauss(f.nvars, g.poly, [list(r) for r in f.quad], list(f.lin))
    _require(operators.op_apply(op, f + g) == operators.op_apply(op, f) + operators.op_apply(op, g),
             "apply(L, f + g) != apply(L, f) + apply(L, g)")
    _require(operators.op_apply(op, f * c) == operators.op_apply(op, f) * c,
             "apply(L, c f) != c apply(L, f)")


def _associativity(a, b, c) -> None:
    _require(operators.op_compose(operators.op_compose(a, b), c)
             == operators.op_compose(a, operators.op_compose(b, c)),
             "composition is not associative")


def _adjoint(a, b) -> None:
    _require(operators.op_adjoint(operators.op_compose(a, b))
             == operators.op_compose(operators.op_adjoint(b), operators.op_adjoint(a)),
             "adjoint(A B) != adjoint(B) adjoint(A)")
    _require(operators.op_adjoint(operators.op_adjoint(a)) == a, "adjoint(adjoint(A)) != A")


def _hamiltonian(params) -> None:
    _require(operators.hamiltonian_build(params, "bosonic")
             == operators.hamiltonian_build(params, "pseudo"),
             "bosonic and pseudo-boson Hamiltonians differ")


def _ansatz(family, mix) -> None:
    report = vacuum.gaussian_ansatz_solve(family)
    if report.solvable:
        witness = report.witness()
        for op in family:
            _require(operators.op_apply(op, witness).is_zero(), "ansatz witness is not annihilated")
    certs = vacuum.multiplier_reduction(family)
    for cert in certs:
        total = operators.LinDiffOp.zero(family[0].nvars)
        for weight, op in zip(cert.combo, family):
            total = total + op.scale(weight)
        _require(total.is_multiplication() and not total.is_zero(),
                 "certificate is not a nonzero multiplication operator")
        _require(total.multiplication_part() == cert.poly_dict(),
                 "certificate polynomial does not match its combination")
    if mix:
        _require(report.solvable and report.witness() == operators.PolyGauss.standard_vacuum(2),
                 "ladder mix lost the standard Gaussian vacuum")
        _require(not certs, "ladder mix produced a multiplication certificate")


CHECKS: dict[str, Callable[..., None]] = {
    "compose_apply": _compose_apply,
    "apply_linear": _apply_linear,
    "associativity": _associativity,
    "adjoint": _adjoint,
    "hamiltonian": _hamiltonian,
    "ansatz_mix": _ansatz,
    "ansatz_family": _ansatz,
}


def run_job(job: tuple[str, tuple]) -> str | None:
    """Run one job; return None when its identity holds, else the reason."""
    kind, args = job
    try:
        CHECKS[kind](*args)
    except Exception as exc:  # any error in the program is a failed job
        return f"{kind}: {type(exc).__name__}: {exc}"
    return None


def run_jobs(jobs: list[tuple[str, tuple]]) -> dict:
    latencies, failures = [], []
    for job in jobs:
        start = time.perf_counter()
        reason = run_job(job)
        latencies.append((time.perf_counter() - start) * 1e3)
        if reason is not None:
            failures.append(reason)
    return {"latencies_ms": latencies, "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description="one iteration of the exact-ops workload")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    jobs = make_jobs(args.seed)
    print("ready", flush=True)
    start = time.perf_counter()
    result = run_jobs(jobs)
    result["wall_s"] = time.perf_counter() - start
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
