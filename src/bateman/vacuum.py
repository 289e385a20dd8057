"""Vacuum existence analysis for families of first-order operators.

Three mechanized questions:

* does a Gaussian-with-linear-term ansatz exp(-1/2 x^T S x + t^T x) solve
  op psi = 0 for every operator in a family?  (exact linear solve over the
  coefficient field, returning a witness or a minimal inconsistent subset);
* does the span of the family contain a nonzero pure multiplication
  operator?  (such a certificate forces every function vacuum to vanish
  almost everywhere, so only distributions remain);
* does a hyperplane delta with a Gaussian envelope annihilate the family in
  the weak sense?  (numerical pairing against a test family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .field import Coeff, ONE, ZERO
from .operators import (
    LinDiffOp,
    MultiIndex,
    PolyDict,
    PolyGauss,
    monomial_str,
    op_adjoint,
    op_apply,
    poly_str,
    _zero_index,
)

DEFAULT_PAIRING_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Raised when the pairing quadrature fails to converge."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# linear systems over the coefficient field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearEquation:
    """Sum_u coeffs[u] * u = rhs over named unknowns, with its origin."""

    coeffs: tuple[tuple[str, Coeff], ...]
    rhs: Coeff
    source: str

    def render(self) -> str:
        if not self.coeffs:
            lhs = "0"
        else:
            parts = []
            for name, c in self.coeffs:
                parts.append(f"({c})*{name}")
            lhs = " + ".join(parts)
        return f"{lhs} = {self.rhs}    [{self.source}]"


def _eliminate(
    rows: list[dict[int, Coeff]], consts: list[Coeff], ncols: int
) -> tuple[dict[int, tuple[dict[int, Coeff], Coeff]], list[int] | None]:
    """Exact Gaussian elimination.

    Returns (pivots, inconsistent_rows): pivots maps column -> reduced row
    (as (coeffs-on-free-columns, rhs)); inconsistent_rows is a list of
    original row indices combining to 0 = nonzero, or None when consistent.
    Rows are given as sparse dicts column -> Coeff; consts holds the
    right-hand sides, so each row reads  sum_j row[j] u_j = const.
    """
    work = [dict(r) for r in rows]
    rhs = list(consts)
    combos: list[dict[int, Coeff]] = [{i: ONE} for i in range(len(rows))]
    pivots: dict[int, int] = {}  # column -> row index
    for col in range(ncols):
        pivot = None
        for i, row in enumerate(work):
            if i in pivots.values():
                continue
            if col in row:
                pivot = i
                break
        if pivot is None:
            continue
        inv = work[pivot][col].inverse()
        work[pivot] = {j: v * inv for j, v in work[pivot].items()}
        rhs[pivot] = rhs[pivot] * inv
        combos[pivot] = {j: v * inv for j, v in combos[pivot].items()}
        for i, row in enumerate(work):
            if i == pivot or col not in row:
                continue
            factor = row[col]
            for j, v in work[pivot].items():
                cur = row.get(j, ZERO) - factor * v
                if cur.is_zero():
                    row.pop(j, None)
                else:
                    row[j] = cur
            rhs[i] = rhs[i] - factor * rhs[pivot]
            for j, v in combos[pivot].items():
                cur = combos[i].get(j, ZERO) - factor * v
                if cur.is_zero():
                    combos[i].pop(j, None)
                else:
                    combos[i][j] = cur
        pivots[col] = pivot
    for i, row in enumerate(work):
        if not row and not rhs[i].is_zero():
            return {}, sorted(combos[i].keys())
    solved = {col: (work[i], rhs[i]) for col, i in pivots.items()}
    return solved, None


# ---------------------------------------------------------------------------
# Gaussian ansatz
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnsatzReport:
    """Outcome of the Gaussian ansatz solve: a witness or an inconsistency."""

    solvable: bool
    nvars: int
    witness_quad: tuple[tuple[Coeff, ...], ...] | None
    witness_lin: tuple[Coeff, ...] | None
    inconsistency: tuple[LinearEquation, ...]
    equations: tuple[LinearEquation, ...]

    def witness(self) -> PolyGauss:
        if not self.solvable:
            raise ValueError("no witness: the system is inconsistent")
        return PolyGauss.gaussian(
            [list(r) for r in self.witness_quad], list(self.witness_lin)
        )


def _check_first_order(ops: Sequence[LinDiffOp]) -> int:
    if not ops:
        raise ValueError("empty operator list")
    nvars = ops[0].nvars
    for i, op in enumerate(ops):
        if op.nvars != nvars:
            raise ValueError("operators must share the variable count")
        for alpha, beta in op.terms:
            if sum(beta) > 1:
                raise ValueError(f"operator {i} is not first order: term d^{beta}")
            if sum(alpha) > 1:
                raise ValueError(
                    f"operator {i} has a polynomial coefficient of degree > 1: x^{alpha}"
                )
    return nvars


def _unknown_names(nvars: int) -> tuple[list[tuple[str, int, int]], dict[tuple[str, int, int], int], list[str]]:
    unknowns: list[tuple[str, int, int]] = []
    for i in range(nvars):
        for j in range(i, nvars):
            unknowns.append(("S", i, j))
    for i in range(nvars):
        unknowns.append(("t", i, -1))
    index = {u: k for k, u in enumerate(unknowns)}
    names = [f"S[{i},{j}]" if kind == "S" else f"t[{i}]" for kind, i, j in unknowns]
    return unknowns, index, names


def gaussian_ansatz_solve(ops: Sequence[LinDiffOp]) -> AnsatzReport:
    """Decide whether exp(-1/2 x^T S x + t^T x) can be a joint vacuum.

    For first-order operators with affine coefficients, op psi / psi is a
    polynomial whose coefficients are affine in the unknown (S, t); the
    vanishing conditions form an exact linear system.  When it is solvable a
    witness (S, t) is returned and re-verified through op_apply; otherwise a
    minimal inconsistent subset of the equations is reported.
    """
    nvars = _check_first_order(ops)
    unknowns, uindex, unames = _unknown_names(nvars)

    rows: list[dict[int, Coeff]] = []
    consts: list[Coeff] = []
    sources: list[str] = []
    zero = _zero_index(nvars)
    for opi, op in enumerate(ops):
        per_mono: dict[MultiIndex, dict[int, Coeff]] = {}
        per_const: dict[MultiIndex, Coeff] = {}

        def touch(mono: MultiIndex) -> None:
            per_mono.setdefault(mono, {})
            per_const.setdefault(mono, ZERO)

        for (alpha, beta), c in op.terms.items():
            if sum(beta) == 0:
                touch(alpha)
                per_const[alpha] = per_const[alpha] + c
                continue
            k = beta.index(1)
            # d_k psi = (t_k - sum_j S_kj x_j) psi
            touch(alpha)
            row = per_mono[alpha]
            ti = uindex[("t", k, -1)]
            row[ti] = row.get(ti, ZERO) + c
            for j in range(nvars):
                mono = tuple(a + (1 if i == j else 0) for i, a in enumerate(alpha))
                touch(mono)
                sij = uindex[("S", min(k, j), max(k, j))]
                row = per_mono[mono]
                row[sij] = row.get(sij, ZERO) - c
        for mono in sorted(per_mono):
            row = {u: c for u, c in per_mono[mono].items() if not c.is_zero()}
            const = per_const[mono]
            if not row and const.is_zero():
                continue
            rows.append(row)
            # row + const = 0  <=>  row = -const
            consts.append(-const)
            sources.append(f"operator {opi}, coefficient of {monomial_str(mono)}")

    equations = tuple(
        LinearEquation(
            tuple(sorted(((unames[u], c) for u, c in row.items()))),
            rhs,
            src,
        )
        for row, rhs, src in zip(rows, consts, sources)
    )

    solved, bad = _eliminate(rows, consts, len(unknowns))
    if bad is not None:
        bad_set = _minimize_inconsistent(rows, consts, len(unknowns), bad)
        return AnsatzReport(
            solvable=False,
            nvars=nvars,
            witness_quad=None,
            witness_lin=None,
            inconsistency=tuple(equations[i] for i in bad_set),
            equations=equations,
        )

    values = [ZERO] * len(unknowns)
    for col in range(len(unknowns)):
        if col in solved:
            row, rhs = solved[col]
            # free unknowns are set to zero, so dependent ones equal the rhs
            values[col] = rhs
    quad = [[ZERO] * nvars for _ in range(nvars)]
    lin = [ZERO] * nvars
    for (kind, i, j), col in uindex.items():
        if kind == "S":
            quad[i][j] = values[col]
            quad[j][i] = values[col]
        else:
            lin[i] = values[col]
    report = AnsatzReport(
        solvable=True,
        nvars=nvars,
        witness_quad=tuple(tuple(r) for r in quad),
        witness_lin=tuple(lin),
        inconsistency=(),
        equations=equations,
    )
    psi = report.witness()
    for op in ops:
        if not op_apply(op, psi).is_zero():
            raise AssertionError("internal error: ansatz witness fails re-verification")
    return report


def _minimize_inconsistent(
    rows: list[dict[int, Coeff]], consts: list[Coeff], ncols: int, seed: Iterable[int]
) -> list[int]:
    """Greedy minimization of an inconsistent equation subset."""
    current = list(seed)
    changed = True
    while changed:
        changed = False
        for drop in list(current):
            trial = [i for i in current if i != drop]
            if not trial:
                continue
            _, bad = _eliminate([rows[i] for i in trial], [consts[i] for i in trial], ncols)
            if bad is not None:
                current = trial
                changed = True
                break
    return sorted(current)


# ---------------------------------------------------------------------------
# multiplication-operator certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplierCert:
    """A combination sum_j combo[j] op_j that is multiplication by a nonzero polynomial."""

    combo: tuple[Coeff, ...]
    multiplier_poly: tuple[tuple[MultiIndex, Coeff], ...]

    def poly_dict(self) -> PolyDict:
        return {idx: c for idx, c in self.multiplier_poly}

    def render(self) -> str:
        combo = ", ".join(str(c) for c in self.combo)
        return f"combo ({combo}) -> multiplication by {poly_str(self.poly_dict())}"


def multiplier_reduction(ops: Sequence[LinDiffOp]) -> list[MultiplierCert]:
    """Eliminate the derivative parts and return all pure-multiplication combos.

    Gaussian elimination runs over the coefficients of every derivative term
    (column per (x^alpha, d^beta) with beta != 0); each null-space basis
    vector whose multiplication part is nonzero yields a certificate, which
    is re-verified by recomposition before being returned.
    """
    nvars = _check_first_order(ops)
    columns: list[tuple[MultiIndex, MultiIndex]] = sorted(
        {key for op in ops for key in op.derivative_part()}
    )
    colindex = {key: i for i, key in enumerate(columns)}

    # null space of the ops x derivative-terms matrix
    nops = len(ops)
    rows: list[dict[int, Coeff]] = []
    consts: list[Coeff] = []
    # transpose: one equation per derivative column, unknowns are combo weights
    for key in columns:
        row = {}
        for i, op in enumerate(ops):
            c = op.terms.get(key)
            if c is not None and not c.is_zero():
                row[i] = c
        rows.append(row)
        consts.append(ZERO)
    solved, bad = _eliminate(rows, consts, nops)
    assert bad is None  # homogeneous system
    pivot_cols = set(solved.keys())
    free_cols = [i for i in range(nops) if i not in pivot_cols]

    certs: list[MultiplierCert] = []
    for free in free_cols:
        combo = [ZERO] * nops
        combo[free] = ONE
        for col, (row, _rhs) in solved.items():
            v = row.get(free)
            if v is not None:
                combo[col] = -v
        lead = next(c for c in combo if not c.is_zero())
        combo = [c * lead.inverse() for c in combo]
        total = LinDiffOp.zero(nvars)
        for lam, op in zip(combo, ops):
            if not lam.is_zero():
                total = total + op.scale(lam)
        if not total.is_multiplication():
            raise AssertionError("internal error: null-space combo kept a derivative part")
        poly = total.multiplication_part()
        if not poly:
            continue
        recomposed = LinDiffOp.multiplication(poly, nvars)
        if recomposed != total:
            raise AssertionError("internal error: certificate recomposition mismatch")
        certs.append(
            MultiplierCert(
                combo=tuple(combo),
                multiplier_poly=tuple(sorted(poly.items())),
            )
        )
    return certs


# ---------------------------------------------------------------------------
# hyperplane delta distributions
# ---------------------------------------------------------------------------

class DeltaDist:
    """delta(n . x - c) * envelope, with the envelope on in-plane coordinates.

    The in-plane frame is fixed deterministically at construction: for one
    variable it is empty, for two it is the quarter-turn of the unit normal.
    The unit normal must stay inside Q(sqrt2) so that restrictions of exact
    test functions stay exact; paper-class normals such as (1, 0) and
    (1, -1) satisfy this.
    """

    __slots__ = ("nvars", "normal", "offset", "envelope", "norm_len", "unit_normal", "frame", "point")

    def __init__(
        self,
        normal: Sequence[Coeff | int | Fraction],
        offset: Coeff | int | Fraction,
        envelope: PolyGauss,
    ):
        self.normal = tuple(Coeff.coerce(v) for v in normal)
        self.offset = Coeff.coerce(offset)
        self.nvars = len(self.normal)
        if self.nvars < 1:
            raise ValueError("normal must have at least one entry")
        for v in self.normal:
            if not v.is_real():
                raise ValueError("hyperplane normal must be real")
        if not self.offset.is_real():
            raise ValueError("hyperplane offset must be real")
        if all(v.is_zero() for v in self.normal):
            raise ValueError("hyperplane normal must be nonzero")
        if envelope.nvars != self.nvars - 1:
            raise ValueError(
                f"envelope must have {self.nvars - 1} variable(s), got {envelope.nvars}"
            )
        self.envelope = envelope

        norm2 = sum((v * v for v in self.normal), ZERO)
        norm_len = norm2.sqrt_real()
        if norm_len is None:
            raise ValueError(
                "|normal| leaves Q(sqrt2); use a normal whose length is exact"
            )
        self.norm_len = norm_len
        inv = norm_len.inverse()
        self.unit_normal = tuple(v * inv for v in self.normal)
        if self.nvars == 1:
            self.frame: tuple[tuple[Coeff, ...], ...] = ()
        elif self.nvars == 2:
            u0, u1 = self.unit_normal
            self.frame = ((-u1, u0),)
        else:
            self.frame = _gram_schmidt_complement(self.unit_normal)
        # a point on the hyperplane: (c / |n|^2) n
        scale = self.offset * norm2.inverse() if not self.offset.is_zero() else ZERO
        self.point = tuple(scale * v for v in self.normal)

    @classmethod
    def from_ambient(
        cls,
        normal: Sequence[Coeff | int | Fraction],
        offset: Coeff | int | Fraction,
        ambient_envelope: PolyGauss,
    ) -> DeltaDist:
        """Build from an envelope written in the ambient variables.

        The ambient function is restricted to the hyperplane.  The restriction
        must not produce an exponential constant (offset 0 always qualifies);
        otherwise supply the in-plane envelope directly.
        """
        probe = cls(normal, offset, PolyGauss.standard_vacuum(len(tuple(normal)) - 1))
        restricted, e0 = ambient_envelope.substitute_affine(probe.point, probe.frame)
        if not e0.is_zero():
            raise ValueError(
                "ambient envelope restriction produces an exponential constant; "
                "supply the in-plane envelope directly"
            )
        return cls(normal, offset, restricted)

    def __repr__(self) -> str:
        return f"DeltaDist(normal={self.normal!r}, offset={self.offset!r}, envelope={self.envelope!r})"


def _gram_schmidt_complement(unit_normal: tuple[Coeff, ...]) -> tuple[tuple[Coeff, ...], ...]:
    """Exact orthonormal basis of the hyperplane for three or more variables.

    Fails with ValueError when a normalization square root leaves the field;
    the supported distribution class only promises exactness for hyperplanes
    whose frames stay in Q(sqrt2).
    """
    n = len(unit_normal)
    basis: list[tuple[Coeff, ...]] = [unit_normal]
    for k in range(n):
        cand = list(_unit_vec(k, n))
        for b in basis:
            proj = sum((cand[i] * b[i] for i in range(n)), ZERO)
            cand = [cand[i] - proj * b[i] for i in range(n)]
        norm2 = sum((v * v for v in cand), ZERO)
        if norm2.is_zero():
            continue
        ln = norm2.sqrt_real()
        if ln is None:
            raise ValueError("in-plane frame normalization leaves Q(sqrt2)")
        inv = ln.inverse()
        basis.append(tuple(v * inv for v in cand))
        if len(basis) == n:
            break
    return tuple(basis[1:])


def _unit_vec(k: int, n: int) -> tuple[Coeff, ...]:
    return tuple(ONE if i == k else ZERO for i in range(n))


def _pairing_exp(exponent: float) -> float:
    """e^exponent for a pairing's Gaussian scale; QuadratureError past the float range."""
    try:
        return math.exp(exponent)
    except OverflowError as exc:
        raise QuadratureError(
            f"pairing scale exp({exponent:.6g}) exceeds the float range"
        ) from exc


def delta_pair(
    dist: DeltaDist,
    test: PolyGauss,
    abs_tol: float = DEFAULT_PAIRING_TOL,
) -> complex:
    """Pairing <dist, test> = (1/|n|) * integral of envelope * test over the plane.

    The restriction of the test function onto the hyperplane is exact; when
    the restricted integrand is identically zero the pairing is exactly 0.
    Otherwise the in-plane Gaussian integral is evaluated by Gauss-Hermite
    quadrature, refined until two levels agree within abs_tol (the integrand
    is polynomial-times-Gaussian, so refinement terminates at the exactness
    degree); disagreement raises QuadratureError with the residual, as does a
    Gaussian scale beyond the float range.
    """
    if test.nvars != dist.nvars:
        raise ValueError("test function dimension mismatch")
    restricted, e0 = test.substitute_affine(dist.point, dist.frame)
    integrand = restricted * dist.envelope
    if integrand.is_zero():
        return 0j
    m = integrand.nvars
    if m == 0:
        return _pairing_exp(float(e0)) / float(dist.norm_len) * complex(integrand.poly[()])

    sigma = np.array([[float(v) for v in row] for row in integrand.quad])
    tau = np.array([float(v) for v in integrand.lin])
    evals, evecs = np.linalg.eigh(sigma)
    if np.min(evals) <= 0:
        raise QuadratureError(
            "restricted Gaussian weight is not integrable (quadratic form not positive definite)"
        )
    s = evecs.T @ tau
    mu = s / evals
    h = np.sqrt(2.0 / evals)
    gauss_const = (
        _pairing_exp(float(e0) + 0.5 * float(np.dot(s, mu)))
        * float(np.prod(h))
        / float(dist.norm_len)
    )

    def level(npts: int) -> complex:
        z, w = hermgauss(npts)
        grids = np.meshgrid(*([z] * m), indexing="ij")
        weights = np.ones_like(grids[0])
        for g in np.meshgrid(*([w] * m), indexing="ij"):
            weights = weights * g
        ys = [mu[r] + h[r] * grids[r] for r in range(m)]
        pts = [sum(evecs[i, r] * ys[r] for r in range(m)) for i in range(m)]
        vals = np.zeros_like(grids[0], dtype=complex)
        for idx, c in integrand.poly.items():
            mono = np.full_like(vals, complex(c))
            for i, e in enumerate(idx):
                if e:
                    mono = mono * pts[i] ** e
            vals = vals + mono
        return complex(np.sum(weights * vals))

    base = integrand.degree // 2 + 2
    first = gauss_const * level(base)
    second = gauss_const * level(base + 6)
    residual = abs(second - first)
    if residual > abs_tol:
        raise QuadratureError(
            f"quadrature did not stabilize (residual {residual:.3e})", residual=residual
        )
    return second


@dataclass(frozen=True)
class PairingEntry:
    op_index: int
    test_index: int
    value: complex


@dataclass(frozen=True)
class DistributionalCheckReport:
    """Weak-vacuum check: pairings <dist, adjoint(op) test> for a test family."""

    entries: tuple[PairingEntry, ...]
    max_abs: float
    tol: float
    passes: bool


def distributional_vacuum_check(
    ops: Sequence[LinDiffOp],
    dist: DeltaDist,
    tests: Sequence[PolyGauss],
    tol: float = DEFAULT_PAIRING_TOL,
) -> DistributionalCheckReport:
    """Check op dist = 0 weakly: every pairing <dist, adjoint(op) test> below tol."""
    if not ops:
        raise ValueError("empty operator list")
    if not tests:
        raise ValueError("empty test family")
    entries = []
    max_abs = 0.0
    for i, op in enumerate(ops):
        adj = op_adjoint(op)
        for j, test in enumerate(tests):
            value = delta_pair(dist, op_apply(adj, test), abs_tol=tol)
            entries.append(PairingEntry(i, j, value))
            max_abs = max(max_abs, abs(value))
    return DistributionalCheckReport(
        entries=tuple(entries), max_abs=max_abs, tol=tol, passes=max_abs < tol
    )
