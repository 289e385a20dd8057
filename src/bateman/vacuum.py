"""Vacuum existence analysis for families of first-order operators.

Three mechanized questions:

* does a Gaussian-with-linear-term ansatz exp(-1/2 x^T S x + t^T x) solve
  op psi = 0 for every operator in a family?  (exact linear solve over the
  coefficient field, returning a witness or a minimal inconsistent subset);
* does the span of the family contain a nonzero pure multiplication
  operator?  (such a certificate forces every function vacuum to vanish
  almost everywhere, so only distributions remain);
* does a hyperplane delta with a Gaussian envelope annihilate the family in
  the weak sense?  (exact Gaussian moments against a test family).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .field import Coeff, HALF, ONE, ZERO
from .operators import (
    LinDiffOp,
    MultiIndex,
    PolyDict,
    PolyGauss,
    monomial_str,
    op_adjoint,
    op_apply,
    poly_add_term,
    poly_str,
    _sub_indices,
    _unit_index,
    _zero_index,
)

DEFAULT_PAIRING_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Raised when a pairing's Gaussian weight is not integrable or its scale
    leaves the float range."""


# ---------------------------------------------------------------------------
# linear systems over the coefficient field
# ---------------------------------------------------------------------------

class LinearEquation(NamedTuple):
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

    The inconsistent rows are a minimal inconsistent subset.  Each combo is
    supported on its own row and the pivot rows, whose original rows are
    linearly independent (each reduces to its own pivot column), and
    ``poly_add_term`` keeps only nonzero weights.
    So the zero row's combo is, up to scale, the only dependency among the
    rows it uses, and it weights every one of them: dropping any row leaves
    rows of full rank, which are consistent.
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
            neg_factor = -row[col]
            for j, v in work[pivot].items():
                poly_add_term(row, j, neg_factor * v)
            rhs[i] = rhs[i] + neg_factor * rhs[pivot]
            for j, v in combos[pivot].items():
                poly_add_term(combos[i], j, neg_factor * v)
        pivots[col] = pivot
    for i, row in enumerate(work):
        if not row and not rhs[i].is_zero():
            return {}, sorted(combos[i].keys())
    solved = {col: (work[i], rhs[i]) for col, i in pivots.items()}
    return solved, None


# ---------------------------------------------------------------------------
# Gaussian ansatz
# ---------------------------------------------------------------------------

class AnsatzReport(NamedTuple):
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
    for opi, op in enumerate(ops):
        per_mono: dict[MultiIndex, dict[int, Coeff]] = {}
        per_const: PolyDict = {}
        for (alpha, beta), c in op.terms.items():
            if sum(beta) == 0:
                poly_add_term(per_const, alpha, c)
                continue
            k = beta.index(1)
            # d_k psi = (t_k - sum_j S_kj x_j) psi
            poly_add_term(per_mono.setdefault(alpha, {}), uindex[("t", k, -1)], c)
            for j in range(nvars):
                mono = tuple(a + (1 if i == j else 0) for i, a in enumerate(alpha))
                sij = uindex[("S", min(k, j), max(k, j))]
                poly_add_term(per_mono.setdefault(mono, {}), sij, -c)
        for mono in sorted(per_mono.keys() | per_const.keys()):
            row = per_mono.get(mono, {})
            const = per_const.get(mono, ZERO)
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
        return AnsatzReport(
            solvable=False,
            nvars=nvars,
            witness_quad=None,
            witness_lin=None,
            inconsistency=tuple(equations[i] for i in bad),
            equations=equations,
        )

    # free unknowns are set to zero, so dependent ones equal the rhs
    values = [solved[col][1] if col in solved else ZERO for col in range(len(unknowns))]
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


# ---------------------------------------------------------------------------
# multiplication-operator certificates
# ---------------------------------------------------------------------------

class MultiplierCert(NamedTuple):
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

    # null space of the ops x derivative-terms matrix
    nops = len(ops)
    rows: list[dict[int, Coeff]] = []
    consts: list[Coeff] = []
    # transpose: one equation per derivative column, unknowns are combo weights
    for key in columns:
        rows.append({i: op.terms[key] for i, op in enumerate(ops) if key in op.terms})
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

    Let p be the first index with n_p != 0.  The in-plane coordinates are the
    ambient coordinates other than x_p, in order; on the plane
    x_p = (c - sum_{k != p} n_k x_k) / n_p.  In these coordinates the coarea
    factor of delta(n . x - c) is 1/|n_p|, so restrictions of exact test
    functions stay exact for every real normal in the field.
    """

    __slots__ = ("nvars", "normal", "offset", "envelope", "point", "frame", "coarea")

    def __init__(
        self,
        normal: Sequence[Coeff | int | Fraction],
        offset: Coeff | int | Fraction,
        envelope: PolyGauss,
    ):
        self.normal = tuple(Coeff.coerce(v) for v in normal)
        self.offset = Coeff.coerce(offset)
        self.nvars = len(self.normal)
        self.point, self.frame, self.coarea = _plane(self.normal, self.offset)
        if envelope.nvars != self.nvars - 1:
            raise ValueError(
                f"envelope must have {self.nvars - 1} variable(s), got {envelope.nvars}"
            )
        self.envelope = envelope

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
        point, frame, _ = _plane(normal, offset)
        restricted, e0 = ambient_envelope.substitute_affine(point, frame)
        if not e0.is_zero():
            raise ValueError(
                "ambient envelope restriction produces an exponential constant; "
                "supply the in-plane envelope directly"
            )
        return cls(normal, offset, restricted)

    def __repr__(self) -> str:
        return f"DeltaDist(normal={self.normal!r}, offset={self.offset!r}, envelope={self.envelope!r})"


def _plane(
    normal: Sequence[Coeff | int | Fraction], offset: Coeff | int | Fraction
) -> tuple[tuple[Coeff, ...], tuple[tuple[Coeff, ...], ...], Coeff]:
    """The plane n . x = c as x = point + frame^T v, and its coarea factor 1/|n_p|."""
    normal = [Coeff.coerce(v) for v in normal]
    offset = Coeff.coerce(offset)
    n = len(normal)
    if not all(v.is_real() for v in normal):
        raise ValueError("hyperplane normal must be real")
    if not offset.is_real():
        raise ValueError("hyperplane offset must be real")
    p = next((k for k, v in enumerate(normal) if v), None)
    if p is None:
        raise ValueError("hyperplane normal must be nonzero")
    inv = normal[p].inverse()
    point = tuple(offset * inv if i == p else ZERO for i in range(n))
    frame = tuple(
        tuple(-normal[k] * inv if i == p else ONE if i == k else ZERO for i in range(n))
        for k in range(n)
        if k != p
    )
    return point, frame, abs(inv)


def _inverse_and_det(quad: Sequence[Sequence[Coeff]]) -> tuple[list[list[Coeff]], Coeff]:
    """S^-1 and det S of a real symmetric S that must be positive definite.

    Gauss-Jordan on [S | I] without row exchanges: its k-th pivot is the
    ratio of the k-th to the (k-1)-th leading principal minor, so S is
    positive definite iff every pivot is positive (Sylvester's criterion),
    and det S is the product of the pivots.  Otherwise QuadratureError.
    """
    m = len(quad)
    rows = [list(row) + [ONE if i == j else ZERO for j in range(m)] for i, row in enumerate(quad)]
    det = ONE
    for k in range(m):
        pivot = rows[k][k]
        if pivot.sign() <= 0:
            raise QuadratureError(
                "restricted Gaussian weight is not integrable "
                "(quadratic form not positive definite)"
            )
        det = det * pivot
        inv = pivot.inverse()
        rows[k] = [v * inv for v in rows[k]]
        for i in range(m):
            factor = rows[i][k]
            if i != k and factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return [row[m:] for row in rows], det


def _gaussian_mean(poly: PolyDict, cov: list[list[Coeff]], mu: list[Coeff]) -> Coeff:
    """Exact mean of the polynomial under the Gaussian with mean mu and covariance cov.

    Monomial moments follow from Stein's identity
    E[v_j q] = mu_j E[q] + sum_k cov_jk E[d_k q], memoised by multi-index.
    """
    units = [_unit_index(k, len(mu)) for k in range(len(mu))]
    moments: dict[MultiIndex, Coeff] = {_zero_index(len(mu)): ONE}

    def moment(alpha: MultiIndex) -> Coeff:
        if alpha not in moments:
            j = next(i for i, e in enumerate(alpha) if e)
            rest = _sub_indices(alpha, units[j])
            value = mu[j] * moment(rest)
            for k, e in enumerate(rest):
                if e and cov[j][k]:
                    value = value + cov[j][k] * e * moment(_sub_indices(rest, units[k]))
            moments[alpha] = value
        return moments[alpha]

    return sum((c * moment(alpha) for alpha, c in poly.items()), ZERO)


def delta_pair(dist: DeltaDist, test: PolyGauss) -> complex:
    """Pairing <dist, test> = (1/|n_p|) * integral of envelope * test over the plane.

    Restricted to the plane, envelope * test is P(v) exp(-1/2 v^T S v + t^T v + e0),
    all exact.  With C = S^-1 and mu = C t its integral is
    E[P] * sqrt((2 pi)^m / det S) * exp(e0 + 1/2 t^T mu), where E is the mean
    under the Gaussian N(mu, C).  E[P] is exact and only the scale is a float,
    so the pairing is exactly 0j whenever E[P] is 0.  Both weights must be
    real (ValueError); a weight that is not positive definite, or a scale
    beyond the float range, raises QuadratureError.
    """
    if test.nvars != dist.nvars:
        raise ValueError("test function dimension mismatch")
    for f in (test, dist.envelope):
        if not all(v.is_real() for v in (*f.lin, *(s for row in f.quad for s in row))):
            raise ValueError("pairing needs a real Gaussian weight")
    restricted, e0 = test.substitute_affine(dist.point, dist.frame)
    integrand = restricted * dist.envelope
    if integrand.is_zero():
        return 0j
    cov, det = _inverse_and_det(integrand.quad)
    mu = [sum((c * t for c, t in zip(row, integrand.lin)), ZERO) for row in cov]
    mean = _gaussian_mean(integrand.poly, cov, mu)
    if mean.is_zero():
        return 0j
    exponent = float(e0 + HALF * sum((t * u for t, u in zip(integrand.lin, mu)), ZERO))
    try:
        growth = math.exp(exponent)
    except OverflowError as exc:
        raise QuadratureError(f"pairing scale exp({exponent:.6g}) exceeds the float range") from exc
    scale = math.sqrt((2 * math.pi) ** len(mu) / float(det)) * growth * float(dist.coarea)
    return complex(mean) * scale


class DistributionalCheckReport(NamedTuple):
    """Weak-vacuum check: the largest |<dist, adjoint(op) test>| over a test family."""

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
    max_abs = 0.0
    for op in ops:
        adj = op_adjoint(op)
        for test in tests:
            max_abs = max(max_abs, abs(delta_pair(dist, op_apply(adj, test))))
    return DistributionalCheckReport(max_abs=max_abs, tol=tol, passes=max_abs < tol)
