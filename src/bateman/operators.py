"""Exact calculus for linear differential operators with polynomial coefficients.

Two value types carry the symbolic layer:

* ``PolyGauss`` -- a multivariate polynomial (coefficients in Q(sqrt2, i))
  times a Gaussian weight exp(-1/2 x^T S x + t^T x) with exact real S, t.
* ``LinDiffOp`` -- a finite sum of normal-ordered terms c * x^alpha d^beta
  (all multiplications to the left of all derivatives).  Normal order is the
  canonical form, so operator equality is decidable dictionary equality.

Unit convention: the oscillator length scale is absorbed into the variables
(m*omega = 1, hbar = 1), so every ladder coefficient lives in Q(sqrt2).
Physical parameters enter only through rational Hamiltonian prefactors.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product as _cartesian
from typing import TYPE_CHECKING, Iterable, Iterator, Literal, Mapping

from .field import Coeff, INV_SQRT2, ONE, ZERO

if TYPE_CHECKING:
    from .classical import BatemanParams

MultiIndex = tuple[int, ...]
PolyDict = dict[MultiIndex, Coeff]

Scalar = Coeff | int | Fraction


def _zero_index(nvars: int) -> MultiIndex:
    return (0,) * nvars


def _unit_index(k: int, nvars: int) -> MultiIndex:
    return tuple(1 if i == k else 0 for i in range(nvars))


def _add_indices(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def _sub_indices(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x - y for x, y in zip(a, b))


def monomial_str(alpha: MultiIndex, var: str = "x") -> str:
    parts = []
    for i, e in enumerate(alpha):
        if e == 1:
            parts.append(f"{var}{i + 1}")
        elif e > 1:
            parts.append(f"{var}{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# polynomial helpers (plain dicts: multi-index -> Coeff)
# ---------------------------------------------------------------------------

def poly_add_term(poly: PolyDict, index: MultiIndex, coeff: Coeff) -> None:
    cur = poly.get(index)
    new = coeff if cur is None else cur + coeff
    if new.is_zero():
        poly.pop(index, None)
    else:
        poly[index] = new


def poly_mul(p: PolyDict, q: PolyDict) -> PolyDict:
    out: PolyDict = {}
    for ia, ca in p.items():
        for ib, cb in q.items():
            poly_add_term(out, _add_indices(ia, ib), ca * cb)
    return out


def poly_scale(p: PolyDict, c: Coeff) -> PolyDict:
    if c.is_zero():
        return {}
    return {i: v * c for i, v in p.items()}


def poly_str(poly: PolyDict) -> str:
    if not poly:
        return "0"
    parts = []
    for idx in sorted(poly):
        mono = monomial_str(idx)
        parts.append(f"({poly[idx]})" if mono == "1" else f"({poly[idx]})*{mono}")
    return " + ".join(parts)


class PolyGauss:
    """P(x) * exp(-1/2 x^T S x + t^T x), all data exact.

    S is symmetrized on construction and must be real, as must t.  The zero
    function is represented by an empty polynomial; S and t are then inert
    bookkeeping.  Closed under every LinDiffOp and under products.
    """

    __slots__ = ("nvars", "poly", "quad", "lin")

    def __init__(
        self,
        nvars: int,
        poly: Mapping[MultiIndex, Scalar],
        quad: Iterable[Iterable[Scalar]] | None = None,
        lin: Iterable[Scalar] | None = None,
    ):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: PolyDict = {}
        for idx, c in poly.items():
            idx = tuple(idx)
            if len(idx) != nvars or any(e < 0 for e in idx):
                raise ValueError(f"bad multi-index {idx} for {nvars} variable(s)")
            poly_add_term(clean, idx, Coeff.coerce(c))
        self.poly = clean

        rows = [[Coeff.coerce(v) for v in row] for row in quad] if quad is not None else [
            [ZERO] * nvars for _ in range(nvars)
        ]
        if len(rows) != nvars or any(len(r) != nvars for r in rows):
            raise ValueError("quadratic form must be nvars x nvars")
        sym = [
            [(rows[i][j] + rows[j][i]) * Fraction(1, 2) for j in range(nvars)]
            for i in range(nvars)
        ]
        for row in sym:
            for v in row:
                if not v.is_real():
                    raise ValueError("quadratic form entries must be real")
        self.quad = tuple(tuple(row) for row in sym)

        tvec = [Coeff.coerce(v) for v in lin] if lin is not None else [ZERO] * nvars
        if len(tvec) != nvars:
            raise ValueError("linear term must have nvars entries")
        for v in tvec:
            if not v.is_real():
                raise ValueError("linear term entries must be real")
        self.lin = tuple(tvec)

    # -- constructors --------------------------------------------------------

    @classmethod
    def gaussian(
        cls,
        quad: Iterable[Iterable[Scalar]],
        lin: Iterable[Scalar] | None = None,
    ) -> PolyGauss:
        rows = [list(r) for r in quad]
        n = len(rows)
        return cls(n, {_zero_index(n): ONE}, rows, lin)

    @classmethod
    def standard_vacuum(cls, nvars: int) -> PolyGauss:
        """exp(-|x|^2 / 2), the joint ground state of the plain ladder pairs."""
        eye = [[1 if i == j else 0 for j in range(nvars)] for i in range(nvars)]
        return cls.gaussian(eye)

    @classmethod
    def zero(cls, nvars: int) -> PolyGauss:
        return cls(nvars, {})

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.poly

    def same_weight(self, other: PolyGauss) -> bool:
        return (
            self.nvars == other.nvars
            and self.quad == other.quad
            and self.lin == other.lin
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyGauss):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return self.nvars == other.nvars
        return self.same_weight(other) and self.poly == other.poly

    def __hash__(self) -> int:
        if self.is_zero():
            return hash((self.nvars, "zero"))
        return hash((self.nvars, frozenset(self.poly.items()), self.quad, self.lin))

    @property
    def degree(self) -> int:
        return max((sum(i) for i in self.poly), default=0)

    # -- algebra ----------------------------------------------------------------

    def _with_poly(self, poly: PolyDict) -> PolyGauss:
        out = object.__new__(PolyGauss)
        out.nvars = self.nvars
        out.poly = poly
        out.quad = self.quad
        out.lin = self.lin
        return out

    def __add__(self, other: PolyGauss) -> PolyGauss:
        if not isinstance(other, PolyGauss):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if not self.same_weight(other):
            raise ValueError("cannot add PolyGauss values with different weights")
        out = dict(self.poly)
        for idx, c in other.poly.items():
            poly_add_term(out, idx, c)
        return self._with_poly(out)

    def __neg__(self) -> PolyGauss:
        return self._with_poly({i: -c for i, c in self.poly.items()})

    def __sub__(self, other: PolyGauss) -> PolyGauss:
        return self + (-other)

    def __mul__(self, other: "PolyGauss | Scalar") -> PolyGauss:
        if isinstance(other, PolyGauss):
            if self.nvars != other.nvars:
                raise ValueError("variable count mismatch in PolyGauss product")
            quad = [
                [self.quad[i][j] + other.quad[i][j] for j in range(self.nvars)]
                for i in range(self.nvars)
            ]
            lin = [self.lin[i] + other.lin[i] for i in range(self.nvars)]
            return PolyGauss(self.nvars, poly_mul(self.poly, other.poly), quad, lin)
        return self._with_poly(poly_scale(self.poly, Coeff.coerce(other)))

    def __rmul__(self, other: Scalar) -> PolyGauss:
        return self * other

    def mul_x(self, k: int) -> PolyGauss:
        ek = _unit_index(k, self.nvars)
        return self._with_poly({_add_indices(i, ek): c for i, c in self.poly.items()})

    def diff(self, k: int) -> PolyGauss:
        """d/dx_k of P e^Q = (dP + P dQ) e^Q, with dQ_k = t_k - (S x)_k."""
        ek = _unit_index(k, self.nvars)
        t = self.lin[k]
        # x_j P picks up -S[k][j]; only the nonzero entries contribute
        srow = [(_unit_index(j, self.nvars), -s) for j, s in enumerate(self.quad[k]) if s]
        out: PolyDict = {}
        for idx, c in self.poly.items():
            if idx[k] > 0:
                poly_add_term(out, _sub_indices(idx, ek), c * idx[k])
            if t:
                poly_add_term(out, idx, c * t)
            for ej, neg_s in srow:
                poly_add_term(out, _add_indices(idx, ej), c * neg_s)
        return self._with_poly(out)

    # -- evaluation ---------------------------------------------------------------

    def __call__(self, point: Iterable[complex]) -> complex:
        pt = [complex(v) for v in point]
        if len(pt) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = 0j
        for idx, c in self.poly.items():
            mono = complex(c)
            for v, e in zip(pt, idx):
                mono *= v**e
            total += mono
        expo = 0j
        for i in range(self.nvars):
            expo += complex(self.lin[i]) * pt[i]
            for j in range(self.nvars):
                expo -= 0.5 * complex(self.quad[i][j]) * pt[i] * pt[j]
        return total * _cexp(expo)

    def substitute_affine(
        self, shift: Iterable[Scalar], frame: Iterable[Iterable[Scalar]]
    ) -> tuple[PolyGauss, Coeff]:
        """Restrict along x = shift + frame^T v; returns (PolyGauss in v, e0).

        frame has one row per new variable.  The Gaussian weight picks up the
        exact exponent constant e0 = -1/2 b^T S b + t^T b, returned separately
        because exp(e0) is generally outside the coefficient field.
        """
        b = [Coeff.coerce(v) for v in shift]
        rows = [[Coeff.coerce(v) for v in row] for row in frame]
        if len(b) != self.nvars or any(len(r) != self.nvars for r in rows):
            raise ValueError("affine substitution shape mismatch")
        m = len(rows)

        sb = [
            sum((self.quad[i][j] * b[j] for j in range(self.nvars)), ZERO)
            for i in range(self.nvars)
        ]
        e0 = sum((self.lin[i] * b[i] for i in range(self.nvars)), ZERO) - Fraction(
            1, 2
        ) * sum((b[i] * sb[i] for i in range(self.nvars)), ZERO)

        fs = [
            [
                sum((rows[r][i] * self.quad[i][j] for i in range(self.nvars)), ZERO)
                for j in range(self.nvars)
            ]
            for r in range(m)
        ]
        quad_new = [
            [
                sum((fs[r][j] * rows[s][j] for j in range(self.nvars)), ZERO)
                for s in range(m)
            ]
            for r in range(m)
        ]
        lin_new = [
            sum((rows[r][i] * (self.lin[i] - sb[i]) for i in range(self.nvars)), ZERO)
            for r in range(m)
        ]

        # x_i as an affine polynomial in v
        substitutions: list[PolyDict] = []
        for i in range(self.nvars):
            p: PolyDict = {}
            if b[i]:
                p[_zero_index(m)] = b[i]
            for r in range(m):
                if rows[r][i]:
                    poly_add_term(p, _unit_index(r, m), rows[r][i])
            substitutions.append(p)

        new_poly: PolyDict = {}
        for idx, c in self.poly.items():
            term: PolyDict = {_zero_index(m): ONE}
            for i, e in enumerate(idx):
                for _ in range(e):
                    term = poly_mul(term, substitutions[i])
            for mono, v in term.items():
                poly_add_term(new_poly, mono, v * c)
        return PolyGauss(m, new_poly, quad_new, lin_new), e0

    def __repr__(self) -> str:
        return f"PolyGauss({self.nvars}, {self.poly!r}, {self.quad!r}, {self.lin!r})"

    def __str__(self) -> str:
        quad_parts = []
        for i in range(self.nvars):
            for j in range(i, self.nvars):
                s = self.quad[i][j] if i == j else self.quad[i][j] * 2
                if s:
                    mono = monomial_str(_add_indices(_unit_index(i, self.nvars), _unit_index(j, self.nvars)))
                    quad_parts.append(f"({-s * Fraction(1, 2)})*{mono}")
        for i, t in enumerate(self.lin):
            if t:
                quad_parts.append(f"({t})*x{i + 1}")
        expo = " + ".join(quad_parts) if quad_parts else "0"
        return f"[{poly_str(self.poly)}] * exp({expo})"


def _cexp(z: complex) -> complex:
    return cmath.exp(z)


# ---------------------------------------------------------------------------
# normal-ordered differential operators
# ---------------------------------------------------------------------------

TermKey = tuple[MultiIndex, MultiIndex]


class LinDiffOp:
    """Sum of c * x^alpha d^beta in canonical normal order.

    Zero coefficients are pruned, so two operators are equal iff their term
    dictionaries are equal.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[TermKey, Scalar] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        self.nvars = nvars
        clean: dict[TermKey, Coeff] = {}
        if terms:
            for (alpha, beta), c in terms.items():
                alpha, beta = tuple(alpha), tuple(beta)
                if len(alpha) != nvars or len(beta) != nvars:
                    raise ValueError("multi-index length mismatch")
                if any(e < 0 for e in alpha + beta):
                    raise ValueError("negative exponent in multi-index")
                cur = clean.get((alpha, beta))
                new = Coeff.coerce(c) if cur is None else cur + Coeff.coerce(c)
                if new.is_zero():
                    clean.pop((alpha, beta), None)
                else:
                    clean[(alpha, beta)] = new
        self.terms = clean

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> LinDiffOp:
        return cls(nvars)

    @classmethod
    def identity(cls, nvars: int) -> LinDiffOp:
        z = _zero_index(nvars)
        return cls(nvars, {(z, z): ONE})

    @classmethod
    def position(cls, k: int, nvars: int) -> LinDiffOp:
        cls._check_mode(k, nvars)
        return cls(nvars, {(_unit_index(k, nvars), _zero_index(nvars)): ONE})

    @classmethod
    def derivative(cls, k: int, nvars: int) -> LinDiffOp:
        cls._check_mode(k, nvars)
        return cls(nvars, {(_zero_index(nvars), _unit_index(k, nvars)): ONE})

    @classmethod
    def multiplication(cls, poly: Mapping[MultiIndex, Scalar], nvars: int) -> LinDiffOp:
        z = _zero_index(nvars)
        return cls(nvars, {(tuple(alpha), z): c for alpha, c in poly.items()})

    @staticmethod
    def _check_mode(k: int, nvars: int) -> None:
        if not 0 <= k < nvars:
            raise ValueError(f"mode {k} out of range for {nvars} variable(s)")

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def as_scalar(self) -> Coeff | None:
        """The coefficient if the operator is c * identity (0 if zero), else None."""
        if not self.terms:
            return ZERO
        z = _zero_index(self.nvars)
        if set(self.terms) == {(z, z)}:
            return self.terms[(z, z)]
        return None

    def multiplication_part(self) -> PolyDict:
        z = _zero_index(self.nvars)
        return {alpha: c for (alpha, beta), c in self.terms.items() if beta == z}

    def derivative_part(self) -> dict[TermKey, Coeff]:
        z = _zero_index(self.nvars)
        return {key: c for key, c in self.terms.items() if key[1] != z}

    def is_multiplication(self) -> bool:
        return not self.derivative_part()

    @property
    def derivative_order(self) -> int:
        return max((sum(beta) for _, beta in self.terms), default=0)

    @property
    def poly_degree(self) -> int:
        return max((sum(alpha) for alpha, _ in self.terms), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinDiffOp):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- linear algebra -----------------------------------------------------------

    def __add__(self, other: "LinDiffOp | Scalar") -> LinDiffOp:
        if isinstance(other, (Coeff, int, Fraction)):
            other = LinDiffOp.identity(self.nvars).scale(other)
        if not isinstance(other, LinDiffOp):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch in operator sum")
        out = dict(self.terms)
        for key, c in other.terms.items():
            cur = out.get(key)
            new = c if cur is None else cur + c
            if new.is_zero():
                out.pop(key, None)
            else:
                out[key] = new
        return self._raw(self.nvars, out)

    def __radd__(self, other: Scalar) -> LinDiffOp:
        return self + other

    def __neg__(self) -> LinDiffOp:
        return self._raw(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LinDiffOp | Scalar") -> LinDiffOp:
        if isinstance(other, (Coeff, int, Fraction)):
            other = LinDiffOp.identity(self.nvars).scale(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> LinDiffOp:
        return (-self) + other

    def scale(self, c: Scalar) -> LinDiffOp:
        c = Coeff.coerce(c)
        if c.is_zero():
            return LinDiffOp.zero(self.nvars)
        return self._raw(self.nvars, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "LinDiffOp | Scalar") -> LinDiffOp:
        if isinstance(other, LinDiffOp):
            return op_compose(self, other)
        return self.scale(other)

    def __rmul__(self, other: Scalar) -> LinDiffOp:
        return self.scale(other)

    @classmethod
    def _raw(cls, nvars: int, terms: dict[TermKey, Coeff]) -> LinDiffOp:
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    # -- rendering ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"LinDiffOp({self.nvars}, {self.terms!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for alpha, beta in sorted(self.terms):
            c = self.terms[(alpha, beta)]
            factors = []
            xs = monomial_str(alpha, "x")
            ds = monomial_str(beta, "d")
            if xs != "1":
                factors.append(xs)
            if ds != "1":
                factors.append(ds)
            body = "*".join(factors)
            parts.append(f"({c})*{body}" if body else f"({c})")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# the calculus
# ---------------------------------------------------------------------------

def _exchange(beta: MultiIndex, alpha: MultiIndex) -> Iterator[tuple[MultiIndex, int]]:
    """Normal-order d^beta x^alpha: yields (j, m) with term m * x^(alpha-j) d^(beta-j).

    Componentwise this is the resolved Leibniz exchange d x = x d + 1:
    d^b x^a = sum_j C(b,j) C(a,j) j! x^(a-j) d^(b-j).
    """
    ranges = [range(min(b, a) + 1) for b, a in zip(beta, alpha)]
    for j in _cartesian(*ranges):
        m = 1
        for b, a, ji in zip(beta, alpha, j):
            m *= math.comb(b, ji) * math.comb(a, ji) * math.factorial(ji)
        yield j, m


def op_compose(left: LinDiffOp, right: LinDiffOp) -> LinDiffOp:
    """Product of two operators in canonical normal order; exact."""
    if left.nvars != right.nvars:
        raise ValueError(
            f"operator composition: variable counts differ ({left.nvars} vs {right.nvars})"
        )
    out: dict[TermKey, Coeff] = {}
    for (a1, b1), c1 in left.terms.items():
        for (a2, b2), c2 in right.terms.items():
            c = c1 * c2
            for j, m in _exchange(b1, a2):
                key = (
                    _add_indices(a1, _sub_indices(a2, j)),
                    _add_indices(_sub_indices(b1, j), b2),
                )
                cur = out.get(key)
                new = c * m if cur is None else cur + c * m
                if new.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = new
    return LinDiffOp._raw(left.nvars, out)


def op_apply(op: LinDiffOp, f: PolyGauss) -> PolyGauss:
    """Apply a normal-ordered operator to a Gaussian-polynomial function; exact.

    Each derivative d^beta f is computed once per call, as d_k of
    d^(beta - e_k) f with k the last mode that beta differentiates, so the
    derivatives are taken in mode order, as differentiating f mode by mode
    takes them, and the terms come out in the same order.  Every term
    c x^alpha d^beta f is added into one dict.
    """
    if op.nvars != f.nvars:
        raise ValueError(
            f"operator application: variable counts differ ({op.nvars} vs {f.nvars})"
        )
    derivs: dict[MultiIndex, PolyGauss] = {_zero_index(f.nvars): f}

    def derivative(beta: MultiIndex) -> PolyGauss:
        g = derivs.get(beta)
        if g is None:
            k = max(i for i, b in enumerate(beta) if b)
            g = derivative(_sub_indices(beta, _unit_index(k, f.nvars))).diff(k)
            derivs[beta] = g
        return g

    out: PolyDict = {}
    for (alpha, beta), c in op.terms.items():
        for idx, v in derivative(beta).poly.items():
            poly_add_term(out, _add_indices(idx, alpha), v * c)
    return f._with_poly(out)


def commutator(x: LinDiffOp, y: LinDiffOp) -> LinDiffOp:
    return op_compose(x, y) - op_compose(y, x)


def op_adjoint(op: LinDiffOp) -> LinDiffOp:
    """Formal L2 adjoint: x_k -> x_k, d_k -> -d_k, scalars conjugated.

    (x^a d^b)^dagger = (-1)^|b| d^b x^a, then normal-ordered; involutive.
    """
    out: dict[TermKey, Coeff] = {}
    for (alpha, beta), c in op.terms.items():
        sign = -1 if sum(beta) % 2 else 1
        cc = c.conjugate() * sign
        for j, m in _exchange(beta, alpha):
            key = (_sub_indices(alpha, j), _sub_indices(beta, j))
            cur = out.get(key)
            new = cc * m if cur is None else cur + cc * m
            if new.is_zero():
                out.pop(key, None)
            else:
                out[key] = new
    return LinDiffOp._raw(op.nvars, out)


# ---------------------------------------------------------------------------
# named operators (unit convention m*omega = 1)
# ---------------------------------------------------------------------------

LadderKind = Literal["lower", "raise"]


def make_ladder(mode: int, kind: LadderKind, nvars: int) -> LinDiffOp:
    """Bosonic ladder operator for one mode: (x_k + d_k)/sqrt2 or (x_k - d_k)/sqrt2."""
    LinDiffOp._check_mode(mode, nvars)
    if kind not in ("lower", "raise"):
        raise ValueError(f"unknown ladder kind {kind!r}")
    x = LinDiffOp.position(mode, nvars)
    d = LinDiffOp.derivative(mode, nvars)
    combo = x + d if kind == "lower" else x - d
    return combo.scale(INV_SQRT2)


PSEUDO_NAMES = (
    "A1",
    "A2",
    "B1",
    "B2",
    "abar1minus",
    "abar2minus",
    "abar1plus",
    "abar2plus",
)


def make_pseudo(which: str) -> LinDiffOp:
    """Two-mode pseudo-bosonic ladder combinations, by name.

    The abar* names expose both sign branches of the mixed definitions; no
    default branch is chosen.  The minus branches coincide with A1, A2 and
    the plus branches with B2, B1 (theorems, covered by tests -- each entry
    below is built from its own defining combination).
    """
    a1 = make_ladder(0, "lower", 2)
    a2 = make_ladder(1, "lower", 2)
    a1d = make_ladder(0, "raise", 2)
    a2d = make_ladder(1, "raise", 2)
    table = {
        "A1": a1 - a2d,
        "A2": -a1d + a2,
        "B1": a1d + a2,
        "B2": a1 + a2d,
        "abar1minus": a1 - a2d,
        "abar2minus": -a1d + a2,
        "abar1plus": a1 + a2d,
        "abar2plus": a1d + a2,
    }
    if which not in table:
        raise ValueError(f"unknown pseudo-boson name {which!r}; expected one of {PSEUDO_NAMES}")
    return table[which].scale(INV_SQRT2)


HamiltonianForm = Literal["bosonic", "pseudo"]
HamiltonianPart = Literal["full", "free", "interaction"]


def hamiltonian_build(
    params: "BatemanParams",
    form: HamiltonianForm,
    part: HamiltonianPart = "full",
) -> LinDiffOp:
    """Two-mode Hamiltonian in canonical form.

    ``bosonic``: H0 = omega (a1+ a1 - a2+ a2), HI = (i gamma / 2m)(a1 a2 - a1+ a2+).
    ``pseudo``:  H0 = omega (B1 A1 - B2 A2),  HI = (i gamma / 2m)(B1 A1 + B2 A2 + 1).

    The two forms normal-order to the identical operator for every rational
    (m, omega, gamma).  omega must be an exact rational; construct the
    parameters via ``BatemanParams.from_omega`` for that.
    """
    if form not in ("bosonic", "pseudo"):
        raise ValueError(f"unknown Hamiltonian form {form!r}")
    if part not in ("full", "free", "interaction"):
        raise ValueError(f"unknown Hamiltonian part {part!r}")
    omega = params.rational_omega
    if omega is None:
        raise ValueError(
            "exact Hamiltonian build needs rational omega; "
            "construct parameters with BatemanParams.from_omega"
        )
    ig = Coeff(0, 0, params.gamma / (2 * params.m), 0)

    if form == "bosonic":
        a1 = make_ladder(0, "lower", 2)
        a2 = make_ladder(1, "lower", 2)
        a1d = make_ladder(0, "raise", 2)
        a2d = make_ladder(1, "raise", 2)
        free = (a1d * a1 - a2d * a2).scale(omega)
        inter = (a1 * a2 - a1d * a2d).scale(ig)
    else:
        big_a1, big_a2 = make_pseudo("A1"), make_pseudo("A2")
        big_b1, big_b2 = make_pseudo("B1"), make_pseudo("B2")
        n1 = big_b1 * big_a1
        n2 = big_b2 * big_a2
        free = (n1 - n2).scale(omega)
        inter = (n1 + n2 + LinDiffOp.identity(2)).scale(ig)

    if part == "free":
        return free
    if part == "interaction":
        return inter
    return free + inter
