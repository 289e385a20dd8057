"""Exact calculus for linear differential operators with polynomial coefficients.

Two value types carry the symbolic layer:

* ``PolyGauss`` -- a multivariate polynomial (coefficients in Q(sqrt2, i))
  times a Gaussian weight exp(-1/2 x^T S x + t^T x) with exact S, t.
* ``LinDiffOp`` -- a finite sum of normal-ordered terms c * x^alpha d^beta
  (all multiplications to the left of all derivatives).  Normal order is the
  canonical form, so operator equality is decidable dictionary equality.

Unit convention: the oscillator length scale is absorbed into the variables
(m*omega = 1, hbar = 1), so every ladder coefficient lives in Q(sqrt2).
The pseudo-boson family is one table of integer weights over the ladders,
``PSEUDO_WEIGHTS``.  Physical parameters enter only through the rational
prefactors of H = omega F + (i gamma / 2m) G, whose parts F and G
(``hamiltonian_parts``) are parameter-free, so comparing the parts of the two
assemblies once compares them at every (m, gamma, omega).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from operator import add, sub
from typing import TYPE_CHECKING, Iterable, Literal, Mapping, TypeVar

from .field import (
    Coeff,
    INV_SQRT2,
    ONE,
    ZERO,
    Numerators,
    _canonical,
    mul_numerators,
    over_common_denominator,
)

if TYPE_CHECKING:
    from .classical import BatemanParams

MultiIndex = tuple[int, ...]
PolyDict = dict[MultiIndex, Coeff]

Scalar = Coeff | int | Fraction
Key = TypeVar("Key")


def _zero_index(nvars: int) -> MultiIndex:
    return (0,) * nvars


def _unit_index(k: int, nvars: int) -> MultiIndex:
    return tuple(1 if i == k else 0 for i in range(nvars))


def _add_indices(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(add, a, b))


def _sub_indices(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(sub, a, b))


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

def poly_add_term(poly: dict[Key, Coeff], key: Key, coeff: Coeff) -> None:
    """Add coeff into the sparse map at key, dropping a zero result.

    This is the one no-zero rule of the exact layer: every sum into a sparse
    map of coefficients follows it, so no map stores a zero and map equality
    is value equality.  Sums of ``Coeff`` values go through this update; the
    kernels ``op_apply``, ``op_compose`` and ``op_adjoint`` sum integer
    numerators over one denominator with ``_add_numerators``, which applies
    the same rule, so their terms come out in the order this update gives.
    """
    cur = poly.get(key)
    new = coeff if cur is None else cur + coeff
    if new.is_zero():
        poly.pop(key, None)
    else:
        poly[key] = new


def poly_mul(p: PolyDict, q: PolyDict) -> PolyDict:
    out: PolyDict = {}
    for ia, ca in p.items():
        for ib, cb in q.items():
            poly_add_term(out, _add_indices(ia, ib), ca * cb)
    return out


def poly_scale(p: dict[Key, Coeff], c: Coeff) -> dict[Key, Coeff]:
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

    S is symmetrized on construction; S and t may be complex.  The zero
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
        self.quad = tuple(tuple(row) for row in sym)

        tvec = [Coeff.coerce(v) for v in lin] if lin is not None else [ZERO] * nvars
        if len(tvec) != nvars:
            raise ValueError("linear term must have nvars entries")
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
        return total * cmath.exp(expo)

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
                poly_add_term(clean, (alpha, beta), Coeff.coerce(c))
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
            poly_add_term(out, key, c)
        return self._raw(self.nvars, out)

    def __radd__(self, other: Scalar) -> LinDiffOp:
        return self + other

    def __neg__(self) -> LinDiffOp:
        return self._raw(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LinDiffOp | Scalar") -> LinDiffOp:
        return self + (-other)

    def __rsub__(self, other: Scalar) -> LinDiffOp:
        return (-self) + other

    def scale(self, c: Scalar) -> LinDiffOp:
        return self._raw(self.nvars, poly_scale(self.terms, Coeff.coerce(c)))

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

def _add_numerators(acc: dict[Key, Numerators], key: Key, nums: Numerators) -> None:
    """``poly_add_term`` on numerators over one common denominator.

    The running sum at key drops out when it is zero, as a zero Coeff does,
    so the keys of acc come in the order ``poly_add_term`` would leave them.
    """
    cur = acc.get(key)
    if cur is not None:
        nums = (cur[0] + nums[0], cur[1] + nums[1], cur[2] + nums[2], cur[3] + nums[3])
    if nums != (0, 0, 0, 0):
        acc[key] = nums
    else:
        acc.pop(key, None)


def _reduced(acc: dict[Key, Numerators], denominator: int) -> dict[Key, Coeff]:
    """Each accumulated sum as a Coeff: one reduction per output term."""
    return {key: _canonical(a, b, c, d, denominator) for key, (a, b, c, d) in acc.items()}


@lru_cache(maxsize=4096)  # bounded: a long-lived caller may meet ever higher orders
def _exchange(beta: MultiIndex, alpha: MultiIndex) -> tuple[tuple[TermKey, int], ...]:
    """Normal-order d^beta x^alpha: pairs ((alpha - j, beta - j), m), one per
    term m * x^(alpha-j) d^(beta-j).

    Componentwise this is the resolved Leibniz exchange d x = x d + 1:
    d^b x^a = sum_j C(b,j) C(a,j) j! x^(a-j) d^(b-j).  The table depends on
    (beta, alpha) alone, so it is built once per pair.
    """
    ranges = [range(min(b, a) + 1) for b, a in zip(beta, alpha)]
    return tuple(
        ((_sub_indices(alpha, j), _sub_indices(beta, j)), math.prod(
            math.comb(b, i) * math.comb(a, i) * math.factorial(i)
            for b, a, i in zip(beta, alpha, j)
        ))
        for j in _cartesian(*ranges)
    )


def op_compose(left: LinDiffOp, right: LinDiffOp) -> LinDiffOp:
    """Product of two operators in canonical normal order; exact.

    Each side is brought to one common denominator, the terms accumulate as
    integer numerators, and each output term is reduced once.
    """
    if left.nvars != right.nvars:
        raise ValueError(
            f"operator composition: variable counts differ ({left.nvars} vs {right.nvars})"
        )
    lnums, ln = over_common_denominator(left.terms.values())
    rnums, rn = over_common_denominator(right.terms.values())
    out: dict[TermKey, Numerators] = {}
    for (a1, b1), (la, lb, lc, ld) in zip(left.terms, lnums):
        for (a2, b2), (ra, rb, rc, rd) in zip(right.terms, rnums):
            pa, pb, pc, pd = mul_numerators(la, lb, lc, ld, ra, rb, rc, rd)
            for (a, b), m in _exchange(b1, a2):
                key = (_add_indices(a1, a), _add_indices(b, b2))
                _add_numerators(out, key, (m * pa, m * pb, m * pc, m * pd))
    return LinDiffOp._raw(left.nvars, _reduced(out, ln * rn))


def _diff_numerators(
    g: dict[int, Numerators],
    place: int,
    base: int,
    lin: Numerators,
    neg_row: list[tuple[int, Numerators]],
    denominator: int,
) -> dict[int, Numerators]:
    """d/dx_k of P e^Q = (dP + P dQ) e^Q, with dQ_k = t_k - (S x)_k, on numerators.

    g holds P over some G, keyed by monomial codes (see ``op_apply``), and
    place is B^k.  lin is t_k, and neg_row the place B^j with -S[k][j] for
    each nonzero entry, over ``denominator``.  The result is over
    G * denominator.
    """
    ta, tb, tc, td = lin
    has_lin = any(lin)
    out: dict[int, Numerators] = {}
    for code, (a, b, c, d) in g.items():
        e = code // place % base
        if e:
            e *= denominator
            _add_numerators(out, code - place, (a * e, b * e, c * e, d * e))
        if has_lin:
            _add_numerators(out, code, mul_numerators(a, b, c, d, ta, tb, tc, td))
        for pj, (sa, sb, sc, sd) in neg_row:
            _add_numerators(out, code + pj, mul_numerators(a, b, c, d, sa, sb, sc, sd))
    return out


def op_apply(op: LinDiffOp, f: PolyGauss) -> PolyGauss:
    """Apply a normal-ordered operator to a Gaussian-polynomial function; exact.

    Each derivative d^beta f is computed once per call, as d_k of
    d^(beta - e_k) f with k the last mode that beta differentiates, so the
    derivatives are taken in mode order, as differentiating f mode by mode
    takes them, and the terms come out in the same order.  With N0 the
    common denominator of f's polynomial and D that of its S and t, d^beta f
    is kept as integer numerators over N0 * D^|beta|.  Every term
    c x^alpha d^beta f is added into one map of numerators over one
    denominator, and each output term is reduced once.

    Inside the call a monomial x^idx is keyed by its code sum_i idx_i B^i,
    with B above every exponent a term can reach, so multiplying by x_j or
    x^alpha adds a code and no exponent carries into the next place.
    """
    if op.nvars != f.nvars:
        raise ValueError(
            f"operator application: variable counts differ ({op.nvars} vs {f.nvars})"
        )
    nvars = f.nvars
    top = max((sum(beta) for _, beta in op.terms), default=0)
    base = 1 + top + max((e for idx in f.poly for e in idx), default=0) + max(
        (e for alpha, _ in op.terms for e in alpha), default=0
    )
    places = [base**i for i in range(nvars)]

    def code(idx: MultiIndex) -> int:
        return sum(e * p for e, p in zip(idx, places))

    pnums, n0 = over_common_denominator(f.poly.values())
    wnums, dw = over_common_denominator([*(s for row in f.quad for s in row), *f.lin])
    lin = wnums[nvars * nvars:]
    neg_rows = [
        [
            (places[j], (-a, -b, -c, -d))
            for j, (a, b, c, d) in enumerate(wnums[k * nvars:(k + 1) * nvars])
            if a or b or c or d
        ]
        for k in range(nvars)
    ]
    derivs: dict[MultiIndex, dict[int, Numerators]] = {
        _zero_index(nvars): {code(idx): v for idx, v in zip(f.poly, pnums)}
    }

    def derivative(beta: MultiIndex) -> dict[int, Numerators]:
        g = derivs.get(beta)
        if g is None:
            k = max(i for i, b in enumerate(beta) if b)
            lower = derivative(_sub_indices(beta, _unit_index(k, nvars)))
            g = _diff_numerators(lower, places[k], base, lin[k], neg_rows[k], dw)
            derivs[beta] = g
        return g

    cnums, nc = over_common_denominator(op.terms.values())
    out: dict[int, Numerators] = {}
    for (alpha, beta), (a, b, c, d) in zip(op.terms, cnums):
        # d^beta f is over N0 D^|beta|: every product is brought to N0 D^top nc
        lift = dw ** (top - sum(beta))
        a, b, c, d = a * lift, b * lift, c * lift, d * lift
        shift = code(alpha)
        for key, (va, vb, vc, vd) in derivative(beta).items():
            _add_numerators(out, key + shift, mul_numerators(va, vb, vc, vd, a, b, c, d))
    reduced = _reduced(out, n0 * dw**top * nc)
    return f._with_poly(
        {tuple(key // p % base for p in places): v for key, v in reduced.items()}
    )


def commutator(x: LinDiffOp, y: LinDiffOp) -> LinDiffOp:
    return op_compose(x, y) - op_compose(y, x)


def op_adjoint(op: LinDiffOp) -> LinDiffOp:
    """Formal L2 adjoint: x_k -> x_k, d_k -> -d_k, scalars conjugated.

    (x^a d^b)^dagger = (-1)^|b| d^b x^a, then normal-ordered; involutive.
    The terms accumulate as integer numerators over one common denominator.
    """
    nums, n = over_common_denominator(op.terms.values())
    out: dict[TermKey, Numerators] = {}
    for (alpha, beta), (a, b, c, d) in zip(op.terms, nums):
        sign = -1 if sum(beta) % 2 else 1
        for key, m in _exchange(beta, alpha):
            sm = sign * m
            # the conjugate negates the imaginary numerators
            _add_numerators(out, key, (sm * a, sm * b, -sm * c, -sm * d))
    return LinDiffOp._raw(op.nvars, _reduced(out, n))


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


# The pseudo-boson family and both sign branches of the mixed lowering
# operators, as integer weights over the ladders (a1, a2, a1+, a2+): each
# operator is sum_i w_i ladder_i / sqrt2.  The minus branches coincide with
# A1, A2 and the plus branches with B2, B1 (theorems, covered by tests, which
# write every combination out on its own).
PSEUDO_WEIGHTS = {
    "A1": (1, 0, 0, -1),
    "A2": (0, 1, -1, 0),
    "B1": (0, 1, 1, 0),
    "B2": (1, 0, 0, 1),
    "abar1minus": (1, 0, 0, -1),
    "abar2minus": (0, 1, -1, 0),
    "abar1plus": (1, 0, 0, 1),
    "abar2plus": (0, 1, 1, 0),
}


def _ladders() -> tuple[LinDiffOp, ...]:
    """The two-mode ladders (a1, a2, a1+, a2+)."""
    return tuple(make_ladder(mode, kind, 2) for kind in ("lower", "raise") for mode in (0, 1))


def make_pseudo(which: str) -> LinDiffOp:
    """One two-mode pseudo-bosonic ladder combination: its ``PSEUDO_WEIGHTS`` row.

    The abar* names expose both sign branches of the mixed definitions; no
    default branch is chosen.
    """
    weights = PSEUDO_WEIGHTS.get(which)
    if weights is None:
        raise ValueError(
            f"unknown pseudo-boson name {which!r}; expected one of {tuple(PSEUDO_WEIGHTS)}"
        )
    terms = (ladder.scale(w) for w, ladder in zip(weights, _ladders()) if w)
    return sum(terms, LinDiffOp.zero(2)).scale(INV_SQRT2)


HamiltonianForm = Literal["bosonic", "pseudo"]


def hamiltonian_parts(form: HamiltonianForm) -> tuple[LinDiffOp, LinDiffOp]:
    """The parameter-free parts (F, G) of H = omega F + (i gamma / 2m) G.

    ``bosonic``: F = a1+ a1 - a2+ a2, G = a1 a2 - a1+ a2+.
    ``pseudo``:  F = B1 A1 - B2 A2,   G = B1 A1 + B2 A2 + 1.
    """
    if form == "bosonic":
        a1, a2, a1d, a2d = _ladders()
        return a1d * a1 - a2d * a2, a1 * a2 - a1d * a2d
    if form == "pseudo":
        n1 = make_pseudo("B1") * make_pseudo("A1")
        n2 = make_pseudo("B2") * make_pseudo("A2")
        return n1 - n2, n1 + n2 + LinDiffOp.identity(2)
    raise ValueError(f"unknown Hamiltonian form {form!r}")


def hamiltonian_build(params: "BatemanParams", form: HamiltonianForm) -> LinDiffOp:
    """Two-mode Hamiltonian in canonical form: omega F + (i gamma / 2m) G over
    the ``hamiltonian_parts`` of ``form``.

    Both forms share this one assembly, so equal parts give the identical
    operator for every (m, gamma, omega).  omega must be an exact rational;
    construct the parameters via ``BatemanParams.from_omega`` for that.
    """
    free, interaction = hamiltonian_parts(form)
    omega = params.rational_omega
    if omega is None:
        raise ValueError(
            "exact Hamiltonian build needs rational omega; "
            "construct parameters with BatemanParams.from_omega"
        )
    return free.scale(omega) + interaction.scale(Coeff(0, 0, params.gamma / (2 * params.m), 0))
