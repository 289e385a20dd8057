"""Exact scalar arithmetic in the field Q(sqrt2, i).

Every value is (a + b*sqrt2) + i*(c + d*sqrt2) with rational a, b, c, d.
The field is closed under +, -, *, and division by nonzero elements, and
equality is decidable componentwise.  This is the coefficient field for the
whole symbolic layer: ladder operators only ever need 1/sqrt2 = sqrt2/2, and
Hamiltonian prefactors are rational multiples of 1 and i.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, sqrt as _float_sqrt
from typing import Union

RatLike = Union[int, Fraction]

_SQRT2_FLOAT = _float_sqrt(2.0)


def _rat(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class Coeff:
    """One element of Q(sqrt2, i), stored as four exact rationals."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: RatLike = 0, b: RatLike = 0, c: RatLike = 0, d: RatLike = 0):
        self.a = _rat(a)
        self.b = _rat(b)
        self.c = _rat(c)
        self.d = _rat(d)

    @classmethod
    def from_rational(cls, x: RatLike) -> Coeff:
        return cls(_rat(x))

    @staticmethod
    def coerce(x: "Coeff | RatLike") -> Coeff:
        if isinstance(x, Coeff):
            return x
        return Coeff(_rat(x))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_real(self) -> bool:
        return not (self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    @property
    def real(self) -> Coeff:
        return Coeff(self.a, self.b)

    @property
    def imag(self) -> Coeff:
        return Coeff(self.c, self.d)

    def conjugate(self) -> Coeff:
        return Coeff(self.a, self.b, -self.c, -self.d)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Coeff(_rat(other))
        if not isinstance(other, Coeff):
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __neg__(self) -> Coeff:
        return Coeff(-self.a, -self.b, -self.c, -self.d)

    def __add__(self, other: "Coeff | RatLike") -> Coeff:
        o = Coeff.coerce(other)
        return Coeff(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __radd__(self, other: RatLike) -> Coeff:
        return self + other

    def __sub__(self, other: "Coeff | RatLike") -> Coeff:
        return self + (-Coeff.coerce(other))

    def __rsub__(self, other: RatLike) -> Coeff:
        return (-self) + other

    def __mul__(self, other: "Coeff | RatLike") -> Coeff:
        o = Coeff.coerce(other)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        # Short paths give the same value as the general product: every
        # term they drop has a zero factor.
        if not (b1 or c1 or d1):  # rational times anything
            return Coeff(a1 * a2, a1 * b2, a1 * c2, a1 * d2)
        if not (b2 or c2 or d2):
            return Coeff(a1 * a2, b1 * a2, c1 * a2, d1 * a2)
        if not (c1 or d1 or c2 or d2):  # real times real
            return Coeff(a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2)
        # (u1 + i v1)(u2 + i v2) with u, v in Q(sqrt2); sqrt2*sqrt2 -> 2.
        re_a = a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2
        re_b = a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2
        im_c = a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2)
        im_d = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
        return Coeff(re_a, re_b, im_c, im_d)

    def __rmul__(self, other: RatLike) -> Coeff:
        return self * other

    def inverse(self) -> Coeff:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(sqrt2, i)")
        if not (self.c or self.d):  # real: 1/(p + q sqrt2) = (p - q sqrt2)/(p^2 - 2 q^2)
            p, q = self.a, self.b
            if not p:  # 1/(q sqrt2) = sqrt2/(2q), without squaring q
                return Coeff(0, 1 / (2 * q))
            denom = p * p - 2 * q * q
            return Coeff(p / denom, -q / denom)
        # z zbar = u^2 + v^2 is real; (p + q sqrt2)(p - q sqrt2) = p^2 - 2 q^2.
        zbar = self.conjugate()
        norm = self * zbar
        p, q = norm.a, norm.b
        denom = p * p - 2 * q * q
        real_inv = Coeff(p / denom, -q / denom)
        return zbar * real_inv

    def __truediv__(self, other: "Coeff | RatLike") -> Coeff:
        return self * Coeff.coerce(other).inverse()

    def __rtruediv__(self, other: RatLike) -> Coeff:
        return Coeff.coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> Coeff:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- order on real elements ----------------------------------------------

    def sign(self) -> int:
        """Exact sign of a real element; raises on nonzero imaginary part."""
        if not self.is_real():
            raise ValueError(f"sign of non-real value {self!r}")
        p, q = self.a, self.b
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # p, q of opposite sign: compare p^2 with 2 q^2 (never equal).
        if q > 0:
            return 1 if 2 * q * q > p * p else -1
        return 1 if p * p > 2 * q * q else -1

    def __lt__(self, other: "Coeff | RatLike") -> bool:
        return (self - Coeff.coerce(other)).sign() < 0

    def __le__(self, other: "Coeff | RatLike") -> bool:
        return (self - Coeff.coerce(other)).sign() <= 0

    def __gt__(self, other: "Coeff | RatLike") -> bool:
        return (self - Coeff.coerce(other)).sign() > 0

    def __ge__(self, other: "Coeff | RatLike") -> bool:
        return (self - Coeff.coerce(other)).sign() >= 0

    def __abs__(self) -> Coeff:
        return -self if self.sign() < 0 else self

    def sqrt_real(self) -> Coeff | None:
        """Exact square root of a nonnegative real element, or None.

        Solves (x + y sqrt2)^2 = a + b sqrt2 over the rationals; the root
        exists in the field iff a^2 - 2 b^2 is a rational square and one of
        the two quadratic branches closes.
        """
        if not self.is_real():
            raise ValueError("sqrt_real expects a real element")
        if self.sign() < 0:
            return None
        a, b = self.a, self.b
        if self.is_zero():
            return ZERO
        if b == 0:
            x = rational_sqrt(a)
            if x is not None:
                return Coeff(x)
            y2 = rational_sqrt(a / 2)
            if y2 is not None:
                return Coeff(0, y2)
            return None
        disc = rational_sqrt(a * a - 2 * b * b)
        if disc is None:
            return None
        for s in (disc, -disc):
            y2 = (a + s) / 4
            y = rational_sqrt(y2)
            if y is None or y == 0:
                continue
            for ysigned in (y, -y):
                x = b / (2 * ysigned)
                cand = Coeff(x, ysigned)
                if cand * cand == self and cand.sign() >= 0:
                    return cand
        return None

    # -- conversions ----------------------------------------------------------

    def __float__(self) -> float:
        if not self.is_real():
            raise ValueError(f"float() of non-real value {self!r}")
        return float(self.a) + _SQRT2_FLOAT * float(self.b)

    def __complex__(self) -> complex:
        re = float(self.a) + _SQRT2_FLOAT * float(self.b)
        im = float(self.c) + _SQRT2_FLOAT * float(self.d)
        return complex(re, im)

    def __repr__(self) -> str:
        return f"Coeff({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self) -> str:
        def part(r: Fraction, s: Fraction) -> str:
            chunks = []
            if r:
                chunks.append(str(r))
            if s:
                if s == 1:
                    chunks.append("sqrt2")
                elif s == -1:
                    chunks.append("-sqrt2")
                else:
                    chunks.append(f"{s}*sqrt2")
            if not chunks:
                return "0"
            out = chunks[0]
            for c in chunks[1:]:
                out += c if c.startswith("-") else "+" + c
            return out

        re = part(self.a, self.b)
        im = part(self.c, self.d)
        if im == "0":
            return re
        if re == "0":
            return f"({im})*i"
        return f"{re}+({im})*i"


ZERO = Coeff()
ONE = Coeff(1)
I_UNIT = Coeff(0, 0, 1, 0)
SQRT2 = Coeff(0, 1)
INV_SQRT2 = Coeff(0, Fraction(1, 2))
HALF = Coeff(Fraction(1, 2))
