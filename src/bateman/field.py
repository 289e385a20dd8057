"""Exact scalar arithmetic in the field Q(sqrt2, i).

Every value is (a + b*sqrt2) + i*(c + d*sqrt2) with rational a, b, c, d.
The field is closed under +, -, *, and division by nonzero elements, and
equality is decidable componentwise.  This is the coefficient field for the
whole symbolic layer: ladder operators only ever need 1/sqrt2 = sqrt2/2, and
Hamiltonian prefactors are rational multiples of 1 and i.

A value is stored as four integer numerators over one positive integer
denominator, (_a + _b sqrt2 + i (_c + _d sqrt2)) / _n, in canonical form:
gcd(_a, _b, _c, _d, _n) == 1 and zero is (0, 0, 0, 0, 1).  So equality is
componentwise; a rational value hashes as the equal ``Fraction`` (so as the
equal int too) and any other by its components.  Every operation is integer
arithmetic followed by one normalisation (``_canonical``).  Sums of many
products, as in the operator calculus, can stay on integer numerators over
one common denominator (``over_common_denominator``, ``mul_numerators``) and
normalise once per result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt as _float_sqrt
from typing import Iterable, Union

RatLike = Union[int, Fraction]
# The integer numerators (a, b, c, d) of (a + b sqrt2 + i (c + d sqrt2)) / n.
Numerators = tuple[int, int, int, int]

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


def _new(a: int, b: int, c: int, d: int, n: int) -> Coeff:
    """A Coeff from numerators and a denominator already in canonical form."""
    z = object.__new__(Coeff)
    z._a = a
    z._b = b
    z._c = c
    z._d = d
    z._n = n
    return z


def _canonical(a: int, b: int, c: int, d: int, n: int) -> Coeff:
    """The Coeff (a + b sqrt2 + i (c + d sqrt2)) / n for n > 0, reduced.

    A power-of-two n (the denominators of the ladder algebra and of the
    series) is reduced by counting trailing zeros: the lowest set bit of
    a | b | c | d | n is the largest power of two dividing all five.  Any
    other n takes one gcd.
    """
    if n == 1:
        return _new(a, b, c, d, 1)
    if n & (n - 1):
        g = gcd(a, b, c, d, n)
        if g != 1:
            a //= g
            b //= g
            c //= g
            d //= g
            n //= g
    else:
        low = a | b | c | d | n
        shift = (low & -low).bit_length() - 1
        if shift:
            a >>= shift
            b >>= shift
            c >>= shift
            d >>= shift
            n >>= shift
    return _new(a, b, c, d, n)


def mul_numerators(
    a1: int, b1: int, c1: int, d1: int, a2: int, b2: int, c2: int, d2: int
) -> Numerators:
    """Numerators of (a1 + b1 sqrt2 + i (c1 + d1 sqrt2)) (a2 + b2 sqrt2 + i (c2 + d2 sqrt2)).

    The product of two values is this over the product of their denominators.
    """
    # Short paths give the same value as the general product: every term
    # they drop has a zero factor.
    if not (b1 or c1 or d1):  # rational times anything
        return a1 * a2, a1 * b2, a1 * c2, a1 * d2
    if not (b2 or c2 or d2):
        return a1 * a2, b1 * a2, c1 * a2, d1 * a2
    if not (c1 or d1 or c2 or d2):  # real times real
        return a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2, 0, 0
    # (u1 + i v1)(u2 + i v2) with u, v in Q(sqrt2); sqrt2*sqrt2 -> 2.
    return (
        a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
        a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
        a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def over_common_denominator(values: Iterable[Coeff]) -> tuple[list[Numerators], int]:
    """The numerators of each value over the lcm of their denominators, and that lcm.

    Sums and products of such numerators are exact integer arithmetic; a
    result goes back to a Coeff through one ``_canonical`` call.
    """
    values = list(values)
    n = lcm(*(v._n for v in values))
    out = []
    for v in values:
        s = n // v._n
        out.append((v._a * s, v._b * s, v._c * s, v._d * s))
    return out, n


def _operand(x: object) -> Coeff | None:
    """x as a Coeff if it is a Coeff, an int or a Fraction, else None."""
    if isinstance(x, Coeff):
        return x
    if isinstance(x, int):
        return _new(int(x), 0, 0, 0, 1)
    if isinstance(x, Fraction):
        return _new(x.numerator, 0, 0, 0, x.denominator)
    return None


class Coeff:
    """One element of Q(sqrt2, i): four integer numerators over one denominator."""

    __slots__ = ("_a", "_b", "_c", "_d", "_n")

    def __init__(self, a: RatLike = 0, b: RatLike = 0, c: RatLike = 0, d: RatLike = 0):
        if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            self._a, self._b, self._c, self._d, self._n = a, b, c, d, 1
            return
        parts = (_rat(a), _rat(b), _rat(c), _rat(d))
        # Each Fraction is reduced, so over the lcm of their denominators the
        # numerators share no prime with it: the result is canonical.
        n = lcm(*(p.denominator for p in parts))
        self._a, self._b, self._c, self._d = (p.numerator * (n // p.denominator) for p in parts)
        self._n = n

    @classmethod
    def from_integers(cls, a: int = 0, b: int = 0, c: int = 0, d: int = 0, denominator: int = 1) -> Coeff:
        """(a + b sqrt2 + i (c + d sqrt2)) / denominator, from integers.

        A power-of-two denominator is reduced without a gcd, so a value such
        as C(2K, K) / 4^K costs no big-integer division.
        """
        if not all(type(v) is int for v in (a, b, c, d, denominator)):
            raise TypeError("from_integers expects ints")
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        return _canonical(a, b, c, d, denominator)

    @staticmethod
    def coerce(x: "Coeff | RatLike") -> Coeff:
        o = _operand(x)
        if o is None:
            raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
        return o

    # -- components ----------------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._n)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._n)

    @property
    def c(self) -> Fraction:
        return Fraction(self._c, self._n)

    @property
    def d(self) -> Fraction:
        return Fraction(self._d, self._n)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._a or self._b or self._c or self._d)

    def is_real(self) -> bool:
        return not (self._c or self._d)

    @property
    def real(self) -> Coeff:
        return _canonical(self._a, self._b, 0, 0, self._n)

    @property
    def imag(self) -> Coeff:
        return _canonical(self._c, self._d, 0, 0, self._n)

    def conjugate(self) -> Coeff:
        return _new(self._a, self._b, -self._c, -self._d, self._n)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __hash__(self) -> int:
        # a rational value compares equal to an int or Fraction, so it must
        # hash like one
        if not (self._b or self._c or self._d):
            return hash(Fraction(self._a, self._n))
        return hash((self._a, self._b, self._c, self._d, self._n))

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        o = _operand(other)
        if o is None:
            return NotImplemented
        return (
            self._a == o._a
            and self._b == o._b
            and self._c == o._c
            and self._d == o._d
            and self._n == o._n
        )

    def __neg__(self) -> Coeff:
        return _new(-self._a, -self._b, -self._c, -self._d, self._n)

    def __add__(self, other: "Coeff | RatLike") -> Coeff:
        o = _operand(other)
        if o is None:
            return NotImplemented
        n1, n2 = self._n, o._n
        if n1 == n2:
            return _canonical(self._a + o._a, self._b + o._b, self._c + o._c, self._d + o._d, n1)
        return _canonical(
            self._a * n2 + o._a * n1,
            self._b * n2 + o._b * n1,
            self._c * n2 + o._c * n1,
            self._d * n2 + o._d * n1,
            n1 * n2,
        )

    __radd__ = __add__

    def __sub__(self, other: "Coeff | RatLike") -> Coeff:
        o = _operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: RatLike) -> Coeff:
        o = _operand(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: "Coeff | RatLike") -> Coeff:
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _canonical(
            *mul_numerators(self._a, self._b, self._c, self._d, o._a, o._b, o._c, o._d),
            self._n * o._n,
        )

    __rmul__ = __mul__

    def inverse(self) -> Coeff:
        a, b, c, d, n = self._a, self._b, self._c, self._d, self._n
        if not (c or d):  # real: 1/(p + q sqrt2) = (p - q sqrt2)/(p^2 - 2 q^2)
            if not a:
                if not b:
                    raise ZeroDivisionError("inverse of zero in Q(sqrt2, i)")
                # 1/(q sqrt2) = sqrt2/(2q), without squaring q
                return _canonical(0, n, 0, 0, 2 * b) if b > 0 else _canonical(0, -n, 0, 0, -2 * b)
            denom = a * a - 2 * b * b  # never 0: sqrt2 is irrational
            if denom < 0:
                return _canonical(-n * a, n * b, 0, 0, -denom)
            return _canonical(n * a, -n * b, 0, 0, denom)
        # 1/z = zbar / (z zbar), where z zbar = (p + q sqrt2)/n^2 is real and
        # 1/(p + q sqrt2) = (p - q sqrt2)/(p^2 - 2 q^2); p^2 - 2 q^2 > 0 is the
        # product of |z|^2 and its sqrt2-conjugate, a sum of squares.
        p = a * a + 2 * b * b + c * c + 2 * d * d
        q = 2 * (a * b + c * d)
        return _canonical(
            n * (a * p - 2 * b * q),
            n * (b * p - a * q),
            n * (2 * d * q - c * p),
            n * (c * q - d * p),
            p * p - 2 * q * q,
        )

    def __truediv__(self, other: "Coeff | RatLike") -> Coeff:
        o = _operand(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: RatLike) -> Coeff:
        o = _operand(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

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
        # the denominator is positive, so the numerators carry the sign
        p, q = self._a, self._b
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

    def _compare(self, other: object) -> int | None:
        o = _operand(other)
        return None if o is None else (self - o).sign()

    def __lt__(self, other: "Coeff | RatLike") -> bool:
        s = self._compare(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other: "Coeff | RatLike") -> bool:
        s = self._compare(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other: "Coeff | RatLike") -> bool:
        s = self._compare(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other: "Coeff | RatLike") -> bool:
        s = self._compare(other)
        return NotImplemented if s is None else s >= 0

    def __abs__(self) -> Coeff:
        return -self if self.sign() < 0 else self

    # -- conversions ----------------------------------------------------------

    # Int true division is correctly rounded, so each quotient below is the
    # float of the reduced Fraction component, bit for bit.

    def __float__(self) -> float:
        if not self.is_real():
            raise ValueError(f"float() of non-real value {self!r}")
        return self._a / self._n + _SQRT2_FLOAT * (self._b / self._n)

    def __complex__(self) -> complex:
        n = self._n
        re = self._a / n + _SQRT2_FLOAT * (self._b / n)
        im = self._c / n + _SQRT2_FLOAT * (self._d / n)
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
