"""Exact radical values r*sqrt(n) with rational r and squarefree integer n.

This is the bookkeeping type for Fock amplitudes such as sqrt((2k)!)/k!:
products of square roots of integers reduce exactly, so closed forms can be
compared without any floating point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, isqrt

from .field import RatLike, _rat


def squarefree_decompose(m: int) -> tuple[int, int]:
    """Write m = s^2 * n with n squarefree; returns (s, n).  Requires m >= 1."""
    if m < 1:
        raise ValueError("squarefree_decompose expects a positive integer")
    s, n = 1, 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                n *= d
        d += 1 if d == 2 else 2
    n *= m
    return s, n


def prime_sieve(n: int) -> bytearray:
    """Flags for 0..max(n, 1), 1 exactly at the primes (sieve of Eratosthenes)."""
    sieve = bytearray(2) + bytearray([1]) * (n - 1)
    for p in range(2, isqrt(max(n, 0)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return sieve


def primes_up_to(n: int) -> list[int]:
    """The primes p <= n."""
    return list(compress(range(n + 1), prime_sieve(n)))


def factorial_exponent(n: int, p: int) -> int:
    """The exponent of the prime p in n! (Legendre): sum_j floor(n / p^j)."""
    e, pj = 0, p
    while pj <= n:
        e += n // pj
        pj *= p
    return e


def factorial_sqrt(n: int) -> "SqrtRational":
    """sqrt(n!) as an exact radical, via prime exponents of n!."""
    if n < 0:
        raise ValueError("factorial_sqrt expects n >= 0")
    s, rad = 1, 1
    for p in primes_up_to(n):
        e = factorial_exponent(n, p)
        s *= p ** (e // 2)
        if e % 2:
            rad *= p
    return SqrtRational(Fraction(s), rad)


class SqrtRational:
    """Value r*sqrt(n), normalized so n is squarefree and positive."""

    __slots__ = ("r", "n")

    def __init__(self, r: RatLike, n: int = 1):
        r = _rat(r)
        if n < 1:
            raise ValueError("radicand must be a positive integer")
        s, n = squarefree_decompose(n)
        r = r * s
        if r == 0:
            n = 1
        self.r = r
        self.n = n

    @classmethod
    def sqrt_int(cls, m: int) -> SqrtRational:
        return cls(Fraction(1), m)

    def is_zero(self) -> bool:
        return self.r == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SqrtRational(_rat(other))
        if not isinstance(other, SqrtRational):
            return NotImplemented
        return self.r == other.r and self.n == other.n

    def __hash__(self) -> int:
        # r * sqrt(1) compares equal to the rational r, so it hashes like it
        if self.n == 1:
            return hash(self.r)
        return hash((self.r, self.n))

    def __neg__(self) -> SqrtRational:
        return SqrtRational(-self.r, self.n)

    def __mul__(self, other: "SqrtRational | RatLike") -> SqrtRational:
        if isinstance(other, (int, Fraction)):
            return SqrtRational(self.r * _rat(other), self.n)
        if not isinstance(other, SqrtRational):
            return NotImplemented
        # both radicands squarefree: sqrt(n1 n2) = g sqrt((n1/g)(n2/g)), g = gcd.
        g = gcd(self.n, other.n)
        return SqrtRational(self.r * other.r * g, (self.n // g) * (other.n // g))

    def __rmul__(self, other: RatLike) -> SqrtRational:
        return self * other

    def __add__(self, other: "SqrtRational") -> SqrtRational:
        if not isinstance(other, SqrtRational):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.n != other.n:
            raise ValueError("cannot add radicals with different radicands exactly")
        return SqrtRational(self.r + other.r, self.n)

    def square(self) -> Fraction:
        return self.r * self.r * self.n

    def __float__(self) -> float:
        from math import sqrt

        return float(self.r) * sqrt(self.n)

    def __repr__(self) -> str:
        return f"SqrtRational({self.r!r}, {self.n!r})"

    def __str__(self) -> str:
        if self.n == 1:
            return str(self.r)
        if self.r == 1:
            return f"sqrt({self.n})"
        return f"{self.r}*sqrt({self.n})"
