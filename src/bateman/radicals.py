"""Prime-exponent arithmetic for exact closed forms with factorials.

``prime_sieve`` and ``factorial_exponent`` (Legendre's formula) give the
prime powers of n!.  ``factorial_sqrt`` writes n! = s^2 rad with rad
squarefree, so sqrt(n!) = s sqrt(rad) exactly.  Nothing in the package calls
this module; it stays because ``perfbench/tracer.py`` times
``factorial_sqrt`` by name, and ``cli`` imports it so that it is loaded.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt


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


def factorial_sqrt(n: int) -> tuple[int, int]:
    """sqrt(n!) = s sqrt(rad) as the integer pair (s, rad): n! = s^2 rad with
    rad squarefree, from the prime exponents of n!."""
    if n < 0:
        raise ValueError("factorial_sqrt expects n >= 0")
    s, rad = 1, 1
    for p in primes_up_to(n):
        e = factorial_exponent(n, p)
        s *= p ** (e // 2)
        if e % 2:
            rad *= p
    return s, rad
