"""Exact positive-term series analysis: ratio test and partial-sum growth.

The central series is the squared norm of the factored squeeze action on the
oscillator ground state, a_k = sqrt2 * (2k)! / (k!^2 4^k).  Its ratio-test
quantities simplify to rho_k = k/(2k+1) exactly, certifying divergence.
``squeeze_terms`` states its terms by stepping C(2k, k), ``squeeze_partial_sums``
its partial sums by a telescoped closed form, and ``term_norm2`` is the
per-term closed form both are held to.  ``raabe_test`` and
``partial_sum_growth`` take these exact values and certify them; everything
up to the final curve fit runs in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from . import _lazy_import
from .field import Coeff, ONE
from .radicals import factorial_exponent, prime_sieve

np = _lazy_import("numpy")


def term_norm2(k: int) -> Coeff:
    """Squared Fock amplitude of the factored squeeze action, including the
    squared global 2^(1/4): exactly sqrt2 * (2k)! / (k!^2 4^k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return Coeff.from_integers(0, math.comb(2 * k, k), denominator=1 << (2 * k))


def squeeze_terms(first: int, last: int) -> list[Coeff]:
    """term_norm2(k) for k = first..last, stepping C(2k,k) by exact integers.

    C(2k+2, k+1) = C(2k,k) * 2(2k+1) / (k+1), and the division is exact.
    """
    if first < 0:
        raise ValueError("k must be nonnegative")
    central = math.comb(2 * first, first)
    out = []
    for k in range(first, last + 1):
        out.append(Coeff.from_integers(0, central, denominator=1 << (2 * k)))
        central = central * 2 * (2 * k + 1) // (k + 1)
    return out


def _central_binomial(k: int, sieve: bytearray) -> int:
    """C(2k, k) as prod p^e over the primes flagged in ``sieve`` (which must cover 2k).

    Legendre's formula gives the exponent of p in (2k)!/k!^2 as
    e = v_p((2k)!) - 2 v_p(k!), which is 2k//p - 2(k//p) for p^2 > 2k;
    nothing is divided.  The powers are multiplied through a binary counter:
    a stack entry (level, value) is the product of 2^level powers, so the
    products stay balanced and the stack holds about log2 of their number.
    """
    n = 2 * k
    stack: list[tuple[int, int]] = []
    for p in compress(range(n + 1), sieve):
        if p * p > n:
            e = n // p - 2 * (k // p)
        else:
            e = factorial_exponent(n, p) - 2 * factorial_exponent(k, p)
        if e:
            level, value = 0, p**e
            while stack and stack[-1][0] == level:
                value *= stack.pop()[1]
                level += 1
            stack.append((level, value))
    return math.prod(value for _, value in reversed(stack))


def squeeze_partial_sums(checkpoints: Sequence[int]) -> list[Coeff]:
    """Exact S_K = sqrt2 * sum_{k<=K} C(2k,k)/4^k in closed form.

    The sum telescopes: (2K+1) C(2K,K)/4^K - (2K-1) C(2K-2,K-1)/4^(K-1)
    = C(2K,K)/4^K, so S_K = sqrt2 * (2K+1) C(2K,K) / 4^K.  The power-of-two
    denominator is reduced by trailing zeros; by Kummer's theorem 2 divides
    C(2K,K) exactly popcount(K) times, so S_K / sqrt2 has denominator
    2^(2K - popcount K).
    """
    if min(checkpoints) < 0:
        raise ValueError("checkpoints must be nonnegative")
    sieve = prime_sieve(2 * max(checkpoints))
    return [
        Coeff.from_integers(0, (2 * k + 1) * _central_binomial(k, sieve), denominator=1 << (2 * k))
        for k in checkpoints
    ]


# C(2K,K)/4^K ~ 1/sqrt(pi K), so S_K grows like K^(1/2).
SQUEEZE_SUM_EXPONENT = 0.5


# ---------------------------------------------------------------------------
# ratio test
# ---------------------------------------------------------------------------

Verdict = str  # "divergent" | "convergent" | "inconclusive"


@dataclass(frozen=True)
class RaabeReport:
    """Exact ratio-test trace rho_k = k (a_k / a_{k+1} - 1) and its verdict.

    The verdict turns a limit statement into a finite certificate under an
    explicit assumption: the ratios must be monotone over the last half of
    the computed range, and the limit bracket [limit_low, limit_high]
    (endpoint rho_kmax, Richardson-extrapolated endpoint, padded by their
    gap, under a 1/k error model) must be strictly separated from 1.
    ``divergent`` additionally requires every tail ratio < 1, and
    ``convergent`` every tail ratio > 1.  ``terms`` are the exact terms the
    ratios were built from, kept so that ``raabe_csv`` need not rebuild them.
    """

    kmax: int
    terms: tuple[Coeff, ...]  # a_0 .. a_{kmax+1}
    ratios: tuple[Coeff, ...]  # rho_1 .. rho_kmax
    tail_monotone: bool
    limit_low: Coeff
    limit_high: Coeff
    verdict: Verdict

    def ratio(self, k: int) -> Coeff:
        if not 1 <= k <= self.kmax:
            raise IndexError(f"rho_{k} was not computed")
        return self.ratios[k - 1]


# Deepest ratio test accepted.  Its cost grows like kmax^2.4 (about 4 s and
# 57 MB at 10^4 on a 2-vCPU host), so much deeper runs look like a hang.
RAABE_KMAX_LIMIT = 10**4


def check_kmax(kmax: int) -> None:
    """Raise ValueError unless the ratio-test depth satisfies
    10 <= kmax <= RAABE_KMAX_LIMIT."""
    if not 10 <= kmax <= RAABE_KMAX_LIMIT:
        raise ValueError(f"kmax must be between 10 and {RAABE_KMAX_LIMIT}")


def raabe_test(terms: Sequence[Coeff]) -> RaabeReport:
    """Exact ratio test of the terms a_0 .. a_{kmax+1} over k = 1..kmax, for
    the kmax = len(terms) - 2 that ``check_kmax`` accepts.

    Raises ValueError if any term is not real and strictly positive.
    """
    kmax = len(terms) - 2
    check_kmax(kmax)
    for k, a in enumerate(terms):
        if a.sign() <= 0:
            raise ValueError(f"term k={k} is not positive")
    ratios = [Coeff(k) * (terms[k] / terms[k + 1] - ONE) for k in range(1, kmax + 1)]

    tail = ratios[kmax // 2 - 1 :]
    nondecreasing = all(tail[i] <= tail[i + 1] for i in range(len(tail) - 1))
    nonincreasing = all(tail[i] >= tail[i + 1] for i in range(len(tail) - 1))
    tail_monotone = nondecreasing or nonincreasing

    last = ratios[-1]
    mid = ratios[kmax // 2 - 1]
    richardson = Coeff(2) * last - mid
    pad = abs(richardson - last)
    low = (last if last <= richardson else richardson) - pad
    high = (last if last >= richardson else richardson) + pad

    verdict: Verdict = "inconclusive"
    if tail_monotone and high < ONE and all(r < ONE for r in tail):
        verdict = "divergent"
    elif tail_monotone and low > ONE and all(r > ONE for r in tail):
        verdict = "convergent"

    return RaabeReport(
        kmax=kmax,
        terms=tuple(terms),
        ratios=tuple(ratios),
        tail_monotone=tail_monotone,
        limit_low=low,
        limit_high=high,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthReport:
    """Exact partial sums at checkpoints and a log-log growth exponent fit."""

    checkpoints: tuple[int, ...]
    partial_sums: tuple[Coeff, ...]
    partial_sum_floats: tuple[float, ...]
    fitted_exponent: float


def partial_sum_growth(checkpoints: Sequence[int], partial_sums: Sequence[Coeff]) -> GrowthReport:
    """The exact partial sums S_K at the checkpoints K, with the least-squares
    slope of log S_K against log K (floats only enter at the fitting step).

    Raises ValueError unless the checkpoints are nonempty and strictly
    increasing, each has one strictly positive sum, and the first checkpoint
    is positive (log K is fitted).
    """
    cps, sums = list(checkpoints), list(partial_sums)
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing and nonempty")
    if len(sums) != len(cps):
        raise ValueError(f"{len(sums)} partial sums for {len(cps)} checkpoints")
    for k, s in zip(cps, sums):
        if s.sign() <= 0:
            raise ValueError(f"partial sum S_{k} is not positive")
    if cps[0] <= 0:
        raise ValueError(f"checkpoint {cps[0]} is not positive: the fit takes log K")
    floats = [float(s) for s in sums]
    slope = float(
        np.polyfit(np.log([float(k) for k in cps]), np.log(floats), 1)[0]
    )
    return GrowthReport(
        checkpoints=tuple(cps),
        partial_sums=tuple(sums),
        partial_sum_floats=tuple(floats),
        fitted_exponent=slope,
    )


def raabe_csv(report: RaabeReport) -> str:
    """CSV with columns k, rho_k (decimal), S_k (decimal running sum of the
    report's own terms)."""
    lines = ["k,rho,S_k"]
    acc = float(report.terms[0])
    for k in range(1, report.kmax + 1):
        acc += float(report.terms[k])
        lines.append(f"{k},{float(report.ratio(k))!r},{acc!r}")
    return "\n".join(lines) + "\n"
