"""Exact positive-term series analysis: ratio test and partial-sum growth.

The central series is the squared norm of the factored squeeze action on the
oscillator ground state, a_k = sqrt2 * (2k)! / (k!^2 4^k).  Its ratio-test
quantities simplify to rho_k = k/(2k+1) exactly, certifying divergence.
Everything up to the final curve fit runs in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .field import Coeff, ONE


@dataclass(frozen=True)
class SeriesTerms:
    """A positive term sequence a_k in Q(sqrt2) with a closed-form generator.

    ``fast_partial_sums``, when provided, must return the same exact values
    as naive summation of the generator; it exists because generic
    fraction summation is infeasible for 10^5 terms of some sequences.
    """

    label: str
    generator: Callable[[int], Coeff]
    k_start: int = 0
    fast_partial_sums: Callable[[Sequence[int]], list[Coeff]] | None = None

    def term(self, k: int) -> Coeff:
        value = self.generator(k)
        if not value.is_real():
            raise ValueError(f"{self.label}: term {k} is not real")
        return value


def term_norm2(k: int) -> Coeff:
    """Squared Fock amplitude of the factored squeeze action, including the
    squared global 2^(1/4): exactly sqrt2 * (2k)! / (k!^2 4^k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return Coeff.from_integers(0, math.comb(2 * k, k), denominator=1 << (2 * k))


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, is_prime in enumerate(sieve) if is_prime]


def _product(factors: list[int]) -> int:
    """Product of the factors, multiplied pairwise as a balanced tree."""
    while len(factors) > 1:
        paired = [x * y for x, y in zip(factors[::2], factors[1::2])]
        factors = paired + factors[len(paired) * 2 :]
    return factors[0] if factors else 1


def _central_binomial(k: int, primes: Sequence[int]) -> int:
    """C(2k, k) as prod p^e over the given primes (which must cover 2k).

    Legendre's formula gives the exponent of p in (2k)!/k!^2 as
    e = sum_j (floor(2k/p^j) - 2 floor(k/p^j)); nothing is divided.
    """
    n = 2 * k
    powers = []
    for p in primes:
        if p > n:
            break
        e, pj = 0, p
        while pj <= n:
            e += n // pj - 2 * (k // pj)
            pj *= p
        if e:
            powers.append(p**e)
    return _product(powers)


def _squeeze_partial_sums(checkpoints: Sequence[int]) -> list[Coeff]:
    """Exact S_K = sqrt2 * sum_{k<=K} C(2k,k)/4^k in closed form.

    The sum telescopes: (2K+1) C(2K,K)/4^K - (2K-1) C(2K-2,K-1)/4^(K-1)
    = C(2K,K)/4^K, so S_K = sqrt2 * (2K+1) C(2K,K) / 4^K.  The power-of-two
    denominator is reduced by trailing zeros; by Kummer's theorem 2 divides
    C(2K,K) exactly popcount(K) times, so S_K / sqrt2 has denominator
    2^(2K - popcount K).
    """
    if min(checkpoints) < 0:
        raise ValueError("checkpoints must be nonnegative")
    primes = _primes_upto(2 * max(checkpoints))
    return [
        Coeff.from_integers(0, (2 * k + 1) * _central_binomial(k, primes), denominator=1 << (2 * k))
        for k in checkpoints
    ]


# C(2K,K)/4^K ~ 1/sqrt(pi K), so S_K grows like K^(1/2).
SQUEEZE_SUM_EXPONENT = 0.5


def squeeze_norm_series() -> SeriesTerms:
    return SeriesTerms(
        label="squeeze-action squared norms",
        generator=term_norm2,
        k_start=0,
        fast_partial_sums=_squeeze_partial_sums,
    )


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

    label: str
    kmax: int
    k_start: int
    terms: tuple[Coeff, ...]  # a_{k_start} .. a_{kmax+1}
    ratios: tuple[Coeff, ...]  # rho_1 .. rho_kmax
    tail_monotone: bool
    limit_low: Coeff
    limit_high: Coeff
    verdict: Verdict
    comparison_verdict: str | None = None

    def ratio(self, k: int) -> Coeff:
        if not 1 <= k <= self.kmax:
            raise IndexError(f"rho_{k} was not computed")
        return self.ratios[k - 1]

    def ratio_floats(self) -> list[float]:
        return [float(r) for r in self.ratios]


def raabe_test(
    series: SeriesTerms, kmax: int, comparison_fallback: bool = False
) -> RaabeReport:
    """Exact ratio test over k = 1..kmax (requires kmax >= 10).

    Raises ValueError if any encountered term is not strictly positive.
    With ``comparison_fallback`` enabled, an inconclusive run additionally
    checks whether k*a_k is nondecreasing on the tail, which certifies
    divergence by comparison with the harmonic series.
    """
    if kmax < 10:
        raise ValueError("kmax must be at least 10")
    k0 = series.k_start
    if k0 not in (0, 1):
        raise ValueError("ratio test expects a series starting at k = 0 or 1")
    terms = [series.term(k) for k in range(k0, kmax + 2)]
    for i, a in enumerate(terms):
        if a.sign() <= 0:
            raise ValueError(f"{series.label}: term k={k0 + i} is not positive")
    ratios: list[Coeff] = []
    for k in range(1, kmax + 1):
        a_k = terms[k - k0]
        a_k1 = terms[k + 1 - k0]
        ratios.append(Coeff(k) * (a_k / a_k1 - ONE))

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

    one = ONE
    verdict: Verdict = "inconclusive"
    if tail_monotone and high < one and all(r < one for r in tail):
        verdict = "divergent"
    elif tail_monotone and low > one and all(r > one for r in tail):
        verdict = "convergent"

    comparison = None
    if verdict == "inconclusive" and comparison_fallback:
        weighted = [Coeff(k) * terms[k - k0] for k in range(max(1, k0), kmax + 1)]
        wt_tail = weighted[len(weighted) // 2 :]
        if all(wt_tail[i] <= wt_tail[i + 1] for i in range(len(wt_tail) - 1)):
            comparison = "divergent-by-comparison"

    return RaabeReport(
        label=series.label,
        kmax=kmax,
        k_start=k0,
        terms=tuple(terms),
        ratios=tuple(ratios),
        tail_monotone=tail_monotone,
        limit_low=low,
        limit_high=high,
        verdict=verdict,
        comparison_verdict=comparison,
    )


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthReport:
    """Exact partial sums at checkpoints and a log-log growth exponent fit."""

    label: str
    checkpoints: tuple[int, ...]
    partial_sums: tuple[Coeff, ...]
    partial_sum_floats: tuple[float, ...]
    fitted_exponent: float


def partial_sum_growth(series: SeriesTerms, checkpoints: Sequence[int]) -> GrowthReport:
    """Exact S_K at each checkpoint, plus the least-squares slope of
    log S_K against log K (floats only enter at the fitting step)."""
    cps = list(checkpoints)
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing and nonempty")
    if cps[0] < series.k_start:
        raise ValueError("first checkpoint precedes the first term")
    if series.fast_partial_sums is not None:
        sums = series.fast_partial_sums(cps)
    else:
        sums = []
        acc = Coeff(0)
        k = series.k_start
        for target in cps:
            while k <= target:
                acc = acc + series.term(k)
                k += 1
            sums.append(acc)
    floats = [float(s) for s in sums]
    slope = float(
        np.polyfit(np.log([float(k) for k in cps]), np.log(floats), 1)[0]
    )
    return GrowthReport(
        label=series.label,
        checkpoints=tuple(cps),
        partial_sums=tuple(sums),
        partial_sum_floats=tuple(floats),
        fitted_exponent=slope,
    )


def raabe_csv(report: RaabeReport) -> str:
    """CSV with columns k, rho_k (decimal), S_k (decimal running sum of the
    report's own terms)."""
    lines = ["k,rho,S_k"]
    acc = 0.0
    k0 = report.k_start
    for k, a_k in enumerate(report.terms[: report.kmax + 1 - k0], start=k0):
        acc += float(a_k)
        if k >= 1:
            lines.append(f"{k},{float(report.ratio(k))!r},{acc!r}")
    return "\n".join(lines) + "\n"
