"""Exact certificates that the squeeze series diverges, for every K.

The central series is the squared norm of the factored squeeze action on the
oscillator ground state, a_k = sqrt2 * C(2k,k) / 4^k.  ``squeeze_terms``
states its terms by stepping C(2k, k), ``squeeze_partial_sums`` its partial
sums by a telescoped closed form, and ``term_norm2`` is the per-term closed
form both are held to.  Two exact identities give the verdict for every K,
not a fit: ``raabe_test`` checks a_k (2k+1) = a_{k+1} (2k+2) at every
computed k, so rho_k = k/(2k+1) < 1 for all k and Raabe's test shows
divergence; ``partial_sum_growth`` checks the central-binomial bounds
1/(2 sqrt K) <= C(2K,K)/4^K <= 1/sqrt(3K+1), proved by induction for every
K, on the partial sums, which therefore grow like K^(1/2).  No float enters
either verdict.

``fock.squeeze_factored_action`` derives the same amplitudes apart, as the
signed squares q_k of the squared raising operator's iteration; this module
does not read them.  The CLI's ``squeeze-factored-amplitudes`` check requires
a_k = sqrt2 |q_k| term by term, so the series these verdicts certify is the
one the Fock amplitudes come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .field import Coeff, ONE
from .radicals import factorial_exponent, prime_sieve


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

Verdict = str  # "divergent" | "inconclusive"


@dataclass(frozen=True)
class RaabeReport:
    """The Raabe ratios rho_k = k (a_k / a_{k+1} - 1) of the squeeze series
    and its verdict, as a statement for every k.

    The verdict is ``divergent`` exactly when a_k (2k+1) == a_{k+1} (2k+2)
    held at every computed k: then a_k / a_{k+1} = (2k+2)/(2k+1), so
    rho_k = k/(2k+1) < 1/2 < 1 for every k, and Raabe's test in its
    comparison form (Knopp, *Theory and Application of Infinite Series*)
    shows the series diverges with no assumption on the untested tail.
    Otherwise it is ``inconclusive``.  ``terms`` are the exact terms checked,
    kept so that ``raabe_csv`` need not rebuild them.
    """

    kmax: int
    terms: tuple[Coeff, ...]  # a_0 .. a_{kmax+1}
    verdict: Verdict

    def ratio(self, k: int) -> Coeff:
        """rho_k exactly: k/(2k+1) where the identity held at every k, else
        by dividing the terms."""
        if not 1 <= k <= self.kmax:
            raise IndexError(f"rho_{k} was not computed")
        if self.verdict == "divergent":
            return Coeff.from_integers(k, denominator=2 * k + 1)
        return Coeff(k) * (self.terms[k] / self.terms[k + 1] - ONE)


# Deepest ratio test accepted.  The exact terms it holds take about
# 2 kmax^2 bits: building them, the test and the CSV took about 0.3 s and
# 28 MB at 10^4 on a 2-vCPU host, and memory grows quadratically past it.
RAABE_KMAX_LIMIT = 10**4


def check_kmax(kmax: int) -> None:
    """Raise ValueError unless the ratio-test depth satisfies
    10 <= kmax <= RAABE_KMAX_LIMIT."""
    if not 10 <= kmax <= RAABE_KMAX_LIMIT:
        raise ValueError(f"kmax must be between 10 and {RAABE_KMAX_LIMIT}")


def raabe_test(terms: Sequence[Coeff]) -> RaabeReport:
    """Raabe's test on the terms a_0 .. a_{kmax+1}, for the
    kmax = len(terms) - 2 that ``check_kmax`` accepts: the identity
    a_k (2k+1) == a_{k+1} (2k+2) is checked at every k = 0..kmax, by exact
    products with integers and no division.

    Raises ValueError if any term is not real and strictly positive.
    """
    kmax = len(terms) - 2
    check_kmax(kmax)
    for k, a in enumerate(terms):
        if a.sign() <= 0:
            raise ValueError(f"term k={k} is not positive")
    holds = all(terms[k] * (2 * k + 1) == terms[k + 1] * (2 * k + 2) for k in range(kmax + 1))
    return RaabeReport(
        kmax=kmax, terms=tuple(terms), verdict="divergent" if holds else "inconclusive"
    )


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthReport:
    """Exact partial sums at checkpoints and whether they keep the K^(1/2)
    bounds of the squeeze series at every one."""

    checkpoints: tuple[int, ...]
    partial_sums: tuple[Coeff, ...]
    bounds_hold: bool


def partial_sum_growth(checkpoints: Sequence[int], partial_sums: Sequence[Coeff]) -> GrowthReport:
    """The exact partial sums S_K at the checkpoints K, and whether
    4K S_K^2 >= 2 (2K+1)^2 >= (3K+1) S_K^2 at every checkpoint.

    For the squeeze series S_K = sqrt2 (2K+1) c_K with c_K = C(2K,K)/4^K,
    and 1/(4K) <= c_K^2 <= 1/(3K+1) for every K >= 1: both are equalities
    at K = 1 (c_1 = 1/2), and c_{K+1} = c_K (2K+1)/(2K+2) carries them from
    K to K+1 by the integer identities
        (2K+1)^2 (K+1) - 4K (K+1)^2 = K+1,
        (2K+2)^2 (3K+1) - (2K+1)^2 (3K+4) = K.
    So the bounds hold at every K, S_K^2 > 2K, and the series diverges
    with S_K growing like K^(1/2).  Each side is compared with an integer,
    so every denominator stays a power of two.

    Raises ValueError unless the checkpoints are nonempty, strictly
    increasing and positive, and each has one strictly positive sum.
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
        raise ValueError(f"checkpoint {cps[0]} is not positive: the bounds hold for K >= 1")
    squares = [s * s for s in sums]
    bounds_hold = all(
        q * (4 * k) >= 2 * (2 * k + 1) ** 2 >= q * (3 * k + 1) for k, q in zip(cps, squares)
    )
    return GrowthReport(checkpoints=tuple(cps), partial_sums=tuple(sums), bounds_hold=bounds_hold)


def raabe_csv(report: RaabeReport) -> str:
    """CSV with columns k, rho_k (decimal), S_k (decimal running sum of the
    report's own terms)."""
    lines = ["k,rho,S_k"]
    acc = float(report.terms[0])
    for k in range(1, report.kmax + 1):
        acc += float(report.terms[k])
        lines.append(f"{k},{float(report.ratio(k))!r},{acc!r}")
    return "\n".join(lines) + "\n"
