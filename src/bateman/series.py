"""Exact certificates that the squeeze series diverges, for every k.

The central series is the squared norm of the factored squeeze action on the
oscillator ground state, a_k = sqrt2 C(2k,k) / 4^k.  It is stated once: by
its start a_0 = ``SQUEEZE_START`` = sqrt2 and its step
a_(k+1) / a_k = num(k) / den(k) = (2k+1) / (2k+2), ``SQUEEZE_STEP``, a pair
of integer polynomials in k.  Both verdicts are decided from the signs of
polynomial coefficients, so each holds for every k, with no big integer and
no list of terms:

- ``raabe_test`` certifies Raabe's quantity rho_k = k (den - num) / num < 1/2
  for every k >= 0, so rho_k <= 1 and Raabe's test in its comparison form
  (Knopp, *Theory and Application of Infinite Series*, §38) shows the series
  diverges;
- ``partial_sum_growth`` certifies the closed form S_K = (2K+1) a_K of the
  partial sums by telescoping, and the bounds 2/(4K) <= a_K^2 <= 2/(3K+1) by
  induction from S_1^2 = 9/2, so S_K^2 > 2K for every K.

``squeeze_terms`` gives exact terms from the start and the step, and
``raabe_csv`` steps them in floats.  No float enters either verdict.

``fock.squeeze_factored_action`` derives the same amplitudes apart, as the
signed squares q_k of the squared raising operator's iteration; this module
does not read them.  The CLI's ``squeeze-factored-amplitudes`` check requires
a_k = sqrt2 |q_k| term by term, so the series these verdicts certify is the
one the Fock amplitudes come from.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence, TextIO

from .field import Coeff, SQRT2

Poly = tuple[int, ...]  # integer coefficients, constant term first


class Step(NamedTuple):
    """The term ratio a_(k+1) / a_k = num(k) / den(k) of a series."""

    num: Poly
    den: Poly


SQUEEZE_START = SQRT2
SQUEEZE_STEP = Step(num=(1, 2), den=(2, 2))

# C(2K,K)/4^K ~ 1/sqrt(pi K), so S_K grows like K^(1/2).
SQUEEZE_SUM_EXPONENT = 0.5


def _value(p: Poly, k: int) -> int:
    v = 0
    for c in reversed(p):
        v = v * k + c
    return v


def _add(p: Poly, q: Poly) -> Poly:
    """p + q, without trailing zero coefficients."""
    out = [sum(r[i] for r in (p, q) if i < len(r)) for i in range(max(len(p), len(q)))]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _mul(p: Poly, q: Poly) -> Poly:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(out)


def _nonnegative(p: Poly) -> bool:
    return all(c >= 0 for c in p)


def _check_series(step: Step, start: Coeff) -> None:
    """Raise ValueError unless every term is certified real and positive:
    the start positive, num and den with non-negative coefficients and
    positive constant terms."""
    if Coeff.coerce(start).sign() <= 0:
        raise ValueError("the start a_0 is not positive")
    if not all(_nonnegative(p) and p[0] > 0 for p in step):
        raise ValueError(
            f"step {step}: num and den need non-negative coefficients and positive constant terms"
        )


def squeeze_terms(first: int, last: int) -> list[Coeff]:
    """The exact terms a_first .. a_last of the squeeze series, stepped from
    ``SQUEEZE_START`` by ``SQUEEZE_STEP``."""
    if first < 0:
        raise ValueError("k must be nonnegative")
    num, den = SQUEEZE_STEP
    out, a = [], SQUEEZE_START
    for k in range(last + 1):
        if k >= first:
            out.append(a)
        a = a * Fraction(_value(num, k), _value(den, k))
    return out


# ---------------------------------------------------------------------------
# ratio test
# ---------------------------------------------------------------------------

Verdict = str  # "divergent" | "inconclusive"


class RaabeReport(NamedTuple):
    """Raabe's test on a series, decided for every k, and the depth ``kmax``
    of the ratios ``raabe_csv`` writes.

    The verdict is ``divergent`` exactly when num - 2k (den - num) has
    non-negative coefficients and a positive constant term: then
    rho_k = k (den - num) / num < 1/2 for every k >= 0, and Raabe's test in
    its comparison form (rho_k <= 1 from some k on) shows the series
    diverges.  Otherwise it is ``inconclusive``.
    """

    kmax: int
    step: Step
    start: Coeff
    verdict: Verdict

    def ratio(self, k: int) -> Coeff:
        """rho_k = k (a_k / a_(k+1) - 1) = k (den(k) - num(k)) / num(k), exactly."""
        if not 1 <= k <= self.kmax:
            raise IndexError(f"rho_{k} was not computed")
        num = _value(self.step.num, k)
        return Coeff(Fraction(k * (_value(self.step.den, k) - num), num))


# Deepest ratio test accepted.  Only ``raabe_csv`` grows with kmax: its rows
# are stepped in floats and written a block at a time, about 0.3 s and a
# traced peak of 0.1 MB at 10^5 on a 2-vCPU host.
RAABE_KMAX_LIMIT = 10**5


def check_kmax(kmax: int) -> None:
    """Raise ValueError unless the ratio-test depth satisfies
    10 <= kmax <= RAABE_KMAX_LIMIT."""
    if not 10 <= kmax <= RAABE_KMAX_LIMIT:
        raise ValueError(f"kmax must be between 10 and {RAABE_KMAX_LIMIT}")


def raabe_test(
    kmax: int, step: Step = SQUEEZE_STEP, start: Coeff = SQUEEZE_START
) -> RaabeReport:
    """Raabe's test on the series of ``start`` and ``step``, for every k, with
    the depth ``kmax`` that ``check_kmax`` accepts.

    Raises ValueError unless every term is certified real and positive.
    """
    check_kmax(kmax)
    _check_series(step, start)
    num, den = step
    margin = _add(num, _mul((0, -2), _add(den, _mul((-1,), num))))  # num - 2k (den - num)
    holds = _nonnegative(margin) and margin[0] > 0
    return RaabeReport(kmax, step, start, "divergent" if holds else "inconclusive")


# Rows formatted per block of raabe_csv: the row strings of one block are
# alive at a time, and no string of the whole file.
CSV_BLOCK_ROWS = 500


def raabe_csv(report: RaabeReport, out: TextIO) -> None:
    """Write the CSV with columns k, rho_k and S_k, the running sum of the
    terms, both in floats stepped from the report's start and step, to
    ``out``, CSV_BLOCK_ROWS rows at a time."""
    num, den = report.step
    out.write("k,rho,S_k\n")
    a = acc = float(report.start)
    n, d = num[0], den[0]
    for start in range(1, report.kmax + 1, CSV_BLOCK_ROWS):
        rows = []
        for k in range(start, min(start + CSV_BLOCK_ROWS, report.kmax + 1)):
            a = a * n / d
            acc += a
            n, d = _value(num, k), _value(den, k)
            rows.append(f"{k},{k * (d - n) / n!r},{acc!r}\n")
        out.write("".join(rows))


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------

class GrowthReport(NamedTuple):
    """Whether the partial sums S_K keep the K^(1/2) bounds of the squeeze
    series at every K, the two growth margins that carry them, and S_K at
    the checkpoints as floats (empty unless the bounds hold)."""

    checkpoints: tuple[int, ...]
    partial_sums: tuple[float, ...]
    margins: tuple[Poly, Poly]
    bounds_hold: bool

    def exceeds(self, k: int, value: int) -> bool:
        """Whether the bounds show S_k > value: S_k^2 >= (2k+1)^2 / (2k)."""
        return self.bounds_hold and (2 * k + 1) ** 2 > 2 * k * value**2


def partial_sum_growth(
    checkpoints: Sequence[int], step: Step = SQUEEZE_STEP, start: Coeff = SQUEEZE_START
) -> GrowthReport:
    """Whether the series of ``start`` and ``step`` keeps
    2 (2K+1)^2 / (4K) <= S_K^2 <= 2 (2K+1)^2 / (3K+1) at every K >= 1.

    Three polynomial certificates decide it, for every K:
    - S_K = (2K+1) a_K telescopes, S_K - S_(K-1) = a_K and S_0 = a_0,
      exactly when (2K+2) num(K) - (2K+1) den(K) = 0;
    - the base case S_1^2 = (a_0 + a_1)^2 = 9/2, where both bounds are
      equalities;
    - the margins num^2 (K+1) - K den^2 and den^2 (3K+1) - num^2 (3K+4)
      have non-negative coefficients (for the squeeze series they are K+1
      and K), so a_(K+1) = a_K num(K)/den(K) carries each bound on a_K^2
      from K to K+1.
    So S_K^2 > 2K for every K.  Where the bounds hold, the terms are
    sqrt2 C(2K,K)/4^K, and the partial sums at the checkpoints are reported
    from that closed form through ``math.lgamma``.

    Raises ValueError unless the checkpoints are nonempty, strictly
    increasing and positive, and every term is certified real and positive.
    """
    cps = tuple(checkpoints)
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing and nonempty")
    if cps[0] <= 0:
        raise ValueError(f"checkpoint {cps[0]} is not positive: the bounds hold for K >= 1")
    _check_series(step, start)
    num, den = step
    telescopes = not any(_add(_mul((2, 2), num), _mul((-1, -2), den)))
    s_1 = start * (1 + Fraction(num[0], den[0]))
    num2, den2 = _mul(num, num), _mul(den, den)
    margins = (
        _add(_mul(num2, (1, 1)), _mul(den2, (0, -1))),
        _add(_mul(den2, (1, 3)), _mul(num2, (-4, -3))),
    )
    holds = telescopes and s_1 * s_1 == Fraction(9, 2) and all(map(_nonnegative, margins))
    sums = tuple(
        math.sqrt(2) * (2 * k + 1)
        * math.exp(math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1) - 2 * k * math.log(2))
        for k in cps
    ) if holds else ()
    return GrowthReport(cps, sums, margins, holds)
