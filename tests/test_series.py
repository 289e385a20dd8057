import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from bateman.field import Coeff, I_UNIT, SQRT2
from bateman.radicals import prime_sieve, primes_up_to
from bateman.series import (
    RAABE_KMAX_LIMIT,
    _central_binomial,
    partial_sum_growth,
    raabe_csv,
    raabe_test,
    squeeze_partial_sums,
    squeeze_terms,
    term_norm2,
)


def from_one(term):
    """The terms a_0 .. a_{kmax+1}, as ``raabe_test`` takes them, of a control
    sequence defined from k = 1: a_1 stands in for a_0, which no ratio reads."""
    return lambda kmax: [term(max(k, 1)) for k in range(kmax + 2)]


def inverse_power(power: int):
    return lambda k: Coeff(Fraction(1, k**power))


def naive_partial_sums(term, checkpoints, k_start=1):
    """S_K = sum of term(k) over k_start <= k <= K at each checkpoint K, by
    adding every term in turn; S_K below k_start is the empty sum 0."""
    sums = []
    acc = Coeff(0)
    k = k_start
    for target in checkpoints:
        while k <= target:
            acc = acc + term(k)
            k += 1
        sums.append(acc)
    return sums


def paper_terms(kmax):
    return squeeze_terms(0, kmax + 1)


def constant(k):
    return Coeff(1)


# ten standard control sequences for the verdict-soundness sweep:
# (label, terms a_0 .. a_{kmax+1} as a function of kmax, expected verdict)
CONTROLS = [
    ("squeeze-action squared norms", paper_terms, "divergent"),
    ("inverse squares", from_one(inverse_power(2)), "convergent"),
    ("inverse cubes", from_one(inverse_power(3)), "convergent"),
    ("telescoping", from_one(lambda k: Coeff(Fraction(1, k * (k + 1)))), "convergent"),
    ("geometric", from_one(lambda k: Coeff(Fraction(1, 2**k))), "convergent"),
    ("k times (3/4)^k", from_one(lambda k: Coeff(k * Fraction(3, 4) ** k)), "convergent"),
    ("constant", from_one(constant), "divergent"),
    ("linear", from_one(lambda k: Coeff(k)), "divergent"),
    ("harmonic", from_one(inverse_power(1)), "inconclusive"),
    ("shifted harmonic", from_one(lambda k: Coeff(Fraction(1, k + 5))), "inconclusive"),
]


# ---------------------------------------------------------------------------
# exact terms
# ---------------------------------------------------------------------------

def test_first_three_squared_terms():
    assert term_norm2(0) == SQRT2
    assert term_norm2(1) == Coeff(0, Fraction(1, 2))
    assert term_norm2(2) == Coeff(0, Fraction(3, 8))


def test_term_rejects_negative_index():
    with pytest.raises(ValueError):
        term_norm2(-1)


def test_recurrence_matches_factorial_closed_form():
    # independent oracle: a_{k+1} = a_k (2k+1)/(2k+2), seeded at sqrt2
    value = SQRT2
    for k in range(500):
        assert term_norm2(k) == value
        value = value * Fraction(2 * k + 1, 2 * k + 2)


def test_fast_partial_sums_match_naive_summation():
    checkpoints = [0, 1, 5, 60, 300, 1000]
    fast = squeeze_partial_sums(checkpoints)
    assert fast == naive_partial_sums(term_norm2, checkpoints, k_start=0)


def test_central_binomial_matches_math_comb():
    sieve = prime_sieve(2 * 10**5)
    assert list(itertools.compress(range(len(sieve)), sieve))[:10] == primes_up_to(30)
    for k in [*range(301), 10**4, 10**5]:
        assert _central_binomial(k, sieve) == math.comb(2 * k, k), k


def test_partial_sums_to_1e5_hold_no_list_of_primes():
    # the primes up to 2 * 10^5 stream from one sieve and their powers
    # through a binary counter; a list of the ~18 000 primes or of their
    # powers alone would take about 0.6 MB
    checkpoints = [10**3, 10**4, 10**5]
    squeeze_partial_sums(checkpoints)
    tracemalloc.start()
    try:
        squeeze_partial_sums(checkpoints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600_000, peak


def test_fast_partial_sums_match_comb_closed_form_at_1e5():
    k = 10**5
    (fast,) = squeeze_partial_sums([k])
    assert fast == Coeff(0, Fraction((2 * k + 1) * math.comb(2 * k, k), 4**k))


def test_series_values_match_fraction_construction():
    # oracle: the Fraction construction, reduced by a gcd
    ks = [*range(301), 10**3, 10**4, 10**5]
    sums = squeeze_partial_sums(ks)
    for k, s_k in zip(ks, sums):
        c = math.comb(2 * k, k)
        assert term_norm2(k) == Coeff(0, Fraction(c, 4**k)), k
        assert s_k == Coeff(0, Fraction((2 * k + 1) * c, 4**k)), k
        # Kummer: 2 divides C(2k, k) exactly popcount(k) times
        assert s_k._n == 1 << (2 * k - bin(k).count("1")), k


def _comb_terms(first, last):
    return [Coeff(0, Fraction(math.comb(2 * k, k), 4**k)) for k in range(first, last + 1)]


def test_stepped_terms_match_math_comb():
    # the integer step C(2k+2, k+1) = C(2k, k) 2(2k+1)/(k+1) against math.comb,
    # from k = 0 and from later starts, in both orders of the calls
    assert squeeze_terms(0, 1001) == _comb_terms(0, 1001)
    assert squeeze_terms(37, 140) == _comb_terms(37, 140)
    assert squeeze_terms(500, 500) == _comb_terms(500, 500)
    assert squeeze_terms(0, 1001) == _comb_terms(0, 1001)
    assert squeeze_terms(3, 2) == []
    with pytest.raises(ValueError):
        squeeze_terms(-1, 5)


def test_raabe_terms_match_math_comb():
    assert list(raabe_test(paper_terms(1000)).terms) == _comb_terms(0, 1001)


# ---------------------------------------------------------------------------
# ratio test
# ---------------------------------------------------------------------------

def test_paper_series_ratios_exact():
    report = raabe_test(paper_terms(1000))
    for k in range(1, 1001):
        assert report.ratio(k) == Coeff(Fraction(k, 2 * k + 1))
    assert report.verdict == "divergent"


def test_inverse_square_ratios_exact():
    # a convergent series fails the squeeze identity, so its ratios are
    # divided out of its own terms and the verdict is inconclusive
    report = raabe_test(from_one(inverse_power(2))(100))
    for k in (1, 10, 100):
        assert report.ratio(k) == Coeff(Fraction(2 * k + 1, k))
    assert report.verdict == "inconclusive"


def test_harmonic_is_inconclusive_without_fallback():
    report = raabe_test(from_one(inverse_power(1))(100))
    assert all(report.ratio(k) == Coeff(1) for k in range(1, 101))
    assert report.verdict == "inconclusive"


def test_verdict_soundness_across_controls():
    for label, terms, expected in CONTROLS:
        report = raabe_test(terms(200))
        if expected == "divergent":
            assert report.verdict != "convergent", label
        elif expected == "convergent":
            assert report.verdict != "divergent", label
        else:
            assert report.verdict == "inconclusive", label


def mutated_squeeze_terms(first, last):
    """``squeeze_terms`` with its step divided by k+2 in place of k+1."""
    central = math.comb(2 * first, first)
    out = []
    for k in range(first, last + 1):
        out.append(Coeff.from_integers(0, central, denominator=1 << (2 * k)))
        central = central * 2 * (2 * k + 1) // (k + 2)
    return out


def test_a_wrong_step_makes_the_ratio_test_inconclusive():
    report = raabe_test(mutated_squeeze_terms(0, 201))
    assert report.verdict == "inconclusive"
    # its ratios are the terms' own, never the squeeze series' k/(2k+1)
    for k in (1, 2, 100, 200):
        assert report.ratio(k) != Coeff(Fraction(k, 2 * k + 1)), k
    # one wrong term is enough, and the ratios either side of it are its own
    terms = paper_terms(200)
    terms[150] = terms[150] * Fraction(3, 2)
    report = raabe_test(terms)
    assert report.verdict == "inconclusive"
    assert report.ratio(149) == Coeff(149 * (Fraction(300, 299) * Fraction(2, 3) - 1))
    assert report.ratio(150) == Coeff(150 * (Fraction(302, 301) * Fraction(3, 2) - 1))


def test_raabe_rejects_bad_input():
    with pytest.raises(ValueError):
        raabe_test(paper_terms(5))
    zeros = from_one(lambda k: Coeff(Fraction(max(0, 3 - k))))
    with pytest.raises(ValueError, match="k=3 is not positive"):
        raabe_test(zeros(50))


def test_raabe_rejects_a_non_real_term():
    terms = paper_terms(20)
    terms[7] = terms[7] * I_UNIT
    with pytest.raises(ValueError, match="non-real"):
        raabe_test(terms)


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------

def test_paper_partial_sums_growth():
    checkpoints = [10**3, 10**4]
    report = partial_sum_growth(checkpoints, squeeze_partial_sums(checkpoints))
    assert report.bounds_hold
    # strictly increasing and exactly exceeding 100 within range
    assert report.partial_sums[0] < report.partial_sums[1]
    assert report.partial_sums[1] > Coeff(100)
    assert math.isclose(
        float(report.partial_sums[0]), 50.4815711750, rel_tol=1e-9
    )


def test_bounds_hold_at_every_k_to_2000():
    checkpoints = range(1, 2001)
    assert partial_sum_growth(checkpoints, squeeze_partial_sums(checkpoints)).bounds_hold
    # S_1^2 = 9/2, so 4K S_K^2 = (3K+1) S_K^2 = 2 (2K+1)^2 = 18 at K = 1: both
    # bounds are equalities there, which pins their non-strict comparisons
    (s_1,) = squeeze_partial_sums([1])
    assert s_1 * s_1 == Coeff(Fraction(9, 2))


def test_bound_induction_steps_expand_to_k():
    # c_{K+1} = c_K (2K+1)/(2K+2) carries each bound on c_K^2 = (C(2K,K)/4^K)^2
    # from K to K+1 because these differences are nonnegative
    k = sympy.symbols("K")
    assert sympy.expand((2 * k + 1) ** 2 * (k + 1) - 4 * k * (k + 1) ** 2) == k + 1
    assert sympy.expand((2 * k + 2) ** 2 * (3 * k + 1) - (2 * k + 1) ** 2 * (3 * k + 4)) == k


def test_mutated_partial_sums_break_the_bounds():
    checkpoints = [1, 10, 10**3, 10**4]
    combs = [math.comb(2 * k, k) for k in checkpoints]
    without_odd_factor = [
        Coeff.from_integers(0, c, denominator=1 << (2 * k)) for k, c in zip(checkpoints, combs)
    ]
    one_bit_short = [
        Coeff.from_integers(0, (2 * k + 1) * c, denominator=1 << (2 * k - 1))
        for k, c in zip(checkpoints, combs)
    ]
    for sums in (without_odd_factor, one_bit_short):
        assert not partial_sum_growth(checkpoints, sums).bounds_hold
        for k, s in zip(checkpoints, sums):
            assert not partial_sum_growth([k], [s]).bounds_hold, k


def test_convergent_control_fails_the_bounds():
    checkpoints = [128, 512, 2048]
    report = partial_sum_growth(checkpoints, naive_partial_sums(inverse_power(2), checkpoints))
    assert not report.bounds_hold
    assert abs(float(report.partial_sums[-1]) - math.pi**2 / 6) < 1e-3


def test_constant_series_linear_growth():
    # S_K = K grows too fast for the K^(1/2) bounds
    checkpoints = [100, 1000]
    report = partial_sum_growth(checkpoints, naive_partial_sums(constant, checkpoints))
    assert report.partial_sums == (Coeff(100), Coeff(1000))
    assert not report.bounds_hold


def test_partial_sum_checkpoint_validation():
    with pytest.raises(ValueError):
        partial_sum_growth([100, 100], squeeze_partial_sums([100, 100]))
    with pytest.raises(ValueError):
        partial_sum_growth([], [])
    # S_0 of a series from k = 1 is the empty sum
    with pytest.raises(ValueError, match="S_0 is not positive"):
        partial_sum_growth([0, 10], naive_partial_sums(inverse_power(2), [0, 10]))


def test_partial_sum_growth_rejects_a_checkpoint_that_is_not_positive():
    # S_0 of the squeeze series is sqrt2 > 0, so only the checkpoint rule
    # keeps log 0 out of the fit
    with pytest.raises(ValueError, match="checkpoint 0 is not positive"):
        partial_sum_growth([0, 10, 100], squeeze_partial_sums([0, 10, 100]))
    with pytest.raises(ValueError, match="checkpoint -5 is not positive"):
        partial_sum_growth([-5, 10], squeeze_partial_sums([1, 10]))


def test_partial_sum_growth_needs_one_positive_sum_per_checkpoint():
    checkpoints = [10, 100, 1000]
    sums = squeeze_partial_sums(checkpoints)
    with pytest.raises(ValueError, match="2 partial sums for 3 checkpoints"):
        partial_sum_growth(checkpoints, sums[:2])
    with pytest.raises(ValueError, match="4 partial sums for 3 checkpoints"):
        partial_sum_growth(checkpoints, [*sums, sums[-1]])
    for bad in (Coeff(0), -sums[1]):
        with pytest.raises(ValueError, match="S_100 is not positive"):
            partial_sum_growth(checkpoints, [sums[0], bad, sums[2]])
    with pytest.raises(ValueError, match="non-real"):
        partial_sum_growth(checkpoints, [sums[0], sums[1] * I_UNIT, sums[2]])


def test_csv_columns():
    report = raabe_test(paper_terms(20))
    lines = raabe_csv(report).strip().splitlines()
    assert lines[0] == "k,rho,S_k"
    assert len(lines) == 21
    k, rho, s = lines[1].split(",")
    assert k == "1"
    assert math.isclose(float(rho), 1 / 3)
    assert math.isclose(float(s), math.sqrt(2) * 1.5)


def test_csv_matches_per_term_construction():
    # oracle: every a_k rebuilt through the per-term closed form
    report = raabe_test(paper_terms(1000))
    lines = ["k,rho,S_k"]
    acc = 0.0
    for k in range(1001):
        acc += float(term_norm2(k))
        if k >= 1:
            lines.append(f"{k},{float(report.ratio(k))!r},{acc!r}")
    assert raabe_csv(report) == "\n".join(lines) + "\n"


def test_ratio_test_depth_is_bounded():
    assert raabe_test(paper_terms(RAABE_KMAX_LIMIT)).verdict == "divergent"
    with pytest.raises(ValueError, match=str(RAABE_KMAX_LIMIT)):
        raabe_test(paper_terms(RAABE_KMAX_LIMIT + 1))


def test_series_layer_runs_without_numpy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\n"
        "from bateman.series import partial_sum_growth, raabe_test, squeeze_partial_sums, squeeze_terms\n"
        "assert raabe_test(squeeze_terms(0, 1001)).verdict == 'divergent'\n"
        "checkpoints = (10**3, 10**4, 10**5)\n"
        "assert partial_sum_growth(checkpoints, squeeze_partial_sums(checkpoints)).bounds_hold\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == ["False"]
