import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest

from bateman.field import Coeff, SQRT2
from bateman.radicals import prime_sieve, primes_up_to
from bateman.series import (
    RAABE_KMAX_LIMIT,
    SeriesTerms,
    _central_binomial,
    _squeeze_partial_sums,
    _squeeze_terms,
    partial_sum_growth,
    raabe_csv,
    raabe_test,
    squeeze_norm_series,
    term_norm2,
)


def series_1_over(power: int, label: str) -> SeriesTerms:
    return SeriesTerms(label, lambda k: Coeff(Fraction(1, k**power)), k_start=1)


PAPER_SERIES = squeeze_norm_series()

# ten standard control sequences for the verdict-soundness sweep
CONTROLS = [
    (PAPER_SERIES, "divergent"),
    (series_1_over(2, "inverse squares"), "convergent"),
    (series_1_over(3, "inverse cubes"), "convergent"),
    (
        SeriesTerms("telescoping", lambda k: Coeff(Fraction(1, k * (k + 1))), k_start=1),
        "convergent",
    ),
    (SeriesTerms("geometric", lambda k: Coeff(Fraction(1, 2**k)), k_start=1), "convergent"),
    (
        SeriesTerms("k times (3/4)^k", lambda k: Coeff(k * Fraction(3, 4) ** k), k_start=1),
        "convergent",
    ),
    (SeriesTerms("constant", lambda k: Coeff(1), k_start=1), "divergent"),
    (SeriesTerms("linear", lambda k: Coeff(k), k_start=1), "divergent"),
    (series_1_over(1, "harmonic"), "inconclusive"),
    (
        SeriesTerms("shifted harmonic", lambda k: Coeff(Fraction(1, k + 5)), k_start=1),
        "inconclusive",
    ),
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
    fast = PAPER_SERIES.fast_partial_sums(checkpoints)
    acc = Coeff(0)
    naive = {}
    for k in range(1001):
        acc = acc + term_norm2(k)
        naive[k] = acc
    assert fast == [naive[k] for k in checkpoints]


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
    _squeeze_partial_sums(checkpoints)
    tracemalloc.start()
    try:
        _squeeze_partial_sums(checkpoints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600_000, peak


def test_fast_partial_sums_match_comb_closed_form_at_1e5():
    k = 10**5
    (fast,) = PAPER_SERIES.fast_partial_sums([k])
    assert fast == Coeff(0, Fraction((2 * k + 1) * math.comb(2 * k, k), 4**k))


def test_series_values_match_fraction_construction():
    # oracle: the Fraction construction, reduced by a gcd
    ks = [*range(301), 10**3, 10**4, 10**5]
    sums = PAPER_SERIES.fast_partial_sums(ks)
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
    assert _squeeze_terms(0, 1001) == _comb_terms(0, 1001)
    assert _squeeze_terms(37, 140) == _comb_terms(37, 140)
    assert _squeeze_terms(500, 500) == _comb_terms(500, 500)
    assert _squeeze_terms(0, 1001) == _comb_terms(0, 1001)
    assert _squeeze_terms(3, 2) == []
    with pytest.raises(ValueError):
        _squeeze_terms(-1, 5)


def test_raabe_terms_match_math_comb():
    assert list(raabe_test(PAPER_SERIES, 1000).terms) == _comb_terms(0, 1001)


# ---------------------------------------------------------------------------
# ratio test
# ---------------------------------------------------------------------------

def test_paper_series_ratios_exact():
    report = raabe_test(PAPER_SERIES, 1000)
    for k in range(1, 1001):
        assert report.ratio(k) == Coeff(Fraction(k, 2 * k + 1))
    assert report.verdict == "divergent"
    assert report.tail_monotone
    half = Coeff(Fraction(1, 2))
    assert report.limit_low <= half <= report.limit_high
    assert report.limit_high < Coeff(1)


def test_inverse_square_ratios_exact():
    report = raabe_test(series_1_over(2, "inverse squares"), 100)
    for k in (1, 10, 100):
        assert report.ratio(k) == Coeff(Fraction(2 * k + 1, k))
    assert report.verdict == "convergent"
    two = Coeff(2)
    assert report.limit_low <= two <= report.limit_high


def test_harmonic_is_inconclusive_without_fallback():
    report = raabe_test(series_1_over(1, "harmonic"), 100)
    assert all(report.ratio(k) == Coeff(1) for k in range(1, 101))
    assert report.verdict == "inconclusive"


def test_verdict_soundness_across_controls():
    for series, expected in CONTROLS:
        report = raabe_test(series, 200)
        if expected == "divergent":
            assert report.verdict != "convergent", series.label
        elif expected == "convergent":
            assert report.verdict != "divergent", series.label
        else:
            assert report.verdict == "inconclusive", series.label


def test_verdicts_exact_on_decisive_controls():
    for series, expected in CONTROLS:
        if expected == "inconclusive":
            continue
        report = raabe_test(series, 200)
        assert report.verdict == expected, (series.label, report.verdict)


def test_raabe_rejects_bad_input():
    with pytest.raises(ValueError):
        raabe_test(PAPER_SERIES, 5)
    zeros = SeriesTerms("has zero", lambda k: Coeff(Fraction(max(0, 3 - k))), k_start=1)
    with pytest.raises(ValueError):
        raabe_test(zeros, 50)


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------

def test_paper_partial_sums_growth():
    report = partial_sum_growth(PAPER_SERIES, [10**3, 10**4])
    assert 0.45 <= report.fitted_exponent <= 0.55
    # strictly increasing and exactly exceeding 100 within range
    assert report.partial_sums[0] < report.partial_sums[1]
    assert report.partial_sums[1] > Coeff(100)
    assert math.isclose(
        report.partial_sum_floats[0], 50.4815711750, rel_tol=1e-9
    )


def test_convergent_control_flat_exponent():
    report = partial_sum_growth(series_1_over(2, "inverse squares"), [128, 512, 2048])
    assert abs(report.fitted_exponent) < 0.05
    assert abs(report.partial_sum_floats[-1] - math.pi**2 / 6) < 1e-3


def test_constant_series_linear_growth():
    report = partial_sum_growth(
        SeriesTerms("constant", lambda k: Coeff(1), k_start=1), [100, 1000]
    )
    assert abs(report.fitted_exponent - 1.0) < 1e-9


def test_partial_sum_checkpoint_validation():
    with pytest.raises(ValueError):
        partial_sum_growth(PAPER_SERIES, [100, 100])
    with pytest.raises(ValueError):
        partial_sum_growth(PAPER_SERIES, [])
    with pytest.raises(ValueError):
        partial_sum_growth(series_1_over(2, "inverse squares"), [0, 10])


def test_csv_columns():
    report = raabe_test(PAPER_SERIES, 20)
    lines = raabe_csv(report).strip().splitlines()
    assert lines[0] == "k,rho,S_k"
    assert len(lines) == 21
    k, rho, s = lines[1].split(",")
    assert k == "1"
    assert math.isclose(float(rho), 1 / 3)
    assert math.isclose(float(s), math.sqrt(2) * 1.5)


def test_csv_matches_per_term_construction():
    # oracle: every a_k rebuilt through series.term
    report = raabe_test(PAPER_SERIES, 1000)
    lines = ["k,rho,S_k"]
    acc = 0.0
    for k in range(1001):
        acc += float(PAPER_SERIES.term(k))
        if k >= 1:
            lines.append(f"{k},{float(report.ratio(k))!r},{acc!r}")
    assert raabe_csv(report) == "\n".join(lines) + "\n"


def test_ratio_test_depth_is_bounded():
    constant = SeriesTerms("constant", lambda k: Coeff(1), k_start=1)
    assert raabe_test(constant, RAABE_KMAX_LIMIT).verdict == "divergent"
    with pytest.raises(ValueError, match=str(RAABE_KMAX_LIMIT)):
        raabe_test(constant, RAABE_KMAX_LIMIT + 1)
