import io
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
from bateman.series import (
    RAABE_KMAX_LIMIT,
    SQUEEZE_STEP,
    Step,
    partial_sum_growth,
    raabe_csv,
    raabe_test,
    squeeze_terms,
)


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


def inverse_power(power: int):
    return lambda k: Coeff(Fraction(1, k**power))


def comb_term(k):
    return Coeff(0, Fraction(math.comb(2 * k, k), 4**k))


# Steps a_(k+1)/a_k of control series a_k, k >= 0, as (num, den) coefficients
# with the constant term first; a series from k = 1 is shifted to start at 0.
INVERSE_SQUARES = Step((1, 2, 1), (4, 4, 1))  # a_k = 1/(k+1)^2
HARMONIC = Step((1, 1), (2, 1))  # a_k = 1/(k+1)
CONSTANT = Step((1,), (1,))

# ten standard control sequences for the verdict-soundness sweep:
# (label, step, expected verdict)
CONTROLS = [
    ("squeeze-action squared norms", SQUEEZE_STEP, "divergent"),
    ("inverse squares", INVERSE_SQUARES, "convergent"),
    ("inverse cubes", Step((1, 3, 3, 1), (8, 12, 6, 1)), "convergent"),
    ("telescoping 1/((k+1)(k+2))", Step((1, 1), (3, 1)), "convergent"),
    ("geometric", Step((1,), (2,)), "convergent"),
    ("(k+1) (3/4)^k", Step((6, 3), (4, 4)), "convergent"),
    ("constant", CONSTANT, "divergent"),
    ("linear", Step((2, 1), (1, 1)), "divergent"),
    ("harmonic", HARMONIC, "inconclusive"),
    ("shifted harmonic", Step((6, 1), (7, 1)), "inconclusive"),
]


# ---------------------------------------------------------------------------
# exact terms
# ---------------------------------------------------------------------------

def test_first_three_squared_terms():
    assert squeeze_terms(0, 2) == [SQRT2, Coeff(0, Fraction(1, 2)), Coeff(0, Fraction(3, 8))]


def test_term_rejects_negative_index():
    with pytest.raises(ValueError):
        squeeze_terms(-1, 5)


def test_recurrence_matches_factorial_closed_form():
    # independent oracle: sqrt2 (2k)! / (k!^2 4^k)
    for k, a in enumerate(squeeze_terms(0, 499)):
        assert a == Coeff(0, Fraction(math.factorial(2 * k), math.factorial(k) ** 2 * 4**k)), k


def test_fast_partial_sums_match_naive_summation():
    # the reported partial sums against exact summation of every term
    checkpoints = [1, 5, 60, 300, 1000]
    report = partial_sum_growth(checkpoints)
    exact = naive_partial_sums(comb_term, checkpoints, k_start=0)
    for k, fast, s in zip(checkpoints, report.partial_sums, exact):
        assert math.isclose(fast, float(s), rel_tol=1e-12), k


def test_fast_partial_sums_match_comb_closed_form_at_1e5():
    # math.lgamma loses about 1e-10 relative at 10^5 (its values near 10^6
    # carry an absolute error of an ulp)
    k = 10**5
    (fast,) = partial_sum_growth([k]).partial_sums
    exact = float(Fraction((2 * k + 1) * math.comb(2 * k, k), 4**k) * Fraction(math.sqrt(2)))
    assert math.isclose(fast, exact, rel_tol=1e-9)


def test_series_values_match_fraction_construction():
    # oracle: the Fraction construction, reduced by a gcd
    ks = [*range(1, 301), 10**3, 10**4]
    for k, a in enumerate(squeeze_terms(0, 300)):
        assert a == comb_term(k), k
    sums = partial_sum_growth(ks).partial_sums
    for k, s_k in zip(ks, sums):
        c = math.comb(2 * k, k)
        exact = float(Fraction((2 * k + 1) * c, 4**k) * Fraction(math.sqrt(2)))
        assert math.isclose(s_k, exact, rel_tol=1e-10), k


def test_stepped_terms_match_math_comb():
    # the step from the start against math.comb, from k = 0 and from later
    # starts, in both orders of the calls
    assert squeeze_terms(0, 1001) == [comb_term(k) for k in range(1002)]
    assert squeeze_terms(37, 140) == [comb_term(k) for k in range(37, 141)]
    assert squeeze_terms(500, 500) == [comb_term(500)]
    assert squeeze_terms(0, 1001) == [comb_term(k) for k in range(1002)]
    assert squeeze_terms(3, 2) == []
    with pytest.raises(ValueError):
        squeeze_terms(-1, 5)


def raabe_text(kmax: int) -> str:
    """The CSV that ``raabe_csv`` writes at depth ``kmax``, as one string."""
    out = io.StringIO()
    raabe_csv(raabe_test(kmax), out)
    return out.getvalue()


def raabe_csv_peak(kmax: int) -> int:
    """The traced peak of writing the CSV at depth ``kmax`` to a file that
    keeps nothing in memory, after a small warm-up write."""
    with open(os.devnull, "w") as sink:
        raabe_csv(raabe_test(10), sink)
        tracemalloc.start()
        try:
            raabe_csv(raabe_test(kmax), sink)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_raabe_at_kmax_1e4_stays_far_below_the_exact_term_list():
    # the exact terms a_0 .. a_(10^4 + 1) this test and its CSV once held
    # peaked at 28.1 MB; the float rows alone measured 1.8 MB
    peak = raabe_csv_peak(10**4)
    assert peak < 3_000_000, peak


def test_raabe_csv_at_the_depth_limit_holds_one_block_of_rows():
    # the rows go to the file a block at a time: 0.096 MB measured at 10^5,
    # where the whole text held in memory peaked at 18.7 MB
    peak = raabe_csv_peak(RAABE_KMAX_LIMIT)
    assert peak < 200_000, peak


# ---------------------------------------------------------------------------
# ratio test
# ---------------------------------------------------------------------------

def test_paper_series_ratios_exact():
    report = raabe_test(1000)
    terms = squeeze_terms(0, 1001)
    for k in range(1, 1001):
        assert report.ratio(k) == Coeff(Fraction(k, 2 * k + 1))
        assert report.ratio(k) == Coeff(k) * (terms[k] / terms[k + 1] - 1)
    assert report.verdict == "divergent"


def test_inverse_square_ratios_exact():
    # a convergent series fails the certificate, and its ratios are its own
    report = raabe_test(100, INVERSE_SQUARES)
    for k in (1, 10, 100):
        assert report.ratio(k) == Coeff(Fraction(k * (2 * k + 3), (k + 1) ** 2))
    assert report.verdict == "inconclusive"


def test_harmonic_is_inconclusive_without_fallback():
    # rho_k = k/(k+1) < 1 for every k, yet above the 1/2 margin from k = 2 on
    report = raabe_test(100, HARMONIC)
    assert all(report.ratio(k) == Coeff(Fraction(k, k + 1)) for k in range(1, 101))
    assert report.verdict == "inconclusive"


def test_verdict_soundness_across_controls():
    for label, step, expected in CONTROLS:
        report = raabe_test(200, step)
        if expected == "divergent":
            assert report.verdict != "convergent", label
        elif expected == "convergent":
            assert report.verdict != "divergent", label
        else:
            assert report.verdict == "inconclusive", label


def test_a_wrong_step_makes_the_ratio_test_inconclusive():
    # the denominator 2k+2 read as 2k+4, and the convergent control (k+1)/(k+3)
    for step in (Step((1, 2), (4, 2)), Step((1, 1), (3, 1))):
        report = raabe_test(200, step)
        assert report.verdict == "inconclusive", step
        # its ratios are the step's own, never the squeeze series' k/(2k+1)
        for k in (1, 2, 100, 200):
            assert report.ratio(k) != Coeff(Fraction(k, 2 * k + 1)), k
    assert raabe_test(200, Step((1, 2), (4, 2))).ratio(100) == Coeff(Fraction(300, 201))


def test_raabe_rejects_bad_input():
    with pytest.raises(ValueError):
        raabe_test(5)
    with pytest.raises(ValueError, match=str(RAABE_KMAX_LIMIT)):
        raabe_test(RAABE_KMAX_LIMIT + 1)
    # a_4 = 0 for the step 3 - k; steps with a zero or negative coefficient
    # are refused, since their terms are not certified positive
    for step in (Step((3, -1), (1,)), Step((0, 1), (1, 1)), Step((1, 1), (0, 1))):
        with pytest.raises(ValueError, match="non-negative coefficients"):
            raabe_test(50, step)
    for start in (Coeff(0), -SQRT2):
        with pytest.raises(ValueError, match="start a_0 is not positive"):
            raabe_test(50, start=start)


def test_raabe_rejects_a_non_real_term():
    with pytest.raises(ValueError, match="non-real"):
        raabe_test(20, start=SQRT2 * I_UNIT)
    with pytest.raises(ValueError, match="non-real"):
        partial_sum_growth([10], start=SQRT2 * I_UNIT)


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------

def test_paper_partial_sums_growth():
    checkpoints = [10**3, 10**4]
    report = partial_sum_growth(checkpoints)
    assert report.bounds_hold
    assert report.partial_sums[0] < report.partial_sums[1]
    # S_K^2 > 2K, so S_(10^4) > 100 exactly, and not S_(10^4) > 142
    assert report.exceeds(10**4, 100)
    assert not report.exceeds(10**4, 142)
    assert math.isclose(report.partial_sums[0], 50.4815711750, rel_tol=1e-9)


def test_bounds_hold_at_every_k_to_2000():
    # the certificate holds for every K; check its bounds at each K <= 2000
    # against exact running sums of the terms
    assert partial_sum_growth([1]).bounds_hold
    acc = Coeff(0)
    for k, a in enumerate(squeeze_terms(0, 2000)):
        acc = acc + a
        if k:
            q = acc * acc
            assert q * (4 * k) >= 2 * (2 * k + 1) ** 2 >= q * (3 * k + 1), k
            assert acc == a * (2 * k + 1), k  # the closed form S_K = (2K+1) a_K
        if k == 1:
            # S_1^2 = 9/2: both bounds are equalities, which pins their
            # non-strict comparisons
            assert acc * acc == Coeff(Fraction(9, 2))


def test_bound_induction_steps_expand_to_k():
    # independent oracle: sympy expands both margins of the squeeze step
    k = sympy.symbols("K")
    num, den = (sum(c * k**i for i, c in enumerate(p)) for p in SQUEEZE_STEP)
    lower, upper = num**2 * (k + 1) - k * den**2, den**2 * (3 * k + 1) - num**2 * (3 * k + 4)
    assert sympy.expand(lower) == k + 1
    assert sympy.expand(upper) == k
    assert sympy.expand((2 * k + 2) * num - (2 * k + 1) * den) == 0  # telescoping
    assert partial_sum_growth([1]).margins == ((1, 1), (0, 1))


def test_mutated_partial_sums_break_the_bounds():
    # the start doubled breaks the base case, a step 2k+1 over 2k+4 the
    # telescoping, and the step 1/2 the lower margin
    for step, start in ((SQUEEZE_STEP, SQRT2 * 2), (Step((1, 2), (4, 2)), SQRT2),
                        (Step((1,), (2,)), SQRT2)):
        report = partial_sum_growth([1, 10, 10**3, 10**4], step, start)
        assert not report.bounds_hold
        assert report.partial_sums == ()
        assert not report.exceeds(10**4, 100)
    assert partial_sum_growth([1], Step((1,), (2,))).margins == ((1, -3), (0, 9))


def test_convergent_control_fails_the_bounds():
    checkpoints = [128, 512, 2048]
    report = partial_sum_growth(checkpoints, INVERSE_SQUARES, Coeff(1))
    assert not report.bounds_hold
    assert not all(min(m) >= 0 for m in report.margins)
    sums = naive_partial_sums(inverse_power(2), checkpoints)
    assert abs(float(sums[-1]) - math.pi**2 / 6) < 1e-3


def test_constant_series_linear_growth():
    # S_K = K + 1 grows too fast for the K^(1/2) bounds: the upper margin
    # 3K + 1 - (3K + 4) is negative
    report = partial_sum_growth([100, 1000], CONSTANT, Coeff(1))
    assert report.margins == ((1,), (-3,))
    assert not report.bounds_hold


def test_partial_sum_checkpoint_validation():
    with pytest.raises(ValueError):
        partial_sum_growth([100, 100])
    with pytest.raises(ValueError):
        partial_sum_growth([])
    with pytest.raises(ValueError, match="strictly increasing"):
        partial_sum_growth([10, 5])


def test_partial_sum_growth_rejects_a_checkpoint_that_is_not_positive():
    with pytest.raises(ValueError, match="checkpoint 0 is not positive"):
        partial_sum_growth([0, 10, 100])
    with pytest.raises(ValueError, match="checkpoint -5 is not positive"):
        partial_sum_growth([-5, 10])


def test_partial_sum_growth_needs_a_positive_series():
    for start in (Coeff(0), -SQRT2):
        with pytest.raises(ValueError, match="start a_0 is not positive"):
            partial_sum_growth([10], start=start)
    with pytest.raises(ValueError, match="non-negative coefficients"):
        partial_sum_growth([10], Step((1, -2), (2, 2)))


def test_csv_columns():
    lines = raabe_text(20).strip().splitlines()
    assert lines[0] == "k,rho,S_k"
    assert len(lines) == 21
    k, rho, s = lines[1].split(",")
    assert k == "1"
    assert math.isclose(float(rho), 1 / 3)
    assert math.isclose(float(s), math.sqrt(2) * 1.5)


def test_csv_matches_per_term_construction():
    # oracle: every a_k rebuilt from math.comb; rho is correctly rounded either
    # way, and the stepped float S_k stays within a few ulps of the exact sum
    rows = raabe_text(1000).splitlines()
    assert rows[0] == "k,rho,S_k"
    acc = Coeff(0)
    for k in range(1001):
        acc = acc + comb_term(k)
        if k >= 1:
            kk, rho, s_k = rows[k].split(",")
            assert kk == str(k) and rho == repr(float(Fraction(k, 2 * k + 1)))
            assert math.isclose(float(s_k), float(acc), rel_tol=1e-14), k
    assert len(rows) == 1001


def test_ratio_test_depth_is_bounded():
    report = raabe_test(RAABE_KMAX_LIMIT)
    assert report.verdict == "divergent"
    assert report.ratio(RAABE_KMAX_LIMIT) == Coeff(Fraction(10**5, 2 * 10**5 + 1))
    with pytest.raises(ValueError, match=str(RAABE_KMAX_LIMIT)):
        raabe_test(RAABE_KMAX_LIMIT + 1)


def test_series_layer_runs_without_numpy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import io, sys\n"
        "from bateman.series import partial_sum_growth, raabe_csv, raabe_test\n"
        "assert raabe_test(1000).verdict == 'divergent'\n"
        "raabe_csv(raabe_test(1000), io.StringIO())\n"
        "assert partial_sum_growth((10**3, 10**4, 10**5)).bounds_hold\n"
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
