"""The shared strategies draw exactly the value spaces they stand for."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import small_fractions

# st.fractions(-3, 3, max_denominator=4): every p/q with q <= 4 in [-3, 3]
BOUNDED = {
    Fraction(p, q) for q in range(1, 5) for p in range(-12, 13) if abs(Fraction(p, q)) <= 3
}
# small_fractions: n/d with d in 1..4 and n in -3d..3d
PAIRS = {Fraction(n, d) for d in range(1, 5) for n in range(-3 * d, 3 * d + 1)}


def test_small_fractions_space_equals_bounded_fractions():
    assert PAIRS == BOUNDED
    assert len(PAIRS) == 37


@settings(max_examples=200)
@given(small_fractions, st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_both_strategies_stay_in_the_space(new, old):
    assert new in PAIRS
    assert old in BOUNDED
