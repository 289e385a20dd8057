import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bateman.radicals import SqrtRational, factorial_sqrt, squarefree_decompose


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(4) == (2, 1)
    assert squarefree_decompose(24) == (2, 6)
    assert squarefree_decompose(360) == (6, 10)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_normalization():
    assert SqrtRational(Fraction(1, 8), 24) == SqrtRational(Fraction(1, 4), 6)
    assert SqrtRational(0, 7) == SqrtRational(0, 1)
    assert SqrtRational(3, 1) == 3


def test_rational_values_hash_like_the_equal_rational():
    for value in (0, 2, -5, Fraction(3, 4)):
        assert SqrtRational(value) == value and hash(SqrtRational(value)) == hash(value)
    assert len({2, SqrtRational(2)}) == 1
    assert SqrtRational.sqrt_int(4) in {2}
    assert SqrtRational(Fraction(1, 8), 24) in {SqrtRational(Fraction(1, 4), 6)}


def test_products_reduce():
    a = SqrtRational.sqrt_int(6)
    b = SqrtRational.sqrt_int(10)
    assert a * b == SqrtRational(2, 15)
    assert a * a == 6
    assert (a * Fraction(1, 3)) == SqrtRational(Fraction(1, 3), 6)


def test_addition_same_radicand_only():
    assert SqrtRational(1, 2) + SqrtRational(2, 2) == SqrtRational(3, 2)
    with pytest.raises(ValueError):
        SqrtRational(1, 2) + SqrtRational(1, 3)


def test_factorial_sqrt_squares_to_factorial():
    for n in range(0, 60):
        assert factorial_sqrt(n).square() == math.factorial(n)


def test_float_value():
    assert math.isclose(float(SqrtRational(Fraction(1, 4), 6)), math.sqrt(6) / 4)


@given(st.integers(min_value=1, max_value=4000), st.integers(min_value=1, max_value=4000))
def test_product_reduction_matches_floats(m, n):
    exact = SqrtRational.sqrt_int(m) * SqrtRational.sqrt_int(n)
    assert math.isclose(float(exact), math.sqrt(m) * math.sqrt(n), rel_tol=1e-12)
    s, rad = squarefree_decompose(m)
    assert s * s * rad == m
