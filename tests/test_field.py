import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from bateman.field import Coeff, I_UNIT, INV_SQRT2, ONE, SQRT2, ZERO, rational_sqrt
from strategies import coeffs, nonzero_fractions, small_fractions


def test_construction_and_equality():
    assert Coeff(1) == 1
    assert Coeff(Fraction(1, 2)) == Fraction(1, 2)
    assert Coeff(0, 1) == SQRT2
    assert Coeff(1) != Coeff(0, 1)
    assert Coeff() == ZERO and not ZERO


def test_sqrt2_reduction():
    assert SQRT2 * SQRT2 == 2
    assert INV_SQRT2 * SQRT2 == 1
    assert (SQRT2 + 1) * (SQRT2 - 1) == 1


def test_complex_unit():
    assert I_UNIT * I_UNIT == Coeff(-1)
    assert I_UNIT.conjugate() == -I_UNIT
    assert complex(I_UNIT) == 1j


def test_division_and_inverse():
    x = Coeff(Fraction(3, 7), Fraction(-1, 2), Fraction(2, 3), 4)
    assert x * x.inverse() == ONE
    assert (x / x) == ONE
    assert 1 / SQRT2 == INV_SQRT2
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_pow():
    assert (SQRT2 ** 4) == 4
    assert (SQRT2 ** -2) == Fraction(1, 2)
    assert (Coeff(1, 1) ** 0) == ONE


def test_real_sign_and_order():
    assert Coeff(1, -1).sign() == -1  # 1 - sqrt2 < 0
    assert Coeff(-1, 1).sign() == 1
    assert Coeff(3, -2).sign() == 1  # 3 > 2 sqrt2
    assert Coeff(0).sign() == 0
    assert Coeff(1, -1) < 0 < Coeff(-1, 1)
    assert abs(Coeff(1, -1)) == Coeff(-1, 1)
    with pytest.raises(ValueError):
        I_UNIT.sign()


def test_float_conversion():
    assert math.isclose(float(Coeff(1, 1)), 1 + math.sqrt(2))
    with pytest.raises(ValueError):
        float(I_UNIT)
    assert complex(Coeff(1, 0, 1, 0)) == 1 + 1j


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


def test_sqrt_real():
    assert Coeff(2).sqrt_real() == SQRT2
    assert Coeff(Fraction(1, 2)).sqrt_real() == INV_SQRT2
    assert Coeff(3, 2).sqrt_real() == Coeff(1, 1)
    assert Coeff(4).sqrt_real() == Coeff(2)
    assert ZERO.sqrt_real() == ZERO
    assert Coeff(3).sqrt_real() is None
    assert Coeff(-1).sqrt_real() is None
    with pytest.raises(ValueError):
        I_UNIT.sqrt_real()


def test_str_rendering():
    assert str(Coeff(1, Fraction(1, 2))) == "1+1/2*sqrt2"
    assert str(ZERO) == "0"
    assert str(I_UNIT) == "(1)*i"


@given(coeffs(), coeffs(), coeffs())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * ONE == x
    assert x + (-x) == ZERO


@given(coeffs(allow_zero=False))
def test_inverse_axiom(x):
    assert x * x.inverse() == ONE


@given(coeffs(), coeffs())
def test_multiplication_matches_complex_floats(x, y):
    exact = complex(x * y)
    approx = complex(x) * complex(y)
    assert abs(exact - approx) <= 1e-9 * max(1.0, abs(exact))


@given(small_fractions, small_fractions)
def test_real_sign_matches_float(a, b):
    v = Coeff(a, b)
    s = v.sign()
    f = float(v)
    if abs(f) > 1e-12:
        assert s == (1 if f > 0 else -1)


@given(coeffs())
@settings(max_examples=50)
def test_conjugation_is_involutive_and_multiplicative(x):
    assert x.conjugate().conjugate() == x
    y = Coeff(1, 2, 3, Fraction(-1, 2))
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def product_16(x, y):
    """The general 16-product formula, with no short paths (the oracle)."""
    a1, b1, c1, d1 = x.a, x.b, x.c, x.d
    a2, b2, c2, d2 = y.a, y.b, y.c, y.d
    return Coeff(
        a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
        a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
        a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


@given(small_fractions, small_fractions, small_fractions, coeffs())
def test_short_path_products_match_general_formula(r, u, v, z):
    rational = Coeff(r)
    real = Coeff(u, v)
    z_real = Coeff(z.a, z.b)
    for x, y in ((rational, z), (z, rational), (real, z_real), (z_real, real), (real, z)):
        assert x * y == product_16(x, y)


def inverse_general(z):
    """The general inverse zbar * 1/(z zbar), with no real short path (the oracle)."""
    zbar = z.conjugate()
    norm = product_16(z, zbar)
    p, q = norm.a, norm.b
    denom = p * p - 2 * q * q
    return product_16(zbar, Coeff(p / denom, -q / denom))


@given(nonzero_fractions, nonzero_fractions, nonzero_fractions)
def test_real_inverse_short_path_matches_general_formula(r, u, v):
    for z in (Coeff(r), Coeff(0, u), Coeff(u, v)):  # rational, pure sqrt2, general real
        assert z.inverse() == inverse_general(z)
