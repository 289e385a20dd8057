import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


# ---------------------------------------------------------------------------
# the integer representation against the former four-Fraction one
# ---------------------------------------------------------------------------

class FractionModel:
    """The former representation: four reduced Fractions, no short paths (the oracle)."""

    def __init__(self, a=0, b=0, c=0, d=0):
        self.parts = tuple(Fraction(v) for v in (a, b, c, d))

    def __add__(self, o):
        return FractionModel(*(x + y for x, y in zip(self.parts, o.parts)))

    def __sub__(self, o):
        return FractionModel(*(x - y for x, y in zip(self.parts, o.parts)))

    def __neg__(self):
        return FractionModel(*(-x for x in self.parts))

    def __mul__(self, o):
        a1, b1, c1, d1 = self.parts
        a2, b2, c2, d2 = o.parts
        return FractionModel(
            a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    def conjugate(self):
        a, b, c, d = self.parts
        return FractionModel(a, b, -c, -d)

    def inverse(self):
        zbar = self.conjugate()
        p, q = (self * zbar).parts[:2]
        denom = p * p - 2 * q * q
        return zbar * FractionModel(p / denom, -q / denom)

    def sign(self):
        p, q = self.parts[:2]
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if (p > 0) == (q > 0):
            return 1 if p > 0 else -1
        return 1 if (2 * q * q > p * p) == (q > 0) else -1

    def __float__(self):
        a, b = self.parts[:2]
        return float(a) + math.sqrt(2.0) * float(b)

    def __complex__(self):
        a, b, c, d = self.parts
        return complex(float(a) + math.sqrt(2.0) * float(b), float(c) + math.sqrt(2.0) * float(d))

    def __repr__(self):
        return "Coeff({!r}, {!r}, {!r}, {!r})".format(*self.parts)

    def __str__(self):
        def part(r, s):
            chunks = [str(r)] if r else []
            if s:
                chunks.append({1: "sqrt2", -1: "-sqrt2"}.get(s, f"{s}*sqrt2"))
            if not chunks:
                return "0"
            return chunks[0] + "".join(c if c.startswith("-") else "+" + c for c in chunks[1:])

        a, b, c, d = self.parts
        re, im = part(a, b), part(c, d)
        if im == "0":
            return re
        return f"({im})*i" if re == "0" else f"{re}+({im})*i"


# components as ints or Fractions, zero often, so every short path is drawn
components = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)
component_quads = st.tuples(components, components, components, components)


def parts(x):
    return (x.a, x.b, x.c, x.d)


def assert_canonical(x):
    assert type(x._n) is int and x._n > 0
    assert math.gcd(x._a, x._b, x._c, x._d, x._n) == 1
    if x.is_zero():
        assert (x._a, x._b, x._c, x._d, x._n) == (0, 0, 0, 0, 1)
    assert all(type(v) is Fraction for v in parts(x))


@given(component_quads, component_quads)
def test_arithmetic_matches_fraction_model(p, q):
    x, y = Coeff(*p), Coeff(*q)
    mx, my = FractionModel(*p), FractionModel(*q)
    assert parts(x) == mx.parts and parts(y) == my.parts
    for got, want in (
        (x + y, mx + my),
        (x - y, mx - my),
        (x * y, mx * my),
        (-x, -mx),
        (x.conjugate(), mx.conjugate()),
    ):
        assert parts(got) == want.parts
        assert str(got) == str(want) and repr(got) == repr(want)
        assert complex(got) == complex(want)  # bit for bit
        real, mreal = got.real, FractionModel(*want.parts[:2])
        assert float(real) == float(mreal)  # bit for bit
        assert real.sign() == mreal.sign()
    if not y.is_zero():
        assert parts(y.inverse()) == my.inverse().parts
    for scalar in (p[0], q[0]):  # == with an int or a Fraction
        assert (x == scalar) == (mx.parts == FractionModel(scalar).parts)


@given(component_quads, component_quads)
@settings(max_examples=60)
def test_canonical_form_and_hash(p, q):
    x, y = Coeff(*p), Coeff(*q)
    values = [x, y, x + y, x - y, x * y, -x, x.conjugate(), x.real, x.imag, x - x, ZERO * y]
    if not y.is_zero():
        values += [y.inverse(), x / y]
    for v in values:
        assert_canonical(v)
    # equal values built by different routes are equal and hash equal
    for u, v in ((x * y + x, x * (y + 1)), ((x + y) - y, x), (x - x, ZERO), (x.real + x.imag * I_UNIT, x)):
        assert u == v and hash(u) == hash(v)
    if not y.is_zero():
        assert (x * y) / y == x and hash((x * y) / y) == hash(x)
    assert Coeff.from_integers(*(v * 6 for v in (x._a, x._b, x._c, x._d)), denominator=6 * x._n) == x


def test_rational_values_hash_like_the_equal_int_or_fraction():
    # equal objects must hash equally, so sets and dicts treat them as one key
    for value in (0, 1, -7, 2**70, Fraction(1, 2), Fraction(-22, 7), Fraction(3, 2**80)):
        assert Coeff(value) == value and hash(Coeff(value)) == hash(value), value
    assert len({1, Coeff(1)}) == 1
    assert 0 in {Coeff(0): "x"}
    assert {Fraction(1, 2): "half"}[Coeff(Fraction(1, 2))] == "half"
    assert Coeff(2) * Fraction(1, 4) in {Fraction(1, 2)}
    # irrational and complex values keep their component hash
    assert SQRT2 not in {2, Fraction(1, 2)} and I_UNIT not in {1, -1}


@given(
    st.tuples(*[st.integers(min_value=-(2**70), max_value=2**70)] * 4),
    st.integers(min_value=0, max_value=80),
    st.one_of(
        st.integers(min_value=0, max_value=120).map(lambda k: 1 << k),  # trailing-zero path
        st.integers(min_value=1, max_value=10**30),  # gcd path
    ),
)
def test_integer_reduction_matches_gcd(nums, shift, den):
    nums = tuple(v << shift for v in nums)
    x = Coeff.from_integers(*nums, denominator=den)
    g = math.gcd(*nums, den)
    assert (x._a, x._b, x._c, x._d, x._n) == tuple(v // g for v in (*nums, den))


def test_from_integers_rejects_bad_input():
    with pytest.raises(ValueError):
        Coeff.from_integers(1, denominator=0)
    with pytest.raises(ValueError):
        Coeff.from_integers(1, denominator=-4)
    with pytest.raises(TypeError):
        Coeff.from_integers(Fraction(1, 2))


def test_components_are_read_only_fractions():
    x = Coeff(Fraction(3, 4), 1, 0, Fraction(-1, 6))
    assert parts(x) == (Fraction(3, 4), Fraction(1), Fraction(0), Fraction(-1, 6))
    assert all(type(v) is Fraction for v in parts(x))
    with pytest.raises(AttributeError):
        x.a = Fraction(1)


def test_binary_operators_defer_to_other_types():
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__lt__", "__eq__"):
        assert getattr(ONE, op)(object()) is NotImplemented, op
    with pytest.raises(TypeError):
        ONE + 0.5
    with pytest.raises(TypeError):
        Coeff(0.5)
