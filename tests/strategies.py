"""Shared hypothesis strategies for the exact symbolic layer."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from bateman.field import Coeff
from bateman.operators import LinDiffOp, PolyGauss



@st.composite
def _small_fractions(draw) -> Fraction:
    """n/d with d in 1..4 and |n/d| <= 3: the value space of
    ``st.fractions(-3, 3, max_denominator=4)``, drawn as two integers,
    which costs hypothesis far less than its fraction strategy."""
    d = draw(st.integers(min_value=1, max_value=4))
    return Fraction(draw(st.integers(min_value=-3 * d, max_value=3 * d)), d)


small_fractions = _small_fractions()
nonzero_fractions = small_fractions.filter(lambda f: f != 0)


@st.composite
def coeffs(draw, allow_zero: bool = True) -> Coeff:
    value = Coeff(
        draw(small_fractions), draw(small_fractions), draw(small_fractions), draw(small_fractions)
    )
    if not allow_zero and value.is_zero():
        value = value + 1
    return value


def multi_indices(nvars: int, max_power: int = 2):
    return st.tuples(*([st.integers(min_value=0, max_value=max_power)] * nvars))


@st.composite
def lin_diff_ops(draw, nvars: int, max_terms: int = 3, max_power: int = 2) -> LinDiffOp:
    nterms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(nterms):
        alpha = draw(multi_indices(nvars, max_power))
        beta = draw(multi_indices(nvars, max_power))
        terms[(alpha, beta)] = draw(coeffs())
    return LinDiffOp(nvars, terms)


@st.composite
def first_order_ops(draw, nvars: int, max_terms: int = 3) -> LinDiffOp:
    nterms = draw(st.integers(min_value=1, max_value=max_terms))
    terms = {}
    for _ in range(nterms):
        alpha = draw(multi_indices(nvars, 1).filter(lambda a: sum(a) <= 1))
        beta = draw(multi_indices(nvars, 1).filter(lambda b: sum(b) <= 1))
        terms[(alpha, beta)] = draw(coeffs())
    return LinDiffOp(nvars, terms)


@st.composite
def poly_gausses(draw, nvars: int, max_terms: int = 3, max_power: int = 2) -> PolyGauss:
    nterms = draw(st.integers(min_value=1, max_value=max_terms))
    poly = {}
    for _ in range(nterms):
        poly[draw(multi_indices(nvars, max_power))] = draw(coeffs())
    quad = [[Fraction(0)] * nvars for _ in range(nvars)]
    for i in range(nvars):
        for j in range(i, nvars):
            value = draw(small_fractions)
            quad[i][j] = value
            quad[j][i] = value
    lin = [draw(small_fractions) for _ in range(nvars)]
    return PolyGauss(nvars, poly, quad, lin)
