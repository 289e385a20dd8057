"""Canonical form of the exact layer: no sparse map stores a zero, and every
coefficient the operator kernels return is reduced.

Operator and function equality are dictionary equality only because every
result keeps this form.  Each case below makes terms cancel inside one call
for most draws, so a stored zero would show.  The kernels sum integer
numerators over a common denominator and reduce each output term once; a
term left unreduced would compare unequal to the same value without any
error, so the reduction is checked directly.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bateman.operators import LinDiffOp, op_adjoint, op_apply, op_compose
from bateman.vacuum import gaussian_ansatz_solve
from hermite import hermite_state
from strategies import coeffs, first_order_ops, lin_diff_ops, poly_gausses


def _stores_no_zero(values) -> bool:
    return not any(c.is_zero() for c in values)


def _all_reduced(values) -> bool:
    """Each value's denominator is positive and its five integers share no factor."""
    return all(c._n > 0 and math.gcd(c._a, c._b, c._c, c._d, c._n) == 1 for c in values)


@given(lin_diff_ops(2), lin_diff_ops(2), coeffs(), poly_gausses(2))
@settings(max_examples=40, deadline=None)
def test_operator_results_store_no_zero(x, y, c, f):
    kernel_results = [
        op_compose(x, y),
        # the leading terms of x y and y x cancel inside this one product
        op_compose(x + y, x - y),
        op_adjoint(x),
        # the lower-order terms the inner adjoint adds cancel in the outer one
        op_adjoint(op_adjoint(x)),
    ]
    results = [x + y, x - y, x - x, (x + y) - y, x + c, c - x, x.scale(c), *kernel_results]
    for op in results:
        assert _stores_no_zero(op.terms.values())
    for op in kernel_results:
        assert _all_reduced(op.terms.values())
    for op in (x, x - x, op_compose(x, y)):
        assert _stores_no_zero(op_apply(op, f).poly.values())
        assert _all_reduced(op_apply(op, f).poly.values())


def _power_in_hermite(n: int) -> dict[int, Fraction]:
    """x^n = sum_m n! / (2^n m! (n - 2m)!) H_(n-2m)(x)."""
    return {
        n - 2 * m: Fraction(
            math.factorial(n), 2**n * math.factorial(m) * math.factorial(n - 2 * m)
        )
        for m in range(n // 2 + 1)
    }


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4),
       coeffs(allow_zero=False))
@settings(max_examples=30, deadline=None)
def test_hermite_state_of_a_monomial_is_that_monomial(p, q, c):
    # every lower monomial of the Hermite products cancels
    state = hermite_state({
        (k1, k2): c * (c1 * c2)
        for k1, c1 in _power_in_hermite(p).items()
        for k2, c2 in _power_in_hermite(q).items()
    })
    assert state.poly == {(p, q): c}


@given(st.lists(first_order_ops(2), min_size=1, max_size=2), coeffs(allow_zero=False))
@settings(max_examples=30, deadline=None)
def test_ansatz_equation_rows_store_no_zero(ops, c):
    # c (x1 d1 - x2 d2) puts -c and +c on S[0,1] in the x1 x2 row
    balanced = LinDiffOp(2, {((1, 0), (1, 0)): c, ((0, 1), (0, 1)): -c})
    for eq in gaussian_ansatz_solve([*ops, balanced]).equations:
        assert _stores_no_zero(v for _, v in eq.coeffs)
        assert eq.coeffs or not eq.rhs.is_zero()
