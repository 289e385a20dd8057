import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bateman.classical import BatemanParams
from bateman.field import Coeff, I_UNIT, INV_SQRT2
from bateman.operators import (
    LinDiffOp,
    PolyGauss,
    _add_indices,
    _sub_indices,
    _unit_index,
    commutator,
    hamiltonian_build,
    hamiltonian_parts,
    make_ladder,
    make_pseudo,
    op_adjoint,
    op_apply,
    op_compose,
    poly_add_term,
)
from strategies import coeffs, lin_diff_ops, poly_gausses

H = Fraction(1, 2)


def vacuum(nvars):
    return PolyGauss.standard_vacuum(nvars)


# ---------------------------------------------------------------------------
# op_apply
# ---------------------------------------------------------------------------

def test_apply_gaussian_derivative():
    d = LinDiffOp.derivative(0, 1)
    assert op_apply(d, vacuum(1)) == PolyGauss(1, {(1,): -1}, [[1]])


def test_apply_lowering_annihilates_vacuum():
    a = make_ladder(0, "lower", 1)
    assert op_apply(a, vacuum(1)).is_zero()


def test_apply_counterexample_proposed_vacuum():
    # the proposed two-mode Gaussian is mapped to -x2 times itself (m*omega = 1)
    out = op_apply(make_pseudo("abar1minus"), vacuum(2))
    assert out == PolyGauss(2, {(0, 1): -1}, [[1, 0], [0, 1]])
    assert not out.is_zero()
    out2 = op_apply(make_pseudo("abar2minus"), vacuum(2))
    assert not out2.is_zero()
    assert out2 == PolyGauss(2, {(1, 0): -1}, [[1, 0], [0, 1]])


def diff_per_entry(g, k):
    """d/dx_k of g, rebuilding each S-row unit index per polynomial term (the oracle)."""
    out = {}
    for idx, c in g.poly.items():
        if idx[k] > 0:
            lowered = tuple(e - 1 if i == k else e for i, e in enumerate(idx))
            poly_add_term(out, lowered, c * idx[k])
        if g.lin[k]:
            poly_add_term(out, idx, c * g.lin[k])
        for j in range(g.nvars):
            s = g.quad[k][j]
            if s:
                poly_add_term(out, _add_indices(idx, _unit_index(j, g.nvars)), -(c * s))
    return PolyGauss(g.nvars, out, [list(r) for r in g.quad], list(g.lin))


def op_apply_per_term(op, f):
    """Every term differentiates f from scratch and is added as a new function (the oracle)."""
    result = PolyGauss(f.nvars, {}, [list(r) for r in f.quad], list(f.lin))
    for (alpha, beta), c in op.terms.items():
        g = f
        for k, b in enumerate(beta):
            for _ in range(b):
                g = diff_per_entry(g, k)
        for k, a in enumerate(alpha):
            for _ in range(a):
                g = g.mul_x(k)
        result = result + g * c
    return result


def assert_apply_matches_oracle(op, f):
    before = (list(f.poly.items()), f.quad, f.lin)
    got = op_apply(op, f)
    want = op_apply_per_term(op, f)
    assert got == want
    assert list(got.poly) == list(want.poly)  # same term order, so same rendering
    assert (list(f.poly.items()), f.quad, f.lin) == before  # f is not mutated


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_apply_matches_per_term_oracle(data):
    nvars = data.draw(st.integers(min_value=1, max_value=3))
    assert_apply_matches_oracle(data.draw(lin_diff_ops(nvars)), data.draw(poly_gausses(nvars)))


def test_apply_matches_oracle_on_shared_derivative_prefixes():
    f = PolyGauss(
        3,
        {(0, 0, 0): 1, (1, 0, 2): Coeff(0, 1, H, 0), (0, 2, 1): -3},
        [[1, H, 0], [H, 2, -1], [0, -1, 1]],
        [H, 0, -2],
    )
    betas = [(1, 0, 0), (2, 0, 0), (2, 1, 0), (2, 1, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0)]
    op = LinDiffOp(3, {((i % 2, 0, i % 3), beta): Coeff(i + 1, 0, 0, -1) for i, beta in enumerate(betas)})
    assert_apply_matches_oracle(op, f)
    assert_apply_matches_oracle(LinDiffOp.zero(3), f)
    assert op_apply(LinDiffOp.zero(3), f) == PolyGauss.zero(3)
    for nvars in (1, 2):
        assert_apply_matches_oracle(LinDiffOp.zero(nvars), vacuum(nvars))


def test_scalars_combine_with_operators_and_functions():
    ident = LinDiffOp.identity(2)
    d = LinDiffOp.derivative(0, 2)
    assert ident + 1 == 1 + ident == ident.scale(2)
    assert d - 1 == -(1 - d) == d + (-1)
    assert d + Coeff(0, 1) == Coeff(0, 1) + d == d + ident.scale(Coeff(0, 1))
    assert Coeff(2) * ident == ident * Coeff(2) == ident.scale(2)
    assert Coeff(2) * d == d.scale(2)
    f = PolyGauss(2, {(1, 0): Coeff(1, 1)}, [[1, 0], [0, 1]])
    assert Coeff(2) * f == f * 2 == 2 * f


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        op_apply(LinDiffOp.derivative(0, 1), vacuum(2))


def test_apply_respects_general_weights():
    # d/dx of exp(-x^2 + 3x) picks up (-2x + 3)
    f = PolyGauss.gaussian([[2]], [3])
    out = op_apply(LinDiffOp.derivative(0, 1), f)
    assert out == PolyGauss(1, {(1,): -2, (0,): 3}, [[2]], [3])


def test_polygauss_symmetrizes_quadratic_form():
    f = PolyGauss(2, {(0, 0): 1}, [[1, 2], [0, 1]])
    assert f.quad[0][1] == f.quad[1][0] == Coeff(1)


def test_polygauss_evaluation():
    import cmath

    f = PolyGauss(1, {(2,): 3, (0,): -1}, [[1]], [Fraction(1, 2)])
    z = 0.7
    expected = (3 * z * z - 1) * cmath.exp(-0.5 * z * z + 0.5 * z)
    assert abs(f([z]) - expected) < 1e-12


# ---------------------------------------------------------------------------
# per-term oracles for op_compose and op_adjoint: every term is a Coeff
# product added by poly_add_term, with the exchange table rebuilt each time
# ---------------------------------------------------------------------------

def exchange_per_term(beta, alpha):
    """d^beta x^alpha = sum_j m x^(alpha-j) d^(beta-j), m = prod C(b,j) C(a,j) j!."""
    for j in product(*(range(min(b, a) + 1) for b, a in zip(beta, alpha))):
        m = 1
        for b, a, ji in zip(beta, alpha, j):
            m *= math.comb(b, ji) * math.comb(a, ji) * math.factorial(ji)
        yield j, m


def op_compose_per_term(left, right):
    out = {}
    for (a1, b1), c1 in left.terms.items():
        for (a2, b2), c2 in right.terms.items():
            c = c1 * c2
            for j, m in exchange_per_term(b1, a2):
                key = (_add_indices(a1, _sub_indices(a2, j)), _add_indices(_sub_indices(b1, j), b2))
                poly_add_term(out, key, c * m)
    return LinDiffOp(left.nvars, out)


def op_adjoint_per_term(op):
    out = {}
    for (alpha, beta), c in op.terms.items():
        cc = c.conjugate() * (-1 if sum(beta) % 2 else 1)
        for j, m in exchange_per_term(beta, alpha):
            poly_add_term(out, (_sub_indices(alpha, j), _sub_indices(beta, j)), cc * m)
    return LinDiffOp(op.nvars, out)


def assert_same_operator(got, want):
    assert got == want
    assert list(got.terms) == list(want.terms)  # same term order, so same rendering


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_compose_matches_per_term_oracle(data):
    nvars = data.draw(st.integers(min_value=1, max_value=3))
    x, y = data.draw(lin_diff_ops(nvars)), data.draw(lin_diff_ops(nvars))
    assert_same_operator(op_compose(x, y), op_compose_per_term(x, y))
    # the leading terms of x y and y x cancel inside this one product
    assert_same_operator(op_compose(x + y, x - y), op_compose_per_term(x + y, x - y))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_adjoint_matches_per_term_oracle(data):
    nvars = data.draw(st.integers(min_value=1, max_value=3))
    x = data.draw(lin_diff_ops(nvars))
    assert_same_operator(op_adjoint(x), op_adjoint_per_term(x))
    # the lower-order terms the inner adjoint adds cancel in the outer one
    inner = op_adjoint_per_term(x)
    assert_same_operator(op_adjoint(inner), op_adjoint_per_term(inner))


def test_oracles_agree_where_terms_cancel():
    x = LinDiffOp(1, {((1,), (0,)): 1, ((0,), (1,)): Coeff(0, H, 1, 0)})
    y = LinDiffOp(1, {((0,), (1,)): Coeff(0, -H, -1, 0), ((2,), (1,)): 3})
    # x + y keeps only x's position term and y's x^2 d term
    assert len((x + y).terms) == 2
    assert_same_operator(op_compose(x + y, x - y), op_compose_per_term(x + y, x - y))
    assert_same_operator(op_compose(x, x - x), LinDiffOp.zero(1))
    assert_same_operator(op_adjoint(x - x), LinDiffOp.zero(1))


# ---------------------------------------------------------------------------
# op_compose
# ---------------------------------------------------------------------------

def test_compose_canonical_commutation():
    x = LinDiffOp.position(0, 1)
    d = LinDiffOp.derivative(0, 1)
    assert op_compose(d, x) == LinDiffOp(1, {((1,), (1,)): 1, ((0,), (0,)): 1})
    assert op_compose(x, d) == LinDiffOp(1, {((1,), (1,)): 1})


def test_compose_pseudo_pair_unit_commutators():
    A1, B1, B2 = make_pseudo("A1"), make_pseudo("B1"), make_pseudo("B2")
    assert (op_compose(A1, B1) - op_compose(B1, A1)) == LinDiffOp.identity(2)
    assert (op_compose(A1, B2) - op_compose(B2, A1)).is_zero()


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        op_compose(LinDiffOp.position(0, 1), LinDiffOp.position(0, 2))


def test_compose_higher_order_exchange():
    # d^2 x^2 = x^2 d^2 + 4 x d + 2
    x2 = LinDiffOp(1, {((2,), (0,)): 1})
    d2 = LinDiffOp(1, {((0,), (2,)): 1})
    expected = LinDiffOp(1, {((2,), (2,)): 1, ((1,), (1,)): 4, ((0,), (0,)): 2})
    assert op_compose(d2, x2) == expected


# ---------------------------------------------------------------------------
# op_adjoint
# ---------------------------------------------------------------------------

def test_adjoint_basics():
    d = LinDiffOp.derivative(0, 1)
    assert op_adjoint(d) == -d
    a = make_ladder(0, "lower", 1)
    assert op_adjoint(a) == make_ladder(0, "raise", 1)
    ix = LinDiffOp.position(0, 1).scale(I_UNIT)
    assert op_adjoint(ix) == -ix


def test_adjoint_of_A1_differs_from_B1():
    assert op_adjoint(make_pseudo("A1")) != make_pseudo("B1")


def test_adjoint_B1_canonical_form():
    lit = LinDiffOp(
        2,
        {
            ((1, 0), (0, 0)): H,
            ((0, 1), (0, 0)): H,
            ((0, 0), (1, 0)): H,
            ((0, 0), (0, 1)): -H,
        },
    )
    assert op_adjoint(make_pseudo("B1")) == lit


# ---------------------------------------------------------------------------
# ladder constructors
# ---------------------------------------------------------------------------

def test_make_ladder_forms():
    a = make_ladder(0, "lower", 1)
    assert a == (LinDiffOp.position(0, 1) + LinDiffOp.derivative(0, 1)).scale(INV_SQRT2)
    araise = make_ladder(1, "raise", 2)
    assert araise == (LinDiffOp.position(1, 2) - LinDiffOp.derivative(1, 2)).scale(INV_SQRT2)


def test_make_ladder_commutators():
    a1 = make_ladder(0, "lower", 2)
    a2d = make_ladder(1, "raise", 2)
    a1d = make_ladder(0, "raise", 2)
    assert commutator(a1, a2d).is_zero()
    assert commutator(a1, a1d) == LinDiffOp.identity(2)


def test_make_ladder_errors():
    with pytest.raises(ValueError):
        make_ladder(2, "lower", 2)
    with pytest.raises(ValueError):
        make_ladder(0, "sideways", 1)


# ---------------------------------------------------------------------------
# pseudo-boson constructors
# ---------------------------------------------------------------------------

def test_A1_canonical_form_against_expansion():
    # oracle: expand (a1 - adjoint(a2))/sqrt2 through the operator arithmetic
    a1 = make_ladder(0, "lower", 2)
    a2 = make_ladder(1, "lower", 2)
    expansion = (a1 - op_adjoint(a2)).scale(INV_SQRT2)
    lit = LinDiffOp(
        2,
        {
            ((1, 0), (0, 0)): H,
            ((0, 1), (0, 0)): -H,
            ((0, 0), (1, 0)): H,
            ((0, 0), (0, 1)): H,
        },
    )
    assert make_pseudo("A1") == expansion == lit


def test_every_pseudo_name_is_its_defining_combination():
    # written out from the ladders, apart from the weight table make_pseudo reads
    a1, a2 = make_ladder(0, "lower", 2), make_ladder(1, "lower", 2)
    a1d, a2d = make_ladder(0, "raise", 2), make_ladder(1, "raise", 2)
    defining = {
        "A1": a1 - a2d,
        "A2": a2 - a1d,
        "B1": a1d + a2,
        "B2": a2d + a1,
        "abar1minus": a1 - a2d,
        "abar2minus": a2 - a1d,
        "abar1plus": a1 + a2d,
        "abar2plus": a2 + a1d,
    }
    for name, combo in defining.items():
        assert make_pseudo(name) == combo.scale(INV_SQRT2), name


def test_sign_branches_coincide_with_pairs():
    assert make_pseudo("abar1minus") == make_pseudo("A1")
    assert make_pseudo("abar2minus") == make_pseudo("A2")
    assert make_pseudo("abar1plus") == make_pseudo("B2")
    assert make_pseudo("abar2plus") == make_pseudo("B1")


def test_make_pseudo_unknown_name():
    with pytest.raises(ValueError):
        make_pseudo("abar3minus")


def test_full_commutator_table():
    names = ("A1", "A2", "B1", "B2")
    ops = {n: make_pseudo(n) for n in names}
    for ln in names:
        for rn in names:
            expected = 0
            if ln[0] != rn[0] and ln[1] == rn[1]:
                expected = 1 if ln[0] == "A" else -1
            assert commutator(ops[ln], ops[rn]).as_scalar() == Coeff(expected), (ln, rn)


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------

def test_hamiltonian_gamma_zero_reduces_to_number_difference():
    p = BatemanParams.from_omega(1, 0, 1)
    a1, a2 = make_ladder(0, "lower", 2), make_ladder(1, "lower", 2)
    expected = op_compose(op_adjoint(a1), a1) - op_compose(op_adjoint(a2), a2)
    assert hamiltonian_build(p, "bosonic") == expected
    assert hamiltonian_build(p, "pseudo") == expected


def test_hamiltonian_forms_agree_at_default_parameters():
    p = BatemanParams.from_omega(1, Fraction(1, 5), 1)
    diff = hamiltonian_build(p, "bosonic") - hamiltonian_build(p, "pseudo")
    assert diff.is_zero()


def test_interaction_normal_form():
    damped = BatemanParams.from_omega(1, 2, 1)
    undamped = BatemanParams.from_omega(1, 0, 1)
    hi = hamiltonian_build(damped, "bosonic") - hamiltonian_build(undamped, "bosonic")
    assert hi == LinDiffOp(2, {((1, 0), (0, 1)): I_UNIT, ((0, 1), (1, 0)): I_UNIT})


def test_hamiltonian_requires_rational_omega():
    p = BatemanParams(1, 0, 2)  # omega = sqrt(2), not rational
    with pytest.raises(ValueError):
        hamiltonian_build(p, "bosonic")


def test_hamiltonian_rejects_unknown_form():
    p = BatemanParams.from_omega(1, 0, 1)
    with pytest.raises(ValueError):
        hamiltonian_build(p, "normal")
    with pytest.raises(ValueError):
        hamiltonian_parts("normal")


def test_hamiltonian_parts_of_the_two_forms_are_equal():
    (free_b, inter_b), (free_p, inter_p) = hamiltonian_parts("bosonic"), hamiltonian_parts("pseudo")
    assert free_b == free_p
    assert inter_b == inter_p


def test_hamiltonian_forms_agree_for_random_rationals():
    rng = random.Random(7)
    for _ in range(5):
        m = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        gamma = Fraction(rng.randint(0, 9), rng.randint(1, 9))
        omega = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        p = BatemanParams.from_omega(m, gamma, omega)
        assert hamiltonian_build(p, "bosonic") == hamiltonian_build(p, "pseudo")
        for form in ("bosonic", "pseudo"):
            free, interaction = hamiltonian_parts(form)
            expected = free.scale(omega) + interaction.scale(I_UNIT * (gamma / (2 * m)))
            assert hamiltonian_build(p, form) == expected, form


# ---------------------------------------------------------------------------
# algebraic property tests
# ---------------------------------------------------------------------------

@given(lin_diff_ops(2), poly_gausses(2), poly_gausses(2), coeffs())
@settings(max_examples=40, deadline=None)
def test_apply_is_linear(op, f, g, c):
    fg = f * c
    if not f.same_weight(g):
        g = PolyGauss(2, g.poly, [list(r) for r in f.quad], list(f.lin))
    assert op_apply(op, f + g) == op_apply(op, f) + op_apply(op, g)
    assert op_apply(op, fg) == op_apply(op, f) * c


@given(lin_diff_ops(2), lin_diff_ops(2), poly_gausses(2))
@settings(max_examples=40, deadline=None)
def test_apply_compose_consistency(x, y, f):
    assert op_apply(op_compose(x, y), f) == op_apply(x, op_apply(y, f))


@given(lin_diff_ops(1), lin_diff_ops(1), lin_diff_ops(1))
@settings(max_examples=40, deadline=None)
def test_compose_is_associative(x, y, z):
    assert op_compose(op_compose(x, y), z) == op_compose(x, op_compose(y, z))


@given(lin_diff_ops(2), lin_diff_ops(2))
@settings(max_examples=40, deadline=None)
def test_adjoint_antihomomorphism(x, y):
    assert op_adjoint(op_compose(x, y)) == op_compose(op_adjoint(y), op_adjoint(x))


@given(lin_diff_ops(2))
@settings(max_examples=40, deadline=None)
def test_adjoint_involution(x):
    assert op_adjoint(op_adjoint(x)) == x
