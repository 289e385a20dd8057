import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bateman.field import Coeff, I_UNIT, ONE, ZERO
from bateman.operators import (
    LinDiffOp,
    PolyGauss,
    make_ladder,
    make_pseudo,
    op_adjoint,
    op_apply,
)
from bateman.vacuum import (
    DeltaDist,
    QuadratureError,
    _eliminate,
    delta_pair,
    distributional_vacuum_check,
    gaussian_ansatz_solve,
    multiplier_reduction,
)
from strategies import coeffs, first_order_ops, small_fractions


def pseudo_pair():
    return make_pseudo("A1"), make_pseudo("A2")


def adjoint_raising_pair():
    return op_adjoint(make_pseudo("B1")), op_adjoint(make_pseudo("B2"))


def bosonic_pair():
    return make_ladder(0, "lower", 2), make_ladder(1, "lower", 2)


# ---------------------------------------------------------------------------
# Gaussian ansatz
# ---------------------------------------------------------------------------

def test_ansatz_bosonic_pair_standard_vacuum():
    report = gaussian_ansatz_solve(list(bosonic_pair()))
    assert report.solvable
    assert report.witness_quad == ((Coeff(1), Coeff(0)), (Coeff(0), Coeff(1)))
    assert all(v.is_zero() for v in report.witness_lin)
    assert report.witness() == PolyGauss.standard_vacuum(2)


def test_ansatz_pseudo_pair_unsolvable():
    report = gaussian_ansatz_solve(list(pseudo_pair()))
    assert not report.solvable
    assert len(report.inconsistency) >= 2
    rendered = "\n".join(eq.render() for eq in report.inconsistency)
    assert "S[" in rendered


def test_ansatz_adjoint_raising_pair_unsolvable():
    report = gaussian_ansatz_solve(list(adjoint_raising_pair()))
    assert not report.solvable
    assert report.inconsistency


def _rank(matrix: list[list[Coeff]]) -> int:
    """Rank by dense row reduction with row exchanges, written apart from
    the solver's sparse elimination so that it can judge it."""
    rows = [list(r) for r in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] * inv
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _consistent(equations) -> bool:
    """Rouche-Capelli: the equations (sparse row, rhs) are solvable iff
    rank A == rank [A | b]."""
    cols = sorted({c for row, _ in equations for c in row})
    a = [[row.get(c, ZERO) for c in cols] for row, _ in equations]
    return _rank(a) == _rank([r + [rhs] for r, (_, rhs) in zip(a, equations)])


def _assert_minimal_inconsistent(equations):
    assert not _consistent(equations)
    for drop in range(len(equations)):
        assert _consistent(equations[:drop] + equations[drop + 1 :])


def test_ansatz_minimal_subset_is_minimal():
    reports = [gaussian_ansatz_solve(list(f)) for f in (pseudo_pair(), adjoint_raising_pair())]
    assert len(reports[0].inconsistency) == 2
    # dropping any single equation from the reported subset restores consistency
    for report in reports:
        _assert_minimal_inconsistent([(dict(eq.coeffs), eq.rhs) for eq in report.inconsistency])


@st.composite
def planted_systems(draw):
    """A sparse system over Q(sqrt2, i) whose later rows are combinations of
    earlier ones, each rhs either following its combination or not, in a
    shuffled order: (rows, consts, ncols)."""
    ncols = draw(st.integers(min_value=1, max_value=4))
    entries = st.one_of(st.just(ZERO), coeffs(allow_zero=False))
    mostly_nonzero = st.one_of(entries, coeffs())
    dense, consts = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        dense.append([draw(mostly_nonzero) for _ in range(ncols)])
        consts.append(draw(coeffs()))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        weights = [draw(mostly_nonzero) for _ in dense]
        dense.append([sum((w * r[j] for w, r in zip(weights, dense)), ZERO) for j in range(ncols)])
        consts.append(sum((w * b for w, b in zip(weights, consts)), draw(entries)))
    order = draw(st.permutations(range(len(dense))))
    rows = [{j: v for j, v in enumerate(dense[i]) if not v.is_zero()} for i in order]
    return rows, [consts[i] for i in order], ncols


@given(planted_systems())
@settings(max_examples=150, deadline=None)
def test_eliminate_reports_a_minimal_inconsistent_subset(system):
    rows, consts, ncols = system
    _, bad = _eliminate(rows, consts, ncols)
    equations = list(zip(rows, consts))
    assert (bad is None) == _consistent(equations)
    if bad is not None:
        _assert_minimal_inconsistent([equations[i] for i in bad])


def test_ansatz_underdetermined_family():
    report = gaussian_ansatz_solve([LinDiffOp.derivative(0, 2)])
    assert report.solvable
    assert op_apply(LinDiffOp.derivative(0, 2), report.witness()).is_zero()


def test_ansatz_witness_annihilation_is_rechecked():
    ops = [make_ladder(0, "lower", 2)]
    report = gaussian_ansatz_solve(ops)
    psi = report.witness()
    for op in ops:
        assert op_apply(op, psi).is_zero()


def test_ansatz_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gaussian_ansatz_solve([])
    second_order = LinDiffOp(1, {((0,), (2,)): 1})
    with pytest.raises(ValueError):
        gaussian_ansatz_solve([second_order])
    quadratic_coeff = LinDiffOp(1, {((2,), (0,)): 1})
    with pytest.raises(ValueError):
        gaussian_ansatz_solve([quadratic_coeff])
    with pytest.raises(ValueError):
        gaussian_ansatz_solve([LinDiffOp.position(0, 1), LinDiffOp.position(0, 2)])


@given(coeffs(allow_zero=False), first_order_ops(2))
@settings(max_examples=40, deadline=None)
def test_ansatz_solves_complex_first_order_families(c, op):
    # d_k + c x_k is annihilated by exp(-c |x|^2 / 2) for any complex c
    x1, x2 = LinDiffOp.position(0, 2), LinDiffOp.position(1, 2)
    lowering = [LinDiffOp.derivative(0, 2) + x1.scale(c), LinDiffOp.derivative(1, 2) + x2.scale(c)]
    report = gaussian_ansatz_solve(lowering)
    assert report.solvable
    assert report.witness_quad == ((c, Coeff(0)), (Coeff(0), c))
    # a random complex family never makes the solver raise, and a witness
    # it returns annihilates the family
    family = [op, lowering[0]]
    report = gaussian_ansatz_solve(family)
    if report.solvable:
        assert all(op_apply(o, report.witness()).is_zero() for o in family)
    else:
        assert report.inconsistency


@given(
    st.tuples(small_fractions, small_fractions, small_fractions),
    st.tuples(small_fractions, small_fractions),
)
@settings(max_examples=60, deadline=None)
def test_no_gaussian_escapes_the_unsolvable_verdict(svals, tvals):
    # completeness on the Gaussian class: random parameters never produce a
    # joint null vector of the pseudo-boson lowering pair
    s11, s12, s22 = svals
    psi = PolyGauss.gaussian([[s11, s12], [s12, s22]], list(tvals))
    a1, a2 = pseudo_pair()
    assert not (op_apply(a1, psi).is_zero() and op_apply(a2, psi).is_zero())


# ---------------------------------------------------------------------------
# multiplication certificates
# ---------------------------------------------------------------------------

def test_certificate_pseudo_pair():
    certs = multiplier_reduction(list(pseudo_pair()))
    assert len(certs) == 1
    cert = certs[0]
    assert cert.combo == (Coeff(1), Coeff(-1))
    assert cert.poly_dict() == {(1, 0): Coeff(1), (0, 1): Coeff(-1)}


def test_certificate_adjoint_raising_pair():
    certs = multiplier_reduction(list(adjoint_raising_pair()))
    assert len(certs) == 1
    assert certs[0].poly_dict() == {(1, 0): Coeff(1), (0, 1): Coeff(1)}


def test_certificate_absent_for_bosonic_pair():
    assert multiplier_reduction(list(bosonic_pair())) == []


def test_certificate_soundness_by_recomposition():
    ops = list(pseudo_pair())
    for cert in multiplier_reduction(ops):
        total = LinDiffOp.zero(2)
        for lam, op in zip(cert.combo, ops):
            total = total + op.scale(lam)
        assert total == LinDiffOp.multiplication(cert.poly_dict(), 2)
        assert cert.poly_dict()  # multiplier is nonzero


def test_certificate_mixed_family():
    op1 = LinDiffOp.position(0, 2) + LinDiffOp.derivative(1, 2)
    op2 = LinDiffOp.position(0, 2) - LinDiffOp.derivative(1, 2)
    certs = multiplier_reduction([op1, op2])
    assert len(certs) == 1
    assert certs[0].poly_dict() == {(1, 0): Coeff(2)}
    # and the ansatz must accordingly be unsolvable
    assert not gaussian_ansatz_solve([op1, op2]).solvable


def test_certificate_consistency_with_ansatz():
    for family in (pseudo_pair(), adjoint_raising_pair()):
        ops = list(family)
        if multiplier_reduction(ops):
            assert not gaussian_ansatz_solve(ops).solvable


# ---------------------------------------------------------------------------
# delta distributions and pairing
# ---------------------------------------------------------------------------

def test_delta_point_pairings():
    dist = DeltaDist([1], 0, PolyGauss(0, {(): 1}))
    gauss = PolyGauss.standard_vacuum(1)
    assert delta_pair(dist, gauss.mul_x(0)) == 0j  # exact zero, no quadrature
    assert abs(delta_pair(dist, gauss) - 1) < 1e-12


def test_delta_shifted_point():
    dist = DeltaDist([1], 1, PolyGauss(0, {(): 1}))
    gauss = PolyGauss.standard_vacuum(1)
    assert abs(delta_pair(dist, gauss) - math.exp(-0.5)) < 1e-12


def test_delta_diagonal_hyperplane_kills_multiplier():
    ambient = PolyGauss.gaussian(
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    )
    dist = DeltaDist.from_ambient([1, -1], 0, ambient)
    # in-plane coordinate v = x2 (x1 = x2 on the plane): e^{-(x1+x2)^2/4} = e^{-v^2}
    assert dist.envelope == PolyGauss.gaussian([[2]])
    gauss = PolyGauss.standard_vacuum(2)
    factor = gauss.mul_x(0) - gauss.mul_x(1)
    assert delta_pair(dist, factor) == 0j
    assert delta_pair(dist, factor * gauss) == 0j
    assert abs(delta_pair(dist, gauss)) > 0.1  # sanity: generic pairing is not zero


def test_delta_pair_numeric_value():
    # <delta(x1) e^{-x2^2/2}, e^{-(x1^2+x2^2)/2}> = integral e^{-x2^2} = sqrt(pi)
    dist = DeltaDist([1, 0], 0, PolyGauss.standard_vacuum(1))
    val = delta_pair(dist, PolyGauss.standard_vacuum(2))
    assert abs(val - math.sqrt(math.pi)) < 1e-10


def test_delta_scaling_by_normal_length():
    # delta(2x) = delta(x)/2
    unit = DeltaDist([1], 0, PolyGauss(0, {(): 1}))
    double = DeltaDist([2], 0, PolyGauss(0, {(): 1}))
    gauss = PolyGauss.standard_vacuum(1)
    assert abs(delta_pair(double, gauss) - delta_pair(unit, gauss) / 2) < 1e-12


def test_delta_three_variable_frame():
    # coordinate hyperplane in three variables; the in-plane frame is exact
    dist = DeltaDist([1, 0, 0], 0, PolyGauss.standard_vacuum(2))
    val = delta_pair(dist, PolyGauss.standard_vacuum(3))
    assert abs(val - math.pi) < 1e-9  # integral of e^{-x2^2 - x3^2}


def test_delta_shifted_hyperplane_with_quadrature():
    # delta(x1 - 1) with in-plane Gaussian envelope against the standard vacuum
    dist = DeltaDist([1, 0], 1, PolyGauss.standard_vacuum(1))
    val = delta_pair(dist, PolyGauss.standard_vacuum(2))
    assert abs(val - math.exp(-0.5) * math.sqrt(math.pi)) < 1e-10


def test_delta_rejects_bad_normals():
    with pytest.raises(ValueError):
        DeltaDist([0, 0], 0, PolyGauss.standard_vacuum(1))
    with pytest.raises(ValueError):
        DeltaDist([1, -1], 0, PolyGauss.standard_vacuum(2))  # wrong envelope arity


def test_delta_pair_flags_non_integrable_weight():
    growing = PolyGauss.gaussian([[-1]])  # e^{+v^2/2} envelope
    dist = DeltaDist([1, 0], 0, growing)
    with pytest.raises(QuadratureError):
        delta_pair(dist, PolyGauss.standard_vacuum(2))


def test_delta_pair_scale_overflow_raises_quadrature_error():
    # e^{-x^2/2 + 2000 x} at the point x = 1: the exponent constant is 1999.5
    point = DeltaDist([1], 1, PolyGauss(0, {(): 1}))
    with pytest.raises(QuadratureError, match="float range"):
        delta_pair(point, PolyGauss(1, {(0,): 1}, [[1]], [2000]))
    # in-plane Gaussian e^{-v^2 + 2000 v}: completing the square gives e^{10^6}
    plane = DeltaDist([1, 0], 0, PolyGauss.standard_vacuum(1))
    with pytest.raises(QuadratureError, match="float range"):
        delta_pair(plane, PolyGauss(2, {(0, 0): 1}, [[1, 0], [0, 1]], [0, 2000]))


def test_quadrature_handles_odd_and_high_degree():
    # x2^6 moment of e^{-x2^2}: 15/8 sqrt(pi); odd moments vanish
    dist = DeltaDist([1, 0], 0, PolyGauss.standard_vacuum(1))
    g = PolyGauss.standard_vacuum(2)
    even = delta_pair(dist, PolyGauss(2, {(0, 6): 1}, [[1, 0], [0, 1]]))
    assert abs(even - 15 / 8 * math.sqrt(math.pi)) < 1e-9
    odd = delta_pair(dist, g.mul_x(1))
    assert odd == 0j  # the exact mean is 0


def test_delta_oblique_plane_in_three_variables():
    # <delta(x1+x2+x3), e^{-|x|^2/2}> = 2 pi / sqrt3: a standard Gaussian over
    # the plane, divided by |n| = sqrt3
    dist = DeltaDist([1, 1, 1], 0, PolyGauss(2, {(0, 0): 1}))
    g = PolyGauss.standard_vacuum(3)
    assert dist.frame == ((-1, 1, 0), (-1, 0, 1))  # x1 = -x2 - x3
    assert abs(delta_pair(dist, g) - 2 * math.pi / math.sqrt(3)) < 1e-12
    # x1^2 has in-plane variance 1 - 1/3; the in-plane S = [[2, 1], [1, 2]] is correlated
    value = delta_pair(dist, g.mul_x(0).mul_x(0))
    assert abs(value - 2 * math.pi / math.sqrt(3) * 2 / 3) < 1e-12


@pytest.mark.parametrize("normal", [[1, 2], [2, 1]])
def test_delta_normal_of_irrational_length(normal):
    # |n| = sqrt5 lies outside Q(sqrt2), but the coarea factor 1/|n_p| is rational
    dist = DeltaDist(normal, 0, PolyGauss(1, {(0,): 1}))
    value = delta_pair(dist, PolyGauss.standard_vacuum(2))
    assert abs(value - math.sqrt(2 * math.pi / 5)) < 1e-12


def test_delta_pair_flags_singular_weight():
    # a constant envelope against a constant test: S = [[0]] has a zero pivot
    dist = DeltaDist([1, 0], 0, PolyGauss(1, {(0,): 1}))
    with pytest.raises(QuadratureError, match="not positive definite"):
        delta_pair(dist, PolyGauss(2, {(0, 0): 1}))


def test_delta_pair_rejects_complex_weights():
    point = DeltaDist([1], 0, PolyGauss(0, {(): 1}))
    with pytest.raises(ValueError, match="real Gaussian weight"):
        delta_pair(point, PolyGauss(1, {(0,): 1}, [[I_UNIT]]))
    with pytest.raises(ValueError, match="real Gaussian weight"):
        delta_pair(point, PolyGauss(1, {(0,): 1}, [[1]], [I_UNIT]))
    plane = DeltaDist([1, 0], 0, PolyGauss(1, {(0,): 1}, [[ONE + I_UNIT]]))
    with pytest.raises(ValueError, match="real Gaussian weight"):
        delta_pair(plane, PolyGauss.standard_vacuum(2))


@given(
    small_fractions.filter(lambda f: f > 0),
    small_fractions,
    st.lists(small_fractions, min_size=1, max_size=5),
    small_fractions.filter(lambda f: f != 0),
)
@settings(max_examples=40, deadline=None)
def test_delta_pair_matches_numerical_integration(s, t, poly, normal):
    # <delta(n x1), P(x2) e^{-s x2^2/2 + t x2}> = (1/|n|) * integral over x2
    from scipy.integrate import quad

    envelope = PolyGauss(1, {(k,): c for k, c in enumerate(poly)}, [[s]], [t])
    dist = DeltaDist([normal, 0], 0, envelope)
    value = delta_pair(dist, PolyGauss(2, {(0, 0): 1}))

    sf, tf, cf = float(s), float(t), [float(c) for c in poly]

    def integrand(v: float) -> float:
        return sum(c * v**k for k, c in enumerate(cf)) * math.exp(-sf * v * v / 2 + tf * v)

    centre, width = tf / sf, 12 / math.sqrt(sf)
    span = (centre - width, centre + width)
    magnitude = quad(lambda v: abs(integrand(v)), *span, points=[centre], limit=200)[0]
    integral = quad(integrand, *span, points=[centre], epsabs=1e-13 * magnitude, limit=200)[0]
    assert value.imag == 0
    assert abs(value.real * abs(float(normal)) - integral) <= 1e-9 * magnitude


# ---------------------------------------------------------------------------
# weak vacuum checks
# ---------------------------------------------------------------------------

def test_x_annihilates_point_delta_weakly():
    dist = DeltaDist([1], 0, PolyGauss(0, {(): 1}))
    tests = [PolyGauss(1, {(k,): Fraction(1, k + 1)}, [[1]]) for k in range(5)]
    report = distributional_vacuum_check([LinDiffOp.position(0, 1)], dist, tests, tol=1e-12)
    assert report.passes
    assert report.max_abs == 0.0  # restriction is identically zero


def test_diagonal_delta_weak_vacuum_of_multiplier_combo():
    a1, a2 = make_pseudo("A1"), make_pseudo("A2")
    ambient = PolyGauss.gaussian(
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    )
    dist = DeltaDist.from_ambient([1, -1], 0, ambient)
    g = PolyGauss.standard_vacuum(2)
    tests = [g, g.mul_x(0), g.mul_x(1), g.mul_x(0).mul_x(0), g.mul_x(0).mul_x(1)]
    report = distributional_vacuum_check([a1 - a2], dist, tests)
    assert report.passes


def test_negative_control_detected():
    a1 = make_ladder(0, "lower", 2)
    dist = DeltaDist([1, 0], 0, PolyGauss.standard_vacuum(1))
    g = PolyGauss.standard_vacuum(2)
    report = distributional_vacuum_check([a1], dist, [g.mul_x(0)])
    assert not report.passes
    assert report.max_abs > 0.1


def test_check_rejects_empty_inputs():
    dist = DeltaDist([1], 0, PolyGauss(0, {(): 1}))
    with pytest.raises(ValueError):
        distributional_vacuum_check([], dist, [PolyGauss.standard_vacuum(1)])
    with pytest.raises(ValueError):
        distributional_vacuum_check([LinDiffOp.position(0, 1)], dist, [])


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            small_fractions.filter(lambda f: f != 0),
        ),
        min_size=1,
        max_size=3,
    ),
    small_fractions,
)
@settings(max_examples=40, deadline=None)
def test_x_times_delta_pairs_to_zero_for_arbitrary_tests(monos, t):
    # <delta, x f> = 0 exactly for every polynomial-Gaussian f: the factor x
    # vanishes identically on the support
    poly = {}
    for power, coeff in monos:
        poly[(power,)] = poly.get((power,), 0) + coeff
    f = PolyGauss(1, poly, [[1]], [t])
    dist = DeltaDist([1], 0, PolyGauss(0, {(): 1}))
    shifted = op_apply(op_adjoint(LinDiffOp.position(0, 1)), f)
    assert delta_pair(dist, shifted) == 0j
