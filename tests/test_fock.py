import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import scipy.linalg
import scipy.special

import bateman.fock
from bateman.classical import BatemanParams
from bateman.field import Coeff
from bateman.fock import (
    NULL_CUTOFF_LIMIT,
    SQUEEZE_CUTOFF_LIMIT,
    SQUEEZE_SCALE_LIMIT,
    FockOp,
    _even_squeeze_couplings,
    _gram_weights,
    _hamiltonian_fock,
    _ladder,
    _sector_gram,
    _sector_parts,
    _sector_states,
    build_fock,
    commutator_residual,
    even_squeeze_state,
    hamiltonian_equiv_residual,
    interior_bound,
    interior_indices,
    joint_null_experiment,
    null_experiment_csv,
    squeeze_csv,
    squeeze_factored_action,
    squeeze_truncated_norms,
    total_excitations,
)
from bateman.operators import commutator, make_ladder, make_pseudo, op_apply
from bateman.radicals import SqrtRational, factorial_sqrt
from hermite import hermite_coefficients, hermite_decompose, hermite_state

THETA = 7 * math.pi / 8


def default_params():
    return BatemanParams.from_omega(1, Fraction(1, 5), 1)


def _single_mode(name, cutoff):
    """Position, momentum or the squeeze generator a^2 + adag^2 at this cutoff."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    m = {
        "x": (a + a.T) / np.sqrt(2.0),
        "p": (a - a.T) / (1j * np.sqrt(2.0)),
        "X_squeeze": a @ a + a.T @ a.T,
    }[name]
    return FockOp(1, cutoff, m.astype(complex))


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------

def test_annihilation_matrix_entries():
    a = build_fock("a", 3)
    assert a.matrix[0, 1] == 1.0
    assert abs(a.matrix[1, 2] - math.sqrt(2)) < 1e-15
    assert np.count_nonzero(a.matrix) == 2


def test_two_mode_kron_structure():
    op = build_fock("A1", 4)
    assert op.matrix.shape == (16, 16)
    a = np.diag(np.sqrt(np.arange(1.0, 4)), 1)
    eye = np.eye(4)
    manual = (np.kron(a, eye) - np.kron(eye, a).T) / math.sqrt(2)
    assert np.allclose(op.matrix, manual)


@pytest.mark.parametrize("cutoff", [6, 12, 16])
def test_ladder_specs_match_textbook_kron_formulas(cutoff):
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    eye = np.eye(cutoff)
    a1, a2 = np.kron(a, eye), np.kron(eye, a)
    adag1, adag2 = np.kron(a.T, eye), np.kron(eye, a.T)
    s = np.sqrt(2.0)
    textbook = {
        "a": a, "adag": a.T, "a1": a1, "a2": a2, "adag1": adag1, "adag2": adag2,
        "A1": (a1 - adag2) / s, "A2": (a2 - adag1) / s,
        "B1": (adag1 + a2) / s, "B2": (a1 + adag2) / s,
    }
    for name, matrix in textbook.items():
        assert np.array_equal(build_fock(name, cutoff).matrix, matrix), name


def test_squeeze_generator_symmetric_real():
    x = _single_mode("X_squeeze", 6).matrix
    assert np.allclose(x, x.T)
    assert np.allclose(x.imag, 0)
    # its even block is the Jacobi matrix J the squeeze routes act through
    for cutoff in (6, 9, 16):
        even = _single_mode("X_squeeze", cutoff).matrix.real[0::2, 0::2]
        couplings = _even_squeeze_couplings(cutoff)
        jacobi = np.diag(couplings, 1) + np.diag(couplings, -1)
        assert np.allclose(even, jacobi, rtol=1e-15, atol=0)


def test_position_momentum_commutator():
    n = 14
    x = _single_mode("x", n)
    p = _single_mode("p", n)
    res = commutator_residual(x, p, 1j)
    assert res < 1e-12


def test_build_fock_errors():
    with pytest.raises(ValueError):
        build_fock("a", 1)
    with pytest.raises(ValueError):
        build_fock("nothere", 8)
    with pytest.raises(ValueError):
        build_fock("H", 8)  # params missing


# ---------------------------------------------------------------------------
# interior commutator residuals
# ---------------------------------------------------------------------------

def test_ladder_commutator_interior_exact():
    res = commutator_residual(build_fock("a", 20), build_fock("adag", 20), 1)
    assert res < 1e-12


def test_pseudo_commutators_at_cutoff():
    assert commutator_residual(build_fock("A1", 12), build_fock("B1", 12), 1) < 1e-10
    assert commutator_residual(build_fock("A1", 12), build_fock("B2", 12), 0) < 1e-10


def test_interior_bound_validated():
    with pytest.raises(ValueError):
        commutator_residual(build_fock("a", 8), build_fock("adag", 10), 1)
    with pytest.raises(ValueError):
        commutator_residual(build_fock("a", 2), build_fock("adag", 2), 1)
    with pytest.raises(ValueError):
        hamiltonian_equiv_residual(default_params(), 2)
    assert interior_bound(3) == 1 and interior_bound(16) == 14


def test_all_scalar_commutator_pairs_small_on_interior():
    # interior exactness for every pair whose symbolic commutator is scalar
    names = ("a1", "a2", "adag1", "adag2", "A1", "A2", "B1", "B2")
    symbolic = {
        "a1": make_ladder(0, "lower", 2),
        "a2": make_ladder(1, "lower", 2),
        "adag1": make_ladder(0, "raise", 2),
        "adag2": make_ladder(1, "raise", 2),
        "A1": make_pseudo("A1"),
        "A2": make_pseudo("A2"),
        "B1": make_pseudo("B1"),
        "B2": make_pseudo("B2"),
    }
    cutoff = 10
    for ln in names:
        for rn in names:
            scalar = commutator(symbolic[ln], symbolic[rn]).as_scalar()
            if scalar is None:
                continue
            res = commutator_residual(
                build_fock(ln, cutoff), build_fock(rn, cutoff), complex(scalar)
            )
            assert res < 1e-10, (ln, rn, res)


def test_interior_residual_matches_dense_projector():
    # restricting to the interior indices is P (.) P with a dense diagonal projector
    for cutoff, bound, names, expected in (
        (12, 10, ("A1", "B1"), 1.0),
        (12, 10, ("A2", "B1"), 0.0),
        (14, 12, ("x", "p"), 1j),
    ):
        build = _single_mode if names == ("x", "p") else build_fock
        x, y = (build(n, cutoff) for n in names)
        delta = x.matrix @ y.matrix - y.matrix @ x.matrix - expected * np.eye(x.dim)
        proj = np.diag((total_excitations(x.modes, cutoff) < bound).astype(float))
        dense = float(np.linalg.norm(proj @ delta @ proj, 2))
        assert commutator_residual(x, y, expected) == pytest.approx(dense, rel=1e-12, abs=1e-300)
    params = default_params()
    h = [build_fock("H", 10, params=params, form=f).matrix for f in ("bosonic", "pseudo")]
    proj = np.diag((total_excitations(2, 10) < 8).astype(float))
    dense = float(np.linalg.norm(proj @ (h[0] - h[1]) @ proj, 2))
    assert hamiltonian_equiv_residual(params, 10) == pytest.approx(dense, rel=1e-12, abs=1e-300)


def _dense_projector_residual(x, y, expected, bound):
    """||P([X, Y] - expected) P|| from the full two-mode products and a dense projector."""
    delta = x.matrix @ y.matrix - y.matrix @ x.matrix - expected * np.eye(x.dim)
    proj = np.diag((total_excitations(x.modes, x.cutoff) < bound).astype(float))
    return float(np.linalg.norm(proj @ delta @ proj, 2))


def test_interior_residual_matches_dense_projector_where_it_is_order_one():
    # wrong scalars give residuals far above rounding: [A1, B1] = 1 on the
    # interior, [x, p] = i, and the exact values pin the operators themselves
    for cutoff, bound, names, expected, value in (
        (12, 10, ("A1", "B1"), 0.0, 1.0),
        (12, 10, ("B1", "A1"), 1.0, 2.0),
        (14, 12, ("x", "p"), -1j, 2.0),
        (14, 12, ("x", "p"), 1.0, math.sqrt(2.0)),
    ):
        build = _single_mode if names == ("x", "p") else build_fock
        x, y = (build(n, cutoff) for n in names)
        res = commutator_residual(x, y, expected)
        assert res == pytest.approx(_dense_projector_residual(x, y, expected, bound), rel=1e-12)
        assert res == pytest.approx(value, rel=1e-12), (names, expected)


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn runs (after one warm-up call)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_interior_checks_never_form_a_full_two_mode_product():
    # At cutoff N a full two-mode product is a complex N^2 x N^2 matrix of
    # 16 N^4 bytes; the restricted products X[S] @ Y[:, S] are interior-sized.
    # The Hamiltonian check builds one sector's blocks at a time from ladder
    # coefficients, so it stays below one float64 two-mode matrix (8 N^4
    # bytes); the commutator checks, with their operators built beforehand,
    # stay below one complex two-mode matrix.
    peak = _traced_peak(lambda: hamiltonian_equiv_residual(default_params(), 16))
    assert peak < 8 * 16**4, peak
    names = ("A1", "A2", "B1", "B2")
    fock = {n: build_fock(n, 12) for n in names}
    peak = _traced_peak(lambda: [
        commutator_residual(fock[left], fock[right], 0)
        for left, right in product(names, repeat=2)
    ])
    assert peak < 16 * 12**4, peak


def test_ladder_specs_are_real_and_h_complex():
    for name in ("a", "adag", "a1", "a2", "adag1", "adag2", "A1", "A2", "B1", "B2"):
        assert build_fock(name, 6).matrix.dtype == np.float64, name
    for form in ("bosonic", "pseudo"):
        h = build_fock("H", 6, params=default_params(), form=form).matrix
        assert h.dtype == np.complex128


def test_interior_projector_counts():
    inside = interior_indices(2, 6)
    assert len(inside) == 10  # pairs with n1 + n2 < 4


# ---------------------------------------------------------------------------
# Hamiltonian equivalence at finite cutoff
# ---------------------------------------------------------------------------

def test_hamiltonian_equiv_gamma_zero_machine_exact():
    res = hamiltonian_equiv_residual(BatemanParams.from_omega(1, 0, 1), 10)
    assert res < 1e-13


def test_hamiltonian_equiv_default_parameters():
    assert hamiltonian_equiv_residual(default_params(), 12) < 1e-10


def test_hamiltonian_equiv_other_parameters():
    params = BatemanParams.from_omega(2, 1, Fraction(3, 2))
    assert hamiltonian_equiv_residual(params, 16) < 1e-10


@pytest.mark.parametrize("cutoff, bound", [(16, 14), (12, 10), (20, 18)])
@pytest.mark.parametrize("params", [
    BatemanParams.from_omega(1, Fraction(1, 5), 1),
    BatemanParams.from_omega(2, 1, Fraction(3, 2)),
    BatemanParams.from_omega(1, Fraction(1, 10), 1),
], ids=["default", "m2", "gamma-1/10"])
def test_sector_blocks_reassemble_the_dense_hamiltonian(params, cutoff, bound):
    # oracle: the dense build_fock("H") of both forms.  H keeps d = n1 - n2,
    # so P H P is the sum of its sector blocks, each placed at the interior
    # states of its sector (found here by brute force)
    n1, n2 = np.divmod(np.arange(cutoff**2), cutoff)
    d, total = n1 - n2, n1 + n2
    inside = np.flatnonzero(total < bound)
    diffs = []
    for form in ("bosonic", "pseudo"):
        dense = build_fock("H", cutoff, params=params, form=form).matrix
        assert np.all(dense[d[:, None] != d[None, :]] == 0.0)
        rebuilt = np.zeros_like(dense)
        for sector in range(1 - bound, bound):
            rows = np.flatnonzero((d == sector) & (total < bound))
            np.testing.assert_array_equal(_sector_states(sector, bound), (n1[rows], n2[rows]))
            parts = _sector_parts(sector, bound)
            blocks = tuple(part.T for part in parts[[2, 3, 0, 1]])
            rebuilt[np.ix_(rows, rows)] = _hamiltonian_fock(params, form, blocks)
        rebuilt, dense = rebuilt[np.ix_(inside, inside)], dense[np.ix_(inside, inside)]
        np.testing.assert_allclose(rebuilt, dense, rtol=0, atol=1e-13)
        diffs.append(rebuilt)
    # the real embedding has the complex difference's singular values
    want = np.linalg.norm(diffs[0] - diffs[1], 2)
    assert hamiltonian_equiv_residual(params, cutoff) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("cutoff, bound", [(12, 10), (16, 14), (20, 18)])
def test_sector_parts_are_the_dense_kron_parts_on_each_sector(cutoff, bound):
    # oracle: the kron-built a1, a2, a1^T, a2^T restricted to [T, S].  Row r of
    # the layout stands for |r + p - 1, r + q> and row m + 1 + r for
    # |r + p, r + q - 1>; each is matched to its dense index by brute force
    n1, n2 = np.divmod(np.arange(cutoff**2), cutoff)
    dense = [build_fock(name, cutoff).matrix for name in ("a1", "a2", "adag1", "adag2")]
    for d in range(1 - bound, bound):
        cols = np.flatnonzero((n1 - n2 == d) & (n1 + n2 < bound))
        m, p, q = len(cols), max(d, 0), max(-d, 0)
        parts = _sector_parts(d, bound)
        assert parts.shape == (4, 2 * m + 2, m)
        states = [(r + p - 1, r + q) for r in range(m + 1)] + [(r + p, r + q - 1) for r in range(m + 1)]
        reached = []
        for row, (s1, s2) in enumerate(states):
            index = np.flatnonzero((n1 == s1) & (n2 == s2))
            if len(index) == 0:  # a row that stands for no state
                assert np.all(parts[:, row] == 0.0)
                continue
            reached.append(index[0])
            for part, full in zip(parts, dense):
                np.testing.assert_array_equal(part[row], full[index[0], cols])
        # T holds every state one ladder step from S
        outside = np.setdiff1d(np.arange(cutoff**2), reached)
        assert all(np.all(full[np.ix_(outside, cols)] == 0.0) for full in dense)


def test_hamiltonian_fock_forms_match_symbolic_action():
    # cross-check the matrix H against the symbolic H through the Hermite map
    params = default_params()
    h_sym = None
    from bateman.operators import hamiltonian_build

    h_sym = hamiltonian_build(params, "bosonic")
    state = {(1, 0): Coeff(1), (0, 2): Coeff(Fraction(1, 3))}
    applied = hermite_decompose(op_apply(h_sym, hermite_state(state)))

    n = 12
    h_mat = build_fock("H", n, params=params, form="bosonic").matrix
    vec = np.zeros(n * n, dtype=complex)
    for (n1, n2), c in state.items():
        vec[n1 * n + n2] = complex(c) * _norm_scale(n1, n2)
    out = h_mat @ vec
    sym_vec = np.zeros(n * n, dtype=complex)
    for (n1, n2), c in applied.items():
        sym_vec[n1 * n + n2] = complex(c) * _norm_scale(n1, n2)
    assert np.max(np.abs(out - sym_vec)) < 1e-10


def _norm_scale(n1: int, n2: int) -> float:
    return math.sqrt(2.0 ** (n1 + n2) * math.factorial(n1) * math.factorial(n2))


# ---------------------------------------------------------------------------
# joint null-vector experiment
# ---------------------------------------------------------------------------

def test_null_experiment_trends():
    sweep = joint_null_experiment([8, 12, 16], "pseudo")
    sig = sweep.sigma_mins()
    assert all(s > 0 for s in sig)
    assert all(x > y for x, y in zip(sig, sig[1:]))
    masses = sweep.tail_masses()
    assert all(x <= y for x, y in zip(masses, masses[1:]))


def test_null_experiment_bosonic_control():
    sweep = joint_null_experiment([8, 12], "bosonic")
    assert sweep.sigma_mins() == [0.0, 0.0]
    # minimizer is the Fock vacuum
    for record in sweep.records:
        assert abs(abs(record.minimizer[0]) - 1.0) < 1e-10


def test_null_experiment_minimizers_normalized():
    sweep = joint_null_experiment([8, 12], "pseudo")
    for record in sweep.records:
        assert abs(np.linalg.norm(record.minimizer) - 1.0) < 1e-12


PAIRS = {"pseudo": ("A1", "A2"), "bosonic": ("a1", "a2")}
SIGMA_FLOOR_RATIO = 1e-13  # the oracles' singular values below this (relative) are zeros


def _dense_null_oracle(cutoff, family):
    """The stacked SVD of the full two-mode pair on the interior basis."""
    names = PAIRS[family]
    bound = cutoff - 2
    tot = total_excitations(2, cutoff)
    inside = np.where(tot < bound)[0]
    inside = inside[np.lexsort((inside, tot[inside]))]
    stacked = np.vstack([build_fock(n, cutoff).matrix[:, inside] for n in names])
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    sigma = float(svals[-1])
    if sigma < SIGMA_FLOOR_RATIO * float(svals[0]):
        sigma = 0.0
    minimizer = vh[-1].conj()
    tail_mass = float(np.sum(np.abs(minimizer[tot[inside] >= bound / 2]) ** 2))
    return sigma, tail_mass, minimizer


def _sector_blocks(bound, family):
    """The stacked pair's block B_d on each sector d, from ``_sector_parts``: the
    first operator fills only the sector d - 1 rows and the second only the
    sector d + 1 rows, so B_d is one weighted sum of the parts."""
    weights = sum(_ladder(name, np.eye(4)) for name in PAIRS[family])
    for d in range(1 - bound, bound):
        parts = _sector_parts(d, bound)
        yield d, (weights @ parts.reshape(4, -1)).reshape(parts.shape[1:])


def _sector_svd_oracle(cutoff, family):
    """One dense SVD per sector block: sigma_min is the least singular value over
    the blocks, clamped against the largest one, and the minimizer the singular
    vector of the first sector (in increasing d) that attains it."""
    bound = interior_bound(cutoff)
    top, best_d, best, sigma = 0.0, 0, None, np.inf
    for d, block in _sector_blocks(bound, family):
        svals = np.linalg.svd(block, compute_uv=False)
        top = max(top, float(svals[0]))
        if svals[-1] < sigma:
            best_d, best, sigma = d, block, float(svals[-1])
    if sigma < SIGMA_FLOOR_RATIO * top:
        sigma = 0.0
    n1, n2 = _sector_states(best_d, bound)
    vec = np.linalg.svd(best, full_matrices=False)[2][-1]
    total = n1 + n2
    minimizer = np.zeros(bound * (bound + 1) // 2)
    minimizer[total * (total + 1) // 2 + n1] = vec
    tail_mass = float(np.sum(vec[total >= bound / 2] ** 2))
    return sigma, tail_mass, minimizer


def _assert_matches_oracle(record, oracle):
    sigma, tail_mass, minimizer = oracle
    assert record.sigma_min == pytest.approx(sigma, rel=1e-12, abs=0.0)
    assert abs(record.tail_mass - tail_mass) < 1e-12
    assert len(record.minimizer) == len(minimizer)
    assert abs(np.linalg.norm(record.minimizer) - 1.0) < 1e-12
    # the least singular value is simple, so the minimizers agree up to phase
    assert abs(abs(np.vdot(minimizer, record.minimizer)) - 1.0) < 1e-12


@pytest.mark.parametrize("family", ["pseudo", "bosonic"])
def test_null_experiment_matches_dense_oracle(family):
    cutoffs = [8, 12, 16, 24]
    sweep = joint_null_experiment(cutoffs, family)
    for cutoff, record in zip(cutoffs, sweep.records):
        _assert_matches_oracle(record, _dense_null_oracle(cutoff, family))


@pytest.mark.parametrize("family", ["pseudo", "bosonic"])
@pytest.mark.parametrize("cutoffs", [tuple(range(8, 65, 4)), (8, 16, 24, 32, 40)],
                         ids=["8-to-64", "fock-reach"])
def test_null_experiment_matches_sector_svd_oracle(family, cutoffs):
    sweep = joint_null_experiment(cutoffs, family)
    for cutoff, record in zip(cutoffs, sweep.records):
        _assert_matches_oracle(record, _sector_svd_oracle(cutoff, family))


@pytest.mark.parametrize("family", ["pseudo", "bosonic"])
@pytest.mark.parametrize("bound", [14, 31])
def test_sector_gram_is_the_gram_matrix_of_the_sector_blocks(family, bound):
    # oracle: B_d^T B_d of the sector blocks built from ``_sector_parts``; its
    # entries are integers and square roots of integers up to rounding
    weights = _gram_weights(family)
    for d, block in _sector_blocks(bound, family):
        gram = block.T @ block
        diag, couplings2 = _sector_gram(d, bound, weights)
        assert np.all(np.triu(gram, 2) == 0.0) and np.all(np.tril(gram, -2) == 0.0)
        off = np.diag(gram, 1)
        for got, want in ((np.diag(gram), diag), (off * off, couplings2)):
            assert np.rint(got).astype(int).tolist() == want
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
        assert np.all(np.sign(off) == np.sign(weights[3]))


def test_gram_weights_give_the_laguerre_and_number_matrices():
    # Szegő, Orthogonal Polynomials, 6.21: L^(a) has the Jacobi diagonal
    # 2k + a + 1 and squared couplings (k + 1)(k + 1 + a)
    for d in range(-5, 6):
        diag, couplings2 = _sector_gram(d, 17, _gram_weights("pseudo"))
        assert diag == [2 * k + abs(d) + 1 for k in range(len(diag))]
        assert couplings2 == [(k + 1) * (k + 1 + abs(d)) for k in range(len(diag) - 1)]
        diag, couplings2 = _sector_gram(d, 17, _gram_weights("bosonic"))
        assert diag == [2 * k + abs(d) for k in range(len(diag))]
        assert couplings2 == [0] * (len(diag) - 1)


def test_null_sweep_reaches_continuum_constant():
    # sigma_min * sqrt(M), with M = #{n : 2n < N - 2} the size of the d = 0
    # sector, rises toward j_{0,1} / 2 (Dirichlet edge of -(n c')' = mu c)
    limit = scipy.special.jn_zeros(0, 1)[0] / 2
    sweep = joint_null_experiment([100, 400], "pseudo")
    scaled = [r.sigma_min * math.sqrt(len(range(0, r.cutoff - 2, 2))) for r in sweep.records]
    assert scaled[0] < scaled[1] < limit
    assert scaled == pytest.approx([1.1963, 1.2009], abs=1e-4)


def test_null_experiment_validation():
    with pytest.raises(ValueError):
        joint_null_experiment([12, 8], "pseudo")
    with pytest.raises(ValueError):
        joint_null_experiment([4, 8], "pseudo")
    with pytest.raises(ValueError):
        joint_null_experiment([8, 12], "fermionic")


def test_null_experiment_rejects_cutoffs_past_its_limit(monkeypatch):
    # the ceiling holds in the library too, before any sector is built
    def sentinel(*args):
        raise AssertionError("a sector was built before the ceiling was checked")

    monkeypatch.setattr(bateman.fock, "_sector_gram", sentinel)
    with pytest.raises(ValueError, match=str(NULL_CUTOFF_LIMIT)):
        joint_null_experiment([8, NULL_CUTOFF_LIMIT + 1])


def test_null_experiment_csv_shape():
    sweep = joint_null_experiment([8, 12], "pseudo")
    lines = null_experiment_csv(sweep).strip().splitlines()
    assert lines[0] == "cutoff,sigma_min,tail_mass"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# squeeze experiments
# ---------------------------------------------------------------------------

def test_factored_action_first_amplitudes():
    amps = squeeze_factored_action(2)
    assert amps[0] == SqrtRational(1)
    assert amps[1] == SqrtRational(Fraction(-1, 2), 2)
    assert amps[2] == SqrtRational(Fraction(1, 4), 6)


def test_factored_action_matches_closed_form():
    amps = squeeze_factored_action(50)
    for k, amp in enumerate(amps):
        closed = factorial_sqrt(2 * k) * Fraction((-1) ** k, 2**k * math.factorial(k))
        assert amp == closed


def test_factored_action_requires_positive_kmax():
    with pytest.raises(ValueError):
        squeeze_factored_action(0)


def test_truncated_norms_strictly_increase():
    report = squeeze_truncated_norms(THETA, [16, 32, 64])
    logs = report.log_norms()
    assert all(x < y for x, y in zip(logs, logs[1:]))
    assert all(n > 1 for n in report.norms())


def test_truncated_norm_matches_direct_expm_small_cutoff():
    report = squeeze_truncated_norms(THETA, [16])
    x = np.real(_single_mode("X_squeeze", 16).matrix)
    direct = float(np.linalg.norm(scipy.linalg.expm(THETA * x)[:, 0]))
    assert abs(report.norms()[0] / direct - 1.0) < 1e-8


def test_truncated_norms_match_high_precision_reference():
    # references: mpmath ``eigsy`` of the even-parity block at 60 (N = 64)
    # and 80 (N = 128) digits; a dense float64 eigh gives 249.867 and 567.8
    report = squeeze_truncated_norms(THETA, [64, 128])
    assert report.log_norms() == pytest.approx(
        [249.865161123397, 536.64816647474435], rel=1e-12
    )


def test_truncated_norm_pinned_reference_at_1024():
    # mpmath reference, independent of the series: Sturm-bisection eigenvalues
    # of the even block J (the top 30 at 50 digits, the top 40 at 70 digits,
    # which agree), weights 1 / sum_j p_j(lambda)^2 from the three-term
    # recurrence p_0 = 1, b_j p_(j+1) = lambda p_j - b_(j-1) p_(j-1), and
    # log_norm = log(sum_i w_i e^(2 theta lambda_i)) / 2.  LAPACK stev gives 4426.77.
    report = squeeze_truncated_norms(THETA, [1024])
    assert report.log_norms()[0] == pytest.approx(4688.1862139538688064, rel=1e-12)


def test_squeeze_amplitudes_match_high_precision_reference():
    # log amplitudes on |0>, |2>, |4>, |6> at N = 128 by the same mpmath route
    # (40 and 60 digits agree), all positive; tolerance 1e-12 on the log is a
    # relative 1e-12 on the amplitude
    log_abs, sign = even_squeeze_state(THETA, 128)
    assert np.all(sign[:4] > 0)
    reference = [446.96151986708998202, 452.04363285688607666,
                 456.22982758720453994, 459.95768429609523484]
    for log_amp, ref in zip(log_abs[:4], reference):
        assert abs(log_amp - ref) < 1e-12


def _stev_even_action(theta, cutoff):
    """log_norm, log|amplitude| and sign on |0>, |2>, |4>, |6> from LAPACK stev."""
    odd = np.arange(1.0, cutoff - 1, 2)
    evals, evecs = scipy.linalg.eigh_tridiagonal(
        np.zeros(len(odd) + 1), np.sqrt(odd * (odd + 1)), lapack_driver="stev"
    )
    with np.errstate(divide="ignore"):
        log_terms = theta * evals + np.log(np.abs(evecs[0]))
        shares = log_terms + np.log(np.abs(evecs[0:4]))
    peak = float(np.max(log_terms))
    log_norm = peak + 0.5 * math.log(float(np.sum(np.exp(2.0 * (log_terms - peak)))))
    top = np.max(shares, axis=1)
    signed = np.sum(np.sign(evecs[0:4]) * np.sign(evecs[0]) * np.exp(shares - top[:, None]), axis=1)
    return log_norm, top + np.log(np.abs(signed)), np.sign(signed)


@pytest.mark.parametrize("theta", [THETA, 0.5, -THETA])
@pytest.mark.parametrize("cutoff", [16, 32, 64, 128, 256, 512])
def test_squeeze_series_matches_stev_oracle(cutoff, theta):
    log_norm, log_amps, signs = _stev_even_action(theta, cutoff)
    report = squeeze_truncated_norms(theta, [cutoff])
    assert report.log_norms()[0] == pytest.approx(log_norm, rel=1e-12)
    log_abs, sign = even_squeeze_state(theta, cutoff)
    top = np.max(2.0 * log_abs)
    assert float(top + np.log(np.sum(np.exp(2.0 * log_abs - top)))) / 2.0 == report.log_norms()[0]
    assert list(sign[:4]) == list(signs)
    assert list(log_abs[:4]) == pytest.approx(list(log_amps), rel=1e-12)


@pytest.mark.parametrize("cutoff", [16, 64, 512])
def test_squeeze_parity_symmetry(cutoff):
    # D J D = -J with D = diag((-1)^j): equal norms, amplitudes flip by parity
    plus, minus = (squeeze_truncated_norms(t, [cutoff]) for t in (THETA, -THETA))
    assert plus.log_norms() == minus.log_norms()
    log_plus, sign_plus = even_squeeze_state(THETA, cutoff)
    log_minus, sign_minus = even_squeeze_state(-THETA, cutoff)
    parity = (-1.0) ** np.arange(len(sign_plus))
    assert np.array_equal(log_minus, log_plus)
    assert np.array_equal(sign_minus, parity * sign_plus)
    assert np.all(sign_plus > 0)


@pytest.mark.parametrize("theta", [0.1, 1.3])
@pytest.mark.parametrize("cutoff", [16, 32, 64])
def test_antihermitian_control_matches_expm(cutoff, theta):
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    direct = scipy.linalg.expm(theta * (a @ a - a.T @ a.T))[:, 0]
    log_abs, sign = even_squeeze_state(theta, cutoff, "antihermitian")
    assert np.max(np.abs(sign * np.exp(log_abs) - direct[0::2])) < 1e-12
    assert np.max(np.abs(direct[1::2])) == 0.0
    report = squeeze_truncated_norms(theta, [cutoff], generator="antihermitian")
    assert abs(report.log_norms()[0]) < 1e-12


def test_squeeze_gap_of_underflowed_amplitude_is_none():
    # at N = 1024 the amplitudes on |0>..|6> (about e^3906) and so their gaps
    # are beyond the float range
    log_abs, sign = even_squeeze_state(THETA, 1024)
    assert np.all(log_abs[:4] > math.log(sys.float_info.max))
    assert squeeze_truncated_norms(THETA, [1024]).records[0].coeff_gaps == (None,) * 4
    # theta = 0 leaves |0>: the zeros there are exact and the gaps are 1
    assert squeeze_truncated_norms(0.0, [16]).records[0].coeff_gaps[1:] == (1.0, 1.0, 1.0)


def _positive_series_state(theta, cutoff):
    """exp(theta J) e0 as (log_scale, v) by a positive Taylor series.

    J is entrywise nonnegative, so every term of exp(|theta| J) e0 is too and
    each component is accurate relative to itself.  The series runs in
    chunks of h rho <= 400 (rho the Gershgorin bound of J), each stopped once
    every component's new term is at most 2^-60 of its sum, and v is
    renormalised by its maximum after each chunk, whose log adds to the
    scale.  Components below the float range at that common scale underflow
    to 0.  theta < 0 flips the odd entries by parity (D J D = -J).
    """
    couplings = _even_squeeze_couplings(cutoff)
    rho = float(np.max(np.append(couplings, 0.0) + np.insert(couplings, 0, 0.0)))
    chunks = math.ceil(abs(theta) * rho / 400.0)
    v = np.zeros(len(couplings) + 1)
    v[0] = 1.0
    log_scale = 0.0
    step = abs(theta) / max(chunks, 1) * couplings
    for _ in range(chunks):
        term, total, k = v, v.copy(), 0
        while True:
            k += 1
            nxt = np.zeros_like(term)
            nxt[:-1] = step * term[1:]
            nxt[1:] += step * term[:-1]
            term = nxt / k
            total += term
            if np.all(term <= 2.0**-60 * total):
                break
        top = float(np.max(total))
        v = total / top
        log_scale += math.log(top)
    if theta < 0:
        v[1::2] *= -1.0
    return log_scale, v


@pytest.mark.parametrize("theta", [THETA, 0.5, -THETA])
@pytest.mark.parametrize("cutoff", [16, 256, 1024])
def test_quadrature_matches_positive_series_oracle(cutoff, theta):
    log_scale, v = _positive_series_state(theta, cutoff)
    log_abs, sign = even_squeeze_state(theta, cutoff)
    series_log_norm = log_scale + math.log(float(np.linalg.norm(v)))
    assert squeeze_truncated_norms(theta, [cutoff]).log_norms()[0] == pytest.approx(
        series_log_norm, rel=1e-12
    )
    # compare every component the series holds clear of its subnormal range
    held = np.abs(v) > 1e-280
    assert held.sum() > 0.9 * len(v)
    assert np.array_equal(sign[held], np.sign(v[held]))
    series_logs = log_scale + np.log(np.abs(v[held]))
    assert list(log_abs[held]) == pytest.approx(list(series_logs), rel=1e-12)


def test_squeeze_gaps_are_finite_where_the_series_scale_underflowed():
    # at theta = 0.8, N = 1024 the series' common scale underflowed the
    # amplitudes on |0>..|6> and wrote null gaps, though the gaps are finite;
    # <0|e^(theta J)|0> = ||e^(theta J / 2) e0||^2 pins the one on |0>
    record = squeeze_truncated_norms(0.8, [1024]).records[0]
    assert all(g is not None and math.isfinite(g) for g in record.coeff_gaps)
    log_abs, sign = even_squeeze_state(0.8, 1024)
    log_scale, v = _positive_series_state(0.4, 1024)
    assert sign[0] == 1.0
    half_log_norm = log_scale + math.log(float(np.linalg.norm(v)))
    assert log_abs[0] == pytest.approx(2.0 * half_log_norm, rel=1e-12)
    assert log_abs[0] == pytest.approx(28.94362199207561, rel=1e-12)


def test_theta_zero_is_identity():
    report = squeeze_truncated_norms(0.0, [8, 16])
    assert all(abs(n - 1.0) < 1e-12 for n in report.norms())


def test_unitary_control_keeps_norm_one():
    report = squeeze_truncated_norms(0.1, [16, 32], generator="antihermitian")
    assert all(abs(n - 1.0) < 1e-8 for n in report.norms())


def test_squeeze_validation():
    with pytest.raises(ValueError):
        squeeze_truncated_norms(THETA, [32, 16])
    with pytest.raises(ValueError):
        squeeze_truncated_norms(THETA, [16], generator="other")


def test_squeeze_csv_shape():
    report = squeeze_truncated_norms(THETA, [16, 32])
    lines = squeeze_csv(report).strip().splitlines()
    assert lines[0] == "cutoff,norm,log_norm"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# Hermite-basis isomorphism
# ---------------------------------------------------------------------------

def test_hermite_coefficients_table():
    assert hermite_coefficients(0) == {0: 1}
    assert hermite_coefficients(1) == {1: 2}
    assert hermite_coefficients(2) == {2: 4, 0: -2}
    assert hermite_coefficients(3) == {3: 8, 1: -12}
    assert hermite_coefficients(4) == {4: 16, 2: -48, 0: 12}


def test_hermite_decompose_roundtrip():
    state = {(2, 1): Coeff(1), (0, 0): Coeff(Fraction(1, 3)), (3, 3): Coeff(0, 1)}
    assert hermite_decompose(hermite_state(state)) == state


def test_hermite_decompose_requires_standard_weight():
    from bateman.operators import PolyGauss

    with pytest.raises(ValueError):
        hermite_decompose(PolyGauss.gaussian([[2, 0], [0, 1]]))


def test_matrix_action_matches_symbolic_action_on_random_states():
    # ten seeded random low-degree states, both pseudo lowering operators
    rng = random.Random(123)
    n = 12
    for name in ("A1", "A2"):
        op_sym = make_pseudo(name)
        op_mat = build_fock(name, n).matrix
        for _ in range(5):
            state = {}
            for _ in range(rng.randint(1, 4)):
                key = (rng.randint(0, 6), rng.randint(0, 6))
                state[key] = Coeff(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                    0,
                    Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                    0,
                )
            if all(c.is_zero() for c in state.values()):
                continue
            applied = hermite_decompose(op_apply(op_sym, hermite_state(state)))
            vec = np.zeros(n * n, dtype=complex)
            for (n1, n2), c in state.items():
                vec[n1 * n + n2] = complex(c) * _norm_scale(n1, n2)
            out = op_mat @ vec
            sym_vec = np.zeros(n * n, dtype=complex)
            for (n1, n2), c in applied.items():
                sym_vec[n1 * n + n2] = complex(c) * _norm_scale(n1, n2)
            scale = max(1.0, float(np.max(np.abs(out))))
            assert np.max(np.abs(out - sym_vec)) / scale < 1e-8


def test_truncated_norms_refuse_cutoffs_past_the_certified_limit():
    # past the limit the positive series underflows and log_norm drifts
    with pytest.raises(ValueError, match=str(SQUEEZE_CUTOFF_LIMIT)):
        squeeze_truncated_norms(THETA, [16, SQUEEZE_CUTOFF_LIMIT + 1])


def test_truncated_norms_refuse_theta_past_the_certified_scale():
    # the default theta at the largest cutoff is the boundary itself, which
    # test_truncated_norm_pinned_reference_at_1024 runs
    assert THETA * SQUEEZE_CUTOFF_LIMIT == SQUEEZE_SCALE_LIMIT
    past = ((math.nextafter(THETA, 4.0), SQUEEZE_CUTOFF_LIMIT), (1e300, 16), (-1e300, 16))
    for theta, cutoff in past:
        with pytest.raises(ValueError, match="theta"):
            squeeze_truncated_norms(theta, [8, cutoff])
    # the unitary control has no such cost and keeps norm one
    control = squeeze_truncated_norms(1e4, [16], generator="antihermitian")
    assert control.norms()[0] == pytest.approx(1.0)
