"""Truncated Fock-space matrix realizations and cutoff experiments.

Operators act on one or two truncated oscillator modes (cutoff N per mode,
mode 1 tensor mode 2 ordering).  The two-mode ladder family is one table of
integer weights over a1, a2, a1^T and a2^T, ``LADDER_WEIGHTS``.  Identity
checks always exclude the top two excitation levels by restricting to the
interior, total excitation below ``interior_bound(N) = N - 2``, since finite
ladder matrices necessarily violate the commutation relations at the edge.

Only ``build_fock`` uses numpy: it assembles the dense two-mode matrices from
``kron`` products (float64; only H, which carries i gamma/2m, is complex),
and the tests use them as the oracle of every route below.  The checks and
experiments run in plain Python floats and integers.  Each ladder operator
moves d = n1 - n2 by one and the total excitation by one, so the residuals
and the null sweep work one sector of d at a time, from the ladder
coefficients (``_ladder_column``):

* ``commutator_residual`` takes two operators by name.  [X, Y] sends sector
  d to one sector d + s, so the norm of P([X, Y] - c)P is the largest over
  the sector blocks; ``hamiltonian_equiv_residual`` does the same for
  P(H_bosonic - H_pseudo)P, which keeps d.  Each product of entries is
  rounded and then summed, and a block's 2-norm is sqrt(lambda_max(B^H B)),
  found by bisection on a Cholesky test of positive definiteness
  (``_spectral_norm``);
* ``joint_null_experiment`` measures how close the pseudo-boson lowering
  pair comes to a joint null vector as the cutoff grows (it cannot have one
  as a function, only as a distribution, so the least singular value decays
  and the minimizer drifts toward the cutoff).  A1 = (a1 - a2^dag)/sqrt2
  lowers d by one and A2 = (a2 - a1^dag)/sqrt2 raises it by one, as do a1
  and a2, so the stacked pair on the interior is block diagonal, and each
  sector's Gram matrix B_d^T B_d is an integer Jacobi matrix, the Laguerre
  L^(|d|) one for the pseudo pair: diagonal 2k + |d| + 1, squared couplings
  (k + 1)(k + 1 + |d|).  sigma_min^2 is its least eigenvalue, by Sturm
  bisection, and the minimizer comes from inverse iteration;
* ``squeeze_factored_action`` produces the exact Fock amplitudes c_k of the
  factored squeeze action on the ground state as signed squares
  sign(c_k) c_k^2, which are rational, so no radical is ever formed;
* ``squeeze_truncated_norms`` evaluates exp(theta(c^2 + c+^2)) |0> at finite
  cutoffs, whose norms grow without bound because the untruncated image is
  not square integrable.  Both it and the antihermitian control are a Gauss
  quadrature of the even block J, a Jacobi matrix, in log space (Golub &
  Welsch, Math. Comp. 23, 1969): the nodes by tridiagonal QL and the rest
  from the three-term recurrence, computed once per cutoff since none of it
  depends on theta.  A norm or gap beyond the float range is reported as
  None.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import add, gt, mul, sub
from typing import Iterable, Literal, Sequence

from . import _lazy_import

np = _lazy_import("numpy")

DEFAULT_THETA = 7 * math.pi / 8  # the squeeze exponent parameter of the reference setup
# The largest cutoff and |theta| * cutoff at which the squeeze norms are
# certified: the mpmath references pinned in the tests reach cutoff 1024 at
# the default theta, and no larger product of the two is checked.
SQUEEZE_CUTOFF_LIMIT = 1024
SQUEEZE_SCALE_LIMIT = DEFAULT_THETA * SQUEEZE_CUTOFF_LIMIT
# The largest cutoff of the null sweep: both families at one cutoff take
# 0.04-0.08 s at N = 400 and 0.3-0.45 s at N = 1024 on 2 vCPUs (one Sturm
# test per sector, so the cost grows like N^2), and at 1024 sigma_min is
# within 1e-13 of a 40-digit reference.
NULL_CUTOFF_LIMIT = 1024


def check_null_range(cutoff: int) -> None:
    """Raise ValueError unless the null sweep's largest cutoff is within its budget."""
    if cutoff > NULL_CUTOFF_LIMIT:
        raise ValueError(f"the null sweep takes cutoffs up to {NULL_CUTOFF_LIMIT}")


def check_cutoffs(cutoffs: Sequence[int]) -> tuple[int, ...]:
    """The cutoffs of a sweep as a tuple; raises ValueError unless they are non-empty,
    strictly increasing and at least 8 (for an interior and four squeeze amplitudes)."""
    cutoffs = tuple(cutoffs)
    if not cutoffs or any(b <= a for a, b in zip(cutoffs, cutoffs[1:])) or cutoffs[0] < 8:
        raise ValueError("cutoffs must be strictly increasing and at least 8")
    return cutoffs


@dataclass(frozen=True)
class FockOp:
    """Dense matrix realization of an operator on truncated Fock space."""

    modes: int
    cutoff: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.cutoff**self.modes


def _annihilation(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)


# The two-mode ladder family as integers (w, d): the matrix is sum_i w_i part_i
# / sqrt(d) over the parts (a1, a2, a1^T, a2^T), with a1 = a (x) 1, a2 = 1 (x) a.
LADDER_WEIGHTS = {
    "a1": ((1, 0, 0, 0), 1), "adag1": ((0, 0, 1, 0), 1),
    "a2": ((0, 1, 0, 0), 1), "adag2": ((0, 0, 0, 1), 1),
    "A1": ((1, 0, 0, -1), 2), "B1": ((0, 1, 1, 0), 2),
    "A2": ((0, 1, -1, 0), 2), "B2": ((1, 0, 0, 1), 2),
}


def _ladder(op_spec: str, parts: Sequence[np.ndarray]) -> np.ndarray:
    """sum_i w_i part_i / sqrt(d) for the ``LADDER_WEIGHTS`` row (w, d) of ``op_spec``."""
    weights, d = LADDER_WEIGHTS[op_spec]
    return sum(w * part for w, part in zip(weights, parts) if w) / np.sqrt(d)


def _ladder_blocks(cutoff: int) -> tuple[np.ndarray, ...]:
    """The parts a1, a2, a1^T, a2^T of the two-mode ladder family."""
    a, eye = _annihilation(cutoff), np.eye(cutoff)
    a1, a2 = np.kron(a, eye), np.kron(eye, a)
    return a1, a2, a1.T, a2.T


def build_fock(
    op_spec: str,
    cutoff: int,
    params=None,
    form: Literal["bosonic", "pseudo"] = "bosonic",
) -> FockOp:
    """Matrix for a named operator at the given per-mode cutoff (N >= 2).

    Single mode: a, adag.
    Two modes:   a1, a2, adag1, adag2, the pseudo-boson pairs A1, A2, B1, B2
    (one row of ``LADDER_WEIGHTS`` each), and H (requires ``params``; ``form``
    picks the bosonic or pseudo-boson assembly, which agree up to rounding).
    H is complex, every other operator float64.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    if op_spec in ("a", "adag"):
        a = _annihilation(cutoff)
        return FockOp(1, cutoff, a if op_spec == "a" else a.T.copy())
    if op_spec in LADDER_WEIGHTS:
        return FockOp(2, cutoff, _ladder(op_spec, _ladder_blocks(cutoff)))
    if op_spec != "H":
        raise ValueError(f"unknown operator spec {op_spec!r}")
    if params is None:
        raise ValueError("H needs oscillator parameters")
    return FockOp(2, cutoff, _hamiltonian_fock(params, form, _ladder_blocks(cutoff)))


def _hamiltonian_fock(params, form: str, blocks: tuple[np.ndarray, ...]) -> np.ndarray:
    """The dense H of either form from the dense parts a1, a2, a1^T, a2^T."""
    omega = params.omega
    g2m = float(params.gamma) / (2.0 * float(params.m))

    def prod(x: str, y: str) -> np.ndarray:
        return _ladder(x, blocks) @ _ladder(y, blocks)

    if form == "bosonic":
        number = prod("adag1", "a1") - prod("adag2", "a2")
        return omega * number + 1j * g2m * (prod("a1", "a2") - prod("adag1", "adag2"))
    if form == "pseudo":
        n1, n2 = prod("B1", "A1"), prod("B2", "A2")
        return omega * (n1 - n2) + 1j * g2m * (n1 + n2 + np.eye(len(n1)))
    raise ValueError(f"unknown Hamiltonian form {form!r}")


# A two-mode basis state |n1, n2>.
State = tuple[int, int]


def interior_bound(cutoff: int) -> int:
    """The interior rule: total excitation below cutoff - 2.  Raises ValueError
    below cutoff 3, where the interior is empty."""
    if cutoff < 3:
        raise ValueError("the interior needs a cutoff of at least 3")
    return cutoff - 2


def interior_indices(modes: int, cutoff: int) -> list[int]:
    """Basis indices of the interior, in increasing order (mode-1-major, so
    |n1, n2> is index n1 * cutoff + n2)."""
    bound = interior_bound(cutoff)
    if modes == 1:
        return list(range(bound))
    return [n1 * cutoff + n2 for n1 in range(bound) for n2 in range(bound - n1)]


def _sector_states(d: int, bound: int) -> list[State]:
    """Interior states |n1, n2> with n1 - n2 = d and n1 + n2 < bound, by min(n1, n2)."""
    p, q = max(d, 0), max(-d, 0)
    return [(k + p, k + q) for k in range((bound - abs(d) + 1) // 2)]


# How each part a1, a2, a1^T, a2^T of ``LADDER_WEIGHTS`` moves d = n1 - n2.
_PART_D_STEPS = (-1, 1, 1, -1)


def _d_step(op_spec: str) -> int:
    """How the ``LADDER_WEIGHTS`` operator moves d = n1 - n2: a1 and a2^T lower
    it by one, a2 and a1^T raise it, and no row mixes the two."""
    weights, _ = LADDER_WEIGHTS[op_spec]
    (step,) = {s for w, s in zip(weights, _PART_D_STEPS) if w}
    return step


@lru_cache(maxsize=4096)
def _ladder_column(op_spec: str, state: State) -> tuple[tuple[State, float], ...]:
    """Column |n1, n2> of the ``LADDER_WEIGHTS`` operator as its non-zero
    entries (row state, value).  Each part moves one mode by one level with
    the square root of the higher level (<n - 1| a |n> = sqrt(n)), so the
    value w sqrt(level) / sqrt(den) is the entry ``build_fock`` forms, bit
    for bit; a part that would lower a mode below 0 gives no entry.  The
    residuals read each column many times, so the columns are kept."""
    weights, den = LADDER_WEIGHTS[op_spec]
    n1, n2 = state
    levels = (n1, n2, n1 + 1, n2 + 1)
    rows = ((n1 - 1, n2), (n1, n2 - 1), (n1 + 1, n2), (n1, n2 + 1))
    root = math.sqrt(den)
    return tuple((row, w * math.sqrt(level) / root)
                 for w, level, row in zip(weights, levels, rows) if w and level)


def _product_column(x: str, y: str, state: State) -> dict[State, float]:
    """Column |n1, n2> of the product X Y of two ``LADDER_WEIGHTS`` operators
    as {row state: value}; the products of entries are rounded, then summed.
    From an interior state the product passes only through states of total
    excitation at most N - 2, so on the interior it is the product of the
    truncated matrices at any cutoff N."""
    column: dict[State, float] = {}
    for middle, y_value in _ladder_column(y, state):
        for row, x_value in _ladder_column(x, middle):
            column[row] = column.get(row, 0.0) + x_value * y_value
    return column


def _shifted_positive_definite(gram: Sequence[Sequence[complex]], x: float) -> bool:
    """Whether x - G is positive definite, for G Hermitian (rows of floats or
    complexes): every pivot of its Cholesky factorization is positive, and
    the test stops at the first that is not."""
    factor: list[list[complex]] = []
    for i, g_row in enumerate(gram):
        row: list[complex] = []
        for j, f_row in enumerate(factor):
            dot = sum(a * b.conjugate() for a, b in zip(row, f_row))
            row.append((-g_row[j] - dot) / f_row[j])
        pivot = x - g_row[i].real - sum((v * v.conjugate()).real for v in row)
        if pivot <= 0.0:
            return False
        row.append(math.sqrt(pivot))
        factor.append(row)
    return True


def _spectral_norm(block: Sequence[Sequence[complex]]) -> float:
    """||B||_2 of a small dense block (rows of floats or complexes): the square
    root of the largest eigenvalue of G = B^H B, the least float x at which
    x - G is positive definite, by bisection.  x - G is not positive
    definite at G's largest diagonal entry and is at twice its trace."""
    columns = list(zip(*block))
    gram = [[sum(a.conjugate() * b for a, b in zip(ci, cj)) for cj in columns] for ci in columns]
    diag = [row[i].real for i, row in enumerate(gram)]
    lo, hi = max(diag), 2.0 * sum(diag)
    while lo < (mid := (lo + hi) / 2) < hi:
        if _shifted_positive_definite(gram, mid):
            hi = mid
        else:
            lo = mid
    return math.sqrt(hi)


def _largest_norm(blocks: Iterable[Sequence[Sequence[complex]]]) -> float:
    """The largest spectral norm over the blocks.  A block whose Frobenius
    norm is at most the largest so far cannot exceed it, so it is skipped."""
    top = 0.0
    for block in blocks:
        if math.hypot(*map(abs, chain.from_iterable(block))) > top:
            top = max(top, _spectral_norm(block))
    return top


def _commutator_block(
    left: str, right: str, d: int, bound: int, expected: float
) -> list[list[float]]:
    """P([X, Y] - expected) P from the interior states of sector d to those of
    sector d + s, where X and Y together move d by s; no rows when sector
    d + s has no interior states."""
    shift = _d_step(left) + _d_step(right)
    rows = {state: r for r, state in enumerate(_sector_states(d + shift, bound))}
    columns = _sector_states(d, bound)
    block = [[0.0] * len(columns) for _ in rows]
    for c, state in enumerate(columns):
        xy, yx = _product_column(left, right, state), _product_column(right, left, state)
        for row in (xy.keys() | yx.keys()) & rows.keys():
            block[rows[row]][c] = xy.get(row, 0.0) - yx.get(row, 0.0)
        if not shift:
            block[c][c] -= expected
    return block


def commutator_residual(left: str, right: str, cutoff: int, expected: float = 0.0) -> float:
    """Spectral norm of P([X, Y] - expected * 1) P on the interior at this
    cutoff, for X and Y named by ``LADDER_WEIGHTS``, in plain floats.

    Each of X and Y moves d = n1 - n2 by one, so [X, Y] sends sector d to
    sector d + s alone (``_commutator_block``).  C^T C is then block
    diagonal, and the norm is the largest block's.  A commutator that moves
    d has no scalar part, so ``expected`` must then be 0.
    """
    for name in (left, right):
        if name not in LADDER_WEIGHTS:
            raise ValueError(f"unknown ladder operator {name!r}")
    bound = interior_bound(cutoff)
    if expected and _d_step(left) + _d_step(right):
        raise ValueError("a commutator that moves n1 - n2 has no scalar part")
    return _largest_norm(
        _commutator_block(left, right, d, bound, expected) for d in range(1 - bound, bound)
    )


def _sector_hamiltonian(params, form: str, d: int, bound: int) -> list[list[complex]]:
    """P H P on the interior states of sector d, in plain floats and entry by
    entry as ``build_fock("H")`` forms it: omega times the number part plus
    i gamma/2m times the interaction part, from the products of
    ``_product_column``."""
    if form == "bosonic":
        pairs = (("adag1", "a1"), ("adag2", "a2"), ("a1", "a2"), ("adag1", "adag2"))
    elif form == "pseudo":
        pairs = (("B1", "A1"), ("B2", "A2"))
    else:
        raise ValueError(f"unknown Hamiltonian form {form!r}")
    omega = params.omega
    g2m = float(params.gamma) / (2.0 * float(params.m))
    states = _sector_states(d, bound)
    rows = {state: r for r, state in enumerate(states)}
    block = [[0j] * len(states) for _ in states]
    for c, state in enumerate(states):
        products = [_product_column(x, y, state) for x, y in pairs]
        for row in set().union(*products) & rows.keys():
            p = [product.get(row, 0.0) for product in products]
            if form == "bosonic":
                value = complex(omega * (p[0] - p[1]), g2m * (p[2] - p[3]))
            else:
                value = complex(omega * (p[0] - p[1]), g2m * (p[0] + p[1] + (row == state)))
            block[rows[row]][c] = value
    return block


def hamiltonian_equiv_residual(params, cutoff: int) -> float:
    """Spectral norm of P(H_bosonic - H_pseudo)P at the given cutoff, the
    largest over the sectors d = n1 - n2, which both forms preserve."""
    bound = interior_bound(cutoff)

    def difference(d: int) -> list[list[complex]]:
        bosonic, pseudo = (_sector_hamiltonian(params, f, d, bound) for f in ("bosonic", "pseudo"))
        return [[a - b for a, b in zip(row_b, row_p)] for row_b, row_p in zip(bosonic, pseudo)]

    return _largest_norm(difference(d) for d in range(1 - bound, bound))


# ---------------------------------------------------------------------------
# joint null-vector experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NullRecord:
    cutoff: int
    sigma_min: float
    tail_mass: float
    sector: int  # d = n1 - n2 of the sector that holds the minimizer
    # the normalized minimizer on that sector's interior states, in the order of
    # ``_sector_states(sector, interior_bound(cutoff))``; zero on every other sector
    sector_vector: tuple[float, ...]


@dataclass(frozen=True)
class NullExperimentReport:
    """Least singular value of the stacked lowering pair, per cutoff.

    The domain is the interior subspace (total excitation < N - 2), which
    lowering operators map without truncation error.  Each record keeps the
    minimizer as its sector d and the vector on that sector alone.
    ``tail_mass`` is the minimizer mass at total excitation at or above half
    the interior bound; for the pseudo-boson pair it tracks the migration of
    the minimizer toward the cutoff.  sigma_min is exactly 0 when the pair
    has a joint null vector on the interior.
    """

    family: str
    records: tuple[NullRecord, ...]

    def sigma_mins(self) -> list[float]:
        return [r.sigma_min for r in self.records]

    def tail_masses(self) -> list[float]:
        return [r.tail_mass for r in self.records]


# Each lowering pair, as two rows of ``LADDER_WEIGHTS``: the first operator
# lowers d = n1 - n2 by one and the second raises it by one.
_LOWERING_PAIRS = {"pseudo": ("A1", "A2"), "bosonic": ("a1", "a2")}


def _gram_weights(family: str) -> tuple[int, int, int, int]:
    """The pair's sector Gram matrix T_d = B_d^T B_d as integers (u1, u2, u0, c).

    On column k of B_d, the state |n1, n2> = |k + p, k + q> of sector d, an
    operator sum_i w_i part_i / sqrt(den) puts w0 sqrt(n1) (a1) on
    |n1 - 1, n2> and w3 sqrt(n2 + 1) (a2^T) on |n1, n2 + 1>, the states of
    sector d - 1 it shares with columns k - 1 and k + 1, and w1 sqrt(n2) (a2)
    and w2 sqrt(n1 + 1) (a1^T) on the two of sector d + 1 (``_ladder_column``).
    So T_d is tridiagonal, with
    diagonal u1 n1 + u2 n2 + u0 and coupling c sqrt((n1 + 1)(n2 + 1)) between
    columns k and k + 1, summed over the pair and divided by den.
    """
    rows = [LADDER_WEIGHTS[op_spec] for op_spec in _LOWERING_PAIRS[family]]
    (den,) = {den for _, den in rows}
    sums = [sum(terms) for terms in zip(*(
        (w0 * w0 + w2 * w2, w1 * w1 + w3 * w3, w2 * w2 + w3 * w3, w0 * w3 + w1 * w2)
        for (w0, w1, w2, w3), _ in rows
    ))]
    assert not any(s % den for s in sums)  # both pairs have integer Gram matrices
    return tuple(s // den for s in sums)


def _sector_gram(d: int, bound: int, weights: tuple[int, int, int, int]) -> tuple[list[int], list[int]]:
    """T_d on the interior of sector d as its integer diagonal and squared couplings."""
    u1, u2, u0, c = weights
    p, q = max(d, 0), max(-d, 0)
    m = (bound - abs(d) + 1) // 2
    diag = [u1 * (k + p) + u2 * (k + q) + u0 for k in range(m)]
    couplings2 = [c * c * (k + 1 + p) * (k + 1 + q) for k in range(m - 1)]
    return diag, couplings2


def _positive_definite(diag: Sequence[int], couplings2: Sequence[int], x: float) -> bool:
    """Whether T - x is positive definite: every pivot of its LDL^T is
    positive.  By Sylvester's law of inertia the number of negative pivots
    (the Sturm count) is the number of eigenvalues below x, so the test stops
    at the first pivot that is not positive."""
    pivot = 1.0
    for a, b2 in zip(diag, (0, *couplings2)):
        pivot = a - x - b2 / pivot
        if pivot <= 0.0:
            return False
    return True


def _least_eigenvalue(diag: Sequence[int], couplings2: Sequence[int], hi: float) -> float:
    """The largest float x at which T - x is positive definite, by bisection
    on [0, hi]; T is positive definite and T - hi is not."""
    lo = 0.0
    while lo < (mid := (lo + hi) / 2) < hi:
        if _positive_definite(diag, couplings2, mid):
            lo = mid
        else:
            hi = mid
    return lo


def _singular(diag: Sequence[int], couplings2: Sequence[int]) -> bool:
    """Whether det T = 0, from the exact integer recurrence
    D_k = a_k D_(k-1) - b_(k-1)^2 D_(k-2)."""
    prev, det = 1, diag[0]
    for a, b2 in zip(diag[1:], couplings2):
        prev, det = det, a * det - b2 * prev
    return det == 0


def _ground_vector(diag: Sequence[int], couplings: Sequence[float], shift: float) -> list[float]:
    """The eigenvector of T's least eigenvalue, normalized, from two steps of
    inverse iteration with the tridiagonal LDL^T of T - shift, for shift at or
    just below that eigenvalue.  A zero pivot becomes eps ||T|| (as in LAPACK's
    stein).  The start vector is e_0: with non-zero couplings every
    eigenvector has a non-zero first entry (one that vanishes forces the rest
    to by the three-term recurrence), and with none T is diagonal and
    increasing, so e_0 is the eigenvector itself."""
    tiny = sys.float_info.epsilon * max(diag)
    pivots, mults = [], []
    pivot = 1.0
    for a, e in zip(diag, (0.0, *couplings)):
        mults.append(e / pivot)
        pivot = (a - shift - e * e / pivot) or tiny
        pivots.append(pivot)
    vec = [1.0] + [0.0] * (len(diag) - 1)
    for _ in range(2):
        for k in range(1, len(vec)):  # L y = v
            vec[k] -= mults[k] * vec[k - 1]
        vec[-1] /= pivots[-1]  # D L^T x = y
        for k in range(len(vec) - 2, -1, -1):
            vec[k] = vec[k] / pivots[k] - mults[k + 1] * vec[k + 1]
        norm = math.sqrt(math.fsum(x * x for x in vec))
        vec = [x / norm for x in vec]
    return vec


def joint_null_experiment(
    cutoffs: Sequence[int], family: Literal["pseudo", "bosonic"] = "pseudo"
) -> NullExperimentReport:
    """Least singular value of the stacked pair ([A1; A2] or [a1; a2]) over cutoffs.

    Works sector by sector, in plain floats: the stacked pair on the interior
    is block diagonal over d = n1 - n2, and sigma_min^2 is the least
    eigenvalue of a sector's Gram matrix T_d = B_d^T B_d, an integer Jacobi
    matrix (``_gram_weights``; Laguerre L^(|d|)'s for the pseudo pair,
    diag(n1 + n2) for the bosonic one).  The sectors are visited by |d|;
    each gets one Sturm test at the least eigenvalue found so far, and only
    one with an eigenvalue at or below it is bisected.  sigma_min is exactly
    0 when that sector's integer determinant vanishes.  The minimizer is the
    ground vector of the first sector visited that attains sigma_min, kept
    as that sector d and its vector, at most N/2 floats; -|d|
    comes before |d|, so of the mirror sectors d and -d, whose T_d are equal
    for both pairs, the one first in increasing d wins.
    """
    cutoffs = check_cutoffs(cutoffs)
    check_null_range(cutoffs[-1])
    if family not in _LOWERING_PAIRS:
        raise ValueError(f"unknown family {family!r}")
    weights = _gram_weights(family)

    records = []
    for cutoff in cutoffs:
        bound = interior_bound(cutoff)
        best_d, best = 0, math.inf
        for d in sorted(range(1 - bound, bound), key=abs):
            diag, couplings2 = _sector_gram(d, bound, weights)
            if _positive_definite(diag, couplings2, best):
                continue
            least = 0.0 if _singular(diag, couplings2) else _least_eigenvalue(
                diag, couplings2, min(best, *diag))
            if least < best:
                best_d, best = d, least
        diag, couplings2 = _sector_gram(best_d, bound, weights)
        couplings = [math.copysign(math.sqrt(b2), weights[3]) for b2 in couplings2]
        vec = _ground_vector(diag, couplings, best)
        totals = range(abs(best_d), bound, 2)
        tail_mass = math.fsum(x * x for total, x in zip(totals, vec) if total >= bound / 2)
        records.append(NullRecord(cutoff, math.sqrt(best), tail_mass, best_d, tuple(vec)))
    return NullExperimentReport(family=family, records=tuple(records))


def null_experiment_csv(report: NullExperimentReport) -> str:
    lines = ["cutoff,sigma_min,tail_mass"]
    for r in report.records:
        lines.append(f"{r.cutoff},{r.sigma_min!r},{r.tail_mass!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# squeeze-type experiments
# ---------------------------------------------------------------------------

def squeeze_factored_action(kmax: int) -> list[Fraction]:
    """Exact Fock amplitudes c_k of the factored squeeze action on the ground
    state, as the signed squares q_k = sign(c_k) c_k^2, k = 0..kmax.

    Computed by iterating the squared raising operator: c_(k+1) = -c_k
    <2k+2| adag^2 |2k> / (2(k+1)), and the matrix element squared is
    (2k+1)(2k+2), so q_0 = 1 and q_(k+1) = -q_k (2k+1)(2k+2) / (4(k+1)^2).
    The amplitude is c_k = sign(q_k) sqrt|q_k|.  Odd basis states carry
    exactly zero.  The global factor 2^(1/4) is carried by callers; index k
    of the result stands for basis state 2k.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    signed_squares = [Fraction(1)]
    for k in range(kmax):
        signed_squares.append(
            -signed_squares[-1] * (2 * k + 1) * (2 * k + 2) / (4 * (k + 1) ** 2)
        )
    return signed_squares


@dataclass(frozen=True)
class SqueezeNormRecord:
    cutoff: int
    norm: float | None  # None when beyond the float range; log_norm keeps its scale
    log_norm: float
    coeff_gaps: tuple[float | None, ...]  # relative gap to the factored amplitudes, k = 0..3


@dataclass(frozen=True)
class SqueezeReport:
    theta: float
    generator: str
    records: tuple[SqueezeNormRecord, ...]

    def norms(self) -> list[float | None]:
        return [r.norm for r in self.records]

    def log_norms(self) -> list[float]:
        return [r.log_norm for r in self.records]


def _exp_or_none(log_value: float) -> float | None:
    """e^log_value, or None when it exceeds the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return None


def _even_squeeze_couplings(cutoff: int) -> list[float]:
    """Off-diagonal of J, the block of a^2 + adag^2 on the even states 0, 2, 4, ... < cutoff.

    The generator couples n only to n +- 2, and |0> is even, so the even
    block is all that acts on it: a tridiagonal matrix with zero diagonal and
    <2j+2| adag^2 |2j> = sqrt((2j+1)(2j+2)).  Index j stands for basis state 2j.
    """
    return [math.sqrt(k * (k + 1)) for k in range(1, cutoff - 1, 2)]


# Terms below e^-83 ~ 2^-120 of the largest are left out of a log-sum: with at
# most 2^11 terms they add less than 2^-109 of the largest, far below its own
# rounding, and each would cost ``math.fsum`` a partial of its own.
_LOG_NEGLIGIBLE = -83.0


def _signed_log_sum(
    log_terms: Sequence[float], factors: Iterable[float] | None = None
) -> tuple[float, float]:
    """log|sum_i f_i e^(l_i)| and its sign, for |f_i| <= 1 (all 1 when
    ``factors`` is None), accurate relative to the largest term; the sum is
    ``math.fsum``'s.  A zero sum gives (-inf, 0.0)."""
    top = max(log_terms)
    kept = list(map(gt, log_terms, repeat(top + _LOG_NEGLIGIBLE)))
    shares = map(math.exp, map(sub, compress(log_terms, kept), repeat(top)))
    total = math.fsum(shares if factors is None else map(mul, compress(factors, kept), shares))
    if not total:
        return -math.inf, 0.0
    return top + math.log(abs(total)), math.copysign(1.0, total)


def _zero_diagonal_eigenvalues(couplings: Sequence[float]) -> list[float]:
    """Eigenvalues of the symmetric tridiagonal matrix with zero diagonal and
    these couplings, in increasing order, by the implicit QL algorithm with
    Wilkinson shifts (Bowdler, Martin, Reinsch & Wilkinson, Numer. Math. 11,
    1968: tql1), in O(n^2) operations.  Like LAPACK's, the eigenvalues are
    off by about eps times the matrix norm."""
    n = len(couplings) + 1
    d, e = [0.0] * n, [*couplings, 0.0]
    for low in range(n):
        while True:
            m = low
            while m < n - 1 and abs(e[m]) > sys.float_info.epsilon * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == low:
                break
            g = (d[low + 1] - d[low]) / (2.0 * e[low])
            g = d[m] - d[low] + e[low] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, low - 1, -1):
                f, b = s * e[i], c * e[i]
                r = e[i + 1] = math.hypot(f, g)
                if r == 0.0:  # the rotation underflowed: d[i + 1] splits off
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[low] -= p
                e[low], e[m] = g, 0.0
    return sorted(d)


_RESCALE_LOW, _RESCALE_HIGH = 2.0**-500, 2.0**500
_LOG2 = math.log(2.0)


def _recurrence_logs(node: float, couplings: Sequence[float]) -> tuple[array, array]:
    """log|p_j(node)| and the sign of p_j(node), j = 0..n-1, from the
    orthonormal recurrence p_0 = 1, b_j p_(j+1) = node p_j - b_(j-1) p_(j-1).
    The pair (p_(j-1), p_j) is rescaled by an exact power of two when p_j
    leaves [2^-500, 2^500] (downward, only with p_(j-1)), so no value under-
    or overflows.  A p_j of exactly 0 has log -inf, and its sign of +-1
    multiplies nothing."""
    values, runs = [1.0], [(0, 0.0)]  # runs: (first j, log scale) of each stretch at one scale
    prev, cur, b_prev = 0.0, 1.0, 0.0
    for b in couplings:
        prev, cur = cur, (node * cur - b_prev * prev) / b
        b_prev = b
        size = abs(cur)
        if size > _RESCALE_HIGH or (size < _RESCALE_LOW and abs(prev) < _RESCALE_LOW):
            shift = -math.frexp(max(size, abs(prev)))[1]
            prev, cur = math.ldexp(prev, shift), math.ldexp(cur, shift)
            runs.append((len(values), runs[-1][1] - shift * _LOG2))
        values.append(cur)
    logs = array("d")
    for (start, scale), (end, _) in zip(runs, [*runs[1:], (len(values), 0.0)]):
        logs.extend(math.log(abs(x)) + scale if x else -math.inf for x in values[start:end])
    return logs, array("d", map(math.copysign, repeat(1.0), values))


@lru_cache(maxsize=8)
def _jacobi_quadrature(cutoff: int) -> tuple[array, array, tuple[array, ...], tuple[array, ...]]:
    """Gauss quadrature of the even block J of ``_even_squeeze_couplings(cutoff)``.

    Returns the nodes lambda_i (the eigenvalues of J), the log weights
    log w_i = -log sum_j p_j(lambda_i)^2, and, row j by row j, log|p_j(lambda_i)|
    and its sign (``_recurrence_logs``), so that <e_j| f(J) |e_0> =
    sum_i w_i f(lambda_i) p_j(lambda_i).  No eigenvector is formed.  None of
    it depends on theta, so it is computed once per cutoff and kept.
    """
    couplings = _even_squeeze_couplings(cutoff)
    nodes = _zero_diagonal_eigenvalues(couplings)
    columns = [_recurrence_logs(node, couplings) for node in nodes]
    log_w = array("d", (-_signed_log_sum([2.0 * x for x in logs])[0] for logs, _ in columns))
    log_p = tuple(array("d", row) for row in zip(*(logs for logs, _ in columns)))
    sign_p = tuple(array("d", row) for row in zip(*(signs for _, signs in columns)))
    return array("d", nodes), log_w, log_p, sign_p


def even_squeeze_state(
    theta: float,
    cutoff: int,
    generator: Literal["hermitian", "antihermitian"] = "hermitian",
) -> tuple[array, array]:
    """exp(theta X)|0> on the even states 0, 2, 4, ... < cutoff, as (log|v|, sign v).

    Entry j, the amplitude of basis state 2j, is a signed log-sum-exp over
    the quadrature nodes of J (``_jacobi_quadrature``), so none under- or
    overflows.  ``hermitian``, X = a^2 + adag^2: v_j = sum_i w_i
    e^(|theta| lambda_i) p_j(lambda_i), with odd j negated for theta < 0
    (D J D = -J for D = diag((-1)^j)).  ``antihermitian``, X = a^2 - adag^2,
    has even block -i D^-1 J D with D = diag(i^j): v_j = Re(i^-j sum_i w_i
    e^(-i theta lambda_i) p_j(lambda_i)).  theta = 0 gives e0 exactly.  The
    nodes are off by about eps * ||J|| ~ eps * 2 cutoff, so log_norm is off
    by about |theta| eps * 2 cutoff.
    """
    if generator not in ("hermitian", "antihermitian"):
        raise ValueError(f"unknown generator {generator!r}")
    if theta == 0.0:
        n = (cutoff + 1) // 2  # the even states 0, 2, 4, ... < cutoff
        log_abs, sign = array("d", [-math.inf] * n), array("d", [0.0] * n)
        log_abs[0], sign[0] = 0.0, 1.0
        return log_abs, sign
    nodes, log_w, log_p, sign_p = _jacobi_quadrature(cutoff)
    if generator == "hermitian":
        weights = [w + abs(theta) * node for w, node in zip(log_w, nodes)]
        entries = [_signed_log_sum(list(map(add, weights, logs)), signs)
                   for logs, signs in zip(log_p, sign_p)]
        if theta < 0:
            entries[1::2] = [(log, -sign) for log, sign in entries[1::2]]
    else:
        # Re(i^-j e^(-i theta lambda)) for j = 0, 1, 2, 3 mod 4: cos, -sin, -cos, sin(theta lambda)
        cos = [math.cos(theta * node) for node in nodes]
        sin = [math.sin(theta * node) for node in nodes]
        phases = (cos, [-x for x in sin], [-x for x in cos], sin)
        entries = [_signed_log_sum(list(map(add, log_w, logs)), map(mul, signs, phases[j % 4]))
                   for j, (logs, signs) in enumerate(zip(log_p, sign_p))]
    return array("d", (log for log, _ in entries)), array("d", (sign for _, sign in entries))


def check_squeeze_range(theta: float, cutoff: int) -> None:
    """Raise ValueError unless the hermitian squeeze norms at this theta and
    largest cutoff lie inside what the pinned references certify."""
    if cutoff > SQUEEZE_CUTOFF_LIMIT:
        raise ValueError(f"squeeze norms are certified up to cutoff {SQUEEZE_CUTOFF_LIMIT}")
    if abs(theta) * cutoff > SQUEEZE_SCALE_LIMIT:
        raise ValueError(
            f"squeeze norms are certified up to |theta| * cutoff = {SQUEEZE_SCALE_LIMIT:.6g}"
        )


def squeeze_truncated_norms(
    theta: float,
    cutoffs: Sequence[int],
    generator: Literal["hermitian", "antihermitian"] = "hermitian",
) -> SqueezeReport:
    """Norms of exp(theta X_N)|0> per cutoff, with amplitude comparisons.

    ``hermitian`` is the unbounded generator a^2 + adag^2, whose norms grow
    without bound; ``antihermitian`` is the control a^2 - adag^2 whose
    exponential is orthogonal, so the norm stays 1.  log_norm is taken from
    the per-component logs of ``even_squeeze_state``.

    ``coeff_gaps`` reports, per cutoff, the relative gap between the
    amplitudes on basis states 0, 2, 4, 6 and the exact factored amplitudes
    times 2^(1/4).  The two agree only for the untruncated operators, so the
    gaps are reported, never asserted.  A norm or gap beyond the float range
    is None; ``log_norm`` is always finite.  The hermitian generator takes
    the theta and cutoffs that ``check_squeeze_range`` accepts.
    """
    cutoffs = check_cutoffs(cutoffs)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if generator == "hermitian":
        check_squeeze_range(theta, cutoffs[-1])

    signed_squares = squeeze_factored_action(3)
    reference = [math.copysign(math.sqrt(abs(q)), q) * 2.0**0.25 for q in signed_squares]

    records = []
    for cutoff in cutoffs:
        log_abs, sign = even_squeeze_state(theta, cutoff, generator)
        log_norm = _signed_log_sum([2.0 * x for x in log_abs])[0] / 2.0
        gaps = []
        for log_v, sign_v, ref in zip(log_abs, sign, reference):
            # |v_j - ref_j| / |ref_j| on the scale of the larger of the two
            log_ref = math.log(abs(ref))
            log_diff = _signed_log_sum([log_v, log_ref], [sign_v, -math.copysign(1.0, ref)])[0]
            gaps.append(_exp_or_none(log_diff - log_ref))
        records.append(SqueezeNormRecord(cutoff, _exp_or_none(log_norm), log_norm, tuple(gaps)))
    return SqueezeReport(theta=theta, generator=generator, records=tuple(records))


def squeeze_csv(report: SqueezeReport) -> str:
    """``cutoff,norm,log_norm``; a norm beyond the float range is left empty."""
    lines = ["cutoff,norm,log_norm"]
    for r in report.records:
        norm = "" if r.norm is None else repr(r.norm)
        lines.append(f"{r.cutoff},{norm},{r.log_norm!r}")
    return "\n".join(lines) + "\n"
