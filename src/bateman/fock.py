"""Truncated Fock-space matrix realizations and cutoff experiments.

Operators act on one or two truncated oscillator modes (cutoff N per mode,
mode 1 tensor mode 2 ordering).  The two-mode ladder family is one table of
integer weights over a1, a2, a1^T and a2^T, ``LADDER_WEIGHTS``.  The ladder
operators are float64; only H, which carries i gamma/2m, is complex.  Identity
checks always exclude the top two excitation levels by restricting to the
interior, total excitation below ``interior_bound(N) = N - 2``, since finite
ladder matrices necessarily violate the commutation relations at the edge.
For the coordinate projector P onto an index set S, P X Y P = (P X)(Y P): the
restricted product is X[S] @ Y[:, S], so the checks never form a full
two-mode product.  ``build_fock`` assembles the dense two-mode matrices from
``kron`` products, which the tests use as the oracle for both sector routes
below.

Both forms of H keep d = n1 - n2, and each ladder factor moves d and the
total excitation by one, so the Hamiltonian check and the null sweep work
one sector at a time.  The Hamiltonian check uses one layout,
``_sector_parts``: the parts a1, a2, a1^T, a2^T from ladder coefficients,
with columns the interior states S of sector d and rows the states T of
sectors d +- 1 one ladder step from S.  It forms X[S, T] @ Y[T, S]; each
sector's complex difference D gets its 2-norm from the real
[[Re D, -Im D], [Im D, Re D]], which has the same singular values twice, so
it calls only small real BLAS and LAPACK routines.

Experiments:

* ``joint_null_experiment`` measures how close the pseudo-boson lowering
  pair comes to a joint null vector as the cutoff grows (it cannot have one
  as a function, only as a distribution, so the least singular value decays
  and the minimizer drifts toward the cutoff).  It runs in plain Python
  floats and integers, without numpy: A1 = (a1 - a2^dag)/sqrt2 lowers d by
  one and A2 = (a2 - a1^dag)/sqrt2 raises it by one, as do a1 and a2, so the
  stacked pair on the interior is block diagonal, and each sector's Gram
  matrix B_d^T B_d is an integer Jacobi matrix, the Laguerre L^(|d|) one for
  the pseudo pair: diagonal 2k + |d| + 1, squared couplings (k + 1)(k + 1 + |d|).
  sigma_min^2 is its least eigenvalue, by Sturm bisection, and the minimizer
  comes from inverse iteration;
* ``squeeze_factored_action`` produces the exact Fock amplitudes of the
  factored squeeze action on the ground state as radical pairs;
* ``squeeze_truncated_norms`` evaluates exp(theta(c^2 + c+^2)) |0> at finite
  cutoffs, whose norms grow without bound because the untruncated image is
  not square integrable.  Both it and the antihermitian control are a Gauss
  quadrature of the even block J, a Jacobi matrix, in log space; a norm or
  gap beyond the float range is reported as None.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from . import _lazy_import
from .radicals import SqrtRational

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
    """P H P on S from the parts restricted to [S, T]: each product X Y
    is X[S, T] @ Y[T, S], exact when T holds every state one ladder step from
    S.  Y[T, S] is Y^T[S, T] transposed, whose parts swap a_j and a_j^T."""
    omega = params.omega
    g2m = float(params.gamma) / (2.0 * float(params.m))
    flipped = blocks[2:] + blocks[:2]

    def prod(x: str, y: str) -> np.ndarray:
        return _ladder(x, blocks) @ _ladder(y, flipped).T

    if form == "bosonic":
        number = prod("adag1", "a1") - prod("adag2", "a2")
        return omega * number + 1j * g2m * (prod("a1", "a2") - prod("adag1", "adag2"))
    if form == "pseudo":
        n1, n2 = prod("B1", "A1"), prod("B2", "A2")
        return omega * (n1 - n2) + 1j * g2m * (n1 + n2 + np.eye(len(n1)))
    raise ValueError(f"unknown Hamiltonian form {form!r}")


def total_excitations(modes: int, cutoff: int) -> np.ndarray:
    """Total excitation number per basis index, mode-1-major ordering."""
    if modes == 1:
        return np.arange(cutoff)
    n1 = np.repeat(np.arange(cutoff), cutoff)
    n2 = np.tile(np.arange(cutoff), cutoff)
    return n1 + n2


def interior_bound(cutoff: int) -> int:
    """The interior rule: total excitation below cutoff - 2.  Raises ValueError
    below cutoff 3, where the interior is empty."""
    if cutoff < 3:
        raise ValueError("the interior needs a cutoff of at least 3")
    return cutoff - 2


def interior_indices(modes: int, cutoff: int) -> np.ndarray:
    """Basis indices of the interior, in increasing order."""
    return np.flatnonzero(total_excitations(modes, cutoff) < interior_bound(cutoff))


def _sector_states(d: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Interior states |n1, n2> with n1 - n2 = d and n1 + n2 < bound, by min(n1, n2)."""
    n = np.arange((bound - abs(d) + 1) // 2)
    return n + max(d, 0), n + max(-d, 0)


def _sector_parts(d: int, bound: int) -> np.ndarray:
    """The parts a1, a2, a1^T, a2^T on [T, S], stacked as a (4, 2m + 2, m) array.

    Column k is the k-th of the m states S of ``_sector_states(d, bound)``,
    |k + p, k + q> with p = max(d, 0) and q = max(-d, 0).  Row r stands for
    |r + p - 1, r + q> in sector d - 1 and row m + 1 + r for |r + p, r + q - 1>
    in sector d + 1, so T holds every state one ladder step from S: a1 and a2^T
    send column k to rows k and k + 1, a2 and a1^T to rows m + 1 + k and
    m + 2 + k.  The coefficients are <n1 - 1, n2| a1 |n1, n2> = sqrt(n1) and its
    kin; a row that stands for no state (a negative n1 or n2) stays zero.
    """
    n1, n2 = _sector_states(d, bound)
    m = len(n1)
    k = np.arange(m)
    parts = np.zeros((4, 2 * m + 2, m))
    parts[0, k, k] = np.sqrt(n1)
    parts[1, m + 1 + k, k] = np.sqrt(n2)
    parts[2, m + 2 + k, k] = np.sqrt(n1 + 1)
    parts[3, k + 1, k] = np.sqrt(n2 + 1)
    return parts


def commutator_residual(x: FockOp, y: FockOp, expected: complex) -> float:
    """Spectral norm of P([X, Y] - expected * 1) P on the interior subspace,
    from the restricted products X[S] @ Y[:, S] over the interior indices S."""
    if x.modes != y.modes or x.cutoff != y.cutoff:
        raise ValueError("operators live on different truncated spaces")
    inside = interior_indices(x.modes, x.cutoff)
    xm, ym = x.matrix, y.matrix
    comm = xm[inside] @ ym[:, inside] - ym[inside] @ xm[:, inside]
    return float(np.linalg.norm(comm - expected * np.eye(len(inside)), 2))


def hamiltonian_equiv_residual(params, cutoff: int) -> float:
    """Spectral norm of P(H_bosonic - H_pseudo)P at the given cutoff, the largest
    over the sectors d = n1 - n2, which both forms preserve.  Each sector's
    complex D has the singular values of [[Re D, -Im D], [Im D, Re D]], twice."""
    bound = interior_bound(cutoff)
    top = 0.0
    for d in range(1 - bound, bound):
        # [S, T] blocks: the [T, S] parts transposed, with a_j and a_j^T swapped
        blocks = tuple(part.T for part in _sector_parts(d, bound)[[2, 3, 0, 1]])
        h1, h2 = (_hamiltonian_fock(params, form, blocks) for form in ("bosonic", "pseudo"))
        diff = h1 - h2
        real = np.block([[diff.real, -diff.imag], [diff.imag, diff.real]])
        top = max(top, np.linalg.norm(real, 2))
    return float(top)


# ---------------------------------------------------------------------------
# joint null-vector experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NullRecord:
    cutoff: int
    sigma_min: float
    tail_mass: float
    minimizer: tuple[float, ...]  # normalized, over the interior basis


@dataclass(frozen=True)
class NullExperimentReport:
    """Least singular value of the stacked lowering pair, per cutoff.

    The domain is the interior subspace (total excitation < N - 2), ordered
    by total excitation and then by n1; lowering operators map it without
    truncation error.
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
    operator sum_i w_i part_i / sqrt(den) puts w0 sqrt(n1) (a1) and
    w3 sqrt(n2 + 1) (a2^T) on the sector d - 1 rows k and k + 1 of
    ``_sector_parts``, and w1 sqrt(n2) (a2) and w2 sqrt(n1 + 1) (a1^T) on the
    sector d + 1 rows m + 1 + k and m + 2 + k.  So T_d is tridiagonal, with
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
    ground vector of the first sector visited that attains sigma_min; -|d|
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
        # interior index of |n1, n2>: all states of lower total, then by n1
        minimizer = [0.0] * (bound * (bound + 1) // 2)
        totals = range(abs(best_d), bound, 2)
        for total, x in zip(totals, vec):
            minimizer[total * (total + 1) // 2 + (total + best_d) // 2] = x
        tail_mass = math.fsum(x * x for total, x in zip(totals, vec) if total >= bound / 2)
        records.append(NullRecord(cutoff, math.sqrt(best), tail_mass, tuple(minimizer)))
    return NullExperimentReport(family=family, records=tuple(records))


def null_experiment_csv(report: NullExperimentReport) -> str:
    lines = ["cutoff,sigma_min,tail_mass"]
    for r in report.records:
        lines.append(f"{r.cutoff},{r.sigma_min!r},{r.tail_mass!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# squeeze-type experiments
# ---------------------------------------------------------------------------

def squeeze_factored_action(kmax: int) -> list[SqrtRational]:
    """Exact Fock amplitudes of the factored squeeze action on the ground state.

    Computed by iterating the squared raising operator: the amplitude on
    basis state 2k gains a factor -1/2 * sqrt(2k+1) * sqrt(2k+2) / (k+1) per
    step.  Odd basis states carry exactly zero.  The global factor 2^(1/4)
    is carried symbolically by callers; index k of the result is the
    amplitude of basis state 2k.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    coeffs = [SqrtRational(Fraction(1))]
    current = SqrtRational(Fraction(1))
    for k in range(kmax):
        step = (
            SqrtRational.sqrt_int(2 * k + 1)
            * SqrtRational.sqrt_int(2 * k + 2)
            * Fraction(-1, 2 * (k + 1))
        )
        current = current * step
        coeffs.append(current)
    return coeffs


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


def _even_squeeze_couplings(cutoff: int) -> np.ndarray:
    """Off-diagonal of J, the block of a^2 + adag^2 on the even states 0, 2, 4, ... < cutoff.

    The generator couples n only to n +- 2, and |0> is even, so the even
    block is all that acts on it: a tridiagonal matrix with zero diagonal and
    <2j+2| adag^2 |2j> = sqrt((2j+1)(2j+2)).  Index j stands for basis state 2j.
    """
    odd = np.arange(1.0, cutoff - 1, 2)  # 2j + 1 for each coupled pair 2j, 2j + 2
    return np.sqrt(odd * (odd + 1))


def _signed_log_sum(log_terms: np.ndarray, factors) -> tuple[np.ndarray, np.ndarray]:
    """log|sum_i f_i e^(l_i)| and its sign along the last axis, for |f_i| <= 1,
    accurate relative to the largest term."""
    top = np.max(log_terms, axis=-1)
    total = np.sum(factors * np.exp(log_terms - top[..., None]), axis=-1)
    with np.errstate(divide="ignore"):
        return top + np.log(np.abs(total)), np.sign(total)


def _jacobi_quadrature(couplings: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gauss quadrature of the Jacobi matrix J with zero diagonal and these couplings.

    Returns the nodes lambda_i (the eigenvalues of J), the log weights
    log w_i = -log sum_j p_j(lambda_i)^2, and log|p_j(lambda_i)| with its sign
    (row j, column i) from the orthonormal recurrence p_0 = 1,
    b_j p_(j+1) = lambda p_j - b_(j-1) p_(j-1), so that <e_j| f(J) |e_0> =
    sum_i w_i f(lambda_i) p_j(lambda_i).  Exact power-of-two rescaling per
    node keeps the recurrence in range; no eigenvector is formed.
    """
    n = len(couplings) + 1
    nodes = np.linalg.eigvalsh(np.diag(couplings, 1) + np.diag(couplings, -1))
    mantissa = np.ones((n, n))  # p_j(lambda_i) = mantissa * 2^exponent
    exponent = np.zeros((n, n), dtype=int)
    prev, cur = np.zeros(n), np.ones(n)
    for j, (b_prev, b) in enumerate(zip(np.append(0.0, couplings), couplings)):
        prev, cur = cur, (nodes * cur - b_prev * prev) / b
        shift = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))[1]
        prev, cur = np.ldexp(prev, -shift), np.ldexp(cur, -shift)
        mantissa[j + 1] = cur
        exponent[j + 1] = exponent[j] + shift
    with np.errstate(divide="ignore"):
        log_p = np.log(np.abs(mantissa)) + exponent * math.log(2.0)
    log_w = -_signed_log_sum(2.0 * log_p.T, 1.0)[0]
    return nodes, log_w, log_p, np.sign(mantissa)


def even_squeeze_state(
    theta: float,
    cutoff: int,
    generator: Literal["hermitian", "antihermitian"] = "hermitian",
) -> tuple[np.ndarray, np.ndarray]:
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
    couplings = _even_squeeze_couplings(cutoff)
    n = len(couplings) + 1
    if theta == 0.0:
        log_abs, sign = np.full(n, -np.inf), np.zeros(n)
        log_abs[0], sign[0] = 0.0, 1.0
        return log_abs, sign
    nodes, log_w, log_p, sign_p = _jacobi_quadrature(couplings)
    if generator == "hermitian":
        log_abs, sign = _signed_log_sum(log_w + abs(theta) * nodes + log_p, sign_p)
        if theta < 0:
            sign[1::2] *= -1.0
        return log_abs, sign
    phases = np.array([1, -1j, -1, 1j])[np.arange(n) % 4, None]  # i^-j on row j
    return _signed_log_sum(log_w + log_p, (phases * sign_p * np.exp(-1j * theta * nodes)).real)


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

    reference = np.array([float(c) for c in squeeze_factored_action(3)]) * 2.0 ** 0.25
    log_ref, minus_ref_sign = np.log(np.abs(reference)), -np.sign(reference)

    records = []
    for cutoff in cutoffs:
        log_abs, sign = even_squeeze_state(theta, cutoff, generator)
        log_norm = float(_signed_log_sum(2.0 * log_abs, 1.0)[0]) / 2.0
        # |v_j - ref_j| / |ref_j| on the scale of the larger of the two
        log_diff = _signed_log_sum(
            np.column_stack([log_abs[:4], log_ref]), np.column_stack([sign[:4], minus_ref_sign])
        )[0]
        gaps = tuple(_exp_or_none(g) for g in (log_diff - log_ref).tolist())
        records.append(SqueezeNormRecord(cutoff, _exp_or_none(log_norm), log_norm, gaps))
    return SqueezeReport(theta=theta, generator=generator, records=tuple(records))


def squeeze_csv(report: SqueezeReport) -> str:
    """``cutoff,norm,log_norm``; a norm beyond the float range is left empty."""
    lines = ["cutoff,norm,log_norm"]
    for r in report.records:
        norm = "" if r.norm is None else repr(r.norm)
        lines.append(f"{r.cutoff},{norm},{r.log_norm!r}")
    return "\n".join(lines) + "\n"
