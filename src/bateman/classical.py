"""Classical two-oscillator layer: energy forms, equations of motion, conservation.

The damped oscillator m x'' + gamma x' + k x = 0 is paired with an amplified
partner m y'' - gamma y' + k y = 0 so that the joint system is Hamiltonian.
Its energy is one quadratic form, H = 1/2 s^T Q s, stated once per coordinate
system as an exact symmetric matrix of Fractions: ``mixed_form`` over
(x, y, p_x, p_y) and ``rotated_form`` over (x1, x2, p1, p2).  The rotation
x1, x2 = (x +- y)/sqrt2, with the same rotation of the momenta, is B/sqrt2
for the integer matrix ``ROTATION_B``, so the forms agree at every
phase-space point exactly when Q_mixed = 1/2 B Q_rot B (``forms_agree``), an
identity of rationals even for irrational omega.

Hamilton's equations are s' = M s with M = Omega Q (``motion_matrix``), so
M^T Q + Q M = 0 by construction.  The RK4 step, the velocities and the
energies all read these matrices.  The independent float statements are the
second-order equations of ``eom_residual``, the closed form of
``underdamped_solution`` and the Legendre transform of
``PhaseState.from_velocities``: p_x = m y' - (gamma/2) y and
p_y = m x' + (gamma/2) x, so each momentum couples to the *other*
coordinate's velocity.  Build momenta with it, not by hand.

The layer runs in plain Python floats and never loads numpy: a trajectory is
``array('d')`` columns, every pass over it goes sample by sample, and
overflow, which gives inf or nan silently, is caught with ``math.isfinite``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence, TextIO

from .field import RatLike, _rat, rational_sqrt

# An exact 4 x 4 matrix over phase space, row by row.
Form = tuple[tuple[Fraction, ...], ...]
# (x1, x2, p1, p2) = B (x, y, p_x, p_y) / sqrt2; B is symmetric and B B = 2 I.
ROTATION_B = ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))


class IntegrationError(RuntimeError):
    """Raised when a trajectory or a quantity computed from it leaves the float range."""


@dataclass(frozen=True)
class BatemanParams:
    """Exact oscillator parameters; underdamped regime only (omega2 > 0)."""

    m: Fraction
    gamma: Fraction
    k_spring: Fraction

    def __init__(self, m: RatLike, gamma: RatLike, k_spring: RatLike):
        object.__setattr__(self, "m", _rat(m))
        object.__setattr__(self, "gamma", _rat(gamma))
        object.__setattr__(self, "k_spring", _rat(k_spring))
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if self.gamma < 0:
            raise ValueError("friction coefficient must be nonnegative")
        if self.k_spring <= 0:
            raise ValueError("spring constant must be positive")
        if self.omega2 <= 0:
            raise ValueError(
                "parameters are not underdamped: k/m - gamma^2/4m^2 must be positive"
            )

    @property
    def omega2(self) -> Fraction:
        return self.k_spring / self.m - self.gamma**2 / (4 * self.m**2)

    @property
    def omega(self) -> float:
        return math.sqrt(float(self.omega2))

    @property
    def rational_omega(self) -> Fraction | None:
        """Exact omega when omega2 is a rational square, else None."""
        return rational_sqrt(self.omega2)

    @classmethod
    def from_omega(cls, m: RatLike, gamma: RatLike, omega: RatLike) -> BatemanParams:
        """Parameters with an exact rational omega; k is derived."""
        m, gamma, omega = _rat(m), _rat(gamma), _rat(omega)
        if m <= 0:
            raise ValueError("mass must be positive")
        if omega <= 0:
            raise ValueError("omega must be positive")
        k = m * omega**2 + gamma**2 / (4 * m)
        return cls(m, gamma, k)


def mixed_form(params: BatemanParams) -> Form:
    """Q over (x, y, p_x, p_y): H = p_x p_y / m + h (y p_y - x p_x) + c x y,
    with h = gamma/2m and c = k - gamma^2/4m."""
    c = params.k_spring - params.gamma**2 / (4 * params.m)
    h, inv_m = params.gamma / (2 * params.m), 1 / params.m
    return (0, c, -h, 0), (c, 0, 0, h), (-h, 0, 0, inv_m), (0, h, inv_m, 0)


def rotated_form(params: BatemanParams) -> Form:
    """Q over (x1, x2, p1, p2):
    H = p1^2/2m + m w^2 x1^2/2 - p2^2/2m - m w^2 x2^2/2 - h (p1 x2 + p2 x1)."""
    mw2 = params.m * params.omega2
    h, inv_m = params.gamma / (2 * params.m), 1 / params.m
    return (mw2, 0, 0, -h), (0, -mw2, -h, 0), (0, -h, inv_m, 0), (-h, 0, 0, -inv_m)


def _matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Form:
    return tuple(tuple(sum(u * v for u, v in zip(row, col)) for col in zip(*b)) for row in a)


def forms_agree(params: BatemanParams) -> bool:
    """Whether Q_mixed = 1/2 B Q_rot B holds exactly."""
    back = _matmul(_matmul(ROTATION_B, rotated_form(params)), ROTATION_B)
    return mixed_form(params) == tuple(tuple(v / 2 for v in row) for row in back)


def motion_matrix(params: BatemanParams) -> Form:
    """M = Omega Q: the rows (Q[2], Q[3], -Q[0], -Q[1]) of the mixed form."""
    q = mixed_form(params)
    return q[2], q[3], tuple(-v for v in q[0]), tuple(-v for v in q[1])


def _mixed_entries(params: BatemanParams) -> tuple[float, float, float, float]:
    """(c, -h, h, 1/m): the mixed form's nonzero Q[0][1], Q[0][2], Q[1][3], Q[2][3]."""
    q = mixed_form(params)
    return float(q[0][1]), float(q[0][2]), float(q[1][3]), float(q[2][3])


def _energies(params: BatemanParams, states: Iterable[Sequence[float]]) -> Iterator[float]:
    """1/2 s^T Q s at each state, each sum in column order over Q's nonzero entries."""
    c, nh, h, inv_m = _mixed_entries(params)
    return (0.5 * (x * (c * y + nh * px) + y * (c * x + h * py)
                   + px * (nh * x + inv_m * py) + py * (h * y + inv_m * px))
            for x, y, px, py in states)


def _velocities(params: BatemanParams, states: Iterable[Sequence[float]]) -> Iterator[tuple[float, float]]:
    """(x', y') at each state: rows 0 and 1 of M s, which are rows 2 and 3 of Q s."""
    _, nh, h, inv_m = _mixed_entries(params)
    return ((nh * x + inv_m * py, h * y + inv_m * px) for x, y, px, py in states)


@dataclass(frozen=True)
class PhaseState:
    """Phase-space point (x, y, p_x, p_y); iterates over the four fields."""

    x: float
    y: float
    px: float
    py: float

    @classmethod
    def from_velocities(
        cls, params: BatemanParams, x: float, xdot: float, y: float, ydot: float
    ) -> PhaseState:
        m, g = float(params.m), float(params.gamma)
        return cls(x, y, m * ydot - 0.5 * g * y, m * xdot + 0.5 * g * x)

    def __iter__(self) -> Iterator[float]:
        return iter((self.x, self.y, self.px, self.py))

    def velocities(self, params: BatemanParams) -> tuple[float, float]:
        """(x', y'): the first two rows of M s."""
        return next(_velocities(params, (self,)))

    def as_array(self) -> array:
        return array("d", self)


def hamiltonian_mixed(state: PhaseState | Sequence[float], params: BatemanParams) -> float:
    """1/2 s^T Q s of the mixed form at one state (x, y, p_x, p_y)."""
    return next(_energies(params, (state,)))


@dataclass(frozen=True)
class Trajectory:
    times: array
    states: tuple[array, array, array, array]  # the columns x, y, p_x, p_y
    params: BatemanParams

    @cached_property
    def energies(self) -> array:
        """The energy at each sample, computed once per trajectory."""
        return array("d", _energies(self.params, zip(*self.states)))


def _rk4_increment(params: BatemanParams, dt: float) -> tuple[Sequence[Sequence[float]], ...]:
    """The (x, p_y) and (y, p_x) blocks of D = P - I, where one RK4 step of the
    linear s' = M s is exactly s -> P s, P = sum_{j<=4} (dt M)^j / j!; M couples
    only these pairs, as does every power of it, so D is zero elsewhere.  Each
    entry of a block product is two rounded products summed, on any machine.
    The terms are summed smallest first, and callers add D s to s rather than
    forming P s: P's diagonal is 1 + O(dt), and rounding it would drift the
    energy coherently over many steps."""
    mm = motion_matrix(params)
    blocks = []
    for block in ((0, 3), (1, 2)):
        hm = [[dt * float(mm[i][j]) for j in block] for i in block]
        hm2 = _matmul(hm, hm)
        terms = zip(_matmul(hm2, hm2), _matmul(hm2, hm), hm2, hm)
        blocks.append(tuple(tuple((a / 24.0 + b / 6.0) + c / 2.0 + d for a, b, c, d in zip(*rows))
                            for rows in terms))
    return blocks[0], blocks[1]


def integrate_eom(
    params: BatemanParams, init: PhaseState, t_end: float, dt: float = 1e-3
) -> Trajectory:
    """Classic fixed-step RK4 for Hamilton's equations of the mixed form: each
    step adds D s to s (see ``_rk4_increment``) into preallocated columns.  The
    amplified coordinate grows like exp(+gamma t / 2m); overflow of that
    envelope raises IntegrationError, as do NaNs."""
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    # each coefficient is named by its row's coordinate, then its column's
    ((xx, xpy), (pyx, pypy)), ((yy, ypx), (pxy, pxpx)) = _rk4_increment(params, dt)
    nsteps = int(round(t_end / dt))
    times = array("d", (i * dt for i in range(nsteps + 1)))
    x, y, px, py = map(float, init)
    # each column starts filled with its initial value
    xs, ys, pxs, pys = (array("d", (v,)) * (nsteps + 1) for v in (x, y, px, py))
    for i in range(1, nsteps + 1):
        x, y, px, py = (
            x + (xx * x + xpy * py),
            y + (yy * y + ypx * px),
            px + (pxy * y + pxpx * px),
            py + (pyx * x + pypy * py),
        )
        # one store per statement, which is faster than one tuple store
        xs[i] = x
        ys[i] = y
        pxs[i] = px
        pys[i] = py
    # each coordinate steps as u + (...), and inf or nan plus anything is not
    # finite: so the last state is finite exactly when every state is
    if not all(map(math.isfinite, (x, y, px, py))):
        first = next(i for i, s in enumerate(zip(xs, ys, pxs, pys))
                     if not all(map(math.isfinite, s)))
        raise IntegrationError(f"trajectory left the representable range at t={times[first]:g}")
    return Trajectory(times, (xs, ys, pxs, pys), params)


def underdamped_solution(
    params: BatemanParams, init: PhaseState, times: Sequence[float]
) -> tuple[array, array]:
    """Closed-form x(t) and y(t) from ``init`` at each of ``times``.

    Each coordinate solves u'' - 2 r u' + (omega^2 + r^2) u = 0, with
    r = -gamma/2m for the damped x and r = +gamma/2m for the amplified y, so
    u(t) = e^(r t) (u0 cos(omega t) + (u0' - r u0) / omega sin(omega t)).
    An e^(r t) past the float range raises IntegrationError.
    """
    rate = float(params.gamma) / (2 * float(params.m))
    w = params.omega
    xdot, ydot = init.velocities(params)
    (x0, bx, rx), (y0, by, ry) = (
        (u0, (v0 - r * u0) / w, r) for u0, v0, r in ((init.x, xdot, -rate), (init.y, ydot, rate))
    )
    xs, ys = array("d"), array("d")
    try:
        for t in times:  # the modes share one cos and one sin per sample
            c, s = math.cos(w * t), math.sin(w * t)
            xs.append(math.exp(rx * t) * (x0 * c + bx * s))
            ys.append(math.exp(ry * t) * (y0 * c + by * s))
    except OverflowError:
        raise IntegrationError("the closed-form solution left the representable range") from None
    return xs, ys


@dataclass(frozen=True)
class EomResiduals:
    """Max finite-difference residuals of the two second-order equations."""

    damped: float
    amplified: float


def eom_residual(traj: Trajectory) -> EomResiduals:
    """Central-difference check of m x'' + gamma x' + k x and m y'' - gamma y' + k y.
    A non-finite residual raises IntegrationError: the amplified second
    difference over dt^2 leaves the float range before the trajectory does."""
    if len(traj.times) < 5:
        raise ValueError("need at least 5 samples for the residual check")
    dt = traj.times[1] - traj.times[0]
    dt2 = dt * dt
    params = traj.params
    m, g, k = float(params.m), float(params.gamma), float(params.k_spring)
    x, y = traj.states[:2]
    # x and y at i-1, i, i+1, and the velocities at i from the momenta (exact)
    interior = zip(x, islice(x, 1, None), islice(x, 2, None), y, islice(y, 1, None),
                   islice(y, 2, None), islice(_velocities(params, zip(*traj.states)), 1, None))
    rx, ry = array("d"), array("d")
    for x0, x1, x2, y0, y1, y2, (xdot, ydot) in interior:
        rx.append(m * ((x2 - 2 * x1 + x0) / dt2) + g * xdot + k * x1)
        ry.append(m * ((y2 - 2 * y1 + y0) / dt2) - g * ydot + k * y1)
    if not all(map(math.isfinite, chain(rx, ry))):
        raise IntegrationError("an equation-of-motion residual left the representable range")
    return EomResiduals(max(map(abs, rx)), max(map(abs, ry)))


@dataclass(frozen=True)
class HamiltonianConsistency:
    """Conservation drift of the energy along a trajectory."""

    max_drift: float
    initial_energy: float


def hamiltonian_consistency(traj: Trajectory) -> HamiltonianConsistency:
    """The energy's largest drift from its initial value along the trajectory.
    A non-finite energy raises IntegrationError: the entries of Q s grow with
    the amplified coordinate and can leave the float range just before it."""
    if len(traj.times) < 2:
        raise ValueError("need at least 2 samples")
    energies = traj.energies
    if not all(map(math.isfinite, energies)):
        raise IntegrationError("the energy left the representable range along the trajectory")
    e0 = energies[0]
    return HamiltonianConsistency(max(abs(e - e0) for e in energies), e0)


# Rows formatted per block of trajectory_csv: the row strings of one block
# are alive at a time, and no string of the whole file.
CSV_BLOCK_ROWS = 500


def trajectory_csv(traj: Trajectory, out: TextIO) -> None:
    """Write the CSV with columns t, x, y, p_x, p_y, H to ``out``, CSV_BLOCK_ROWS rows at a time."""
    columns = (traj.times, *traj.states, traj.energies)
    out.write("t,x,y,p_x,p_y,H\n")
    for start in range(0, len(traj.times), CSV_BLOCK_ROWS):
        block = zip(*(column[start:start + CSV_BLOCK_ROWS] for column in columns))
        out.write("".join([f"{t!r},{x!r},{y!r},{px!r},{py!r},{h!r}\n"
                           for t, x, y, px, py, h in block]))
