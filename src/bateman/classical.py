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

numpy is loaded on the first use of ``np``, not at import, as in every layer
(see the package docstring), so the exact layer can take ``BatemanParams``
from here without running it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, TextIO

from . import _lazy_import
from .field import RatLike, _rat, rational_sqrt

np = _lazy_import("numpy")

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


def _apply(rows: Form, s: Sequence) -> Iterator:
    """Each row dotted with s, one row at a time and over the row's nonzero
    entries only; s holds four floats or four arrays of samples."""
    return (sum(float(q) * v for q, v in zip(row, s) if q) for row in rows)


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
        return tuple(_apply(motion_matrix(params)[:2], self))

    def as_array(self) -> np.ndarray:
        return np.array(tuple(self), dtype=float)


def hamiltonian_mixed(state: PhaseState | Sequence, params: BatemanParams) -> float | np.ndarray:
    """1/2 s^T Q s of the mixed form; ``state`` may also be four sample arrays."""
    return 0.5 * sum(u * v for u, v in zip(state, _apply(mixed_form(params), state)))


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (n, 4): columns x, y, p_x, p_y
    params: BatemanParams

    def energies(self) -> np.ndarray:
        return hamiltonian_mixed(self.states.T, self.params)


def _rk4_increment(params: BatemanParams, dt: float) -> np.ndarray:
    """D = P - I for the RK4 step matrix P = sum_{j<=4} (dt M)^j / j!.

    Hamilton's equations of the mixed form are linear, s' = M s, so one
    classic RK4 step is exactly s -> P s.  The terms are summed smallest
    first, and callers add D s to s rather than forming P s: P's diagonal
    is 1 + O(dt), and rounding it would drift the energy coherently over
    many steps.
    """
    hm = dt * np.array(motion_matrix(params), dtype=float)
    hm2 = hm @ hm
    hm3 = hm2 @ hm
    return (hm2 @ hm2 / 24.0 + hm3 / 6.0) + hm2 / 2.0 + hm


def integrate_eom(
    params: BatemanParams, init: PhaseState, t_end: float, dt: float = 1e-3
) -> Trajectory:
    """Classic fixed-step RK4 for Hamilton's equations of the mixed form.

    The equations are linear, so each step applies one fixed matrix (see
    ``_rk4_increment``).  M couples only (x, p_y) and (y, p_x), and so does
    every power of it: D = P - I is two 2 x 2 blocks, and its other eight
    entries are exactly zero.  So each step adds D s to s from the eight
    block entries alone, in plain floats, and writes the new state into the
    preallocated state array; no numpy call runs per step.  The amplified
    coordinate grows like exp(+gamma t / 2m); overflow of that envelope
    raises IntegrationError, as do NaNs.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    d = _rk4_increment(params, dt)
    assert not any(
        d[i, j] for i in range(4) for j in range(4) if (i in (0, 3)) != (j in (0, 3))
    ), d
    # each coefficient is named by its row's coordinate, then its column's
    (xx, _, _, xpy), (_, yy, ypx, _), (_, pxy, pxpx, _), (pyx, _, _, pypy) = d.tolist()
    nsteps = int(round(t_end / dt))
    states = np.empty((nsteps + 1, 4))
    times = np.arange(nsteps + 1) * dt
    states[0] = init.as_array()
    x, y, px, py = states[0].tolist()
    # writes through these views land in ``states``; overflow shows up as
    # non-finite entries and is reported below
    xs, ys, pxs, pys = (memoryview(states[:, j]) for j in range(4))
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
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        first = int(np.argmin(finite))
        raise IntegrationError(
            f"trajectory left the representable range at t={times[first]:g}"
        )
    return Trajectory(times, states, params)


def underdamped_solution(
    params: BatemanParams, init: PhaseState, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form x(t) and y(t) from ``init``.

    Each coordinate solves u'' - 2 r u' + (omega^2 + r^2) u = 0, with
    r = -gamma/2m for the damped x and r = +gamma/2m for the amplified y, so
    u(t) = e^(r t) (u0 cos(omega t) + (u0' - r u0) / omega sin(omega t)).
    """
    rate = float(params.gamma) / (2 * float(params.m))
    w = params.omega
    xdot, ydot = init.velocities(params)
    cos, sin = np.cos(w * times), np.sin(w * times)

    def mode(u0: float, v0: float, r: float) -> np.ndarray:
        return np.exp(r * times) * (u0 * cos + (v0 - r * u0) / w * sin)

    return mode(init.x, xdot, -rate), mode(init.y, ydot, rate)


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
    dt = float(traj.times[1] - traj.times[0])
    params = traj.params
    m, g, k = float(params.m), float(params.gamma), float(params.k_spring)
    x, y = traj.states[:, 0], traj.states[:, 1]

    def second(u: np.ndarray) -> np.ndarray:
        return (u[2:] - 2 * u[1:-1] + u[:-2]) / (dt * dt)

    # overflow shows up as non-finite residuals and is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        # velocities from the momenta (exact relations, no differencing error)
        xdot, ydot = PhaseState(*traj.states.T).velocities(params)
        rx = m * second(x) + g * xdot[1:-1] + k * x[1:-1]
        ry = m * second(y) - g * ydot[1:-1] + k * y[1:-1]
        damped, amplified = float(np.max(np.abs(rx))), float(np.max(np.abs(ry)))
    if not (math.isfinite(damped) and math.isfinite(amplified)):
        raise IntegrationError("an equation-of-motion residual left the representable range")
    return EomResiduals(damped, amplified)


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
    # overflow shows up as non-finite energies and is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        energies = traj.energies()
    if not np.isfinite(energies).all():
        raise IntegrationError("the energy left the representable range along the trajectory")
    drift = float(np.max(np.abs(energies - energies[0])))
    return HamiltonianConsistency(drift, float(energies[0]))


# Rows formatted per block of trajectory_csv: the Python floats and row
# strings of one block are alive at a time, and no string of the whole file.
CSV_BLOCK_ROWS = 500


def trajectory_csv(traj: Trajectory, out: TextIO) -> None:
    """Write the CSV with columns t, x, y, p_x, p_y, H to ``out``, CSV_BLOCK_ROWS rows at a time."""
    energies = traj.energies()
    out.write("t,x,y,p_x,p_y,H\n")
    for start in range(0, len(energies), CSV_BLOCK_ROWS):
        rows = slice(start, start + CSV_BLOCK_ROWS)
        table = np.column_stack([traj.times[rows], traj.states[rows], energies[rows]])
        # Python floats: a numpy scalar's repr reads np.float64(...)
        out.write("".join([
            f"{t!r},{x!r},{y!r},{px!r},{py!r},{h!r}\n" for t, x, y, px, py, h in table.tolist()
        ]))
