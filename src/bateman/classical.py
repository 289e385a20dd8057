"""Classical two-oscillator layer: equations of motion, rotation, conservation.

The damped oscillator m x'' + gamma x' + k x = 0 is paired with an amplified
partner m y'' - gamma y' + k y = 0 so that the joint system is Hamiltonian.
This module integrates Hamilton's equations for the mixed-coordinate form

    H = p_x p_y / m + (gamma/2m)(y p_y - x p_x) + (k - gamma^2/4m) x y,

checks the residuals of both second-order equations along trajectories, and
verifies pointwise agreement with the rotated form

    H = p1^2/2m + m w^2 x1^2/2 - p2^2/2m - m w^2 x2^2/2 - (gamma/2m)(p1 x2 + p2 x1)

under the orthogonal change of variables x = (x1+x2)/sqrt2, y = (x1-x2)/sqrt2
(the same rotation applied to the momenta).

The momentum bookkeeping is the error-prone part: the Legendre transform of
the mixed Lagrangian gives p_x = m y' - (gamma/2) y and p_y = m x' + (gamma/2) x,
i.e. each momentum couples to the *other* coordinate's velocity.  Use
``PhaseState.from_velocities`` instead of building momenta by hand.

numpy is loaded on the first use of ``np``, not at import, as in every layer
(see the package docstring), so the exact layer can take ``BatemanParams``
from here without running it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TextIO

from . import _lazy_import
from .field import RatLike, _rat, rational_sqrt

np = _lazy_import("numpy")
_SQRT2 = math.sqrt(2.0)


class IntegrationError(RuntimeError):
    """Raised when a trajectory leaves the representable range (NaN/inf)."""


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


@dataclass(frozen=True)
class PhaseState:
    """Phase-space point; fields are (x, y, p_x, p_y) or rotated (x1, x2, p1, p2).

    The fields may also be equal-length arrays, one entry per sample (see
    ``Trajectory.phase_arrays``); ``rotate`` and the Hamiltonians then act
    elementwise.
    """

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

    def velocities(self, params: BatemanParams) -> tuple[float, float]:
        m, g = float(params.m), float(params.gamma)
        xdot = (self.py - 0.5 * g * self.x) / m
        ydot = (self.px + 0.5 * g * self.y) / m
        return xdot, ydot

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.px, self.py], dtype=float)


def rotate(state: PhaseState) -> PhaseState:
    """Orthogonal coordinate rotation; involutive (the matrix is its own inverse)."""
    return PhaseState(
        (state.x + state.y) / _SQRT2,
        (state.x - state.y) / _SQRT2,
        (state.px + state.py) / _SQRT2,
        (state.px - state.py) / _SQRT2,
    )


def hamiltonian_mixed(state: PhaseState, params: BatemanParams) -> float:
    m, g, k = float(params.m), float(params.gamma), float(params.k_spring)
    return (
        state.px * state.py / m
        + (g / (2 * m)) * (state.y * state.py - state.x * state.px)
        + (k - g * g / (4 * m)) * state.x * state.y
    )


def hamiltonian_rotated(rotated_state: PhaseState, params: BatemanParams) -> float:
    """Rotated-frame value; the state fields are read as (x1, x2, p1, p2)."""
    m, g = float(params.m), float(params.gamma)
    w2 = float(params.omega2)
    x1, x2, p1, p2 = (
        rotated_state.x,
        rotated_state.y,
        rotated_state.px,
        rotated_state.py,
    )
    return (
        p1 * p1 / (2 * m)
        + 0.5 * m * w2 * x1 * x1
        - p2 * p2 / (2 * m)
        - 0.5 * m * w2 * x2 * x2
        - (g / (2 * m)) * (p1 * x2 + p2 * x1)
    )


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (n, 4): columns x, y, p_x, p_y
    params: BatemanParams

    def phase_arrays(self) -> PhaseState:
        """All samples as one PhaseState whose fields are arrays over time."""
        return PhaseState(*self.states.T)

    def energies(self) -> np.ndarray:
        return hamiltonian_mixed(self.phase_arrays(), self.params)


def _rk4_increment(params: BatemanParams, dt: float) -> np.ndarray:
    """D = P - I for the RK4 step matrix P = sum_{j<=4} (dt M)^j / j!.

    Hamilton's equations of the mixed form are linear, s' = M s, so one
    classic RK4 step is exactly s -> P s.  The terms are summed smallest
    first, and callers add D s to s rather than forming P s: P's diagonal
    is 1 + O(dt), and rounding it would drift the energy coherently over
    many steps.
    """
    m, g, k = float(params.m), float(params.gamma), float(params.k_spring)
    c = k - g * g / (4 * m)
    g2m = g / (2 * m)
    hm = dt * np.array(
        [
            [-g2m, 0.0, 0.0, 1 / m],
            [0.0, g2m, 1 / m, 0.0],
            [0.0, -c, g2m, 0.0],
            [-c, 0.0, 0.0, -g2m],
        ]
    )
    hm2 = hm @ hm
    hm3 = hm2 @ hm
    return (hm2 @ hm2 / 24.0 + hm3 / 6.0) + hm2 / 2.0 + hm


def integrate_eom(
    params: BatemanParams, init: PhaseState, t_end: float, dt: float = 1e-3
) -> Trajectory:
    """Classic fixed-step RK4 for Hamilton's equations of the mixed form.

    The equations are linear, so each step applies one fixed matrix (see
    ``_rk4_increment``).  The amplified coordinate grows like
    exp(+gamma t / 2m); overflow of that envelope raises IntegrationError,
    as do NaNs.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    step_t = _rk4_increment(params, dt).T
    nsteps = int(round(t_end / dt))
    states = np.empty((nsteps + 1, 4))
    times = np.arange(nsteps + 1) * dt
    s = init.as_array()
    states[0] = s
    # overflow shows up as non-finite state entries and is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, nsteps + 1):
            s = s + s @ step_t
            states[i] = s
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
    """Central-difference check of m x'' + gamma x' + k x and m y'' - gamma y' + k y."""
    if len(traj.times) < 5:
        raise ValueError("need at least 5 samples for the residual check")
    dt = float(traj.times[1] - traj.times[0])
    params = traj.params
    m, g, k = float(params.m), float(params.gamma), float(params.k_spring)
    samples = traj.phase_arrays()
    x, y = samples.x, samples.y
    # velocities from the momenta (exact relations, no differencing error)
    xdot, ydot = samples.velocities(params)

    def second(u: np.ndarray) -> np.ndarray:
        return (u[2:] - 2 * u[1:-1] + u[:-2]) / (dt * dt)

    rx = m * second(x) + g * xdot[1:-1] + k * x[1:-1]
    ry = m * second(y) - g * ydot[1:-1] + k * y[1:-1]
    return EomResiduals(float(np.max(np.abs(rx))), float(np.max(np.abs(ry))))


@dataclass(frozen=True)
class HamiltonianConsistency:
    """Pointwise gap between the two Hamiltonian forms, and conservation drift."""

    max_form_gap: float
    max_drift: float
    initial_energy: float


def hamiltonian_consistency(traj: Trajectory) -> HamiltonianConsistency:
    """Gap between the two energy forms along the trajectory, and the drift.

    The rotated form is a difference of terms quadratic in the amplified
    coordinate, which grows like exp(+gamma t / 2m); when either form leaves
    the float range this raises IntegrationError.
    """
    if len(traj.times) < 2:
        raise ValueError("need at least 2 samples")
    samples = traj.phase_arrays()
    # overflow shows up as non-finite energies and is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        energies = hamiltonian_mixed(samples, traj.params)
        rotated = hamiltonian_rotated(rotate(samples), traj.params)
    if not (np.isfinite(energies).all() and np.isfinite(rotated).all()):
        raise IntegrationError("an energy form left the representable range along the trajectory")
    gap = float(np.max(np.abs(energies - rotated)))
    drift = float(np.max(np.abs(energies - energies[0])))
    return HamiltonianConsistency(gap, drift, float(energies[0]))


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
