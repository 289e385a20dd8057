import io
import math
import tracemalloc
import warnings
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bateman import classical
from bateman.classical import (
    CSV_BLOCK_ROWS,
    ROTATION_B,
    BatemanParams,
    IntegrationError,
    PhaseState,
    Trajectory,
    eom_residual,
    forms_agree,
    hamiltonian_consistency,
    hamiltonian_mixed,
    integrate_eom,
    mixed_form,
    motion_matrix,
    rotated_form,
    trajectory_csv,
    underdamped_solution,
)
from bateman.cli import DRIFT_ORDER_STEPS

_SQRT2 = math.sqrt(2.0)


def default_params():
    return BatemanParams.from_omega(1, Fraction(1, 5), 1)


def damped_analytic(params, x0, v0, t):
    """Closed-form solution of m x'' + gamma x' + k x = 0 (underdamped)."""
    g = float(params.gamma)
    m = float(params.m)
    w = params.omega
    c2 = (v0 + g * x0 / (2 * m)) / w
    return np.exp(-g * t / (2 * m)) * (x0 * np.cos(w * t) + c2 * np.sin(w * t))


def amplified_analytic(params, y0, v0, t):
    g = float(params.gamma)
    m = float(params.m)
    w = params.omega
    c2 = (v0 - g * y0 / (2 * m)) / w
    return np.exp(g * t / (2 * m)) * (y0 * np.cos(w * t) + c2 * np.sin(w * t))


def rk4_oracle(params, init, t_end, dt):
    """Explicit four-stage RK4 on Hamilton's equations of the mixed form."""
    m, g, k = float(params.m), float(params.gamma), float(params.k_spring)
    c = k - g * g / (4 * m)

    def rhs(s):
        x, y, px, py = s
        return np.array(
            [
                py / m - (g / (2 * m)) * x,
                px / m + (g / (2 * m)) * y,
                (g / (2 * m)) * px - c * y,
                -(g / (2 * m)) * py - c * x,
            ]
        )

    nsteps = int(round(t_end / dt))
    states = np.empty((nsteps + 1, 4))
    s = np.asarray(init.as_array())
    states[0] = s
    for i in range(1, nsteps + 1):
        k1 = rhs(s)
        k2 = rhs(s + 0.5 * dt * k1)
        k3 = rhs(s + 0.5 * dt * k2)
        k4 = rhs(s + dt * k3)
        s = s + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states[i] = s
    return states


def rotate(state):
    """The orthogonal rotation x1, x2 = (x +- y)/sqrt2, with the same rotation
    of the momenta, written out by hand; it is its own inverse."""
    return PhaseState(
        (state.x + state.y) / _SQRT2,
        (state.x - state.y) / _SQRT2,
        (state.px + state.py) / _SQRT2,
        (state.px - state.py) / _SQRT2,
    )


def hamiltonian_rotated(rotated_state, params):
    """The rotated-form energy expanded by hand; the state fields are read as
    (x1, x2, p1, p2)."""
    m, g = float(params.m), float(params.gamma)
    w2 = float(params.omega2)
    x1, x2, p1, p2 = rotated_state.x, rotated_state.y, rotated_state.px, rotated_state.py
    return (
        p1 * p1 / (2 * m)
        + 0.5 * m * w2 * x1 * x1
        - p2 * p2 / (2 * m)
        - 0.5 * m * w2 * x2 * x2
        - (g / (2 * m)) * (p1 * x2 + p2 * x1)
    )


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        BatemanParams(0, 1, 1)
    with pytest.raises(ValueError):
        BatemanParams(1, -1, 1)
    with pytest.raises(ValueError):
        BatemanParams(1, 1, 0)
    with pytest.raises(ValueError):
        BatemanParams(1, 10, 1)  # overdamped


@pytest.mark.parametrize("mass", [0, -1])
def test_from_omega_rejects_non_positive_mass(mass):
    # the mass is checked before k = m omega^2 + gamma^2 / 4m divides by it
    with pytest.raises(ValueError, match="mass must be positive"):
        BatemanParams.from_omega(mass, Fraction(1, 5), 1)


def test_params_omega_derivation():
    p = BatemanParams.from_omega(1, Fraction(1, 5), 1)
    assert p.k_spring == Fraction(101, 100)
    assert p.omega2 == 1
    assert p.rational_omega == 1
    q = BatemanParams(1, 0, 2)
    assert q.rational_omega is None
    assert math.isclose(q.omega, math.sqrt(2))


def test_params_omega2_never_stale():
    p = BatemanParams(2, Fraction(1, 2), 3)
    assert p.omega2 == Fraction(3, 2) - Fraction(1, 64)


# ---------------------------------------------------------------------------
# momenta and rotation bookkeeping
# ---------------------------------------------------------------------------

def test_velocity_round_trip():
    p = default_params()
    state = PhaseState.from_velocities(p, 0.3, -0.7, 1.1, 0.25)
    xdot, ydot = state.velocities(p)
    assert math.isclose(xdot, -0.7) and math.isclose(ydot, 0.25)


def test_momenta_couple_to_the_other_coordinate():
    p = default_params()
    state = PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=0.0, ydot=0.0)
    # p_y = m x' + gamma x / 2 = 0.1; p_x = m y' - gamma y / 2 = 0
    assert math.isclose(state.py, 0.1)
    assert state.px == 0.0


def test_rotation_is_involutive():
    s = PhaseState(0.2, -1.3, 0.7, 0.05)
    twice = rotate(rotate(s))
    for a, b in zip(s.as_array(), twice.as_array()):
        assert math.isclose(a, b, abs_tol=1e-15)


def test_hamiltonian_forms_agree_pointwise():
    # the hand-expanded rotated form, an independent float oracle for 1/2 s^T Q s
    p = default_params()
    for vals in ((1.0, 0.5, -0.2, 0.3), (0.0, 2.0, 1.0, -1.0), (-0.4, 0.1, 0.0, 0.9)):
        s = PhaseState(*vals)
        assert abs(hamiltonian_mixed(s, p) - hamiltonian_rotated(rotate(s), p)) < 1e-12


def test_mixed_energy_is_the_hand_expanded_mixed_form():
    p = BatemanParams.from_omega(Fraction(3, 2), Fraction(2, 5), 2)
    m, g, k = float(p.m), float(p.gamma), float(p.k_spring)
    for vals in np.random.default_rng(1).normal(size=(5, 4)):
        x, y, px, py = vals
        expected = px * py / m + (g / (2 * m)) * (y * py - x * px) + (k - g * g / (4 * m)) * x * y
        assert math.isclose(hamiltonian_mixed(PhaseState(*vals), p), expected, rel_tol=1e-12)


_rationals = st.fractions(min_value=Fraction(1, 10), max_value=6, max_denominator=12)


@given(_rationals, _rationals | st.just(Fraction(0)), _rationals, _rationals)
@settings(max_examples=60, deadline=None)
def test_forms_agree_for_random_rationals(m, gamma, omega, omega2):
    # the k_spring route gives an irrational omega for most draws
    via_spring = BatemanParams(m, gamma, gamma**2 / (4 * m) + omega2)
    for p in (BatemanParams.from_omega(m, gamma, omega), via_spring):
        assert forms_agree(p)
        for q in (mixed_form(p), rotated_form(p)):
            assert all(q[i][j] == q[j][i] for i in range(4) for j in range(4))


def test_rotation_matrix_squares_to_twice_the_identity():
    assert classical._matmul(ROTATION_B, ROTATION_B) == tuple(
        tuple(2 * (i == j) for j in range(4)) for i in range(4)
    )
    assert all(ROTATION_B[i][j] == ROTATION_B[j][i] for i in range(4) for j in range(4))


@pytest.mark.parametrize("row, col", [(0, 3), (1, 2), (1, 1)])
def test_forms_agree_catches_one_wrong_entry(row, col, monkeypatch):
    p = default_params()
    good = rotated_form(p)

    def flipped(params):
        rows = [list(r) for r in good]
        rows[row][col] = -rows[row][col]
        return tuple(map(tuple, rows))

    monkeypatch.setattr(classical, "rotated_form", flipped)
    assert not forms_agree(p)


def test_motion_matrix_preserves_the_mixed_form():
    # M = Omega Q with Q symmetric, so M^T Q + Q M = Q Omega^T Q + Q Omega Q = 0
    p = BatemanParams(Fraction(3, 2), Fraction(7, 3), 5)
    q, mm = mixed_form(p), motion_matrix(p)
    mt = tuple(zip(*mm))
    lhs = classical._matmul(mt, q)
    rhs = classical._matmul(q, mm)
    assert all(lhs[i][j] + rhs[i][j] == 0 for i in range(4) for j in range(4))


def test_gamma_zero_energy_is_oscillator_difference():
    p = BatemanParams.from_omega(1, 0, 1)
    s = PhaseState(*np.random.default_rng(0).normal(size=4))
    rs = rotate(s)
    e1 = rs.px**2 / 2 + rs.x**2 / 2
    e2 = rs.py**2 / 2 + rs.y**2 / 2
    assert math.isclose(hamiltonian_mixed(s, p), e1 - e2, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_simple_harmonic_limit():
    p = BatemanParams.from_omega(1, 0, 1)
    init = PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=0.0, ydot=0.0)
    traj = integrate_eom(p, init, t_end=10.0, dt=1e-3)
    err = np.max(np.abs(np.asarray(traj.states[0]) - np.cos(traj.times)))
    assert err < 1e-6


def test_damped_solution_matches_analytic_envelope():
    p = default_params()
    init = PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=0.5, ydot=0.0)
    traj = integrate_eom(p, init, t_end=10.0, dt=1e-3)
    xa = damped_analytic(p, 1.0, 0.0, np.asarray(traj.times))
    assert np.max(np.abs(np.asarray(traj.states[0]) - xa)) < 1e-5


def test_amplified_partner_grows():
    p = default_params()
    init = PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=0.5, ydot=0.0)
    traj = integrate_eom(p, init, t_end=10.0, dt=1e-3)
    ya = amplified_analytic(p, 0.5, 0.0, np.asarray(traj.times))
    y = np.asarray(traj.states[1])
    assert np.max(np.abs(y - ya)) < 1e-5
    # envelope comparison: growth by e^{gamma t / 2m} over the run
    head = np.max(np.abs(y[:100]))
    tail = np.max(np.abs(y[-100:]))
    assert tail / head > math.exp(0.1 * 10.0) * 0.5


# (m, gamma, omega): the reference setup and three others with omega up to 2
SETUPS = [
    (1, Fraction(1, 5), 1),
    (1, Fraction(1, 10), 1),
    (Fraction(3, 2), Fraction(2, 5), 2),
    (Fraction(5, 4), Fraction(3, 10), Fraction(3, 2)),
]


@pytest.mark.parametrize("m, gamma, omega", SETUPS[::2])
def test_propagator_matches_four_stage_oracle(m, gamma, omega):
    p = BatemanParams.from_omega(m, gamma, omega)
    init = PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=0.5, ydot=0.0)
    traj = integrate_eom(p, init, t_end=10.0, dt=1e-3)
    oracle = rk4_oracle(p, init, 10.0, 1e-3)
    states = np.column_stack(traj.states)
    assert states.shape == (10001, 4)
    assert np.max(np.abs(states - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("dt", [1e-3, 2e-2])
@pytest.mark.parametrize("m, gamma, omega", [*SETUPS, (1, 2, 1), (1, 60, 1)])
def test_block_step_equals_the_full_matrix_step(m, gamma, omega, dt):
    # the reference adds D s to s over all 16 entries of D, in plain floats,
    # in column order; the zero entries add nothing, so the states are equal
    p = BatemanParams.from_omega(m, gamma, omega)
    init = PhaseState.from_velocities(p, x=1.0, xdot=0.3, y=0.5, ydot=-0.2)
    traj = integrate_eom(p, init, t_end=2.0, dt=dt)
    # D from its (x, p_y) and (y, p_x) blocks, zero elsewhere
    d = [[0.0] * 4 for _ in range(4)]
    for block, entries in zip(((0, 3), (1, 2)), classical._rk4_increment(p, dt)):
        for i, row in zip(block, entries):
            for j, v in zip(block, row):
                d[i][j] = v
    s = [float(v) for v in init]
    for row in zip(*traj.states):
        assert list(row) == s
        s = [u + sum(dij * v for dij, v in zip(di, s)) for u, di in zip(s, d)]


@pytest.mark.parametrize("m, gamma, omega", SETUPS)
def test_energy_drift_stays_at_rounding_floor(m, gamma, omega):
    # stepping with s @ P^T instead of adding the increment accumulates the
    # rounding of P's diagonal coherently (drift 1.4e-13 to 2.1e-12 here)
    p = BatemanParams.from_omega(m, gamma, omega)
    init = PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=0.5, ydot=0.0)
    traj = integrate_eom(p, init, t_end=10.0, dt=1e-3)
    assert hamiltonian_consistency(traj).max_drift < 1e-13


def test_underdamped_solution_matches_test_closed_forms():
    p = BatemanParams.from_omega(Fraction(5, 4), Fraction(3, 10), Fraction(3, 2))
    init = PhaseState.from_velocities(p, x=1.0, xdot=-0.3, y=0.5, ydot=0.2)
    t = np.linspace(0.0, 10.0, 101)
    x, y = underdamped_solution(p, init, t)
    assert np.allclose(x, damped_analytic(p, 1.0, -0.3, t), rtol=1e-13, atol=1e-13)
    assert np.allclose(y, amplified_analytic(p, 0.5, 0.2, t), rtol=1e-13, atol=1e-13)


def test_closed_form_overflow_raises_integration_error():
    # e^(gamma t / 2m) = e^1000 at t = 10 is past the float range
    p = BatemanParams.from_omega(1, 200, 1)
    with pytest.raises(IntegrationError, match="closed-form"):
        underdamped_solution(p, PhaseState(1.0, 1.0, 0.0, 0.0), [0.0, 10.0])


def test_integration_validation():
    p = default_params()
    init = PhaseState(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        integrate_eom(p, init, t_end=0.0, dt=1e-3)
    with pytest.raises(ValueError):
        integrate_eom(p, init, t_end=1.0, dt=-1e-3)


def test_integration_detects_overflow():
    # a grossly unstable step makes RK4 blow past the float range; the
    # amplified mode may grow, but non-finite values must raise
    p = BatemanParams.from_omega(1, Fraction(1, 2), 10)
    init = PhaseState(1.0, 1.0, 1.0, 1.0)
    # the error names the first step at which the four-stage loop is non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = rk4_oracle(p, init, 1000.0, 5.0)
    first = int(np.argmin(np.isfinite(oracle).all(axis=1)))
    assert first > 0
    with pytest.raises(IntegrationError, match=f"at t={5.0 * first:g}$"):
        integrate_eom(p, init, t_end=1000.0, dt=5.0)


def test_energy_overflow_raises_without_warnings():
    # finite states whose energy terms are not: their sum would be NaN
    p = default_params()
    traj = Trajectory(array("d", [0.0, 1e-3]), tuple(array("d", [1e200] * 2) for _ in range(4)), p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="energy"):
            hamiltonian_consistency(traj)


def test_residual_overflow_raises_without_warnings():
    # at gamma/2m = 70 the trajectory stays finite to t = 10, but the second
    # difference of the amplified coordinate, divided by dt^2, does not
    p = BatemanParams.from_omega(1, 140, 1)
    traj = integrate_eom(p, PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=0.5, ydot=0.0), 10.0)
    assert np.isfinite(np.column_stack(traj.states)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="residual"):
            eom_residual(traj)


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

def test_eom_residuals_small_on_integrated_trajectory():
    p = default_params()
    init = PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=0.5, ydot=0.0)
    traj = integrate_eom(p, init, t_end=10.0, dt=1e-3)
    res = eom_residual(traj)
    assert res.damped < 1e-4
    assert res.amplified < 1e-4


def test_eom_residuals_gamma_zero():
    p = BatemanParams.from_omega(1, 0, 1)
    init = PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=1.0, ydot=0.0)
    traj = integrate_eom(p, init, t_end=10.0, dt=1e-3)
    res = eom_residual(traj)
    assert res.damped < 1e-5 and res.amplified < 1e-5


def test_corrupted_trajectory_detected():
    # scale the damped coordinate: the velocity comes from the momenta, so
    # the detector sees the mismatch (amplitude chosen to clear the bar)
    p = default_params()
    init = PhaseState.from_velocities(p, x=10.0, xdot=0.0, y=5.0, ydot=0.0)
    traj = integrate_eom(p, init, t_end=10.0, dt=1e-3)
    bad = np.column_stack(traj.states)
    bad[:, 0] *= 1.01
    res = eom_residual(Trajectory(traj.times, tuple(array("d", col) for col in bad.T), p))
    assert res.damped > 1e-2


def test_eom_residual_needs_samples():
    p = default_params()
    traj = integrate_eom(p, PhaseState(1, 0, 0, 0), t_end=3e-3, dt=1e-3)
    with pytest.raises(ValueError):
        eom_residual(traj)


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------

def test_energy_forms_agree_along_trajectory():
    p = default_params()
    assert forms_agree(p)
    init = PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=0.5, ydot=0.0)
    traj = integrate_eom(p, init, t_end=10.0, dt=1e-3)
    rotated = hamiltonian_rotated(rotate(PhaseState(*map(np.asarray, traj.states))), p)
    assert np.max(np.abs(np.asarray(traj.energies) - rotated)) < 1e-12


def test_energy_drift_small_and_fourth_order():
    p = default_params()
    init = PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=0.5, ydot=0.0)
    drift = hamiltonian_consistency(integrate_eom(p, init, 10.0, 1e-3)).max_drift
    assert drift < 1e-7
    # measure the order where truncation, not rounding, sets the drift: RK4
    # changes the energy of this linear system by O(dt^6) per step, so the
    # drift over a fixed time is O(dt^5) and halving the step divides it by 32
    coarse, fine = (
        hamiltonian_consistency(integrate_eom(p, init, 10.0, dt)).max_drift
        for dt in DRIFT_ORDER_STEPS
    )
    assert abs(coarse / fine - 32.0) < 1.0


def csv_text(traj):
    """The trajectory CSV that ``trajectory_csv`` writes, as one string."""
    out = io.StringIO()
    trajectory_csv(traj, out)
    return out.getvalue()


def test_trajectory_csv_columns():
    p = default_params()
    traj = integrate_eom(p, PhaseState(1.0, 0.0, 0.0, 0.1), t_end=0.01, dt=1e-3)
    lines = csv_text(traj).strip().splitlines()
    assert lines[0] == "t,x,y,p_x,p_y,H"
    assert len(lines) == len(traj.times) + 1
    assert len(lines[1].split(",")) == 6


def test_trajectory_csv_cells_are_floats():
    # every cell is a plain number that reads back as the exact sample
    p = default_params()
    traj = integrate_eom(p, PhaseState(1.0, 0.0, 0.0, 0.1), t_end=0.05, dt=1e-3)
    rows = [line.split(",") for line in csv_text(traj).splitlines()[1:]]
    energies = traj.energies
    states = np.column_stack(traj.states)
    assert len(rows) == len(traj.times)
    for i, row in enumerate(rows):
        values = [float(cell) for cell in row]
        expected = [traj.times[i], *states[i], energies[i]]
        assert values == expected
        assert all(math.copysign(1.0, v) == math.copysign(1.0, e) for v, e in zip(values, expected))


def _single_pass_csv(traj):
    """The trajectory CSV built in one pass, one f-string per row."""
    lines = ["t,x,y,p_x,p_y,H"]
    energies = traj.energies
    states = np.column_stack(traj.states)
    for t, (x, y, px, py), h in zip(traj.times.tolist(), states.tolist(), energies.tolist()):
        lines.append(f"{t!r},{x!r},{y!r},{px!r},{py!r},{h!r}")
    return "\n".join(lines) + "\n"


def test_block_built_csv_equals_single_pass():
    # the default CLI trajectory (10 001 rows) and row counts around one block
    p = default_params()
    init = PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=0.5, ydot=0.0)
    traj = integrate_eom(p, init, t_end=10.0, dt=1e-3)
    assert len(traj.times) == 10_001
    assert csv_text(traj) == _single_pass_csv(traj)
    for rows in (1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1):
        part = Trajectory(traj.times[:rows], tuple(col[:rows] for col in traj.states), p)
        assert csv_text(part) == _single_pass_csv(part)
        assert csv_text(part).count("\n") == rows + 1


def test_writing_the_csv_holds_no_whole_file(tmp_path):
    # the default 10 001-row trajectory makes a 1.06 MB file; writing it
    # keeps one block of rows alive, never the whole text
    p = default_params()
    init = PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=0.5, ydot=0.0)
    traj = integrate_eom(p, init, t_end=10.0, dt=1e-3)
    path = tmp_path / "trajectory.csv"

    def write():
        with open(path, "w") as out:
            trajectory_csv(traj, out)

    write()
    tracemalloc.start()
    try:
        write()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 10**6
    assert peak < 500_000, peak


def test_pointwise_error_is_fourth_order():
    # RK4's global error in x(t), y(t) is O(dt^4): halving the step divides it by 16
    p = default_params()
    init = PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=0.5, ydot=0.0)
    errors = []
    for dt in DRIFT_ORDER_STEPS:
        traj = integrate_eom(p, init, 10.0, dt)
        x_exact, y_exact = underdamped_solution(p, init, traj.times)
        errors.append((
            np.max(np.abs(np.asarray(traj.states[0]) - x_exact)),
            np.max(np.abs(np.asarray(traj.states[1]) - y_exact)),
        ))
    (coarse_x, coarse_y), (fine_x, fine_y) = errors
    assert abs(coarse_x / fine_x - 16.0) < 0.5
    assert abs(coarse_y / fine_y - 16.0) < 0.5
