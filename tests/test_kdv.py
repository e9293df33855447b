import numpy as np
import pytest

from mstl import domain, forward, kdv, solitons
from mstl.domain import RhoGrid, SpaceGrid, ValidationError


def one_soliton_states(weight=2.0):
    return [(1.0, np.array([[weight + 0j]]))]


def test_evolve_identity_at_t0():
    grid = SpaceGrid.from_bounds(-8.0, 8.0, 0.02)
    traj = kdv.soliton_trajectory(one_soliton_states(), [0.0], grid)
    ref = solitons.separable_glm_solve(one_soliton_states(), grid)
    assert np.array_equal(traj.potentials[0].values, ref.values)


def test_evolve_weight_growth():
    # the weight grows by exp(8 tau^3 t), here e^4, and tau stays
    grid = SpaceGrid.from_bounds(-8.0, 8.0, 0.02)
    traj = kdv.soliton_trajectory(one_soliton_states(), [0.5], grid)
    ref = solitons.separable_glm_solve(one_soliton_states(2.0 * np.exp(4.0)), grid)
    assert np.abs(traj.potentials[0].values - ref.values).max() < 1e-12


def test_evolve_overflow_guard():
    # exp(8 tau^3 t) = e^800 overflows a float; the weight's log scale still
    # puts the soliton at its centre 4 tau^2 t = 400
    grid = SpaceGrid.from_bounds(390.0, 410.0, 0.02)
    traj = kdv.soliton_trajectory(one_soliton_states(), [100.0], grid)
    exact = -2.0 / np.cosh(grid.xs - 400.0) ** 2
    assert np.abs(traj.potentials[0].values[:, 0, 0] - exact).max() < 1e-10


def test_soliton_center_moves_at_4_tau_squared():
    grid = SpaceGrid.from_bounds(-8.0, 20.0, 0.02)
    traj = kdv.soliton_trajectory(one_soliton_states(), [0.0, 0.5, 1.0], grid)
    c0 = kdv.estimate_center(traj.potentials[0])
    c1 = kdv.estimate_center(traj.potentials[2])
    assert c0 == pytest.approx(0.0, abs=1e-6)
    assert c1 == pytest.approx(4.0, rel=0.01)


def test_projector_direction_is_constant_in_time():
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    proj = np.outer(v, v.conj())
    grid = SpaceGrid.from_bounds(-8.0, 20.0, 0.02)
    traj = kdv.soliton_trajectory([(1.0, 2.0 * proj)], [0.0, 1.0], grid)
    for pot in traj.potentials:
        j = int(np.argmax(np.abs(pot.values).max(axis=(1, 2))))
        peak = pot.values[j]
        peak = peak / np.trace(peak)
        assert np.abs(peak - proj).max() < 1e-8


def test_two_solitons_separate_with_speeds_4_and_16():
    states = [(1.0, np.array([[2.0 + 0j]])), (2.0, np.array([[8.0 + 0j]]))]
    grid = SpaceGrid.from_bounds(-6.0, 46.0, 0.02)
    t0, t1 = 2.0, 2.5
    traj = kdv.soliton_trajectory(states, [t0, t1], grid)

    def centers(potential):
        q = potential.values[:, 0, 0].real
        xs = potential.grid.xs
        slow = xs < 0.5 * (4 * t0 + 16 * t0)
        cs = []
        for mask in (slow, ~slow):
            j = np.argmin(np.where(mask, q, np.inf))
            cs.append(xs[j])
        return cs

    c_slow = [centers(p)[0] for p in traj.potentials]
    c_fast = [centers(p)[1] for p in traj.potentials]
    speed_slow = (c_slow[1] - c_slow[0]) / (t1 - t0)
    speed_fast = (c_fast[1] - c_fast[0]) / (t1 - t0)
    assert speed_slow == pytest.approx(4.0, rel=0.05)
    assert speed_fast == pytest.approx(16.0, rel=0.05)


def test_kdv_residual_zero_trajectory():
    grid = SpaceGrid.from_bounds(-2.0, 2.0, 0.1)
    zero = domain.zero_potential(grid)
    traj = kdv.KdVTrajectory(times=(0.0, 0.1, 0.2), potentials=(zero, zero, zero))
    assert kdv.kdv_residual(traj, 1) == 0.0


def residual_at(dx, dt, t0=0.2):
    grid = SpaceGrid.from_bounds(-8.0, 10.0, dx)
    traj = kdv.soliton_trajectory(one_soliton_states(), [t0 - dt, t0, t0 + dt], grid)
    return traj, kdv.kdv_residual(traj, 1)


def test_kdv_residual_small_and_second_order():
    traj, r1 = residual_at(0.02, 1e-3)
    terms = kdv.pde_terms(traj, 1)
    scale = max(np.abs(terms["q_t"]).max(), np.abs(terms["nonlinear"]).max(),
                np.abs(terms["q_xxx"]).max())
    assert r1 <= 0.02 * scale
    _, r2 = residual_at(0.01, 5e-4)
    assert r1 / r2 == pytest.approx(4.0, rel=0.25)


def test_pde_terms_arity_guard():
    grid = SpaceGrid.from_bounds(-2.0, 2.0, 0.1)
    zero = domain.zero_potential(grid)
    traj = kdv.KdVTrajectory(times=(0.0, 0.1), potentials=(zero, zero))
    with pytest.raises(ValidationError):
        kdv.pde_terms(traj, 1)


def test_isospectrality_under_evolution():
    grid = SpaceGrid.from_bounds(-8.0, 20.0, 0.02)
    traj = kdv.soliton_trajectory(one_soliton_states(), [0.0, 1.0], grid)
    ((tau, _),) = forward.find_bound_states(traj.potentials[1])
    assert abs(tau - 1.0) <= 1e-3
    # reflectionless stays reflectionless
    coeffs = forward.scattering_coefficients(traj.potentials[1], RhoGrid(6.0, 64))
    _, s_plus = forward.reflection_matrices(coeffs)
    assert np.abs(s_plus).max() <= 1e-3
