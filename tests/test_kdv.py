import numpy as np
import pytest

from mstl import domain, forward, kdv
from mstl.domain import RhoGrid, SpaceGrid, ValidationError


def one_soliton_states(weight=2.0):
    return [(1.0, np.array([[weight + 0j]]))]


def test_evolve_identity_at_t0(soliton_data):
    out = kdv.evolve_scattering_data(soliton_data, 0.0)
    assert np.allclose(out.S, soliton_data.S)
    assert out.bound_states[0].weight == pytest.approx(soliton_data.bound_states[0].weight)


def test_evolve_weight_growth(soliton_data):
    out = kdv.evolve_scattering_data(soliton_data, 0.5)
    assert out.bound_states[0].weight[0, 0] == pytest.approx(2.0 * np.exp(4.0))
    assert out.bound_states[0].tau == soliton_data.bound_states[0].tau


def test_evolve_preserves_reflection_modulus(box_forward):
    out = kdv.evolve_scattering_data(box_forward.j_plus, 0.3)
    assert np.abs(np.abs(out.S) - np.abs(box_forward.j_plus.S)).max() < 1e-12


def test_evolve_rejects_left_data(box_forward):
    with pytest.raises(ValidationError):
        kdv.evolve_scattering_data(box_forward.j_minus, 0.1)


def test_evolve_overflow_guard(soliton_data):
    with pytest.raises(ValidationError, match="log scale"):
        kdv.evolve_scattering_data(soliton_data, 1e3)


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
