import numpy as np
import pytest

from mstl import domain, forward, solitons
from mstl.domain import (
    ContourGeometryError,
    RhoGrid,
    SpaceGrid,
    ValidationError,
    matrix_operator_norm,
)
from tests.conftest import box_oracle, box_oracle_field


@pytest.fixture(scope="module")
def zero_pot():
    return domain.zero_potential(SpaceGrid.from_bounds(-4.0, 4.0, 0.02), dim=2)


def test_jost_zero_potential_plus(zero_pot):
    field = forward.jost_solution(zero_pot, 1.0, "plus")
    expect = np.exp(1j * zero_pot.grid.xs)[:, None, None] * np.eye(2)
    assert np.abs(field.F - expect).max() < 1e-12


def test_jost_zero_potential_minus_imaginary(zero_pot):
    field = forward.jost_solution(zero_pot, 1.0j, "minus")
    expect = np.exp(zero_pot.grid.xs)[:, None, None] * np.eye(2)
    assert np.abs(field.F - expect).max() < 1e-10


def test_jost_rejects_lower_half_plane(zero_pot):
    with pytest.raises(ValidationError):
        forward.jost_solution(zero_pot, 1.0 - 0.5j, "plus")


def test_jost_box_field_matches_oracle():
    grid = SpaceGrid.from_bounds(-2.0, 2.0, 0.02)
    box = domain.box_potential(grid)
    field = forward.jost_solution(box, 2.0, "plus")
    expect = box_oracle_field(grid.xs, 2.0)
    assert np.abs(field.F[:, 0, 0] - expect).max() < 1e-10


@pytest.mark.parametrize("direction", ["plus", "minus"])
@pytest.mark.parametrize("rho", [2.0, 0.7j])
@pytest.mark.parametrize(
    "half_width, cell_edge",
    # midpoint sampling rounds an off-node edge to the node of the cell whose
    # midpoint lies inside: 1.005 rounds in, 1.015 rounds out to a nonzero
    # cell whose outer node is zero
    [(1.005, 1.00), (1.015, 1.02)],
)
def test_jost_box_field_off_node_edges(direction, rho, half_width, cell_edge):
    grid = SpaceGrid.from_bounds(-2.0, 2.0, 0.02)
    box = domain.box_potential(grid, half_width=half_width)
    field = forward.jost_solution(box, rho, direction)
    # the box is even, so the minus field is the plus field at -x
    xs = grid.xs if direction == "plus" else -grid.xs
    expect = box_oracle_field(xs, rho, half_width=cell_edge)
    assert np.abs(field.F[:, 0, 0] - expect).max() < 1e-10 * np.abs(expect).max()


def test_jost_pde_residual_small():
    grid = SpaceGrid.from_bounds(-8.0, 8.0, 0.02)
    bump = domain.bump_potential(grid)
    field = forward.jost_solution(bump, 2.0, "plus")
    f = field.F
    # second-difference consistency with the node-sampled equation, O(dx^2)
    lap = (f[2:] - 2 * f[1:-1] + f[:-2]) / grid.dx**2
    resid = -lap + bump.values[1:-1] @ f[1:-1] - 4.0 * f[1:-1]
    assert np.abs(resid).max() < 3e-3 * np.abs(f).max()


def test_jost_zero_energy_computable(zero_pot):
    field = forward.jost_solution(zero_pot, 0.0, "minus")
    assert np.abs(field.F - np.eye(2)).max() < 1e-12


def test_wronskian_zero_potential():
    pot = domain.zero_potential(SpaceGrid.from_bounds(-3.0, 3.0, 0.05))
    f_plus = forward.jost_solution(pot, 1.0, "plus")
    f_plus_neg = forward.jost_solution(pot, -1.0 + 0j, "plus")
    # the row solution at rho is the conjugate transpose of the column at -rho,
    # so the same-argument bracket at rho = 1 takes (row from -1, column at +1)
    same, spread = forward.wronskian_bracket(f_plus_neg, f_plus, return_spread=True)
    assert np.abs(same).max() < 1e-12 and spread < 1e-12
    # crossed arguments (row at +1, column at -1) give +2 i rho; both build
    # from the plus field computed at -1
    cross = forward.wronskian_bracket(f_plus_neg, f_plus_neg)
    assert np.abs(cross - 2j * np.eye(1)).max() < 1e-12


def test_wronskian_box_constancy():
    grid = SpaceGrid.from_bounds(-2.0, 2.0, 0.02)
    box = domain.box_potential(grid)
    y = forward.jost_solution(box, 2.0, "plus")
    z = forward.jost_solution(box, -2.0 + 0j, "minus")
    value, spread = forward.wronskian_bracket(z, y, return_spread=True)
    assert spread <= 1e-6 * (1.0 + np.abs(value).max())


def test_coefficients_zero_potential(zero_pot):
    rg = RhoGrid(8.0, 32)
    coeffs = forward.scattering_coefficients(zero_pot, rg)
    assert np.abs(coeffs.A - np.eye(2)).max() < 1e-12
    assert np.abs(coeffs.D - np.eye(2)).max() < 1e-12
    assert np.abs(coeffs.B).max() < 1e-12
    assert np.abs(coeffs.C).max() < 1e-12


@pytest.mark.parametrize("seed", [7, 21])
def test_coefficient_identities_random(seed):
    grid = SpaceGrid.from_bounds(-6.0, 6.0, 0.02)
    pot = domain.random_potential(grid, dim=2, seed=seed)
    rg = RhoGrid(12.0, 128)
    c = forward.scattering_coefficients(pot, rg)
    flip = slice(None, None, -1)
    herm = lambda a: a.conj().transpose(0, 2, 1)
    eye = np.eye(2)
    assert np.abs(herm(c.A) @ c.A - eye - herm(c.B) @ c.B).max() < 1e-10
    assert np.abs(herm(c.B[flip]) @ c.A - herm(c.A[flip]) @ c.B).max() < 1e-10
    assert np.abs(c.A - herm(c.D[flip])).max() < 1e-12
    assert np.abs(c.B + herm(c.C)).max() < 1e-12


def test_box_coefficients_match_oracle(box_setup, box_forward):
    _, _, rho_grid = box_setup
    a_or, b_or = box_oracle(rho_grid.nodes)
    coeffs = box_forward.coefficients
    assert np.abs(coeffs.A[:, 0, 0] - a_or).max() < 1e-9
    assert np.abs(coeffs.B[:, 0, 0] - b_or).max() < 1e-9


def test_box_reflection_matches_oracle(box_setup, box_forward):
    _, _, rho_grid = box_setup
    a_or, b_or = box_oracle(rho_grid.nodes)
    d_or = np.conj(a_or[::-1])
    s_plus_or = -np.conj(b_or) / d_or
    assert np.abs(box_forward.j_plus.S[:, 0, 0] - s_plus_or).max() < 1e-9
    assert np.abs(box_forward.j_minus.S[:, 0, 0] - b_or / a_or).max() < 1e-9


def test_reflection_norm_and_unitarity_identity(box_forward):
    s_minus = box_forward.j_minus.S
    a = box_forward.coefficients.A
    norms = np.linalg.svd(s_minus, compute_uv=False)[:, 0]
    assert norms.max() < 1.0
    # S_-^* S_- = I - (A^*)^{-1} A^{-1}
    herm = lambda v: v.conj().transpose(0, 2, 1)
    lhs = herm(s_minus) @ s_minus
    rhs = np.eye(1) - np.linalg.inv(a @ herm(a))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_reflectionless_potential_has_tiny_reflection():
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.005)
    pot = solitons.separable_glm_solve([(1.0, np.array([[2.0 + 0j]]))], "right", grid)
    coeffs = forward.scattering_coefficients(pot, RhoGrid(8.0, 64))
    _, s_plus = forward.reflection_matrices(coeffs)
    assert np.abs(s_plus).max() <= 1e-4


def test_asymptotics_omega():
    grid = SpaceGrid.from_bounds(-8.0, 8.0, 0.02)
    bump = domain.bump_potential(grid)
    asym = forward.jost_asymptotics(bump)
    assert np.abs(asym.omega - 0.5 * bump.total_integral()).max() < 1e-12
    # both one-sided integrals reach -omega at the far end of the grid
    assert np.abs(asym.omega_minus[-1] + asym.omega).max() < 1e-12
    assert np.abs(asym.omega_plus[0] + asym.omega).max() < 1e-12
    assert np.abs(asym.omega - asym.omega.conj().T).max() < 1e-12


def test_find_bound_states_zero(zero_pot):
    assert forward.find_bound_states(zero_pot, 5.0) == []


def test_find_bound_states_sech_well():
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0)
    taus = forward.find_bound_states(well, 5.0)
    assert len(taus) == 1
    assert abs(taus[0] - 1.0) < 1e-3


def test_residue_matrix_sech_well():
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0)
    (tau,) = forward.find_bound_states(well, 5.0)
    res = forward.residue_matrix(well, tau)
    assert abs(res.R_minus[0, 0] - 2.0j) < 5e-3
    assert np.abs(res.R_minus + res.R_plus.conj().T).max() < 1e-6
    a_of, _ = forward.coefficient_evaluators(well)
    a_at = a_of(np.array([1j * tau]))[0]
    assert matrix_operator_norm(a_at @ res.R_minus) < 1e-6


def test_residue_contour_geometry_guard():
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.05)
    well = domain.sech_well(grid, tau=1.0)
    with pytest.raises(ContourGeometryError):
        forward.residue_matrix(well, 1.0, contour_radius=1.5)


def test_weights_sech_well():
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0)
    (tau,) = forward.find_bound_states(well, 5.0)
    res = forward.residue_matrix(well, tau)
    n_minus, n_plus = forward.weight_matrices(well, tau, res)
    assert abs(n_plus[0, 0] - 2.0) < 1e-3
    assert abs(n_minus[0, 0] - 2.0) < 1e-3


def test_weights_projector_soliton():
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    proj = np.outer(v, v.conj())
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0, matrix=proj)
    (tau,) = forward.find_bound_states(well, 5.0)
    res = forward.residue_matrix(well, tau)
    n_minus, n_plus = forward.weight_matrices(well, tau, res)
    assert np.abs(n_plus - 2.0 * proj).max() < 2e-3
    assert np.abs(n_plus - n_plus.conj().T).max() < 1e-8
    assert domain.psd_margin(n_plus) > -1e-8
    assert domain.hermitian_rank(n_plus, cutoff=1e-6) == domain.hermitian_rank(n_minus, cutoff=1e-6) == 1


def test_full_forward_zero(zero_pot):
    result = forward.full_forward(zero_pot, RhoGrid(8.0, 32), 5.0)
    assert np.abs(result.j_plus.S).max() < 1e-12
    assert result.j_plus.bound_states == ()
    assert result.j_minus.bound_states == ()


def test_full_forward_one_soliton():
    grid = SpaceGrid.from_bounds(-12.0, 12.0, 0.01)
    pot = solitons.separable_glm_solve([(1.0, np.array([[2.0 + 0j]]))], "right", grid)
    result = forward.full_forward(pot, RhoGrid(8.0, 128), 5.0)
    assert np.abs(result.j_plus.S).max() < 3e-4
    assert len(result.j_plus.bound_states) == 1
    state = result.j_plus.bound_states[0]
    assert abs(state.tau - 1.0) < 1e-4
    assert abs(state.weight[0, 0] - 2.0) < 1e-3
