import numpy as np
import pytest

from mstl import domain, forward, solitons
from mstl.domain import (
    NumericsError,
    RhoGrid,
    SpaceGrid,
    ValidationError,
    matrix_operator_norm,
)
from tests.conftest import box_oracle, box_oracle_field


@pytest.fixture(scope="module")
def zero_pot():
    return domain.zero_potential(SpaceGrid.from_bounds(-4.0, 4.0, 0.02), dim=2)


def _field(potential, rho, direction):
    """Whole-grid Jost field (F, F') at one spectral point, shape (n, m, m) each."""
    f, p = forward._propagate(potential, np.array([rho]), direction, range(potential.grid.n))
    return f[:, 0], p[:, 0]


def _bracket_with_spread(row, column):
    """Bracket of a row field (given as the column field at -conj(rho)) and a
    column field, averaged over the grid, with its RMS spread across x."""
    values = forward._bracket(*row, *column)
    mean = values.mean(axis=0)
    return mean, float(np.sqrt(np.mean(np.abs(values - mean) ** 2)))


def test_jost_zero_potential_plus(zero_pot):
    f, _ = _field(zero_pot, 1.0, "plus")
    expect = np.exp(1j * zero_pot.grid.xs)[:, None, None] * np.eye(2)
    assert np.abs(f - expect).max() < 1e-12


def test_jost_zero_potential_minus_imaginary(zero_pot):
    f, _ = _field(zero_pot, 1.0j, "minus")
    expect = np.exp(zero_pot.grid.xs)[:, None, None] * np.eye(2)
    assert np.abs(f - expect).max() < 1e-10


def test_jost_rejects_lower_half_plane(zero_pot):
    with pytest.raises(ValidationError):
        _field(zero_pot, 1.0 - 0.5j, "plus")


def test_jost_box_field_matches_oracle():
    grid = SpaceGrid.from_bounds(-2.0, 2.0, 0.02)
    box = domain.box_potential(grid)
    f, _ = _field(box, 2.0, "plus")
    expect = box_oracle_field(grid.xs, 2.0)
    assert np.abs(f[:, 0, 0] - expect).max() < 1e-10


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
    f, _ = _field(box, rho, direction)
    # the box is even, so the minus field is the plus field at -x
    xs = grid.xs if direction == "plus" else -grid.xs
    expect = box_oracle_field(xs, rho, half_width=cell_edge)
    assert np.abs(f[:, 0, 0] - expect).max() < 1e-10 * np.abs(expect).max()


def test_jost_pde_residual_small():
    grid = SpaceGrid.from_bounds(-8.0, 8.0, 0.02)
    bump = domain.bump_potential(grid)
    f, _ = _field(bump, 2.0, "plus")
    # second-difference consistency with the node-sampled equation, O(dx^2)
    lap = (f[2:] - 2 * f[1:-1] + f[:-2]) / grid.dx**2
    resid = -lap + bump.values[1:-1] @ f[1:-1] - 4.0 * f[1:-1]
    assert np.abs(resid).max() < 3e-3 * np.abs(f).max()


def test_jost_zero_energy_computable(zero_pot):
    f, _ = _field(zero_pot, 0.0, "minus")
    assert np.abs(f - np.eye(2)).max() < 1e-12


def test_wronskian_zero_potential():
    pot = domain.zero_potential(SpaceGrid.from_bounds(-3.0, 3.0, 0.05))
    f_plus = _field(pot, 1.0, "plus")
    f_plus_neg = _field(pot, -1.0 + 0j, "plus")
    # the row solution at rho is the conjugate transpose of the column at -rho,
    # so the same-argument bracket at rho = 1 takes (row from -1, column at +1)
    same, spread = _bracket_with_spread(f_plus_neg, f_plus)
    assert np.abs(same).max() < 1e-12 and spread < 1e-12
    # crossed arguments (row at +1, column at -1) give +2 i rho; both build
    # from the plus field computed at -1
    cross, _ = _bracket_with_spread(f_plus_neg, f_plus_neg)
    assert np.abs(cross - 2j * np.eye(1)).max() < 1e-12


def test_wronskian_box_constancy():
    grid = SpaceGrid.from_bounds(-2.0, 2.0, 0.02)
    box = domain.box_potential(grid)
    y = _field(box, 2.0, "plus")
    z = _field(box, -2.0 + 0j, "minus")
    value, spread = _bracket_with_spread(z, y)
    assert spread <= 1e-6 * (1.0 + np.abs(value).max())


def _expm_reference(potential, rho, direction):
    """Per-rho Jost field from expm of the first-order system, cell by cell.

    Y = (F, F') solves Y' = [[0, I], [Q_c - rho^2 I, 0]] Y on cell c; the
    field starts as the free wave at the incoming end of the grid.
    """
    from scipy.linalg import expm

    grid, m = potential.grid, potential.m
    eye = np.eye(m)
    sign = 1.0 if direction == "plus" else -1.0
    ikr = sign * 1j * rho
    ys = np.empty((grid.n, 2 * m, m), dtype=complex)
    first = grid.n - 1 if direction == "plus" else 0
    wave = np.exp(ikr * grid.xs[first])
    ys[first] = np.vstack([wave * eye, ikr * wave * eye])
    cells = range(grid.n - 2, -1, -1) if direction == "plus" else range(grid.n - 1)
    zero = np.zeros((m, m))
    for c in cells:
        gen = np.block([[zero, eye], [potential.cell_values[c] - rho**2 * eye, zero]])
        if direction == "plus":
            ys[c] = expm(-grid.dx * gen) @ ys[c + 1]
        else:
            ys[c + 1] = expm(grid.dx * gen) @ ys[c]
    return ys[:, :m], ys[:, m:]


@pytest.mark.parametrize("direction", ["plus", "minus"])
def test_propagate_matches_expm_reference(direction):
    m = 3
    grid = SpaceGrid.from_bounds(-1.0, 1.0, 0.05)
    rng = np.random.default_rng(5)
    g = rng.normal(size=(grid.n - 1, m, m)) + 1j * rng.normal(size=(grid.n - 1, m, m))
    cells = 0.5 * (g + g.conj().transpose(0, 2, 1))
    # one cell has the eigenvalue rho^2 = 2.25, so mu = 0 there
    u, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    cells[17] = u @ np.diag([2.25, -1.0, 0.5]) @ u.conj().T
    nodes = np.concatenate([cells[:1], 0.5 * (cells[1:] + cells[:-1]), cells[-1:]])
    pot = domain.SampledPotential(grid, nodes, cell_values=cells)
    assert np.abs(np.linalg.eigvalsh(pot.cell_values[17]) - 1.5**2).min() < 1e-12

    rhos = np.array([1.3, 0.8 + 0.6j, 1.5])
    f, p = forward._propagate(pot, rhos, direction, range(grid.n))
    for k, rho in enumerate(rhos):
        f_ref, p_ref = _expm_reference(pot, rho, direction)
        assert np.abs(f[:, k] - f_ref).max() <= 1e-12 * np.abs(f_ref).max()
        assert np.abs(p[:, k] - p_ref).max() <= 1e-12 * np.abs(p_ref).max()


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
    total = np.trapezoid(bump.values, dx=grid.dx, axis=0)
    assert np.abs(asym.omega - 0.5 * total).max() < 1e-12
    # both one-sided integrals reach -omega at the far end of the grid
    assert np.abs(asym.omega_minus[-1] + asym.omega).max() < 1e-12
    assert np.abs(asym.omega_plus[0] + asym.omega).max() < 1e-12
    assert np.abs(asym.omega - asym.omega.conj().T).max() < 1e-12


def test_find_bound_states_zero(zero_pot):
    assert forward.find_bound_states(zero_pot) == []


def test_find_bound_states_sech_well():
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0)
    taus = forward.find_bound_states(well)
    assert len(taus) == 1
    assert abs(taus[0] - 1.0) < 1e-3


@pytest.fixture(scope="module")
def two_soliton():
    """Two rank-one solitons (tau = 1 and 2, weights 2 and 8) on [-4, 4]."""
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    proj = np.outer(v, v.conj())
    grid = SpaceGrid.from_bounds(-4.0, 4.0, 0.025)
    return solitons.separable_glm_solve([(1.0, 2.0 * proj), (2.0, 8.0 * proj)], "right", grid)


def _count_sweeps(monkeypatch):
    """List that gets one entry (the batch of rho) per sweep."""
    calls = []
    sweep = forward._sweep

    def counting(potential, rhos, direction, substeps=1):
        calls.append(np.asarray(rhos))
        return sweep(potential, rhos, direction, substeps)

    monkeypatch.setattr(forward, "_sweep", counting)
    return calls


def test_refined_taus_bracket_a_count_drop(two_soliton):
    taus = forward.find_bound_states(two_soliton)
    assert len(taus) == 2
    for tau in taus:
        counts, _ = forward._count(two_soliton, [tau - 1e-8, tau + 1e-8])
        # the state lies within 1e-8 of the returned tau
        assert counts[0] > counts[1]


def test_full_forward_sweep_count(two_soliton, monkeypatch):
    calls = _count_sweeps(monkeypatch)
    result = forward.full_forward(two_soliton, RhoGrid(10.0, 64))
    assert len(result.j_plus.bound_states) == 2
    # seven count rounds (7), real grid (2), and per state the weight fields
    # (2); the residue ring made it 17, the determinant scan and zoom 24
    assert len(calls) == 13


def test_full_forward_sweeps_have_real_rho_squared(two_soliton, bump_setup, monkeypatch):
    # every batch is real rho or rho = i tau, so lambda - rho^2 is real at
    # every step: the premise of real cell factors
    calls = _count_sweeps(monkeypatch)
    _, bump, _ = bump_setup
    for pot in (two_soliton, bump):
        forward.full_forward(pot, RhoGrid(10.0, 64))
    assert len(calls) == 13 + 2
    for rhos in calls:
        assert np.all((rhos**2).imag == 0)


def test_positive_semidefinite_potential_needs_no_scan(bump_setup, monkeypatch):
    _, bump, _ = bump_setup
    calls = _count_sweeps(monkeypatch)
    assert forward.find_bound_states(bump) == []
    assert calls == []


def test_count_deep_well_and_threshold_state():
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=6.0)
    counts, _ = forward._count(well, [0.0, 0.01, 6.1])
    assert counts.tolist() == [2, 1, 0]
    # the state at tau ~ 6 lies above sqrt(-min Q) / 2 and is found without a
    # search bound; the near-zero state is the discretized threshold state
    with pytest.warns(UserWarning, match="threshold"):
        taus = forward.find_bound_states(well)
    assert len(taus) == 1
    assert abs(taus[0] - 6.0) < 5e-3


def test_count_multiplicity_of_identity_well():
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0, matrix=np.eye(2))
    counts, _ = forward._count(well, [0.5, 1.5])
    assert counts.tolist() == [2, 0]
    with pytest.warns(UserWarning, match="threshold"):
        taus = forward.find_bound_states(well)
    assert len(taus) == 1
    assert abs(taus[0] - 1.0) < 1e-3


def test_count_rank_two_and_rank_one_weights():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    rank2 = q[:, :2] @ np.diag([2.0, 3.0]) @ q[:, :2].conj().T
    rank1 = 8.0 * np.outer(q[:, 2] + q[:, 0], (q[:, 2] + q[:, 0]).conj()) / 2.0
    grid = SpaceGrid.from_bounds(-6.0, 6.0, 0.02)
    pot = solitons.separable_glm_solve([(1.0, rank2), (2.0, rank1)], "right", grid)
    counts, _ = forward._count(pot, [0.5, 1.5, 2.5])
    assert counts.tolist() == [3, 1, 0]


def test_count_substeps_a_deep_well_on_a_coarse_grid():
    # a box of depth 400 on dx = 0.1: each eigenphase of U can move 2 s dx ~ 4
    # per cell, more than pi, so the count must split the cells; the well
    # holds as many states as the zeros of the zero-energy interior solution
    grid = SpaceGrid.from_bounds(-3.0, 3.0, 0.1)
    box = domain.box_potential(grid, height=-400.0, half_width=1.0)
    k = np.sqrt(400.0)
    expected = int(np.ceil(2.0 * k / np.pi))  # even and odd states of the finite well
    counts, _ = forward._count(box, [0.0, k - 1e-3])
    assert counts[0] == expected
    assert counts[1] == 0


def test_residue_matrix_sech_well():
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0)
    (tau,) = forward.find_bound_states(well)
    res = forward.residue_matrix(well, tau)
    assert abs(res.R_minus[0, 0] - 2.0j) < 5e-3
    assert np.abs(res.R_minus + res.R_plus.conj().T).max() < 1e-6
    a_at = forward._coefficients(well, np.array([1j * tau]), np.array([0]))[0][0]
    assert matrix_operator_norm(a_at @ res.R_minus) < 1e-6


def test_weights_sech_well():
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0)
    (tau,) = forward.find_bound_states(well)
    n_minus, n_plus = forward.weight_matrices(well, tau, 1)
    assert abs(n_plus[0, 0] - 2.0) < 1e-3
    assert abs(n_minus[0, 0] - 2.0) < 1e-3


def test_weights_projector_soliton():
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    proj = np.outer(v, v.conj())
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0, matrix=proj)
    (tau,) = forward.find_bound_states(well)
    n_minus, n_plus = forward.weight_matrices(well, tau, 1)
    assert np.abs(n_plus - 2.0 * proj).max() < 2e-3
    assert np.abs(n_plus - n_plus.conj().T).max() < 1e-8
    assert domain.psd_margin(n_plus) > -1e-8
    assert domain.hermitian_rank(n_plus, cutoff=1e-6) == domain.hermitian_rank(n_minus, cutoff=1e-6) == 1


def test_weights_of_multiplicity_two_and_of_the_two_soliton(two_soliton):
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0, matrix=np.eye(2))
    with pytest.warns(UserWarning, match="threshold"):
        ((tau, rank),) = forward._bound_states(well)
    assert rank == 2
    for n in forward.weight_matrices(well, tau, rank):
        assert np.abs(n - 2.0 * np.eye(2)).max() < 2e-3

    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    proj = np.outer(v, v.conj())
    result = forward.full_forward(two_soliton, RhoGrid(10.0, 64))
    for b, w in zip(result.j_plus.bound_states, (2.0, 8.0)):
        assert np.abs(b.weight - w * proj).max() < 1e-3 * w


def test_weights_deep_box_on_a_coarse_grid():
    # the sampled box is the exact box, and each cell's integral of the
    # eigenfunction is exact, so every weight matches 1 / int f_+^2 dx of the
    # closed-form field although the well's interior wave has k dx ~ 2
    height, grid = -400.0, SpaceGrid.from_bounds(-3.0, 3.0, 0.1)
    box = domain.box_potential(grid, height=height, half_width=1.0)
    states = forward._bound_states(box)
    assert len(states) == 13
    x = np.linspace(-1.0, 1.0, 200001)
    for tau, rank in states:
        f = box_oracle_field(x, 1j * tau, height).real
        norm = np.trapezoid(f**2, x) + (f[0] ** 2 + f[-1] ** 2) / (2.0 * tau)
        _, n_plus = forward.weight_matrices(box, tau, rank)
        assert abs(n_plus[0, 0] * norm - 1.0) < 1e-6


@pytest.mark.parametrize("tau", [1.5, 1.05])
def test_weights_refuse_a_tau_without_a_state(tau):
    # the ring of radius 0.2 around 1.05 still enclosed the pole at 1
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0)
    with pytest.raises(NumericsError, match=f"tau = {tau:g}"):
        forward.weight_matrices(well, tau, 1)
    with pytest.raises(NumericsError, match=f"tau = {tau:g}"):
        forward.residue_matrix(well, tau)


def test_full_forward_zero(zero_pot):
    result = forward.full_forward(zero_pot, RhoGrid(8.0, 32))
    assert np.abs(result.j_plus.S).max() < 1e-12
    assert result.j_plus.bound_states == ()
    assert result.j_minus.bound_states == ()


def test_full_forward_one_soliton():
    grid = SpaceGrid.from_bounds(-12.0, 12.0, 0.01)
    pot = solitons.separable_glm_solve([(1.0, np.array([[2.0 + 0j]]))], "right", grid)
    result = forward.full_forward(pot, RhoGrid(8.0, 128))
    assert np.abs(result.j_plus.S).max() < 3e-4
    assert len(result.j_plus.bound_states) == 1
    state = result.j_plus.bound_states[0]
    assert abs(state.tau - 1.0) < 1e-4
    assert abs(state.weight[0, 0] - 2.0) < 1e-3
