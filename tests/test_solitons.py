import numpy as np
import pytest

from mstl import domain, kdv, solitons
from mstl.domain import SpaceGrid, ValidationError
from tests.conftest import contour_residue


def scalar_states(*pairs):
    return [(t, np.array([[w + 0j]])) for t, w in pairs]


def test_chain_scalar_full_rank():
    chain = solitons.build_projector_chain(scalar_states((1.0, 2.0)))
    assert np.allclose(chain.projectors[0], np.eye(1))
    rho = np.array([0.3 + 0.2j, 5.0 + 0j])
    u = np.linalg.inv(solitons.reflectionless_D(chain)(rho))
    assert np.abs(u[:, 0, 0] - (rho + 1j) / (rho - 1j)).max() < 1e-14


def test_chain_rank_one_projector():
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    chain = solitons.build_projector_chain([(1.0, 2.0 * np.outer(v, v))])
    assert np.abs(chain.projectors[0] - np.outer(v, v)).max() < 1e-12


def test_chain_two_scalar_states():
    chain = solitons.build_projector_chain(scalar_states((1.0, 2.0), (2.0, 8.0)))
    rho = np.array([0.9 + 0.4j])
    u = np.linalg.inv(solitons.reflectionless_D(chain)(rho))[0, 0, 0]
    expect = (rho[0] + 2j) / (rho[0] - 2j) * (rho[0] + 1j) / (rho[0] - 1j)
    assert abs(u - expect) < 1e-14


def test_chain_rejects_bad_input():
    with pytest.raises(ValidationError, match="distinct"):
        solitons.build_projector_chain(scalar_states((1.0, 2.0), (1.0, 3.0)))
    with pytest.raises(ValidationError, match="semidefinite"):
        solitons.build_projector_chain([(1.0, np.array([[-1.0 + 0j]]))])


def test_inverse_D_unitary_on_real_axis():
    v = np.array([1.0, 2.0j]) / np.sqrt(5)
    chain = solitons.build_projector_chain(
        [(1.0, 2.0 * np.outer(v, v.conj())), (2.5, np.eye(2, dtype=complex))]
    )
    rho = np.array([0.7 + 0j, -3.1 + 0j])
    u = np.linalg.inv(solitons.reflectionless_D(chain)(rho))
    eye = np.eye(2)
    assert np.abs(u.conj().transpose(0, 2, 1) @ u - eye).max() < 1e-12


def test_inverse_D_asymptotic_identity():
    chain = solitons.build_projector_chain(scalar_states((1.0, 2.0), (2.0, 8.0)))
    u = np.linalg.inv(solitons.reflectionless_D(chain)(np.array([1e6 + 0j])))
    assert np.abs(u[0] - np.eye(1)).max() <= 3e-6 * (1.0 + 2.0)


def test_residues_match_contour_oracle():
    v = np.array([1.0, -1.0j]) / np.sqrt(2)
    chain = solitons.build_projector_chain(
        [(1.0, 3.0 * np.outer(v, v.conj())), (2.0, np.eye(2, dtype=complex))]
    )
    d_of = solitons.reflectionless_D(chain)
    for tau, analytic in zip(chain.taus, chain.residues):
        by_contour = contour_residue(lambda z: np.linalg.inv(d_of(z)), 1j * tau, 0.2)
        assert np.abs(by_contour - analytic).max() < 1e-10


def test_residues_are_weight_multiples():
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    weight = 2.0 * np.outer(v, v)
    chain = solitons.build_projector_chain([(1.0, weight)])
    (res,) = chain.residues
    # rows of the residue live in the row space of the weight
    proj = domain.hermitian_pseudo_inverse(weight) @ weight
    assert np.abs(res - res @ proj).max() < 1e-12
    assert np.linalg.matrix_rank(res, tol=1e-10) == domain.range_split(weight)[0].size


def test_reflectionless_D_is_inverse_of_U():
    chain = solitons.build_projector_chain(scalar_states((1.0, 2.0), (2.0, 8.0)))
    d_of = solitons.reflectionless_D(chain)
    rho = np.array([0.45 + 0.8j, 3.0 + 0j, 150.0 + 0j])
    u = (rho + 2j) / (rho - 2j) * (rho + 1j) / (rho - 1j)  # U in closed form
    prod = u[:, None, None] * d_of(rho)
    assert np.abs(prod - np.eye(1)).max() < 1e-12
    # scalar closed form and the large-rho limit
    one = solitons.build_projector_chain(scalar_states((1.0, 2.0)))
    d_one = solitons.reflectionless_D(one)
    assert abs(d_one(np.array([0.7 + 0j]))[0, 0, 0] - (0.7 - 1j) / (0.7 + 1j)) < 1e-14
    assert np.abs(d_of(np.array([1e7 + 0j]))[0] - np.eye(1)).max() < 1e-6


def test_separable_one_soliton_closed_form():
    grid = SpaceGrid.from_bounds(-8.0, 8.0, 0.02)
    pot = solitons.separable_glm_solve(scalar_states((1.0, 2.0)), grid)
    exact = -2.0 / np.cosh(grid.xs) ** 2
    assert np.abs(pot.values[:, 0, 0] - exact).max() < 1e-12


@pytest.mark.parametrize("tau,c", [(1.0, 5.0), (1.5, 0.7)])
def test_separable_center_formula(tau, c):
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    pot = solitons.separable_glm_solve(scalar_states((tau, c)), grid)
    x0 = np.log(c / (2.0 * tau)) / (2.0 * tau)
    exact = -2.0 * tau**2 / np.cosh(tau * (grid.xs - x0)) ** 2
    assert np.abs(pot.values[:, 0, 0] - exact).max() < 1e-12


def test_separable_projector_case():
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    proj = np.outer(v, v)
    grid = SpaceGrid.from_bounds(-8.0, 8.0, 0.02)
    pot = solitons.separable_glm_solve([(1.0, 2.0 * proj)], grid)
    exact = (-2.0 / np.cosh(grid.xs) ** 2)[:, None, None] * proj
    assert np.abs(pot.values - exact).max() < 1e-8


def hirota_two_soliton(xs, taus, weights):
    """Scalar two-soliton -2 (ln f)'' with f = sum_i w_i exp(-p_i x).

    f f'' - f'^2 = sum_{i<j} w_i w_j (p_i - p_j)^2 exp(-(p_i + p_j) x) has
    only positive terms, so the closed form is free of cancellation.
    """
    (t1, t2), (c1, c2) = taus, weights
    gamma = ((t1 - t2) / (t1 + t2)) ** 2
    p = [0.0, 2 * t1, 2 * t2, 2 * (t1 + t2)]
    w = [1.0, c1 / (2 * t1), c2 / (2 * t2), gamma * c1 * c2 / (4 * t1 * t2)]
    f = sum(wi * np.exp(-pi * xs) for wi, pi in zip(w, p))
    num = sum(
        w[i] * w[j] * (p[i] - p[j]) ** 2 * np.exp(-(p[i] + p[j]) * xs)
        for i in range(4)
        for j in range(i + 1, 4)
    )
    return -2.0 * num / f**2


@pytest.mark.parametrize("direction", [(1.0,), (1.0, 1.0j)])
def test_separable_two_soliton_matches_hirota(direction):
    # Q is the scalar two-soliton times the projector onto the direction; for
    # the rank-one weights the null space sits beside a range block ~e^{4|x|}
    v = np.array(direction) / np.linalg.norm(direction)
    proj = np.outer(v, v.conj())
    grid = SpaceGrid.from_bounds(-8.0, 8.0, 0.02)
    pot = solitons.separable_glm_solve([(1.0, 2.0 * proj), (2.0, 8.0 * proj)], grid)
    exact = hirota_two_soliton(grid.xs, (1.0, 2.0), (2.0, 8.0))[:, None, None] * proj
    assert np.abs(pot.values - exact).max() < 1e-12


def test_separable_log_scales_no_overflow():
    # exp(600) overflows double precision; log-scaled weights must not
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.05)
    q, _ = solitons.separable_potential_values(
        scalar_states((1.0, 2.0)), grid.xs, log_scales=[600.0]
    )
    assert np.all(np.isfinite(q))
    # the soliton has moved far to the right; the window sees its tail only
    assert np.abs(q).max() < 1e-3


def test_grid_shares_are_the_mass_on_the_grid():
    # int over the grid of -tr Q = sum_k 4 tau_k rank_k share_k, and every
    # share is 1 on a grid that holds the whole potential
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    states = [(1.0, 2.0 * np.outer(v, v.conj())), (2.0, 8.0 * np.eye(2)), (0.5, np.diag([3.0, 0.0]))]
    grid = SpaceGrid.from_bounds(-1.0, 1.5, 0.001)
    q, _ = solitons.separable_potential_values(states, grid.xs)
    mass = np.trapezoid(-np.trace(q, axis1=1, axis2=2).real, grid.xs)
    shares = solitons.check_on_grid(states, grid)
    assert np.all((shares > 0.01) & (shares < 0.99))
    assert abs(mass - np.dot([4.0, 16.0, 2.0], shares)) < 1e-6 * mass
    wide = solitons.check_on_grid(states, SpaceGrid.from_bounds(-80.0, 80.0, 1.0))
    assert np.abs(wide - 1.0).max() < 1e-12


def test_grid_shares_under_log_scales_are_those_of_the_scaled_weights():
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    states = [(1.0, 2.0 * np.outer(v, v.conj())), (2.0, 8.0 * np.eye(2)), (0.5, np.diag([3.0, 0.0]))]
    grid = SpaceGrid.from_bounds(-1.0, 1.5, 0.001)
    for scales in ([0.0, 0.0, 0.0], [1.5, -2.0, 0.7], [-10.0, 12.0, -5.0]):
        scaled = [(tau, n * np.exp(s)) for (tau, n), s in zip(states, scales)]
        shares = solitons.check_on_grid(scaled, grid)
        assert np.abs(solitons.check_on_grid(states, grid, log_scales=scales) - shares).max() < 1e-12


def test_separable_kernel_diagonal():
    xs = SpaceGrid.from_bounds(-2.0, 2.0, 0.5).xs
    _, diag = solitons.separable_potential_values(scalar_states((1.0, 2.0)), xs)
    expect = -2.0 * np.exp(-2 * xs) / (1 + np.exp(-2 * xs))
    assert np.abs(diag[:, 0, 0] - expect).max() < 1e-12


@pytest.mark.parametrize("r", [1, 2, 3, 6])
def test_cauchy_solve_matches_lapack(r):
    # the separable system's C (weights of rank 3 over taus 0.3 or more apart)
    # plus diag(e), e from e^-clamp to e^clamp and underflowed to 0
    rng = np.random.default_rng(r)
    taus = 0.5 + 0.3 * np.arange(r) + 0.1 * rng.random(r)
    b = rng.normal(size=(3, r)) + 1j * rng.normal(size=(3, r))
    cauchy = (b.conj().T @ b) / (taus[:, None] + taus[None, :])
    exponent = rng.uniform(-solitons._EXP_CLAMP, solitons._EXP_CLAMP, size=(400, r))
    exponent[::7, rng.integers(r)] = -800.0
    e = np.exp(exponent)
    assert (e == 0).any()
    y = solitons._cauchy_solve(cauchy, e, b.conj().T)
    ref = np.linalg.solve(cauchy + e[:, :, None] * np.eye(r), b.conj().T)
    assert np.all(np.abs(y - ref).max(axis=(1, 2)) <= 1e-12 * np.abs(ref).max(axis=(1, 2)))


@pytest.mark.parametrize(
    "cauchy,e", [([[1.0, 2.0], [2.0, 1.0]], 0.0), (np.eye(2), np.nan)], ids=["indefinite", "nan"]
)
def test_cauchy_solve_refuses_a_pivot_that_is_not_positive(cauchy, e):
    with pytest.raises(domain.NumericsError, match="not positive definite"):
        solitons._cauchy_solve(np.asarray(cauchy, dtype=complex), np.full((5, 2), e), np.eye(2))


@pytest.mark.parametrize("taus,weights", [((1.0, 2.0), (2.0, 8.0)), ((0.83, 2.17), (2.9, 6.2))])
def test_kdv_workload_trajectory_matches_hirota(taus, weights):
    # the kdv-trajectory workload's grid; relative to the closed form, so the
    # far right, where Q falls to 1e-34, is checked too
    grid = SpaceGrid.from_bounds(-8.0, 40.0, 0.02)
    states = [(t, np.array([[c + 0j]])) for t, c in zip(taus, weights)]
    traj = kdv.soliton_trajectory(states, [0.0, 0.5, 1.0], grid)
    for t, pot in zip(traj.times, traj.potentials):
        grown = [c * np.exp(8.0 * tau**3 * t) for tau, c in zip(taus, weights)]
        for xs, q in ((grid.xs, pot.values), (grid.midpoints, pot.cell_values)):
            exact = hirota_two_soliton(xs, taus, grown)
            assert np.all(np.abs(q[:, 0, 0] - exact) <= 1e-12 * np.abs(exact))


def test_separable_path_makes_no_lapack_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-point LAPACK call in the separable path")

    for name in ("solve", "inv", "cholesky"):
        monkeypatch.setattr(np.linalg, name, refuse)
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    states = [(1.0, 2.0 * np.outer(v, v.conj())), (2.0, 8.0 * np.eye(2))]
    grid = SpaceGrid.from_bounds(-8.0, 8.0, 0.02)
    kdv.soliton_trajectory(states, [0.0, 0.5], grid)
    solitons.check_on_grid(states, grid, log_scales=[1.0, -2.0])
