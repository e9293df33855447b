import numpy as np
import pytest

from mstl import domain
from mstl.domain import (
    RhoGrid,
    SampledPotential,
    SpaceGrid,
    ValidationError,
    contour_residue,
    hermitian_pseudo_inverse,
    hermitian_rank,
    matrix_operator_norm,
)

VV = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)  # vv* for v = (1, 1)


def test_pinv_diagonal():
    out = hermitian_pseudo_inverse(np.diag([2.0, 0.0]).astype(complex))
    assert np.allclose(out, np.diag([0.5, 0.0]))


def test_pinv_identity():
    assert np.allclose(hermitian_pseudo_inverse(np.eye(2, dtype=complex)), np.eye(2))


def test_pinv_rank_one():
    out = hermitian_pseudo_inverse(VV)
    assert np.allclose(out, VV / 4.0)
    assert np.allclose(VV @ out @ VV, VV)


def test_pinv_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValidationError, match="defect"):
        hermitian_pseudo_inverse(bad)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pinv_properties_random_psd(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    n = g @ g.conj().T  # PSD, rank 2
    pinv = hermitian_pseudo_inverse(n)
    assert np.allclose(n @ pinv @ n, n, atol=1e-10)
    assert np.min(np.linalg.eigvalsh(pinv)) >= -1e-12
    assert hermitian_rank(pinv) == hermitian_rank(n) == 2
    # double pseudo-inverse restores N on its range
    assert matrix_operator_norm(hermitian_pseudo_inverse(pinv) - n) <= 1e-8 * (
        1 + matrix_operator_norm(n)
    )


def test_operator_norm_examples():
    assert matrix_operator_norm(np.zeros((3, 3))) == 0.0
    assert matrix_operator_norm(np.eye(3)) == pytest.approx(1.0)
    assert matrix_operator_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0)


def test_operator_norm_submultiplicative():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert matrix_operator_norm(a @ b) <= matrix_operator_norm(a) * matrix_operator_norm(b) + 1e-12


def test_space_grid():
    grid = SpaceGrid.from_bounds(-1.0, 1.0, 0.5)
    assert grid.n == 5
    assert np.allclose(grid.xs, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.allclose(grid.midpoints, [-0.75, -0.25, 0.25, 0.75])
    with pytest.raises(ValidationError):
        SpaceGrid.from_bounds(0.0, 1.0, 0.3)


def test_rho_grid_symmetric_without_origin():
    rg = RhoGrid(4.0, 8)
    assert rg.n == 16
    assert np.all(rg.nodes != 0.0)
    assert np.allclose(rg.nodes, -rg.nodes[::-1])
    assert np.allclose(np.diff(rg.nodes), rg.step)


def test_potential_hermitization_and_support():
    grid = SpaceGrid.from_bounds(-2.0, 2.0, 0.5)
    vals = np.zeros((grid.n, 2, 2), dtype=complex)
    vals[4] = [[1.0, 0.3 + 1e-10j], [0.3, 0.5]]  # tiny asymmetry is repaired
    pot = SampledPotential(grid, vals)
    assert np.allclose(pot.values[4], pot.values[4].conj().T)
    assert pot.support == (4, 4)

    vals[4, 0, 1] = 1.0j  # gross asymmetry is rejected
    with pytest.raises(ValidationError, match="Hermitian"):
        SampledPotential(grid, vals)


def test_from_profile_samples_midpoints():
    grid = SpaceGrid.from_bounds(-1.0, 1.0, 0.5)
    pot = SampledPotential.from_profile(grid, lambda x: np.array([[x * x]], dtype=complex))
    assert np.allclose(pot.values[:, 0, 0], grid.xs**2)
    assert np.allclose(pot.cell_values[:, 0, 0], grid.midpoints**2)


def test_box_potential_cells_are_exact():
    grid = SpaceGrid.from_bounds(-2.0, 2.0, 0.02)
    box = domain.box_potential(grid)
    inside = np.abs(grid.midpoints) < 1.0
    assert np.allclose(box.cell_values[inside, 0, 0], 1.0)
    assert np.allclose(box.cell_values[~inside, 0, 0], 0.0)
    # edge nodes carry the two-sided mean
    j = int(round((1.0 - grid.x0) / grid.dx))
    assert box.values[j, 0, 0] == pytest.approx(0.5)


def test_contour_residue_simple_pole():
    def f(z):
        vals = 2.5j / (z - (1.0 + 2.0j)) + np.sin(z)
        return vals[:, None, None] * np.eye(1)

    res = contour_residue(f, 1.0 + 2.0j, 0.3)
    assert abs(res[0, 0] - 2.5j) < 1e-12
