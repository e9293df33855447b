import numpy as np
import pytest

from mstl import domain, solitons
from mstl.domain import (
    RhoGrid,
    SampledPotential,
    SpaceGrid,
    ValidationError,
    hermitian_pseudo_inverse,
    matrix_operator_norm,
    range_split,
)
from tests.conftest import contour_residue

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
    assert range_split(pinv)[0].size == range_split(n)[0].size == 2
    # double pseudo-inverse restores N on its range
    assert matrix_operator_norm(hermitian_pseudo_inverse(pinv) - n) <= 1e-8 * (
        1 + matrix_operator_norm(n)
    )


@pytest.mark.parametrize("small", [-1e-9, 1e-11])
def test_one_rank_rule_for_weights(small):
    # an eigenvalue at or below 1e-10 of the largest magnitude, of either sign,
    # is outside the range for the rank, the pseudo-inverse, the range
    # factors and the projector chain's kernel alike
    n = np.diag([2.0, small]).astype(complex)
    w, _, ker = domain.range_split(n)
    assert w.size == 1
    assert np.allclose(hermitian_pseudo_inverse(n), np.diag([0.5, 0.0]), rtol=0, atol=1e-15)
    b, index = domain.range_factors([n])
    assert np.allclose(b @ b.conj().T, np.diag([2.0, 0.0]), rtol=0, atol=1e-15)
    assert index.tolist() == [0]
    assert np.allclose(np.abs(ker[:, 0]), [0.0, 1.0])
    chain = solitons.build_projector_chain([(1.0, n)])
    assert np.allclose(chain.projectors[0], np.diag([1.0, 0.0]), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [np.eye(2), VV, np.diag([2.0, 1e-8])], ids=["full", "rank1", "weak"])
def test_residue_check_accepts_invertible_multiples(n):
    # a weak direction inside the weight's range keeps its rank in C N
    c = np.array([[1.0, 2.0j], [0.5, -1.0]])
    defect, tol, ranks_agree = domain.residue_check(c @ n, n)
    assert defect <= tol and ranks_agree
    assert tol == pytest.approx(1e-8 * (1.0 + matrix_operator_norm(c @ n)))


def test_residue_check_flags_range_and_rank():
    # rows along e2 for a weight on e1: the ranks agree, the defect is ||R||
    off = np.array([[0.0, 1.0], [0.0, 1.0j]])
    defect, tol, ranks_agree = domain.residue_check(off, np.diag([2.0, 0.0]))
    assert defect == pytest.approx(np.sqrt(2.0)) and defect > tol and ranks_agree
    # a rank-one residue for the weight I: no defect, but C is singular
    defect, tol, ranks_agree = domain.residue_check(2j * VV, np.eye(2))
    assert defect == 0.0 and not ranks_agree


def test_tau_gap():
    assert domain.tau_gap([2.0, 1.0, 1.5]) == (0.5, 2e-8)
    assert domain.tau_gap([4.0]) == (np.inf, 4e-8)
    assert domain.tau_gap([]) == (np.inf, 0.0)


def test_operator_norm_examples():
    assert matrix_operator_norm(np.zeros((3, 3))) == 0.0
    assert matrix_operator_norm(np.eye(3)) == pytest.approx(1.0)
    assert matrix_operator_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0)


def test_operator_norm_submultiplicative():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert matrix_operator_norm(a @ b) <= matrix_operator_norm(a) * matrix_operator_norm(b) + 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_operator_norms_match_the_largest_singular_value(m):
    rng = np.random.default_rng(m)
    a = rng.normal(size=(50, m, m)) + 1j * rng.normal(size=(50, m, m))
    a[0] = 0.0
    a[1] = np.diag(np.arange(1.0, m + 1.0))  # its norm is its largest entry, m
    norms = domain.operator_norms(a)
    reference = np.linalg.svd(a, compute_uv=False)[:, 0]
    assert norms[0] == 0.0 and norms[1] == pytest.approx(m, rel=1e-15)
    assert np.all(np.abs(norms - reference) <= 2e-15 * reference)
    # the Gram of these would overflow or underflow
    for big in (3e200, 1e-200):
        assert domain.operator_norms(big * a[2:]) == pytest.approx(big * reference[2:], rel=2e-15)


@pytest.mark.parametrize("m", [2, 3])
def test_operator_norms_of_subnormal_matrices(m):
    # dividing by a subnormal largest entry takes its reciprocal, which overflows
    a = np.zeros((1, m, m), dtype=complex)
    a[0, 1, 1] = 1e-317j
    assert domain.operator_norms(a)[0] == 1e-317
    b = np.zeros((2, m, m), dtype=complex)
    b[:, 0, 0], b[:, 0, 1] = 3e-320, 4e-320j
    assert np.allclose(domain.operator_norms(b), 5e-320, rtol=1e-3, atol=0)


def test_space_grid():
    grid = SpaceGrid.from_bounds(-1.0, 1.0, 0.5)
    assert grid.n == 5
    assert np.allclose(grid.xs, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.allclose(grid.midpoints, [-0.75, -0.25, 0.25, 0.75])
    with pytest.raises(ValidationError):
        SpaceGrid.from_bounds(0.0, 1.0, 0.3)


@pytest.mark.parametrize("x_min, x_max", [(2.0, -2.0), (0.0, 0.0)])
def test_non_increasing_bounds_name_both_values(x_min, x_max):
    with pytest.raises(ValidationError, match=f"x_max must exceed x_min, got x_min = {x_min:g} and x_max = {x_max:g}"):
        SpaceGrid.from_bounds(x_min, x_max, 0.02)


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
