import numpy as np
import pytest

from mstl import glm, solitons
from mstl.domain import (
    BoundState,
    InconsistentDataError,
    RhoGrid,
    ScatteringData,
    SpaceGrid,
    ValidationError,
)


def soliton_kernel(tau=1.0, weight=2.0, m=1, direction=None):
    proj = np.eye(m, dtype=complex)
    if direction is not None:
        v = np.asarray(direction, dtype=complex)
        v = v / np.linalg.norm(v)
        proj = np.outer(v, v.conj())
    u = np.linspace(-4.0, 30.0, 18)
    return glm.GLMKernelFunction(
        side="right", u_grid=u, R=np.zeros((18, m, m), complex),
        states=((tau, weight * proj),),
    )


def test_fourier_kernel_zero(soliton_data):
    zero = ScatteringData(side="right", rho_grid=soliton_data.rho_grid,
                          S=np.zeros_like(soliton_data.S))
    u = np.linspace(-5, 5, 41)
    assert np.abs(glm.fourier_kernel(zero, u)).max() == 0.0


def test_fourier_kernel_single_pole():
    # S(rho) = c / (rho - i a) has transform i c exp(-a u) on u > 0
    rg = RhoGrid(40.0, 2048)
    a, c = 1.0, 0.01
    s = (c / (rg.nodes - 1j * a))[:, None, None]
    data = ScatteringData(side="right", rho_grid=rg, S=s)
    u = np.array([0.5, 1.0, 2.0])
    r = glm.fourier_kernel(data, u)[:, 0, 0]
    expect = 1j * c * np.exp(-a * u)
    # window truncation bounds the quadrature error by ~ c / (pi rho_max u)
    assert np.abs(r - expect).max() < 1.5e-4


def test_fourier_kernel_hermitian_and_oracle(box_setup, box_forward):
    _, _, rho_grid = box_setup
    u = np.arange(-6.0, 6.0, 0.05)
    r = glm.fourier_kernel(box_forward.j_plus, u)
    assert np.abs(r - r.conj().transpose(0, 2, 1)).max() < 1e-12
    # dense-quadrature oracle: same integral on a twice-refined spectral grid
    rg2 = RhoGrid(rho_grid.rho_max, 2 * rho_grid.n_half)
    nodes = rg2.nodes
    from tests.conftest import box_oracle

    a_or, b_or = box_oracle(nodes)
    s_plus = -np.conj(b_or) / np.conj(a_or[::-1])
    dense = (rg2.step / (2 * np.pi)) * np.tensordot(
        np.exp(1j * np.outer(u, nodes)), s_plus[:, None, None], axes=(1, 0)
    )
    assert np.abs(r - dense).max() < 1e-4


def test_assemble_M_pure_bound_state(soliton_data):
    u = np.arange(-2.0, 25.0, 0.1)
    kern = glm.assemble_M(soliton_data, u)
    expect = 2.0 * np.exp(-u)
    assert np.abs(kern(u)[:, 0, 0] - expect).max() < 1e-12


def test_assemble_M_without_states_is_fourier(bump_forward):
    u = np.arange(-4.0, 4.0, 0.1)
    kern = glm.assemble_M(bump_forward.j_plus, u)
    assert np.allclose(kern(u), glm.fourier_kernel(bump_forward.j_plus, u))


def test_mirrored_kernel():
    u = np.arange(-3.0, 10.0, 0.5)
    left = glm.GLMKernelFunction(
        side="left", u_grid=u, R=np.exp(u)[:, None, None] + 0j,
        states=((1.0, np.array([[2.0 + 0j]])),),
    )
    mir = left.mirrored()
    probe = np.array([-1.3, 0.4, 2.0])
    assert np.abs(mir(probe) - left(-probe)).max() < 1e-12


def test_gregory_weights_integrate_exactly():
    n, du = 41, 0.1
    w = glm.gregory_weights(n, du)
    xs = du * np.arange(n)
    assert np.sum(w) == pytest.approx(xs[-1])
    for p in (1, 2, 3):
        assert np.sum(w * xs**p) == pytest.approx(xs[-1] ** (p + 1) / (p + 1), rel=1e-10)


def dense_diagonal(kernel, x, du, n):
    """K(x, x) from np.linalg.solve of the unsymmetrized Nystrom system at x."""
    w = glm.gregory_weights(n, du)
    h = kernel(2 * x + du * np.arange(2 * n - 1))
    m = h.shape[-1]
    sums = np.add.outer(np.arange(n), np.arange(n))
    # row form X (I + W H) = -b with blocks (j, i) = delta_ji I + w_j M(y_i + y_j)
    a = (w[:, None, None, None] * h[sums]).transpose(0, 2, 1, 3).reshape(n * m, n * m)
    a += np.eye(n * m)
    b = h[:n].transpose(1, 0, 2).reshape(m, n * m)
    return np.linalg.solve(a.T, -b.T).T[:, :m]


@pytest.mark.parametrize("m", [1, 2])
def test_nested_diagonal_matches_dense(m):
    # reflection part and two bound states, one of them rank one for m = 2
    v = np.array([1.0, 0.5j])[:m]
    proj = np.outer(v, v.conj()) / np.vdot(v, v)
    u = np.linspace(-4.0, 30.0, 341)
    r = 0.05 * np.exp(-((u - 1.0) ** 2))[:, None, None] * (proj + 0.3 * np.eye(m))
    kern = glm.GLMKernelFunction(side="right", u_grid=u, R=r,
                                 states=((1.0, 2.0 * proj), (1.7, 0.5 * np.eye(m))))
    x0, du, count, y_end = -0.5, 0.05, 60, 20.0
    out = glm.nested_diagonal(kern, x0, du, count, y_end)
    n = int(round((y_end - x0) / du)) + 1
    # k = 0..3 need the head-weight correction cases; k = 50 is a late x
    for k in (0, 1, 2, 3, 50):
        ref = dense_diagonal(kern, x0 + k * du, du, n - k)
        assert np.abs(out.diag[k] - ref).max() < 1e-12
    assert out.residual < 1e-12


def test_solve_zero_kernel():
    kern = glm.GLMKernelFunction(side="right", u_grid=np.linspace(-1, 10, 12),
                                 R=np.zeros((12, 1, 1), complex), states=())
    out = glm.nested_diagonal(kern, 0.0, 0.05, 20, 5.0)
    assert out.diag.shape == (20, 1, 1)
    assert np.abs(out.diag).max() == 0.0
    assert out.sigma_min_est == 1.0


def test_solve_soliton_row():
    kern = soliton_kernel()
    du = 0.05
    out = glm.nested_diagonal(kern, 0.0, du, 1, 29.0)
    assert np.abs(out.diag[0, 0, 0] + 1.0) < 1e-5
    assert out.residual < 1e-10
    # estimated smallest singular value against the exact spectrum of the x = 0 system
    n = int(round(29.0 / du)) + 1
    y = du * np.arange(n)
    sw = np.sqrt(glm.gregory_weights(n, du))
    mat = np.eye(n) + (sw[:, None] * kern(y[:, None] + y[None, :])[:, :, 0, 0]) * sw[None, :]
    exact = float(np.linalg.eigvalsh(mat).min())
    assert 0.2 * exact <= out.sigma_min_est <= 5.0 * exact
    assert out.sigma_min_est >= 1e-6


def test_solve_rank_one_matrix_case():
    kern = soliton_kernel(m=2, direction=[1.0, 1.0])
    out = glm.nested_diagonal(kern, 0.0, 0.05, 1, 25.0)
    proj = np.full((2, 2), 0.5)
    assert np.abs(out.diag[0] + proj).max() < 1e-5


def test_separable_equals_nystrom():
    states = [(1.0, np.array([[2.0 + 0j]]))]
    x0, du, count = 0.3, 0.0125, 40
    out = glm.nested_diagonal(soliton_kernel(), x0, du, count, 28.3)
    _, diag = solitons.separable_potential_values(states, x0 + du * np.arange(count))
    assert np.abs(out.diag - diag).max() < 1e-8


def test_transform_kernel_and_recover(soliton_data):
    kern = soliton_kernel()
    xs = np.arange(0.0, 4.0 + 1e-9, 0.05)
    out = glm.nested_diagonal(kern, 0.0, 0.05, xs.size, 29.0)
    # closed form K(x, x) = -2 exp(-2x) / (1 + exp(-2x)) of the unit soliton
    expect_diag = -2.0 * np.exp(-2 * xs) / (1 + np.exp(-2 * xs))
    assert np.abs(out.diag[:, 0, 0] - expect_diag).max() < 1e-5
    # Q = -2 dK(x, x)/dx, central differences at every node of the target grid
    grid = SpaceGrid.from_bounds(-4.0, 4.0, 0.05)
    inv = glm.invert(soliton_data, grid=grid)
    exact = -2.0 / np.cosh(grid.xs) ** 2
    assert np.abs(inv.potential.values[:, 0, 0] - exact).max() < 1e-3
    assert inv.hermiticity_defect < 1e-8


def test_potential_value_pointwise(soliton_data):
    grid = SpaceGrid.from_bounds(-1.0, 1.0, 0.02)
    out = glm.invert(soliton_data, grid=grid)
    assert abs(out.potential.values[50, 0, 0] + 2.0) < 1e-5  # x = 0
    assert out.sigma_min_est > 1e-6 and out.residual_max < 1e-10


def test_invert_runs_two_factorizations_per_side(soliton_data, monkeypatch):
    from scipy.linalg import lapack

    calls = []
    zpotrf = lapack.zpotrf

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return zpotrf(*args, **kwargs)

    monkeypatch.setattr(lapack, "zpotrf", counting)
    glm.invert(soliton_data, grid=SpaceGrid.from_bounds(-3.0, 3.0, 0.05))
    # du = 2 dx: two interleaved factorizations on each side
    assert len(calls) == 4


def test_invert_zero_data():
    rg = RhoGrid(8.0, 32)
    data = ScatteringData(side="right", rho_grid=rg, S=np.zeros((rg.n, 1, 1), complex))
    grid = SpaceGrid.from_bounds(-4.0, 4.0, 0.05)
    out = glm.invert(data, grid=grid)
    assert np.abs(out.potential.values).max() <= 1e-10


def test_invert_one_soliton_quick(soliton_data):
    grid = SpaceGrid.from_bounds(-6.0, 6.0, 0.04)
    out = glm.invert(soliton_data, grid=grid)
    exact = -2.0 / np.cosh(grid.xs) ** 2
    assert np.abs(out.potential.values[:, 0, 0] - exact).max() < 1e-3
    assert out.overlap_gap < 1e-3


def test_invert_requires_left_data_for_matrix_reflection(bump_forward):
    with pytest.raises(ValidationError, match="left scattering data"):
        glm.invert(bump_forward.j_plus, grid=SpaceGrid.from_bounds(-4.0, 4.0, 0.05))


def test_invert_flags_inconsistent_sides(soliton_data):
    # a wrong left weight makes the two reconstructions disagree at the origin
    bad_left = ScatteringData(
        side="left", rho_grid=soliton_data.rho_grid, S=np.zeros_like(soliton_data.S),
        bound_states=(BoundState(tau=1.0, weight=np.array([[50.0 + 0j]]), side="left"),),
    )
    grid = SpaceGrid.from_bounds(-5.0, 5.0, 0.05)
    with pytest.raises(InconsistentDataError):
        glm.invert(soliton_data, bad_left, grid=grid)


def test_roundtrip_matrix_with_reflection_and_bound_state():
    # reflection and a bound state in one 2x2 potential: the kernel mixes the
    # Fourier part with the bound-state exponentials on both sides
    from mstl import forward

    grid = SpaceGrid.from_bounds(-8.0, 8.0, 0.04)
    v = np.array([1.0, 0.5j])
    v = v / np.linalg.norm(v)
    proj = np.outer(v, v.conj())

    def profile(x):
        bump = 0.6 * np.exp(-((x - 0.8) ** 2) / 0.8) * np.array([[1.0, 0.3], [0.3, 0.5]])
        return bump - 1.8 / np.cosh(1.2 * (x + 0.5)) ** 2 * proj

    from mstl.domain import SampledPotential

    q = SampledPotential.from_profile(grid, profile)
    fwd = forward.full_forward(q, RhoGrid(30.0, 512))
    assert len(fwd.j_plus.taus) == 1
    out = glm.invert(fwd.j_plus, fwd.j_minus, grid=grid)
    diff = np.abs(out.potential.values - q.values).max(axis=(1, 2))
    ref = np.abs(q.values).max(axis=(1, 2))
    rel = np.trapezoid(diff, dx=grid.dx) / np.trapezoid(ref, dx=grid.dx)
    assert rel <= 5e-3


def test_roundtrip_box(box_setup, box_forward):
    grid, box, _ = box_setup
    # the step edges put spectral content out to the window edge; the solve
    # grid du = 2 dx must resolve it (Nyquist pi/du above the effective bandwidth)
    out = glm.invert(box_forward.j_plus, box_forward.j_minus, grid=grid)
    diff = np.abs(out.potential.values - box.values).max(axis=(1, 2))
    ref = np.abs(box.values).max(axis=(1, 2))
    rel = np.trapezoid(diff, dx=grid.dx) / np.trapezoid(ref, dx=grid.dx)
    assert rel <= 0.02
