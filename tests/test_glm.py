import resource
import sys

import numpy as np
import pytest

from mstl import domain, forward, glm, solitons
from mstl.domain import (
    BoundState,
    IllPosedDataError,
    InconsistentDataError,
    RhoGrid,
    ScatteringData,
    SpaceGrid,
    ValidationError,
)


def soliton_kernel(tau=1.0, weight=2.0, m=1, direction=None):
    """u -> weight P exp(-tau u), the right-form kernel of one reflectionless state."""
    proj = np.eye(m, dtype=complex)
    if direction is not None:
        v = np.asarray(direction, dtype=complex)
        v = v / np.linalg.norm(v)
        proj = np.outer(v, v.conj())
    return lambda u: np.exp(-tau * np.asarray(u))[..., None, None] * (weight * proj)


def hankel_samples(kernel, x0, du, y_end):
    """Kernel at 2 x0 + j du for the nodes x0 + j du up to the first at or past y_end."""
    n = int(np.ceil((y_end - x0) / du - 1e-9)) + 1
    return kernel(2.0 * x0 + du * np.arange(2 * n - 1))


def test_fourier_kernel_zero(soliton_data):
    zero = ScatteringData(side="right", rho_grid=soliton_data.rho_grid,
                          S=np.zeros_like(soliton_data.S))
    assert np.abs(glm.fourier_kernel(zero, -5.0, 0.25, 41)).max() == 0.0


def test_fourier_kernel_single_pole():
    # S(rho) = c / (rho - i a) has transform i c exp(-a u) on u > 0
    rg = RhoGrid(40.0, 2048)
    a, c = 1.0, 0.01
    s = (c / (rg.nodes - 1j * a))[:, None, None]
    data = ScatteringData(side="right", rho_grid=rg, S=s)
    u = np.array([0.5, 1.0, 2.0])
    r = glm.fourier_kernel(data, 0.5, 0.5, 4)[[0, 1, 3], 0, 0]
    expect = 1j * c * np.exp(-a * u)
    # window truncation bounds the quadrature error by ~ c / (pi rho_max u)
    assert np.abs(r - expect).max() < 1.5e-4


def test_fourier_kernel_hermitian_and_oracle(box_setup, box_forward):
    _, _, rho_grid = box_setup
    u = -6.0 + 0.05 * np.arange(240)
    r = glm.fourier_kernel(box_forward.j_plus, -6.0, 0.05, 240)
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


@pytest.mark.parametrize("side", ["right", "left"])
def test_fourier_kernel_blocks(side, monkeypatch):
    # several blocks of u, the last one partial, give the unblocked formula
    rg = RhoGrid(10.0, 64)
    rng = np.random.default_rng(3)
    s = rng.normal(size=(rg.n, 2, 2)) + 1j * rng.normal(size=(rg.n, 2, 2))
    data = ScatteringData(side=side, rho_grid=rg, S=s)
    du = 16.0 / 52
    u = -7.0 + du * np.arange(53)
    sign = 1.0 if side == "right" else -1.0
    phases = np.exp(1j * sign * np.outer(u, rg.nodes)) * (rg.step / (2 * np.pi))
    whole = np.tensordot(phases, s, axes=(1, 0))
    monkeypatch.setattr(glm, "_BLOCK_U", 16)
    assert np.abs(glm.fourier_kernel(data, -7.0, du, 53) - whole).max() < 1e-13


def hermitian_reflection(rg, m, seed):
    """Random S on ``rg`` with S(-rho) = S(rho)^H."""
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(rg.n, m, m)) + 1j * rng.normal(size=(rg.n, m, m))
    return 0.5 * (s + s[::-1].conj().transpose(0, 2, 1))


@pytest.mark.parametrize("side", ["right", "left"])
def test_fourier_kernel_matches_direct_sum_far_out(side):
    # three blocks, the last partial, on |u| up to 1.2e3 (a weakly bound
    # state's window reaches that far); du = 1/4 makes every u exact
    rg = RhoGrid(10.0, 128)
    data = ScatteringData(side=side, rho_grid=rg, S=hermitian_reflection(rg, 2, 11))
    u0, du, count = -1100.0, 0.25, 2 * glm._BLOCK_U + 1001
    r = glm.fourier_kernel(data, u0, du, count)
    sign = 1.0 if side == "right" else -1.0
    direct = np.concatenate([
        np.tensordot(np.exp(1j * sign * np.outer(u0 + du * j, rg.nodes)), data.S, axes=(1, 0))
        for j in np.array_split(np.arange(count), 8)
    ]) * (rg.step / (2 * np.pi))
    assert np.abs(r - direct).max() <= 1e-12 * np.abs(direct).max()


def test_fourier_kernel_memory_is_its_output():
    # 2e5 u samples on 512 rho-nodes: a (u, rho) phase array would take 1.6 GB
    import tracemalloc

    rg = RhoGrid(20.0, 256)
    data = ScatteringData(side="right", rho_grid=rg, S=hermitian_reflection(rg, 2, 5))
    tracemalloc.start()
    try:
        out = glm.fourier_kernel(data, -5000.0, 0.05, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 4 * 2**20


def test_assemble_M_pure_bound_state(soliton_data):
    u = -2.0 + 0.1 * np.arange(270)
    expect = 2.0 * np.exp(-u)
    assert np.abs(glm.assemble_M(soliton_data, -2.0, 0.1, 270)[:, 0, 0] - expect).max() < 1e-12


def test_assemble_M_without_states_is_fourier(bump_forward):
    grid = (-4.0, 0.1, 80)
    assert np.allclose(glm.assemble_M(bump_forward.j_plus, *grid), glm.fourier_kernel(bump_forward.j_plus, *grid))


def test_mirrored_kernel():
    # left data with reflection and a state give M_-(-u) in right form, where
    # M_-(v) = (1/2pi) int S_-(rho) exp(-i rho v) drho + N exp(tau v)
    rg = RhoGrid(20.0, 128)
    mix = np.array([[1.0, 0.4j], [0.2, -0.5]])
    s = (0.05 / (rg.nodes + 1j))[:, None, None] * mix
    weight = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    left = ScatteringData(side="left", rho_grid=rg, S=s,
                          bound_states=(BoundState(tau=1.3, weight=weight),))

    def m_minus(v):
        phases = np.exp(-1j * np.outer(v, rg.nodes)) * (rg.step / (2 * np.pi))
        return np.einsum("vr,rab->vab", phases, s) + np.exp(1.3 * v)[:, None, None] * weight

    u = -1.3 + 0.1 * np.arange(34)  # holds -1.3, 0.4 and 2.0
    assert np.abs(glm.assemble_M(left, -1.3, 0.1, 34) - m_minus(-u)).max() < 1e-12


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

    def kern(u):
        r = 0.05 * np.exp(-((u - 1.0) ** 2))[:, None, None] * (proj + 0.3 * np.eye(m))
        return r + soliton_kernel(1.0, 2.0, m, v)(u) + soliton_kernel(1.7, 0.5, m)(u)

    x0, du, count, y_end = -0.5, 0.05, 60, 20.0
    out = glm.nested_diagonal(hankel_samples(kern, x0, du, y_end), du, count)
    n = int(round((y_end - x0) / du)) + 1
    # k = 0..3 need the head-weight correction cases; k = 50 is a late x
    for k in (0, 1, 2, 3, 50):
        ref = dense_diagonal(kern, x0 + k * du, du, n - k)
        assert np.abs(out.diag[k] - ref).max() < 1e-12
    assert out.residual < 1e-12


def reversed_system(h, du):
    """I + D [h_{i+j}] D (D^2 the Gregory weights) in reversed index order, built entry by entry."""
    n, m = (len(h) + 1) // 2, h.shape[-1]
    sw = np.sqrt(glm.gregory_weights(n, du))
    blocks = h[np.add.outer(np.arange(n), np.arange(n))] * np.outer(sw, sw)[:, :, None, None]
    return (blocks.transpose(0, 2, 1, 3).reshape(n * m, n * m) + np.eye(n * m))[::-1, ::-1]


def compact_kernel(m, cut):
    """The reflection part of ``test_nested_diagonal_matches_dense``, exactly zero past u = cut."""
    v = np.array([1.0, 0.5j])[:m]
    proj = np.outer(v, v.conj()) / np.vdot(v, v)
    return lambda u: (0.05 * np.exp(-((u - 1.0) ** 2)) * (u <= cut))[:, None, None] * (proj + 0.3 * np.eye(m))


def recorded_factorizations(monkeypatch):
    """The row count of every ``glm._cholesky`` factorization from now on, in a list."""
    rows = []
    cholesky = glm._cholesky

    def recording(a, *args):
        rows.append(a.shape[0])
        return cholesky(a, *args)

    monkeypatch.setattr(glm, "_cholesky", recording)
    return rows


@pytest.mark.parametrize("m, cut", [(1, 8.0), (2, 8.0), (2, 2.02)])
def test_nested_diagonal_factors_only_the_coupled_block(m, cut, monkeypatch):
    # no tail, and samples exactly zero past u = cut: the trailing nodes meet
    # each other only through I, and only the other nodes are factored; with
    # cut = 2.02 (between two samples) the late k lies among those nodes
    kern = compact_kernel(m, cut)
    x0, du, count, y_end = -0.5, 0.05, 60, 20.0
    h = hankel_samples(kern, x0, du, y_end)
    n = (len(h) + 1) // 2
    rows = recorded_factorizations(monkeypatch)
    out = glm.nested_diagonal(h, du, count)
    assert len(rows) == 1 and rows[0] < n * m
    for k in (0, 1, 2, 3, 50):
        ref = dense_diagonal(kern, x0 + k * du, du, n - k)
        assert np.abs(out.diag[k] - ref).max() < 1e-12
    assert out.residual < 1e-12
    exact = float(np.linalg.eigvalsh(reversed_system(h, du)).min())
    assert 0.2 * exact <= out.sigma_min_est <= 5.0 * exact


def test_a_failed_split_factorization_names_the_minor_of_the_whole_system(monkeypatch):
    # 3/sqrt(pi) exp(-u^2), zero past u = 6, is not positive definite from x = -1; the
    # Schur complement's failing row is counted from the first row of the reversed system
    from scipy.linalg import lapack

    du = 0.05
    h = hankel_samples(lambda u: (3 / np.sqrt(np.pi) * np.exp(-(u**2)) * (u <= 6.0))[:, None, None] + 0j,
                       -1.0, du, 20.0)
    _, info = lapack.zpotrf(reversed_system(h, du))
    rows = recorded_factorizations(monkeypatch)
    with pytest.raises(IllPosedDataError, match="not positive definite") as exc:
        glm.nested_diagonal(h, du, 1)
    assert info > 0 and f"(info {info})" in str(exc.value)
    assert info > (len(h) + 1) // 2 - rows[0]  # the failure lies in the factored block


@pytest.mark.parametrize("case", ["split", "heavy identity columns", "tail", "rank-one tail alone"])
def test_one_norm_rule_is_the_norm_of_the_whole_system(case):
    # the rule reads the samples alone; the oracle sums the moduli of the whole
    # Hermitian system, the columns of the nodes coupled only through I included
    du = 0.05
    rng = np.random.default_rng(4)
    h = hankel_samples(compact_kernel(2, 8.0), -0.5, du, 20.0)
    if case == "heavy identity columns":
        # h_{2n-4} = h_{2n-3} = -20 I: the last node is coupled only through I, and its
        # columns outweigh every built row's, whose own diagonal |1 + w h| nearly cancels
        n = 20
        h = np.zeros((2 * n - 1, 2, 2), dtype=complex)
        h[2 * n - 4 : 2 * n - 2] = -20.0 * np.eye(2)
    full = reversed_system(h, du)
    s = identity_nodes(h)
    if case in ("split", "heavy identity columns"):
        built = glm._hankel_system(h[::-1, ::-1, ::-1], du, s)
        assert s > 0
        assert np.abs(built[2 * s :] - full[2 * s :]).max() < 1e-15
        assert np.array_equal(built[: 2 * s], np.eye(*full.shape)[: 2 * s])
        assert (np.abs(full).sum(axis=0).argmax() < 2 * s) == (case == "heavy identity columns")
        rule = glm._one_norm(h, du, np.zeros((len(full), 0)))
    else:
        # the tail term D P (D P)^H, with dp in natural order: the rule is an upper bound,
        # exact for a rank-one tail alone
        rank, h = (2, h) if case == "tail" else (1, np.zeros_like(h))
        dp = rng.normal(size=(len(full), rank)) + 1j * rng.normal(size=(len(full), rank))
        full = reversed_system(h, du) + dp[::-1] @ dp[::-1].conj().T
        rule = glm._one_norm(h, du, dp)
        if case == "tail":
            exact = np.abs(full).sum(axis=0).max()
            assert exact <= rule * (1 + 1e-14) and rule <= 1.5 * exact
            return
    assert abs(rule - np.abs(full).sum(axis=0).max()) <= 1e-14 * rule


def random_samples(m, n, live, seed):
    """Hermitian (2n - 1, m, m) Hankel samples, random up to index ``live`` and zero past it."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(2 * n - 1, m, m)) + 1j * rng.normal(size=(2 * n - 1, m, m))
    h[live + 1 :] = 0.0
    return 0.05 * (h + h.conj().transpose(0, 2, 1))


def identity_nodes(h):
    """The nodes that ``nested_diagonal`` finds coupled only through I, without a tail."""
    return (len(h) + 1) // 2 - (np.flatnonzero(np.any(h, axis=(1, 2)))[-1] + 2) // 2


GRAM_CASES = {
    "m = 1": lambda: hankel_samples(compact_kernel(1, 8.0), -0.5, 0.05, 20.0),
    "m = 2": lambda: hankel_samples(compact_kernel(2, 8.0), -0.5, 0.05, 20.0),
    "cut between samples": lambda: hankel_samples(compact_kernel(2, 2.02), -0.5, 0.05, 20.0),
    "3 identity nodes": lambda: random_samples(2, 30, 53, 1),
    "4 identity nodes": lambda: random_samples(1, 30, 51, 2),
}


@pytest.mark.parametrize("case", list(GRAM_CASES))
def test_displacement_gram_is_the_product_of_the_rows(case):
    # the Gram of the rows beside the identity block, by its rank-5m block-diagonal
    # recurrence, against the dense product; with 3 or 4 identity nodes the window
    # end meets the Gregory weights of the first nodes
    h, du = GRAM_CASES[case](), 0.05
    m, s = h.shape[-1], identity_nodes(h)
    assert s == {"3 identity nodes": 3, "4 identity nodes": 4}.get(case, s) and s > 0
    b = glm._hankel_system(h[::-1, ::-1, ::-1], du, s)[s * m :, : s * m]
    dense = b @ b.conj().T
    assert np.abs(glm._gram(b, h[::-1, ::-1, ::-1], du, s) - dense).max() <= 1e-14 * np.abs(dense).max()


def tail_case():
    """Samples with a bound-state tail P (n, m, r), and the tail's part of the reversed system."""
    du = 0.05
    h = hankel_samples(compact_kernel(2, 8.0), -0.5, du, 20.0)
    n = (len(h) + 1) // 2
    y = -0.5 + du * np.arange(n)
    p = np.exp(-y)[:, None, None] * np.array([[1.0], [0.5j]])
    dp = (np.sqrt(glm.gregory_weights(n, du))[:, None, None] * p).reshape(2 * n, 1)[::-1]
    return h, du, p, dp @ dp.conj().T


def near_singular_samples(gap):
    """The rank-one Hankel kernel h_k = -a r^k, and du.

    It gives the system I - a u u^T with u_j = sqrt(w_j) r^j, positive definite
    with smallest eigenvalue gap = 1 - a ||u||^2, which bounds its reciprocal
    condition.
    """
    n, du, r = 20, 0.1, 0.8
    u = np.sqrt(glm.gregory_weights(n, du)) * r ** np.arange(n)
    return (-(1.0 - gap) / (u @ u) * r ** np.arange(2 * n - 1))[:, None, None].astype(complex), du


@pytest.mark.parametrize("case", ["split", "tail", "near-singular"])
def test_condition_estimate_is_lapacks(case):
    # the estimator on LAPACK's own factor gives zpocon's ||A^-1||_1; through the numpy
    # factor, sigma_min_est = rcond * anorm moves only by the factorization's rounding,
    # which grows as eps / rcond (1.9e-11 relative at rcond 2.7e-7)
    from scipy.linalg import lapack

    p = None
    if case == "split":
        du = 0.05
        h = hankel_samples(compact_kernel(2, 8.0), -0.5, du, 20.0)
        full = reversed_system(h, du)
    elif case == "tail":
        h, du, p, tail = tail_case()
        full = reversed_system(h, du) + tail
    else:
        h, du = near_singular_samples(1e-6)
        full = reversed_system(h, du)
    anorm = np.abs(full).sum(axis=0).max()
    r, info = lapack.zpotrf(full)
    rcond, _ = lapack.zpocon(r, anorm)
    assert info == 0
    est = glm._inverse_one_norm(lambda x: lapack.zpotrs(r, x)[0], len(full))
    assert abs(1.0 / (est * anorm) / rcond - 1.0) <= 1e-12
    out = glm.nested_diagonal(h, du, 1, p)
    floor = 100 * np.finfo(float).eps / rcond
    assert abs(out.sigma_min_est / (rcond * anorm) - 1.0) <= max(1e-12, floor)
    assert (floor < 1e-12) == (case != "near-singular")


def test_condition_estimate_takes_the_alternating_stage():
    # A^-1 = diag(2, 1, ..) + 10 w w^H with w orthogonal to the ones and zero at the first
    # node: the power steps stop at column 0 (estimate 2), and only the alternating-sign
    # vector sees the rank-one part, as in zpocon (||A^-1||_1 is 41)
    from scipy.linalg import lapack

    w = np.array([0, -1, 1, -1, 1, 0], dtype=complex)
    a = np.linalg.inv(np.diag([2.0, 1, 1, 1, 1, 1]) + 10 * np.outer(w, w.conj()))
    anorm = np.abs(a).sum(axis=0).max()
    r, _ = lapack.zpotrf(a)
    rcond, _ = lapack.zpocon(r, anorm)
    est = glm._inverse_one_norm(lambda x: lapack.zpotrs(r, x)[0], 6)
    assert est == pytest.approx(250 / 9, rel=1e-12)
    assert abs(1.0 / (est * anorm) / rcond - 1.0) <= 1e-12


@pytest.mark.parametrize("case", ["split", "tail"])
def test_blocked_solve_is_the_systems_inverse(case):
    # [[I, 0], [B, L22]] as nested_diagonal forms it, applied to one and to three
    # right-hand sides; L22's order is not a multiple of the solve block
    if case == "split":
        du = 0.05
        h = hankel_samples(compact_kernel(2, 2.02), -0.5, du, 20.0)
        full, s = reversed_system(h, du), identity_nodes(h)
    else:
        h, du, _, tail = tail_case()
        full, s = reversed_system(h, du) + tail, 0
    a = full.copy()
    a[: 2 * s] = np.eye(*full.shape)[: 2 * s]
    b, a22 = a[2 * s :, : 2 * s], a[2 * s :, 2 * s :]
    a22 -= b @ b.conj().T
    solve = glm._split_solver(b, np.linalg.cholesky(a22))
    assert len(a22) % glm._SOLVE_BLOCK and (s > 0) == (case == "split")
    rng = np.random.default_rng(7)
    for shape in [(len(full),), (len(full), 3)]:
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        ref = np.linalg.solve(full, x)
        assert np.abs(solve(x) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_invert_without_states_factors_smaller_blocks(bump_forward, monkeypatch):
    # reflection only: the samples are zero past the sampling end, so each of the
    # four factorizations covers fewer rows than its system has
    systems = []
    nested = glm.nested_diagonal

    def recording(h, *args):
        systems.append((len(h) + 1) // 2 * h.shape[-1])
        return nested(h, *args)

    monkeypatch.setattr(glm, "nested_diagonal", recording)
    rows = recorded_factorizations(monkeypatch)
    glm.invert(bump_forward.j_plus, bump_forward.j_minus, grid=SpaceGrid.from_bounds(-4.0, 4.0, 0.04))
    assert len(rows) == len(systems) == 4
    assert all(r < s for r, s in zip(rows, systems))


def test_nested_diagonal_applies_the_factor_at_most_five_times(monkeypatch):
    # the estimator's first and alternating-sign vectors and the x_0 row's m columns
    # go through the factor in one blocked call; only the sign and unit-vector steps
    # between them are solved one at a time
    applied = []
    split_solver = glm._split_solver

    def counting(*args):
        solve = split_solver(*args)

        def counted(x):
            applied.append(x.shape[1:])
            return solve(x)

        return counted

    monkeypatch.setattr(glm, "_split_solver", counting)
    out = glm.nested_diagonal(hankel_samples(compact_kernel(2, 8.0), -0.5, 0.05, 20.0), 0.05, 60)
    assert len(applied) <= 5 and applied[0] == (4,)
    assert out.residual < 1e-12


def test_invert_builds_every_system_in_one_buffer(bump_forward, monkeypatch):
    # both sides are sized first, and all four systems are built in one workspace
    # of the largest system's size
    built = []
    hankel_system = glm._hankel_system

    def recording(*args):
        built.append(hankel_system(*args))
        return built[-1]

    monkeypatch.setattr(glm, "_hankel_system", recording)
    glm.invert(bump_forward.j_plus, bump_forward.j_minus, grid=SpaceGrid.from_bounds(-4.0, 4.0, 0.04))
    assert len(built) == 4 and len({id(a.base) for a in built}) == 1
    assert all(np.shares_memory(a, built[0]) for a in built)
    assert built[0].base.size == max(a.size for a in built)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults are counted on Linux")
def test_a_warm_inversion_takes_no_page_faults():
    # the workload bump: once the heap holds the inversion's working set, another
    # inversion reuses it; a fresh mapping per system would fault on every page it touches
    grid = SpaceGrid.from_bounds(-6.0, 6.0, 0.02)
    data = forward.full_forward(domain.bump_potential(grid), RhoGrid(20.0, 256))
    for _ in range(2):
        glm.invert(data.j_plus, data.j_minus, grid=grid)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    glm.invert(data.j_plus, data.j_minus, grid=grid)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 256


@pytest.mark.parametrize("gap, refused", [(1e-6, False), (1e-13, True)])
def test_nested_diagonal_refuses_a_near_singular_system(gap, refused):
    h, du = near_singular_samples(gap)
    if refused:
        with pytest.raises(IllPosedDataError, match="reciprocal condition"):
            glm.nested_diagonal(h, du, 1)
    else:
        assert glm.nested_diagonal(h, du, 1).sigma_min_est <= gap


def test_solve_zero_kernel():
    out = glm.nested_diagonal(np.zeros((201, 1, 1), complex), 0.05, 20)
    assert out.diag.shape == (20, 1, 1)
    assert np.abs(out.diag).max() == 0.0
    assert out.sigma_min_est == 1.0


def test_solve_soliton_row():
    kern = soliton_kernel()
    du = 0.05
    out = glm.nested_diagonal(hankel_samples(kern, 0.0, du, 29.0), du, 1)
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
    out = glm.nested_diagonal(hankel_samples(kern, 0.0, 0.05, 25.0), 0.05, 1)
    proj = np.full((2, 2), 0.5)
    assert np.abs(out.diag[0] + proj).max() < 1e-5


def test_separable_equals_nystrom():
    states = [(1.0, np.array([[2.0 + 0j]]))]
    x0, du, count = 0.3, 0.0125, 40
    out = glm.nested_diagonal(hankel_samples(soliton_kernel(), x0, du, 28.3), du, count)
    _, diag = solitons.separable_potential_values(states, x0 + du * np.arange(count))
    assert np.abs(out.diag - diag).max() < 1e-8


def test_transform_kernel_and_recover(soliton_data):
    kern = soliton_kernel()
    xs = np.arange(0.0, 4.0 + 1e-9, 0.05)
    out = glm.nested_diagonal(hankel_samples(kern, 0.0, 0.05, 29.0), 0.05, xs.size)
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
    calls = recorded_factorizations(monkeypatch)
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
        bound_states=(BoundState(tau=1.0, weight=np.array([[50.0 + 0j]])),),
    )
    grid = SpaceGrid.from_bounds(-5.0, 5.0, 0.05)
    with pytest.raises(InconsistentDataError):
        glm.invert(soliton_data, bad_left, grid=grid)


@pytest.fixture(scope="module")
def mixed_forward():
    """2x2 potential with reflection and one bound state, and its forward data."""
    from mstl import forward
    from mstl.domain import SampledPotential

    grid = SpaceGrid.from_bounds(-8.0, 8.0, 0.04)
    v = np.array([1.0, 0.5j])
    v = v / np.linalg.norm(v)
    proj = np.outer(v, v.conj())

    def profile(x):
        bump = 0.6 * np.exp(-((x - 0.8) ** 2) / 0.8) * np.array([[1.0, 0.3], [0.3, 0.5]])
        return bump - 1.8 / np.cosh(1.2 * (x + 0.5)) ** 2 * proj

    q = SampledPotential.from_profile(grid, profile)
    return q, forward.full_forward(q, RhoGrid(30.0, 512))


def test_roundtrip_matrix_with_reflection_and_bound_state(mixed_forward):
    # reflection and a bound state in one 2x2 potential: the kernel mixes the
    # Fourier part with the bound-state exponentials on both sides
    q, fwd = mixed_forward
    grid = q.grid
    assert len(fwd.j_plus.taus) == 1
    out = glm.invert(fwd.j_plus, fwd.j_minus, grid=grid)
    diff = np.abs(out.potential.values - q.values).max(axis=(1, 2))
    ref = np.abs(q.values).max(axis=(1, 2))
    rel = np.trapezoid(diff, dx=grid.dx) / np.trapezoid(ref, dx=grid.dx)
    assert rel <= 5e-3


def long_window_potential(data, xs, dx, y_end):
    """Q on ``xs`` from the right-form equation with the whole kernel, bound-state
    tails included, discretized node by node out to ``y_end`` (no closed-form tail)."""
    du = 2.0 * dx
    ext = xs[0] + dx * np.arange(-2, xs.size + 2)
    diag = np.empty((ext.size, data.m, data.m), dtype=complex)
    for r in (0, 1):
        n = int(np.ceil((y_end - ext[r]) / du)) + 1
        h = glm.assemble_M(data, 2.0 * ext[r], du, 2 * n - 1)
        diag[r::2] = glm.nested_diagonal(h, du, ext[r::2].size).diag
    dk = (-diag[4:] + 8 * diag[3:-1] - 8 * diag[1:-3] + diag[:-4]) / (12 * dx)
    q = -2.0 * dk
    return 0.5 * (q + q.conj().transpose(0, 2, 1))


def sech_well_forward():
    # -tau (tau + 1) sech^2 x with tau = 0.7: one state at tau and nonzero reflection
    from mstl import forward
    from mstl.domain import SampledPotential

    grid = SpaceGrid.from_bounds(-6.0, 6.0, 0.04)
    q = SampledPotential.from_profile(grid, lambda x: -0.7 * 1.7 / np.cosh(x) ** 2 * np.ones((1, 1)))
    return q, forward.full_forward(q, RhoGrid(30.0, 512))


@pytest.mark.parametrize("case", ["mixed", "sech"])
def test_closed_form_tail_matches_long_window(case, mixed_forward):
    # eliminating the bound-state tail past the reflection window is exact:
    # the plus side agrees with the tail discretized out to |M| ~ 1e-13
    q, fwd = mixed_forward if case == "mixed" else sech_well_forward()
    assert len(fwd.j_plus.taus) == 1
    grid = q.grid
    out = glm.invert(fwd.j_plus, fwd.j_minus, grid=grid)
    plus = grid.xs >= -1.0 - 1e-12
    y_end = 30.0 / min(fwd.j_plus.taus)
    ref = long_window_potential(fwd.j_plus, grid.xs[plus], grid.dx, y_end)
    right = grid.xs[plus] > 2 * grid.dx  # past the cross-fade the output is the plus side
    assert np.abs(out.potential.values[plus][right] - ref[right]).max() < 1e-8


def test_soliton_systems_end_with_the_targets(monkeypatch):
    # S = 0: the kernel window holds no Fourier part, so every factorization
    # is count + 7 nodes long, and Q is the Hirota two-soliton times the projector
    from tests.test_solitons import hirota_two_soliton

    v = np.array([1.0, 1j]) / np.sqrt(2.0)
    proj = np.outer(v, v.conj())
    rg = RhoGrid(20.0, 256)
    data = ScatteringData(
        side="right", rho_grid=rg, S=np.zeros((rg.n, 2, 2), complex),
        bound_states=(BoundState(1.0, 2.0 * proj), BoundState(2.0, 8.0 * proj)),
    )
    shapes = recorded_factorizations(monkeypatch)
    grid = SpaceGrid.from_bounds(-2.0, 2.0, 0.02)
    out = glm.invert(data, grid=grid)
    # each side solves the 151 nodes within the overlap plus two past each end
    ext = int(np.sum(grid.xs >= -1.0 - 1e-12)) + 4
    counts = [(ext + 1) // 2, ext // 2]
    assert shapes == [2 * (c + 7) for c in counts] * 2
    exact = hirota_two_soliton(grid.xs, (1.0, 2.0), (2.0, 8.0))[:, None, None] * proj
    assert np.abs(out.potential.values - exact).max() < 1e-4 * np.abs(exact).max()
    assert out.residual_max < 1e-12


def test_roundtrip_box(box_setup, box_forward):
    grid, box, _ = box_setup
    # the step edges put spectral content out to the window edge; the solve
    # grid du = 2 dx must resolve it (Nyquist pi/du above the effective bandwidth)
    out = glm.invert(box_forward.j_plus, box_forward.j_minus, grid=grid)
    diff = np.abs(out.potential.values - box.values).max(axis=(1, 2))
    ref = np.abs(box.values).max(axis=(1, 2))
    rel = np.trapezoid(diff, dx=grid.dx) / np.trapezoid(ref, dx=grid.dx)
    assert rel <= 0.02
