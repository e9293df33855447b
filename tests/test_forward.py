import math
import warnings

import numpy as np
import pytest

from mstl import domain, forward, solitons
from mstl.domain import (
    IntegrationAccuracyError,
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


SWEEP = {"plus": 0, "minus": 1}  # index of each direction in the stacked fields


def _swept(potential):
    """The swept nodes lo..hi: no forward reader asks for a field outside them."""
    lo, hi = forward._swept_nodes(potential)
    return np.arange(lo, hi + 1)


def _field(potential, rho, direction):
    """Jost field (F, F') at the swept nodes at one spectral point, shape (n, m, m) each."""
    f, p = forward._kept_fields(potential, np.array([rho], dtype=complex), (direction,), _swept(potential))
    return f[0, :, 0], p[0, :, 0]


def _bracket_with_spread(row, column):
    """Bracket of a row field (given as the column field at -conj(rho)) and a
    column field, averaged over the nodes, with its RMS spread across x."""
    values = forward._bracket(*row, *column)
    mean = values.mean(axis=0)
    return mean, float(np.sqrt(np.mean(np.abs(values - mean) ** 2)))


def test_jost_rejects_lower_half_plane(zero_pot):
    with pytest.raises(ValidationError):
        _field(zero_pot, 1.0 - 0.5j, "plus")


@pytest.mark.parametrize("rho", [0.8 + 0.6j, -0.5j])
def test_jost_rejects_rho_off_the_two_axes(zero_pot, rho):
    # sweeps run at real rho and at rho = i tau, tau >= 0, where mu^2 is real
    with pytest.raises(ValidationError, match="real rho or at rho = i tau"):
        forward._kept_fields(zero_pot, np.array([1.0, rho]), tuple(SWEEP), np.array([0]))


def test_cell_factors_match_complex_reference():
    # +-1e-9 at h = +-0.02 is on the series branch where its mu2 h^2 term shows
    mu2 = np.array([-400.0, -1.0, -1e-9, -1e-13, 0.0, 1e-13, 1e-9, 1.0, 400.0])
    h = np.array([0.02, -0.02, 0.1, -0.1])[:, None]
    got = forward._cell_factors(mu2, h)
    mu = np.sqrt(mu2.astype(complex))
    # sinh(mu h)/mu at mu = 0 is its limit h
    sl = np.where(mu2 == 0, h, np.sinh(mu * h) / np.where(mu2 == 0, 1.0, mu))
    for value, ref in zip(got, (np.cosh(mu * h), sl, mu2 * sl)):
        assert value.dtype == float and value.shape == (4, 9)
        assert np.all(np.abs(value - ref) <= 1e-14 * np.abs(ref))
    # their derivatives in mu^2: that of sinh(mu h)/mu from its power series
    # h^3 sum_k k z2^(k-1) / (2k + 1)!, z2 = mu^2 h^2, which does not cancel
    # for |z2| <= 4 and is exact in double precision by k = 30
    z2 = mu2 * h * h
    dsl = h**3 * sum(k * z2 ** (k - 1) / math.factorial(2 * k + 1) for k in range(1, 30))
    slopes = forward._cell_slopes(mu2, h, *got[:2])
    for value, ref in zip(slopes, (0.5 * h * sl, dsl, 0.5 * (sl + h * np.cosh(mu * h)))):
        assert value.dtype == float and value.shape == (4, 9)
        assert np.all(np.abs(value - ref) <= 1e-14 * np.abs(ref))


def test_jost_box_field_matches_oracle():
    grid = SpaceGrid.from_bounds(-2.0, 2.0, 0.02)
    box = domain.box_potential(grid)
    f, _ = _field(box, 2.0, "plus")
    expect = box_oracle_field(grid.xs[_swept(box)], 2.0)
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
    xs = grid.xs[_swept(box)] * (1 if direction == "plus" else -1)
    expect = box_oracle_field(xs, rho, half_width=cell_edge)
    assert np.abs(f[:, 0, 0] - expect).max() < 1e-10 * np.abs(expect).max()


def test_jost_pde_residual_small():
    grid = SpaceGrid.from_bounds(-8.0, 8.0, 0.02)
    bump = domain.bump_potential(grid)
    f, _ = _field(bump, 2.0, "plus")
    # second-difference consistency with the node-sampled equation, O(dx^2)
    lap = (f[2:] - 2 * f[1:-1] + f[:-2]) / grid.dx**2
    resid = -lap + bump.values[_swept(bump)][1:-1] @ f[1:-1] - 4.0 * f[1:-1]
    assert np.abs(resid).max() < 3e-3 * np.abs(f).max()


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

    rhos = np.array([1.3, 0.6j, 1.5])
    assert forward._swept_nodes(pot) == (0, grid.n - 1)
    f, p = forward._kept_fields(pot, rhos, tuple(SWEEP), _swept(pot))[:, SWEEP[direction]]
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
    pot = solitons.separable_glm_solve([(1.0, np.array([[2.0 + 0j]]))], grid)
    coeffs = forward.scattering_coefficients(pot, RhoGrid(8.0, 64))
    _, s_plus = forward.reflection_matrices(coeffs)
    assert np.abs(s_plus).max() <= 1e-4


def test_bracket_drift_is_an_accuracy_error():
    # a box of height 2e5 at dx = 0.02 grows the fields by about e^894 across it;
    # the fields overflow, which no finer space grid mends
    box = domain.box_potential(SpaceGrid.from_bounds(-2.0, 2.0, 0.02), height=2e5)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError, match="overflow") as err:
        forward.scattering_coefficients(box, RhoGrid(10.0, 64))
    assert not isinstance(err.value, IntegrationAccuracyError) and "refine" not in str(err.value)


@pytest.mark.parametrize("case", ["box", "bump", "two-soliton", "random m = 3"])
def test_left_edge_brackets_equal_two_sided_brackets_inside(box_setup, bump_setup, two_soliton, case):
    # the brackets do not depend on x: those of the plus field against the free
    # minus wave at the left edge are those of both swept fields at an interior node
    pot = {
        "box": box_setup[1],
        "bump": bump_setup[1],
        "two-soliton": two_soliton,
        "random m = 3": domain.random_potential(SpaceGrid.from_bounds(-6.0, 6.0, 0.02), dim=3, seed=5),
    }[case]
    rg = RhoGrid(12.0, 128)
    coeffs = forward.scattering_coefficients(pot, rg)
    cps = forward._checkpoints(pot)
    (fp, fm), (pp, pm) = forward._kept_fields(pot, rg.nodes, tuple(SWEEP), cps[cps.size // 2, None])[:, :, 0]
    two_iz = 2j * rg.nodes[:, None, None]
    scale = np.abs(coeffs.A).max(axis=(1, 2))[:, None, None]
    for got, bracket in [
        (-coeffs.A, forward._bracket(fm[::-1], pm[::-1], fp, pp)),
        (coeffs.B, forward._bracket(fm, pm, fp, pp)),
        (coeffs.D, forward._bracket(fp[::-1], pp[::-1], fm, pm)),
    ]:
        assert np.all(np.abs(got - bracket / two_iz) <= 1e-12 * scale)


@pytest.mark.parametrize("height", [10.0, 1e2, 1e3, 3e4, 1e5])
def test_high_box_barriers_pass_the_drift_gate(height):
    # the fields grow by up to e^632 across the barrier; the flux identity's
    # roundoff grows with max|F| max|F'|, and the gate scales with it; at 1e5
    # only the flux of the unscaled fields would leave double range
    box = domain.box_potential(SpaceGrid.from_bounds(-2.0, 2.0, 0.02), height=height)
    rg = RhoGrid(10.0, 64)
    coeffs = forward.scattering_coefficients(box, rg)
    a_or, b_or = box_oracle(rg.nodes, height=height)
    assert np.abs(coeffs.A[:, 0, 0] / a_or - 1.0).max() <= 1e-12
    assert np.abs((coeffs.B[:, 0, 0] - b_or) / a_or).max() <= 1e-12


def test_coefficients_come_from_one_plus_sweep(bump_setup, zero_pot, monkeypatch):
    # the minus field at the left edge of the swept range is the free wave,
    # so the real grid needs the plus sweep alone, and a zero potential none
    calls = []
    sweep = forward._sweep

    def recording(potential, rhos, directions, substeps=1, stop=None, slopes=False):
        calls.append([directions, -1])
        for item in sweep(potential, rhos, directions, substeps, stop, slopes):
            calls[-1][1] += 1
            yield item

    monkeypatch.setattr(forward, "_sweep", recording)
    forward.scattering_coefficients(bump_setup[1], RhoGrid(10.0, 64))
    forward.scattering_coefficients(zero_pot, RhoGrid(8.0, 32))
    assert calls == [[("plus",), 800], [("plus",), 0]]


def test_find_bound_states_zero(zero_pot):
    assert forward.find_bound_states(zero_pot) == []


def test_find_bound_states_sech_well():
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0)
    ((tau, rank),) = forward.find_bound_states(well)
    assert abs(tau - 1.0) < 1e-3 and rank == 1


@pytest.fixture(scope="module")
def two_soliton():
    """Two rank-one solitons (tau = 1 and 2, weights 2 and 8) on [-4, 4]."""
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    proj = np.outer(v, v.conj())
    grid = SpaceGrid.from_bounds(-4.0, 4.0, 0.025)
    return solitons.separable_glm_solve([(1.0, 2.0 * proj), (2.0, 8.0 * proj)], grid)


def _count_sweeps(monkeypatch):
    """List that gets one entry [batch of rho, loop steps] per call of the sweep routine.

    A loop step advances every sweep of the call (a plus and a minus sweep,
    or the count's one minus sweep) by one cell.
    """
    calls = []
    sweep = forward._sweep

    def counting(potential, rhos, directions, substeps=1, stop=None, slopes=False):
        calls.append([np.asarray(rhos), -1])  # the first item holds the starting nodes
        for item in sweep(potential, rhos, directions, substeps, stop, slopes):
            calls[-1][1] += 1
            yield item

    monkeypatch.setattr(forward, "_sweep", counting)
    return calls


def test_refined_taus_bracket_a_count_drop(two_soliton):
    states = forward.find_bound_states(two_soliton)
    assert [rank for _, rank in states] == [1, 1]
    for tau, _ in states:
        counts, _ = forward._count(two_soliton, [tau - 1e-8, tau + 1e-8])
        # the state lies within 1e-8 of the returned tau
        assert counts[0] > counts[1]


@pytest.mark.parametrize("node", [100, 200, 250])
def test_matching_node_roots_do_not_depend_on_the_node(two_soliton, monkeypatch, node):
    # the default matching node is 160, the middle of the 321 nodes
    middle = forward.find_bound_states(two_soliton)
    monkeypatch.setattr(forward, "_matching_node", lambda potential: node)
    moved = forward.find_bound_states(two_soliton)
    assert [rank for _, rank in moved] == [rank for _, rank in middle] == [1, 1]
    assert max(abs(a - b) for (a, _), (b, _) in zip(moved, middle)) <= 1e-12


@pytest.mark.parametrize("node", [160, 100, 250])
def test_eigenphase_slopes_are_the_derivatives_of_the_eigenphases(two_soliton, node):
    # the slopes come from the tau-derivative rows, reset with the Cayley frames;
    # central differences over 1e-5 agree to their own O(h^2) error, <= 1e-9
    taus, h = np.array([0.5, 1.3, 2.2]), 1e-5
    s = forward._frame_scale(two_soliton, taus)
    (_, _, theta, slope), up, down = (forward._matching(two_soliton, taus + d, s, node) for d in (0.0, h, -h))
    for at, slopes_at, up_at, down_at in zip(theta, slope, up[2], down[2]):
        differences = (np.sort(up_at) - np.sort(down_at)) / (2.0 * h)
        slopes = slopes_at[np.argsort(at)]
        assert np.abs(slopes - differences).max() <= 1e-8 * np.abs(slopes).max()


def _sech_wells(grid, wells, matrix=np.eye(1)):
    """The sum of -2 k^2 sech^2(k (x - c)) over the wells (c, k), times ``matrix``."""
    matrix = np.asarray(matrix, dtype=complex)
    return domain.SampledPotential.from_profile(
        grid, lambda x: sum(-2.0 * k**2 / np.cosh(k * (x - c)) ** 2 for c, k in wells) * matrix
    )


@pytest.mark.parametrize("case", [
    "two-soliton", "off-centre sech well", "deepened m = 3 random", "identity well", "separated wells",
])
def test_matching_node_count_is_the_last_node_count(two_soliton, monkeypatch, case):
    # the count from the two half sweeps' windings and W's eigenphases at any
    # node equals the count of the one minus sweep at the last node.  tau = 0
    # is left out: there a channel the potential leaves free (the two-soliton's)
    # has theta = 0 exactly only at the last node, and roundoff of either sign
    # elsewhere, so the search reads N(0) at the last node and caps every
    # other reading at it
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    if case == "two-soliton":
        pot = two_soliton
    elif case == "off-centre sech well":
        pot = _sech_wells(grid, [(-5.0, 2.0)])
    elif case == "deepened m = 3 random":
        monkeypatch.setattr(domain, "_RANDOM_AMPLITUDE", 3.0)
        grid = SpaceGrid.from_bounds(-6.0, 6.0, 0.02)
        bumps = domain.random_potential(grid, dim=3, seed=2).values
        pot = domain.SampledPotential(grid, bumps - 2.0 * np.exp(-grid.xs**2)[:, None, None] * np.eye(3))
    elif case == "identity well":
        pot = _sech_wells(grid, [(0.0, 1.0)], np.eye(2))
    else:
        pot = _sech_wells(grid, [(-7.5, 2.5), (7.5, 3.0)])
    taus = np.linspace(0.0, 1.05 * np.sqrt(-pot.cell_eigh[0].min()), 102)[1:]
    counts, _ = forward._count(pot, taus)
    assert counts[0] > counts[-1] == 0
    s = forward._frame_scale(pot, taus)
    lo, hi = forward._swept_nodes(pot)
    for node in (lo + (hi - lo) // 4, (lo + hi) // 2, lo + 3 * (hi - lo) // 4):
        assert np.array_equal(forward._matching(pot, taus, s, node)[0], counts)


@pytest.mark.parametrize("center, tau", [(-5.0, 2.0), (-6.0, 3.0), (5.5, 2.5)])
def test_off_centre_wells_are_located_by_the_matching_node_counts(monkeypatch, center, tau):
    # the crossing eigenphase is steep at the middle node, so Newton does not
    # halve its steps; the counts of each round's sections carry the search
    # without a count sweep past the first
    calls = []
    sweep = forward._sweep

    def recording(potential, rhos, directions, substeps=1, stop=None, slopes=False):
        calls.append(len(directions))
        return sweep(potential, rhos, directions, substeps, stop, slopes)

    monkeypatch.setattr(forward, "_sweep", recording)
    well = _sech_wells(SpaceGrid.from_bounds(-10.0, 10.0, 0.02), [(center, tau)])
    with pytest.warns(UserWarning, match="threshold"):
        ((located, rank),) = forward.find_bound_states(well)
    assert rank == 1 and abs(located - tau) < 1e-3
    assert calls.count(1) == 1 and calls.count(2) <= 8
    counts, _ = forward._count(well, [located - 1e-8, located + 1e-8])
    assert counts[0] > counts[1]


def test_batched_weights_equal_weights_state_by_state(two_soliton):
    states = forward.find_bound_states(two_soliton)
    batched = forward.weight_matrices(two_soliton, states)
    assert forward.weight_matrices(two_soliton, []) == []
    for state, pair in zip(states, batched):
        ((n_minus, n_plus),) = forward.weight_matrices(two_soliton, [state])
        assert np.array_equal(pair[0], n_minus) and np.array_equal(pair[1], n_plus)


def test_mirrored_cell_factors_are_bit_identical(bump_setup):
    # on the symmetric grid the factors of rho > 0 serve -rho; each half swept
    # alone has no mirror image and makes all its own factors
    _, bump, _ = bump_setup
    nodes = RhoGrid(10.0, 64).nodes
    keep = forward._checkpoints(bump)
    fields = forward._kept_fields(bump, nodes, tuple(SWEEP), keep)
    for half in (slice(None, 64), slice(64, None)):
        assert np.array_equal(fields[..., half, :, :], forward._kept_fields(bump, nodes[half], tuple(SWEEP), keep))


def _swept_alone(potential, rhos, direction):
    """{node: (F, F')} of one sweep run by itself, each node taken to the node basis on its own."""
    fields = {}
    for (node,), v, t in forward._sweep(potential, rhos, (direction,)):
        if node >= 0:
            g = (v[0] @ t[0].reshape(potential.m, -1)).reshape(t[0].shape)
            fields[node] = g[:, 0].transpose(2, 0, 1), g[:, 1].transpose(2, 0, 1)
    return fields


@pytest.mark.parametrize("case", ["two-soliton at i tau", "bump on the real grid"])
def test_stacked_sweeps_equal_each_direction_swept_alone(two_soliton, bump_setup, case):
    # the stacked pair and its batched node transform do each field's
    # arithmetic exactly as a sweep of its own does
    if case == "two-soliton at i tau":
        pot, rhos = two_soliton, 1j * np.array([0.3, 1.0, 2.0])
    else:
        pot, rhos = bump_setup[1], RhoGrid(10.0, 64).nodes
    alone = [_swept_alone(pot, rhos, direction) for direction in SWEEP]
    for keep in (forward._checkpoints(pot), _swept(pot)):
        f, p = forward._kept_fields(pot, rhos, tuple(SWEEP), keep)
        for j, fields in enumerate(alone):
            assert all(np.array_equal(f[j, k], fields[node][0]) for k, node in enumerate(keep))
            assert all(np.array_equal(p[j, k], fields[node][1]) for k, node in enumerate(keep))


@pytest.mark.parametrize("node", [160, 100, 250])
def test_stacked_half_sweeps_equal_each_half_alone(two_soliton, node):
    # halves of equal length, a longer plus half and a longer minus half, on
    # the two-soliton's 320 swept cells and on 319 (its last cell zeroed), with
    # and without the derivative rows: the Cayley readings of each half are
    # those of the half swept by itself, whose identity steps after its end
    # reach no reading
    cells = two_soliton.cell_values.copy()
    cells[-1] = 0.0
    odd = domain.SampledPotential(two_soliton.grid, two_soliton.values, cell_values=cells)
    assert forward._swept_nodes(odd) == (0, 319)
    taus = np.array([0.3, 1.0, 2.0])
    for pot in (two_soliton, odd):
        s = forward._frame_scale(pot, taus)
        for slopes in (False, True):
            for v, u, du in forward._cayley_frames(pot, taus, s, tuple(SWEEP), node, slopes):
                pass
            for j, direction in enumerate(SWEEP):
                for v_alone, u_alone, du_alone in forward._cayley_frames(pot, taus, s, (direction,), node, slopes):
                    pass
                assert np.array_equal(v[j], v_alone[0]) and np.array_equal(u[j], u_alone[0])
                assert not slopes or np.array_equal(du[j], du_alone[0])


def test_full_forward_decomposes_the_cells_once(two_soliton, monkeypatch):
    pot = solitons.separable_glm_solve([(1.0, 2.0 * np.eye(2))], two_soliton.grid)
    cells = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recording(a, *args, original=original, **kwargs):
            cells.append(np.shape(a) == pot.cell_values.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    forward.full_forward(pot, RhoGrid(10.0, 64))
    assert sum(cells) == 1


def test_full_forward_sweep_count(two_soliton, monkeypatch):
    calls = _count_sweeps(monkeypatch)
    result = forward.full_forward(two_soliton, RhoGrid(10.0, 64))
    assert len(result.j_plus.bound_states) == 2
    # 320 swept cells: the count sweep (320 steps), three rounds of stacked
    # matching-node half sweeps (160 steps each), the real-grid plus sweep
    # (320) and the stacked weight pair of all states with the tau-derivative
    # rows (320)
    assert sum(steps for _, steps in calls) == 1440


def test_full_forward_sweeps_have_real_rho_squared(two_soliton, bump_setup, monkeypatch):
    # every batch is real rho or rho = i tau, so lambda - rho^2 is real at
    # every step: the premise of real cell factors
    calls = _count_sweeps(monkeypatch)
    _, bump, _ = bump_setup
    for pot in (two_soliton, bump):
        forward.full_forward(pot, RhoGrid(10.0, 64))
    # the bump's 800 cells are stepped by its real-grid plus sweep only
    assert sum(steps for _, steps in calls) == 1440 + 800
    for rhos, _ in calls:
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
        ((tau, _),) = forward.find_bound_states(well)
    assert abs(tau - 6.0) < 5e-3


def test_count_multiplicity_of_identity_well():
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0, matrix=np.eye(2))
    counts, _ = forward._count(well, [0.5, 1.5])
    assert counts.tolist() == [2, 0]
    with pytest.warns(UserWarning, match="threshold"):
        ((tau, _),) = forward.find_bound_states(well)
    assert abs(tau - 1.0) < 1e-3


@pytest.mark.parametrize("tau2, states", [
    (1.0 + 1e-7, [(0.9999911115, 1), (0.9999912115, 1)]),
    (1.0, [(0.9999911115, 2)]),
])
def test_near_degenerate_states_are_split_by_their_crossings(tau2, states):
    # two decoupled sech wells 1e-7 apart in tau: the Newton step stops at the
    # pair, and the count just past it says it holds one of the two states
    grid = SpaceGrid.from_bounds(-8.0, 8.0, 0.02)

    def profile(x):
        return np.diag([-2.0 / np.cosh(x) ** 2, -2.0 * tau2**2 / np.cosh(tau2 * x) ** 2]).astype(complex)

    with pytest.warns(UserWarning, match="threshold"):
        found = forward.find_bound_states(domain.SampledPotential.from_profile(grid, profile))
    assert [rank for _, rank in found] == [rank for _, rank in states]
    assert np.abs(np.array([tau for tau, _ in found]) - [tau for tau, _ in states]).max() < 1e-9


def test_count_rank_two_and_rank_one_weights():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    rank2 = q[:, :2] @ np.diag([2.0, 3.0]) @ q[:, :2].conj().T
    rank1 = 8.0 * np.outer(q[:, 2] + q[:, 0], (q[:, 2] + q[:, 0]).conj()) / 2.0
    grid = SpaceGrid.from_bounds(-6.0, 6.0, 0.02)
    pot = solitons.separable_glm_solve([(1.0, rank2), (2.0, rank1)], grid)
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
    ((tau, _),) = forward.find_bound_states(well)
    r_minus = -forward.residue_matrix(well, tau).conj().T
    assert abs(r_minus[0, 0] - 2.0j) < 5e-3
    # A(i tau) = -[F_-, F_+] / (2 i rho) at rho = i tau, its own -conj(rho)
    bracket, _ = _bracket_with_spread(_field(well, 1j * tau, "minus"), _field(well, 1j * tau, "plus"))
    a_at = bracket / (2.0 * tau)
    assert matrix_operator_norm(a_at @ r_minus) < 1e-6


@pytest.mark.parametrize("center, tau", [(-6.0, 3.0), (-5.0, 2.0), (0.0, 1.0), (3.0, 1.5), (5.5, 2.5)])
def test_weights_sech_well(center, tau):
    # -2 tau^2 sech^2(tau (x - c)) has N_+ = 2 tau e^(2 tau c) and N_- = 2 tau e^(-2 tau c);
    # matched at the middle of the grid, the off-centre states' weights miss these by
    # up to 3e11 relative, from the growing mode of a Jost field far from the well
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.SampledPotential.from_profile(
        grid, lambda x: -2.0 * tau**2 / np.cosh(tau * (x - center)) ** 2 * np.eye(1, dtype=complex)
    )
    ((located, _),) = forward.find_bound_states(well)
    ((n_minus, n_plus),) = forward.weight_matrices(well, [(located, 1)])
    assert abs(n_plus[0, 0] / (2.0 * located * np.exp(2.0 * located * center)) - 1.0) < 1e-3
    assert abs(n_minus[0, 0] / (2.0 * located * np.exp(-2.0 * located * center)) - 1.0) < 1e-3
    if center == 0.0:
        assert abs(n_plus[0, 0] - 2.0) < 1e-3 and abs(n_minus[0, 0] - 2.0) < 1e-3


@pytest.mark.parametrize("wells", [((-7.5, 2.5), (7.5, 3.0)), ((-7.5, 3.0), (7.5, 2.5))])
def test_weights_of_separated_wells_of_different_depth(wells):
    # both wells are deeper than -tau^2 of the shallower state, so its cells
    # lie in two runs 15 apart; matched in the gap or at the other well, a
    # Jost field has grown its other mode by about eps e^(2 tau D) ~ 1e16 there.
    # Far apart, each state keeps its own well's weights, times T^-2 on the
    # side of the other well: T = (tau - kappa)/(tau + kappa) is that
    # reflectionless well's transmission at i tau
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    pot = domain.SampledPotential.from_profile(
        grid, lambda x: sum(-2.0 * k**2 / np.cosh(k * (x - c)) ** 2 for c, k in wells) * np.eye(1, dtype=complex)
    )
    states = forward.find_bound_states(pot)  # by tau, as the wells by depth
    weights = forward.weight_matrices(pot, states)
    own = {depth: (tau, n) for depth, (tau, _), n in zip(sorted(k for _, k in wells), states, weights)}
    for (center, depth), (other, partner) in (wells, wells[::-1]):
        (tau, (n_minus, n_plus)), kappa = own[depth], own[partner][0]
        through = ((tau + kappa) / (tau - kappa)) ** 2
        want_plus = 2.0 * tau * np.exp(2.0 * tau * center) * (through if other > center else 1.0)
        want_minus = 2.0 * tau * np.exp(-2.0 * tau * center) * (through if other < center else 1.0)
        assert abs(n_plus[0, 0] / want_plus - 1.0) < 1e-3
        assert abs(n_minus[0, 0] / want_minus - 1.0) < 1e-3


def test_weights_projector_soliton():
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    proj = np.outer(v, v.conj())
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0, matrix=proj)
    ((tau, _),) = forward.find_bound_states(well)
    ((n_minus, n_plus),) = forward.weight_matrices(well, [(tau, 1)])
    assert np.abs(n_plus - 2.0 * proj).max() < 2e-3
    assert np.abs(n_plus - n_plus.conj().T).max() < 1e-8
    assert domain.psd_margin(n_plus) > -1e-8
    for n in (n_plus, n_minus):
        assert np.linalg.matrix_rank(n, tol=1e-6 * matrix_operator_norm(n), hermitian=True) == 1


def test_weights_of_multiplicity_two_and_of_the_two_soliton(two_soliton):
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0, matrix=np.eye(2))
    with pytest.warns(UserWarning, match="threshold"):
        ((tau, rank),) = forward.find_bound_states(well)
    assert rank == 2
    for n in forward.weight_matrices(well, [(tau, rank)])[0]:
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
    states = forward.find_bound_states(box)
    assert len(states) == 13
    x = np.linspace(-1.0, 1.0, 200001)
    for tau, rank in states:
        f = box_oracle_field(x, 1j * tau, height).real
        norm = np.trapezoid(f**2, x) + (f[0] ** 2 + f[-1] ** 2) / (2.0 * tau)
        ((_, n_plus),) = forward.weight_matrices(box, [(tau, rank)])
        assert abs(n_plus[0, 0] * norm - 1.0) < 1e-6


def test_box_weights_do_not_depend_on_the_grid_width():
    # beyond the swept cells each weight's integrand is a closed-form free
    # tail, so the free cells of a wider grid change no bit
    narrow, wide = (
        domain.box_potential(SpaceGrid.from_bounds(-w, w, 0.02), height=-20.0) for w in (2.0, 10.0)
    )
    states = forward.find_bound_states(narrow)
    assert len(states) == 3 and forward.find_bound_states(wide) == states
    for got, expect in zip(forward.weight_matrices(wide, states), forward.weight_matrices(narrow, states)):
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))


def test_full_forward_reads_fields_at_swept_nodes_only(monkeypatch):
    box = domain.box_potential(SpaceGrid.from_bounds(-10.0, 10.0, 0.02), height=-20.0)
    lo, hi = forward._swept_nodes(box)
    kept, stops = [], []
    fields, sweep = forward._kept_fields, forward._sweep

    def recording(potential, rhos, directions, keep, slopes=False):
        kept.append(keep)
        return fields(potential, rhos, directions, keep, slopes)

    def stopping(potential, rhos, directions, substeps=1, stop=None, slopes=False):
        stops.append(stop)
        return sweep(potential, rhos, directions, substeps, stop, slopes)

    monkeypatch.setattr(forward, "_kept_fields", recording)
    monkeypatch.setattr(forward, "_sweep", stopping)
    result = forward.full_forward(box, RhoGrid(10.0, 64))
    # the real grid keeps its checkpoints, the weights the midpoints of the
    # runs of cells where each state lives (one run each here)
    assert len(result.j_plus.bound_states) == 3 and len(kept) == 2 and kept[1].size == 1
    assert all(np.all((lo <= keep) & (keep <= hi)) for keep in kept)
    assert all(lo <= stop <= hi for stop in stops if stop is not None)


def _even_box_state(height, half_width):
    """tau of the lowest state of a box well: k tan(k a) = tau, k^2 + tau^2 = -height."""
    from scipy.optimize import brentq

    depth = -height
    k = brentq(
        lambda k: k * np.tan(k * half_width) - np.sqrt(depth - k * k),
        0.0,
        min(np.sqrt(depth), 0.5 * np.pi / half_width) * (1 - 1e-15),
        xtol=1e-15,
    )
    return float(np.sqrt(depth - k * k))


@pytest.mark.parametrize("case", ["box of depth 50 and width 0.2", "one cell of depth 400"])
def test_a_narrow_well_keeps_its_strongly_bound_state(case):
    # the state's zero-energy conjugate point lies past the swept range, so the
    # count at tau = 0 finds it on the free tail only; the count at the first
    # positive point finds it too, so it is no threshold state
    if case == "box of depth 50 and width 0.2":
        height, half_width, grid = -50.0, 0.1, SpaceGrid.from_bounds(-4.0, 4.0, 0.02)
        pot = domain.box_potential(grid, height=height, half_width=half_width)
    else:
        height, grid = -400.0, SpaceGrid.from_bounds(-2.0, 2.0, 0.05)
        half_width = 0.5 * grid.dx
        cells = np.zeros((grid.n - 1, 1, 1), dtype=complex)
        cells[grid.n // 2] = height
        pot = domain.SampledPotential(grid, np.zeros((grid.n, 1, 1), dtype=complex), cell_values=cells)
    _, conjugate = forward._count(pot, [0.0])
    assert conjugate[0] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((tau, rank),) = forward.find_bound_states(pot)
    assert rank == 1 and abs(tau - _even_box_state(height, half_width)) <= 1e-12


@pytest.mark.parametrize("tau", [1.5, 1.05])
def test_weights_refuse_a_tau_without_a_state(tau):
    # the ring of radius 0.2 around 1.05 still enclosed the pole at 1
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0)
    with pytest.raises(NumericsError, match=f"tau = {tau:g}"):
        forward.weight_matrices(well, [(tau, 1)])
    with pytest.raises(NumericsError, match=f"tau = {tau:g}"):
        forward.residue_matrix(well, tau)


def test_full_forward_zero(zero_pot):
    result = forward.full_forward(zero_pot, RhoGrid(8.0, 32))
    assert np.abs(result.j_plus.S).max() < 1e-12
    assert result.j_plus.bound_states == ()
    assert result.j_minus.bound_states == ()


def test_full_forward_one_soliton():
    grid = SpaceGrid.from_bounds(-12.0, 12.0, 0.01)
    pot = solitons.separable_glm_solve([(1.0, np.array([[2.0 + 0j]]))], grid)
    result = forward.full_forward(pot, RhoGrid(8.0, 128))
    assert np.abs(result.j_plus.S).max() < 3e-4
    assert len(result.j_plus.bound_states) == 1
    state = result.j_plus.bound_states[0]
    assert abs(state.tau - 1.0) < 1e-4
    assert abs(state.weight[0, 0] - 2.0) < 1e-3
