import numpy as np
import pytest

from mstl import conditions, domain, forward, solitons
from mstl.domain import BoundState, RhoGrid, ScatteringData
from tests.conftest import contour_residue


def _failed(report):
    """Names of the report's failed items, in order."""
    return [item.name for item in report.items if not item.passed]


def zero_data(side="right", m=1, rho_grid=None):
    rg = rho_grid or RhoGrid(8.0, 32)
    return ScatteringData(side=side, rho_grid=rg, S=np.zeros((rg.n, m, m), complex))


def test_condition_A_zero_data_passes():
    report = conditions.check_condition_A(zero_data())
    assert report.condition == "A_plus"
    assert report.passed


def test_condition_A_forward_box_passes(box_forward):
    assert conditions.check_condition_A(box_forward.j_plus).passed
    report_minus = conditions.check_condition_A(box_forward.j_minus)
    assert report_minus.condition == "A_minus"
    assert report_minus.passed


def test_condition_A_flags_non_psd_weight():
    rg = RhoGrid(8.0, 32)
    bad = ScatteringData(
        side="right", rho_grid=rg, S=np.zeros((rg.n, 2, 2), complex),
        bound_states=(BoundState(tau=1.0, weight=np.diag([1.0, -0.1]).astype(complex)),),
    )
    report = conditions.check_condition_A(bad)
    assert not report.passed
    item = report.item("bound_state_psd")
    assert not item.passed
    assert item.value == pytest.approx(-0.1)


def test_condition_A_flags_large_reflection(box_forward):
    data = box_forward.j_plus
    scaled = ScatteringData(
        side="right", rho_grid=data.rho_grid,
        S=data.S * (1.2 / np.abs(data.S).max()),
    )
    report = conditions.check_condition_A(scaled)
    assert "reflection_norm_below_one" in _failed(report)


def test_connect_reflectionless():
    rg = RhoGrid(8.0, 32)
    weight = np.array([[2.0 + 0j]])
    data = ScatteringData(
        side="right", rho_grid=rg, S=np.zeros((rg.n, 1, 1), complex),
        bound_states=(BoundState(tau=1.0, weight=weight),),
    )
    chain = solitons.build_projector_chain([(1.0, weight)])
    d_of = solitons.reflectionless_D(chain)
    # scalar: R_+ = 2i, so N_- = (2i) (1/2) (-2i) = 2
    assert np.abs(chain.residues[0] - 2j).max() < 1e-10
    left = conditions.connect_left_from_right(data, d_of(rg.nodes.astype(complex)), chain.residues)
    assert np.abs(left.S).max() < 1e-14
    assert abs(left.bound_states[0].weight[0, 0] - 2.0) < 1e-9
    assert domain.psd_margin(left.bound_states[0].weight) >= -1e-12


@pytest.mark.parametrize("reflection", [0.0, 1e-6])
def test_connect_takes_the_residues_in_bound_state_order(reflection):
    # a scalar two-soliton listed with the larger tau first; zero reflection
    # takes the chain's residues, a small one the scalar closed form.  With
    # R_+ = 2 i tau_k (tau_k + tau_j) / (tau_k - tau_j), N_- = |R_+|^2 / N_+
    # is 144 / 8 at tau = 2 and 36 / 4 at tau = 1
    rg = RhoGrid(8.0, 32)
    states = tuple(BoundState(tau=t, weight=np.array([[w + 0j]])) for t, w in ((2.0, 8.0), (1.0, 4.0)))
    data = ScatteringData(side="right", rho_grid=rg, S=np.full((rg.n, 1, 1), reflection, complex),
                          bound_states=states)
    d_of, residues = conditions.right_denominator(data)
    d_grid = d_of(rg.nodes.astype(complex))
    left = conditions.connect_left_from_right(data, d_grid, residues)
    assert left.taus == (2.0, 1.0)
    assert np.abs(np.array([b.weight[0, 0] for b in left.bound_states]) - [18.0, 9.0]).max() < 1e-9
    with pytest.raises(domain.ValidationError, match="1 residues for 2 bound states"):
        conditions.connect_left_from_right(data, d_grid, residues[:1])


def test_scalar_D_residues_match_the_contour_oracle():
    # a box of depth 6 holds two states and reflects; the closed-form residues
    # of D^-1 = prod (rho + i tau_j) / (rho - i tau_j) exp(-gamma) against a
    # ring around each pole
    grid = domain.SpaceGrid.from_bounds(-3.0, 3.0, 0.02)
    data = forward.full_forward(domain.box_potential(grid, height=-6.0), RhoGrid(10.0, 128)).j_plus
    d_of = conditions.ScalarD(data)
    taus = list(data.taus)
    assert len(taus) == 2
    gap = abs(taus[0] - taus[1])
    for tau, r in zip(taus, d_of.residues()):
        ring = contour_residue(lambda z: np.linalg.inv(d_of(z)), 1j * tau, min(tau / 2, gap / 2, 0.2))
        assert np.abs(r - ring).max() <= 1e-12 * np.abs(r).max()


def test_connect_matches_measured_left_box(box_forward):
    left = conditions.connect_left_from_right(
        box_forward.j_plus, box_forward.coefficients.D, []
    )
    assert np.abs(left.S - box_forward.j_minus.S).max() < 1e-10
    assert conditions.check_condition_A(left).passed


def test_connection_involution(box_forward):
    # applying the relation twice, with A(rho) = D(-rho)^*, returns S_+
    d = box_forward.coefficients.D
    a = box_forward.coefficients.A
    herm = lambda v: v.conj().transpose(0, 2, 1)
    s_minus = box_forward.j_minus.S
    back = -np.linalg.solve(
        herm(a[::-1]).transpose(0, 2, 1),
        (herm(a) @ herm(s_minus)).transpose(0, 2, 1),
    ).transpose(0, 2, 1)
    assert np.abs(back - box_forward.j_plus.S).max() < 1e-10


def test_dilogarithm_matches_scipy_spence():
    # Li2(w) = spence(1 - w), over random points of every scale off the cut (1, inf)
    # and on the real half-lines ScalarD takes (w <= 0, real results)
    from scipy.special import spence

    rng = np.random.default_rng(3)
    w = 10.0 ** rng.uniform(-6, 8, 20000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 20000))
    w = w[(w.real < 1) | (np.abs(w.imag) > 1e-3 * np.abs(w))]
    assert np.all(np.abs(conditions._li2(w) - spence(1 - w)) <= 1e-14 * np.abs(spence(1 - w)))
    x = -np.concatenate([np.linspace(0.0, 1.0, 101), np.geomspace(1.0, 1e10, 101)])
    li = conditions._li2(x)
    assert li.dtype == float and np.all(np.abs(li - spence(1 - x)) <= 1e-14 * np.abs(spence(1 - x)))


def test_scalar_D_trivial_cases():
    rg = RhoGrid(8.0, 128)
    one_state = ScatteringData(
        side="right", rho_grid=rg, S=np.zeros((rg.n, 1, 1), complex),
        bound_states=(BoundState(tau=1.0, weight=np.array([[2.0 + 0j]])),),
    )
    d_ev = conditions.ScalarD(one_state)
    z = np.array([0.5 + 0.5j, 2.0 + 0j, 10j])
    expect = (z - 1j) / (z + 1j)
    assert np.abs(d_ev(z)[:, 0, 0] - expect).max() < 1e-12

    no_states = zero_data(rho_grid=rg)
    d_one = conditions.ScalarD(no_states)
    assert np.abs(d_one(z)[:, 0, 0] - 1.0).max() < 1e-12


def test_scalar_D_box_matches_forward(box_forward):
    d_ev = conditions.ScalarD(box_forward.j_plus)
    nodes = box_forward.j_plus.rho_grid.nodes
    mine = d_ev(nodes.astype(complex))[:, 0, 0]
    ref = box_forward.coefficients.D[:, 0, 0]
    assert (np.abs(mine - ref) / np.abs(ref)).max() < 1e-3
    # modulus identity |D|^{-2} = 1 - |S|^2
    mod = 1.0 / np.abs(mine) ** 2 - (1.0 - np.abs(box_forward.j_plus.S[:, 0, 0]) ** 2)
    assert np.abs(mod).max() < 1e-3


def test_scalar_D_rejects_matrix_data(bump_forward):
    with pytest.raises(domain.ValidationError):
        conditions.ScalarD(bump_forward.j_plus)


def test_condition_B_reflectionless_passes(soliton_data):
    chain = solitons.build_projector_chain([(1.0, np.array([[2.0 + 0j]]))])
    report = conditions.check_condition_B_numeric(
        (solitons.reflectionless_D(chain), chain.residues), soliton_data
    )
    assert report.passed


def test_cauchy_probe_tolerance_is_the_quadratures_own(soliton_data):
    # the chain's D is analytic: its defect sits at the sum's roundoff, far below 1e-2
    d_of, residues = conditions.right_denominator(soliton_data)
    exact = conditions.check_condition_B_numeric((d_of, residues), soliton_data).item("analytic_cauchy_probe")
    assert exact.passed and exact.tol < 1e-12
    # a pole of residue 1e-6 at 0.5 + 2.2i, inside the rectangle, leaves a defect of about
    # 1e-6: inside a fixed 1e-2, but far past the roundoff and quadrature error of the sum
    report = conditions.check_condition_B_numeric(
        (lambda z: d_of(z) + (1e-6 / (np.asarray(z) - (0.5 + 2.2j)))[:, None, None], residues), soliton_data)
    item = report.item("analytic_cauchy_probe")
    assert _failed(report) == ["analytic_cauchy_probe"]
    assert 1e3 * item.tol < item.value < 1e-2


def test_condition_B_scalar_box_passes(box_forward):
    d_ev = conditions.ScalarD(box_forward.j_plus)
    report = conditions.check_condition_B_numeric((d_ev, d_ev.residues()), box_forward.j_plus)
    assert report.passed
    assert report.item("modulus_identity").value < 1e-3


def test_condition_B_flags_broken_modulus(box_forward):
    data = ScatteringData(side="right", rho_grid=box_forward.j_plus.rho_grid,
                          S=box_forward.j_plus.S)
    eye = np.eye(1, dtype=complex)

    def identity_D(z):
        z = np.atleast_1d(np.asarray(z, complex))
        return np.broadcast_to(eye, z.shape + (1, 1)).copy()

    report = conditions.check_condition_B_numeric((identity_D, []), data)
    item = report.item("modulus_identity")
    assert not item.passed
    expected = np.abs(np.abs(data.S[:, 0, 0]) ** 2).max()
    assert item.value == pytest.approx(expected, rel=1e-10)


E1 = np.diag([1.0, 0.0]).astype(complex)


@pytest.mark.parametrize("weight, residues", [
    (2.0 * E1, [2j * np.array([[0.0, 1.0], [0.0, 0.0]])]),  # rows off the weight's range
    (np.eye(2, dtype=complex), [2j * E1]),  # rank one for a weight of rank two
    (np.eye(2, dtype=complex), []),  # missing
], ids=["off_range", "rank", "missing"])
def test_condition_B_flags_each_bad_residue(weight, residues):
    # the exact pair passes; the same D with a bad residue fails that item alone
    rg = RhoGrid(8.0, 64)
    data = ScatteringData(side="right", rho_grid=rg, S=np.zeros((rg.n, 2, 2), complex),
                          bound_states=(BoundState(tau=1.0, weight=weight),))
    d_of, exact = conditions.right_denominator(data)
    assert conditions.check_condition_B_numeric((d_of, exact), data).passed
    report = conditions.check_condition_B_numeric((d_of, residues), data)
    assert _failed(report) == ["residue_matches_weight"]


def test_forward_data_pass_both_conditions(box_forward):
    # necessity, numerically: true scattering data admit a valid denominator
    assert conditions.check_condition_A(box_forward.j_plus).passed
    d_ev = conditions.ScalarD(box_forward.j_plus)
    assert conditions.check_condition_B_numeric((d_ev, d_ev.residues()), box_forward.j_plus).passed


def test_condition_A_kernel_memory_is_bounded():
    # the Fourier kernel of 2048 rho-nodes on the |u| <= 30 grid is formed in
    # blocks: the dense phase array alone would take 39 MB
    import tracemalloc

    rg = RhoGrid(20.0, 1024)
    data = ScatteringData(side="right", rho_grid=rg, S=np.zeros((rg.n, 2, 2), complex))
    tracemalloc.start()
    try:
        conditions.check_condition_A(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# one case per gating item that fails it, with the items that fail alongside
# (reflection_norm_below_one, bound_state_psd, bound_state_taus,
# residue_matches_weight and modulus_identity fail in other tests)


def _scalar(rg, s):
    return ScatteringData(side="right", rho_grid=rg, S=np.asarray(s, complex).reshape(rg.n, 1, 1))


G_GRID = RhoGrid(40.0, 256)
G_REFLECTION = 1e-3 * np.exp(-G_GRID.nodes**2)


def _symmetry_broken_at_one_node():
    # S(-rho) != S(rho)^* at one node: too narrow to move the kernel
    s = G_REFLECTION + 0j
    s[np.argmin(np.abs(G_GRID.nodes - 20.0))] += 2e-6j
    return _scalar(G_GRID, s)


def _reflection_bump_at_the_grid_edge():
    rg = RhoGrid(8.0, 64)
    return _scalar(rg, 1e-3 * np.exp(-(np.abs(rg.nodes) - 7.8) ** 2))


def _reflection_at_one_node_pair():
    # a node pair's midpoint sum is a cosine over the whole u-window
    rg = RhoGrid(10.0, 64)
    s = np.zeros(rg.n)
    s[np.argsort(np.abs(np.abs(rg.nodes) - 3.0))[:2]] = 0.3
    return _scalar(rg, s)


def _non_hermitian_weight():
    rg = RhoGrid(8.0, 32)
    weight = np.array([[1.0, 1e-3], [0.0, 1.0]], complex)
    return ScatteringData(side="right", rho_grid=rg, S=np.zeros((rg.n, 2, 2), complex),
                          bound_states=(BoundState(tau=1.0, weight=weight),))


# case -> the items it fails, the one it is named for first
A_CASES = {
    "reflection_symmetry": (_symmetry_broken_at_one_node, ["reflection_symmetry"]),
    "reflection_tail_decay": (_reflection_bump_at_the_grid_edge, ["reflection_tail_decay"]),
    # symmetric to 5e-7 <= 1e-6, yet the kernel's Hermiticity defect is 6.3e-6
    "kernel_hermitian": (lambda: _scalar(G_GRID, G_REFLECTION + 2.5e-7j), ["kernel_hermitian"]),
    "kernel_tail_decay": (_reflection_at_one_node_pair, ["kernel_tail_decay"]),
    "bound_state_hermitian": (_non_hermitian_weight, ["bound_state_hermitian"]),
}


@pytest.mark.parametrize("make, failed", A_CASES.values(), ids=A_CASES.keys())
def test_condition_A_fails_each_item(make, failed):
    assert _failed(conditions.check_condition_A(make())) == failed


B_GRID = RhoGrid(8.0, 128)
B_NODE = B_GRID.nodes[B_GRID.n_half]  # the smallest positive node


def _d(f):
    """A hand-written scalar D evaluator from a function of rho."""
    return lambda rho: f(np.asarray(rho, complex))[:, None, None]


# case -> (S on B_GRID, D, the items it fails); no bound states, so no residues
B_CASES = {
    "none": (0.0, _d(np.ones_like), []),
    # a pole at i inside the probe's rectangle; |D| = 1 on the real line
    "analytic_cauchy_probe": (0.0, _d(lambda z: (z + 1j) / (z - 1j)), ["analytic_cauchy_probe"]),
    # rho (D - I) grows like rho
    "large_rho_identity": (0.0, _d(lambda z: 1 + 1e-7 * z / (z + 1j)), ["large_rho_identity"]),
    # D vanishes next to the smallest node, so |D|^-2 is far from 1 - |S|^2 = 1
    "modulus_identity": (0.0, _d(lambda z: (z**2 - (B_NODE * (1 + 1e-8)) ** 2) / (z + 1j) ** 2),
                         ["modulus_identity"]),
    # |D|^-2 = 1 - |S|^2 with D ~ -1/rho^2 and S -> 1 at the origin
    "zero_limit": (np.sqrt(2 * B_GRID.nodes**2 + 1) / (B_GRID.nodes**2 + 1), _d(lambda z: (z + 1j) ** 2 / z**2),
                   ["zero_limit"]),
    # |S|^2 <= 1e-8 with D = I; the left kernel sits at u = -25
    "connected_left_kernel_tail": (1e-4 * np.exp(25j * B_GRID.nodes - B_GRID.nodes**2), _d(np.ones_like),
                                   ["connected_left_kernel_tail"]),
}


@pytest.mark.parametrize("s, d_of, failed", B_CASES.values(), ids=B_CASES.keys())
def test_condition_B_fails_each_item(s, d_of, failed):
    data = _scalar(B_GRID, np.broadcast_to(s, B_GRID.nodes.shape))
    assert _failed(conditions.check_condition_B_numeric((d_of, []), data)) == failed
