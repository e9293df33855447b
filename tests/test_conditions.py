import numpy as np
import pytest

from mstl import conditions, domain, forward, solitons
from mstl.domain import BoundState, RhoGrid, ScatteringData


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
        bound_states=(BoundState(tau=1.0, weight=np.diag([1.0, -0.1]).astype(complex), side="right"),),
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
    assert "reflection_norm_below_one" in report.failed_names()


def test_connect_reflectionless():
    rg = RhoGrid(8.0, 32)
    weight = np.array([[2.0 + 0j]])
    data = ScatteringData(
        side="right", rho_grid=rg, S=np.zeros((rg.n, 1, 1), complex),
        bound_states=(BoundState(tau=1.0, weight=weight, side="right"),),
    )
    chain = solitons.build_projector_chain([(1.0, weight)])
    d_of = solitons.reflectionless_D(chain)
    residues = conditions.residues_from_evaluator(d_of, [1.0])
    # scalar: R_+ = 2i, so N_- = (2i) (1/2) (-2i) = 2
    assert np.abs(residues[0].R_plus - 2j).max() < 1e-10
    left = conditions.connect_left_from_right(data, d_of(rg.nodes.astype(complex)), residues)
    assert np.abs(left.S).max() < 1e-14
    assert abs(left.bound_states[0].weight[0, 0] - 2.0) < 1e-9
    assert domain.psd_margin(left.bound_states[0].weight) >= -1e-12


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


def test_scalar_D_trivial_cases():
    rg = RhoGrid(8.0, 128)
    one_state = ScatteringData(
        side="right", rho_grid=rg, S=np.zeros((rg.n, 1, 1), complex),
        bound_states=(BoundState(tau=1.0, weight=np.array([[2.0 + 0j]]), side="right"),),
    )
    d_ev = conditions.scalar_D(one_state)
    z = np.array([0.5 + 0.5j, 2.0 + 0j, 10j])
    expect = (z - 1j) / (z + 1j)
    assert np.abs(d_ev(z)[:, 0, 0] - expect).max() < 1e-12

    no_states = zero_data(rho_grid=rg)
    d_one = conditions.scalar_D(no_states)
    assert np.abs(d_one(z)[:, 0, 0] - 1.0).max() < 1e-12


def test_scalar_D_box_matches_forward(box_forward):
    d_ev = conditions.scalar_D(box_forward.j_plus)
    nodes = box_forward.j_plus.rho_grid.nodes
    mine = d_ev(nodes.astype(complex))[:, 0, 0]
    ref = box_forward.coefficients.D[:, 0, 0]
    assert (np.abs(mine - ref) / np.abs(ref)).max() < 1e-3
    # modulus identity |D|^{-2} = 1 - |S|^2
    mod = 1.0 / np.abs(mine) ** 2 - (1.0 - np.abs(box_forward.j_plus.S[:, 0, 0]) ** 2)
    assert np.abs(mod).max() < 1e-3


def test_scalar_D_rejects_matrix_data(bump_forward):
    with pytest.raises(domain.ValidationError):
        conditions.scalar_D(bump_forward.j_plus)


def test_condition_B_reflectionless_passes(soliton_data):
    chain = solitons.build_projector_chain([(1.0, np.array([[2.0 + 0j]]))])
    report = conditions.check_condition_B_numeric(solitons.reflectionless_D(chain), soliton_data)
    assert report.passed


def test_condition_B_scalar_box_passes(box_forward):
    d_ev = conditions.scalar_D(box_forward.j_plus)
    report = conditions.check_condition_B_numeric(d_ev, box_forward.j_plus)
    assert report.passed
    assert report.item("modulus_identity").value < 1e-3


def test_condition_B_flags_broken_modulus(box_forward):
    data = ScatteringData(side="right", rho_grid=box_forward.j_plus.rho_grid,
                          S=box_forward.j_plus.S)
    eye = np.eye(1, dtype=complex)

    def identity_D(z):
        z = np.atleast_1d(np.asarray(z, complex))
        return np.broadcast_to(eye, z.shape + (1, 1)).copy()

    report = conditions.check_condition_B_numeric(identity_D, data)
    item = report.item("modulus_identity")
    assert not item.passed
    expected = np.abs(np.abs(data.S[:, 0, 0]) ** 2).max()
    assert item.value == pytest.approx(expected, rel=1e-10)


def test_forward_data_pass_both_conditions(box_forward):
    # necessity, numerically: true scattering data admit a valid denominator
    assert conditions.check_condition_A(box_forward.j_plus).passed
    d_ev = conditions.scalar_D(box_forward.j_plus)
    assert conditions.check_condition_B_numeric(d_ev, box_forward.j_plus).passed
