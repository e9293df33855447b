"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run standalone with `pytest tests/test_acceptance.py -v -s`.  Criteria are
oracle- and property-based at desk scale; every tolerance is pinned here.
"""

import time

import numpy as np
import pytest

from mstl import conditions, domain, forward, glm, kdv, solitons
from mstl.domain import BoundState, RhoGrid, ScatteringData, SpaceGrid
from tests.conftest import box_oracle

_shared = {}


def _report(number, name, ok, detail):
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_01_zero_potential_exactness():
    t0 = time.monotonic()
    grid = SpaceGrid.from_bounds(-3.0, 3.0, 0.02)
    zero = domain.zero_potential(grid, dim=2)
    rho_grid = RhoGrid(20.0, 256)
    fwd = forward.full_forward(zero, rho_grid)
    s_max = float(np.abs(fwd.j_plus.S).max() + np.abs(fwd.j_minus.S).max())
    eye = np.eye(2)
    coeff_defect = max(
        float(np.abs(fwd.coefficients.A - eye).max()),
        float(np.abs(fwd.coefficients.D - eye).max()),
    )
    n_states = len(fwd.j_plus.bound_states)

    data = ScatteringData(side="right", rho_grid=rho_grid, S=np.zeros((rho_grid.n, 2, 2), complex))
    out = glm.invert(data, grid=grid)
    q_max = float(np.abs(out.potential.values).max())
    elapsed = time.monotonic() - t0
    ok = s_max <= 1e-10 and coeff_defect <= 1e-10 and n_states == 0 and q_max <= 1e-10 and elapsed < 1.0
    _report(1, "zero-potential exactness", ok,
            f"|S|={s_max:.1e} |A-I|,|D-I|<={coeff_defect:.1e} states={n_states} "
            f"|Q|={q_max:.1e} in {elapsed:.2f}s")


def test_criterion_02_algebraic_identities():
    t0 = time.monotonic()
    grid = SpaceGrid.from_bounds(-6.0, 6.0, 0.02)
    pot = domain.random_potential(grid, dim=2, seed=7)
    rho_grid = RhoGrid(20.0, 256)  # 512 nodes
    c = forward.scattering_coefficients(pot, rho_grid)
    herm = lambda v: v.conj().transpose(0, 2, 1)
    flip = slice(None, None, -1)
    eye = np.eye(2)
    defects = {
        "unitarity": float(np.abs(herm(c.A) @ c.A - eye - herm(c.B) @ c.B).max()),
        "cross": float(np.abs(herm(c.B[flip]) @ c.A - herm(c.A[flip]) @ c.B).max()),
        "AD": float(np.abs(c.A - herm(c.D[flip])).max()),
        "BC": float(np.abs(c.B + herm(c.C)).max()),
    }
    elapsed = time.monotonic() - t0
    ok = all(v <= 1e-6 for v in defects.values()) and elapsed < 30.0
    detail = " ".join(f"{k}={v:.1e}" for k, v in defects.items())
    _report(2, "algebraic identities", ok, f"{detail} in {elapsed:.1f}s")


def test_criterion_03_box_oracle(box_setup, box_forward):
    _, _, rho_grid = box_setup
    probes = np.arange(0, rho_grid.n, rho_grid.n // 64)[:64]
    a_or, b_or = box_oracle(rho_grid.nodes[probes])
    d_or = np.conj(box_oracle(-rho_grid.nodes[probes])[0])
    s_plus_or = -np.conj(b_or) / d_or
    err_a = float(np.abs(box_forward.coefficients.A[probes, 0, 0] - a_or).max())
    err_s = float(np.abs(box_forward.j_plus.S[probes, 0, 0] - s_plus_or).max())
    ok = err_a <= 1e-6 and err_s <= 1e-6
    _report(3, "scalar box oracle", ok, f"|A-oracle|={err_a:.1e} |S-oracle|={err_s:.1e} at 64 nodes")


def test_criterion_04_one_soliton_closed_form(soliton_data):
    grid = SpaceGrid.from_bounds(-8.0, 8.0, 0.02)
    out = glm.invert(soliton_data, grid=grid)
    _shared["soliton_sigma"] = out.sigma_min_est
    exact = -2.0 / np.cosh(grid.xs) ** 2
    err_scalar = float(np.abs(out.potential.values[:, 0, 0] - exact).max())

    v = np.array([1.0, 1.0]) / np.sqrt(2)
    proj = np.outer(v, v)
    rho_grid = soliton_data.rho_grid
    mat_data = ScatteringData(
        side="right", rho_grid=rho_grid, S=np.zeros((rho_grid.n, 2, 2), complex),
        bound_states=(BoundState(tau=1.0, weight=2.0 * proj),),
    )
    out2 = glm.invert(mat_data, grid=grid)
    err_mat = float(np.abs(out2.potential.values - exact[:, None, None] * proj).max())
    ok = err_scalar <= 1e-4 and err_mat <= 1e-4
    _report(4, "one-soliton closed form", ok, f"scalar err={err_scalar:.1e} projector err={err_mat:.1e}")


def _bump_roundtrip(dx, rho_max, n_half):
    grid = SpaceGrid.from_bounds(-8.0, 8.0, dx)
    bump = domain.bump_potential(grid)
    fwd = forward.full_forward(bump, RhoGrid(rho_max, n_half))
    out = glm.invert(fwd.j_plus, fwd.j_minus, grid=grid)
    diff = np.abs(out.potential.values - bump.values).max(axis=(1, 2))
    ref = np.abs(bump.values).max(axis=(1, 2))
    rel = float(np.trapezoid(diff, dx=dx) / np.trapezoid(ref, dx=dx))
    return rel, out


def test_criterion_05_bump_roundtrip(bump_setup, bump_forward):
    t0 = time.monotonic()
    grid, bump, _ = bump_setup
    out = glm.invert(bump_forward.j_plus, bump_forward.j_minus, grid=grid)
    _shared["bump_sigma"] = out.sigma_min_est
    diff = np.abs(out.potential.values - bump.values).max(axis=(1, 2))
    ref = np.abs(bump.values).max(axis=(1, 2))
    rel = float(np.trapezoid(diff, dx=grid.dx) / np.trapezoid(ref, dx=grid.dx))

    rel_half, _ = _bump_roundtrip(0.01, 80.0, 1024)
    ratio = rel_half / rel
    elapsed = time.monotonic() - t0
    # refinement must improve the error by about a factor two or better
    # (30% slack on the halving; faster-than-halving convergence accepted)
    ok = rel <= 0.02 and rel > 1e-9 and ratio <= 0.65 and elapsed < 300.0
    _report(5, "bump roundtrip", ok,
            f"rel L1={rel:.2e}, refined={rel_half:.2e}, ratio={ratio:.2f}, {elapsed:.0f}s")


def test_criterion_06_two_soliton_bound_states():
    states = [(1.0, np.array([[2.0 + 0j]])), (2.0, np.array([[8.0 + 0j]]))]
    grid = SpaceGrid.from_bounds(-14.0, 14.0, 0.01)
    pot = solitons.separable_glm_solve(states, grid)
    fwd = forward.full_forward(pot, RhoGrid(10.0, 256))
    s_max = float(np.abs(fwd.j_plus.S).max())
    tau_err = max(abs(b.tau - t) for b, (t, _) in zip(fwd.j_plus.bound_states, states))
    w_err = max(
        float(np.abs(b.weight - n).max() / np.abs(n).max())
        for b, (_, n) in zip(fwd.j_plus.bound_states, states)
    )
    ok = len(fwd.j_plus.bound_states) == 2 and tau_err <= 1e-3 and w_err <= 1e-3 and s_max <= 1e-3
    _report(6, "two-soliton recovery", ok,
            f"tau err={tau_err:.1e} weight rel err={w_err:.1e} |S|={s_max:.1e}")


def test_criterion_07_large_rho_asymptotics(bump_setup, bump_forward):
    _, bump, rho_grid = bump_setup
    omega = 0.5 * np.trapezoid(bump.values, dx=bump.grid.dx, axis=0)
    nodes = rho_grid.nodes

    def defect(target):
        j = int(np.argmin(np.abs(nodes - target)))
        return domain.matrix_operator_norm(
            1j * nodes[j] * (bump_forward.coefficients.A[j] - np.eye(2)) + omega
        )

    d20, d40 = defect(20.0), defect(40.0)
    ok = d40 <= 0.5 * d20
    _report(7, "large-rho asymptotics", ok, f"defect(40)={d40:.2e} <= 0.5*defect(20)={0.5 * d20:.2e}")


def test_criterion_08_left_right_connection(box_forward, bump_setup, bump_forward):
    # box and bump: nodewise reflection connection through the forward D
    errs = {}
    for name, fwd_result in (("box", box_forward), ("bump", bump_forward)):
        left = conditions.connect_left_from_right(
            fwd_result.j_plus, fwd_result.coefficients.D, []
        )
        errs[name] = float(np.abs(left.S - fwd_result.j_minus.S).max())
    s_ok = all(v <= 1e-4 for v in errs.values())

    # weight connection exercised on a potential with a bound state
    grid = SpaceGrid.from_bounds(-10.0, 10.0, 0.02)
    well = domain.sech_well(grid, tau=1.0)
    fwd = forward.full_forward(well, RhoGrid(8.0, 128))
    res = forward.residue_matrix(well, fwd.j_plus.taus[0])
    left = conditions.connect_left_from_right(fwd.j_plus, fwd.coefficients.D, [res])
    n_err = float(
        np.abs(left.bound_states[0].weight - fwd.j_minus.bound_states[0].weight).max()
        / np.abs(fwd.j_minus.bound_states[0].weight).max()
    )
    ok = s_ok and n_err <= 1e-3
    _report(8, "left-right connection", ok,
            f"S err box={errs['box']:.1e} bump={errs['bump']:.1e}, N rel err={n_err:.1e}")


def test_criterion_09_glm_uniqueness_margin(box_forward):
    sigmas = {}
    if "soliton_sigma" in _shared:
        sigmas["soliton"] = _shared["soliton_sigma"]
    if "bump_sigma" in _shared:
        sigmas["bump"] = _shared["bump_sigma"]
    grid = SpaceGrid.from_bounds(-2.0, 2.0, 0.02)
    out = glm.invert(box_forward.j_plus, box_forward.j_minus, grid=grid)
    sigmas["box"] = out.sigma_min_est
    ok = all(v >= 1e-6 for v in sigmas.values())
    detail = " ".join(f"{k}={v:.2e}" for k, v in sigmas.items())
    _report(9, "uniqueness margin", ok, detail)


def test_criterion_10_kdv_flow():
    states = [(1.0, np.array([[2.0 + 0j]]))]
    grid = SpaceGrid.from_bounds(-8.0, 20.0, 0.02)
    traj = kdv.soliton_trajectory(states, [0.0, 0.5, 1.0], grid)
    center = kdv.estimate_center(traj.potentials[2])
    center_ok = abs(center - 4.0) <= 0.04

    def residual(dx, dt):
        g = SpaceGrid.from_bounds(-8.0, 10.0, dx)
        tr = kdv.soliton_trajectory(states, [0.2 - dt, 0.2, 0.2 + dt], g)
        return kdv.kdv_residual(tr, 1)

    r1, r2 = residual(0.02, 1e-3), residual(0.01, 5e-4)
    conv_ok = 2.8 <= r1 / r2 <= 5.5

    taus = [tau for tau, _ in forward.find_bound_states(traj.potentials[2])]
    iso_ok = len(taus) == 1 and abs(taus[0] - 1.0) <= 1e-3
    ok = center_ok and conv_ok and iso_ok
    _report(10, "kdv flow", ok,
            f"center={center:.4f}, residual ratio={r1 / r2:.2f}, tau drift={abs(taus[0] - 1.0):.1e}")


def test_criterion_11_condition_validators(box_forward, bump_forward, soliton_data):
    all_pass = (
        conditions.check_condition_A(box_forward.j_plus).passed
        and conditions.check_condition_A(box_forward.j_minus).passed
        and conditions.check_condition_A(bump_forward.j_plus).passed
        and conditions.check_condition_A(bump_forward.j_minus).passed
        and conditions.check_condition_A(soliton_data).passed
    )

    chain = solitons.build_projector_chain([(1.0, np.array([[2.0 + 0j]]))])
    report_b = conditions.check_condition_B_numeric(
        (solitons.reflectionless_D(chain), chain.residues), soliton_data
    )
    b_names = ["residue_matches_weight", "large_rho_identity", "modulus_identity", "zero_limit"]
    b_ok = all(report_b.item(n).passed for n in b_names)

    # three constructed violations, each flagged at the right item
    rg = soliton_data.rho_grid
    non_psd = ScatteringData(
        side="right", rho_grid=rg, S=np.zeros((rg.n, 2, 2), complex),
        bound_states=(BoundState(tau=1.0, weight=np.diag([1.0, -0.1]).astype(complex)),),
    )
    v1 = conditions.check_condition_A(non_psd)
    v1_ok = (not v1.item("bound_state_psd").passed) and v1.item("bound_state_psd").value == pytest.approx(-0.1)

    big = box_forward.j_plus
    too_big = ScatteringData(side="right", rho_grid=big.rho_grid,
                             S=big.S * (1.3 / float(np.abs(big.S).max())))
    v2 = conditions.check_condition_A(too_big)
    v2_ok = not v2.item("reflection_norm_below_one").passed

    eye = np.eye(1, dtype=complex)

    def identity_d(z):
        z = np.atleast_1d(np.asarray(z, complex))
        return np.broadcast_to(eye, z.shape + (1, 1)).copy()

    v3 = conditions.check_condition_B_numeric((identity_d, []), box_forward.j_plus)
    v3_ok = not v3.item("modulus_identity").passed

    ok = all_pass and b_ok and v1_ok and v2_ok and v3_ok
    _report(11, "condition validators", ok,
            f"forward data pass={all_pass}, reflectionless B={b_ok}, "
            f"violations flagged={v1_ok and v2_ok and v3_ok}")
