import argparse
import json
import warnings

import numpy as np
import pytest

from mstl import cli, conditions, domain, forward, glm, kdv, solitons
from mstl.domain import BoundState, NumericsError, RhoGrid, ScatteringData, SpaceGrid
from tests.conftest import read_strict_json


@pytest.fixture()
def sample_potential():
    grid = SpaceGrid.from_bounds(-2.0, 2.0, 0.25)
    rng = np.random.default_rng(5)
    g = rng.normal(size=(grid.n, 2, 2)) + 1j * rng.normal(size=(grid.n, 2, 2))
    q = 0.5 * (g + g.conj().transpose(0, 2, 1))
    return domain.SampledPotential(grid, q)


def test_potential_csv_roundtrip(tmp_path, sample_potential):
    path = tmp_path / "pot.csv"
    cli.write_potential_csv(path, sample_potential)
    back = cli.read_potential_csv(path)
    assert back.grid.n == sample_potential.grid.n
    assert back.grid.dx == pytest.approx(sample_potential.grid.dx)
    assert np.array_equal(back.values, sample_potential.values)
    header = path.read_text().splitlines()[0]
    assert header.startswith("x,Re_Q_11,Im_Q_11")
    assert header.endswith("Re_Q_22,Im_Q_22")


def test_scattering_json_roundtrip(tmp_path):
    rg = RhoGrid(8.0, 16)
    rng = np.random.default_rng(11)
    s = rng.normal(size=(rg.n, 2, 2)) * 0.1 + 0.05j * rng.normal(size=(rg.n, 2, 2))
    data = ScatteringData(
        side="right", rho_grid=rg, S=s,
        bound_states=(BoundState(tau=1.5, weight=np.array([[2.0, 1j], [-1j, 1.0]])),),
    )
    path = tmp_path / "data.json"
    cli.write_scattering_json(path, data)
    back = cli.read_scattering_json(path)
    assert back.side == "right"
    assert np.array_equal(back.S, data.S)
    assert np.allclose(back.rho_grid.nodes, rg.nodes)
    assert back.bound_states[0].tau == 1.5
    assert np.array_equal(back.bound_states[0].weight, data.bound_states[0].weight)


# The writers before templating: the byte contract they are held to.


def _fmt(v):
    return "%.17g" % v


def _complex_to_pairs(a):
    return [[[float(a[j, k].real), float(a[j, k].imag)] for k in range(a.shape[1])]
            for j in range(a.shape[0])]


def oracle_scattering_json(data):
    doc = {
        "m": data.m,
        "side": data.side,
        "rho": [float(r) for r in data.rho_grid.nodes],
        "S": [_complex_to_pairs(s) for s in data.S],
        "bound_states": [
            {"tau": float(b.tau), "N": _complex_to_pairs(b.weight)} for b in data.bound_states
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def oracle_potential_csv(potential):
    m = potential.m
    header = ["x"]
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            header += [f"Re_Q_{j}{k}", f"Im_Q_{j}{k}"]
    lines = [",".join(header)]
    for x, q in zip(potential.grid.xs, potential.values):
        row = [_fmt(x)]
        for j in range(m):
            for k in range(m):
                row += [_fmt(q[j, k].real), _fmt(q[j, k].imag)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def oracle_trajectory_csv(traj):
    lines = ["x,t,j,k,Re,Im"]
    for t, pot in zip(traj.times, traj.potentials):
        m = pot.m
        for x, q in zip(pot.grid.xs, pot.values):
            for j in range(m):
                for k in range(m):
                    lines.append(",".join([_fmt(x), _fmt(t), str(j + 1), str(k + 1),
                                           _fmt(q[j, k].real), _fmt(q[j, k].imag)]))
    return "\n".join(lines) + "\n"


_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300,
            -1e-300, 0.1, 1e16, 1e17, 123456789.0]


def _awkward_complex(rng, shape):
    """Seeded complex entries over many decades, a third of them from _SPECIAL."""
    pairs = rng.normal(size=(*shape, 2)) * 10.0 ** rng.integers(-40, 40, size=(*shape, 2))
    mask = rng.random(pairs.shape) < 1 / 3
    pairs[mask] = rng.choice(_SPECIAL, size=mask.sum())
    return pairs.view(complex)[..., 0]  # re + 1j * im would turn a real -0.0 into 0.0


def _awkward_potential(rng, grid, m):
    """Hermitian at every node, entries copied from _awkward_complex without arithmetic."""
    # clipped: entries near 1e300 overflow the potential's weighted L1 norm check
    q = np.clip(_awkward_complex(rng, (grid.n, m, m)).view(float), -1e100, 1e100).view(complex)
    q = np.where(np.triu(np.ones((m, m), bool)), q, q.conj().transpose(0, 2, 1))
    diagonal = np.arange(m)
    q[:, diagonal, diagonal] = q[:, diagonal, diagonal].real
    return domain.SampledPotential(grid, q)


def assert_same_text(got, want):
    # pytest's own diff of two long strings is quadratic: name the first difference instead
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(map(len, (got, want))))
        pytest.fail(f"first difference at char {at}: {got[at - 40:at + 40]!r} != {want[at - 40:at + 40]!r}")


@pytest.mark.parametrize("n_states", [0, 2])
@pytest.mark.parametrize("n_rho", [2, 1024])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_scattering_json_bytes_match_the_json_oracle(tmp_path, m, n_rho, n_states):
    rng = np.random.default_rng(100 * m + n_rho + n_states)
    data = ScatteringData(
        side="left", rho_grid=RhoGrid(float(rng.uniform(1.0, 50.0)), n_rho // 2),
        S=_awkward_complex(rng, (n_rho, m, m)),
        bound_states=tuple(
            BoundState(tau=float(rng.choice([5e-324, 1e-300, 0.7, 1e300])),
                       weight=_awkward_complex(rng, (m, m)))
            for _ in range(n_states)),
    )
    path = tmp_path / "data.json"
    cli.write_scattering_json(path, data)
    assert_same_text(path.read_text(), oracle_scattering_json(data))
    back = cli.read_scattering_json(path)
    assert back.S.tobytes() == data.S.tobytes()
    for b, a in zip(back.bound_states, data.bound_states, strict=True):
        assert b.tau == a.tau and b.weight.tobytes() == a.weight.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_csv_bytes_match_the_format_oracle(tmp_path, m):
    rng = np.random.default_rng(m)
    grid = SpaceGrid(float(rng.normal()), float(rng.uniform(1e-3, 1.0)), 41)
    potential = _awkward_potential(rng, grid, m)
    cli.write_potential_csv(tmp_path / "potential.csv", potential)
    assert_same_text((tmp_path / "potential.csv").read_text(), oracle_potential_csv(potential))
    traj = kdv.KdVTrajectory(times=np.array([0.0, 0.1, 1e-310]),
                             potentials=tuple(_awkward_potential(rng, grid, m) for _ in range(3)))
    cli.write_trajectory_csv(tmp_path / "trajectory.csv", traj)
    assert_same_text((tmp_path / "trajectory.csv").read_text(), oracle_trajectory_csv(traj))


@pytest.mark.parametrize("where", ["S", "N", "tau"])
def test_non_finite_scattering_data_is_not_written(tmp_path, soliton_data, where):
    # json would spell NaN where the %r template spells nan: refused, not written
    s, weight, tau = soliton_data.S.copy(), np.array([[2.0 + 0j]]), 1.0
    if where == "S":
        s[3, 0, 0] = complex(0.0, np.nan)
    elif where == "N":
        weight[0, 0] = np.nan
    else:
        tau = np.inf
    data = ScatteringData(side="right", rho_grid=soliton_data.rho_grid, S=s,
                          bound_states=(BoundState(tau=tau, weight=weight),))
    with pytest.raises(NumericsError, match="non-finite"):
        cli.write_scattering_json(tmp_path / "data.json", data)
    assert not (tmp_path / "data.json").exists()


def test_soliton_command_writes_closed_form(tmp_path):
    out = tmp_path / "sol"
    code = cli.main([
        "soliton", "--tau", "1", "--weight", "2",
        "--x-min", "-6", "--x-max", "6", "--dx", "0.05",
        "--rho-max", "8", "--n-rho", "64",
        "--out", str(out),
    ])
    assert code == 0
    pot = cli.read_potential_csv(out / "potential.csv")
    exact = -2.0 / np.cosh(pot.grid.xs) ** 2
    assert np.abs(pot.values[:, 0, 0] - exact).max() < 1e-4
    report = json.loads((out / "report.json").read_text())
    assert report["condition_A_plus"]["passed"]


def test_forward_command_zero(tmp_path):
    out = tmp_path / "fwd"
    code = cli.main([
        "forward", "--bundled", "zero", "--dim", "2",
        "--x-min", "-2", "--x-max", "2", "--dx", "0.05",
        "--rho-max", "8", "--n-rho", "64",
        "--out", str(out),
    ])
    assert code == 0
    data = cli.read_scattering_json(out / "scattering_right.json")
    assert np.abs(data.S).max() < 1e-12
    assert data.bound_states == ()
    assert (out / "scattering_left.json").exists()
    assert (out / "potential.csv").exists()


def test_forward_outputs_deterministic(tmp_path):
    args = [
        "forward", "--bundled", "random", "--seed", "9", "--dim", "2",
        "--x-min", "-3", "--x-max", "3", "--dx", "0.05",
        "--rho-max", "12", "--n-rho", "128",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    for name in ("potential.csv", "scattering_right.json", "scattering_left.json", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_invert_command_from_soliton_data(tmp_path):
    sol = tmp_path / "sol"
    assert cli.main([
        "soliton", "--tau", "1", "--weight", "2",
        "--x-min", "-6", "--x-max", "6", "--dx", "0.05",
        "--rho-max", "8", "--n-rho", "64",
        "--out", str(sol),
    ]) == 0
    inv = tmp_path / "inv"
    code = cli.main([
        "invert", "--data", str(sol / "scattering_right.json"),
        "--x-min", "-4", "--x-max", "4", "--dx", "0.1",
        "--out", str(inv),
    ])
    assert code == 0
    pot = cli.read_potential_csv(inv / "potential.csv")
    exact = -2.0 / np.cosh(pot.grid.xs) ** 2
    assert np.abs(pot.values[:, 0, 0] - exact).max() < 5e-3


@pytest.mark.parametrize("x_min, x_max", [("2", "4"), ("-4", "-2")])
def test_invert_command_on_one_side_of_the_overlap(tmp_path, x_min, x_max):
    # the target grid lies wholly right (left) of [-1, 1]: only that side is solved
    sol = tmp_path / "sol"
    assert cli.main([
        "soliton", "--tau", "1", "--weight", "2",
        "--x-min", "-6", "--x-max", "6", "--dx", "0.05",
        "--rho-max", "8", "--n-rho", "64",
        "--out", str(sol),
    ]) == 0
    inv = tmp_path / "inv"
    code = cli.main([
        "invert", "--data", str(sol / "scattering_right.json"),
        "--x-min", x_min, "--x-max", x_max, "--dx", "0.1",
        "--out", str(inv),
    ])
    assert code == 0
    pot = cli.read_potential_csv(inv / "potential.csv")
    exact = -2.0 / np.cosh(pot.grid.xs) ** 2
    assert np.abs(pot.values[:, 0, 0] - exact).max() < 1e-4
    assert json.loads((inv / "report.json").read_text())["overlap_gap"] == 0.0


def test_roundtrip_command_zero(tmp_path):
    out = tmp_path / "rt"
    code = cli.main([
        "roundtrip", "--bundled", "zero", "--dim", "1",
        "--x-min", "-2", "--x-max", "2", "--dx", "0.05",
        "--rho-max", "6", "--n-rho", "64",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["relative_l1_error"] <= 0.02


def test_kdv_command(tmp_path):
    out = tmp_path / "kdv"
    code = cli.main([
        "kdv", "--tau", "1", "--weight", "2", "--t-max", "0.5", "--n-t", "3",
        "--x-min", "-6", "--x-max", "10", "--dx", "0.05",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["centers"][-1] == pytest.approx(2.0, abs=0.05)
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "x,t,j,k,Re,Im"
    # long form: one row per (x, t, entry)
    assert len(lines) == 1 + 3 * 321


def test_kdv_command_rank_one_weights(tmp_path):
    # rank-one weights on a window reaching x = -8, where e^{2 tau |x|}
    # dwarfs the weights' null space
    out = tmp_path / "kdv"
    code = cli.main([
        "kdv", "--tau", "1", "--weight", "2", "--tau", "2", "--weight", "8",
        "--direction", "1,1j", "--t-max", "1", "--n-t", "3",
        "--x-min", "-8", "--x-max", "40", "--out", str(out),
    ])
    assert code == 0
    assert len(json.loads((out / "report.json").read_text())["centers"]) == 3


def test_validate_command(tmp_path, soliton_data):
    path = tmp_path / "data.json"
    cli.write_scattering_json(path, soliton_data)
    assert cli.main(["validate", "--data", str(path)]) == 0

    bad = ScatteringData(
        side="right", rho_grid=soliton_data.rho_grid, S=soliton_data.S,
        bound_states=(BoundState(tau=1.0, weight=np.array([[-1.0 + 0j]])),),
    )
    bad_path = tmp_path / "bad.json"
    cli.write_scattering_json(bad_path, bad)
    assert cli.main(["validate", "--data", str(bad_path)]) == 2


def test_validate_takes_one_rank_for_a_weight_and_its_residue(tmp_path):
    # N = diag(2, -1e-9) has a range of rank 1, and so has its chain residue
    rg = RhoGrid(8.0, 32)
    data = ScatteringData(
        side="right", rho_grid=rg, S=np.zeros((rg.n, 2, 2), complex),
        bound_states=(BoundState(tau=1.0, weight=np.diag([2.0, -1e-9]).astype(complex)),),
    )
    path = tmp_path / "data.json"
    cli.write_scattering_json(path, data)
    assert cli.main(["validate", "--data", str(path)]) == 0


@pytest.mark.parametrize("low, verdict", [(-1e-7, 2), (-1e-9, 0)])
def test_one_weight_rule_for_condition_A_validate_and_invert(tmp_path, low, verdict):
    # each weight is judged against its own norm: -1e-7 lies past 1e-8 (1 + 1) for
    # diag(1, low), however large the weight 100 I of the other state
    rg = RhoGrid(8.0, 32)
    data = ScatteringData(
        side="right", rho_grid=rg, S=np.zeros((rg.n, 2, 2), complex),
        bound_states=(BoundState(tau=2.0, weight=100.0 * np.eye(2, dtype=complex)),
                      BoundState(tau=1.0, weight=np.diag([1.0, low]).astype(complex))),
    )
    path = tmp_path / "data.json"
    cli.write_scattering_json(path, data)
    item = conditions.check_condition_A(data).item("bound_state_psd")
    assert (item.value, item.tol) == (low, pytest.approx(-2e-8))
    assert item.passed == (verdict == 0)
    assert cli.main(["validate", "--data", str(path)]) == verdict
    assert cli.main(["invert", "--data", str(path), "--x-min", "-1", "--x-max", "1", "--dx", "0.05",
                     "--out", str(tmp_path / "inv")]) == verdict


@pytest.mark.parametrize("gap, verdict", [(5e-7, 0), (2e-8, 0), (5e-9, 2)])
def test_one_tau_rule_for_condition_A_validate_and_invert(tmp_path, gap, verdict):
    # taus are distinct when they lie at least 1e-8 times the largest tau apart
    rg = RhoGrid(20.0, 256)
    data = ScatteringData(
        side="right", rho_grid=rg, S=np.zeros((rg.n, 2, 2), complex),
        bound_states=(BoundState(tau=1.0, weight=np.diag([2.0, 0.0]).astype(complex)),
                      BoundState(tau=1.0 + gap, weight=np.diag([0.0, 2.0]).astype(complex))),
    )
    path = tmp_path / "data.json"
    cli.write_scattering_json(path, data)
    item = conditions.check_condition_A(data).item("bound_state_taus")
    assert (item.value, item.tol) == (pytest.approx(gap, rel=1e-6), pytest.approx(1e-8 * (1.0 + gap)))
    assert item.passed == (verdict == 0)
    assert cli.main(["validate", "--data", str(path)]) == verdict
    assert cli.main(["invert", "--data", str(path), "--x-min", "-1", "--x-max", "1", "--dx", "0.05",
                     "--out", str(tmp_path / "inv")]) == verdict


@pytest.mark.parametrize("weight", ["1e-300", "1e300"])
def test_soliton_refuses_a_state_off_the_grid(tmp_path, capsys, weight):
    # the one-soliton centre ln(N / 2 tau) / 2 tau lies near x = -345 (+345)
    out = tmp_path / "out"
    code = cli.main(["soliton", "--tau", "1", "--weight", weight, "--x-min", "-2", "--x-max", "2",
                     "--n-rho", "8", "--rho-max", "4", "--out", str(out)])
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "no mass on the grid" in err


@pytest.mark.parametrize("command", ["soliton", "kdv"])
def test_a_state_whose_closed_form_overflows_is_refused_before_any_arithmetic(tmp_path, capsys, command):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--tau", "1e300", "--weight", "2", "--tau", "2", "--weight", "8",
                         "--direction", "1,1j", "--out", str(out)])
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "tau = 1e+300" in err


@pytest.mark.parametrize("states", [["--tau", "1", "--weight", "1e300", "--tau", "2", "--weight", "8",
                                     "--direction", "1,1j"], ["--tau", "1e-300", "--weight", "2"]])
def test_kdv_refuses_a_state_off_the_grid(tmp_path, capsys, states):
    out = tmp_path / "out"
    code = cli.main(["kdv", *states, "--x-min", "-2", "--x-max", "2", "--dx", "0.05", "--t-max", "0.1",
                     "--n-t", "3", "--out", str(out)])
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "no mass on the grid" in err


@pytest.mark.parametrize("directions", [("1,1", "1e300,1e300"), ("1,0", "1e-320,0")])
def test_soliton_direction_is_scaled_before_its_norm(tmp_path, directions):
    # the norm of (1e300, 1e300) overflows, and a complex division by the
    # subnormal 1e-320 does; each direction is that of its unit-scale twin
    for direction in directions:
        assert cli.main(["soliton", "--tau", "1", "--weight", "2", "--direction", direction,
                         "--out", str(tmp_path / direction)]) == 0
    written = [(tmp_path / direction / "potential.csv").read_bytes() for direction in directions]
    assert written[0] == written[1]


@pytest.mark.parametrize("tau, code", [(5.0, 0), (20.0, 3)])
def test_invert_names_the_state_its_solve_cannot_resolve(tmp_path, capsys, tau, code):
    # at tau = 20 the state's kernel N exp(-tau u) peaks at 5e20 on the solve grid, past 1/eps
    rg = RhoGrid(8.0, 32)
    state = BoundState(tau=tau, weight=np.array([[2.0 * tau + 0j]]))
    data = ScatteringData(side="right", rho_grid=rg, S=np.zeros((rg.n, 1, 1), dtype=complex),
                          bound_states=(state,))
    path = tmp_path / "data.json"
    cli.write_scattering_json(path, data)
    assert cli.main(["invert", "--data", str(path), "--x-min", "-2", "--x-max", "2", "--dx", "0.05",
                     "--out", str(tmp_path / "inv")]) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: GLM operator not positive definite")
        assert "right data" in err and "tau = 20 " in err


@pytest.mark.parametrize("left_side, left_m, weight", [
    ("right", 1, 8.0),  # right data as the left file, off-centre soliton
    ("right", 1, 2.0),  # the same for a soliton centred at 0
    ("left", 2, 2.0),  # left data of another m
])
def test_invert_refuses_mismatched_left_data(tmp_path, capsys, left_side, left_m, weight):
    rg = RhoGrid(8.0, 32)

    def write(name, side, m):
        data = ScatteringData(
            side=side, rho_grid=rg, S=np.zeros((rg.n, m, m), complex),
            bound_states=(BoundState(tau=1.0, weight=weight * np.eye(m, dtype=complex)),),
        )
        cli.write_scattering_json(tmp_path / name, data)
        return str(tmp_path / name)

    code = cli.main(["invert", "--data", write("right.json", "right", 1),
                     "--data-left", write("left.json", left_side, left_m),
                     "--x-min", "-2", "--x-max", "2", "--dx", "0.05", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and err.count("\n") == 1


def test_invert_zeroes_the_fourier_part_past_the_sampling_limit(tmp_path):
    # the state at tau = 0.409 stretches the kernel window to u ~ 52, past
    # pi / drho = 20.1 of this rho grid, where the midpoint sum aliases
    fwd, inv = tmp_path / "fwd", tmp_path / "inv"
    assert cli.main(["forward", "--bundled", "random", "--dim", "1", "--seed", "3", "--x-min", "-4",
                     "--x-max", "4", "--n-rho", "256", "--rho-max", "20", "--out", str(fwd)]) == 0
    (tau,) = cli.read_scattering_json(fwd / "scattering_right.json").taus
    assert abs(tau - 0.409) < 1e-3
    assert cli.main(["invert", "--data", str(fwd / "scattering_right.json"),
                     "--data-left", str(fwd / "scattering_left.json"),
                     "--x-min", "-3", "--x-max", "3", "--out", str(inv)]) == 0
    q_in = cli.read_potential_csv(fwd / "potential.csv")
    q_out = cli.read_potential_csv(inv / "potential.csv")
    on = np.abs(q_in.grid.xs) <= 3.0 + 1e-9
    assert np.abs(q_in.values[on] - q_out.values).max() < 1e-4 * np.abs(q_in.values).max()


def one_state_data(tmp_path, tau, rho_grid=RhoGrid(8.0, 32)):
    """Right data of the scalar one-soliton centred at 0 (weight 2 tau), S = 0."""
    data = ScatteringData(
        side="right", rho_grid=rho_grid, S=np.zeros((rho_grid.n, 1, 1), complex),
        bound_states=(BoundState(tau=tau, weight=np.array([[2 * tau + 0j]])),),
    )
    path = tmp_path / "weak.json"
    cli.write_scattering_json(path, data)
    return path


def test_weakly_bound_state_inverts(tmp_path):
    # tau = 1e-3 puts the kernel tail near u = 2e4, but past the reflection
    # window it is closed-form: the systems stay count + 7 nodes long
    out = tmp_path / "out"
    code = cli.main(["invert", "--data", str(one_state_data(tmp_path, 1e-3)), "--x-min", "-2",
                     "--x-max", "2", "--dx", "0.05", "--out", str(out)])
    assert code == 0
    pot = cli.read_potential_csv(out / "potential.csv")
    exact = -2e-6 / np.cosh(1e-3 * pot.grid.xs) ** 2
    assert np.abs(pot.values[:, 0, 0] - exact).max() < 1e-6 * 2e-6


@pytest.mark.parametrize("tau", [7e-3, 5e-3, 2e-3])
def test_weakly_bound_state_inverts_on_the_default_grids(tmp_path, tau):
    # the CLI's rho grid and dx: the kernel tail reaches u = 2.7e3 to 8.8e3, far
    # past u_limit = 56.5, and only the samples up to u_limit are taken
    out = tmp_path / "out"
    code = cli.main(["invert", "--data", str(one_state_data(tmp_path, tau, RhoGrid(40.0, 1024))),
                     "--x-min", "-4", "--x-max", "4", "--out", str(out)])
    assert code == 0
    pot = cli.read_potential_csv(out / "potential.csv")
    exact = -2 * tau**2 / np.cosh(tau * pot.grid.xs) ** 2
    assert np.abs(pot.values[:, 0, 0] - exact).max() < 1e-6 * 2 * tau**2


def test_weak_state_inverts_to_the_roundoff_floor(tmp_path):
    # max |Q| = 2e-10 lies 560 roundoff floors 4 eps / (sigma_min dx^2) up
    out = tmp_path / "out"
    assert cli.main(["invert", "--data", str(one_state_data(tmp_path, 1e-5)), "--x-min", "-2",
                     "--x-max", "2", "--dx", "0.05", "--out", str(out)]) == 0
    pot = cli.read_potential_csv(out / "potential.csv")
    floor = 4 * np.finfo(float).eps / (read_strict_json(out / "report.json")["sigma_min_est"] * 0.05**2)
    exact = -2e-10 / np.cosh(1e-5 * pot.grid.xs) ** 2
    assert np.abs(pot.values[:, 0, 0] - exact).max() <= 2 * floor


def test_weakly_bound_state_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    # tau = 1e-6 puts the kernel tail near u = 1e7, but the Fourier part is
    # sampled only to one sample past u_limit; max |Q| = 2e-12 then lies
    # within the roundoff floor of the solve
    path = one_state_data(tmp_path, 1e-6)
    counts, transform = [], glm._transform
    monkeypatch.setattr(glm, "_transform", lambda data, *args: counts.append(args[-1]) or transform(data, *args))
    code = cli.main(["invert", "--data", str(path), "--x-min", "-2", "--x-max", "2",
                     "--dx", "0.05", "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and err.count("\n") == 1
    assert "roundoff floor" in err
    # each side's samples run from u = 2 (-1 - 2 dx) to at most 2 du past
    # u_limit: 138 of them, not the 1e8 that reach the tail
    du = 0.1
    assert counts and max(counts) <= (RhoGrid(8.0, 32).u_limit + 2.2) / du + 3


def test_oversized_glm_system_is_a_numeric_failure(tmp_path, capsys, bump_forward):
    # dx = 1e-4 on [-6, 6] needs a system of about (2 * 35000)^2 entries
    for name, data in (("right.json", bump_forward.j_plus), ("left.json", bump_forward.j_minus)):
        cli.write_scattering_json(tmp_path / name, data)
    code = cli.main(["invert", "--data", str(tmp_path / "right.json"), "--data-left", str(tmp_path / "left.json"),
                     "--x-min", "-6", "--x-max", "6", "--dx", "1e-4", "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: GLM system needs") and err.count("\n") == 1


def test_oversized_kernel_samples_are_a_numeric_failure(tmp_path, capsys, monkeypatch):
    # rho_max = 1e-6 on two nodes puts u_limit at 5.7e6: sampling the m = 2
    # kernel to the tau = 1e-6 tail up to there needs 2.26e8 entries
    rg = RhoGrid(1e-6, 2)
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    data = ScatteringData(side="right", rho_grid=rg, S=np.zeros((rg.n, 2, 2), complex),
                          bound_states=(BoundState(tau=1e-6, weight=2e-6 * np.outer(v, v.conj())),))
    cli.write_scattering_json(tmp_path / "right.json", data)
    sampled = []
    monkeypatch.setattr(glm, "_transform", lambda *args: sampled.append(args))
    code = cli.main(["invert", "--data", str(tmp_path / "right.json"), "--x-min", "-2", "--x-max", "2",
                     "--dx", "0.05", "--out", str(tmp_path / "out")])
    assert code == 3 and not sampled
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: GLM kernel samples needs 2.26e+08") and err.count("\n") == 1


def test_glm_operator_not_positive_definite_is_a_numeric_failure(tmp_path, capsys):
    # S = 3 exp(-rho^2 / 4) exceeds 1 near the origin; its kernel
    # (3 / sqrt(pi)) exp(-u^2) gives I + F an eigenvalue below zero
    rg = RhoGrid(20.0, 256)
    data = ScatteringData(side="right", rho_grid=rg, S=(3.0 * np.exp(-rg.nodes**2 / 4))[:, None, None])
    cli.write_scattering_json(tmp_path / "right.json", data)
    code = cli.main(["invert", "--data", str(tmp_path / "right.json"), "--x-min", "-2", "--x-max", "2",
                     "--out", str(tmp_path / "inv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("numeric failure: GLM operator not positive definite")


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_weights_near_the_float_limits_invert(tmp_path, scale):
    # the left weight derived from the tau = 1 weight times 1e-300 has norm
    # 1.8e301: its tail length ln(||N|| / 1e-10) / tau is finite, though
    # ||N|| / 1e-10 overflows
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    states = [(1.0, 2.0 * scale * np.outer(v, v.conj())), (2.0, 8.0 * np.outer(v, v.conj()))]
    rg = RhoGrid(20.0, 256)
    data = ScatteringData(side="right", rho_grid=rg, S=np.zeros((rg.n, 2, 2), complex),
                          bound_states=tuple(BoundState(tau=t, weight=n) for t, n in states))
    cli.write_scattering_json(tmp_path / "right.json", data)
    assert cli.main(["validate", "--data", str(tmp_path / "right.json")]) == 0
    assert cli.main(["invert", "--data", str(tmp_path / "right.json"), "--x-min", "-2", "--x-max", "2",
                     "--out", str(tmp_path / "inv")]) == 0
    pot = cli.read_potential_csv(tmp_path / "inv" / "potential.csv")
    exact, _ = solitons.separable_potential_values(states, pot.grid.xs)
    assert np.abs(pot.values - exact).max() < 1e-3


def test_validate_takes_a_weight_with_subnormal_entries(tmp_path, monkeypatch):
    # the soliton workload's right data with the tau = 1 weight times 1e-300:
    # the weight's 2e-17 imaginary diagonal roundoff becomes a subnormal 2e-317
    import importlib
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    path = tmp_path / "seeded_right.json"
    workloads.write_reflectionless_data(path, workloads.TAUS, workloads.WEIGHTS, workloads.seeded_direction(701))
    doc = json.loads(path.read_text())
    doc["bound_states"][0]["N"] = (1e-300 * np.array(doc["bound_states"][0]["N"])).tolist()
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--data", str(path), "--out", str(tmp_path / "v")]) == 0


def test_exit_codes(tmp_path):
    # missing input file -> i/o error
    assert cli.main(["invert", "--data", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 4
    # soliton without states -> validation error
    assert cli.main(["soliton", "--out", str(tmp_path / "s")]) == 2


# Odd but valid options, each run with its documented exit code; "{d}" is the
# case's output directory.  Past a spectral step 2 rho_max / n_rho of about 226
# the u-window of the kernel checks holds a single sample.
EDGE_RUNS = {
    "soliton on a coarse grid, then validate": [
        ("soliton --tau 1 --weight 2 --rho-max 1000 --n-rho 8 --out {d}/s", 0),
        # the Cauchy probe's panels grade away from its centre: a wide rectangle is exact too
        ("validate --data {d}/s/scattering_right.json --out {d}/v", 0),
    ],
    # the one-sample kernel window reads as unresolved, and no other item fails
    "forward on a coarse grid": [
        ("forward --bundled bump --x-min -3 --x-max 3 --rho-max 1000 --n-rho 8 --out {d}/f", 0),
    ],
    "forward on a wide grid": [("forward --bundled bump --n-rho 64 --rho-max 1e6 --out {d}/f", 2)],
    "roundtrip on a coarse grid": [
        ("roundtrip --bundled bump --x-min -3 --x-max 3 --rho-max 1000 --n-rho 8 --out {d}/r", 2),
    ],
    "two rho nodes": [
        ("soliton --tau 1 --weight 2 --n-rho 2 --out {d}/s", 0),
        ("validate --data {d}/s/scattering_right.json --out {d}/v", 0),
        ("forward --bundled bump --n-rho 2 --out {d}/f", 0),
        ("roundtrip --bundled bump --x-min -2 --x-max 2 --n-rho 2 --out {d}/r", 3),
    ],
    "two rho nodes of scalar data with reflection": [
        # the kernel window of the 40-wide spectral step holds 7 samples: unresolved
        ("forward --bundled box --x-min -2 --x-max 2 --n-rho 2 --out {d}/f", 0),
        # the scalar denominator needs four nodes
        ("validate --data {d}/f/scattering_right.json", 2),
        ("invert --data {d}/f/scattering_right.json --x-min -2 --x-max 2 --out {d}/i", 2),
    ],
    "kdv at one time": [("kdv --tau 1 --weight 2 --n-t 1 --out {d}/k", 0)],
    # the state tau = 1 is centred near x = -345, as ``soliton`` refuses it
    "kdv of a state off the grid": [
        ("kdv --tau 1 --weight 1e300 --tau 2 --weight 8 --direction 1,1j --x-min -2 --x-max 2 --dx 0.05 "
         "--t-max 0.1 --n-t 3 --out {d}/k", 2),
    ],
    "kdv of a state too shallow for the grid": [
        ("kdv --tau 1e-300 --weight 2 --x-min -2 --x-max 2 --dx 0.05 --t-max 0.1 --n-t 3 --out {d}/k", 2),
    ],
}


@pytest.mark.parametrize("runs", EDGE_RUNS.values(), ids=EDGE_RUNS.keys())
def test_edge_inputs_end_in_their_exit_codes(tmp_path, runs):
    for argv, code in runs:
        assert cli.main(argv.format(d=tmp_path).split()) == code, argv
    for path in tmp_path.rglob("report.json"):
        read_strict_json(path)


def _scattering_doc(soliton_data, tmp_path):
    path = tmp_path / "data.json"
    cli.write_scattering_json(path, soliton_data)
    return json.loads(path.read_text())


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("S"),
    lambda doc: doc.pop("side"),
    lambda doc: doc.pop("bound_states"),
    lambda doc: doc.update(S="abc"),
    lambda doc: doc.update(rho=None),
    lambda doc: doc.update(bound_states=[{"tau": "one", "N": [[[2.0, 0.0]]]}]),
    lambda doc: doc.update(bound_states=[{"tau": 1.0}]),
    lambda doc: doc["S"][0][0].__setitem__(0, [0.1, 0.2, 0.7]),  # a pair of three numbers
    lambda doc: doc.update(m=3),  # m disagrees with the 1x1 matrices
    lambda doc: doc["S"][1][0].__setitem__(0, [0.1]),  # ragged S
    lambda doc: doc["S"][2][0][0].__setitem__(1, float("nan")),
    lambda doc: doc["bound_states"][0].update(tau=float("inf")),
    lambda doc: doc["bound_states"][0]["N"][0][0].__setitem__(0, float("nan")),
    b'{"m": 1,',  # truncated: not JSON
    b'\xff\xfe{"m": 1}',  # not UTF-8 text
])
def test_malformed_scattering_json_is_a_validation_error(tmp_path, soliton_data, capsys, edit):
    path = tmp_path / "bad.json"
    if isinstance(edit, bytes):  # the whole file
        path.write_bytes(edit)
    else:
        doc = _scattering_doc(soliton_data, tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--data", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and err.count("\n") == 1


@pytest.mark.parametrize("potential, options", [
    ("x,Re_Q_11,Im_Q_11\n0,0,0\n0.1,abc,0\n", []),  # non-numeric cell
    ("x,Re_Q_11,Im_Q_11\n0,0,0\n0.1,0\n", []),  # ragged row
    ("x,Re_Q_11,Im_Q_11\n", []),  # header only
    (None, ["--dx", "0"]),
    (None, ["--dx", "nan"]),
    (None, ["--rho-max", "nan"]),
    (None, ["--bundled", "random", "--dim", "0"]),
    (None, ["--bundled", "zero", "--dim", "-1"]),
    (b"x,Re_Q_11,Im_Q_11\n0,0,0\n0.1,\xff,0\n", []),  # not UTF-8 text
])
def test_malformed_input_is_a_validation_error(tmp_path, capsys, potential, options):
    source = ["--bundled", "bump"]
    if potential is not None:
        path = tmp_path / "potential.csv"
        path.write_bytes(potential if isinstance(potential, bytes) else potential.encode())
        source = ["--potential", str(path)]
    code = cli.main(["forward", *source, "--x-min", "-2", "--x-max", "2", *options,
                     "--n-rho", "64", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["soliton"], ["soliton", "--direction", "1,1j"], ["kdv"]])
@pytest.mark.parametrize("states", [
    ["--tau", "1", "--weight", "2", "--tau", "1", "--weight", "3"],  # duplicate taus
    ["--tau", "1", "--weight", "-2"],  # negative weight
    ["--tau", "0", "--weight", "2"],  # zero tau
    ["--tau", "-1", "--weight", "2"],  # negative tau
    ["--tau", "1", "--weight", "2", "--direction", "1,x"],  # malformed direction
    ["--tau", "1", "--weight", "2", "--direction", "0,0"],  # zero direction
    ["--tau", "1", "--weight", "2", "--direction", "inf,1"],  # infinite direction
    ["--tau", "1", "--weight", "nan"],
    ["--tau", "1", "--weight", "inf"],
    ["--tau", "nan", "--weight", "2"],
    ["--tau", "inf", "--weight", "2"],
    ["--tau", "1", "--weight", "0"],  # zero weight
    ["--tau", "1", "--weight=-1e-9"],  # within the PSD tolerance, but an empty range
])
def test_bad_soliton_states_are_validation_errors(tmp_path, capsys, command, states):
    code = cli.main([*command, *states, "--x-min", "-2", "--x-max", "2",
                     "--dx", "0.1", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and err.count("\n") == 1


@pytest.mark.parametrize("options, option", [
    (["--n-t", "-2"], "--n-t"),
    (["--n-t", "0"], "--n-t"),
    (["--t-max", "nan"], "--t-max"),
    (["--t-max", "inf"], "--t-max"),
])
def test_bad_kdv_times_are_validation_errors(tmp_path, capsys, options, option):
    code = cli.main(["kdv", "--tau", "1", "--weight", "2", *options, "--x-min", "-2",
                     "--x-max", "2", "--dx", "0.1", "--out", str(tmp_path / "out")])
    assert code == 2 and not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {option}") and err.count("\n") == 1


@pytest.mark.parametrize("command, options", [
    (["forward"], ["--n-rho", "65"]),
    (["forward"], ["--n-rho", "0"]),
    (["soliton", "--tau", "1", "--weight", "2"], ["--n-rho", "65"]),
    (["roundtrip"], ["--n-rho", "-2"]),
    (["roundtrip"], ["--tol", "nan"]),
    (["roundtrip"], ["--tol", "inf"]),
    (["roundtrip"], ["--tol", "-0.1"]),
])
def test_bad_rho_and_tolerance_options_are_validation_errors(tmp_path, capsys, command, options):
    code = cli.main([*command, *options, "--x-min", "-2", "--x-max", "2", "--dx", "0.1",
                     "--out", str(tmp_path / "out")])
    assert code == 2 and not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {options[0]}") and err.count("\n") == 1


_GRID = {"--x-min": (-8.0, False, "float"), "--x-max": (8.0, False, "float"), "--dx": (0.02, False, "float")}
_RHO = {"--rho-max": (40.0, False, "float"), "--n-rho": (2048, False, "int")}
_STATES = {"--tau": ([], False, "float"), "--weight": ([], False, "float"), "--direction": (None, False, None)}
_OUT = {"--out": (None, True, "Path")}
_SOURCE = {"--potential": (None, False, None), "--dim": (2, False, "int"), "--seed": (0, False, "int")}


def test_cli_options_and_defaults():
    # (default, required, type) of every option, as each subcommand declared them
    # one by one before the shared groups became parent parsers
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {name: {a.option_strings[-1]: (a.default, a.required, getattr(a.type, "__name__", None))
                      for a in p._actions if a.option_strings != ["-h", "--help"]}
               for name, p in sub.choices.items()}
    assert surface == {
        "forward": {**_SOURCE, "--bundled": (None, False, None), **_GRID, **_RHO, **_OUT},
        "invert": {"--data": (None, True, None), "--data-left": (None, False, None), **_GRID, **_OUT},
        "soliton": {**_STATES, **_GRID, **_RHO, **_OUT},
        "kdv": {**_STATES, "--t-max": (1.0, False, "float"), "--n-t": (5, False, "int"), **_GRID, **_OUT},
        "roundtrip": {**_SOURCE, "--bundled": ("bump", False, None), "--tol": (0.02, False, "float"),
                      **_GRID, **_RHO, **_OUT},
        "validate": {"--data": (None, True, None), "--out": (None, False, "Path")},
    }


def test_import_leaves_spline_and_optimizer_unloaded(tmp_path):
    import os
    import subprocess
    import sys

    import mstl

    src = os.path.dirname(os.path.dirname(mstl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    box = forward.full_forward(domain.box_potential(SpaceGrid.from_bounds(-2.0, 2.0, 0.02)), RhoGrid(20.0, 128))
    cli.write_scattering_json(tmp_path / "box.json", box.j_plus)
    # the Fourier kernel of condition A is numpy's FFT alone: one call loads
    # neither scipy.signal nor scipy.fft; validating scalar data with
    # reflection takes the dilogarithm from numpy, not from scipy.special
    probe = ("import sys, numpy as np, mstl.cli; print(sorted(m for m in "
             "('scipy.interpolate', 'scipy.optimize', 'scipy.special', 'scipy.linalg', "
             "'scipy.signal', 'scipy.fft') if m in sys.modules)); "
             "from mstl.domain import RhoGrid, ScatteringData; rg = RhoGrid(10.0, 64); "
             "mstl.conditions.check_condition_A(ScatteringData(side='right', rho_grid=rg, "
             "S=(0.1 / (rg.nodes + 1j))[:, None, None])); "
             "print(sorted(m for m in ('scipy.signal', 'scipy.fft') if m in sys.modules)); "
             f"code = mstl.cli.main(['validate', '--data', {str(tmp_path / 'box.json')!r}]); "
             "print(code, sorted(m for m in ('scipy.special', 'scipy.signal', 'scipy.fft') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["[]", "[]", "validate:", "PASS", "0", "[]"]
