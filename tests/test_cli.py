import json

import numpy as np
import pytest

from mstl import cli, domain
from mstl.domain import BoundState, RhoGrid, ScatteringData, SpaceGrid


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
        bound_states=(BoundState(tau=1.5, weight=np.array([[2.0, 1j], [-1j, 1.0]]), side="right"),),
    )
    path = tmp_path / "data.json"
    cli.write_scattering_json(path, data)
    back = cli.read_scattering_json(path)
    assert back.side == "right"
    assert np.array_equal(back.S, data.S)
    assert np.allclose(back.rho_grid.nodes, rg.nodes)
    assert back.bound_states[0].tau == 1.5
    assert np.array_equal(back.bound_states[0].weight, data.bound_states[0].weight)


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
        bound_states=(BoundState(tau=1.0, weight=np.array([[-1.0 + 0j]]), side="right"),),
    )
    bad_path = tmp_path / "bad.json"
    cli.write_scattering_json(bad_path, bad)
    assert cli.main(["validate", "--data", str(bad_path)]) == 2


def test_exit_codes(tmp_path):
    # missing input file -> i/o error
    assert cli.main(["invert", "--data", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 4
    # soliton without states -> validation error
    assert cli.main(["soliton", "--out", str(tmp_path / "s")]) == 2


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
])
def test_malformed_scattering_json_is_a_validation_error(tmp_path, soliton_data, capsys, edit):
    doc = _scattering_doc(soliton_data, tmp_path)
    edit(doc)
    path = tmp_path / "bad.json"
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
])
def test_malformed_input_is_a_validation_error(tmp_path, capsys, potential, options):
    source = ["--bundled", "bump"]
    if potential is not None:
        path = tmp_path / "potential.csv"
        path.write_text(potential)
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
])
def test_bad_soliton_states_are_validation_errors(tmp_path, capsys, command, states):
    code = cli.main([*command, *states, "--x-min", "-2", "--x-max", "2",
                     "--dx", "0.1", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and err.count("\n") == 1


def test_import_leaves_spline_and_optimizer_unloaded():
    import os
    import subprocess
    import sys

    import mstl

    src = os.path.dirname(os.path.dirname(mstl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, mstl.cli; print(sorted(m for m in "
             "('scipy.interpolate', 'scipy.optimize', 'scipy.special', 'scipy.linalg') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
