"""Seeded mutations of every input of the ``mstl`` command, run in-process through ``cli.main``.

Right scattering data (through ``validate`` and ``invert``): the box, the bump
and the soliton benchmark's right data are each edited one way at a time: S
scaled or made asymmetric; a tau made tiny, huge, zero, negative or
duplicated; a weight scaled by 1e+-300; a state added or dropped; rho
rescaled; m or the side changed.  Potential CSV (through ``forward`` and
``roundtrip``): a row dropped or duplicated, a cell made non-numeric or
non-finite, a wrong column count, an empty file, the values scaled by
+-1e300.  Arguments: bad values of --dx, --x-min, --n-rho, --tau, --weight,
--direction and --n-t.  Every call must end in a documented exit code (0, 2
validation, 3 numeric, 4 i/o), never in a traceback, and each report.json it
writes must be strict JSON.
"""

import copy
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from mstl import cli, domain, forward, solitons
from mstl.domain import RhoGrid, SpaceGrid
from tests.conftest import read_strict_json

SEEDS = (1, 2)
INVERT_GRID = ["--x-min", "-2", "--x-max", "2", "--dx", "0.05"]


def _states(doc, rng):
    """The doc's bound states, with a random rank-one state added if it has none."""
    if not doc["bound_states"]:
        _add_state(doc, rng)
    return doc["bound_states"]


def _add_state(doc, rng):
    v = rng.normal(size=doc["m"]) + 1j * rng.normal(size=doc["m"])
    n = np.outer(v, v.conj())
    tau = float(rng.uniform(0.5, 2.5))
    doc["bound_states"].append({"tau": tau, "N": np.stack([n.real, n.imag], -1).tolist()})


def _set_tau(value):
    def mutate(doc, rng):
        states = _states(doc, rng)
        states[rng.integers(len(states))]["tau"] = value(rng)
    return mutate


def _scale_s(factor):
    def mutate(doc, rng):
        doc["S"] = (factor * np.array(doc["S"])).tolist()
    return mutate


def _break_symmetry(doc, rng):
    s = np.array(doc["S"])
    j = rng.integers(len(s))
    s[j] = 0.5 * s[j] + 0.3
    doc["S"] = s.tolist()


def _duplicate_tau(doc, rng):
    states = _states(doc, rng)
    states.append(copy.deepcopy(states[0]))


def _scale_weight(doc, rng):
    states = _states(doc, rng)
    state = states[rng.integers(len(states))]
    state["N"] = (rng.choice([1e300, 1e-300]) * np.array(state["N"])).tolist()


def _drop_state(doc, rng):
    if doc["bound_states"]:
        doc["bound_states"].pop(rng.integers(len(doc["bound_states"])))


def _rescale_rho(doc, rng):
    doc["rho"] = (rng.choice([1e-6, 1e-3, 0.1, 10.0, 1e4]) * np.array(doc["rho"])).tolist()


def _change_m(doc, rng):
    if rng.integers(2):
        doc["m"] += 1  # disagrees with the matrices
    else:  # consistent scalar data from the (1, 1) entries
        doc["m"] = 1
        doc["S"] = [[[s[0][0]]] for s in doc["S"]]
        for state in doc["bound_states"]:
            state["N"] = [[state["N"][0][0]]]


def _flip_side(doc, rng):
    doc["side"] = "left" if doc["side"] == "right" else "right"


MUTATIONS = {
    "S x 1e-12": _scale_s(1e-12),
    "S x 1e3": _scale_s(1e3),
    "S asymmetric": _break_symmetry,
    "tiny tau": _set_tau(lambda rng: float(10.0 ** rng.uniform(-9, -4))),
    "huge tau": _set_tau(lambda rng: float(10.0 ** rng.uniform(3, 8))),
    "zero tau": _set_tau(lambda rng: 0.0),
    "negative tau": _set_tau(lambda rng: -float(rng.uniform(0.1, 2.0))),
    "duplicate tau": _duplicate_tau,
    "N x 1e+-300": _scale_weight,
    "add a state": _add_state,
    "drop a state": _drop_state,
    "rescale rho": _rescale_rho,
    "change m": _change_m,
    "flip side": _flip_side,
}


@pytest.fixture(scope="module")
def right_data(tmp_path_factory):
    """name -> (right data file, left data file or None)."""
    root = tmp_path_factory.mktemp("data")
    box = forward.full_forward(domain.box_potential(SpaceGrid.from_bounds(-2.0, 2.0, 0.02)), RhoGrid(20.0, 128))
    bump = forward.full_forward(domain.bump_potential(SpaceGrid.from_bounds(-6.0, 6.0, 0.05)), RhoGrid(20.0, 128))
    cli.write_scattering_json(root / "box.json", box.j_plus)
    cli.write_scattering_json(root / "bump.json", bump.j_plus)
    cli.write_scattering_json(root / "bump_left.json", bump.j_minus)  # matrix data with reflection need it
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        workloads.write_reflectionless_data(root / "soliton.json", workloads.TAUS, workloads.WEIGHTS,
                                            workloads.seeded_direction(701))
    return {"box": (root / "box.json", None), "bump": (root / "bump.json", root / "bump_left.json"),
            "soliton": (root / "soliton.json", None)}


@pytest.mark.parametrize("name", ["box", "bump", "soliton"])
def test_mutated_data_end_in_their_exit_codes(tmp_path, capsys, right_data, name):
    right, left = right_data[name]
    left_args = ["--data-left", str(left)] if left else []
    codes, errors, huge = {}, {}, {}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for mutation, mutate in MUTATIONS.items():
            doc = json.loads(right.read_text())
            mutate(doc, rng)
            if mutation == "huge tau":
                huge[seed] = max(state["tau"] for state in doc["bound_states"])
            case = tmp_path / f"{seed}-{mutation}"
            case.mkdir()
            (case / "right.json").write_text(json.dumps(doc))
            for argv in (["validate", "--data", str(case / "right.json"), "--out", str(case / "v")],
                         ["invert", "--data", str(case / "right.json"), *left_args, *INVERT_GRID,
                          "--out", str(case / "i")]):
                codes[seed, mutation, argv[0]] = cli.main(argv)
                errors[seed, mutation, argv[0]] = capsys.readouterr().err
    assert {key: code for key, code in codes.items() if code not in (0, 2, 3, 4)} == {}
    for path in tmp_path.rglob("report.json"):
        read_strict_json(path)
    # a tau of 1e3 or more overflows the bound-state kernel on the grid: a
    # numeric failure of the solve, refused before any factorization with the
    # state named
    assert {codes[seed, "huge tau", "invert"] for seed in SEEDS} == {3}
    for seed in SEEDS:
        assert f"bound state at tau = {huge[seed]:.6g} of the right data" in errors[seed, "huge tau", "invert"]
    if name == "box":
        # its potential times 1e-12 lies within the GLM solve's roundoff floor
        assert codes[SEEDS[0], "S x 1e-12", "invert"] == 3


# ---------------------------------------------------------------------------
# the potential CSV and the command line


def _drop_row(rows, rng):
    rows.pop(1 + rng.integers(len(rows) - 1))


def _duplicate_row(rows, rng):
    j = 1 + rng.integers(len(rows) - 1)
    rows.insert(j, rows[j])


def _set_cell(values):
    def mutate(rows, rng):
        j = 1 + rng.integers(len(rows) - 1)
        cells = rows[j].split(",")
        cells[rng.integers(len(cells))] = str(rng.choice(values))
        rows[j] = ",".join(cells)
    return mutate


def _wrong_columns(rows, rng):
    j = rng.integers(len(rows))  # the header too
    cells = rows[j].split(",")
    rows[j] = ",".join(cells[:-1] if rng.integers(2) else cells + cells[-1:])


def _empty(rows, rng):
    rows.clear()


def _scale_values(rows, rng):
    factor = float(rng.choice([1e300, -1e300]))  # the minus sign makes wells of the bumps
    for j in range(1, len(rows)):
        x, *q = rows[j].split(",")
        rows[j] = ",".join([x] + [repr(factor * float(v)) for v in q])


CSV_MUTATIONS = {
    "drop a row": _drop_row,
    "duplicate a row": _duplicate_row,
    "non-numeric cell": _set_cell(["abc", "", "1,5", "0x10"]),
    "non-finite cell": _set_cell(["nan", "inf", "-inf", "1e999"]),
    "wrong column count": _wrong_columns,
    "empty file": _empty,
    "values x +-1e300": _scale_values,
}

GRID = ["--x-min", "-2", "--x-max", "2", "--dx", "0.05"]
SPECTRAL = ["--rho-max", "10", "--n-rho", "16"]
STATES = ["--tau", "1", "--weight", "2", "--tau", "2", "--weight", "8", "--direction", "1,1j"]
# each option's bad values; a run replaces the option's value, or appends the option
BAD_VALUES = {
    "--dx": ["0", "-0.05", "nan", "inf", "abc", "0.03", "1e-300", "1e300"],
    "--x-min": ["nan", "-inf", "abc", "2", "5", "-1e300", "1.999999"],
    "--n-rho": ["0", "-4", "3", "2.5", "abc", "1000000000000"],
    "--tau": ["0", "-1", "nan", "inf", "1e300", "1e-300", "abc"],
    "--weight": ["0", "-2", "nan", "inf", "1e300", "1e-300", "abc"],
    "--direction": ["", "0,0", "1,abc", "nan,1", "inf,1", "1e300,1e300", "1e-320,0", "1,1j,1"],
    "--n-t": ["0", "-1", "2.5", "abc", "1000000000000"],
    "--seed": ["-1", "-99999999999999999999", "2.5", "abc"],
    "--x-max": ["nan", "inf", "abc", "-2", "-5", "1e300", "-1.999999"],
    "--rho-max": ["0", "-10", "nan", "inf", "abc", "1e-300", "1e300"],
    "--t-max": ["0", "-1", "nan", "inf", "abc", "1e300"],
    "--tol": ["0", "-1", "nan", "inf", "abc"],
}
COMMANDS = {
    "forward": ["forward", "--bundled", "bump", "--seed", "0", *GRID, *SPECTRAL],
    "roundtrip": ["roundtrip", "--bundled", "random", "--dim", "1", "--seed", "0", *GRID, *SPECTRAL, "--tol", "1"],
    "soliton": ["soliton", *STATES, *GRID, *SPECTRAL],
    "kdv": ["kdv", *STATES, *GRID, "--t-max", "0.1", "--n-t", "3"],
}


def _run(argv, capsys):
    """Exit code of one in-process run; argparse's own refusals exit 2."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    return code


@pytest.fixture(scope="module")
def potential_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("potentials")
    grid = SpaceGrid.from_bounds(-2.0, 2.0, 0.05)
    cli.write_potential_csv(root / "bump.csv", domain.bump_potential(grid))
    # reflectionless with two states, so the count and the weights run too
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    states = [(1.0, 2.0 * np.outer(v, v.conj())), (2.0, 8.0 * np.outer(v, v.conj()))]
    cli.write_potential_csv(root / "solitons.csv", solitons.separable_glm_solve(states, grid))
    return root


@pytest.mark.parametrize("name", ["bump", "solitons"])
def test_mutated_potentials_end_in_their_exit_codes(tmp_path, capsys, potential_files, name):
    rows = (potential_files / f"{name}.csv").read_text().splitlines()
    codes = {}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for mutation, mutate in CSV_MUTATIONS.items():
            mutated = list(rows)
            mutate(mutated, rng)
            case = tmp_path / f"{seed}-{mutation}"
            case.mkdir()
            (case / "q.csv").write_text("".join(row + "\n" for row in mutated))
            for command in ("forward", "roundtrip"):
                argv = [command, "--potential", str(case / "q.csv"), *SPECTRAL, "--out", str(case / command)]
                codes[seed, mutation, command] = _run(argv, capsys)
    assert {key: code for key, code in codes.items() if code not in (0, 2, 3, 4)} == {}
    for path in tmp_path.rglob("report.json"):
        read_strict_json(path)
    for seed in SEEDS:
        for mutation in ("duplicate a row", "non-numeric cell", "non-finite cell", "wrong column count", "empty file"):
            assert codes[seed, mutation, "forward"] == 2, (seed, mutation)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_mutated_arguments_end_in_their_exit_codes(tmp_path, capsys, command):
    # every bad value of each of the command's options, in place of a seeded
    # one of the option's occurrences (--tau and --weight have two)
    base = COMMANDS[command]
    rng = np.random.default_rng(SEEDS[0])
    codes = {}
    for option, values in BAD_VALUES.items():
        where = [j + 1 for j, arg in enumerate(base) if arg == option]
        for k, value in enumerate(values) if where else ():
            argv = list(base)
            argv[where[rng.integers(len(where))]] = value
            codes[option, value] = _run([*argv, "--out", str(tmp_path / f"{option}{k}")], capsys)
    assert {key: code for key, code in codes.items() if code not in (0, 2, 3, 4)} == {}
    for path in tmp_path.rglob("report.json"):
        read_strict_json(path)
    # sizes past the budget of 2^27 entries are refused before anything is allocated
    oversized = {("--dx", "1e-300"), ("--n-rho", "1000000000000"), ("--n-t", "1000000000000")}
    assert {codes[key] for key in oversized & codes.keys()} == {2}
    # a negative seed is refused beside --dim, whether or not the source is random
    assert {codes[key] for key in {("--seed", "-1"), ("--seed", "-99999999999999999999")} & codes.keys()} <= {2}
