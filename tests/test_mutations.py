"""Seeded mutations of right scattering data through ``mstl validate`` and ``mstl invert``.

The box, the bump and the soliton benchmark's right data are each edited one
way at a time: S scaled or made asymmetric; a tau made tiny, huge, zero,
negative or duplicated; a weight scaled by 1e+-300; a state added or dropped;
rho rescaled; m or the side changed.  Every call must end in a documented
exit code (0, 2 validation, 3 numeric, 4 i/o), never in a traceback, and each
report.json it writes must be strict JSON.
"""

import copy
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from mstl import cli, domain, forward
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
    codes = {}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for mutation, mutate in MUTATIONS.items():
            doc = json.loads(right.read_text())
            mutate(doc, rng)
            case = tmp_path / f"{seed}-{mutation}"
            case.mkdir()
            (case / "right.json").write_text(json.dumps(doc))
            for argv in (["validate", "--data", str(case / "right.json"), "--out", str(case / "v")],
                         ["invert", "--data", str(case / "right.json"), *left_args, *INVERT_GRID,
                          "--out", str(case / "i")]):
                codes[seed, mutation, argv[0]] = cli.main(argv)
                capsys.readouterr()
    assert {key: code for key, code in codes.items() if code not in (0, 2, 3, 4)} == {}
    for path in tmp_path.rglob("report.json"):
        read_strict_json(path)
    # a tau of 1e3 or more overflows the bound-state kernel on the grid: a
    # numeric failure of the solve, not a fault of the data
    assert {codes[seed, "huge tau", "invert"] for seed in SEEDS} == {3}
    if name == "box":
        # its potential times 1e-12 lies within the GLM solve's roundoff floor
        assert codes[SEEDS[0], "S x 1e-12", "invert"] == 3
