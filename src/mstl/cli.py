"""Command-line front end: deterministic file pipelines for every workflow.

Formats
-------
The bytes of every file are part of the contract.

* Potential CSV: header ``x,Re_Q_11,Im_Q_11,...,Re_Q_mm,Im_Q_mm`` with entries
  in row-major order, floats as ``%.17g``.
* Scattering JSON: ``json.dumps(doc, sort_keys=True, indent=1)`` and a newline,
  floats as their ``repr``, for ``{m, side, rho, S, bound_states}`` with complex
  numbers as [re, im] pairs: S of shape (len(rho), m, m, 2), each N (m, m, 2).
  ``repr`` and ``json`` spell NaN and infinity differently, so a non-finite S,
  N or tau is refused when written (exit 3) and when read (exit 2).
* Trajectory CSV: long form ``x,t,j,k,Re,Im``, floats as ``%.17g``.

Exit codes: 0 success, 2 validation failure, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mstl import conditions, forward, glm, kdv, solitons
from mstl.domain import (
    BoundState,
    NumericsError,
    RhoGrid,
    SampledPotential,
    ScatteringData,
    SpaceGrid,
    ValidationError,
    box_potential,
    bump_potential,
    random_potential,
    zero_potential,
)

# ---------------------------------------------------------------------------
# file formats


def _float_pairs(a) -> np.ndarray:
    """A complex array as floats, its [re, im] pairs along a new last axis."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(a.shape + (2,))


def _write_rows(path, header: str, row: str, tables: list) -> None:
    """The header, then one line per row of each table, filled into the ``%`` template ``row``."""
    with open(path, "w") as f:  # a table at a time: its floats as objects outweigh its text
        f.write(header + "\n")
        for table in tables:
            f.write((row + "\n") * len(table) % tuple(table.ravel().tolist()))


def write_potential_csv(path, potential: SampledPotential) -> None:
    m = potential.m
    header = ["x"]
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            header += [f"Re_Q_{j}{k}", f"Im_Q_{j}{k}"]
    table = np.column_stack([potential.grid.xs, _float_pairs(potential.values).reshape(potential.grid.n, -1)])
    _write_rows(path, ",".join(header), ",".join(["%.17g"] * len(header)), [table])


def read_potential_csv(path) -> SampledPotential:
    text = Path(path).read_text().strip().splitlines()
    header = text[0].split(",") if text else []
    m = int(round(np.sqrt(max(len(header) - 1, 0) / 2)))
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    except ValueError as exc:  # a non-numeric entry or a ragged row
        raise ValidationError(f"malformed potential row in {path}: {exc}") from exc
    if m < 1 or 1 + 2 * m * m != len(header) or rows.shape[1:] != (len(header),):
        raise ValidationError(f"malformed potential header or rows in {path}")
    xs = rows[:, 0]
    dxs = np.diff(xs)
    if len(xs) < 2 or not np.allclose(dxs, dxs[0], rtol=1e-9, atol=1e-12):
        raise ValidationError("potential grid must be uniform")
    grid = SpaceGrid(float(xs[0]), float(dxs[0]), len(xs))
    q = rows[:, 1::2] + 1j * rows[:, 2::2]
    return SampledPotential(grid, q.reshape(len(xs), m, m))


def _json_array(a: np.ndarray, depth: int) -> str:
    """``json.dumps(a.tolist(), indent=1)`` nested ``depth`` levels deep, for finite floats."""
    text = "%r"  # json writes a float as float.__repr__, which %r matches unless non-finite
    for axis in reversed(range(a.ndim)):
        pad = "\n" + " " * (depth + axis)
        text = "[" + ",".join([pad + " " + text] * a.shape[axis]) + pad + "]" if a.shape[axis] else "[]"
    return text % tuple(a.ravel().tolist())


def write_scattering_json(path, data: ScatteringData) -> None:
    s = _float_pairs(data.S)
    taus = [float(b.tau) for b in data.bound_states]
    weights = [_float_pairs(b.weight) for b in data.bound_states]
    if not all(np.isfinite(a).all() for a in [s, taus, *weights]):
        raise NumericsError(f"{data.side} scattering data has non-finite entries")
    doc = {"m": data.m, "side": data.side, "rho": "@rho", "S": "@S",
           "bound_states": [{"tau": tau, "N": f"@N{i}"} for i, tau in enumerate(taus)]}
    text = json.dumps(doc, sort_keys=True, indent=1)
    blocks = {"rho": _json_array(data.rho_grid.nodes, 1), "S": _json_array(s, 1)}
    blocks.update((f"N{i}", _json_array(w, 3)) for i, w in enumerate(weights))
    for key, block in blocks.items():
        text = text.replace(f'"@{key}"', block)
    Path(path).write_text(text + "\n")


def read_scattering_json(path) -> ScatteringData:
    doc = json.loads(Path(path).read_text())
    try:
        return _scattering_from_doc(doc)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValidationError(f"malformed scattering data in {path}: {exc!r}") from exc


def _complex_from_pairs(pairs, shape: tuple, what: str) -> np.ndarray:
    """Finite [re, im] pairs of the given leading shape, read bit-exactly as complex."""
    a = np.asarray(pairs, dtype=float)
    if a.shape != shape + (2,):
        raise ValidationError(f"{what} must have shape {shape + (2,)}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has non-finite entries")
    return a.view(complex)[..., 0]


def _scattering_from_doc(doc) -> ScatteringData:
    rho = np.asarray(doc["rho"], dtype=float)
    n_half = len(rho) // 2
    if n_half < 1 or len(rho) != 2 * n_half:
        raise ValidationError("rho grid must have an even node count")
    step = rho[-1] - rho[-2]
    grid = RhoGrid(rho_max=float(rho[-1] + step / 2), n_half=n_half)
    if not np.allclose(grid.nodes, rho, rtol=1e-9, atol=1e-12):
        raise ValidationError("rho nodes are not a symmetric half-offset grid")
    m = doc["m"]
    s = _complex_from_pairs(doc["S"], (len(rho), m, m), "S")
    states = []
    for b in doc["bound_states"]:
        tau = float(b["tau"])
        if not np.isfinite(tau):
            raise ValidationError(f"bound-state tau must be finite, got {tau}")
        weight = _complex_from_pairs(b["N"], (m, m), "bound-state weight N")
        states.append(BoundState(tau=tau, weight=weight, side=doc["side"]))
    return ScatteringData(side=doc["side"], rho_grid=grid, S=s, bound_states=tuple(states))


def write_trajectory_csv(path, traj: kdv.KdVTrajectory) -> None:
    blocks = []
    for t, pot in zip(traj.times, traj.potentials):
        x, j, k = np.broadcast_arrays(pot.grid.xs[:, None, None], *np.indices((pot.m, pot.m)) + 1)
        blocks.append(np.column_stack([x.ravel(), np.full(x.size, t), j.ravel(), k.ravel(),
                                       _float_pairs(pot.values).reshape(-1, 2)]))
    _write_rows(path, "x,t,j,k,Re,Im", "%.17g,%.17g,%d,%d,%.17g,%.17g", blocks)


def write_report(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    out: Path
    potential: str = None
    bundled: str = None
    data: str = None
    data_left: str = None
    rho_max: float = 40.0
    n_rho: int = 2048
    x_min: float = -8.0
    x_max: float = 8.0
    dx: float = 0.02
    taus: tuple = ()
    weights: tuple = ()
    direction: str = None
    t_max: float = 1.0
    n_t: int = 5
    tol: float = 0.02
    seed: int = 0
    dim: int = 2

    def space_grid(self) -> SpaceGrid:
        return SpaceGrid.from_bounds(self.x_min, self.x_max, self.dx)

    def rho_grid(self) -> RhoGrid:
        return RhoGrid(self.rho_max, self.n_rho // 2)


def _load_potential(cfg: RunConfig) -> SampledPotential:
    if cfg.dim < 1:
        raise ValidationError(f"--dim must be at least 1, got {cfg.dim}")
    if cfg.potential:
        return read_potential_csv(cfg.potential)
    grid = cfg.space_grid()
    name = cfg.bundled or "zero"
    if name == "zero":
        return zero_potential(grid, dim=cfg.dim)
    if name == "box":
        return box_potential(grid)
    if name == "bump":
        return bump_potential(grid)
    if name == "random":
        return random_potential(grid, dim=cfg.dim, seed=cfg.seed)
    raise ValidationError(f"unknown bundled potential {name!r}")


def _soliton_states(cfg: RunConfig):
    if not cfg.taus:
        raise ValidationError("at least one --tau is required")
    if len(cfg.weights) != len(cfg.taus):
        raise ValidationError("--tau and --weight counts must match")
    if cfg.direction:
        try:
            v = np.array([complex(part) for part in cfg.direction.split(",")])
        except ValueError as exc:
            raise ValidationError(f"--direction {cfg.direction!r}: {exc}") from exc
        norm = np.linalg.norm(v)
        if not norm > 0:
            raise ValidationError("--direction must be a nonzero vector")
        v = v / norm
        proj = np.outer(v, v.conj())
        states = [(t, w * proj) for t, w in zip(cfg.taus, cfg.weights)]
    else:
        states = [(t, np.array([[complex(w)]])) for t, w in zip(cfg.taus, cfg.weights)]
    solitons.checked_states(states)
    return states


def _rel_l1_error(q_in: SampledPotential, q_out: SampledPotential) -> float:
    diff = np.abs(q_in.values - q_out.values).max(axis=(1, 2))
    ref = np.abs(q_in.values).max(axis=(1, 2))
    dx = q_in.grid.dx
    denom = float(np.trapezoid(ref, dx=dx))
    num = float(np.trapezoid(diff, dx=dx))
    return num / denom if denom > 1e-12 else num


# ---------------------------------------------------------------------------
# subcommands


def cmd_forward(cfg: RunConfig) -> int:
    potential = _load_potential(cfg)
    result = forward.full_forward(potential, cfg.rho_grid())
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_potential_csv(cfg.out / "potential.csv", potential)
    write_scattering_json(cfg.out / "scattering_right.json", result.j_plus)
    write_scattering_json(cfg.out / "scattering_left.json", result.j_minus)
    rep_plus = conditions.check_condition_A(result.j_plus)
    rep_minus = conditions.check_condition_A(result.j_minus)
    write_report(cfg.out / "report.json", {
        "subcommand": "forward",
        "bound_states": [float(t) for t in result.j_plus.taus],
        "condition_A_plus": rep_plus.as_dict(),
        "condition_A_minus": rep_minus.as_dict(),
    })
    if not (rep_plus.passed and rep_minus.passed):
        print("forward data failed an admissibility check", file=sys.stderr)
        return 2
    print(f"forward: {len(result.j_plus.taus)} bound state(s); outputs in {cfg.out}")
    return 0


def cmd_invert(cfg: RunConfig) -> int:
    j_plus = read_scattering_json(cfg.data)
    if j_plus.side != "right":
        raise ValidationError("--data must hold right-side scattering data")
    j_minus = read_scattering_json(cfg.data_left) if cfg.data_left else None
    result = glm.invert(j_plus, j_minus, grid=cfg.space_grid())
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_potential_csv(cfg.out / "potential.csv", result.potential)
    write_report(cfg.out / "report.json", {
        "subcommand": "invert",
        "overlap_gap": result.overlap_gap,
        "sigma_min_est": result.sigma_min_est,
        "residual_max": result.residual_max,
        "hermiticity_defect": result.hermiticity_defect,
        "condition_A_plus": conditions.check_condition_A(j_plus).as_dict(),
    })
    print(f"invert: overlap gap {result.overlap_gap:.3e}; outputs in {cfg.out}")
    return 0


def cmd_soliton(cfg: RunConfig) -> int:
    states = _soliton_states(cfg)
    potential = solitons.separable_glm_solve(states, "right", cfg.space_grid())
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_potential_csv(cfg.out / "potential.csv", potential)
    m = states[0][1].shape[0]
    data = ScatteringData(
        side="right", rho_grid=cfg.rho_grid(),
        S=np.zeros((cfg.rho_grid().n, m, m), dtype=complex),
        bound_states=tuple(BoundState(tau=t, weight=n, side="right") for t, n in states),
    )
    write_scattering_json(cfg.out / "scattering_right.json", data)
    write_report(cfg.out / "report.json", {
        "subcommand": "soliton",
        "taus": [float(t) for t, _ in states],
        "condition_A_plus": conditions.check_condition_A(data).as_dict(),
    })
    print(f"soliton: potential on [{cfg.x_min}, {cfg.x_max}] written to {cfg.out}")
    return 0


def cmd_kdv(cfg: RunConfig) -> int:
    if cfg.n_t < 1:
        raise ValidationError(f"--n-t must be at least 1, got {cfg.n_t}")
    if not np.isfinite(cfg.t_max):
        raise ValidationError(f"--t-max must be finite, got {cfg.t_max}")
    states = _soliton_states(cfg)
    times = np.linspace(0.0, cfg.t_max, cfg.n_t)
    traj = kdv.soliton_trajectory(states, times, cfg.space_grid())
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(cfg.out / "trajectory.csv", traj)
    centers = [kdv.estimate_center(p) for p in traj.potentials]
    write_report(cfg.out / "report.json", {
        "subcommand": "kdv",
        "times": [float(t) for t in times],
        "centers": centers,
    })
    print(f"kdv: {cfg.n_t} snapshots written to {cfg.out}")
    return 0


def cmd_roundtrip(cfg: RunConfig) -> int:
    potential = _load_potential(cfg)
    fwd = forward.full_forward(potential, cfg.rho_grid())
    result = glm.invert(fwd.j_plus, fwd.j_minus, grid=potential.grid)
    err = _rel_l1_error(potential, result.potential)
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_potential_csv(cfg.out / "potential_in.csv", potential)
    write_potential_csv(cfg.out / "potential_out.csv", result.potential)
    write_report(cfg.out / "report.json", {
        "subcommand": "roundtrip",
        "relative_l1_error": err,
        "overlap_gap": result.overlap_gap,
        "condition_A_plus": conditions.check_condition_A(fwd.j_plus).as_dict(),
        "condition_A_minus": conditions.check_condition_A(fwd.j_minus).as_dict(),
    })
    print(f"roundtrip: relative L1 error = {err:.6g}")
    return 0 if err <= cfg.tol else 2


def cmd_validate(cfg: RunConfig) -> int:
    data = read_scattering_json(cfg.data)
    report_a = conditions.check_condition_A(data)
    payload = {"subcommand": "validate", "condition_A": report_a.as_dict()}
    ok = report_a.passed
    denominator = conditions.right_denominator(data) if data.side == "right" else None
    if denominator is not None:
        report_b = conditions.check_condition_B_numeric(denominator[0], data)
        payload["condition_B"] = report_b.as_dict()
        ok = ok and report_b.passed
    if cfg.out:
        cfg.out.mkdir(parents=True, exist_ok=True)
        write_report(cfg.out / "report.json", payload)
    print("validate: PASS" if ok else "validate: FAIL")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# argument parsing


def _add_grid_args(p):
    p.add_argument("--x-min", type=float, default=-8.0)
    p.add_argument("--x-max", type=float, default=8.0)
    p.add_argument("--dx", type=float, default=0.02)


def _add_rho_args(p):
    p.add_argument("--rho-max", type=float, default=40.0)
    p.add_argument("--n-rho", type=int, default=2048)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mstl", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("forward", help="potential -> scattering data")
    p.add_argument("--potential")
    p.add_argument("--bundled", choices=["zero", "box", "bump", "random"])
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    _add_grid_args(p)
    _add_rho_args(p)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("invert", help="scattering data -> potential")
    p.add_argument("--data", required=True)
    p.add_argument("--data-left")
    _add_grid_args(p)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("soliton", help="closed-form reflectionless potential")
    p.add_argument("--tau", type=float, action="append", default=[], dest="taus")
    p.add_argument("--weight", type=float, action="append", default=[], dest="weights")
    p.add_argument("--direction", help="comma-separated complex vector for rank-1 weights")
    _add_grid_args(p)
    _add_rho_args(p)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("kdv", help="reflectionless KdV trajectory")
    p.add_argument("--tau", type=float, action="append", default=[], dest="taus")
    p.add_argument("--weight", type=float, action="append", default=[], dest="weights")
    p.add_argument("--direction")
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--n-t", type=int, default=5)
    _add_grid_args(p)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("roundtrip", help="forward then invert, report the error")
    p.add_argument("--potential")
    p.add_argument("--bundled", choices=["zero", "box", "bump", "random"], default="bump")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=0.02)
    _add_grid_args(p)
    _add_rho_args(p)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("validate", help="admissibility checks on a data file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", type=Path)
    return parser


_COMMANDS = {
    "forward": cmd_forward,
    "invert": cmd_invert,
    "soliton": cmd_soliton,
    "kdv": cmd_kdv,
    "roundtrip": cmd_roundtrip,
    "validate": cmd_validate,
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {f for f in RunConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    kwargs.setdefault("out", None)
    if "taus" in kwargs:
        kwargs["taus"] = tuple(kwargs["taus"])
    if "weights" in kwargs:
        kwargs["weights"] = tuple(kwargs["weights"])
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    try:
        return _COMMANDS[cfg.subcommand](cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
