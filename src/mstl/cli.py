"""Command-line front end: deterministic file pipelines for every workflow.

Formats
-------
* Potential CSV: header ``x,Re_Q_11,Im_Q_11,...,Re_Q_mm,Im_Q_mm`` with entries
  in row-major order, floats at 17 significant digits.
* Scattering JSON: ``{m, side, rho, S, bound_states}`` with complex numbers
  as [re, im] pairs.
* Trajectory CSV: long form ``x,t,j,k,Re,Im``.

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

_FMT = "%.17g"


def fmt(v: float) -> str:
    return _FMT % v


# ---------------------------------------------------------------------------
# file formats


def write_potential_csv(path, potential: SampledPotential) -> None:
    m = potential.m
    header = ["x"]
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            header += [f"Re_Q_{j}{k}", f"Im_Q_{j}{k}"]
    lines = [",".join(header)]
    for x, q in zip(potential.grid.xs, potential.values):
        row = [fmt(x)]
        for j in range(m):
            for k in range(m):
                row += [fmt(q[j, k].real), fmt(q[j, k].imag)]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


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


def _complex_to_pairs(a: np.ndarray):
    return [[[float(a[j, k].real), float(a[j, k].imag)] for k in range(a.shape[1])]
            for j in range(a.shape[0])]


def _pairs_to_complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def write_scattering_json(path, data: ScatteringData) -> None:
    doc = {
        "m": data.m,
        "side": data.side,
        "rho": [float(r) for r in data.rho_grid.nodes],
        "S": [_complex_to_pairs(s) for s in data.S],
        "bound_states": [
            {"tau": float(b.tau), "N": _complex_to_pairs(b.weight)} for b in data.bound_states
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def read_scattering_json(path) -> ScatteringData:
    doc = json.loads(Path(path).read_text())
    try:
        return _scattering_from_doc(doc)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValidationError(f"malformed scattering data in {path}: {exc!r}") from exc


def _scattering_from_doc(doc) -> ScatteringData:
    rho = np.asarray(doc["rho"], dtype=float)
    n_half = len(rho) // 2
    if n_half < 1 or len(rho) != 2 * n_half:
        raise ValidationError("rho grid must have an even node count")
    step = rho[-1] - rho[-2] if len(rho) > 1 else 2 * rho[-1]
    grid = RhoGrid(rho_max=float(rho[-1] + step / 2), n_half=n_half)
    if not np.allclose(grid.nodes, rho, rtol=1e-9, atol=1e-12):
        raise ValidationError("rho nodes are not a symmetric half-offset grid")
    s = np.stack([_pairs_to_complex(p) for p in doc["S"]]) if doc["S"] else np.zeros((0, 1, 1))
    states = tuple(
        BoundState(tau=float(b["tau"]), weight=_pairs_to_complex(b["N"]), side=doc["side"])
        for b in doc["bound_states"]
    )
    return ScatteringData(side=doc["side"], rho_grid=grid, S=s, bound_states=states)


def write_trajectory_csv(path, traj: kdv.KdVTrajectory) -> None:
    lines = ["x,t,j,k,Re,Im"]
    for t, pot in zip(traj.times, traj.potentials):
        m = pot.m
        for x, q in zip(pot.grid.xs, pot.values):
            for j in range(m):
                for k in range(m):
                    lines.append(
                        ",".join([fmt(x), fmt(t), str(j + 1), str(k + 1),
                                  fmt(q[j, k].real), fmt(q[j, k].imag)])
                    )
    Path(path).write_text("\n".join(lines) + "\n")


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
