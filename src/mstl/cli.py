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

Exit codes: 0 success, 2 validation failure (malformed input files and JSON
included), 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from mstl import conditions, forward, glm, kdv, solitons
from mstl.domain import (
    MAX_ENTRIES,
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
    try:
        text = Path(path).read_text().strip().splitlines()
        rows = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    except ValueError as exc:  # undecodable text, a non-numeric entry or a ragged row
        raise ValidationError(f"malformed potential data in {path}: {exc}") from exc
    header = text[0].split(",") if text else []
    m = int(round(np.sqrt(max(len(header) - 1, 0) / 2)))
    if m < 1 or 1 + 2 * m * m != len(header) or rows.shape[1:] != (len(header),):
        raise ValidationError(f"malformed potential header or rows in {path}")
    if not np.isfinite(rows).all():
        raise ValidationError(f"potential data in {path} has non-finite entries")
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
    try:
        return _scattering_from_doc(json.loads(Path(path).read_text()))
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:  # undecodable text and JSON too
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
        states.append(BoundState(tau=tau, weight=weight))
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
# inputs from the parsed options


def space_grid(args: argparse.Namespace) -> SpaceGrid:
    return SpaceGrid.from_bounds(args.x_min, args.x_max, args.dx)


def rho_grid(args: argparse.Namespace) -> RhoGrid:
    if args.n_rho < 2 or args.n_rho % 2:
        raise ValidationError(f"--n-rho must be a positive even count, got {args.n_rho}")
    return RhoGrid(args.rho_max, args.n_rho // 2)


def _load_potential(args: argparse.Namespace) -> SampledPotential:
    if args.dim < 1:
        raise ValidationError(f"--dim must be at least 1, got {args.dim}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be non-negative, got {args.seed}")
    if args.potential:
        return read_potential_csv(args.potential)
    grid = space_grid(args)
    if args.bundled == "box":
        return box_potential(grid)
    if args.bundled == "bump":
        return bump_potential(grid)
    if args.bundled == "random":
        return random_potential(grid, dim=args.dim, seed=args.seed)
    return zero_potential(grid, dim=args.dim)  # --bundled zero, or no source given


def _soliton_states(args: argparse.Namespace):
    if not args.taus:
        raise ValidationError("at least one --tau is required")
    if len(args.weights) != len(args.taus):
        raise ValidationError("--tau and --weight counts must match")
    states = [(t, np.array([[complex(w)]])) for t, w in zip(args.taus, args.weights)]
    solitons.checked_states(states)  # a direction scales each weight by a projector, which keeps it PSD
    if not args.direction:
        return states
    try:
        v = np.array([complex(part) for part in args.direction.split(",")])
    except ValueError as exc:
        raise ValidationError(f"--direction {args.direction!r}: {exc}") from exc
    largest = np.abs(v).max()
    if not (np.isfinite(largest) and largest > 0):
        raise ValidationError("--direction must be a finite nonzero vector")
    v = (v.view(float) / largest).view(complex)  # the norm of v itself may overflow; real parts divide exactly
    v = v / np.linalg.norm(v)
    proj = np.outer(v, v.conj())
    return [(t, w * proj) for t, w in zip(args.taus, args.weights)]


def _rel_l1_error(q_in: SampledPotential, q_out: SampledPotential) -> float:
    diff = np.abs(q_in.values - q_out.values).max(axis=(1, 2))
    ref = np.abs(q_in.values).max(axis=(1, 2))
    dx = q_in.grid.dx
    denom = float(np.trapezoid(ref, dx=dx))
    num = float(np.trapezoid(diff, dx=dx))
    return num / denom if denom > 1e-12 else num


# ---------------------------------------------------------------------------
# subcommands


def cmd_forward(args: argparse.Namespace) -> int:
    potential = _load_potential(args)
    result = forward.full_forward(potential, rho_grid(args))
    args.out.mkdir(parents=True, exist_ok=True)
    write_potential_csv(args.out / "potential.csv", potential)
    write_scattering_json(args.out / "scattering_right.json", result.j_plus)
    write_scattering_json(args.out / "scattering_left.json", result.j_minus)
    rep_plus = conditions.check_condition_A(result.j_plus)
    rep_minus = conditions.check_condition_A(result.j_minus)
    write_report(args.out / "report.json", {
        "subcommand": "forward",
        "bound_states": [float(t) for t in result.j_plus.taus],
        "condition_A_plus": rep_plus.as_dict(),
        "condition_A_minus": rep_minus.as_dict(),
    })
    if not (rep_plus.passed and rep_minus.passed):
        print("forward data failed an admissibility check", file=sys.stderr)
        return 2
    print(f"forward: {len(result.j_plus.taus)} bound state(s); outputs in {args.out}")
    return 0


def cmd_invert(args: argparse.Namespace) -> int:
    j_plus = read_scattering_json(args.data)
    if j_plus.side != "right":
        raise ValidationError("--data must hold right-side scattering data")
    j_minus = read_scattering_json(args.data_left) if args.data_left else None
    result = glm.invert(j_plus, j_minus, grid=space_grid(args))
    args.out.mkdir(parents=True, exist_ok=True)
    write_potential_csv(args.out / "potential.csv", result.potential)
    write_report(args.out / "report.json", {
        "subcommand": "invert",
        "overlap_gap": result.overlap_gap,
        "sigma_min_est": result.sigma_min_est,
        "residual_max": result.residual_max,
        "hermiticity_defect": result.hermiticity_defect,
        "condition_A_plus": conditions.check_condition_A(j_plus).as_dict(),
    })
    print(f"invert: overlap gap {result.overlap_gap:.3e}; outputs in {args.out}")
    return 0


def cmd_soliton(args: argparse.Namespace) -> int:
    states = _soliton_states(args)
    rho = rho_grid(args)
    grid = space_grid(args)
    solitons.check_on_grid(states, grid)
    potential = solitons.separable_glm_solve(states, grid)
    args.out.mkdir(parents=True, exist_ok=True)
    write_potential_csv(args.out / "potential.csv", potential)
    m = states[0][1].shape[0]
    data = ScatteringData(
        side="right", rho_grid=rho, S=np.zeros((rho.n, m, m), dtype=complex),
        bound_states=tuple(BoundState(tau=t, weight=n) for t, n in states),
    )
    write_scattering_json(args.out / "scattering_right.json", data)
    write_report(args.out / "report.json", {
        "subcommand": "soliton",
        "taus": [float(t) for t, _ in states],
        "condition_A_plus": conditions.check_condition_A(data).as_dict(),
    })
    print(f"soliton: potential on [{args.x_min}, {args.x_max}] written to {args.out}")
    return 0


def cmd_kdv(args: argparse.Namespace) -> int:
    if args.n_t < 1:
        raise ValidationError(f"--n-t must be at least 1, got {args.n_t}")
    if not np.isfinite(args.t_max):
        raise ValidationError(f"--t-max must be finite, got {args.t_max}")
    states = _soliton_states(args)
    grid = space_grid(args)
    solitons.check_on_grid(states, grid)  # the t = 0 states, as ``soliton`` checks them
    entries = args.n_t * grid.n * states[0][1].size  # the trajectory's potentials
    if entries > MAX_ENTRIES:
        raise ValidationError(f"--n-t {args.n_t} snapshots need {entries:.3g} entries, over the budget of 2^27")
    times = np.linspace(0.0, args.t_max, args.n_t)
    traj = kdv.soliton_trajectory(states, times, grid)
    args.out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(args.out / "trajectory.csv", traj)
    centers = [kdv.estimate_center(p) for p in traj.potentials]
    write_report(args.out / "report.json", {
        "subcommand": "kdv",
        "times": [float(t) for t in times],
        "centers": centers,
    })
    print(f"kdv: {args.n_t} snapshots written to {args.out}")
    return 0


def cmd_roundtrip(args: argparse.Namespace) -> int:
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise ValidationError(f"--tol must be finite and non-negative, got {args.tol}")
    potential = _load_potential(args)
    fwd = forward.full_forward(potential, rho_grid(args))
    result = glm.invert(fwd.j_plus, fwd.j_minus, grid=potential.grid)
    err = _rel_l1_error(potential, result.potential)
    args.out.mkdir(parents=True, exist_ok=True)
    write_potential_csv(args.out / "potential_in.csv", potential)
    write_potential_csv(args.out / "potential_out.csv", result.potential)
    write_report(args.out / "report.json", {
        "subcommand": "roundtrip",
        "relative_l1_error": err,
        "overlap_gap": result.overlap_gap,
        "condition_A_plus": conditions.check_condition_A(fwd.j_plus).as_dict(),
        "condition_A_minus": conditions.check_condition_A(fwd.j_minus).as_dict(),
    })
    print(f"roundtrip: relative L1 error = {err:.6g}")
    return 0 if err <= args.tol else 2


def cmd_validate(args: argparse.Namespace) -> int:
    data = read_scattering_json(args.data)
    report_a = conditions.check_condition_A(data)
    payload = {"subcommand": "validate", "condition_A": report_a.as_dict()}
    ok = report_a.passed
    try:
        denominator = conditions.right_denominator(data) if data.side == "right" else None
        if denominator is not None:
            report_b = conditions.check_condition_B_numeric(denominator, data)
            payload["condition_B"] = report_b.as_dict()
            ok = ok and report_b.passed
    finally:  # data whose denominator is refused keep their condition A report
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            write_report(args.out / "report.json", payload)
    print("validate: PASS" if ok else "validate: FAIL")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# argument parsing


def _source_options(bundled) -> argparse.ArgumentParser:
    """The input potential: a CSV file or a bundled profile, ``bundled`` if neither is given.

    A new parser per call: subcommands share the action objects of a parent
    parser, so one command's default cannot be changed on a shared parent.
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--potential")
    p.add_argument("--bundled", choices=["zero", "box", "bump", "random"], default=bundled)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    return p


def build_parser() -> argparse.ArgumentParser:
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--x-min", type=float, default=-8.0)
    grid.add_argument("--x-max", type=float, default=8.0)
    grid.add_argument("--dx", type=float, default=0.02)
    rho = argparse.ArgumentParser(add_help=False)
    rho.add_argument("--rho-max", type=float, default=40.0)
    rho.add_argument("--n-rho", type=int, default=2048)
    states = argparse.ArgumentParser(add_help=False)
    states.add_argument("--tau", type=float, action="append", default=[], dest="taus")
    states.add_argument("--weight", type=float, action="append", default=[], dest="weights")
    states.add_argument("--direction", help="comma-separated complex vector for rank-1 weights")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, type=Path)

    parser = argparse.ArgumentParser(prog="mstl", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, run, help, parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(run=run)
        return p

    command("forward", cmd_forward, "potential -> scattering data", [_source_options(None), grid, rho, out])
    p = command("invert", cmd_invert, "scattering data -> potential", [grid, out])
    p.add_argument("--data", required=True)
    p.add_argument("--data-left")
    command("soliton", cmd_soliton, "closed-form reflectionless potential", [states, grid, rho, out])
    p = command("kdv", cmd_kdv, "reflectionless KdV trajectory", [states, grid, out])
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--n-t", type=int, default=5)
    p = command("roundtrip", cmd_roundtrip, "forward then invert, report the error",
                [_source_options("bump"), grid, rho, out])
    p.add_argument("--tol", type=float, default=0.02)
    p = command("validate", cmd_validate, "admissibility checks on a data file", [])
    p.add_argument("--data", required=True)
    p.add_argument("--out", type=Path)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
