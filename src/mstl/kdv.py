"""Matrix KdV integration by the inverse scattering transform.

The flow Q_t = 3 Q Q_x + 3 Q_x Q - Q_xxx acts on scattering data explicitly:
reflection samples pick up the unimodular phase exp(8 i rho^3 t), each
bound-state weight grows by exp(8 tau^3 t), and the taus are constants of
motion.  Reflectionless initial data therefore evolve in closed form through
the separable solve; the exponential weight growth is handled there in log
scale, so trajectories remain computable long after exp(8 tau^3 t) overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mstl.domain import (
    BoundState,
    RhoGrid,
    SampledPotential,
    ScatteringData,
    SpaceGrid,
    ValidationError,
)
from mstl.solitons import separable_glm_solve

_EXP_LIMIT = 700.0


def evolve_scattering_data(data: ScatteringData, t: float) -> ScatteringData:
    """Right scattering data after time t of the matrix KdV flow."""
    if data.side != "right":
        raise ValidationError("the evolution law is stated for right-side data")
    phases = np.exp(8j * data.rho_grid.nodes**3 * t)
    s_t = phases[:, None, None] * data.S
    states = []
    for b in data.bound_states:
        exponent = 8.0 * b.tau**3 * t
        if exponent > _EXP_LIMIT:
            raise ValidationError(
                f"weight scale exp({exponent:.3g}) overflows; use soliton_trajectory, "
                "which carries weights in log scale"
            )
        states.append(BoundState(tau=b.tau, weight=b.weight * np.exp(exponent), side="right"))
    return ScatteringData(side="right", rho_grid=data.rho_grid, S=s_t, bound_states=tuple(states))


@dataclass(frozen=True)
class KdVTrajectory:
    times: tuple
    potentials: tuple
    data_per_t: tuple

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def soliton_trajectory(
    states, t_grid, x_grid: SpaceGrid, rho_grid: RhoGrid = None, store_data: bool = True
) -> KdVTrajectory:
    """Reflectionless trajectory: evolve the discrete data, rebuild Q per t.

    ``states`` is the right-side list of (tau, weight).  Weight growth is
    applied as log scales inside the separable solve; scattering-data
    snapshots are materialized only while exp(8 tau^3 t) is representable.
    """
    times = tuple(float(t) for t in t_grid)
    if rho_grid is None:
        rho_grid = RhoGrid(8.0, 64)
    taus = [float(t) for t, _ in states]

    potentials = []
    snapshots = []
    base = ScatteringData(
        side="right",
        rho_grid=rho_grid,
        S=np.zeros((rho_grid.n,) + np.asarray(states[0][1]).shape, dtype=complex),
        bound_states=tuple(BoundState(tau=t, weight=np.asarray(n, complex), side="right")
                           for t, n in states),
    )
    for t in times:
        log_scales = [8.0 * tau**3 * t for tau in taus]
        potential = separable_glm_solve(states, "right", x_grid, log_scales=log_scales)
        potentials.append(potential)
        if store_data and max(log_scales) <= _EXP_LIMIT:
            snapshots.append(evolve_scattering_data(base, t))
        else:
            snapshots.append(None)
    return KdVTrajectory(times=times, potentials=tuple(potentials), data_per_t=tuple(snapshots))


def pde_terms(traj: KdVTrajectory, t_index: int) -> dict:
    """Central-difference samples of every PDE term on the interior grid."""
    if t_index < 1 or t_index + 1 >= len(traj.times):
        raise ValidationError("t_index needs a neighbor on each side")
    dts = np.diff(traj.times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0):
        raise ValidationError("time grid must be uniform for central differences")
    dt = float(dts[0])
    pots = traj.potentials
    grid = pots[t_index].grid
    dx = grid.dx

    q = pots[t_index].values
    q_t = (pots[t_index + 1].values - pots[t_index - 1].values) / (2 * dt)
    q_x = np.zeros_like(q)
    q_x[1:-1] = (q[2:] - q[:-2]) / (2 * dx)
    q_xxx = np.zeros_like(q)
    q_xxx[2:-2] = (q[4:] - 2 * q[3:-1] + 2 * q[1:-3] - q[:-4]) / (2 * dx**3)

    interior = slice(2, -2)
    return {
        "q": q[interior],
        "q_t": q_t[interior],
        "nonlinear": 3 * (q @ q_x + q_x @ q)[interior],
        "q_xxx": q_xxx[interior],
        "xs": grid.xs[interior],
    }


def kdv_residual(traj: KdVTrajectory, t_index: int) -> float:
    """Max-norm PDE residual Q_t - 3(Q Q_x + Q_x Q) + Q_xxx on the interior grid."""
    terms = pde_terms(traj, t_index)
    residual = terms["q_t"] - terms["nonlinear"] + terms["q_xxx"]
    return float(np.abs(residual).max(initial=0.0))


def estimate_center(potential: SampledPotential) -> float:
    """Location of the deepest potential well, refined by a parabolic fit."""
    norms = np.abs(potential.values).max(axis=(1, 2))
    j = int(np.argmax(norms))
    xs = potential.grid.xs
    if 0 < j < len(xs) - 1:
        y0, y1, y2 = norms[j - 1], norms[j], norms[j + 1]
        denom = y0 - 2 * y1 + y2
        if abs(denom) > 1e-300:
            return float(xs[j] + 0.5 * potential.grid.dx * (y0 - y2) / denom)
    return float(xs[j])
