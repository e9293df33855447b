"""Reflectionless potentials in closed form.

With zero reflection the GLM kernel is a finite sum of exponentials, so the
integral equation collapses to a Cauchy system whose size is the sum of the
weight ranks, solved for every x in one batch (the separable solve), and the
scattering side of the problem is carried by a rational unitary factor

    U(rho) = (I + 2 rho_N / (rho - rho_N) P_N) ... (I + 2 rho_1 / (rho - rho_1) P_1),

a product of Blaschke-type factors built from orthogonal projectors P_k, with
rho_k = i tau_k.  The projectors are chosen recursively so the residue of U
at each pole is an invertible multiple of the corresponding weight matrix;
D(rho) = U(rho)^{-1} is then the transmission denominator of the constructed
potential and is available in closed form (each factor inverts rationally).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mstl.domain import (
    NumericsError,
    SampledPotential,
    SpaceGrid,
    ValidationError,
    range_factors,
    range_split,
    residue_check,
    tau_gap,
    weight_check,
)

_EXP_CLAMP = 460.0  # largest exponent 2 tau x - s in the separable solve
# least share of its mass a state must have on the grid of ``mstl soliton`` and ``mstl kdv``;
# below it the state's potential there is under about 4e-10 of its peak
_MIN_GRID_SHARE = 1e-10


@dataclass(frozen=True)
class ProjectorChain:
    """Ordered Blaschke factors (tau_k, P_k), factor k = 1 applied first, and
    the residues R_+ = Res U = Res D^-1 at each i tau_k."""

    taus: tuple
    projectors: tuple
    residues: tuple

    @property
    def m(self) -> int:
        return self.projectors[0].shape[0]


def checked_states(states) -> tuple[list, list]:
    """Taus and weights of (tau, weight) pairs, as floats and complex matrices.

    Raises ``ValidationError`` unless there is at least one state, the taus
    and weights are finite, the taus are positive, distinct and small enough
    that 4 tau^2 (the scale of Q) and tau e^``_EXP_CLAMP`` (the largest tau e
    of the separable solve) are finite, and the weights are Hermitian PSD
    (``weight_check``) with a nonempty range (``range_split``).
    """
    taus = [float(t) for t, _ in states]
    weights = [np.asarray(n, dtype=complex) for _, n in states]
    if not taus:
        raise ValidationError("at least one bound state is required")
    for tau, n in zip(taus, weights):
        if not np.isfinite(tau):
            raise ValidationError(f"taus must be finite, got {tau}")
        if not np.isfinite(n).all():
            raise ValidationError(f"the weight of tau = {tau:g} has non-finite entries")
    if min(taus) <= 0:
        raise ValidationError("taus must be positive")
    for tau in taus:
        if not (math.isfinite(4.0 * tau * tau) and math.isfinite(tau * math.exp(_EXP_CLAMP))):
            raise ValidationError(f"tau = {tau:g} is too large: the closed form of its state leaves double range")
    gap, tol = tau_gap(taus)
    if gap < tol:
        raise ValidationError("taus must be distinct")
    for tau, n in zip(taus, weights):
        margin, defect, tol = weight_check(n)
        if margin < -tol or defect > tol:
            raise ValidationError("weights must be Hermitian positive semidefinite")
        if not range_split(n)[0].size:
            raise ValidationError(f"the weight of tau = {tau:g} has an empty range")
    return taus, weights


def build_projector_chain(states) -> ProjectorChain:
    """Choose the projectors so each residue is C_k N_k with invertible C_k.

    ``states`` is a sequence of (tau, weight) with distinct positive taus and
    Hermitian PSD weights (see ``checked_states``).  I - P_1 projects onto
    Ker N_1; for k > 1, I - P_k projects onto the image of Ker N_k under the
    partial product of the earlier factors at rho_k (orthonormalized before
    projecting).  The residues, in the order of ``states``, are checked and kept.
    """
    taus, weights = checked_states(states)
    eye = np.eye(weights[0].shape[0], dtype=complex)
    projectors, rights = [], []
    for k in range(len(taus)):
        # partial product of the earlier factors at rho_k, factor 1 rightmost
        rights.append(_factors_at(eye, taus, projectors, k, range(k - 1, -1, -1)))
        onb, _ = np.linalg.qr(rights[k] @ range_split(weights[k])[2])
        projectors.append(eye - onb @ onb.conj().T)

    residues = []
    for k, (tau, n) in enumerate(zip(taus, weights)):
        left = _factors_at(eye, taus, projectors, k, range(len(taus) - 1, k, -1))
        res = left @ (2j * tau * projectors[k]) @ rights[k]
        defect, tol, rank_ok = residue_check(res, n)
        if defect > tol or not rank_ok:
            raise NumericsError(
                f"residue at tau = {tau:g} is not an invertible multiple of the weight "
                f"(defect {defect:.3e}, ranks agree: {rank_ok})"
            )
        residues.append(res)
    return ProjectorChain(taus=tuple(taus), projectors=tuple(projectors), residues=tuple(residues))


def _factors_at(eye, taus, projectors, k: int, order) -> np.ndarray:
    """The product of the factors j in ``order``, left to right, at rho = i tau_k."""
    out = eye
    for j in order:
        out = out @ (eye + 2.0 * taus[j] / (taus[k] - taus[j]) * projectors[j])
    return out


def reflectionless_D(chain: ProjectorChain):
    """Evaluator for D(rho) = U(rho)^{-1} in closed form.

    Each factor inverts rationally, (I + 2 rho_k/(rho - rho_k) P)^{-1}
    = I - 2 rho_k/(rho + rho_k) P, so D is analytic in the upper half-plane
    with det D vanishing exactly at the i tau_k.
    """
    m = chain.m
    eye = np.eye(m, dtype=complex)

    def d_of(rho):  # a 1-d array of points -> (n, m, m)
        z = np.asarray(rho, dtype=complex)
        out = np.broadcast_to(eye, z.shape + (m, m)).copy()
        for tau, p in zip(chain.taus, chain.projectors):
            out = out @ (eye + ((-2j * tau) / (z + 1j * tau))[:, None, None] * p)
        return out

    return d_of


# ---------------------------------------------------------------------------
# separable GLM solve


def _separable_system(states, xs, log_scales=None):
    """B, tau and state index per column, e = exp(2 tau x - s) at ``xs`` and the Cauchy matrix C."""
    b, index = range_factors([n for _, n in states])
    tau = np.array([float(t) for t, _ in states])[index]
    shift = 0.0 if log_scales is None else np.asarray(log_scales, dtype=float)[index]
    xs = np.asarray(xs, dtype=float)

    # past the clamp a state is fully decayed to roundoff (its rows of Y are
    # below e^-460), and exp stays finite however far right x or the flow goes
    exponent = 2.0 * tau * xs[:, None] - shift
    e = np.exp(np.minimum(exponent, _EXP_CLAMP))
    cauchy = (b.conj().T @ b) / (tau[:, None] + tau[None, :])
    return b, tau, index, e, cauchy


def _cauchy_solve(cauchy, e, rhs) -> np.ndarray:
    """Y_i = (C + diag(e_i))^-1 rhs at every row e_i of ``e``.

    ``cauchy`` is the (r, r) Hermitian positive definite C, ``e`` is (n, r)
    and non-negative, ``rhs`` is (r, k).  G = C + diag(e) = L L^H is factored
    by a Cholesky written out over the r columns, and L w = rhs and L^H y = w
    are solved the same way: each step is one operation over all n points,
    so no (n, r, r) stack is formed and no LAPACK call is made per point.
    Returns Y of shape (n, r, k).  Raises ``NumericsError`` where a pivot is
    not positive (NaN included).
    """
    r = e.shape[1]
    pivots, low = [], {}  # L_jj and L_ij (i > j), each over the n points
    for j in range(r):
        d = cauchy[j, j].real + e[:, j] - sum(np.abs(low[j, k]) ** 2 for k in range(j))
        if not (d > 0).all():
            raise NumericsError(f"separable system not positive definite: pivot {j} is {d.min():.3e}")
        pivots.append(np.sqrt(d))
        for i in range(j + 1, r):
            low[i, j] = (cauchy[i, j] - sum(low[i, k] * low[j, k].conj() for k in range(j))) / pivots[j]
    w = []
    for i in range(r):
        w.append((rhs[i] - sum(low[i, k][:, None] * w[k] for k in range(i))) / pivots[i][:, None])
    y = [None] * r
    for i in reversed(range(r)):
        y[i] = (w[i] - sum(low[k, i].conj()[:, None] * y[k] for k in range(i + 1, r))) / pivots[i][:, None]
    return np.stack(y, axis=1)


def separable_potential_values(states, xs, log_scales=None):
    """Q and the kernel diagonal at arbitrary points, by one vectorized solve.

    ``states`` is a sequence of (tau, weight); optional ``log_scales`` carry
    weight factors exp(s_k) in log form (the KdV flow grows them fast).
    Each weight factors over its range as N_k = B_k B_k^H, so with
    B = [B_1 ... B_n] and the Hermitian positive definite Cauchy matrix
    C_jk = B_j^H B_k / (tau_j + tau_k), the kernel diagonal is
    K(x, x) = -B G^{-1} B^H for G(x) = C + diag(exp(2 tau x - s)), and
    Q = -2 d/dx K(x, x) = -4 Y^H diag(tau exp(2 tau x - s)) Y with
    Y = G^{-1} B^H (``_cauchy_solve``).  Null directions of the weights never
    enter.  Returns (q, diag) arrays of shape (len(xs), m, m).
    """
    b, tau, _, e, cauchy = _separable_system(states, xs, log_scales)
    y = _cauchy_solve(cauchy, e, b.conj().T)
    z = np.sqrt(tau * e)[:, :, None] * y  # Q = -4 z^H z, a sum of r outer products, exactly Hermitian
    q = -4.0 * sum(z[:, c, :, None].conj() * z[:, c, None, :] for c in range(tau.size))
    diag = -sum(b[:, c, None] * y[:, c, None, :] for c in range(tau.size))
    return q, diag


def check_on_grid(states, x_grid: SpaceGrid, log_scales=None) -> np.ndarray:
    """Share of each state's mass 4 tau_k rank_k on ``x_grid``; raises below ``_MIN_GRID_SHARE``.

    Column c of the separable solve carries the mass int 4 |z_c|^2 dx = 4 tau_c,
    and |z_c|^2 = tau_c d/dx (E G^-1)_cc with E = diag(e), so (E G^-1)_cc
    rises from 0 to 1 and its rise across the grid is the share there.
    diag(G^-1) at the two grid ends comes from ``_cauchy_solve`` with the
    identity on the right.  ``log_scales`` are those of
    ``separable_potential_values``: a KdV snapshot is checked with its own.
    """
    _, _, index, e, cauchy = _separable_system(states, x_grid.xs[[0, -1]], log_scales)
    inverse = _cauchy_solve(cauchy, e, np.eye(index.size))
    left, right = e * np.diagonal(inverse, axis1=1, axis2=2).real
    shares = np.array([np.mean((right - left)[index == k]) for k in range(len(states))])
    for (tau, _), share in zip(states, shares):
        if not share >= _MIN_GRID_SHARE:
            raise ValidationError(
                f"the state tau = {tau:g} has no mass on the grid ({share:.1e} of it lies there)"
            )
    return shares


def separable_glm_solve(states, x_grid: SpaceGrid, log_scales=None) -> SampledPotential:
    """Exact reflectionless solve: the potential of right-side states on ``x_grid``.

    The potential is sampled at nodes and cell midpoints from the closed-form
    expression, so downstream propagation sees it at full accuracy.  Nodes
    and midpoints go through one solve, point by point as two solves would.
    """
    q, _ = separable_potential_values(states, np.concatenate([x_grid.xs, x_grid.midpoints]), log_scales)
    return SampledPotential(x_grid, q[: x_grid.n], cell_values=q[x_grid.n :])
