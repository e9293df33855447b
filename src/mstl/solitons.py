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

from dataclasses import dataclass

import numpy as np

from mstl.domain import (
    EIG_CUTOFF_REL,
    NumericsError,
    SampledPotential,
    SpaceGrid,
    ValidationError,
    hermitian_pseudo_inverse,
    matrix_operator_norm,
    psd_margin,
)

_EXP_CLAMP = 460.0  # largest exponent 2 tau x - s in the separable solve


@dataclass(frozen=True)
class ProjectorChain:
    """Ordered Blaschke factors (tau_k, P_k); factor k = 1 is applied first."""

    taus: tuple
    projectors: tuple

    @property
    def m(self) -> int:
        return self.projectors[0].shape[0]

    def __len__(self) -> int:
        return len(self.taus)


def _range_and_kernel(n: np.ndarray, cutoff: float = EIG_CUTOFF_REL):
    """Range factor B with B B^H = n, and an orthonormal basis of Ker n.

    One eigen-split of a Hermitian PSD matrix: eigenvalues above ``cutoff``
    times the largest magnitude span the range, the rest the kernel.
    """
    w, v = np.linalg.eigh(0.5 * (n + n.conj().T))
    keep = w > cutoff * float(np.abs(w).max(initial=0.0))
    return v[:, keep] * np.sqrt(w[keep]), v[:, ~keep]


def checked_states(states) -> tuple[list, list]:
    """Taus and weights of (tau, weight) pairs, as floats and complex matrices.

    Raises ``ValidationError`` unless there is at least one state, the taus
    are positive and distinct, and the weights are Hermitian PSD.
    """
    taus = [float(t) for t, _ in states]
    weights = [np.asarray(n, dtype=complex) for _, n in states]
    if not taus:
        raise ValidationError("at least one bound state is required")
    if min(taus) <= 0:
        raise ValidationError("taus must be positive")
    gaps = [abs(a - b) for i, a in enumerate(taus) for b in taus[i + 1 :]]
    if gaps and min(gaps) < 1e-8 * max(taus):
        raise ValidationError("taus must be distinct")
    for n in weights:
        if psd_margin(n) < -1e-8 * (1.0 + matrix_operator_norm(n)):
            raise ValidationError("weights must be Hermitian positive semidefinite")
    return taus, weights


def build_projector_chain(states) -> ProjectorChain:
    """Choose the projectors so each residue is C_k N_k with invertible C_k.

    ``states`` is a sequence of (tau, weight) with distinct positive taus and
    Hermitian PSD weights (see ``checked_states``).  I - P_1 projects onto
    Ker N_1; for k > 1, I - P_k projects onto the image of Ker N_k under the
    partial product of the earlier factors at rho_k (orthonormalized before
    projecting).
    """
    taus, weights = checked_states(states)
    m = weights[0].shape[0]

    projectors: list[np.ndarray] = []
    eye = np.eye(m, dtype=complex)
    for k in range(len(taus)):
        _, ker = _range_and_kernel(weights[k])
        if ker.shape[1] == 0:
            projectors.append(eye.copy())
            continue
        # partial product of the earlier factors at rho_k, factor 1 rightmost
        v_k = eye
        for j in range(k - 1, -1, -1):
            c = 2.0 * taus[j] / (taus[k] - taus[j])
            v_k = v_k @ (eye + c * projectors[j])
        image = v_k @ ker
        onb, _ = np.linalg.qr(image)
        projectors.append(eye - onb @ onb.conj().T)

    chain = ProjectorChain(taus=tuple(taus), projectors=tuple(projectors))
    for k, (tau, n) in enumerate(zip(taus, weights)):
        res = _residue_of_chain(chain, k)
        pinv_n = hermitian_pseudo_inverse(n)
        proj_rows = res @ pinv_n @ n
        defect = matrix_operator_norm(res - proj_rows)
        if defect > 1e-8 * (1.0 + matrix_operator_norm(res)):
            raise NumericsError(
                f"residue at tau = {tau:g} is not a multiple of the weight (defect {defect:.3e})"
            )
    return chain


def _residue_of_chain(chain: ProjectorChain, k: int) -> np.ndarray:
    """Residue of U at rho_k from the factored form."""
    taus, projectors = chain.taus, chain.projectors
    m = chain.m
    eye = np.eye(m, dtype=complex)
    left = eye
    for j in range(len(taus) - 1, k, -1):
        c = 2.0 * taus[j] / (taus[k] - taus[j])
        left = left @ (eye + c * projectors[j])
    right = eye
    for j in range(k - 1, -1, -1):
        c = 2.0 * taus[j] / (taus[k] - taus[j])
        right = right @ (eye + c * projectors[j])
    return left @ (2j * taus[k] * projectors[k]) @ right


def residues_of_U(chain: ProjectorChain):
    """[(tau_k, Res U at i tau_k)] in chain order; these are the R_k^+ values."""
    return [(chain.taus[k], _residue_of_chain(chain, k)) for k in range(len(chain))]


def evaluate_U(chain: ProjectorChain, rho) -> np.ndarray:
    """The unitary factor at one or many spectral points (poles excluded)."""
    rho = np.asarray(rho, dtype=complex)
    scalar = rho.ndim == 0
    z = np.atleast_1d(rho)
    for tau in chain.taus:
        if np.any(np.abs(z - 1j * tau) < 1e-12):
            raise ValidationError(f"evaluation at the pole rho = {tau:g}i")
    m = chain.m
    eye = np.eye(m, dtype=complex)
    out = np.broadcast_to(eye, z.shape + (m, m)).copy()
    for k in range(len(chain) - 1, -1, -1):
        c = (2j * chain.taus[k]) / (z - 1j * chain.taus[k])
        factor = eye + c[:, None, None] * chain.projectors[k]
        out = out @ factor
    return out[0] if scalar else out


def reflectionless_D(chain: ProjectorChain):
    """Evaluator for D(rho) = U(rho)^{-1} in closed form.

    Each factor inverts rationally, (I + 2 rho_k/(rho - rho_k) P)^{-1}
    = I - 2 rho_k/(rho + rho_k) P, so D is analytic in the upper half-plane
    with det D vanishing exactly at the i tau_k.
    """
    m = chain.m
    eye = np.eye(m, dtype=complex)

    def d_of(rho):
        rho = np.asarray(rho, dtype=complex)
        scalar = rho.ndim == 0
        z = np.atleast_1d(rho)
        out = np.broadcast_to(eye, z.shape + (m, m)).copy()
        for k in range(len(chain)):
            c = (-2j * chain.taus[k]) / (z + 1j * chain.taus[k])
            out = out @ (eye + c[:, None, None] * chain.projectors[k])
        return out[0] if scalar else out

    return d_of


# ---------------------------------------------------------------------------
# separable GLM solve


def separable_potential_values(states, xs, log_scales=None, side: str = "right"):
    """Q and the kernel diagonal at arbitrary points, by one batched solve.

    ``states`` is a sequence of (tau, weight); optional ``log_scales`` carry
    weight factors exp(s_k) in log form (the KdV flow grows them fast).
    Each weight factors over its range as N_k = B_k B_k^H, so with
    B = [B_1 ... B_n] and the Hermitian positive definite Cauchy matrix
    C_jk = B_j^H B_k / (tau_j + tau_k), the kernel diagonal is
    K(x, x) = -B G^{-1} B^H for G(x) = C + diag(exp(2 tau x - s)), and
    Q = -2 d/dx K(x, x) = -4 Y^H diag(tau exp(2 tau x - s)) Y with
    Y = G^{-1} B^H.  Null directions of the weights never enter.
    Returns (q, diag) arrays of shape (len(xs), m, m).
    """
    taus = [float(t) for t, _ in states]
    if log_scales is None:
        log_scales = [0.0] * len(taus)
    factors = [_range_and_kernel(np.asarray(n, dtype=complex))[0] for _, n in states]
    ranks = [f.shape[1] for f in factors]
    b = np.concatenate(factors, axis=1)
    tau = np.repeat(taus, ranks)
    xs = np.asarray(xs, dtype=float)
    solve_xs = -xs[::-1] if side == "left" else xs

    # past the clamp a state is fully decayed to roundoff (its rows of Y are
    # below e^-460), and exp stays finite however far right x or the flow goes
    exponent = 2.0 * tau * solve_xs[:, None] - np.repeat(log_scales, ranks)
    e = np.exp(np.minimum(exponent, _EXP_CLAMP))
    cauchy = (b.conj().T @ b) / (tau[:, None] + tau[None, :])
    g = cauchy + e[:, :, None] * np.eye(tau.size)
    try:
        y = np.linalg.solve(g, b.conj().T)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"separable system singular: {exc}") from exc
    z = np.sqrt(tau * e)[:, :, None] * y  # Q = -4 z^H z, Hermitian to roundoff
    q = -4.0 * z.conj().transpose(0, 2, 1) @ z
    diag = -b @ y
    if side == "left":
        q = q[::-1]
        diag = diag[::-1]
    return q, diag


def separable_glm_solve(states, side: str, x_grid: SpaceGrid, log_scales=None) -> SampledPotential:
    """Exact reflectionless solve: the potential on ``x_grid``.

    The potential is sampled at nodes and cell midpoints from the closed-form
    expression, so downstream propagation sees it at full accuracy.
    """
    if side not in ("right", "left"):
        raise ValidationError(f"unknown side {side!r}")
    q_nodes, _ = separable_potential_values(states, x_grid.xs, log_scales, side)
    q_cells, _ = separable_potential_values(states, x_grid.midpoints, log_scales, side)
    return SampledPotential(x_grid, q_nodes, cell_values=q_cells)


def soliton_center(tau: float, weight: float) -> float:
    """Scalar one-soliton center: ln(c / (2 tau)) / (2 tau) for weight c."""
    return float(np.log(weight / (2.0 * tau)) / (2.0 * tau))
