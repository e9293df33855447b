"""Inverse scattering through the Gelfand-Levitan-Marchenko equation.

Pipeline: reflection samples are Fourier-transformed on the symmetric
spectral grid, combined with the analytic bound-state exponentials into the
kernel function M, and the integral equation

    M(x + y) + K(x, y) + int_x^inf K(x, t) M(t + y) dt = 0,   y > x,

is discretized by an endpoint-corrected (Gregory order-4) trapezoid rule on
the uniform y-grid y_j = x + j du.  Its Hankel arguments 2x + du (i + j) make
the system at x + k du the trailing principal block of the system at x, up to
the quadrature weights of the block's first three nodes.  So one reverse (UL)
Cholesky factorization A = U U^H of the largest system gives the kernel
diagonal K(x, x) at every node x + k du, each through a three-node Schur
correction for its own Gregory weights.  With du = 2 dx two interleaved
factorizations cover the target grid, and the potential is
Q(x) = -2 d/dx K(x, x) by fourth-order central differences, trusted on the
right half-line; the left half-line uses the mirrored equation, solved by
reflecting the data through u -> -u and reusing the same machinery.

The discretized operator inherits Hermitian positive definiteness from the
continuous one (after symmetrization by the square-root quadrature weights),
so each factorization comes with a cheap reciprocal-condition estimate; the
smallest-eigenvalue margin doubles as a uniqueness probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mstl.domain import (
    IllPosedDataError,
    InconsistentDataError,
    SampledPotential,
    ScatteringData,
    SpaceGrid,
    ValidationError,
    matrix_operator_norm,
)

RCOND_FLOOR = 1e-12
TAIL_REL = 1e-10
_GREGORY_HEAD = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])


def fourier_kernel(data: ScatteringData, u_grid: np.ndarray) -> np.ndarray:
    """Continuous kernel part: R(u) = (1/2pi) int S(rho) exp(+-i rho u) drho.

    The sign in the exponent is + for right data and - for left data.  The
    quadrature is the uniform midpoint rule native to the half-offset
    spectral grid; Hermiticity of the result is exact on the symmetric grid.
    """
    u = np.asarray(u_grid, dtype=float)
    nodes = data.rho_grid.nodes
    sign = 1.0 if data.side == "right" else -1.0
    phases = np.exp(1j * sign * np.outer(u, nodes)) * (data.rho_grid.step / (2.0 * np.pi))
    return np.tensordot(phases, data.S, axes=(1, 0))


@dataclass(frozen=True)
class GLMKernelFunction:
    """Kernel M(u): sampled continuous part plus analytic bound-state part.

    The continuous part is interpolated linearly between samples and treated
    as zero outside the sample window; the bound-state exponentials are exact.
    """

    side: str
    u_grid: np.ndarray
    R: np.ndarray
    states: tuple  # of (tau, weight) pairs

    def __post_init__(self):
        if self.side not in ("right", "left"):
            raise ValidationError(f"unknown side {self.side!r}")
        u = np.asarray(self.u_grid, dtype=float)
        r = np.asarray(self.R, dtype=complex)
        if r.shape[0] != u.size:
            raise ValidationError("R sample count disagrees with u grid")
        if u.size > 1:
            steps = np.diff(u)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise ValidationError("kernel sample grid must be uniform")
        object.__setattr__(self, "u_grid", u)
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "states", tuple((float(t), np.asarray(n, complex)) for t, n in self.states))

    @property
    def m(self) -> int:
        return self.R.shape[1]

    def continuous_part(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        shape = u.shape
        if not np.any(self.R):
            return np.zeros(shape + self.R.shape[1:], dtype=complex)
        flat = u.ravel()
        grid = self.u_grid
        step = (grid[-1] - grid[0]) / (grid.size - 1)
        idx = np.clip(((flat - grid[0]) / step).astype(int), 0, grid.size - 2)
        frac = (flat - grid[idx]) / step
        vals = (1.0 - frac)[:, None, None] * self.R[idx] + frac[:, None, None] * self.R[idx + 1]
        inside = (flat >= grid[0]) & (flat <= grid[-1])
        vals[~inside] = 0.0
        return vals.reshape(shape + self.R.shape[1:])

    def bound_part(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        sign = -1.0 if self.side == "right" else 1.0
        out = np.zeros(u.shape + (self.m, self.m), dtype=complex)
        for tau, weight in self.states:
            out += np.exp(sign * tau * u)[..., None, None] * weight
        return out

    def __call__(self, u) -> np.ndarray:
        return self.continuous_part(u) + self.bound_part(u)

    def mirrored(self) -> "GLMKernelFunction":
        """Kernel u -> M(-u) in right-side form (used for the left equation)."""
        return GLMKernelFunction(
            side="right" if self.side == "left" else "left",
            u_grid=-self.u_grid[::-1],
            R=self.R[::-1],
            states=self.states,
        )

    def local_tail_cut(self, u_ref: float) -> float:
        """Smallest u0 >= u_ref past which ||M|| stays below TAIL_REL times its scale.

        The scale is the running maximum of ||M|| from u_ref rightward: the
        kernel can grow without bound toward -inf (bound-state part), so a
        globally-relative threshold would truncate solves at large x far too
        early; the equation at x only meets arguments u >= u_ref = 2x.
        Accounts for the analytic bound-state tail beyond the sample window.
        """
        if self.side != "right":
            raise ValidationError("tail cuts apply to right-form kernels; mirror first")
        running = getattr(self, "_running_max", None)
        if running is None:
            samples = self(self.u_grid)
            norms = np.abs(samples).max(axis=(1, 2))
            running = np.maximum.accumulate(norms[::-1])[::-1]
            object.__setattr__(self, "_running_max", running)
        i0 = int(np.clip(np.searchsorted(self.u_grid, u_ref), 0, len(running) - 1))
        peak = float(running[i0])
        if peak == 0.0:
            return u_ref
        ok = running[i0:] <= TAIL_REL * peak
        if ok.any():
            u0 = float(self.u_grid[i0 + int(np.argmax(ok))])
        else:
            u0 = float(self.u_grid[-1])
        for tau, weight in self.states:
            scale = matrix_operator_norm(weight)
            if scale > 0:
                u0 = max(u0, float(np.log(scale / (TAIL_REL * peak)) / tau))
        return max(u0, u_ref)


def assemble_M(data: ScatteringData, u_grid: np.ndarray) -> GLMKernelFunction:
    """Build the GLM kernel for one side's data on a uniform u grid."""
    r = fourier_kernel(data, u_grid)
    states = tuple((b.tau, b.weight) for b in data.bound_states)
    return GLMKernelFunction(side=data.side, u_grid=np.asarray(u_grid, float), R=r, states=states)


# ---------------------------------------------------------------------------
# nested Nystrom solve


def gregory_weights(n: int, du: float) -> np.ndarray:
    """Endpoint-corrected trapezoid weights (Gregory rule, fourth order).

    Falls back to plain trapezoid when the grid is too short for the
    correction stencil.
    """
    w = np.full(n, du)
    if n >= 8:
        head = _GREGORY_HEAD * du
        w[:3] = head
        w[-3:] = head[::-1]
    elif n >= 2:
        w[0] = w[-1] = 0.5 * du
    return w


@dataclass(frozen=True)
class DiagonalSolve:
    """Kernel diagonal at x_k = x_0 + k du from one factorization."""

    diag: np.ndarray  # (count, m, m) values of K(x_k, x_k)
    sigma_min_est: float
    residual: float


def _hankel_system(h: np.ndarray, sw: np.ndarray) -> np.ndarray:
    """I + diag(sw) [h_{i+j}] diag(sw) as one C-contiguous (n m, n m) matrix."""
    n, m = sw.size, h.shape[-1]
    window = sliding_window_view(h, n, axis=0)  # window[i, a, b, j] = h[i + j, a, b]
    a = np.ascontiguousarray(window.transpose(0, 1, 3, 2)).reshape(n * m, n * m)
    s = np.repeat(sw, m)
    a *= s[:, None]
    a *= s[None, :]
    a.flat[:: n * m + 1] += 1.0
    return a


def _hankel_product(h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """[sum_j h_{i+j} z_j]_i for blocks h (2n-1, m, m) and z (n, m, k), by FFT."""
    n = z.shape[0]
    size = 3 * n - 2  # the full linear convolution, no wrap-around
    spectrum = np.fft.fft(h, size, axis=0) @ np.fft.fft(z[::-1], size, axis=0)
    return np.fft.ifft(spectrum, axis=0)[n - 1 : 2 * n - 1]


def nested_diagonal(kernel, x0: float, du: float, count: int, y_end: float) -> DiagonalSolve:
    """K(x_k, x_k) at x_k = x0 + k du, k < count, from one reverse Cholesky.

    ``kernel`` maps u arrays to (..., m, m) values in right-side form.  The
    system at x_k has the nodes x_k + j du up to the first node at or past
    ``y_end``, with at least eight nodes for the last x, so all of them end
    on the same node.  Its symmetrized matrix is D (B_k + F) D: B_k is the
    trailing block of the x0 system A from node k, D^2 the ratio of the
    Gregory weights of its first three nodes to A's weights there, and
    F = D^-2 - I.  With A = U U^H (U upper triangular), the first three
    nodes of (B_k + F)^-1 are (T T^H + F)^-1 with T = U's 3 x 3 node block at
    k, and K(x_k, x_k) = ((A_k^-1)_00 - I) / w_0 (Dyson's diagonal identity).

    A factorization failure or an estimated reciprocal condition below
    1e-12 raises ``IllPosedDataError``.  The residual is that of the x0 row,
    solved through the factor and checked against the Hankel form.
    """
    from scipy.linalg import lapack  # loaded on first use: it dominates start-up

    n = max(count + 7, int(np.ceil((y_end - x0) / du - 1e-9)) + 1)
    h = np.asarray(kernel(2.0 * x0 + du * np.arange(2 * n - 1)))
    m = h.shape[-1]
    if not np.any(h):
        return DiagonalSolve(np.zeros((count, m, m), dtype=complex), 1.0, 0.0)
    w = gregory_weights(n, du)
    sw = np.sqrt(w)

    # The system in reversed index order (nodes and entries within blocks) is
    # built directly; its transpose is Fortran-ordered and equals its
    # conjugate, so LAPACK factors it in place as R^H R.  Then the reversed
    # system is L L^H with L = R^T, and A = U U^H with U = L reversed.
    a_rev = _hankel_system(h[::-1, ::-1, ::-1], sw[::-1])
    anorm = float(np.abs(a_rev).sum(axis=0).max())
    r_fac, info = lapack.zpotrf(a_rev.T, lower=0, overwrite_a=1, clean=1)
    if info:
        raise IllPosedDataError(f"GLM operator not positive definite at x = {x0:.6g} (info {info})")
    rcond, _ = lapack.zpocon(r_fac, anorm)
    if rcond < RCOND_FLOOR:
        raise IllPosedDataError(f"GLM system at x = {x0:.6g} has reciprocal condition {rcond:.3e}")
    u = r_fac.T[::-1, ::-1]

    k = np.arange(count)
    idx = k[:, None] * m + np.arange(3 * m)
    t = u[idx[:, :, None], idx[:, None, :]]
    head = _GREGORY_HEAD * du
    d_inv2 = w[k[:, None] + np.arange(3)] / head  # D^-2 on the three head nodes
    g = t @ t.conj().transpose(0, 2, 1)
    g[:, np.arange(3 * m), np.arange(3 * m)] += np.repeat(d_inv2 - 1.0, m, axis=1)
    inv00 = np.linalg.inv(g)[:, :m, :m] * d_inv2[:, 0, None, None]
    diag = (inv00 - np.eye(m)) / head[0]

    # x0 row in column form, A v = -b^H, solved with the reversed factor
    rhs = -(h[:n].conj().transpose(0, 2, 1) * sw[:, None, None])
    sol, _ = lapack.zpotrs(r_fac, rhs.reshape(n * m, m)[::-1].conj())
    v = sol.conj()[::-1].reshape(n, m, m)
    av = v + sw[:, None, None] * _hankel_product(h, sw[:, None, None] * v)
    return DiagonalSolve(diag, float(rcond * anorm), float(np.abs(av - rhs).max()))


# ---------------------------------------------------------------------------
# potential recovery


def _derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order central differences at the nodes 2 .. n-3."""
    return (-values[4:] + 8 * values[3:-1] - 8 * values[1:-3] + values[:-4]) / (12 * dx)


def _half_line_potential(data: ScatteringData, xs: np.ndarray, dx: float):
    """Q = -2 dK/dx on ascending nodes ``xs`` from one side's data.

    Right data give the plus equation; left data give the mirrored equation,
    whose nodes are the reflected ones.  The diagonal is solved on xs plus
    two nodes past each end, so every node gets the central stencil; with
    du = 2 dx, two interleaved factorizations cover those nodes.  Returns
    (q values (len(xs), m, m), min sigma estimate, max residual).
    """
    du = 2.0 * dx
    ext = xs[0] + dx * np.arange(-2, xs.size + 2)

    # continuous part sampled at the Hankel arguments 2 ext[0] + j du
    tail = max((np.log(max(matrix_operator_norm(b.weight), 1e-30) / TAIL_REL) / b.tau
                for b in data.bound_states), default=0.0)
    u_hi = max(2 * ext[-1] + 2.0, tail + 2.0)
    u_grid = 2 * ext[0] + du * np.arange(int(np.ceil((u_hi - 2 * ext[0]) / du)) + 1)
    if data.side == "right":
        kernel = assemble_M(data, u_grid)
    else:
        kernel = assemble_M(data, -u_grid[::-1]).mirrored()

    y_end = max(kernel.local_tail_cut(2 * x) - x for x in ext)
    solves = [nested_diagonal(kernel, ext[r], du, ext[r::2].size, y_end) for r in (0, 1)]
    diag = np.empty((ext.size, data.m, data.m), dtype=complex)
    diag[0::2], diag[1::2] = solves[0].diag, solves[1].diag
    return (
        -2.0 * _derivative(diag, dx),
        min(s.sigma_min_est for s in solves),
        max(s.residual for s in solves),
    )


# ---------------------------------------------------------------------------
# full inversion


@dataclass(frozen=True)
class InversionResult:
    potential: SampledPotential
    overlap_gap: float
    sigma_min_est: float
    residual_max: float
    hermiticity_defect: float


def _derive_left_data(j_plus: ScatteringData) -> ScatteringData:
    """Left data from right data alone, through ``conditions.right_denominator``."""
    from mstl import conditions

    denominator = conditions.right_denominator(j_plus)
    if denominator is None:
        raise ValidationError(
            "left scattering data required: no general construction exists for "
            "matrix data with nonzero reflection"
        )
    d_of, residues = denominator
    return conditions.connect_left_from_right(j_plus, d_of(j_plus.rho_grid.nodes), residues)


def invert(
    j_plus: ScatteringData,
    j_minus: ScatteringData = None,
    grid: SpaceGrid = None,
    overlap: float = 1.0,
    overlap_tol: float = 0.05,
) -> InversionResult:
    """Reconstruct the potential from scattering data.

    Runs the plus-side equation for x >= -overlap and the minus side for
    x <= overlap (each from two interleaved factorizations on the solve grid
    du = 2 dx), checks agreement on the shared window and stitches with a
    linear cross-fade across one cell at x = 0.  A side without target nodes
    is not solved, and with no shared window the overlap gap is 0.  When
    ``j_minus`` is omitted and the minus side is solved, it is derived from
    the right data (zero reflection, or the scalar reconstruction of the
    transmission denominator); matrix data with reflection requires it.
    """
    if grid is None:
        raise ValidationError("a target SpaceGrid is required")

    dx = grid.dx
    xs = grid.xs
    m = j_plus.m
    has_plus = xs >= -overlap - 1e-12
    has_minus = xs <= overlap + 1e-12
    q_plus = np.zeros((grid.n, m, m), dtype=complex)
    q_minus = np.zeros((grid.n, m, m), dtype=complex)
    sigmas, residuals = [], []
    # each side is solved only where the target grid has nodes on it
    if has_plus.any():
        q_plus[has_plus], sig, res = _half_line_potential(j_plus, xs[has_plus], dx)
        sigmas.append(sig)
        residuals.append(res)
    if has_minus.any():
        if j_minus is None:
            j_minus = _derive_left_data(j_plus)
        q_mirror, sig, res = _half_line_potential(j_minus, -xs[has_minus][::-1], dx)
        q_minus[has_minus] = q_mirror[::-1]
        sigmas.append(sig)
        residuals.append(res)

    herm_defect = float(max(
        np.abs(q_plus - q_plus.conj().transpose(0, 2, 1)).max(initial=0.0),
        np.abs(q_minus - q_minus.conj().transpose(0, 2, 1)).max(initial=0.0),
    ))
    q_plus = 0.5 * (q_plus + q_plus.conj().transpose(0, 2, 1))
    q_minus = 0.5 * (q_minus + q_minus.conj().transpose(0, 2, 1))

    fade = np.clip((xs + dx) / (2 * dx), 0.0, 1.0)  # 0 left of -dx, 1 right of +dx
    w = np.where(has_plus & has_minus, fade, has_plus.astype(float))[:, None, None]
    q = (1 - w) * q_minus + w * q_plus

    # agreement of the two reconstructions on the shared window |x| <= 1
    window = has_plus & has_minus & (np.abs(xs) <= 1.0 + 1e-12)
    overlap_gap = matrix_operator_norm(q_plus[window] - q_minus[window])
    scale = float(np.abs(q).max(initial=0.0))
    if overlap_gap > overlap_tol * (0.1 + scale):
        raise InconsistentDataError(
            f"left/right reconstructions disagree by {overlap_gap:.3e} on the overlap window"
        )

    return InversionResult(
        potential=SampledPotential(grid, q),
        overlap_gap=overlap_gap,
        sigma_min_est=float(min(sigmas)),
        residual_max=float(max(residuals)),
        hermiticity_defect=herm_defect,
    )
