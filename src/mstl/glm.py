"""Inverse scattering through the Gelfand-Levitan-Marchenko equation.

Pipeline: reflection samples are Fourier-transformed on the symmetric
spectral grid into samples of the Fourier part of the kernel M (a blocked
chirp-z FFT, see ``_transform``), the bound-state exponentials enter through
their separable form, and the integral equation

    M(x + y) + K(x, y) + int_x^inf K(x, t) M(t + y) dt = 0,   y > x,

is discretized by an endpoint-corrected (Gregory order-4) trapezoid rule on
the uniform y-grid y_j = x + j du.  Its Hankel arguments 2x + du (i + j) (and
a rank-r tail term that depends on the nodes alone) make the system at
x + k du the trailing principal block of the system at x, up to the
quadrature weights of the block's first three nodes.  So one reverse (UL)
Cholesky factorization A = U U^H of the largest system gives the kernel
diagonal K(x, x) at every node x + k du, each through a three-node Schur
correction for its own Gregory weights.  The samples end in exact zeros, so
without bound states the last nodes, whose Hankel arguments all fall there,
meet each other only through I: U is I on them and the system's own rows
beside them, and only the Schur complement of the other nodes is factored,
from block rows that are each one window of the samples.  Its Gram comes
from the rows' Hankel displacement, one rank-5m update per block diagonal,
and the factorization, its condition estimate and its solves are numpy's
alone (no LAPACK wrapper is loaded).  With du = 2 dx two
interleaved factorizations cover the target grid, and the potential is
Q(x) = -2 d/dx K(x, x) by fourth-order central differences, trusted on the
right half-line; the left half-line uses the mirrored equation on the
reflected nodes.

The Fourier part F of the kernel is one array per side: right-form samples
at the Hankel arguments u_j = 2 x_0 + j du of the first node, R(u) for right
data and R(-u) for left data, which the mirrored equation has in the same
form; both are the + transform of the side's S, taken on the exact grid
(2 x_0, du, count).  It is sampled to just past the slowest bound-state tail,
but at most to one sample past |u| = ``RhoGrid.u_limit``, where the midpoint
sum aliases, and is zero beyond.  The dense window ends where |F| has fallen
below TAIL_REL times its running max (at least count + 7 nodes), or at the
end of the samples for the nodes where it never does: F can keep a floor
above that (the bump's does past u = 10), and then the sampling end sets the
window.  Past its last node L the bound-state part
sum_k N_k exp(-tau_k (t + y)) = E(t) E(y)^H is eliminated in closed form,
which leaves the window kernel F(t + y) + E(t) W E(y)^H (see ``_tail_factor``):
the exact Schur complement of the tail, so it stays positive definite with a
smallest eigenvalue at least that of the whole operator.  W depends on L
alone, so the nesting holds, and interleave r reads the contiguous block of F
from u_r.  No kernel-sample array or dense system above MAX_ENTRIES complex
entries is allocated, and Q within 1 / _OVERLAP_TOL of the roundoff floor
4 eps / (sigma_min dx^2) raises ``IllPosedDataError``.

The discretized operator inherits Hermitian positive definiteness from the
continuous one (after symmetrization by the square-root quadrature weights),
so each factorization comes with a cheap reciprocal-condition estimate (the
Hager-Higham estimator of LAPACK's zpocon, transcribed); the
smallest-eigenvalue margin doubles as a uniqueness probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mstl.domain import (
    MAX_ENTRIES,
    IllPosedDataError,
    InconsistentDataError,
    SampledPotential,
    ScatteringData,
    SpaceGrid,
    ValidationError,
    matrix_operator_norm,
    range_factors,
)

RCOND_FLOOR = 1e-12
TAIL_REL = 1e-10
_BLOCK_U = 2**12  # u samples per chirp-z block of the Fourier kernel
_OVERLAP = 1.0  # each side is solved past x = 0 to |x| = _OVERLAP, where the two must agree
_OVERLAP_TOL = 0.05  # largest overlap gap, relative to 0.1 + max |Q|
_GREGORY_HEAD = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])
_SOLVE_BLOCK = 32  # rows per diagonal block of the blocked triangular solves


def _chirp(turns: float, q: np.ndarray) -> np.ndarray:
    """exp(2 pi i turns q^2) for integers ``q``, reduced to a fraction of a turn.

    ``turns`` is split so that its leading 20 bits times q^2 (< 2^33) are
    exact: the phase keeps full precision however many turns it spans.
    """
    q2 = np.asarray(q, dtype=float) ** 2
    _, e = math.frexp(turns)
    hi = math.ldexp(round(math.ldexp(turns, 20 - e)), e - 20)
    whole = hi * q2
    frac = whole - np.rint(whole) + (turns - hi) * q2
    return np.exp(2j * np.pi * frac)


def _transform(data: ScatteringData, sign: float, u0: float, du: float, count: int) -> np.ndarray:
    """(drho / 2pi) sum_k S(rho_k) exp(i sign rho_k u_j) at u_j = u0 + j du, j < count.

    A blocked chirp-z transform.  With centred indices (rho_k = k~ drho, and
    u_j = u_c + j~ du about the centre u_c of a block of B samples),
    rho_k u_j = rho_k u_c + a k~ j~ with a = drho du, and
    k~ j~ = (k~^2 + j~^2 - (j~ - k~)^2) / 2.  So each block is one FFT
    convolution of the pre-chirped, re-anchored S with the chirp
    exp(-i sign a d^2 / 2), of length at least n + B - 1; the chirps and the
    filter's FFT are formed once per call.  Re-anchoring u_c per block keeps
    every chirp phase bounded by the block and grid sizes.
    """
    nodes, step = data.rho_grid.nodes, data.rho_grid.step
    n = nodes.size
    block = min(count, _BLOCK_U)
    size = 1 << (n + block - 2).bit_length()  # FFT length >= n + block - 1
    turns = sign * step * du / (16.0 * np.pi)  # a d^2 / 2 radians = turns q^2 with q = 2 d
    lag = np.arange(-(n - 1), block)  # j - j0 - k
    filt = np.zeros(size, dtype=complex)
    filt[lag] = _chirp(-turns, 2 * lag + n - block)
    filt = np.fft.fft(filt)[:, None, None]
    pre = (_chirp(turns, 2 * np.arange(n) - n + 1) * (step / (2.0 * np.pi)))[:, None, None] * data.S
    post = _chirp(turns, 2 * np.arange(block) - block + 1)[:, None, None]
    out = np.empty((count, data.m, data.m), dtype=complex)
    for lo in range(0, count, block):
        u_c = u0 + (lo + 0.5 * (block - 1)) * du
        a = np.exp(1j * sign * u_c * nodes)[:, None, None] * pre
        conv = np.fft.ifft(np.fft.fft(a, size, axis=0) * filt, axis=0)
        out[lo : lo + block] = (post * conv[:block])[: count - lo]
    return out


def fourier_kernel(data: ScatteringData, u0: float, du: float, count: int) -> np.ndarray:
    """Continuous kernel part: R(u) = (1/2pi) int S(rho) exp(+-i rho u) drho.

    Sampled at u_j = u0 + j du, j < count; the caller gives the grid exactly.
    The sign in the exponent is + for right data and - for left data.  The
    quadrature is the uniform midpoint rule native to the half-offset
    spectral grid, evaluated by the blocked chirp-z transform of
    ``_transform`` in blocks of at most ``_BLOCK_U`` samples: O((n + count)
    log) work and no (u, rho) array.  S = 0 gives exact zeros.
    """
    return _transform(data, 1.0 if data.side == "right" else -1.0, u0, du, count)


def assemble_M(data: ScatteringData, u0: float, du: float, count: int) -> np.ndarray:
    """Right-form GLM kernel samples at u_j = u0 + j du, shape (count, m, m).

    Right data give M_+(u).  Left data give M_-(-u), the kernel of the
    mirrored left equation: the Fourier part at -u plus N_k exp(-tau_k u).
    """
    u = u0 + du * np.arange(count)
    out = _transform(data, 1.0, u0, du, count)
    for b in data.bound_states:
        out += np.exp(-b.tau * u)[:, None, None] * b.weight
    return out


def _tail_factor(data: ScatteringData, ys: np.ndarray):
    """P at the nodes ``ys`` with P(t) P(y)^H = E(t) W E(y)^H, or None without states.

    The bound-state part of the right-form kernel is separable,
    sum_k N_k exp(-tau_k (t + y)) = E(t) E(y)^H with E(y) = [B_k exp(-tau_k y)]
    and N_k = B_k B_k^H.  Past the last node L the Fourier part is zero, so
    K(x, t) = -c(x) E(t)^H there, and eliminating c leaves the kernel
    F(t + y) + E(t) W E(y)^H on [x, L]: the Schur complement of the tail, with
    W = (I + G_L)^-1 and G_L = int_L^inf E^H E = [B_k^H B_l exp(-(tau_k + tau_l) L)
    / (tau_k + tau_l)].  W depends on L alone, so the systems at later nodes
    remain trailing blocks.
    """
    if not data.bound_states:
        return None
    b, index = range_factors([s.weight for s in data.bound_states])
    tau = np.array(data.taus)[index]
    e = b * np.exp(-np.outer(ys, tau))[:, None, :]
    g = e[-1].conj().T @ e[-1] / (tau[:, None] + tau[None, :])
    chol = np.linalg.cholesky(np.eye(tau.size) + g)  # I + G_L = C C^H, so P = E C^-H
    return np.linalg.solve(chol, e.conj().transpose(0, 2, 1)).conj().transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# nested Nystrom solve


def gregory_weights(n: int, du: float) -> np.ndarray:
    """Endpoint-corrected trapezoid weights (Gregory rule, fourth order) on n >= 6 nodes."""
    w = np.full(n, du)
    head = _GREGORY_HEAD * du
    w[:3] = head
    w[-3:] = head[::-1]
    return w


@dataclass(frozen=True)
class DiagonalSolve:
    """Kernel diagonal at x_k = x_0 + k du from one factorization."""

    diag: np.ndarray  # (count, m, m) values of K(x_k, x_k)
    sigma_min_est: float
    residual: float


def _hankel_system(h: np.ndarray, du: float, s: int) -> np.ndarray:
    """I + D [h_{i+j}] D, D^2 the Gregory weights, as a C-contiguous (n m, n m) matrix.

    The first ``s`` nodes' rows are left [I 0].  Row (i, a) of the others is the
    window of h[:, a, :] flattened from i m, times du; only the three Gregory
    nodes at each end are then rescaled, their rows and columns by sqrt(w / du).
    """
    n, m = (len(h) + 1) // 2, h.shape[-1]
    a = np.empty((n, m, n * m), dtype=complex)
    a[:s] = 0.0
    for b in range(m):
        np.multiply(sliding_window_view(h[:, b, :].ravel(), n * m)[s * m :: m], du, out=a[s:, b])
    ends = np.r_[0:3, n - 3 : n]
    fix = np.sqrt(gregory_weights(n, 1.0))[ends]
    a[ends[ends >= s]] *= fix[ends >= s, None, None]
    a = a.reshape(n * m, n * m)
    a[s * m :].reshape(-1, n, m)[:, ends] *= fix[:, None]
    a.flat[:: n * m + 1] += 1.0
    return a


def _one_norm(a: np.ndarray, sm: int) -> float:
    """1-norm of the Hermitian matrix whose rows are [I 0] above row ``sm`` and a's from it on.

    Column j >= sm sums as row j; the moduli are formed 128 rows at a time.
    """
    sums = np.ones(len(a))
    for lo in range(sm, len(a), 128):
        block = np.abs(a[lo : lo + 128])
        sums[lo : lo + 128] = block.sum(axis=1)
        sums[:sm] += block[:, :sm].sum(axis=0)
    return float(sums.max())


def _hankel_product(h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """[sum_j h_{i+j} z_j]_i for blocks h (2n-1, m, m) and z (n, m, k), by FFT."""
    n = z.shape[0]
    size = 3 * n - 2  # the full linear convolution, no wrap-around
    spectrum = np.fft.fft(h, size, axis=0) @ np.fft.fft(z[::-1], size, axis=0)
    return np.fft.ifft(spectrum, axis=0)[n - 1 : 2 * n - 1]


def _gram(b: np.ndarray, h: np.ndarray, du: float, s: int) -> np.ndarray:
    """B B^H for the rows B = ``_hankel_system(h, du, s)[s m:, :s m]``, from their displacement.

    Block (i, j) of B is du e_i e_j h_{i+j} (nodes i >= s, j < s; e^2 the
    Gregory weight ratios), so with the row factors e_i e_i' taken out, block
    (i, i') of the Gram obeys G[i + 1, i' + 1] = G[i, i'] + du^2 sum_j h_{i+j}
    c_j h_{i'+j}^H with c_j = e_{j-1}^2 [0 < j <= s] - e_j^2 [j < s]: nonzero
    at j = 0 and s (the window ends) and beside the Gregory nodes, rank 5 m
    in all.  The first block row and column come from B itself.
    """
    m = h.shape[-1]
    size = len(b)
    e = np.sqrt(gregory_weights((len(h) + 1) // 2, 1.0))
    c = np.zeros(s + 1)
    c[1:] += e[:s] ** 2
    c[:s] -= e[:s] ** 2
    js = np.flatnonzero(c)
    w = h[np.arange(s, s + size // m - 1)[:, None] + js].transpose(0, 2, 1, 3).reshape(size - m, js.size * m)
    step = (w * np.repeat(c[js] * du**2, m)) @ w.conj().T
    er = np.repeat(e[s:], m)
    g = np.empty((size, size), dtype=complex)
    g[:, :m] = (b @ b[:m].conj().T) / (er[:, None] * er[:m])
    g[:m, m:] = g[m:, :m].conj().T
    for lo in range(m, size, m):
        np.add(g[lo - m : lo, :-m], step[lo - m : lo], out=g[lo : lo + m, m:])
    ends = np.flatnonzero(er != 1.0)
    g[ends] *= er[ends, None]
    g[:, ends] *= er[ends]
    return g


def _cholesky(a: np.ndarray, offset: int) -> np.ndarray:
    """Lower Cholesky factor of the Hermitian ``a``.

    If ``a`` is not positive definite, ``IllPosedDataError`` names LAPACK's
    info, the order of its smallest leading minor that is not, plus
    ``offset``; the minor is found by bisection, on the failure path only.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        ok, bad = 0, len(a)
        while bad - ok > 1:
            mid = (ok + bad) // 2
            try:
                np.linalg.cholesky(a[:mid, :mid])
                ok = mid
            except np.linalg.LinAlgError:
                bad = mid
        raise IllPosedDataError(f"GLM operator not positive definite (info {bad + offset})") from None


def _split_solver(b: np.ndarray, l22: np.ndarray):
    """x -> A^-1 x for x of shape (N,) or (N, k), where A = L L^H with L = [[I, 0], [B, L22]].

    L22 is swept in blocks of _SOLVE_BLOCK rows, its diagonal blocks inverted
    in one batch.  B and B^H enter as products, so no solve touches the
    identity block, and conjugates are taken of vectors only.
    """
    spans = [(lo, min(lo + _SOLVE_BLOCK, len(l22))) for lo in range(0, len(l22), _SOLVE_BLOCK)]
    blocks = np.tile(np.eye(_SOLVE_BLOCK, dtype=complex), (len(spans), 1, 1))
    for block, (lo, hi) in zip(blocks, spans):
        block[: hi - lo, : hi - lo] = l22[lo:hi, lo:hi]
    # the inverse of [[T, 0], [0, I]] holds T^-1
    invs = [inv[: hi - lo, : hi - lo] for inv, (lo, hi) in zip(np.linalg.inv(blocks), spans)]

    def solve(x):
        x1 = x[: b.shape[1]]
        y = x[b.shape[1] :] - b @ x1
        for inv, (lo, hi) in zip(invs, spans):  # L22 y = x2 - B x1
            y[lo:hi] = inv @ (y[lo:hi] - l22[lo:hi, :lo] @ y[:lo])
        z = y.conj()
        for inv, (lo, hi) in zip(invs[::-1], spans[::-1]):  # L22^H z2 = y, as L22^T conj(z2) = conj(y)
            z[lo:hi] = inv.T @ (z[lo:hi] - l22[hi:, lo:hi].T @ z[hi:])
        return np.concatenate([x1 - (b.T @ z).conj(), z.conj()])

    return solve


def _inverse_one_norm(solve, size: int) -> float:
    """Estimate of ||A^-1||_1 for a Hermitian A of order ``size`` >= 2, A^-1 applied by ``solve``.

    A transcription of LAPACK's zlacn2, the Hager-Higham estimator that
    zpocon runs (Higham, ACM TOMS 14, 1988), with A^H = A: at most five
    power steps on the dual unit ball, then the alternating-sign test vector.
    The estimate is a lower bound on ||A^-1||_1.
    """
    tiny = np.finfo(float).tiny

    def signs(x):
        mod = np.abs(x)
        return np.where(mod > tiny, x / np.maximum(mod, tiny), 1.0)

    x = solve(np.full(size, 1.0 / size, dtype=complex))
    est = np.abs(x).sum()
    x = solve(signs(x))
    j = int(np.argmax(np.abs(x)))
    for _ in range(4):
        x = solve(np.eye(1, size, j, dtype=complex)[0])
        est, last = np.abs(x).sum(), est
        if est <= last:
            break
        x = solve(signs(x))
        j, j_last = int(np.argmax(np.abs(x))), j
        if abs(x[j_last]) == abs(x[j]):
            break
    alternating = (1.0 + np.arange(size) / (size - 1)) * np.where(np.arange(size) % 2, -1.0, 1.0)
    return float(max(est, 2.0 * np.abs(solve(alternating.astype(complex))).sum() / (3 * size)))


def nested_diagonal(h: np.ndarray, du: float, count: int, tail: np.ndarray = None) -> DiagonalSolve:
    """K(x_k, x_k) at x_k = x_0 + k du, k < count, from one reverse Cholesky.

    ``h`` holds the Hankel part of the kernel at the Hankel arguments
    2 x_0 + j du, j < 2n - 1, with n = (len(h) + 1) // 2.  ``tail`` (n, m, r),
    if given, adds P_i P_j^H to the kernel block of nodes i and j (the
    closed-form bound-state tail of ``_tail_factor``).  The system at x_k has
    the nodes x_k + j du up to x_0 + (n - 1) du, so all of them end on the
    same node; the last needs at least eight nodes (n >= count + 7).  Its symmetrized
    matrix is D (B_k + F) D: B_k is the trailing block of the x_0 system A
    from node k, D^2 the ratio of the Gregory weights of its first three
    nodes to A's weights there, and F = D^-2 - I.  With A = U U^H (U upper
    triangular), the first three nodes of (B_k + F)^-1 are (T T^H + F)^-1
    with T = U's 3 x 3 node block at k, and K(x_k, x_k) = ((A_k^-1)_00 - I) / w_0
    (Dyson's diagonal identity).

    In reversed index order the factor is lower triangular, L with
    A reversed = L L^H.  Without a tail, samples that are exactly zero from
    h_K on leave the last n - ceil(K / 2) nodes, which come first there,
    coupled to each other only through I.  So A reversed is [[I, B^H], [B, M22]]
    with B the built rows' own entries, L = [[I, 0], [B, L22]], and only
    M22 - B B^H = L22 L22^H is factored, its Gram B B^H from the Hankel
    displacement (``_gram``).  With a tail the identity block is empty.

    A factorization failure or an estimated reciprocal condition below
    1e-12 raises ``IllPosedDataError``; the estimate is LAPACK zpocon's,
    through ``_inverse_one_norm``.  The residual is that of the x_0 row,
    solved through the factor and checked against the kernel applied by FFT
    and through the tail factor.
    """
    n = (len(h) + 1) // 2
    if n < count + 7:
        raise ValueError(f"{len(h)} kernel samples give {n} nodes, fewer than count + 7 = {count + 7}")
    m = h.shape[-1]
    p = np.zeros((n, m, 0), dtype=complex) if tail is None else tail
    live = np.flatnonzero(np.any(h, axis=(1, 2)))
    if not (live.size or np.any(p)):
        return DiagonalSolve(np.zeros((count, m, m), dtype=complex), 1.0, 0.0)
    w = gregory_weights(n, du)
    sw = np.sqrt(w)

    # built in reversed index order (nodes and entries within blocks), where the
    # nodes coupled only through I come first, and factored in place there
    sm = 0 if p.shape[-1] else (n - (live[-1] + 2) // 2) * m
    h_rev = h[::-1, ::-1, ::-1]
    a_rev = _hankel_system(h_rev, du, sm // m)
    if p.shape[-1]:
        dp_rev = (sw[:, None, None] * p).reshape(n * m, -1)[::-1]
        a_rev += dp_rev @ dp_rev.conj().T  # the tail term (D P)(D P)^H
    anorm = _one_norm(a_rev, sm)  # read by the rcond gate alone: rcond * anorm does not depend on it
    b, a22 = a_rev[sm:, :sm], a_rev[sm:, sm:]
    if sm:
        a22 -= _gram(b, h_rev, du, sm // m)
    a22[...] = _cholesky(a22, sm)  # info numbered from the first row of the whole reversed system
    solve = _split_solver(b, a22)
    rcond = 1.0 / _inverse_one_norm(solve, n * m) / anorm
    if not rcond >= RCOND_FLOOR:  # NaN too
        raise IllPosedDataError(f"GLM system has reciprocal condition {rcond:.3e}")
    u = a_rev[::-1, ::-1]

    k = np.arange(count)
    idx = k[:, None] * m + np.arange(3 * m)
    t = u[idx[:, :, None], idx[:, None, :]]
    head = _GREGORY_HEAD * du
    d_inv2 = w[k[:, None] + np.arange(3)] / head  # D^-2 on the three head nodes
    g = t @ t.conj().transpose(0, 2, 1)
    g[:, np.arange(3 * m), np.arange(3 * m)] += np.repeat(d_inv2 - 1.0, m, axis=1)
    inv00 = np.linalg.inv(g)[:, :m, :m] * d_inv2[:, 0, None, None]
    diag = (inv00 - np.eye(m)) / head[0]

    # x_0 row in column form, A v = -b^H, solved in reversed order
    p_h = p.conj().transpose(0, 2, 1)
    rhs = -((h[:n].conj().transpose(0, 2, 1) + p @ p_h[0]) * sw[:, None, None])
    v = solve(rhs.reshape(n * m, m)[::-1])[::-1].reshape(n, m, m)
    z = sw[:, None, None] * v
    av = v + sw[:, None, None] * (_hankel_product(h, z) + p @ (p_h @ z).sum(axis=0))
    return DiagonalSolve(diag, float(rcond * anorm), float(np.abs(av - rhs).max()))


# ---------------------------------------------------------------------------
# potential recovery


def _derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order central differences at the nodes 2 .. n-3."""
    return (-values[4:] + 8 * values[3:-1] - 8 * values[1:-3] + values[:-4]) / (12 * dx)


def _check_size(entries: float, what: str) -> None:
    """Raise ``IllPosedDataError`` when one array would exceed MAX_ENTRIES."""
    if entries > MAX_ENTRIES:
        raise IllPosedDataError(f"GLM {what} needs {entries:.3g} complex entries, over the budget of 2^27")


def _half_line_potential(data: ScatteringData, xs: np.ndarray, dx: float):
    """Q = -2 dK/dx on ascending nodes ``xs`` from one side's data.

    Right data give the plus equation; left data give the mirrored equation,
    whose nodes are the reflected ones.  The diagonal is solved on xs plus
    two nodes past each end, so every node gets the central stencil.  With
    du = 2 dx, node i of those nodes has the Hankel argument
    u_i = 2 ext_0 + i du, so two interleaved factorizations cover them, the
    r-th reading the kernel samples from u_r.  A failed factorization or
    reciprocal-condition gate of data with bound states is re-raised naming
    the side and the state whose kernel ||N|| exp(-tau u) peaks highest on
    the grid, against 1/eps.  Returns (q values (len(xs), m, m), min sigma
    estimate, max residual).
    """
    du = 2.0 * dx
    ext = xs[0] + dx * np.arange(-2, xs.size + 2)
    taus = np.array(data.taus)
    scales = np.array([matrix_operator_norm(b.weight) for b in data.bound_states])
    # the bound-state kernel N exp(-tau u) is formed from the first Hankel argument u = 2 ext_0 on
    peaks = np.log(np.maximum(scales, 1e-30)) - taus * 2 * ext[0]
    if np.any(peaks >= np.log(np.finfo(float).max)):
        raise IllPosedDataError(
            f"bound state at tau = {taus[np.argmax(peaks)]:.6g} of the {data.side} data overflows the GLM "
            f"kernel ||N|| exp(-tau u) at its first Hankel argument u = {2 * ext[0]:.6g}"
        )

    # the continuous part, the + transform of either side's S in right form, is sampled past the
    # slowest bound-state tail but at most to one sample past |u| = u_limit, where the midpoint sum
    # aliases and F is zero; the logs are apart, as ||N|| / TAIL_REL overflows past ||N|| = 1.8e298
    tails = (np.log(np.maximum(scales, 1e-30)) - np.log(TAIL_REL)) / taus
    u_hi = max(2 * ext[-1] + 2.0, min(max(tails, default=0.0) + 2.0, data.rho_grid.u_limit + du))
    n_u = int(np.ceil((u_hi - 2 * ext[0]) / du)) + 1
    _check_size(n_u * data.m**2, "kernel samples")
    u = 2 * ext[0] + du * np.arange(n_u)
    f = _transform(data, 1.0, 2 * ext[0], du, n_u)
    f[np.abs(u) > data.rho_grid.u_limit] = 0.0

    # The system at x = ext_i meets u >= u_i.  It ends where |F| has fallen
    # below TAIL_REL times its running max from u_i; all systems end on one
    # node, and the bound-state part past it is exact (``_tail_factor``).
    running = np.maximum.accumulate(np.abs(f).max(axis=(1, 2))[::-1])[::-1]
    cut = u[np.minimum(np.searchsorted(-running, -TAIL_REL * running[: ext.size]), n_u - 1)]
    y_end = float(np.max(np.maximum(cut, 2 * ext) - ext))

    counts = [ext[0::2].size, ext[1::2].size]
    sizes = [max(c + 7, int(np.ceil((y_end - ext[r]) / du - 1e-9)) + 1) for r, c in enumerate(counts)]
    _check_size((max(sizes) * data.m) ** 2, "system")
    end = max(r + 2 * n - 1 for r, n in enumerate(sizes))
    if end > n_u:  # F is zero past u_hi
        f = np.concatenate([f, np.zeros((end - n_u, data.m, data.m), dtype=complex)])

    try:
        solves = [nested_diagonal(f[r : r + 2 * n - 1], du, c, _tail_factor(data, ext[r] + du * np.arange(n)))
                  for r, (n, c) in enumerate(zip(sizes, counts))]
    except IllPosedDataError as exc:
        if not data.bound_states:
            raise
        k = int(np.argmax(peaks))
        raise IllPosedDataError(
            f"{exc}, from the {data.side} data: its state at tau = {taus[k]:.6g} peaks at "
            f"||N|| exp(-tau u) = {np.exp(peaks[k]):.3g} on the first Hankel argument u = {2 * ext[0]:.6g}, "
            f"against 1/eps = {1 / np.finfo(float).eps:.3g}"
        ) from exc
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


def invert(j_plus: ScatteringData, j_minus: ScatteringData = None, *, grid: SpaceGrid) -> InversionResult:
    """Reconstruct the potential on ``grid`` from scattering data.

    Runs the plus-side equation for x >= -_OVERLAP and the minus side for
    x <= _OVERLAP (each from two interleaved factorizations on the solve grid
    du = 2 dx), checks agreement on the shared window and stitches with a
    linear cross-fade across one cell at x = 0.  A side without target nodes
    is not solved, and with no shared window the overlap gap is 0.  When
    ``j_minus`` is omitted and the minus side is solved, it is derived from
    the right data (zero reflection, or the scalar reconstruction of the
    transmission denominator); matrix data with reflection requires it.
    Given left data must be left-side and of the right data's m.
    """
    dx = grid.dx
    xs = grid.xs
    m = j_plus.m
    if j_minus is not None and (j_minus.side != "left" or j_minus.m != m):
        raise ValidationError(
            f"left data must be left-side data of m = {m}, got {j_minus.side}-side data of m = {j_minus.m}"
        )
    has_plus = xs >= -_OVERLAP - 1e-12
    has_minus = xs <= _OVERLAP + 1e-12
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

    # agreement of the two reconstructions on the shared window
    window = has_plus & has_minus
    overlap_gap = matrix_operator_norm(q_plus[window] - q_minus[window])
    scale = float(np.abs(q).max(initial=0.0))
    if overlap_gap > _OVERLAP_TOL * (0.1 + scale):
        raise InconsistentDataError(
            f"left/right reconstructions disagree by {overlap_gap:.3e} on the overlap window"
        )
    # Q's roundoff floor: K(x, x) = ((A^-1)_00 - I) / w_0 with w_0 = 3/4 dx and ||A^-1|| <= 1 / sigma_min,
    # differenced by a stencil whose |coefficients| sum to 18 / (12 dx); only zero data give Q = 0 exactly
    floor = 4.0 * np.finfo(float).eps / (min(sigmas) * dx**2)
    if scale < floor / _OVERLAP_TOL and (scale > 0 or j_plus.bound_states or np.any(j_plus.S)):
        raise IllPosedDataError(f"max |Q| = {scale:.3e} is too close to the GLM roundoff floor {floor:.3e}")

    return InversionResult(
        potential=SampledPotential(grid, q),
        overlap_gap=overlap_gap,
        sigma_min_est=float(min(sigmas)),
        residual_max=float(max(residuals)),
        hermiticity_defect=herm_defect,
    )
