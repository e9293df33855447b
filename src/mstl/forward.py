"""Forward scattering: Jost solutions, matching coefficients, bound states.

The second-order system -F'' + Q F = rho^2 F is integrated cell by cell.  On
each cell the potential is constant (see ``SampledPotential.cell_values``), so
the exact solution operator is available from the eigendecomposition of the
cell matrix: in the eigenbasis each component propagates with cosh/sinh of
mu = sqrt(lambda - rho^2), which is branch-free because both cosh(mu h) and
sinh(mu h)/mu are even in mu.  This keeps the step error O(dx^2) uniformly in
rho (free cells and step potentials are propagated exactly), and it preserves
every Wronskian identity to roundoff, because the computed fields solve the
cellwise equation exactly.

A sweep is vectorized over its batch of spectral points.  It stays in the
eigenbasis of the current cell and holds (F, F') component-major, as one
(m, 2 m n_rho) array, so the change of basis from one cell to the next is one
(m x m) matrix product over the whole batch; the cell factors cosh(mu h),
sinh(mu h)/mu and mu sinh(mu h) are computed for a bounded block of cells at
a time, so memory does not grow with the grid.

Only the cells from the first to the last nonzero cell value are stepped.
Free cells outside that range (cell values exactly zero; node values do not
decide it) are never visited: there the fields are the exact free solution,
the incoming wave on one side and one free cosh/sinh step from the nearest
swept node on the other.  An identically zero potential needs no sweep.

Directions: the "plus" solution equals exp(i rho x) I to the right of the
support and is integrated right-to-left; "minus" mirrors this.  Row-equation
solutions needed in brackets are obtained from column solutions at -conj(rho)
by conjugate transposition, which is valid because Q is Hermitian.  The
symmetric real grid is closed under rho -> -conj(rho), so one evaluator,
``_coefficients``, gets A, B and D from one plus and one minus sweep.
Bound states are counted (``_count``): by the oscillation theorem, the
number with tau_k > tau is the number of conjugate points of F_-(x, i tau),
read along one minus sweep.  ``find_bound_states`` multisects the drops of
the count on [0, sqrt(-min lambda_min(Q))], where every state lies.  The
weights come from the eigenfunctions, a plus and a minus sweep at i tau
matched at one node and normalized (``_norming_factors``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from mstl.domain import (
    BoundState,
    CoefficientSet,
    IntegrationAccuracyError,
    JostAsymptotics,
    NumericsError,
    ResiduePair,
    RhoGrid,
    SampledPotential,
    ScatteringData,
    ValidationError,
)

BRACKET_SPREAD_RTOL = 1e-6
_N_CHECKPOINTS = 9
_BLOCK_ELEMENTS = 2**15  # cell factors per sweep block, in (cell, component, rho) entries
_WIDTH = 1e-8  # bracket width at which a bound state is located
_SECTIONS = 16  # count points per bracket in each multisection round
_NULL_GAP = 1e-3  # a null singular value of the matching matrix lies below this times the next


@dataclass(frozen=True)
class ForwardResult:
    """Right and left scattering data with the real-grid coefficients."""

    j_plus: ScatteringData
    j_minus: ScatteringData
    coefficients: CoefficientSet


# ---------------------------------------------------------------------------
# cell propagation


def _cell_factors(mu2: np.ndarray, h: float | np.ndarray):
    """cosh(mu h), sinh(mu h)/mu and mu^2 sinh(mu h)/mu for mu = sqrt(mu2).

    Complex cosh and sinh are assembled from cosh, sinh, cos and sin of the
    real and imaginary parts of mu h, which costs a fraction of numpy's
    complex versions.  sinh(mu h)/mu is evaluated stably through mu = 0 by its
    series; it and cosh(mu h) are even in mu, so the branch of the square root
    does not matter.
    """
    z = np.sqrt(mu2) * h
    cx, sx, cy, sy = np.cosh(z.real), np.sinh(z.real), np.cos(z.imag), np.sin(z.imag)
    ch = np.empty(z.shape, dtype=complex)
    ch.real, ch.imag = cx * cy, sx * sy
    sl = np.empty(z.shape, dtype=complex)
    sl.real, sl.imag = sx * cy, cx * sy
    small = np.abs(z) < 1e-6
    np.divide(sl, z, out=sl, where=~small)
    z2 = z[small] ** 2
    sl[small] = 1.0 + z2 / 6.0 + z2 * z2 / 120.0
    sl *= h
    return ch, sl, mu2 * sl


def _swept_nodes(potential: SampledPotential) -> tuple[int, int]:
    """First and last node of the cell range holding every nonzero cell value.

    Cells outside this range are exactly zero, so no sweep needs to step
    through them.  An identically zero potential gives (0, 0).
    """
    nonfree = np.flatnonzero(np.any(potential.cell_values != 0, axis=(1, 2)))
    if nonfree.size == 0:
        return 0, 0
    return int(nonfree[0]), int(nonfree[-1]) + 1


def _free_step(f, p, rhos, h):
    """Exact free (Q = 0) propagation of (F, F') over signed lengths ``h``.

    ``f`` and ``p`` have shape (n_rho, m, m); the result has a leading axis
    over ``h``.  The free propagator is scalar, so no basis change is needed.
    """
    ch, sl, ms = (c[..., None, None] for c in _cell_factors(-(rhos**2), h[:, None]))
    return ch * f + sl * p, ms * f + ch * p


def _sweep(potential: SampledPotential, rhos: np.ndarray, direction: str, substeps: int = 1):
    """Yield (node, v, t) from the free wave at the swept range's incoming edge on.

    One item per step across the swept cells (the first is the starting node,
    in the identity basis): ``t`` is the field (F, F') at ``node`` in the
    eigenbasis ``v`` of the cell just crossed, component-major, t[a, 0, b, n]
    and t[a, 1, b, n] being entry (a, b) of F and F' at rho_n, so a change of
    basis is one (m x m) @ (m x 2 m n_rho) product.  Cell factors are made for
    blocks of at most ``_BLOCK_ELEMENTS`` (cell, component, rho) entries.
    ``t`` is updated in place; a consumer may right-multiply its columns in
    place and the sweep goes on from the result.  ``substeps`` splits every
    cell into equal steps; the items between nodes carry node -1.
    """
    grid = potential.grid
    m = potential.m
    if np.any(rhos.imag < -1e-12):
        raise ValidationError("Jost solutions are defined for Im rho >= 0")
    nr = rhos.size
    lo, hi = _swept_nodes(potential)
    if direction == "plus":
        ikr, start = 1j * rhos, hi
        cells = np.arange(hi - 1, lo - 1, -1)
        reached = cells  # stepping from node c+1 down across cell c reaches node c
        h = -grid.dx
    elif direction == "minus":
        ikr, start = -1j * rhos, lo
        cells = np.arange(lo, hi)
        reached = cells + 1
        h = grid.dx
    else:
        raise ValidationError(f"unknown direction {direction!r}")

    wave = np.exp(ikr * grid.xs[start])
    t = np.empty((m, 2, m, nr), dtype=complex)  # C order: reshapes below are views
    t[:, 0], t[:, 1] = np.eye(m)[..., None] * wave, np.eye(m)[..., None] * (ikr * wave)
    yield start, np.eye(m), t
    if not cells.size:
        return

    w, v = (np.repeat(a, substeps, axis=0) for a in np.linalg.eigh(potential.cell_values[cells]))
    reached = np.where((np.arange(w.shape[0]) + 1) % substeps, -1, np.repeat(reached, substeps))
    h /= substeps
    vh = v.conj().transpose(0, 2, 1)
    hop = vh[1:] @ v[:-1]  # carries the field from one step's eigenbasis into the next
    u = (vh[0] @ t.reshape(m, -1)).reshape(t.shape)
    swapped = u[:, ::-1]  # (F', F)
    cross = np.empty_like(t)
    rho2 = rhos**2
    block = max(1, _BLOCK_ELEMENTS // (m * nr))
    for b0 in range(0, w.shape[0], block):
        mu2 = w[b0 : b0 + block, :, None, None] - rho2  # (steps, m, 1, n_rho)
        ch, sl, ms = _cell_factors(mu2, h)
        ch, sl_ms = ch[:, :, None], np.stack([sl, ms], axis=2)
        for i in range(ch.shape[0]):
            k = b0 + i
            # F <- cosh F + sinhc F',  F' <- cosh F' + mu^2 sinhc F
            np.multiply(ch[i], u, out=t)
            np.multiply(sl_ms[i], swapped, out=cross)
            t += cross
            yield int(reached[k]), v[k], t
            if k + 1 < w.shape[0]:
                np.matmul(hop[k], t.reshape(m, -1), out=u.reshape(m, -1))


def _propagate(potential: SampledPotential, rhos: np.ndarray, direction: str, keep):
    """Jost field (F, F') at the node indices ``keep``.

    Output arrays have shape (len(keep), n_rho, m, m).  Only the cells between
    the first and last nonzero cell are stepped (see ``_sweep``); on the
    incoming side of that range the field is the free wave exp(+-i rho x) I,
    and beyond its far edge it is carried from the edge by one exact free step.
    """
    xs = potential.grid.xs
    m = potential.m
    rhos = np.atleast_1d(np.asarray(rhos, dtype=complex))
    keep = np.asarray(keep, dtype=int)
    slot = {j: k for k, j in enumerate(keep.tolist())}
    out_f = np.empty((keep.size, rhos.size, m, m), dtype=complex)
    out_p = np.empty((keep.size, rhos.size, m, m), dtype=complex)

    start = None
    for node, v, t in _sweep(potential, rhos, direction):
        start = node if start is None else start
        if node in slot:
            out_f[slot[node]], out_p[slot[node]] = _to_nodes(v, t)
    end = node
    f, p = _to_nodes(v, t)

    sign = 1 if direction == "plus" else -1  # the sweep runs toward -sign x
    incoming, beyond = (keep - start) * sign > 0, (keep - end) * sign < 0
    ikr = sign * 1j * rhos
    wave = np.exp(ikr * xs[keep[incoming], None])
    out_f[incoming] = wave[..., None, None] * np.eye(m)
    out_p[incoming] = (ikr * wave)[..., None, None] * np.eye(m)
    if np.any(beyond):
        out_f[beyond], out_p[beyond] = _free_step(f, p, rhos, xs[keep[beyond]] - xs[end])
    return out_f, out_p


def _to_nodes(v, t):
    """(F, F') of shape (n_rho, m, m) from the eigenbasis state ``t`` of a cell."""
    g = (v @ t.reshape(v.shape[0], -1)).reshape(t.shape)
    return g[:, 0].transpose(2, 0, 1), g[:, 1].transpose(2, 0, 1)


def _bracket(zf, zp, yf, yp):
    """Bracket Z'^H Y - Z^H Y' for stacked fields of shape (..., m, m).

    The row solution enters as the column field (zf, zp) computed at
    -conj(rho), conjugate-transposed.
    """
    return np.einsum("...ba,...bd->...ad", zp.conj(), yf) - np.einsum(
        "...ba,...bd->...ad", zf.conj(), yp
    )


def _checkpoints(potential: SampledPotential) -> np.ndarray:
    """Bracket nodes spread over the swept range, where the drift can arise."""
    lo, hi = _swept_nodes(potential)
    return np.unique(np.linspace(lo, hi, _N_CHECKPOINTS).astype(int))


def _coefficients(potential: SampledPotential, z: np.ndarray, mirror: np.ndarray):
    """A(z), B(z), D(z) and the bracket drift of A, from one plus and one minus sweep.

    The batch ``z`` (the real grid, or points i tau, each its own mirror) must
    be closed under z -> -conj(z), with ``z[mirror] = -conj(z)``: the row
    solutions of each bracket are the column fields at -conj(z), which the
    same two sweeps provide.  B is the matching coefficient on the real axis.
    The drift is the RMS deviation of A's bracket across the checkpoints.
    """
    z = np.asarray(z, dtype=complex)
    cps = _checkpoints(potential)
    fp, pp = _propagate(potential, z, "plus", cps)
    fm, pm = _propagate(potential, z, "minus", cps)
    two_iz = 2j * z[:, None, None]
    br_a = _bracket(fm[:, mirror], pm[:, mirror], fp, pp)
    mean_a = br_a.mean(axis=0)
    drift = np.sqrt(np.mean(np.abs(br_a - mean_a) ** 2, axis=(0, 2, 3)))
    a = -mean_a / two_iz
    b = _bracket(fm, pm, fp, pp).mean(axis=0) / two_iz
    d = _bracket(fp[:, mirror], pp[:, mirror], fm, pm).mean(axis=0) / two_iz
    return a, b, d, drift


def scattering_coefficients(potential: SampledPotential, rho_grid: RhoGrid) -> CoefficientSet:
    """Matching coefficients A, B, C, D on the real grid.

    The grid is symmetric, so -conj(rho) = -rho is the reversed node; C
    follows from the real-axis symmetry C(rho) = -B(rho)^*.  Bracket
    non-constancy across x beyond tolerance raises
    ``IntegrationAccuracyError`` naming the worst node.
    """
    nodes = rho_grid.nodes
    a, b, d, drift = _coefficients(potential, nodes, np.arange(nodes.size)[::-1])
    scale = 1.0 + float(np.abs(2.0 * nodes[:, None, None] * a).max())
    j = int(np.argmax(drift))
    if drift[j] > BRACKET_SPREAD_RTOL * scale * 2 * max(1.0, float(np.abs(nodes).max())):
        raise IntegrationAccuracyError(
            f"bracket drift {drift[j]:.3e} at rho = {nodes[j]:.6g}; refine the space grid"
        )
    c = -b.conj().transpose(0, 2, 1)
    return CoefficientSet(rho_grid=rho_grid, A=a, B=b, C=c, D=d)


def reflection_matrices(coefficients: CoefficientSet):
    """Left and right reflection matrices S_- = B A^{-1}, S_+ = C D^{-1}."""
    try:
        s_minus = np.linalg.solve(
            coefficients.A.conj().transpose(0, 2, 1), coefficients.B.conj().transpose(0, 2, 1)
        ).conj().transpose(0, 2, 1)
        s_plus = np.linalg.solve(
            coefficients.D.conj().transpose(0, 2, 1), coefficients.C.conj().transpose(0, 2, 1)
        ).conj().transpose(0, 2, 1)
    except np.linalg.LinAlgError as exc:  # excluded by the unitarity identity
        raise NumericsError(f"singular matching coefficient on a real node: {exc}") from exc
    return s_minus, s_plus


def jost_asymptotics(potential: SampledPotential) -> JostAsymptotics:
    """Large-rho correction data: omega_+(x), omega_-(x) and their common limit."""
    q = potential.values
    dx = potential.grid.dx
    cum = np.zeros_like(q)
    cum[1:] = np.cumsum(dx * (q[1:] + q[:-1]) / 2.0, axis=0)  # cumulative trapezoid
    total = cum[-1]
    omega_minus = -0.5 * cum
    omega_plus = -0.5 * (total[None] - cum)
    return JostAsymptotics(
        grid=potential.grid, omega_plus=omega_plus, omega_minus=omega_minus, omega=0.5 * total
    )


# ---------------------------------------------------------------------------
# bound states


def _count(potential: SampledPotential, taus) -> tuple[np.ndarray, np.ndarray]:
    """Bound states with tau_k > tau, with multiplicity, and the conjugate-point part.

    By the oscillation theorem the count is the number of conjugate points of
    Y = F_-(x, i tau) (x where Y is singular, with multiplicity).  Inside the
    swept range they are the crossings of -1 by the eigenvalues of the unitary
    U = (Y + i Y'/s)(Y - i Y'/s)^-1, which all pass pi downward (at rate 2 s),
    so they follow from the winding of arg det U and U's eigenphases phi at
    the last node.  On the free tail beyond it, Y' Y^-1 = s tan(phi/2) and Y
    vanishes once for each eigenvalue below -tau, i.e. each phi < -2 atan(tau/s).

    det U is invariant under the cell's change of basis and under right
    multiplication of the frame.  With s^2 the largest |lambda + tau^2| over
    cells, arg det U moves at most 2 m s per unit length, so it is read often
    enough (cells split into equal steps if need be) to move less than pi
    between readings, and each reading resets the frame to ((U + I)/2,
    s (U - I)/2i), right multiplication by (Y - i Y'/s)^-1, before it can
    overflow.  Returns the integer arrays (count, conjugate points in range).
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    m = potential.m
    w = np.linalg.eigvalsh(potential.cell_values)
    s = np.sqrt(np.abs(np.array([w.min(), w.max(), 0.0])[:, None] + taus**2).max(axis=0))
    motion = 2 * m * float(s.max()) * potential.grid.dx  # bound on |d arg det U| per cell
    substeps = int(motion / np.pi) + 1
    stride = int(np.ceil(np.pi * substeps / motion)) - 1  # steps between readings
    end = _swept_nodes(potential)[1]
    phi0 = 2.0 * np.arctan(taus / s)  # U = exp(i phi0) I at the start
    i_s = (1j / s)[:, None, None]

    winding = m * phi0  # arg det U, lifted
    for k, (node, _, t) in enumerate(_sweep(potential, 1j * taus, "minus", substeps)):
        if k % stride and node != end:
            continue
        f, p = t[:, 0].T, t[:, 1].T  # transposed fields, (n_rho, m, m)
        u = np.linalg.solve(f - i_s * p, f + i_s * p)  # U^T
        det = np.linalg.det(u)
        winding += np.angle(det / np.exp(1j * winding))
        t[:, 0], t[:, 1] = (0.5 * (u + np.eye(m))).T, ((u - np.eye(m)) / (2.0 * i_s)).T

    phases = np.angle(np.linalg.eigvals(u))
    inside = (phases.sum(axis=1) - winding) / (2.0 * np.pi)
    conjugate = np.rint(inside).astype(int)
    if np.any(np.abs(inside - conjugate) > 0.25):
        raise NumericsError("eigenphase winding of the bound-state count is not integral")
    return conjugate + np.sum(phases < -phi0[:, None], axis=1), conjugate


def find_bound_states(potential: SampledPotential) -> list[float]:
    """Bound-state parameters tau > 0 (rho = i tau), each once, by counting."""
    return [tau for tau, _ in _bound_states(potential)]


def _bound_states(potential: SampledPotential) -> list[tuple[float, int]]:
    """Bound states (tau, multiplicity), tau > 0 (rho = i tau), by counting.

    tau_k^2 <= -min lambda_min(Q) = tau_bound^2, so a positive semidefinite
    potential needs no sweep.  Otherwise the count N of ``_count`` is taken at
    tau = 0 and ``_SECTIONS`` points inside [0, tau_bound] (N(tau_bound) = 0),
    and every bracket where N drops is cut into ``_SECTIONS`` + 1 parts, all
    brackets in one sweep per round, until it is narrower than ``_WIDTH``.  A
    drop of r is one state of multiplicity r, returned at its midpoint.  The
    lowest states, which the count at tau = 0 finds only on the free tail, are
    threshold (half-bound) states of a discretized exceptional potential: they
    are warned about and not returned.
    """
    w_min = float(np.linalg.eigvalsh(potential.cell_values).min())
    if w_min >= 0.0:
        return []
    taus = np.sqrt(-w_min) * np.arange(_SECTIONS + 2) / (_SECTIONS + 1)
    counts, conjugate = _count(potential, taus[:-1])
    seq = np.append(counts, 0)[None, :]
    kept = int(conjugate[0])
    if counts[0] > kept:
        warnings.warn(
            f"{counts[0] - kept} threshold state(s) below tau = "
            f"{taus[np.argmax(seq[0] <= kept)]:.3g}, found on the free tail only, are not returned",
            stacklevel=3,
        )

    width, lo = taus[1], taus[None, :-1]  # brackets [lo, lo + width], counts seq
    while True:
        if np.any(np.diff(seq, axis=1) > 0):
            raise NumericsError("the bound-state count increases with tau")
        n_lo, n_hi, lo = seq[:, :-1].ravel(), seq[:, 1:].ravel(), lo.ravel()
        holds = (n_lo > n_hi) & (n_hi < kept)  # a drop that holds a returned state
        n_lo, n_hi, lo = n_lo[holds], n_hi[holds], lo[holds]
        if width <= _WIDTH or not lo.size:
            ranks = np.minimum(n_lo, kept) - n_hi  # threshold states are not counted
            return sorted(zip((lo + 0.5 * width).tolist(), ranks.tolist()))
        width /= _SECTIONS + 1
        lo = lo[:, None] + width * np.arange(_SECTIONS + 1)
        counts, _ = _count(potential, lo[:, 1:].ravel())
        seq = np.column_stack([n_lo, counts.reshape(-1, _SECTIONS), n_hi])


def _cell_integral(potential: SampledPotential, phi, dphi, tau: float) -> np.ndarray:
    """Exact int Phi^H Phi dx over the cells for -Phi'' + Q Phi = -tau^2 Phi.

    ``phi``, ``dphi``: (Phi, Phi') at the nodes, shape (n, m, r).  On a cell
    each eigencomponent of Q is psi_0 cosh(mu s) + psi_0' sinh(mu s)/mu, with
    real mu^2 = lambda + tau^2; with ch = cosh(mu h), sl = sinh(mu h)/mu the
    integrals of cosh^2, cosh sinh/mu and (sinh/mu)^2 are (h + ch sl)/2,
    sl^2/2 and (ch sl - h)/(2 mu^2), the last by its series for small mu h.
    """
    h = potential.grid.dx
    lam, vecs = np.linalg.eigh(potential.cell_values)
    mu2 = lam + tau**2
    ch, sl = (c.real for c in _cell_factors(mu2.astype(complex), h)[:2])
    z2 = mu2 * h * h
    small = np.abs(z2) < 1e-2
    series = h**3 * (1 / 3 + z2 * (1 / 15 + z2 * (2 / 315 + z2 / 2835)))
    ss = np.where(small, series, 0.5 * (ch * sl - h) / np.where(small, 1.0, mu2))
    cs = 0.5 * sl * sl
    quad = np.stack([np.stack([0.5 * (h + ch * sl), cs], -1), np.stack([cs, ss], -1)], -1)
    vh = vecs.conj().transpose(0, 2, 1)
    psi = np.stack([vh @ phi[:-1], vh @ dphi[:-1]], axis=2)  # (cell, component, 2, r)
    return np.einsum("caki,cakl,calj->ij", psi.conj(), quad, psi)


def _norming_factors(potential: SampledPotential, tau: float, rank: int):
    """(B, V) with N_- = B B^H, N_+ = V V^H and residue R_+ = i B V^H at i tau.

    The states are the null space [V; B] of [[F_+, -F_-], [F_+', -F_-']] at
    the node x* maximizing sigma_min(F_+) sigma_min(F_-), away from where
    the jitter of tau excites either field's growing mode; the ``rank``
    smallest singular values must lie below ``_NULL_GAP`` times the next.
    Phi is F_+ V from x* on and F_- B before it; G = int Phi^H Phi dx is
    exact over the cells and the free tails (Phi^H Phi / (2 tau) per end).
    Then N_+ = V G^-1 V^H, N_- = B G^-1 B^H (N = (int f^2 dx)^-1 in matrix
    form) and R_+ = i F_-^-1 F_+ N_+ = i B G^-1 V^H at x*, so [V; B] C^-H is
    returned, G = C C^H.
    """
    m, nodes = potential.m, range(potential.grid.n)
    fp, pp = (a[:, 0] for a in _propagate(potential, 1j * tau, "plus", nodes))
    fm, pm = (a[:, 0] for a in _propagate(potential, 1j * tau, "minus", nodes))
    sigma = np.linalg.svd(fp, compute_uv=False)[:, -1] * np.linalg.svd(fm, compute_uv=False)[:, -1]
    star = int(np.argmax(sigma))
    _, s, vh = np.linalg.svd(np.block([[fp[star], -fm[star]], [pp[star], -pm[star]]]))
    if not s[-rank] <= _NULL_GAP * s[-rank - 1]:
        raise NumericsError(
            f"no bound state of multiplicity {rank} at tau = {tau:.6g}: the {rank} smallest "
            f"singular values of the matching matrix do not stand apart "
            f"({s[-rank] / s[-rank - 1]:.2e} of the next)"
        )
    null = vh[-rank:].conj().T
    v, b = null[:m], null[m:]
    phi = np.concatenate([fm[:star] @ b, fp[star:] @ v])
    dphi = np.concatenate([pm[:star] @ b, pp[star:] @ v])
    ends = phi[[0, -1]].conj().transpose(0, 2, 1) @ phi[[0, -1]]
    gram = _cell_integral(potential, phi, dphi, tau) + ends.sum(axis=0) / (2.0 * tau)
    null = np.linalg.solve(np.linalg.cholesky(gram), null.conj().T).conj().T
    return null[m:], null[:m]


def weight_matrices(potential: SampledPotential, tau: float, rank: int):
    """Weights (N_-, N_+) of the state i tau of multiplicity ``rank``, else NumericsError."""
    b, v = _norming_factors(potential, tau, rank)
    return b @ b.conj().T, v @ v.conj().T


def residue_matrix(potential: SampledPotential, tau: float) -> ResiduePair:
    """Residues R_- = -R_+^H of A^-1 and D^-1 at i tau; the count across tau gives the rank."""
    counts, _ = _count(potential, [max(tau - _WIDTH, 0.0), tau + _WIDTH])
    if counts[0] <= counts[1]:
        raise NumericsError(f"no bound state at tau = {tau:.6g}")
    b, v = _norming_factors(potential, tau, int(counts[0] - counts[1]))
    r_plus = 1j * b @ v.conj().T
    return ResiduePair(tau=float(tau), R_minus=-r_plus.conj().T, R_plus=r_plus)


def full_forward(potential: SampledPotential, rho_grid: RhoGrid) -> ForwardResult:
    """Complete forward map: potential -> (right data, left data, coefficients)."""
    states = _bound_states(potential)
    coeffs = scattering_coefficients(potential, rho_grid)
    s_minus, s_plus = reflection_matrices(coeffs)

    right_states = []
    left_states = []
    for tau, rank in states:
        n_minus, n_plus = weight_matrices(potential, tau, rank)
        right_states.append(BoundState(tau=tau, weight=n_plus, side="right"))
        left_states.append(BoundState(tau=tau, weight=n_minus, side="left"))

    j_plus = ScatteringData(side="right", rho_grid=rho_grid, S=s_plus, bound_states=tuple(right_states))
    j_minus = ScatteringData(side="left", rho_grid=rho_grid, S=s_minus, bound_states=tuple(left_states))
    return ForwardResult(j_plus, j_minus, coeffs)
