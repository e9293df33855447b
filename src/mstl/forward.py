"""Forward scattering: Jost solutions, matching coefficients, bound states.

The second-order system -F'' + Q F = rho^2 F is integrated cell by cell.  On
each cell the potential is constant (see ``SampledPotential.cell_values``), so
the exact solution operator comes from the eigendecomposition of the cell
matrix, made once per potential (``SampledPotential.cell_eigh``): in the
eigenbasis each component propagates with cosh(mu h) and sinh(mu h)/mu,
mu^2 = lambda - rho^2.  Sweeps run only at real rho and at rho = i tau, so
mu^2 and the factors are real (``_cell_factors``).  The step error is O(dx^2)
uniformly in rho, and every Wronskian identity holds to roundoff, because
the computed fields solve the cellwise equation exactly.

One routine (``_sweep``) runs every sweep, vectorized over its batch of
spectral points.  It holds (F, F') component-major in the current cell's
eigenbasis, so moving to the next cell is one (m x m) matrix product over the
batch, and makes the cell factors for a bounded block of cells at a time (on
the symmetric real grid for rho > 0 only: mu^2 is even in rho).  A plus sweep
from the right edge and a minus sweep from the left edge advance together as
one (2, m, 2 m n_rho) array, each field's arithmetic exactly that of a sweep
of its own.  The Newton and weight sweeps also carry the tau-derivative
fields (dF, dF'), stepped with the closed-form mu^2-derivatives of the cell
factors (``_cell_slopes``), as two more rows that the same product moves.
Only the cells from the first to the last nonzero cell value are stepped;
beyond them every field is a closed-form free wave, and an identically zero
potential needs no sweep.

The "plus" solution equals exp(i rho x) I right of the support and is swept
right-to-left; "minus" mirrors this.  Row solutions in brackets are column
solutions at -conj(rho), conjugate-transposed (Q is Hermitian).  The brackets
do not depend on x, and left of the swept cells the minus field is the free
wave exp(-i rho x) I, so ``scattering_coefficients`` gets A, B and D from one
plus sweep, read at the left edge.  Its drift gate checks the plus field's
flux F'^H F - F^H F' = -2 i rho I across the range against its roundoff.

Bound states are counted (``_count``): by the oscillation theorem, the
number with tau_k > tau is the number of conjugate points of F_-(x, i tau),
read along one minus sweep of Cayley frames U = (Y + i Y'/s)(Y - i Y'/s)^-1.
The count on [0, sqrt(-min lambda_min(Q))], where every state lies,
certifies how many states each bracket holds.  Each state is then located
where the plus and minus Jost planes meet at one matching node (the
matching-point scheme of the multichannel CP solvers): W = U_+^H U_- has the
eigenvalue 1 there, so one of its eigenphases, all rising with tau, crosses 0.
Newton on it, safeguarded by the bracket, takes one stacked plus and minus
half sweep per round for all brackets, and the derivative rows give its
slopes exactly.  Brackets the eigenphase crossings do not explain are
multisected by the count.  One stacked plus and minus sweep of all states
with the derivative rows gives the weights: at a node where the state lives,
the null space of the matching matrix gives its eigenfunctions and the
tau-derivative Wronskian of each side its integral of Phi^H Phi, free tail
included (``_norming_factors``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from mstl.domain import (
    MAX_ENTRIES,
    BoundState,
    CoefficientSet,
    IntegrationAccuracyError,
    NumericsError,
    RhoGrid,
    SampledPotential,
    ScatteringData,
    ValidationError,
)

BRACKET_SPREAD_RTOL = 1e-6
_N_CHECKPOINTS = 9
_BLOCK_ELEMENTS = 2**15  # cell factors per sweep block, in (cell, component, rho) entries
_WIDTH = 1e-8  # a Newton step or bracket width this short locates a bound state
_SECTIONS = 16  # count points per bracket in each multisection round
_PASS = 4  # matching-node sections per count bracket in the first pass
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
    """cosh(mu h), sinh(mu h)/mu and mu^2 sinh(mu h)/mu for real mu2 = mu^2.

    The factors are even in mu, so for real mu2 they are real: with
    z = sqrt(|mu2|) |h| they are cosh z and h sinh(z)/z where mu2 > 0, and
    cos z and h sin(z)/z where mu2 <= 0.  sinh(mu h)/mu is taken through z = 0
    by its series in mu2 h^2.
    """
    z = np.sqrt(np.abs(mu2)) * np.abs(h)
    grows = mu2 > 0
    ch, sl = np.empty_like(z), np.empty_like(z)
    np.cosh(z, out=ch, where=grows)
    np.sinh(z, out=sl, where=grows)
    np.cos(z, out=ch, where=~grows)
    np.sin(z, out=sl, where=~grows)
    small = z < 1e-6
    sl *= 1.0 / np.where(small, 1.0, z)
    z2 = (mu2 * h * h)[small]
    sl[small] = 1.0 + z2 / 6.0 + z2 * z2 / 120.0
    sl *= h
    return ch, sl, mu2 * sl


def _cell_slopes(mu2: np.ndarray, h: float | np.ndarray, ch: np.ndarray, sl: np.ndarray):
    """d/d(mu^2) of ch, sl and mu^2 sl of ``_cell_factors``: h sl/2, (h ch - sl)/(2 mu^2), (sl + h ch)/2.

    The middle one cancels as mu^2 h^2 -> 0; below |mu^2 h^2| = 0.1 it comes
    from its series h^3 sum_k k (mu^2 h^2)^(k-1) / (2k + 1)!, exact there by k = 6.
    """
    hch, z2 = h * ch, mu2 * h * h
    small = np.abs(z2) < 0.1
    series = 1 / 6 + z2 * (1 / 60 + z2 * (1 / 1680 + z2 * (1 / 90720 + z2 * (1 / 7983360 + z2 / 1037836800))))
    dsl = np.where(small, h**3 * series, (hch - sl) / (2.0 * np.where(small, 1.0, mu2)))
    return 0.5 * h * sl, dsl, 0.5 * (sl + hch)


def _swept_nodes(potential: SampledPotential) -> tuple[int, int]:
    """First and last node of the cell range holding every nonzero cell value.

    Cells outside this range are exactly zero, so no sweep needs to step
    through them.  An identically zero potential gives (0, 0).
    """
    nonfree = np.flatnonzero(np.any(potential.cell_values != 0, axis=(1, 2)))
    if nonfree.size == 0:
        return 0, 0
    return int(nonfree[0]), int(nonfree[-1]) + 1


def _sweep(potential: SampledPotential, rhos: np.ndarray, directions, substeps: int = 1, stop=None, slopes=False):
    """Yield (nodes, v, t) from the free waves at the swept range's incoming edges on.

    The sweeps of ``directions`` ("plus" from the right edge of the swept
    range, "minus" from its left edge) advance together, one step of each per
    item; the first item holds the starting nodes, in the identity basis.
    ``t`` has shape (d, m, rows, m, n_rho): t[d, a, 0, b, n] and
    t[d, a, -1, b, n] are entry (a, b) of F and F' of sweep d at rho_n in the
    eigenbasis v[d] of the cell it has just crossed.  With ``slopes`` (every
    rho = i tau) rows 1 and 2 hold dF/dtau and dF'/dtau, so each row's partner
    in the step is its mirror.  nodes[d] is the node sweep d reaches, -1
    between nodes (``substeps`` splits every cell into equal steps) and after
    its end: the far edge of the swept range, or node ``stop`` inside it (half
    sweeps).  An ended sweep is left as it is, v[d] its last cell's eigenbasis.
    ``t`` is updated in place; a consumer may right-multiply its columns in
    place and the sweeps go on from the result.

    Every rho must be real or i tau with tau >= 0, so that mu^2 = lambda - rho^2
    is real and ``_cell_factors`` applies.
    """
    grid, m, d = potential.grid, potential.m, len(directions)
    if not np.all((rhos.imag == 0) | ((rhos.real == 0) & (rhos.imag >= 0))):
        raise ValidationError("Jost solutions are swept at real rho or at rho = i tau, tau >= 0")
    nr = rhos.size
    lo, hi = _swept_nodes(potential)
    sweeps = []  # (ikr, d ikr / d tau, start, cells, nodes reached, h) of each direction
    for direction in directions:
        if direction == "plus":  # crossing cell c downward reaches node c
            cells = np.arange(hi - 1, (lo if stop is None else stop) - 1, -1)
            sweeps.append((1j * rhos, -1.0, hi, cells, cells, -grid.dx))
        elif direction == "minus":
            cells = np.arange(lo, hi if stop is None else stop)
            sweeps.append((-1j * rhos, 1.0, lo, cells, cells + 1, grid.dx))
        else:
            raise ValidationError(f"unknown direction {direction!r}")
    ikr, dikr, starts, cells, reached, h = zip(*sweeps)
    ikr, starts, eye = np.array(ikr), list(starts), np.eye(m)
    x = grid.xs[starts][:, None]
    rows = [wave := np.exp(ikr * x), ikr * wave]
    if slopes:  # the tau-derivative of exp(ikr x), ikr = -+tau
        dwave = np.array(dikr)[:, None] * wave
        rows[1:1] = [x * dwave, (1.0 + ikr * x) * dwave]
    t = np.empty((d, m, len(rows), m, nr), dtype=complex)  # C order: reshapes below are views
    t[:] = eye[:, None, :, None] * np.stack(rows, axis=1)[:, None, :, None]
    yield starts, np.broadcast_to(eye, (d, m, m)), t
    lengths = [c.size * substeps for c in cells]
    steps = max(lengths)
    if not steps:
        return

    lam, vecs = potential.cell_eigh
    w = np.zeros((steps, d, m))
    v = np.empty((steps, d, m, m), dtype=vecs.dtype)
    v[:] = eye
    nodes = np.full((steps, d), -1)
    for j, (c, r, n) in enumerate(zip(cells, reached, lengths)):
        if n:  # an ended sweep keeps its last cell
            c = np.concatenate([np.repeat(c, substeps), np.full(steps - n, c[-1])])
            w[:, j], v[:, j] = lam[c], vecs[c]
            nodes[:n, j] = np.where((np.arange(n) + 1) % substeps, -1, np.repeat(r, substeps))
    nodes = nodes.tolist()
    h = (np.array(h) / substeps)[:, None, None, None]
    vh = v.conj().swapaxes(-1, -2)
    hop = vh[1:] @ v[:-1]  # carries each field from one step's eigenbasis into the next
    u = np.matmul(vh[0], t.reshape(d, m, -1)).reshape(t.shape)
    swapped = u[:, :, ::-1]  # each row's partner: (F', F), or (F', dF', dF, F)
    cross = np.empty_like(t)
    rho2 = (rhos**2).real
    mirrored = nr % 2 == 0 and np.array_equal(rho2, rho2[::-1])
    half = slice(nr // 2 if mirrored else 0, None)
    block = max(1, _BLOCK_ELEMENTS // (d * m * max(nr, 1)))
    arrays = (t, u, swapped, cross) + ((u[:, :, ::3], u[:, :, ::-3], t[:, :, 1:3]) if slopes else ())
    live, views, short = slice(None), arrays, min(lengths)
    for b0 in range(0, steps, block):
        mu2 = w[b0 : b0 + block, :, :, None, None] - rho2[half]
        ch, sl, ms = _cell_factors(mu2, h)  # (steps, d, m, 1, n_rho), or its upper half
        factors = [ch[:, :, :, None], np.stack([sl, ms], axis=3)]
        if slopes:  # the rows (F, dF, dF', F') take (sl, sl, ms, ms) times their partner
            factors[1] = factors[1].repeat(2, axis=3)
            dch, dsl, dms = (2.0 * rhos.imag[half] * f for f in _cell_slopes(mu2, h, ch, sl))  # d/dtau
            factors += [dch[:, :, :, None], np.stack([dsl, dms], axis=3)]
        if mirrored:
            factors = [np.concatenate([f[..., ::-1], f], axis=-1) for f in factors]
        for i in range(ch.shape[0]):
            k = b0 + i
            if k == short:  # the shorter sweep has ended: the longer one goes on alone
                j = int(np.argmax(lengths))
                live = slice(j, j + 1)
                views = tuple(a[live] for a in arrays)
            tl, ul, swl, cl = views[:4]
            # F <- cosh F + sinhc F',  F' <- cosh F' + mu^2 sinhc F
            np.multiply(factors[0][i, live], ul, out=tl)
            np.multiply(factors[1][i, live], swl, out=cl)
            tl += cl
            if slopes:  # (dF, dF') += d cosh (F, F') + (d sinhc, d mu^2 sinhc) (F', F)
                fl, pl, dtl = views[4:]
                dtl += factors[2][i, live] * fl + factors[3][i, live] * pl
            yield nodes[k], v[k], t
            if k + 1 < steps:
                np.matmul(hop[k, live], tl.reshape(len(tl), m, -1), out=ul.reshape(len(ul), m, -1))


def _kept_fields(potential: SampledPotential, rhos: np.ndarray, directions, keep: np.ndarray, slopes=False):
    """(F, F') of the sweeps of ``directions`` at the node indices ``keep``; (F, dF, dF', F') with ``slopes``.

    The fields have shape (rows, d, len(keep), n_rho, m, m); a node that a
    sweep does not reach stays zero.  The sweep keeps each node of ``keep``
    in its cell's eigenbasis, and one batched product takes them all to the
    node basis.
    """
    m, d, rows = potential.m, len(directions), 4 if slopes else 2
    slot = {node: k for k, node in enumerate(keep.tolist())}
    v_kept = np.zeros((d, keep.size, m, m), dtype=complex)
    t_kept = np.zeros((d, keep.size, m, rows, m, rhos.size), dtype=complex)
    for nodes, v, t in _sweep(potential, rhos, directions, slopes=slopes):
        for j, node in enumerate(nodes):
            k = slot.get(node)
            if k is not None:
                v_kept[j, k], t_kept[j, k] = v[j], t[j]
    np.matmul(v_kept, t_kept.reshape(d, keep.size, m, -1), out=t_kept.reshape(d, keep.size, m, -1))
    return np.ascontiguousarray(t_kept.transpose(3, 0, 1, 5, 2, 4))  # (row, sweep, node, rho, m, m)


def _bracket(zf, zp, yf, yp):
    """Bracket Z'^H Y - Z^H Y' for stacked fields of shape (..., m, m).

    The row solution enters as the column field (zf, zp) computed at
    -conj(rho), conjugate-transposed.
    """
    return zp.conj().swapaxes(-1, -2) @ yf - zf.conj().swapaxes(-1, -2) @ yp


def _checkpoints(potential: SampledPotential) -> np.ndarray:
    """Nodes spread over the swept range, its left edge first, where a bracket drift can arise."""
    lo, hi = _swept_nodes(potential)
    return np.unique(np.linspace(lo, hi, _N_CHECKPOINTS).astype(int))


def scattering_coefficients(potential: SampledPotential, rho_grid: RhoGrid) -> CoefficientSet:
    """Matching coefficients A, B, C, D on the real grid, from one plus sweep.

    The brackets do not depend on x, so each is read at the left edge of the
    swept range, where the minus field is exactly the free wave exp(-i rho x) I.
    The row solutions are the column fields at -conj(rho) = -rho, the
    reversed node of the symmetric grid.  B is the matching coefficient; C
    follows from the real-axis symmetry C(rho) = -B(rho)^*.  The drift is
    the largest deviation of the plus field's flux F'^H F - F^H F' from
    -2 i rho I across the checkpoints, relative to max|F| max|F'| there (its
    roundoff); it is formed from F / max|F| and F' / max|F'| per rho, so it
    stays finite as long as the fields do.  Beyond tolerance it raises
    ``IntegrationAccuracyError`` naming the worst node.  Fields or brackets
    that overflow raise ``NumericsError``.
    """
    nodes, m = rho_grid.nodes, potential.m
    cps = _checkpoints(potential)
    fp, pp = _kept_fields(potential, nodes, ("plus",), cps)[:, 0]  # (checkpoint, rho, m, m)
    fm = np.exp(-1j * nodes * potential.grid.xs[cps[0]])[:, None, None] * np.eye(m)
    pm = -1j * nodes[:, None, None] * fm
    two_iz = 2j * nodes[:, None, None]
    a = -_bracket(fm[::-1], pm[::-1], fp[0], pp[0]) / two_iz
    b = _bracket(fm, pm, fp[0], pp[0]) / two_iz
    d = _bracket(fp[0, ::-1], pp[0, ::-1], fm, pm) / two_iz
    f_max, p_max = (np.abs(f).max(axis=(0, 2, 3))[:, None, None] for f in (fp, pp))
    fn, pn = fp / f_max, pp / p_max  # the flux of the unscaled fields leaves double range before they do
    drift = np.abs(_bracket(fn, pn, fn, pn) + two_iz / f_max / p_max * np.eye(m)).max(axis=(0, 2, 3))
    finite = np.isfinite(drift) & np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2))
    finite &= np.isfinite(d).all(axis=(1, 2))
    if not finite.all():  # no grid refinement helps where the fields leave double range
        raise NumericsError(f"Jost fields overflow at rho = {nodes[np.argmin(finite)]:.6g}: brackets not finite")
    j = int(np.argmax(drift))
    if drift[j] > BRACKET_SPREAD_RTOL:
        raise IntegrationAccuracyError(
            f"bracket drift {drift[j]:.3e} of max|F| max|F'| at rho = {nodes[j]:.6g}; refine the space grid"
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


# ---------------------------------------------------------------------------
# bound states


def _frame_scale(potential: SampledPotential, taus) -> float:
    """s of the Cayley frames: s >= tau and s^2 >= |lambda + tau^2| on every cell.

    It holds for every tau up to the larger of max(taus) and tau_bound =
    sqrt(-min lambda), so one s serves all the sweeps of one search.
    """
    w = potential.cell_eigh[0]
    top = max(float(np.max(taus, initial=0.0)), float(np.sqrt(max(-w.min(), 0.0))))
    return float(np.sqrt(max(float(w.max()), 0.0) + top * top))


def _cayley_frames(potential: SampledPotential, taus: np.ndarray, s: float, directions, stop=None, slopes=False):
    """Yield (v, u, du) at the readings of U = (Y + i Y'/s)(Y - i Y'/s)^-1, Y = F(x, i tau).

    ``u`` holds U^T of each sweep of ``directions`` at its latest reading,
    shape (d, n_tau, m, m), in the eigenbasis v[d] of the cell it has just
    crossed, along the sweeps of ``_sweep`` up to ``stop``.  U is unitary, a
    function of the span of Y's columns only, and det U is invariant under a
    change of basis.  With s from ``_frame_scale`` arg det U moves at most
    2 m s per unit length, so each sweep is read often enough (cells split
    into equal steps if need be) to move less than pi between readings, and
    at its last node.  Each reading resets that sweep's frame to
    ((U + I)/2, s (U - I)/2i), right multiplication by (Y - i Y'/s)^-1,
    before it can overflow.  With ``slopes`` the derivative rows get the same
    multiplication (its own tau-derivative leaves U as it is), and ``du`` holds
    dU^T/dtau = ((dA - U dB) B^-1)^T, A, B = Y +- i Y'/s; else None.
    """
    m = potential.m
    lo, hi = _swept_nodes(potential)
    ends = [(hi if direction == "minus" else lo) if stop is None else stop for direction in directions]
    motion = 2 * m * s * potential.grid.dx  # bound on |d arg det U| per cell
    steps = (hi - lo) * (motion / np.pi + 1)
    if not steps * m * m <= MAX_ENTRIES:  # the sweep holds each step's eigenbasis
        raise NumericsError(
            f"the bound-state sweeps need {steps:.3g} steps, {m}x{m} eigenbases each, over the budget of 2^27: "
            f"eigenphases move by up to {motion:.3g} per cell"
        )
    substeps = int(motion / np.pi) + 1
    stride = int(np.ceil(np.pi * substeps / motion)) - 1  # steps between readings
    i_s, eye = 1j / s, np.eye(m)
    u = np.empty((len(directions), taus.size, m, m), dtype=complex)
    du = np.empty_like(u) if slopes else None
    running = list(range(len(directions)))  # sweeps not yet read at their last node
    for k, (nodes, v, t) in enumerate(_sweep(potential, 1j * taus, directions, substeps, stop, slopes)):
        read = [j for j in running if nodes[j] == ends[j] or not k % stride]
        if not read:
            continue
        sl = slice(read[0], read[-1] + 1)  # of at most two sweeps, so contiguous
        y = t[sl].transpose(0, 4, 2, 3, 1)  # (sweep, tau, row, b, a): the rows transposed
        f, p = y[:, :, 0], y[:, :, -1]
        if slopes:  # U^T and the derivative rows times B^-1, transposed, from one solve
            z = np.linalg.solve(f - i_s * p, np.concatenate([f + i_s * p, y[:, :, 1], y[:, :, 2]], axis=-1))
            u[sl], dy, dp = z[..., :m], z[..., m : 2 * m], z[..., 2 * m :]
            du[sl] = dy + i_s * dp - (dy - i_s * dp) @ u[sl]
            t[sl, :, 1], t[sl, :, 2] = dy.transpose(0, 3, 2, 1), dp.transpose(0, 3, 2, 1)
        else:
            u[sl] = np.linalg.solve(f - i_s * p, f + i_s * p)  # U^T
        yield v, u, du
        t[sl, :, 0] = (0.5 * (u[sl] + eye)).transpose(0, 3, 2, 1)
        t[sl, :, -1] = ((u[sl] - eye) / (2.0 * i_s)).transpose(0, 3, 2, 1)
        running = [j for j in running if nodes[j] != ends[j]]


def _count(potential: SampledPotential, taus) -> tuple[np.ndarray, np.ndarray]:
    """Bound states with tau_k > tau, with multiplicity, and the conjugate-point part.

    By the oscillation theorem the count is the number of conjugate points of
    Y = F_-(x, i tau) (x where Y is singular, with multiplicity).  Inside the
    swept range they are the crossings of -1 by the eigenvalues of the
    unitary U of ``_cayley_frames``, which all pass pi downward (at rate 2 s),
    so they follow from the winding of arg det U along one minus sweep and
    U's eigenphases phi at the last node.  On the free tail beyond it,
    Y' Y^-1 = s tan(phi/2) and Y vanishes once for each eigenvalue below
    -tau, i.e. each phi < -2 atan(tau/s).  Returns the integer arrays
    (count, conjugate points in range).
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    s = _frame_scale(potential, taus)
    phi0 = 2.0 * np.arctan(taus / s)  # U = exp(i phi0) I at the start
    winding = potential.m * phi0  # arg det U, lifted
    for _, u, _ in _cayley_frames(potential, taus, s, ("minus",)):
        winding += np.angle(np.linalg.det(u[0]) / np.exp(1j * winding))

    phases = np.angle(np.linalg.eigvals(u[0]))
    inside = (phases.sum(axis=1) - winding) / (2.0 * np.pi)
    conjugate = np.rint(inside).astype(int)
    if np.any(np.abs(inside - conjugate) > 0.25):
        raise NumericsError("eigenphase winding of the bound-state count is not integral")
    return conjugate + np.sum(phases < -phi0[:, None], axis=1), conjugate


class _Phases(NamedTuple):
    """Eigenphases of W = U_+^H U_- at one tau, their slopes d theta / d tau, and det W."""

    tau: float
    theta: np.ndarray
    slope: np.ndarray
    det: complex


def _matching_node(potential: SampledPotential) -> int:
    """The node where the plus and minus half sweeps meet: the middle of the swept range."""
    lo, hi = _swept_nodes(potential)
    return (lo + hi) // 2


def _eigenphases(potential: SampledPotential, taus, s: float, node: int) -> list:
    """``_Phases`` at each tau, from a stacked plus half sweep hi -> node and minus half sweep lo -> node.

    U_+ and U_- are the Cayley frames of F_+ and F_- at ``node``; W = U_+^H U_-
    has the eigenvalue 1 exactly where the spans of (F_+, F_+') and (F_-, F_-')
    meet, i.e. at a bound state, with its multiplicity.  At a fixed s every
    eigenphase of W rises with tau.  The sweeps carry the tau-derivative rows,
    so dW = dU_+^H U_- + U_+^H dU_- is exact, and so is each slope by
    first-order perturbation: Im(x^H W^H dW x) for each unit eigenvector x.
    """
    taus = np.asarray(taus, dtype=float)
    for v, u, du in _cayley_frames(potential, taus, s, ("plus", "minus"), node, slopes=True):
        pass
    vh = v.conj().swapaxes(-1, -2)[:, None]
    (plus, minus), (dplus, dminus) = (v[:, None] @ a.swapaxes(-1, -2) @ vh for a in (u, du))  # in the node basis
    w = plus.conj().transpose(0, 2, 1) @ minus
    dw = dplus.conj().transpose(0, 2, 1) @ minus + plus.conj().transpose(0, 2, 1) @ dminus
    lam, x = np.linalg.eig(w)
    slopes = np.einsum("nai,nab,nbi->ni", x.conj(), w.conj().transpose(0, 2, 1) @ dw, x).imag
    return [_Phases(*args) for args in zip(taus.tolist(), np.angle(lam), slopes, np.linalg.det(w))]


def _crossings(a: _Phases, b: _Phases) -> int:
    """Upward crossings of 0 by the eigenphases of W between a.tau < b.tau.

    The phases only rise, so arg det W rises by their total motion; read in
    [0, 2 pi), that rise fixes how many phases wrapped past pi, and with the
    change in the number of negative phases it gives the crossings of 0.  A
    total motion of 2 pi or more is undercounted, which the callers detect
    by comparing with the count's drop.
    """
    rise = np.angle(b.det / a.det) % (2.0 * np.pi)
    wraps = np.rint((rise - (b.theta.sum() - a.theta.sum())) / (2.0 * np.pi))
    return int(np.sum(a.theta < 0) - np.sum(b.theta < 0) + wraps)


def _newton(a: _Phases, b: _Phases):
    """(tau, step, multiplicity) of the shortest Newton step of any eigenphase into [a.tau, b.tau].

    The steps start from both evaluated ends; the multiplicity counts the
    steps from the chosen end that stop within ``_WIDTH`` of tau.  None when
    no step lands inside.
    """
    best = None
    for p in (a, b):
        with np.errstate(divide="ignore", invalid="ignore"):
            stops = p.tau - p.theta / p.slope
        stops = stops[(p.slope > 0) & (stops >= a.tau) & (stops <= b.tau)]
        if stops.size:
            tau = float(stops[np.argmin(np.abs(stops - p.tau))])
            if best is None or abs(tau - p.tau) < abs(best[1]):
                best = (tau, tau - p.tau, int(np.sum(np.abs(stops - tau) <= _WIDTH)))
    return best


def _locate(potential: SampledPotential, brackets: list, kept: int, s: float, states: list) -> list:
    """Locate the states of count brackets (lo, hi, n_lo, n_hi) by Newton on the eigenphases of W.

    A first pass takes the eigenphases at ``_PASS`` + 1 points across each
    bracket.  The bracket is explained when it holds no threshold state
    (n_lo <= kept) and its eigenphases cross 0 exactly n_lo - n_hi times
    (``_crossings``); the others are returned for multisection.  Then in
    each round every open part gets one new tau, all in one batch of half
    sweeps: the shortest Newton step into it from its two ends, or its
    midpoint when there is none or the step is not half the last one.  The
    crossings on either side of the new tau split the part, and must add up
    to its own.  A Newton step shorter than ``_WIDTH`` locates a state of
    the part's multiplicity when as many eigenphases stop there; otherwise
    the next tau lies just past it, and the crossings up to there give its
    multiplicity.  Located states are appended to ``states``.
    """
    node = _matching_node(potential)
    passes = [np.linspace(lo, hi, _PASS + 1).tolist() for lo, hi, _, _ in brackets]
    taus = sorted({tau for points in passes for tau in points})
    at = dict(zip(taus, _eigenphases(potential, taus, s, node)))
    unexplained, parts = [], []
    for (lo, hi, n_lo, n_hi), points in zip(brackets, passes):
        phases = [at[tau] for tau in points]
        crossed = [_crossings(p, q) for p, q in zip(phases, phases[1:])]
        if n_lo > kept or min(crossed) < 0 or sum(crossed) != n_lo - n_hi:
            unexplained.append((lo, hi, n_lo, n_hi))
            continue
        for p, q, k in zip(phases, phases[1:], crossed):
            if k:
                parts.append((p, q, n_lo, n_lo - k, None))
                n_lo -= k

    while parts:
        trials = []
        for a, b, n_lo, n_hi, last in parts:
            rank, middle = n_lo - n_hi, 0.5 * (a.tau + b.tau)
            newton = _newton(a, b)
            if newton is not None and abs(newton[1]) <= _WIDTH:
                tau, step, multiplicity = newton
                past = tau + np.copysign(_WIDTH, step)
                if multiplicity >= rank or not a.tau < past < b.tau:
                    states.append((tau, rank))
                else:
                    trials.append(((a, b, n_lo, n_hi), past, None, tau))
            elif b.tau - a.tau <= _WIDTH:
                states.append((middle, rank))
            elif newton is None or (last is not None and abs(newton[1]) > 0.5 * abs(last)):
                trials.append(((a, b, n_lo, n_hi), middle, None, None))
            else:
                trials.append(((a, b, n_lo, n_hi), newton[0], newton[1], None))
        if not trials:
            break
        parts = []
        for ((a, b, n_lo, n_hi), _, step, located), p in zip(
            trials, _eigenphases(potential, [t[1] for t in trials], s, node)
        ):
            left, right = _crossings(a, p), _crossings(p, b)
            if min(left, right) < 0 or left + right != n_lo - n_hi:
                unexplained.append((a.tau, b.tau, n_lo, n_hi))
                continue
            for lo, hi, k, n in ((a, p, left, n_lo), (p, b, right, n_lo - left)):
                if k and located is not None and lo.tau < located < hi.tau:
                    states.append((located, k))
                elif k:
                    parts.append((lo, hi, n, n - k, step))
    return unexplained


def _multisect(potential: SampledPotential, brackets: list, kept: int, states: list) -> list:
    """Cut each bracket (lo, hi, n_lo, n_hi) into ``_SECTIONS`` + 1 parts by one count sweep.

    Returns the parts where the count drops below ``kept`` (a returned state
    is inside); a part narrower than ``_WIDTH`` is a state at its midpoint,
    appended to ``states``, whose multiplicity is the drop (threshold states
    not counted).
    """
    lo, hi, n_lo, n_hi = (np.array(c) for c in zip(*brackets))
    cuts = lo[:, None] + (hi - lo)[:, None] * np.arange(_SECTIONS + 2) / (_SECTIONS + 1)
    cuts[:, -1] = hi
    counts, _ = _count(potential, cuts[:, 1:-1].ravel())
    seq = np.column_stack([n_lo, counts.reshape(-1, _SECTIONS), n_hi])
    return _drops(cuts, seq, kept, states)


def _drops(cuts: np.ndarray, seq: np.ndarray, kept: int, states: list) -> list:
    """The parts [cuts[i, k], cuts[i, k + 1]] of counted brackets that hold a returned state."""
    if np.any(np.diff(seq, axis=1) > 0):
        raise NumericsError("the bound-state count increases with tau")
    out = []
    for i, k in zip(*np.nonzero((seq[:, :-1] > seq[:, 1:]) & (seq[:, 1:] < kept))):
        lo, hi, n_lo, n_hi = float(cuts[i, k]), float(cuts[i, k + 1]), int(seq[i, k]), int(seq[i, k + 1])
        if hi - lo <= _WIDTH:
            states.append((0.5 * (lo + hi), min(n_lo, kept) - n_hi))
        else:
            out.append((lo, hi, n_lo, n_hi))
    return out


def find_bound_states(potential: SampledPotential) -> list[tuple[float, int]]:
    """Bound states (tau, multiplicity), tau > 0 (rho = i tau), each once, by counting.

    tau_k^2 <= -min lambda_min(Q) = tau_bound^2, so a positive semidefinite
    potential needs no sweep.  Otherwise the count N of ``_count`` is taken at
    tau = 0 and ``_SECTIONS`` points inside [0, tau_bound] (N(tau_bound) = 0);
    it certifies how many states each bracket between them holds.  Brackets
    whose drop the eigenphases at the matching node explain are refined by
    Newton there (``_locate``); the others are multisected by the count until
    they are, or are narrower than ``_WIDTH``.  The lowest states, which the
    count at tau = 0 finds only on the free tail and the count at the first
    positive point tau_1 does not find, are threshold (half-bound) states of a
    discretized exceptional potential: they are warned about and not
    returned.  A state above tau_1 is always kept, wherever its zero-energy
    conjugate point lies.
    """
    w_min = float(potential.cell_eigh[0].min())
    if w_min >= 0.0:
        return []
    taus = np.sqrt(-w_min) * np.arange(_SECTIONS + 2) / (_SECTIONS + 1)
    counts, conjugate = _count(potential, taus[:-1])
    seq = np.append(counts, 0)[None, :]
    kept = int(max(conjugate[0], counts[1]))
    if counts[0] > kept:
        warnings.warn(
            f"{counts[0] - kept} threshold state(s) below tau = "
            f"{taus[np.argmax(seq[0] <= kept)]:.3g}, found on the free tail only, are not returned",
            stacklevel=3,
        )

    s = _frame_scale(potential, taus)
    states = []
    brackets = _drops(taus[None, :], seq, kept, states)
    while brackets:
        brackets = _locate(potential, brackets, kept, s, states)
        if brackets:
            brackets = _multisect(potential, brackets, kept, states)
    return sorted(states)


def _norming_factors(potential: SampledPotential, states) -> list:
    """(B, V) for each state (tau, rank): N_- = B B^H, N_+ = V V^H, residue R_+ = i B V^H at i tau.

    One stacked plus and minus sweep with the tau-derivative rows carries
    every tau and keeps the fields at the midpoint of each run of cells where
    lambda_min(Q) < -tau^2 (the middle node where none is, which is refused).
    A state is matched at x*, its midpoint of largest sigma_min(F_+)
    sigma_min(F_-): where it lives, so neither Jost field has grown its other
    mode far past it.  The null space [V; B] of [[F_+, -F_-], [F_+', -F_-']]
    there (``rank`` singular values below ``_NULL_GAP`` times the next) gives
    Phi = F_+ V from x* on and F_- B before it.  W = Y^H dY' - Y'^H dY has
    W' = 2 tau Y^H Y; W_- vanishes at -inf, W_+ at +inf, and each sweep starts
    from the free wave and its derivative, so W_-(x*) = 2 tau int_-inf^x*
    F_-^H F_- and W_+(x*) = -2 tau int_x*^inf F_+^H F_+ (the norming constant
    as a derivative of the Wronskian, Deift-Trubowitz 1979), and G =
    int Phi^H Phi = (B^H W_- B - V^H W_+ V) / (2 tau).  N_+ = V G^-1 V^H,
    N_- = B G^-1 B^H and R_+ = i B G^-1 V^H, so [V; B] C^-H is returned, G = C C^H.
    """
    if not states:
        return []
    m, taus = potential.m, np.array([tau for tau, _ in states], dtype=float)
    below = potential.cell_eigh[0][:, 0] < -taus[:, None] ** 2
    edges = np.diff(np.pad(below, ((0, 0), (1, 1))).astype(int))  # +1 at a run's first cell, -1 past its last
    runs = [(np.flatnonzero(e > 0) + np.flatnonzero(e < 0)) // 2 if e.any() else [_matching_node(potential)] for e in edges]
    keep = np.unique(np.concatenate(runs))
    f, df, dp, p = _kept_fields(potential, 1j * taus, ("plus", "minus"), keep, slopes=True)  # (sweep, node, state, m, m)
    sigma = np.linalg.svd(f, compute_uv=False)[..., -1].prod(axis=0)
    wronskian = -_bracket(f, p, df, dp)
    out = []
    for i, ((tau, rank), nodes) in enumerate(zip(states, runs)):
        at = keep.searchsorted(nodes)
        k = at[np.argmax(sigma[at, i])]
        _, s, vh = np.linalg.svd(np.block([[f[0, k, i], -f[1, k, i]], [p[0, k, i], -p[1, k, i]]]))
        if not s[-rank] <= _NULL_GAP * s[-rank - 1]:
            raise NumericsError(
                f"no bound state of multiplicity {rank} at tau = {tau:.6g}: the {rank} smallest "
                f"singular values of the matching matrix do not stand apart "
                f"({s[-rank] / s[-rank - 1]:.2e} of the next)"
            )
        null = vh[-rank:].conj().T
        v, b = null[:m], null[m:]
        gram = (b.conj().T @ wronskian[1, k, i] @ b - v.conj().T @ wronskian[0, k, i] @ v) / (2.0 * tau)
        null = np.linalg.solve(np.linalg.cholesky(gram), null.conj().T).conj().T
        out.append((null[m:], null[:m]))
    return out


def weight_matrices(potential: SampledPotential, states) -> list:
    """Weights (N_-, N_+) of each state (tau, multiplicity), in order, else NumericsError."""
    return [(b @ b.conj().T, v @ v.conj().T) for b, v in _norming_factors(potential, states)]


def residue_matrix(potential: SampledPotential, tau: float) -> np.ndarray:
    """Residue R_+ of D^-1 at i tau (A^-1 has R_- = -R_+^H); the count across tau gives the rank."""
    counts, _ = _count(potential, [max(tau - _WIDTH, 0.0), tau + _WIDTH])
    if counts[0] <= counts[1]:
        raise NumericsError(f"no bound state at tau = {tau:.6g}")
    ((b, v),) = _norming_factors(potential, [(tau, int(counts[0] - counts[1]))])
    return 1j * b @ v.conj().T


def full_forward(potential: SampledPotential, rho_grid: RhoGrid) -> ForwardResult:
    """Complete forward map: potential -> (right data, left data, coefficients)."""
    states = find_bound_states(potential)
    coeffs = scattering_coefficients(potential, rho_grid)
    s_minus, s_plus = reflection_matrices(coeffs)
    right_states, left_states = [], []
    for (tau, _), (n_minus, n_plus) in zip(states, weight_matrices(potential, states) if states else []):
        right_states.append(BoundState(tau=tau, weight=n_plus))
        left_states.append(BoundState(tau=tau, weight=n_minus))

    j_plus = ScatteringData(side="right", rho_grid=rho_grid, S=s_plus, bound_states=tuple(right_states))
    j_minus = ScatteringData(side="left", rho_grid=rho_grid, S=s_minus, bound_states=tuple(left_states))
    return ForwardResult(j_plus, j_minus, coeffs)
