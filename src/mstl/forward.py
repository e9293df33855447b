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

Only the cells from the first to the last nonzero cell value are stepped.
Free cells outside that range (cell values exactly zero; node values do not
decide it) are never visited: there the fields are the exact free solution,
the incoming wave on one side and one free cosh/sinh step from the nearest
swept node on the other.  An identically zero potential needs no sweep.

Directions: the "plus" solution equals exp(i rho x) I to the right of the
support and is integrated right-to-left; "minus" mirrors this.  Row-equation
solutions needed in brackets are obtained from column solutions at -conj(rho)
by conjugate transposition, which is valid because Q is Hermitian.
"""

from __future__ import annotations

import warnings

import numpy as np

from mstl.domain import (
    BoundState,
    CoefficientSet,
    IntegrationAccuracyError,
    JostAsymptotics,
    JostField,
    NumericsError,
    ResiduePair,
    RhoGrid,
    SampledPotential,
    ScatteringData,
    ValidationError,
    contour_residue,
    residue_contour_radius,
)

BRACKET_SPREAD_RTOL = 1e-6
_N_CHECKPOINTS = 9


class ForwardResult(tuple):
    """(J_plus, J_minus, coefficients) with attribute access."""

    def __new__(cls, j_plus, j_minus, coefficients):
        return super().__new__(cls, (j_plus, j_minus, coefficients))

    @property
    def j_plus(self):
        return self[0]

    @property
    def j_minus(self):
        return self[1]

    @property
    def coefficients(self):
        return self[2]


# ---------------------------------------------------------------------------
# cell propagation


def _sinhc(z: np.ndarray, h: float | np.ndarray) -> np.ndarray:
    """sinh(mu h)/mu evaluated stably through mu = 0, with z = mu * h."""
    small = np.abs(z) < 1e-6
    zs = np.where(small, 0.0, z)
    with np.errstate(invalid="ignore", divide="ignore"):
        main = np.where(small, 1.0, np.sinh(zs) / np.where(small, 1.0, zs))
    series = 1.0 + z**2 / 6.0 + z**4 / 120.0
    return h * np.where(small, series, main)


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
    mu2 = -(rhos**2)
    z = np.sqrt(mu2)[None, :] * h[:, None]
    ch = np.cosh(z)[..., None, None]
    sl = _sinhc(z, h[:, None])[..., None, None]
    return ch * f + sl * p, (mu2[:, None, None] * sl) * f + ch * p


def _propagate(potential: SampledPotential, rhos: np.ndarray, direction: str, keep):
    """Jost field (F, F') at the node indices ``keep``.

    Output arrays have shape (len(keep), n_rho, m, m).  Only the cells between
    the first and last nonzero cell are stepped; on the incoming side of that
    range the field is the free wave exp(+-i rho x) I, and beyond its far edge
    it is carried from the edge by one exact free step.
    """
    grid = potential.grid
    m = potential.m
    rhos = np.atleast_1d(np.asarray(rhos, dtype=complex))
    if np.any(rhos.imag < -1e-12):
        raise ValidationError("Jost solutions are defined for Im rho >= 0")
    nr = rhos.size
    xs = grid.xs
    lo, hi = _swept_nodes(potential)

    keep = np.asarray(keep, dtype=int)
    slot = {j: k for k, j in enumerate(keep.tolist())}
    out_f = np.empty((keep.size, nr, m, m), dtype=complex)
    out_p = np.empty((keep.size, nr, m, m), dtype=complex)

    if direction == "plus":
        ikr = 1j * rhos
        start, end = hi, lo
        order = range(hi - 1, lo - 1, -1)
        h = -grid.dx
        cell_of = lambda node: node  # stepping from node+1 down onto node uses cell `node`
        incoming, beyond = keep >= hi, keep < lo
    elif direction == "minus":
        ikr = -1j * rhos
        start, end = lo, hi
        order = range(lo + 1, hi + 1)
        h = grid.dx
        cell_of = lambda node: node - 1
        incoming, beyond = keep <= lo, keep > hi
    else:
        raise ValidationError(f"unknown direction {direction!r}")

    eye = np.eye(m, dtype=complex)
    wave = np.exp(ikr * xs[keep[incoming], None])
    out_f[incoming] = wave[..., None, None] * eye
    out_p[incoming] = (ikr * wave)[..., None, None] * eye

    phase = np.exp(ikr * xs[start])
    f = phase[:, None, None] * eye
    p = (ikr * phase)[:, None, None] * eye
    w, v = np.linalg.eigh(potential.cell_values[lo:hi])
    rho2 = (rhos**2)[:, None]
    for node in order:
        c = cell_of(node) - lo
        vc = v[c]
        mu2 = w[c][None, :] - rho2  # (nr, m)
        mu = np.sqrt(mu2.astype(complex))
        z = mu * h
        ch = np.cosh(z)[..., None]
        sl = _sinhc(z, h)[..., None]
        wf = vc.conj().T @ f
        wp = vc.conj().T @ p
        f = vc @ (ch * wf + sl * wp)
        p = vc @ ((mu2[..., None] * sl) * wf + ch * wp)
        if node in slot:
            out_f[slot[node]] = f
            out_p[slot[node]] = p

    if np.any(beyond):
        out_f[beyond], out_p[beyond] = _free_step(f, p, rhos, xs[keep[beyond]] - xs[end])
    return out_f, out_p


def jost_solution(potential: SampledPotential, rho: complex, direction: str) -> JostField:
    """Jost solution over the whole grid for one spectral point.

    Normalized to exp(+-i rho x) I at the incoming end of the grid; valid for
    Im rho >= 0.  At rho = 0 the field itself is still well defined (only
    downstream inversions may degenerate).
    """
    f, p = _propagate(potential, np.array([rho], dtype=complex), direction, range(potential.grid.n))
    return JostField(rho=complex(rho), direction=direction, grid=potential.grid, F=f[:, 0], Fprime=p[:, 0])


def wronskian_bracket(row_field: JostField, field: JostField, return_spread: bool = False):
    """x-independent bracket <Z, Y> = Z'Y - ZY' of a row and a column solution.

    ``row_field`` is a column Jost field computed at -conj(rho) of the target
    row argument; it enters conjugate-transposed.  The bracket is averaged
    over the grid and its standard deviation across x is available as a
    consistency diagnostic.
    """
    if row_field.grid is not field.grid and row_field.grid.n != field.grid.n:
        raise ValidationError("bracket requires fields on the same grid")
    z = row_field.F.conj().transpose(0, 2, 1)
    zp = row_field.Fprime.conj().transpose(0, 2, 1)
    values = zp @ field.F - z @ field.Fprime
    mean = values.mean(axis=0)
    if not return_spread:
        return mean
    spread = float(np.sqrt(np.mean(np.abs(values - mean) ** 2)))
    return mean, spread


def _bracket_at_checkpoints(zf, zp, yf, yp):
    """Bracket per checkpoint for stacked fields of shape (nc, nr, m, m)."""
    return np.einsum("cnba,cnbd->cnad", zp.conj(), yf) - np.einsum(
        "cnba,cnbd->cnad", zf.conj(), yp
    )


def _checkpoints(potential: SampledPotential) -> np.ndarray:
    """Bracket nodes spread over the swept range, where the drift can arise."""
    lo, hi = _swept_nodes(potential)
    return np.unique(np.linspace(lo, hi, _N_CHECKPOINTS).astype(int))


def scattering_coefficients(potential: SampledPotential, rho_grid: RhoGrid) -> CoefficientSet:
    """Matching coefficients A, B, C, D on the real grid.

    A and B come from brackets of the minus and plus fields; C and D follow
    from the real-axis symmetries C(rho) = -B(rho)^*, D(rho) = A(-rho)^*.
    Bracket non-constancy across x beyond tolerance raises
    ``IntegrationAccuracyError`` naming the worst node.
    """
    nodes = rho_grid.nodes
    cps = _checkpoints(potential)
    fp, pp = _propagate(potential, nodes, "plus", cps)
    fm, pm = _propagate(potential, nodes, "minus", cps)

    flip = slice(None, None, -1)
    two_i_rho = 2j * nodes[:, None, None]

    # A(rho): row solution from the minus field at -rho; B(rho): at +rho.
    br_a = _bracket_at_checkpoints(fm[:, flip], pm[:, flip], fp, pp)
    br_b = _bracket_at_checkpoints(fm, pm, fp, pp)
    a = -br_a.mean(axis=0) / two_i_rho
    b = br_b.mean(axis=0) / two_i_rho

    worst = float(np.max(np.sqrt(np.mean(np.abs(br_a - br_a.mean(axis=0)) ** 2, axis=(0, 2, 3)))))
    scale = 1.0 + float(np.abs(br_a.mean(axis=0)).max())
    if worst > BRACKET_SPREAD_RTOL * scale * 2 * max(1.0, float(np.abs(nodes).max())):
        j = int(np.argmax(np.sqrt(np.mean(np.abs(br_a - br_a.mean(axis=0)) ** 2, axis=(0, 2, 3)))))
        raise IntegrationAccuracyError(
            f"bracket drift {worst:.3e} at rho = {nodes[j]:.6g}; refine the space grid"
        )

    c = -b.conj().transpose(0, 2, 1)
    d = a[flip].conj().transpose(0, 2, 1)

    return CoefficientSet(rho_grid=rho_grid, A=a, B=b, C=c, D=d)


def coefficient_evaluators(potential: SampledPotential):
    """Callables A(z), D(z) for batches of points in the closed upper half-plane.

    Used for residue contours and analyticity probes; each call runs two grid
    sweeps vectorized over the batch.
    """
    cps = _checkpoints(potential)

    def a_of(z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        fp, pp = _propagate(potential, z, "plus", cps)
        fm, pm = _propagate(potential, -z.conj(), "minus", cps)
        br = _bracket_at_checkpoints(fm, pm, fp, pp).mean(axis=0)
        return -br / (2j * z[:, None, None])

    def d_of(z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        fm, pm = _propagate(potential, z, "minus", cps)
        fp, pp = _propagate(potential, -z.conj(), "plus", cps)
        br = _bracket_at_checkpoints(fp, pp, fm, pm).mean(axis=0)
        return br / (2j * z[:, None, None])

    return a_of, d_of


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


def _det_a_on_axis(potential: SampledPotential, taus: np.ndarray) -> np.ndarray:
    cps = _checkpoints(potential)
    z = 1j * np.asarray(taus, dtype=float)
    fp, pp = _propagate(potential, z, "plus", cps)
    fm, pm = _propagate(potential, z, "minus", cps)
    br = _bracket_at_checkpoints(fm, pm, fp, pp).mean(axis=0)
    a = -br / (2j * z[:, None, None])
    return np.abs(np.linalg.det(a))


def find_bound_states(
    potential: SampledPotential,
    tau_max: float,
    n_scan: int = 400,
    accept_rel: float = 1e-6,
    refine_tol: float = 1e-8,
    cluster_tol: float = 1e-3,
) -> list[float]:
    """Bound-state parameters: tau > 0 with det A(i tau) = 0.

    Scans |det A(i tau)| on a uniform grid, refines each local minimum by
    golden-section search (the determinant modulus need not change sign in the
    matrix case), and accepts refined minima below ``accept_rel`` times the
    scan maximum.  Taus closer than ``cluster_tol`` are merged with a warning;
    degenerate eigenvalues are represented by higher-rank weights, never by
    repeated taus.
    """
    if tau_max <= 0:
        raise ValidationError("tau_max must be positive")
    taus = np.linspace(tau_max / n_scan, tau_max, n_scan)
    vals = _det_a_on_axis(potential, taus)
    vmax = float(vals.max())
    if vmax == 0.0:
        raise NumericsError("determinant scan degenerated to zero")

    # a genuine zero dips steeply into its grid neighborhood; requiring real
    # depth rejects the roundoff-level ripples of a constant determinant
    candidates = []
    for j in range(len(taus)):
        left = vals[j - 1] if j > 0 else np.inf
        right = vals[j + 1] if j + 1 < len(taus) else np.inf
        if vals[j] < 0.9 * min(left, right):
            lo = taus[j - 1] if j > 0 else taus[j] * 0.1
            hi = taus[j + 1] if j + 1 < len(taus) else taus[j]
            candidates.append((lo, hi))

    phi = 0.5 * (np.sqrt(5.0) - 1.0)
    found = []
    for lo, hi in candidates:
        a, b = lo, hi
        x1 = b - phi * (b - a)
        x2 = a + phi * (b - a)
        f1 = float(_det_a_on_axis(potential, np.array([x1]))[0])
        f2 = float(_det_a_on_axis(potential, np.array([x2]))[0])
        while b - a > refine_tol:
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - phi * (b - a)
                f1 = float(_det_a_on_axis(potential, np.array([x1]))[0])
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + phi * (b - a)
                f2 = float(_det_a_on_axis(potential, np.array([x2]))[0])
        tau_star = 0.5 * (a + b)
        val = float(_det_a_on_axis(potential, np.array([tau_star]))[0])
        if val < accept_rel * vmax:
            found.append(float(tau_star))

    found.sort()
    merged: list[float] = []
    for t in found:
        if merged and t - merged[-1] < cluster_tol:
            warnings.warn(
                f"bound states at tau = {merged[-1]:.6g} and {t:.6g} are closer than "
                f"{cluster_tol:g}; reporting a single state",
                stacklevel=2,
            )
            merged[-1] = 0.5 * (merged[-1] + t)
        else:
            merged.append(t)
    return merged


def residue_matrix(
    potential: SampledPotential,
    tau: float,
    contour_radius: float = None,
    neighbor_taus=(),
    nodes: int = 64,
) -> ResiduePair:
    """Residues of A^{-1} and D^{-1} at rho = i tau by contour integration.

    The radius follows ``domain.residue_contour_radius``; the contour must
    stay clear of the real axis and of other poles.
    """
    contour_radius = residue_contour_radius(tau, neighbor_taus, contour_radius)
    a_of, d_of = coefficient_evaluators(potential)
    r_minus = contour_residue(lambda z: np.linalg.inv(a_of(z)), 1j * tau, contour_radius, nodes)
    r_plus = contour_residue(lambda z: np.linalg.inv(d_of(z)), 1j * tau, contour_radius, nodes)
    return ResiduePair(tau=float(tau), R_minus=r_minus, R_plus=r_plus)


def weight_matrices(
    potential: SampledPotential, tau: float, residues: ResiduePair, cond_max: float = 1e6
):
    """Weight matrices from the bound-state residues.

    The defining relations F_- R_+ = i F_+ N_+ and F_+ R_- = i F_- N_- hold at
    every x, but the detected tau carries jitter that excites the growing mode
    of each field; the excitation grows away from the eigenfunction's
    localization point, toward one end per field.  The product
    ||F_- R_+|| * ||F_+ R_-|| peaks at that point and stays small wherever
    either factor is contaminated (each field is exact at its own boundary
    end), so both relations are evaluated at its argmax.
    """
    grid = potential.grid
    fp, _ = _propagate(potential, np.array([1j * tau]), "plus", range(grid.n))
    fm, _ = _propagate(potential, np.array([1j * tau]), "minus", range(grid.n))
    f_plus = fp[:, 0]
    f_minus = fm[:, 0]

    profile = np.linalg.norm(f_minus @ residues.R_plus, axis=(1, 2)) * np.linalg.norm(
        f_plus @ residues.R_minus, axis=(1, 2)
    )
    order = np.argsort(profile)[::-1]
    star = None
    for j in order[: max(8, grid.n // 50)]:
        if np.linalg.cond(f_plus[j]) < cond_max and np.linalg.cond(f_minus[j]) < cond_max:
            star = int(j)
            break
    if star is None:
        raise NumericsError("Jost matrices ill-conditioned at every candidate node")

    n_minus = -1j * np.linalg.solve(f_minus[star], f_plus[star] @ residues.R_minus)
    n_plus = -1j * np.linalg.solve(f_plus[star], f_minus[star] @ residues.R_plus)
    n_minus = 0.5 * (n_minus + n_minus.conj().T)
    n_plus = 0.5 * (n_plus + n_plus.conj().T)
    return n_minus, n_plus


def full_forward(
    potential: SampledPotential, rho_grid: RhoGrid, tau_max: float
) -> ForwardResult:
    """Complete forward map: potential -> (right data, left data, coefficients)."""
    taus = find_bound_states(potential, tau_max)
    coeffs = scattering_coefficients(potential, rho_grid)
    s_minus, s_plus = reflection_matrices(coeffs)

    right_states = []
    left_states = []
    for tau in taus:
        res = residue_matrix(potential, tau, neighbor_taus=[t for t in taus if t != tau])
        n_minus, n_plus = weight_matrices(potential, tau, res)
        right_states.append(BoundState(tau=tau, weight=n_plus, side="right"))
        left_states.append(BoundState(tau=tau, weight=n_minus, side="left"))

    j_plus = ScatteringData(side="right", rho_grid=rho_grid, S=s_plus, bound_states=tuple(right_states))
    j_minus = ScatteringData(side="left", rho_grid=rho_grid, S=s_minus, bound_states=tuple(left_states))
    return ForwardResult(j_plus, j_minus, coeffs)
