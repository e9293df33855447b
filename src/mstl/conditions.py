"""Admissibility checks for scattering data and the left-right connection.

Two families of report-style validators:

* per-side checks (reflection norm below one, conjugation symmetry, decay,
  Fourier-kernel regularity, weight positivity), and
* checks on a candidate transmission denominator D(rho): analyticity probe,
  residue structure at the bound-state points, large-rho and small-rho
  behavior, the modulus identity against the reflection data, and
  integrability of the connected left kernel.

Asymptotic items are operationalized on a finite grid as two-scale trends: a
limit cannot be tested, but a bounded or decreasing pair of probes can.
Everything returns a ConditionReport; nothing raises on a failed item.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mstl.domain import (
    BoundState,
    ResiduePair,
    ScatteringData,
    ValidationError,
    contour_residue,
    hermitian_defect,
    hermitian_pseudo_inverse,
    hermitian_rank,
    matrix_operator_norm,
    operator_norms,
    psd_margin,
    residue_contour_radius,
)


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    value: float
    tol: float

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "value": float(self.value), "tol": float(self.tol)}


@dataclass(frozen=True)
class ConditionReport:
    condition: str  # "A_plus" | "A_minus" | "B"
    items: tuple

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def failed_names(self) -> list[str]:
        return [item.name for item in self.items if not item.passed]

    def item(self, name: str) -> CheckItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "condition": self.condition,
            "passed": self.passed,
            "items": [it.as_dict() for it in self.items],
        }


def check_condition_A(
    data: ScatteringData, u_span: float = 30.0, du: float = 0.05
) -> ConditionReport:
    """Per-side admissibility report for one set of scattering data.

    The kernel checks are confined to |u| below the sampling limit pi / drho
    of the spectral grid; beyond it the Fourier quadrature aliases and says
    nothing about the data.
    """
    from mstl.glm import fourier_kernel

    s = data.S
    nodes = data.rho_grid.nodes
    u_span = min(u_span, 0.9 * np.pi / data.rho_grid.step)
    items = []

    s_norms = operator_norms(s)
    items.append(CheckItem("reflection_norm_below_one", bool(s_norms.max(initial=0.0) < 1.0),
                           float(s_norms.max(initial=0.0)), 1.0))

    sym = float(np.abs(s[::-1] - s.conj().transpose(0, 2, 1)).max(initial=0.0))
    sym_tol = 1e-6 * (1.0 + float(s_norms.max(initial=0.0)))
    items.append(CheckItem("reflection_symmetry", sym <= sym_tol, sym, sym_tol))

    # o(1/rho) surrogate: ||rho S|| in the outermost band must not exceed the
    # mid band; both below floor counts as trivially decayed.
    rs = np.abs(nodes) * s_norms
    n4 = max(1, len(nodes) // 20)
    outer = float(np.max(np.concatenate([rs[:n4], rs[-n4:]])))
    mid = float(np.max(rs[len(nodes) // 4 : len(nodes) // 2 + 1], initial=0.0))
    floor = 1e-10 * (1.0 + float(s_norms.max(initial=0.0)))
    decay_ok = outer <= max(mid, floor)
    items.append(CheckItem("reflection_tail_decay", bool(decay_ok), outer, max(mid, floor)))

    u = np.arange(-u_span, u_span + du / 2, du)
    r = fourier_kernel(data, u)
    r_herm = float(np.abs(r - r.conj().transpose(0, 2, 1)).max(initial=0.0))
    r_scale = float(np.abs(r).max(initial=0.0))
    herm_tol = 1e-6 * (1.0 + r_scale)
    items.append(CheckItem("kernel_hermitian", r_herm <= herm_tol, r_herm, herm_tol))

    r_norms = operator_norms(r)
    half = u >= 0 if data.side == "right" else u <= 0
    integral = float(np.trapezoid(r_norms[half], dx=du))
    dr = np.gradient(r, du, axis=0)
    integral1 = float(np.trapezoid(((1 + np.abs(u)) * operator_norms(dr))[half], dx=du))
    finite = np.isfinite(integral) and np.isfinite(integral1)
    items.append(CheckItem("kernel_integrals_finite", bool(finite), integral + integral1, np.inf))

    n10 = max(1, int(0.1 * len(u)))
    tail_band = r_norms[-n10:] if data.side == "right" else r_norms[:n10]
    peak = float(r_norms.max(initial=0.0))
    tail = float(tail_band.max(initial=0.0))
    tail_tol = max(0.2 * peak, 1e-10)
    items.append(CheckItem("kernel_tail_decay", tail <= tail_tol, tail, tail_tol))

    taus = np.array(data.taus)
    tau_ok = bool(np.all(taus > 0)) and (len(taus) < 2 or float(np.diff(np.sort(taus)).min()) > 1e-6)
    items.append(CheckItem("bound_state_taus", tau_ok, float(taus.min(initial=1.0)), 0.0))

    margin = 0.0
    herm = 0.0
    for b in data.bound_states:
        margin = min(margin, psd_margin(b.weight))
        herm = max(herm, hermitian_defect(b.weight))
    w_scale = max((matrix_operator_norm(b.weight) for b in data.bound_states), default=0.0)
    psd_tol = -1e-8 * (1.0 + w_scale)
    items.append(CheckItem("bound_state_psd", margin >= psd_tol, margin, psd_tol))
    items.append(CheckItem("bound_state_hermitian", herm <= 1e-6 * (1 + w_scale), herm, 1e-6 * (1 + w_scale)))

    condition = "A_plus" if data.side == "right" else "A_minus"
    return ConditionReport(condition=condition, items=tuple(items))


# ---------------------------------------------------------------------------
# left data from right data


def connect_left_from_right(
    j_plus: ScatteringData, d_on_grid: np.ndarray, residues
) -> ScatteringData:
    """Left scattering data from right data and the transmission denominator.

    Nodewise S_-(rho) = -D(rho)^* S_+(rho)^* (D(-rho)^*)^{-1}; each left
    weight is R_+ N_+^{-1} R_+^* with the spectral pseudo-inverse.
    """
    d = np.asarray(d_on_grid, dtype=complex)
    if d.shape != j_plus.S.shape:
        raise ValidationError("D grid values must match the reflection sample shape")
    dh = d.conj().transpose(0, 2, 1)
    dh_flip = d[::-1].conj().transpose(0, 2, 1)
    sh = j_plus.S.conj().transpose(0, 2, 1)
    try:
        rightmost = np.linalg.solve(
            dh_flip.conj().transpose(0, 2, 1), (dh @ sh).conj().transpose(0, 2, 1)
        ).conj().transpose(0, 2, 1)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"transmission denominator singular on a real node: {exc}") from exc
    s_minus = -rightmost

    left_states = []
    for b in j_plus.bound_states:
        r = min(residues, key=lambda r: abs(r.tau - b.tau), default=None)
        if r is None or abs(r.tau - b.tau) >= 1e-6:
            raise ValidationError(f"no residue supplied for tau = {b.tau:g}")
        n_minus = r.R_plus @ hermitian_pseudo_inverse(b.weight) @ r.R_plus.conj().T
        left_states.append(BoundState(tau=b.tau, weight=0.5 * (n_minus + n_minus.conj().T), side="left"))

    return ScatteringData(
        side="left", rho_grid=j_plus.rho_grid, S=s_minus, bound_states=tuple(left_states)
    )


def right_denominator(j_plus: ScatteringData):
    """(D evaluator, residue pairs) of right data where D is known, else None.

    Zero reflection (max |S| < 1e-8): D = U^-1 of the bound states' projector
    chain (I without states), with the chain's exact residues.  m = 1: the
    scalar reconstruction.  Matrix data with reflection do not fix D alone.
    """
    from mstl import solitons

    if float(np.abs(j_plus.S).max(initial=0.0)) < 1e-8:
        if not j_plus.bound_states:
            eye = np.eye(j_plus.m, dtype=complex)
            return lambda rho: np.broadcast_to(eye, np.shape(rho) + eye.shape).copy(), []
        chain = solitons.build_projector_chain([(b.tau, b.weight) for b in j_plus.bound_states])
        residues = [ResiduePair(t, -r.conj().T, r) for t, r in solitons.residues_of_U(chain)]
        return solitons.reflectionless_D(chain), residues
    if j_plus.m == 1:
        d_of = scalar_D(j_plus)
        return d_of, residues_from_evaluator(d_of, j_plus.taus)
    return None


def residues_from_evaluator(d_of, taus, nodes: int = 64):
    """Residue pairs of a transmission-denominator evaluator at each i tau."""
    taus = sorted(float(t) for t in taus)
    pairs = []
    for k, tau in enumerate(taus):
        radius = residue_contour_radius(tau, taus)
        r_plus = contour_residue(lambda z: np.linalg.inv(d_of(z)), 1j * tau, radius, nodes)
        pairs.append(ResiduePair(tau=tau, R_minus=-r_plus.conj().T, R_plus=r_plus))
    return pairs


# ---------------------------------------------------------------------------
# scalar transmission denominator from |S| and the bound states


def _li2(w):
    from scipy.special import spence  # loaded on first use: it dominates start-up

    return spence(1.0 - np.asarray(w))


class ScalarD:
    """D(rho) for m = 1: Blaschke product times the outer factor exp(gamma).

    gamma(rho) = -(1/2 pi i) int ln(1 - |S(xi)|^2) / (xi - rho) dxi for
    Im rho > 0; real-axis values are the boundary limit, evaluated with a
    principal-value quadrature (symmetric singularity subtraction) and the
    half-residue.  Generic data have |S| -> 1 at the origin, leaving an
    integrable log singularity in the integrand: the local model w ln|xi| is
    fitted from the innermost nodes, quadratured implicitly through the
    smooth remainder, and integrated in closed form (dilogarithms) itself.
    """

    def __init__(self, rho_nodes: np.ndarray, s_values: np.ndarray, taus):
        self.nodes = np.asarray(rho_nodes, dtype=float)
        s = np.asarray(s_values).reshape(self.nodes.size)
        mod2 = np.abs(s) ** 2
        if mod2.max(initial=0.0) >= 1.0:
            raise ValidationError("|S| >= 1 at a node: outer factor undefined")
        self.f = np.log1p(-mod2)
        self.taus = tuple(float(t) for t in taus)
        self.step = float(self.nodes[1] - self.nodes[0])
        self.rho_max = float(self.nodes[-1]) + 0.5 * self.step

        n2 = self.nodes.size // 2
        x1, x2 = self.nodes[n2], self.nodes[n2 + 1]
        f1 = 0.5 * (self.f[n2] + self.f[n2 - 1])
        f2 = 0.5 * (self.f[n2 + 1] + self.f[n2 - 2])
        self.log_w = float((f2 - f1) / (np.log(x2) - np.log(x1)))
        self.f_smooth = self.f - self.log_w * np.log(np.abs(self.nodes))
        self.f_smooth_prime = np.gradient(self.f_smooth, self.step)

    def _f_smooth_at(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.nodes, self.f_smooth, left=0.0, right=0.0)

    def _log_integral_interior(self, z: np.ndarray) -> np.ndarray:
        """int_{-L}^{L} ln|xi| / (xi - z) dxi for Im z > 0, in closed form."""
        el = self.rho_max
        r = el / z
        return np.log(el) * (np.log(1 - r) - np.log(1 + r)) + _li2(r) - _li2(-r)

    def _log_integral_pv(self, x: np.ndarray) -> np.ndarray:
        """Principal value of the same integral for real x (odd in x)."""
        el = self.rho_max
        ax = np.abs(x)
        lam = el / ax
        val = (
            np.log(ax) * np.log(lam - 1.0)
            + np.pi**2 / 6.0
            - _li2(1.0 - lam)
            - np.log(el) * np.log(1.0 + lam)
            - _li2(-lam)
        )
        return np.sign(x) * val

    def _gamma(self, z: np.ndarray) -> np.ndarray:
        out = np.empty(z.shape, dtype=complex)
        interior = z.imag > 1e-9
        if interior.any():
            zz = z[interior][:, None]
            total = np.sum(self.f_smooth[None, :] / (self.nodes[None, :] - zz), axis=1) * self.step
            total += self.log_w * self._log_integral_interior(z[interior])
            out[interior] = (-1.0 / (2j * np.pi)) * total
        boundary = ~interior
        if boundary.any():
            x = z[boundary].real
            fx = self._f_smooth_at(x)
            denom = self.nodes[None, :] - x[:, None]
            diff = self.f_smooth[None, :] - fx[:, None]
            # at an evaluation node the integrand's own cell carries the
            # derivative limit, not zero
            at_node = np.abs(denom) < 1e-12
            slope = np.interp(x, self.nodes, self.f_smooth_prime)
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(at_node, slope[:, None], diff / denom)
            pv = terms.sum(axis=1) * self.step
            pv = pv + fx * np.log(np.abs((self.rho_max - x) / (self.rho_max + x)))
            pv = pv + self.log_w * self._log_integral_pv(x)
            f_at = fx + self.log_w * np.log(np.abs(x))
            out[boundary] = (-1.0 / (2j * np.pi)) * (pv + 1j * np.pi * f_at)
        return out

    def __call__(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        scalar = rho.ndim == 0
        z = np.atleast_1d(rho)
        if np.any(z.imag < -1e-12):
            raise ValidationError("evaluator defined on the closed upper half-plane")
        blaschke = np.ones(z.shape, dtype=complex)
        for tau in self.taus:
            blaschke *= (z - 1j * tau) / (z + 1j * tau)
        d = blaschke * np.exp(self._gamma(z))
        d = d[..., None, None]
        return d[0] if scalar else d


def scalar_D(j_plus: ScatteringData) -> ScalarD:
    if j_plus.m != 1:
        raise ValidationError("the closed-form denominator reconstruction is scalar-only")
    return ScalarD(j_plus.rho_grid.nodes, j_plus.S[:, 0, 0], j_plus.taus)


# ---------------------------------------------------------------------------
# Condition B


def _semicircle(radius: float, n: int = 33) -> np.ndarray:
    theta = np.linspace(0.05, np.pi - 0.05, n)
    return radius * np.exp(1j * theta)


def check_condition_B_numeric(
    d_of, j_plus: ScatteringData, contour_nodes: int = 64
) -> ConditionReport:
    """Numeric report on a candidate transmission denominator for right data.

    Analyticity is probed by Cauchy-integral self-consistency on a rectangle
    (a finite test, not a proof); residues, asymptotics, the modulus identity
    and the connected left kernel are measured directly.
    """
    from mstl.glm import fourier_kernel

    nodes = j_plus.rho_grid.nodes
    rho_max = j_plus.rho_grid.rho_max
    m = j_plus.m
    eye = np.eye(m)
    items = []

    # Cauchy self-consistency on a rectangle enclosing the bound-state points,
    # applied to rho (D - I): that combination is the one required continuous
    # down to the real axis, where D itself may blow up like 1/rho.
    taus = list(j_plus.taus)
    top = 2.0 * max(taus, default=1.0) + 1.0
    rect_w = max(rho_max / 2, 1.0)
    corners = [-rect_w + 0.1j, rect_w + 0.1j, rect_w + top * 1j, -rect_w + top * 1j]
    z0 = 0.5j * (0.1 + top)
    total = np.zeros((m, m), dtype=complex)
    npts = 128
    for a, b in zip(corners, corners[1:] + corners[:1]):
        ts = (np.arange(npts) + 0.5) / npts
        zs = a + (b - a) * ts
        vals = zs[:, None, None] * (d_of(zs) - eye)
        total += ((b - a) / npts / (2j * np.pi)) * np.tensordot(
            1.0 / (zs - z0), vals, axes=(0, 0)
        )
    probe = z0 * (d_of(np.array([z0]))[0] - eye)
    cauchy_defect = matrix_operator_norm(probe - total) / (1.0 + matrix_operator_norm(probe))
    items.append(CheckItem("analytic_cauchy_probe", cauchy_defect <= 1e-2, float(cauchy_defect), 1e-2))

    # residues of D^{-1} proportional to the weights with invertible cofactor
    res_defect = 0.0
    rank_ok = True
    for b in j_plus.bound_states:
        radius = residue_contour_radius(b.tau, taus)
        r_hat = contour_residue(lambda z: np.linalg.inv(d_of(z)), 1j * b.tau, radius, contour_nodes)
        proj = hermitian_pseudo_inverse(b.weight) @ b.weight
        defect = matrix_operator_norm(r_hat - r_hat @ proj) / max(matrix_operator_norm(r_hat), 1e-30)
        res_defect = max(res_defect, defect)
        rank_n = hermitian_rank(b.weight)
        rank_r = int(np.linalg.matrix_rank(r_hat, tol=1e-8 * max(matrix_operator_norm(r_hat), 1e-30)))
        rank_ok = rank_ok and (rank_n == rank_r)
    items.append(CheckItem("residue_matches_weight", rank_ok and res_defect <= 1e-6,
                           float(res_defect), 1e-6))

    # |rho| * ||D - I|| bounded at two scales
    v1 = matrix_operator_norm(d_of(_semicircle(rho_max)) - eye) * rho_max
    v2 = matrix_operator_norm(d_of(_semicircle(2 * rho_max)) - eye) * 2 * rho_max
    items.append(CheckItem("large_rho_identity", v2 <= 1.6 * v1 + 1e-9, v2, 1.6 * v1 + 1e-9))

    # ||D^{-1}|| bounded at the two smallest real nodes
    small_idx = np.argsort(np.abs(nodes))[:4]
    d_small = d_of(nodes[small_idx].astype(complex))
    inv_norm = matrix_operator_norm(np.linalg.inv(d_small))
    items.append(CheckItem("inverse_bounded_near_zero", inv_norm <= 1e6, inv_norm, 1e6))

    # modulus identity on the real grid
    d_real = d_of(nodes.astype(complex))
    lhs = np.linalg.inv(d_real @ d_real.conj().transpose(0, 2, 1))
    rhs = eye - j_plus.S.conj().transpose(0, 2, 1) @ j_plus.S
    b5 = float(np.abs(lhs - rhs).max())
    items.append(CheckItem("modulus_identity", b5 <= 1e-6, b5, 1e-6))

    # rho (S + I) D -> 0 at the origin, probed at the two smallest magnitudes
    order = np.argsort(np.abs(nodes))
    z1, z2 = nodes[order[0]], nodes[order[2]] if len(nodes) > 2 else nodes[order[-1]]
    def b6_val(z):
        j = int(np.argmin(np.abs(nodes - z)))
        return float(matrix_operator_norm(z * (j_plus.S[j] + eye) @ d_of(np.array([complex(z)]))[0]))
    v_small, v_next = b6_val(z1), b6_val(z2)
    b6_ok = v_small <= max(v_next * 1.2, 1e-9)
    items.append(CheckItem("zero_limit", b6_ok, v_small, max(v_next * 1.2, 1e-9)))

    # secondary probe (recorded, non-gating): rho (S_- - I) A with A = D(-rho)^*
    d_flip = d_real[::-1]
    a_real = d_flip.conj().transpose(0, 2, 1)
    s_minus = -np.einsum(
        "nab,nbc,ncd->nad",
        d_real.conj().transpose(0, 2, 1),
        j_plus.S.conj().transpose(0, 2, 1),
        np.linalg.inv(d_flip.conj().transpose(0, 2, 1)),
    )
    j_small = order[0]
    v_minus = float(matrix_operator_norm(
        nodes[j_small] * (s_minus[j_small] - eye) @ a_real[j_small]
    ))
    items.append(CheckItem("zero_limit_minus_variant", True, v_minus, np.inf))

    # connected left kernel integrability
    left = ScatteringData(side="left", rho_grid=j_plus.rho_grid, S=s_minus, bound_states=())
    u = np.arange(-30.0, 30.0 + 0.025, 0.05)
    r_minus = fourier_kernel(left, u)
    rn = operator_norms(r_minus)
    peak = float(rn.max(initial=0.0))
    tail = float(rn[: max(1, len(u) // 10)].max(initial=0.0))
    tail_tol = max(0.2 * peak, 1e-10)
    items.append(CheckItem("connected_left_kernel_tail", tail <= tail_tol, tail, tail_tol))

    return ConditionReport(condition="B", items=tuple(items))
