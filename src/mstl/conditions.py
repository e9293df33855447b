"""Admissibility checks for scattering data and the left-right connection.

Two families of report-style validators:

* per-side checks (condition A): reflection norm below one, conjugation
  symmetry and decay; Hermiticity and tail decay of the Fourier kernel;
  distinct taus; weights positive semidefinite and Hermitian, and
* numeric checks on a candidate transmission denominator D(rho) and the
  residues of D^-1 it comes with (condition B): analyticity probe, the
  residues against the weights (``residue_check``), large-rho behavior,
  small-rho behavior and the modulus identity (from one evaluation of D on
  the real grid), and tail decay of the connected left kernel.

Every item is one that can fail; a non-finite value or tolerance goes to JSON
as null.

Asymptotic items are operationalized on a finite grid as two-scale trends: a
limit cannot be tested, but a bounded or decreasing pair of probes can.
Everything returns a ConditionReport; nothing raises on a failed item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mstl.domain import (
    HERMITICITY_RTOL,
    BoundState,
    NumericsError,
    ScatteringData,
    ValidationError,
    hermitian_pseudo_inverse,
    matrix_operator_norm,
    operator_norms,
    residue_check,
    tau_gap,
    weight_check,
)

KERNEL_SPAN = 30.0  # |u| range of the Fourier-kernel checks of conditions A and B
KERNEL_DU = 0.05  # their u step


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    value: float
    tol: float

    def as_dict(self) -> dict:
        """JSON form; a non-finite value or tolerance is written as null."""
        return {"name": self.name, "passed": bool(self.passed),
                "value": _json_number(self.value), "tol": _json_number(self.tol)}


def _json_number(v) -> float | None:
    v = float(v)
    return v if np.isfinite(v) else None


@dataclass(frozen=True)
class ConditionReport:
    condition: str  # "A_plus" | "A_minus" | "B"
    items: tuple

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

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


def _kernel_samples(data: ScatteringData) -> np.ndarray:
    """The Fourier kernel on |u| <= KERNEL_SPAN in steps of KERNEL_DU, capped at
    ``RhoGrid.u_limit``, past which the Fourier quadrature aliases and says
    nothing about the data."""
    from mstl.glm import fourier_kernel

    u_span = min(KERNEL_SPAN, data.rho_grid.u_limit)
    count = int(2 * u_span / KERNEL_DU + 0.5) + 1
    return fourier_kernel(data, -u_span, KERNEL_DU, count)


def _kernel_tail_item(name: str, side: str, r_norms: np.ndarray) -> CheckItem:
    """The outer tenth of the kernel norms on the side's half-line stays below
    a fifth of their peak (or below 1e-10).  A window of fewer than 10
    samples (a coarse spectral grid) has no outer tenth to judge: it reads as
    unresolved and passes, with its outermost sample and no tolerance."""
    n10 = len(r_norms) // 10
    if not n10:
        return CheckItem(name, True, float(r_norms[-1] if side == "right" else r_norms[0]), math.nan)
    tail = float((r_norms[-n10:] if side == "right" else r_norms[:n10]).max(initial=0.0))
    tail_tol = max(0.2 * float(r_norms.max(initial=0.0)), 1e-10)
    return CheckItem(name, tail <= tail_tol, tail, tail_tol)


def check_condition_A(data: ScatteringData) -> ConditionReport:
    """Per-side admissibility report for one set of scattering data.

    The kernel checks are confined to |u| below the sampling limit pi / drho
    of the spectral grid.
    """
    s = data.S
    nodes = data.rho_grid.nodes
    items = []

    s_norms = operator_norms(s)
    s_max = float(s_norms.max(initial=0.0))
    items.append(CheckItem("reflection_norm_below_one", s_max < 1.0, s_max, 1.0))

    sym = float(np.abs(s[::-1] - s.conj().transpose(0, 2, 1)).max(initial=0.0))
    sym_tol = 1e-6 * (1.0 + s_max)
    items.append(CheckItem("reflection_symmetry", sym <= sym_tol, sym, sym_tol))

    # o(1/rho) surrogate: ||rho S|| in the outermost band must not exceed the
    # mid band; both below floor counts as trivially decayed.
    rs = np.abs(nodes) * s_norms
    n4 = max(1, len(nodes) // 20)
    outer = float(np.max(np.concatenate([rs[:n4], rs[-n4:]])))
    mid = float(np.max(rs[len(nodes) // 4 : len(nodes) // 2 + 1], initial=0.0))
    floor = 1e-10 * (1.0 + s_max)
    decay_ok = outer <= max(mid, floor)
    items.append(CheckItem("reflection_tail_decay", bool(decay_ok), outer, max(mid, floor)))

    r = _kernel_samples(data)
    r_herm = float(np.abs(r - r.conj().transpose(0, 2, 1)).max(initial=0.0))
    r_scale = float(np.abs(r).max(initial=0.0))
    herm_tol = 1e-6 * (1.0 + r_scale)
    items.append(CheckItem("kernel_hermitian", r_herm <= herm_tol, r_herm, herm_tol))
    items.append(_kernel_tail_item("kernel_tail_decay", data.side, operator_norms(r)))

    gap, gap_tol = tau_gap(data.taus)
    items.append(CheckItem("bound_state_taus", gap >= gap_tol, gap, gap_tol))

    # the weight whose margin and defect lie closest to (or furthest past) its own tolerance
    checks = [weight_check(b.weight) for b in data.bound_states] or [(0.0, 0.0, HERMITICITY_RTOL)]
    margin, _, psd_tol = min(checks, key=lambda c: c[0] / c[2])
    _, herm, herm_tol = max(checks, key=lambda c: c[1] / c[2])
    items.append(CheckItem("bound_state_psd", margin >= -psd_tol, margin, -psd_tol))
    items.append(CheckItem("bound_state_hermitian", herm <= herm_tol, herm, herm_tol))

    condition = "A_plus" if data.side == "right" else "A_minus"
    return ConditionReport(condition=condition, items=tuple(items))


# ---------------------------------------------------------------------------
# left data from right data


def _connected_reflection(d: np.ndarray, s_plus: np.ndarray) -> np.ndarray:
    """S_-(rho) = -D(rho)^* S_+(rho)^* (D(-rho)^*)^{-1} at every node.

    ``d`` and ``s_plus`` are samples on the symmetric grid, so reversing the
    node axis maps rho to -rho.  One batched solve gives the conjugate
    transpose D(-rho)^{-1} S_+(rho) D(rho).
    """
    try:
        x = np.linalg.solve(d[::-1], s_plus @ d)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"transmission denominator singular on a real node: {exc}") from exc
    return -x.conj().transpose(0, 2, 1)


def connect_left_from_right(
    j_plus: ScatteringData, d_on_grid: np.ndarray, residues
) -> ScatteringData:
    """Left scattering data from right data and the transmission denominator.

    Nodewise S_-(rho) = -D(rho)^* S_+(rho)^* (D(-rho)^*)^{-1}; ``residues``
    holds R_+ = Res D^-1 at each i tau in the order of ``j_plus.bound_states``,
    and each left weight is R_+ N_+^{-1} R_+^* with the spectral pseudo-inverse.
    """
    d = np.asarray(d_on_grid, dtype=complex)
    if d.shape != j_plus.S.shape:
        raise ValidationError("D grid values must match the reflection sample shape")
    if len(residues) != len(j_plus.bound_states):
        raise ValidationError(f"{len(residues)} residues for {len(j_plus.bound_states)} bound states")
    s_minus = _connected_reflection(d, j_plus.S)

    left_states = []
    for b, r in zip(j_plus.bound_states, residues):
        n_minus = r @ hermitian_pseudo_inverse(b.weight) @ r.conj().T
        left_states.append(BoundState(tau=b.tau, weight=0.5 * (n_minus + n_minus.conj().T)))

    return ScatteringData(
        side="left", rho_grid=j_plus.rho_grid, S=s_minus, bound_states=tuple(left_states)
    )


def right_denominator(j_plus: ScatteringData):
    """(D evaluator, residues R_+ of D^-1 in bound-state order) where right data fix D, else None.

    Zero reflection (max |S| < 1e-8): D = U^-1 of the bound states' projector
    chain (I without states), with the chain's exact residues.  m = 1: the
    scalar reconstruction, with its residues in closed form.  Matrix data
    with reflection do not fix D alone.
    """
    from mstl import solitons

    if float(np.abs(j_plus.S).max(initial=0.0)) < 1e-8:
        if not j_plus.bound_states:
            eye = np.eye(j_plus.m, dtype=complex)
            return lambda rho: np.broadcast_to(eye, np.shape(rho) + eye.shape).copy(), []
        chain = solitons.build_projector_chain([(b.tau, b.weight) for b in j_plus.bound_states])
        return solitons.reflectionless_D(chain), list(chain.residues)
    if j_plus.m == 1:
        d_of = ScalarD(j_plus)
        return d_of, d_of.residues()
    return None


# ---------------------------------------------------------------------------
# scalar transmission denominator from |S| and the bound states


# B_2k / (2k + 1)! for k = 19 down to 1, from the Bernoulli numbers B_2 .. B_38 as exact fractions
_LI2_SERIES = [num / (den * math.factorial(2 * k + 1)) for k, num, den in reversed([
    (1, 1, 6), (2, -1, 30), (3, 1, 42), (4, -1, 30), (5, 5, 66), (6, -691, 2730), (7, 7, 6), (8, -3617, 510),
    (9, 43867, 798), (10, -174611, 330), (11, 854513, 138), (12, -236364091, 2730), (13, 8553103, 6),
    (14, -23749461029, 870), (15, 8615841276005, 14322), (16, -7709321041217, 510), (17, 2577687858367, 6),
    (18, -26315271553053477373, 1919190), (19, 2929993913841559, 6),
])]


def _li2(w):
    """The dilogarithm Li2(w) off its cut (1, inf), real for real w <= 1.

    |w| > 1 is taken inside the unit disk by Li2(w) = -pi^2/6 - ln(-w)^2 / 2
    - Li2(1/w), and then Re w > 1/2 to 1 - w by Li2(w) = pi^2/6
    - ln(w) ln(1 - w) - Li2(1 - w).  There u = -ln(1 - w) has |u| <= pi/3,
    and Li2(w) = sum_n B_n u^(n+1) / (n+1)! is summed through B_39, its terms
    falling like (|u| / 2 pi)^n.
    """
    w = np.asarray(w)
    z = w.astype(complex)
    flip = np.abs(z) > 1
    z[flip] = 1.0 / z[flip]
    turn = z.real > 0.5
    z[turn] = 1.0 - z[turn]
    u = -np.log(1.0 - z)
    u2 = u * u
    series = np.zeros_like(u)
    for c in _LI2_SERIES:
        series = series * u2 + c
    li = u + u2 * (u * series - 0.25)  # B_0 = 1, B_1 = -1/2, and B_n = 0 for odd n > 1
    li[turn] = np.pi**2 / 6 + u[turn] * np.log(z[turn]) - li[turn]
    li[flip] = -np.pi**2 / 6 - 0.5 * np.log(-w[flip]) ** 2 - li[flip]
    return li.real if np.isrealobj(w) else li


class ScalarD:
    """D(rho) for m = 1: Blaschke product times the outer factor exp(gamma).

    gamma(rho) = -(1/2 pi i) int ln(1 - |S(xi)|^2) / (xi - rho) dxi for
    Im rho > 0; real-axis values are the boundary limit, evaluated with a
    principal-value quadrature (symmetric singularity subtraction) and the
    half-residue.  Generic data have |S| -> 1 at the origin, leaving an
    integrable log singularity in the integrand: the local model w ln|xi| is
    fitted from the innermost nodes, quadratured implicitly through the
    smooth remainder, and integrated in closed form (dilogarithms) itself.
    Built from right data of m = 1 on at least four rho nodes with distinct
    taus (``tau_gap``), else ``ValidationError``; D at a point where the outer
    factor leaves double range raises ``NumericsError``.
    """

    def __init__(self, j_plus: ScatteringData):
        if j_plus.m != 1:
            raise ValidationError("the closed-form denominator reconstruction is scalar-only")
        self.nodes = j_plus.rho_grid.nodes
        if self.nodes.size < 4:
            raise ValidationError("the scalar denominator needs at least four rho nodes")
        self.taus = tuple(float(t) for t in j_plus.taus)
        gap, gap_tol = tau_gap(self.taus)
        if gap < gap_tol:  # D^-1 has no simple pole at a repeated tau
            raise ValidationError(f"the scalar denominator needs distinct taus: two lie {gap:.3g} apart")
        mod2 = np.abs(j_plus.S[:, 0, 0]) ** 2
        if mod2.max(initial=0.0) >= 1.0:
            raise ValidationError("|S| >= 1 at a node: outer factor undefined")
        self.f = np.log1p(-mod2)
        self.step = float(self.nodes[1] - self.nodes[0])
        self.rho_max = float(self.nodes[-1]) + 0.5 * self.step

        n2 = self.nodes.size // 2
        x1, x2 = self.nodes[n2], self.nodes[n2 + 1]
        f1 = 0.5 * (self.f[n2] + self.f[n2 - 1])
        f2 = 0.5 * (self.f[n2 + 1] + self.f[n2 - 2])
        self.log_w = float((f2 - f1) / (np.log(x2) - np.log(x1)))
        fs = self.f_smooth = self.f - self.log_w * np.log(np.abs(self.nodes))
        # its slope: central differences, one-sided at the two ends
        self.f_smooth_prime = np.concatenate([fs[1:2] - fs[:1], 0.5 * (fs[2:] - fs[:-2]), fs[-1:] - fs[-2:-1]]) / self.step

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

    def _outer(self, z: np.ndarray, sign: float) -> np.ndarray:
        """exp(sign gamma(z)), refused before it leaves double range."""
        g = sign * self._gamma(z)
        past = ~(g.real < np.log(np.finfo(float).max))  # NaN too
        if past.any():
            raise NumericsError(f"the outer factor of D leaves double range at rho = {z.flat[np.argmax(past)]:.3g}")
        return np.exp(g)

    def __call__(self, rho) -> np.ndarray:
        """D at a 1-d array of points, shape (n, 1, 1)."""
        z = np.asarray(rho, dtype=complex)
        if np.any(z.imag < -1e-12):
            raise ValidationError("evaluator defined on the closed upper half-plane")
        blaschke = np.ones(z.shape, dtype=complex)
        for tau in self.taus:
            blaschke *= (z - 1j * tau) / (z + 1j * tau)
        return (blaschke * self._outer(z, 1.0))[..., None, None]

    def residues(self) -> list:
        """Res D^-1 at each i tau_k, in the order of ``taus``, as (1, 1) arrays.

        D^-1 = prod_j (rho + i tau_j) / (rho - i tau_j) exp(-gamma), so the
        residue is 2 i tau_k prod_{j != k} (tau_k + tau_j) / (tau_k - tau_j)
        exp(-gamma(i tau_k)) in closed form.
        """
        taus = np.array(self.taus)
        outer = self._outer(1j * taus, -1.0)
        out = []
        for k, tau in enumerate(taus):
            rest = np.delete(taus, k)
            out.append(np.array([[2j * tau * np.prod((tau + rest) / (tau - rest)) * outer[k]]]))
        return out


# ---------------------------------------------------------------------------
# Condition B


def _cauchy_nodes(a: complex, b: complex, z0: complex):
    """(nodes, weights) of 16-point Gauss-Legendre panels for the integral of dz along a -> b.

    Each panel is at most max(0.5, |z - z0| / 2 - 0.5) long at its end
    nearest z0, so the panels grow geometrically away from z0 and a side of
    length L takes O(log L) of them.  The Legendre nodes and weights are the
    eigenvalues of the Jacobi matrix and the squared first components of its
    eigenvectors (Golub-Welsch).
    """
    k = np.arange(1.0, 16.0)
    x, v = np.linalg.eigh(np.diag(k / np.sqrt(4 * k * k - 1), 1), UPLO="U")
    length = abs(b - a)
    near = float(np.clip(((z0 - a) * np.conj(b - a)).real / length**2, 0.0, 1.0))
    breaks = [near]
    for end in (0.0, 1.0):
        t = near
        while t != end:
            h = max(0.5, 0.5 * abs(a + (b - a) * t - z0) - 0.5) / length
            t = min(t + h, 1.0) if end else max(t - h, 0.0)
            breaks.append(t)
    t = np.unique(breaks)
    half = 0.5 * np.diff(t)[:, None]
    return a + (b - a) * (t[:-1, None] + half * (1.0 + x)).ravel(), (b - a) * (2.0 * half * v[0] ** 2).ravel()


def _semicircle(radius: float) -> np.ndarray:
    theta = np.linspace(0.05, np.pi - 0.05, 33)
    return radius * np.exp(1j * theta)


def check_condition_B_numeric(denominator, j_plus: ScatteringData) -> ConditionReport:
    """Numeric report on a candidate transmission denominator for right data.

    ``denominator`` is the pair (D evaluator, residues of D^-1 in bound-state
    order) that ``right_denominator`` returns.  Analyticity is probed by
    Cauchy-integral self-consistency on a rectangle (a finite test, not a
    proof); the residues are judged against the weights (``residue_check``);
    asymptotics, the modulus identity and the connected left kernel are
    measured directly.
    """
    d_of, residues = denominator
    nodes = j_plus.rho_grid.nodes
    rho_max = j_plus.rho_grid.rho_max
    m = j_plus.m
    eye = np.eye(m)
    items = []

    # Cauchy self-consistency on a rectangle enclosing the bound-state points,
    # applied to rho (D - I): that combination is the one required continuous
    # down to the real axis, where D itself may blow up like 1/rho.
    top = 2.0 * max(j_plus.taus, default=1.0) + 1.0
    rect_w = max(rho_max / 2, 1.0)
    corners = [-rect_w + 0.1j, rect_w + 0.1j, rect_w + top * 1j, -rect_w + top * 1j]
    z0 = 0.5j * (0.1 + top)
    sides = [_cauchy_nodes(a, b, z0) for a, b in zip(corners, corners[1:] + corners[:1])]
    zs, dz = (np.concatenate(part) for part in zip(*sides))
    total = np.tensordot(dz / (2j * np.pi * (zs - z0)), zs[:, None, None] * (d_of(zs) - eye), axes=(0, 0))
    probe = z0 * (d_of(np.array([z0]))[0] - eye)
    cauchy_defect = matrix_operator_norm(probe - total) / (1.0 + matrix_operator_norm(probe))
    items.append(CheckItem("analytic_cauchy_probe", cauchy_defect <= 1e-2, float(cauchy_defect), 1e-2))

    # residues of D^{-1}: C_k N_k with invertible C_k; the residue furthest
    # past (or closest to) its tolerance is reported, and a missing one fails
    checks = [residue_check(r, b.weight) for b, r in zip(j_plus.bound_states, residues)]
    if len(residues) != len(j_plus.bound_states):
        checks.append((np.inf, HERMITICITY_RTOL, False))
    res_defect, res_tol, _ = max(checks, key=lambda c: c[0] / c[1], default=(0.0, HERMITICITY_RTOL, True))
    res_ok = all(defect <= tol and rank_ok for defect, tol, rank_ok in checks)
    items.append(CheckItem("residue_matches_weight", res_ok, res_defect, res_tol))

    # |rho| * ||D - I|| bounded at two scales
    v1 = matrix_operator_norm(d_of(_semicircle(rho_max)) - eye) * rho_max
    v2 = matrix_operator_norm(d_of(_semicircle(2 * rho_max)) - eye) * 2 * rho_max
    items.append(CheckItem("large_rho_identity", v2 <= 1.6 * v1 + 1e-9, v2, 1.6 * v1 + 1e-9))

    # D once on the real grid; its nodes nearest the origin probe small rho
    d_real = d_of(nodes.astype(complex))
    order = np.argsort(np.abs(nodes))

    # modulus identity on the real grid
    lhs = np.linalg.inv(d_real @ d_real.conj().transpose(0, 2, 1))
    rhs = eye - j_plus.S.conj().transpose(0, 2, 1) @ j_plus.S
    b5 = float(np.abs(lhs - rhs).max())
    items.append(CheckItem("modulus_identity", b5 <= 1e-6, b5, 1e-6))

    # rho (S + I) D -> 0 at the origin, probed at the two smallest magnitudes
    j1, j2 = order[0], order[2] if len(nodes) > 2 else order[-1]
    v_small, v_next = (matrix_operator_norm(nodes[j] * (j_plus.S[j] + eye) @ d_real[j]) for j in (j1, j2))
    b6_tol = max(v_next * 1.2, 1e-9)
    items.append(CheckItem("zero_limit", v_small <= b6_tol, v_small, b6_tol))

    # connected left kernel integrability
    s_minus = _connected_reflection(d_real, j_plus.S)
    left = ScatteringData(side="left", rho_grid=j_plus.rho_grid, S=s_minus, bound_states=())
    r_minus = _kernel_samples(left)
    items.append(_kernel_tail_item("connected_left_kernel_tail", "left", operator_norms(r_minus)))

    return ConditionReport(condition="B", items=tuple(items))
