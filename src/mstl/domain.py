"""Core numeric types shared by every pipeline stage.

Matrices are plain complex numpy arrays (dense, row-major); the sizes here are
small (m <= 8 in practice), so no structured storage is used.  All container
types are frozen dataclasses: construct once, share freely across threads.

Conventions
-----------
* A potential is sampled on a uniform space grid and treated as piecewise
  constant on cells.  Cell values default to endpoint averages but can be
  supplied directly (e.g. sampled at cell midpoints from an analytic profile),
  which lets step potentials be represented exactly.
* The real spectral grid is symmetric about the origin and offset by half a
  step, so rho = 0 is never a node and every real-axis quadrature straddles
  the origin midpoint-style.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative eigenvalue cutoff for all rank decisions.
EIG_CUTOFF_REL = 1e-10
# Hermiticity tolerance: defect <= HERMITICITY_RTOL * (1 + ||N||) is repaired
# by symmetrization, anything above is rejected.
HERMITICITY_RTOL = 1e-8


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NumericsError(RuntimeError):
    """A numerical procedure failed to reach its accuracy contract."""


class IntegrationAccuracyError(NumericsError):
    """An x-independent bracket drifted beyond tolerance."""


class IllPosedDataError(NumericsError):
    """Linear system conditioning signals inadmissible scattering data."""


class InconsistentDataError(NumericsError):
    """Left/right reconstructions disagree beyond tolerance."""


class ContourGeometryError(ValidationError):
    """A residue contour would cross the real axis or a neighboring pole."""


# ---------------------------------------------------------------------------
# small dense Hermitian matrix calculus


def matrix_operator_norm(a: np.ndarray) -> float:
    """Largest singular value (the norm induced by the Euclidean vector norm).

    A stack of matrices gives the largest over the stack (0 for an empty one).
    """
    return float(np.max(operator_norms(np.asarray(a)), initial=0.0))


def operator_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack of shape (..., m, m)."""
    return np.linalg.norm(a, 2, axis=(-2, -1))


def hermitian_defect(n: np.ndarray) -> float:
    return matrix_operator_norm(n - n.conj().T)


def _checked_hermitian(n: np.ndarray, what: str = "matrix") -> np.ndarray:
    n = np.asarray(n, dtype=complex)
    if n.ndim != 2 or n.shape[0] != n.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {n.shape}")
    if not np.all(np.isfinite(n)):
        raise ValidationError(f"{what} has non-finite entries")
    defect = hermitian_defect(n)
    tol = HERMITICITY_RTOL * (1.0 + matrix_operator_norm(n))
    if defect > tol:
        raise ValidationError(
            f"{what} is not Hermitian: defect {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    return 0.5 * (n + n.conj().T)


def hermitian_pseudo_inverse(n: np.ndarray, cutoff: float = EIG_CUTOFF_REL) -> np.ndarray:
    """Spectral pseudo-inverse of a Hermitian PSD matrix.

    Eigenvalues at or below ``cutoff`` times the largest one are treated as an
    exact null space and mapped to zero; the rest are inverted.  Inputs within
    the Hermiticity tolerance are symmetrized first, anything worse is
    rejected with the defect magnitude.
    """
    if cutoff <= 0:
        raise ValidationError("cutoff must be positive")
    n = _checked_hermitian(n, "pseudo-inverse input")
    w, u = np.linalg.eigh(n)
    thresh = cutoff * max(float(w.max(initial=0.0)), 0.0)
    inv = np.where(w > thresh, 1.0 / np.where(w > thresh, w, 1.0), 0.0)
    return (u * inv) @ u.conj().T


def hermitian_rank(n: np.ndarray, cutoff: float = EIG_CUTOFF_REL) -> int:
    n = _checked_hermitian(n, "rank input")
    w = np.linalg.eigvalsh(n)
    return int(np.sum(np.abs(w) > cutoff * max(float(np.abs(w).max(initial=0.0)), 0.0)))


def psd_margin(n: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized matrix (negative = PSD violation)."""
    n = np.asarray(n, dtype=complex)
    return float(np.linalg.eigvalsh(0.5 * (n + n.conj().T)).min())


def residue_contour_radius(tau: float, neighbor_taus) -> float:
    """Residue contour radius around rho = i tau: min(tau/2, gap/2, 0.2), gap the
    distance to the nearest other tau, so the ring misses the axis and other poles."""
    gap = min((abs(tau - t) for t in neighbor_taus if t != tau), default=np.inf)
    return min(tau / 2.0, gap / 2.0, 0.2)


def contour_residue(f, center: complex, radius: float, nodes: int = 64) -> np.ndarray:
    """Residue of a matrix function at ``center`` by a circular trapezoid contour.

    ``f`` must accept a complex array of shape (nodes,) and return values of
    shape (nodes, ...), for instance (nodes, m, m); the residue has the
    trailing shape.  Trapezoid on a circle converges exponentially for
    integrands that are analytic apart from the enclosed simple pole.
    """
    if radius <= 0:
        raise ContourGeometryError("contour radius must be positive")
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
    ring = np.exp(1j * theta)
    values = np.asarray(f(center + radius * ring))
    return (radius / nodes) * np.tensordot(ring, values, axes=(0, 0))


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform grid x_j = x0 + j*dx, j = 0..n-1."""

    x0: float
    dx: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.x0) and math.isfinite(self.dx) and self.dx > 0):
            raise ValidationError("dx must be positive and finite, x0 finite")
        if self.n < 2:
            raise ValidationError("grid needs at least two nodes")
        object.__setattr__(self, "_xs", self.x0 + self.dx * np.arange(self.n))

    @classmethod
    def from_bounds(cls, x_min: float, x_max: float, dx: float) -> "SpaceGrid":
        if not (math.isfinite(x_min) and math.isfinite(x_max) and math.isfinite(dx) and dx > 0):
            raise ValidationError("grid bounds must be finite and dx positive")
        n = int(round((x_max - x_min) / dx)) + 1
        if n < 2 or not math.isclose(x_min + (n - 1) * dx, x_max, rel_tol=0, abs_tol=1e-9):
            raise ValidationError("bounds are not an integer number of steps apart")
        return cls(x_min, dx, n)

    @property
    def xs(self) -> np.ndarray:
        return self._xs

    @property
    def x_max(self) -> float:
        return float(self._xs[-1])

    @property
    def midpoints(self) -> np.ndarray:
        return self._xs[:-1] + 0.5 * self.dx


@dataclass(frozen=True)
class RhoGrid:
    """Symmetric real spectral grid with a half-step offset from the origin.

    Nodes are +-(k + 1/2) * rho_max / n_half for k = 0..n_half-1, in ascending
    order.  Zero is never a node and nodes come in exact +-pairs, so node j
    pairs with node -(j+1) under rho -> -rho: reversing nodewise values
    evaluates them at -rho.
    """

    rho_max: float
    n_half: int

    def __post_init__(self):
        if not (math.isfinite(self.rho_max) and self.rho_max > 0) or self.n_half < 1:
            raise ValidationError("rho_max must be positive and finite, n_half >= 1")
        step = self.rho_max / self.n_half
        pos = step * (np.arange(self.n_half) + 0.5)
        object.__setattr__(self, "_nodes", np.concatenate([-pos[::-1], pos]))

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    @property
    def step(self) -> float:
        return self.rho_max / self.n_half

    @property
    def n(self) -> int:
        return 2 * self.n_half


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class SampledPotential:
    """Self-adjoint m x m potential sampled on a uniform grid.

    ``values`` holds Q(x_j); ``cell_values`` holds the piecewise-constant cell
    representation used by the propagator (defaults to endpoint averages).
    """

    grid: SpaceGrid
    values: np.ndarray
    cell_values: np.ndarray = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 3 or values.shape[0] != self.grid.n or values.shape[1] != values.shape[2]:
            raise ValidationError(f"values must have shape (n, m, m), got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("potential has non-finite entries")
        defect = float(np.max(np.abs(values - values.conj().transpose(0, 2, 1)), initial=0.0))
        scale = float(np.max(np.abs(values), initial=0.0))
        if defect > HERMITICITY_RTOL * (1.0 + scale):
            raise ValidationError(f"potential is not Hermitian nodewise: defect {defect:.3e}")
        values = 0.5 * (values + values.conj().transpose(0, 2, 1))
        object.__setattr__(self, "values", values)

        if self.cell_values is None:
            cells = 0.5 * (values[:-1] + values[1:])
        else:
            cells = np.asarray(self.cell_values, dtype=complex)
            if cells.shape != (self.grid.n - 1, values.shape[1], values.shape[2]):
                raise ValidationError("cell_values must have shape (n-1, m, m)")
            cells = 0.5 * (cells + cells.conj().transpose(0, 2, 1))
        object.__setattr__(self, "cell_values", cells)

        if not np.isfinite(self.weighted_l1()):
            raise ValidationError("(1 + |x|) * ||Q|| is not integrable on the grid")

    @classmethod
    def from_profile(cls, grid: SpaceGrid, profile) -> "SampledPotential":
        """Sample an analytic profile at the nodes and at cell midpoints.

        ``profile`` maps a float x to an (m, m) array (or a scalar for m = 1).
        Midpoint cell sampling keeps piecewise-constant profiles exact and is
        second-order accurate for smooth ones.
        """

        def at(x):
            q = np.asarray(profile(float(x)), dtype=complex)
            return q.reshape(1, 1) if q.ndim == 0 else q

        nodes = np.array([at(x) for x in grid.xs])
        cells = np.array([at(x) for x in grid.midpoints])
        return cls(grid, nodes, cell_values=cells)

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def norms(self) -> np.ndarray:
        return operator_norms(self.values)

    def weighted_l1(self) -> float:
        w = (1.0 + np.abs(self.grid.xs)) * self.norms()
        return float(np.trapezoid(w, dx=self.grid.dx))


def zero_potential(grid: SpaceGrid, dim: int = 1) -> SampledPotential:
    z = np.zeros((grid.n, dim, dim), dtype=complex)
    return SampledPotential(grid, z, cell_values=np.zeros((grid.n - 1, dim, dim), complex))


def box_potential(
    grid: SpaceGrid, height: float = 1.0, half_width: float = 1.0, matrix: np.ndarray = None
) -> SampledPotential:
    """Step potential: height * matrix inside |x| < half_width, zero outside.

    Sampled at cell midpoints, so the step is exact whenever the edges fall on
    grid nodes; edge nodes themselves carry the half value (two-sided mean).
    """
    mat = np.eye(1, dtype=complex) if matrix is None else np.asarray(matrix, dtype=complex)

    def profile(x):
        if abs(abs(x) - half_width) < 1e-12:
            return 0.5 * height * mat
        return height * mat if abs(x) < half_width else 0.0 * mat

    return SampledPotential.from_profile(grid, profile)


def bump_potential(grid: SpaceGrid) -> SampledPotential:
    """Bundled 2 x 2 test potential: two non-commuting PSD Gaussian bumps.

    Pointwise positive semidefinite, hence no bound states; smooth, so the
    reflection matrices decay rapidly and the kernel tails are short.
    """
    m1 = np.array([[1.0, 0.4 + 0.3j], [0.4 - 0.3j, 0.7]])
    m2 = np.array([[0.5, -0.2j], [0.2j, 0.9]])

    def profile(x):
        g1 = math.exp(-((x - 0.6) ** 2) / (2 * 0.7**2))
        g2 = math.exp(-((x + 0.8) ** 2) / (2 * 0.9**2))
        return 0.8 * g1 * m1 + 0.6 * g2 * m2

    return SampledPotential.from_profile(grid, profile)


def sech_well(grid: SpaceGrid, tau: float = 1.0, center: float = 0.0, matrix=None) -> SampledPotential:
    """-2 tau^2 sech^2(tau (x - center)) times an orthogonal projector."""
    mat = np.eye(1, dtype=complex) if matrix is None else np.asarray(matrix, dtype=complex)

    def profile(x):
        return -2.0 * tau**2 / math.cosh(tau * (x - center)) ** 2 * mat

    return SampledPotential.from_profile(grid, profile)


def random_potential(
    grid: SpaceGrid, dim: int = 2, seed: int = 0, bumps: int = 3, amplitude: float = 0.4
) -> SampledPotential:
    """Seeded random smooth compactly supported Hermitian potential."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.5, 1.5, size=bumps)
    widths = rng.uniform(0.5, 1.0, size=bumps)
    mats = []
    for _ in range(bumps):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (g + g.conj().T)
        mats.append(amplitude * h / max(matrix_operator_norm(h), 1e-12))

    def profile(x):
        q = np.zeros((dim, dim), dtype=complex)
        for c, w, h in zip(centers, widths, mats):
            q += math.exp(-((x - c) ** 2) / (2 * w**2)) * h
        return q

    return SampledPotential.from_profile(grid, profile)


# ---------------------------------------------------------------------------
# scattering data containers


@dataclass(frozen=True)
class BoundState:
    """One bound state: rho = i*tau with a Hermitian PSD weight matrix."""

    tau: float
    weight: np.ndarray
    side: str  # "right" | "left"

    def __post_init__(self):
        if self.tau <= 0:
            raise ValidationError("tau must be positive")
        if self.side not in ("right", "left"):
            raise ValidationError(f"unknown side {self.side!r}")
        object.__setattr__(self, "weight", np.asarray(self.weight, dtype=complex))


@dataclass(frozen=True)
class ScatteringData:
    """One side's scattering data: reflection samples plus bound states."""

    side: str
    rho_grid: RhoGrid
    S: np.ndarray
    bound_states: tuple = ()

    def __post_init__(self):
        if self.side not in ("right", "left"):
            raise ValidationError(f"unknown side {self.side!r}")
        s = np.asarray(self.S, dtype=complex)
        if s.ndim != 3 or s.shape[0] != self.rho_grid.n or s.shape[1] != s.shape[2]:
            raise ValidationError(f"S must have shape (n_rho, m, m), got {s.shape}")
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "bound_states", tuple(self.bound_states))
        for b in self.bound_states:
            if b.side != self.side:
                raise ValidationError("bound state side disagrees with data side")
            if b.weight.shape != s.shape[1:]:
                raise ValidationError("bound state weight dimension mismatch")

    @property
    def m(self) -> int:
        return self.S.shape[1]

    @property
    def taus(self) -> tuple:
        return tuple(b.tau for b in self.bound_states)


@dataclass(frozen=True)
class CoefficientSet:
    """Plane-wave matching coefficients on the real grid."""

    rho_grid: RhoGrid
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def m(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class ResiduePair:
    """Residues of the two transmission matrices at rho = i*tau."""

    tau: float
    R_minus: np.ndarray
    R_plus: np.ndarray


@dataclass(frozen=True)
class JostAsymptotics:
    """Large-rho correction terms: omega_pm(x) and omega = (1/2) integral of Q."""

    grid: SpaceGrid
    omega_plus: np.ndarray
    omega_minus: np.ndarray
    omega: np.ndarray
