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
from functools import cached_property

import numpy as np

# Relative eigenvalue cutoff for all rank decisions.
EIG_CUTOFF_REL = 1e-10
# Hermiticity tolerance: defect <= HERMITICITY_RTOL * (1 + ||N||) is repaired
# by symmetrization, anything above is rejected.  A weight's PSD margin may
# fall as far below zero (``weight_check``), and a residue stray as far out of
# its weight's range (``residue_check``).
HERMITICITY_RTOL = 1e-8
# Budget of complex entries of any one array an input may size: a grid's
# nodes, the count's sweep steps, the GLM's kernel samples and dense system.
MAX_ENTRIES = 2**27
# Gaussian bumps of the bundled random potential, and the norm of each.
_RANDOM_BUMPS = 3
_RANDOM_AMPLITUDE = 0.4


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


# ---------------------------------------------------------------------------
# small dense Hermitian matrix calculus


def matrix_operator_norm(a: np.ndarray) -> float:
    """Largest singular value (the norm induced by the Euclidean vector norm).

    A stack of matrices gives the largest over the stack (0 for an empty one).
    """
    return float(np.max(operator_norms(np.asarray(a)), initial=0.0))


def operator_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack of shape (..., m, m).

    sqrt(lambda_max(A^H A)), not an SVD per matrix: |a| for m = 1; for m = 2
    the larger root of the Gram's characteristic polynomial, a sum of
    nonnegative terms, from the column norms p, q and inner product b; one
    batched ``eigvalsh`` otherwise.  Each matrix is scaled by its largest
    entry first, so the Gram neither overflows nor underflows.  A matrix
    whose largest entry is subnormal is lifted by 2^600 first, as dividing a
    complex array by a subnormal takes its reciprocal, which overflows.
    """
    a = np.asarray(a)
    if a.shape[-1] == 1:
        return np.abs(a[..., 0, 0])
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    lift = np.where(scale < np.finfo(float).tiny, 2.0**600, 1.0)
    a = a * lift[..., None, None] / np.where(scale > 0, scale * lift, 1.0)[..., None, None]
    if a.shape[-1] == 2:
        p, q = np.moveaxis((a.real**2 + a.imag**2).sum(axis=-2), -1, 0)
        b = np.abs(np.sum(a[..., :, 0].conj() * a[..., :, 1], axis=-1))
        return scale * np.sqrt(0.5 * (p + q) + np.hypot(0.5 * (p - q), b))
    return scale * np.sqrt(np.linalg.eigvalsh(a.conj().swapaxes(-2, -1) @ a)[..., -1])


def weight_check(n: np.ndarray) -> tuple[float, float, float]:
    """(PSD margin, Hermiticity defect, tolerance) of one weight: the one rule for weights.

    A weight passes when margin >= -tol and defect <= tol, with
    tol = ``HERMITICITY_RTOL`` (1 + ||N||) scaled by its own norm, so that a
    state's verdict does not change when an unrelated state is added.
    """
    n = np.asarray(n, dtype=complex)
    defect = matrix_operator_norm(n - n.conj().T)
    return psd_margin(n), defect, HERMITICITY_RTOL * (1.0 + matrix_operator_norm(n))


def residue_check(r: np.ndarray, n: np.ndarray) -> tuple[float, float, bool]:
    """(defect, tolerance, ranks agree) of a residue R against its weight N: the one rule for residues.

    Condition B wants R = C N with C invertible.  The defect is ||R K K^H||,
    K a basis of the complement of N's range (``range_split``), against
    ``HERMITICITY_RTOL`` (1 + ||R||); the rank of R counts its singular values
    above ``EIG_CUTOFF_REL`` times the largest, the cutoff of N's range.
    """
    r = np.asarray(r, dtype=complex)
    if not np.isfinite(r).all():  # e.g. the scalar closed form at coinciding taus
        return np.inf, HERMITICITY_RTOL, False
    w, _, ker = range_split(np.asarray(n, dtype=complex))
    s = np.linalg.svd(r, compute_uv=False)  # descending
    rank = np.count_nonzero(s > EIG_CUTOFF_REL * s[0])
    tol = HERMITICITY_RTOL * (1.0 + float(s[0]))
    return matrix_operator_norm(r @ ker @ ker.conj().T), tol, bool(rank == w.size)


def tau_gap(taus) -> tuple[float, float]:
    """(smallest gap between two taus, tolerance): the one rule for distinct taus.

    Taus are distinct when the gap is at least 1e-8 times the largest tau;
    fewer than two taus have an infinite gap.
    """
    taus = np.sort(np.asarray(taus, dtype=float))
    return float(np.diff(taus).min(initial=np.inf)), 1e-8 * float(taus.max(initial=0.0))


def _checked_hermitian(n: np.ndarray, what: str = "matrix") -> np.ndarray:
    n = np.asarray(n, dtype=complex)
    if n.ndim != 2 or n.shape[0] != n.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {n.shape}")
    if not np.all(np.isfinite(n)):
        raise ValidationError(f"{what} has non-finite entries")
    _, defect, tol = weight_check(n)
    if defect > tol:
        raise ValidationError(
            f"{what} is not Hermitian: defect {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    return 0.5 * (n + n.conj().T)


def range_split(n: np.ndarray):
    """The one rank decision: (w, V, K) with n = V diag(w) V^H on its range, K a basis of the rest.

    The range holds the eigenvalues of the symmetrized n above ``EIG_CUTOFF_REL``
    times the largest magnitude, so a negative eigenvalue is never in it.
    """
    w, v = np.linalg.eigh(0.5 * (n + n.conj().T))
    keep = w > EIG_CUTOFF_REL * float(np.abs(w).max(initial=0.0))
    return w[keep], v[:, keep], v[:, ~keep]


def range_factors(weights):
    """B = [B_1 ... B_n] with B_k B_k^H = N_k on its range, and the state index k of each column."""
    factors = []
    for n in weights:
        w, v, _ = range_split(np.asarray(n, dtype=complex))
        factors.append(v * np.sqrt(w))
    index = np.repeat(np.arange(len(factors)), [f.shape[1] for f in factors])
    return np.concatenate(factors, axis=1), index


def hermitian_pseudo_inverse(n: np.ndarray) -> np.ndarray:
    """Spectral pseudo-inverse of a Hermitian PSD matrix over its range (``range_split``).

    Inputs within the Hermiticity tolerance are symmetrized first, anything
    worse is rejected with the defect magnitude.
    """
    w, v, _ = range_split(_checked_hermitian(n, "pseudo-inverse input"))
    return (v * (1.0 / w)) @ v.conj().T


def psd_margin(n: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized matrix (negative = PSD violation)."""
    n = np.asarray(n, dtype=complex)
    return float(np.linalg.eigvalsh(0.5 * (n + n.conj().T)).min())


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
        steps = (x_max - x_min) / dx
        if not steps < MAX_ENTRIES:  # an infinite quotient too
            raise ValidationError(f"a grid of {steps:.3g} steps is over the budget of 2^27 nodes")
        n = int(round(steps)) + 1
        if n < 2 or not math.isclose(x_min + (n - 1) * dx, x_max, rel_tol=0, abs_tol=1e-9):
            raise ValidationError("bounds are not an integer number of steps apart")
        return cls(x_min, dx, n)

    @property
    def xs(self) -> np.ndarray:
        return self._xs

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
        if 2 * self.n_half > MAX_ENTRIES:
            raise ValidationError(f"a rho grid of {2 * self.n_half} nodes is over the budget of 2^27")
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

    @property
    def u_limit(self) -> float:
        """Largest |u| where the midpoint Fourier sum is used: 0.9 of pi / step, past which it aliases."""
        return 0.9 * np.pi / self.step


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

    @cached_property
    def cell_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh`` of every cell value, computed once and shared by all sweeps."""
        return np.linalg.eigh(self.cell_values)

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


def sech_well(grid: SpaceGrid, tau: float = 1.0, matrix=None) -> SampledPotential:
    """-2 tau^2 sech^2(tau x) times an orthogonal projector."""
    mat = np.eye(1, dtype=complex) if matrix is None else np.asarray(matrix, dtype=complex)

    def profile(x):
        return -2.0 * tau**2 / math.cosh(tau * x) ** 2 * mat

    return SampledPotential.from_profile(grid, profile)


def random_potential(grid: SpaceGrid, dim: int = 2, seed: int = 0) -> SampledPotential:
    """Seeded random smooth compactly supported Hermitian potential."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.5, 1.5, size=_RANDOM_BUMPS)
    widths = rng.uniform(0.5, 1.0, size=_RANDOM_BUMPS)
    mats = []
    for _ in range(_RANDOM_BUMPS):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (g + g.conj().T)
        mats.append(_RANDOM_AMPLITUDE * h / max(matrix_operator_norm(h), 1e-12))

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
    """One bound state: rho = i*tau with a Hermitian PSD weight matrix, on the side
    of the ScatteringData that holds it."""

    tau: float
    weight: np.ndarray

    def __post_init__(self):
        if self.tau <= 0:
            raise ValidationError("tau must be positive")
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
