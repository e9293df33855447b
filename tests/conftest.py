"""Shared fixtures: reference potentials, forward data, and the box oracle."""

import numpy as np
import pytest

from mstl import domain, forward


def box_oracle(rho, height=1.0, half_width=1.0):
    """Closed-form two-interface matching for the step potential (scalar).

    Returns (A, B) for the plus Jost solution written as
    A exp(i rho x) + B exp(-i rho x) to the left of the step.  Valid for
    complex rho off the branch point rho^2 = height.
    """
    rho = np.asarray(rho, dtype=complex)
    w = half_width
    kappa = np.sqrt(rho**2 - height)
    a_in = np.exp(1j * rho * w) * (1 + rho / kappa) / 2 * np.exp(-1j * kappa * w)
    b_in = np.exp(1j * rho * w) * (1 - rho / kappa) / 2 * np.exp(1j * kappa * w)
    f0 = a_in * np.exp(-1j * kappa * w) + b_in * np.exp(1j * kappa * w)
    f1 = 1j * kappa * (a_in * np.exp(-1j * kappa * w) - b_in * np.exp(1j * kappa * w))
    a = np.exp(1j * rho * w) * (f0 + f1 / (1j * rho)) / 2
    b = np.exp(-1j * rho * w) * (f0 - f1 / (1j * rho)) / 2
    return a, b


def box_oracle_field(x, rho, height=1.0, half_width=1.0):
    """Plus Jost solution of the step potential on the whole line (scalar)."""
    x = np.asarray(x, dtype=float)
    rho = complex(rho)
    w = half_width
    kappa = np.sqrt(complex(rho**2 - height))
    a_in = np.exp(1j * rho * w) * (1 + rho / kappa) / 2 * np.exp(-1j * kappa * w)
    b_in = np.exp(1j * rho * w) * (1 - rho / kappa) / 2 * np.exp(1j * kappa * w)
    a, b = box_oracle(rho, height, half_width)
    out = np.empty(x.shape, dtype=complex)
    right = x >= w
    mid = (x > -w) & (x < w)
    left = x <= -w
    out[right] = np.exp(1j * rho * x[right])
    out[mid] = a_in * np.exp(1j * kappa * x[mid]) + b_in * np.exp(-1j * kappa * x[mid])
    out[left] = a * np.exp(1j * rho * x[left]) + b * np.exp(-1j * rho * x[left])
    return out


@pytest.fixture(scope="session")
def box_setup():
    # the step potential reflects like 1/rho^2, so the spectral window must be
    # wide for kernel tails; the step keeps the midpoint rule at 1024 nodes
    # per 40 units
    grid = domain.SpaceGrid.from_bounds(-2.0, 2.0, 0.02)
    potential = domain.box_potential(grid)
    rho_grid = domain.RhoGrid(100.0, 2560)
    return grid, potential, rho_grid


@pytest.fixture(scope="session")
def box_forward(box_setup):
    _, potential, rho_grid = box_setup
    return forward.full_forward(potential, rho_grid)


@pytest.fixture(scope="session")
def bump_setup():
    grid = domain.SpaceGrid.from_bounds(-8.0, 8.0, 0.02)
    potential = domain.bump_potential(grid)
    rho_grid = domain.RhoGrid(40.0, 1024)
    return grid, potential, rho_grid


@pytest.fixture(scope="session")
def bump_forward(bump_setup):
    _, potential, rho_grid = bump_setup
    return forward.full_forward(potential, rho_grid)


@pytest.fixture(scope="session")
def soliton_data():
    """Right data of the unit soliton: S = 0, tau = 1, weight 2."""
    rho_grid = domain.RhoGrid(8.0, 64)
    state = domain.BoundState(tau=1.0, weight=np.array([[2.0 + 0j]]), side="right")
    return domain.ScatteringData(
        side="right",
        rho_grid=rho_grid,
        S=np.zeros((rho_grid.n, 1, 1), dtype=complex),
        bound_states=(state,),
    )
