"""Shared fixtures: canonical grids, parameters and reference states."""

from __future__ import annotations

import math
import tracemalloc

import pytest

from epsqp.eps_core import chi_build
from epsqp.numerics import (
    Grid2D,
    PhysicalParams,
    Potential,
    make_grid,
)
from epsqp.states import ho_coherent_state, linear_potential_gaussian


@pytest.fixture(scope="session")
def q_grid():
    return make_grid(256, -10.0, 10.0)


@pytest.fixture(scope="session")
def grid2(q_grid):
    return Grid2D(q_grid, hbar=1.0)


@pytest.fixture(scope="session")
def harmonic_params():
    return PhysicalParams(mass=1.0, hbar=1.0, potential=Potential(k=1.0))


@pytest.fixture(scope="session")
def linear_params():
    return PhysicalParams(mass=1.0, hbar=1.0, potential=Potential(b=1.0))


@pytest.fixture(scope="session")
def ground_state(q_grid, harmonic_params):
    """Harmonic ground state (coherent state centred at the origin), t = 0."""
    return ho_coherent_state(q_grid, harmonic_params, q0=0.0, p0=0.0, t=0.0)


@pytest.fixture(scope="session")
def ground_chi(ground_state, grid2):
    return chi_build(ground_state, grid2)


@pytest.fixture(scope="session")
def coherent_triplet_factory(q_grid, harmonic_params):
    """Three coherent-state snapshots at t - dt, t, t + dt."""

    def build(q0=0.5, p0=0.0, t=0.4, dt=1e-3):
        return [
            ho_coherent_state(q_grid, harmonic_params, q0=q0, p0=p0, t=t + s * dt)
            for s in (-1, 0, 1)
        ]

    return build


@pytest.fixture(scope="session")
def linear_triplet_factory(q_grid, linear_params):
    """Three linear-potential Gaussian snapshots at t - dt, t, t + dt."""

    def build(q0=0.5, p0=0.0, sigma0=math.sqrt(0.5), t=0.4, dt=1e-3):
        return [
            linear_potential_gaussian(
                q_grid, linear_params, q0=q0, p0=p0, sigma0=sigma0, t=t + s * dt
            )
            for s in (-1, 0, 1)
        ]

    return build


@pytest.fixture
def temporary_arrays():
    """Measure the peak memory a call allocates, in n x n complex128 arrays.

    Everything that exists before the call (its inputs) is excluded; the
    returned value is included.
    """

    def measure(call, n):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - before) / (n * n * 16)

    return measure


@pytest.fixture
def retained_arrays():
    """Measure the memory a call's result still holds once the call returns, in n x n
    complex128 arrays: tracemalloc's current memory, not its peak.  Returns the
    measure and the result."""

    def measure(call, n):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return (held - before) / (n * n * 16), result

    return measure
