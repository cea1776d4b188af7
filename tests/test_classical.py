"""Classical mechanics in both arenas: Euler-Lagrange solutions, the
momentum-space Lagrangian, and the Legendre duality."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsqp.classical import (
    Trajectory,
    el_solve_p,
    el_solve_q,
    hamiltonian,
    lagrangian_p,
    lagrangian_q,
    legendre_residual,
    translate_initial_conditions,
)
from epsqp.numerics import PhysicalParams, Potential

HYP = settings(max_examples=25, deadline=None)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_harmonic_position_solution(harmonic_params):
    # q(0) = 0, qdot(0) = 1  ->  q(t) = sin(t) / w (unit frequency here)
    traj = el_solve_q(harmonic_params, q0=0.0, qdot0=1.0, t_final=TWO_PI, dt=1e-3)
    assert np.max(np.abs(traj.coord - np.sin(traj.times))) < 1e-8
    assert np.max(np.abs(traj.velocity - np.cos(traj.times))) < 1e-8
    assert traj.space == "q"


def test_harmonic_momentum_solution(harmonic_params):
    # p(0) = 1, pdot(0) = 0  ->  p(t) = cos(t)
    traj = el_solve_p(harmonic_params, p0=1.0, pdot0=0.0, t_final=TWO_PI, dt=1e-3)
    assert np.max(np.abs(traj.coord - np.cos(traj.times))) < 1e-8
    assert traj.space == "p"


def test_linear_position_solution(linear_params):
    # uniform acceleration down the slope: q = q0 + v0 t - b t^2 / 2m
    traj = el_solve_q(linear_params, q0=0.5, qdot0=0.2, t_final=2.0, dt=1e-3)
    b = linear_params.potential.b
    m = linear_params.mass
    expected = 0.5 + 0.2 * traj.times - 0.5 * (b / m) * traj.times**2
    assert np.max(np.abs(traj.coord - expected)) < 1e-10


def test_linear_momentum_solution(linear_params):
    # V'' = 0: pdot is frozen, p moves uniformly
    traj = el_solve_p(linear_params, p0=0.3, pdot0=-1.0, t_final=2.0, dt=1e-3)
    expected = 0.3 - 1.0 * traj.times
    assert np.max(np.abs(traj.coord - expected)) < 1e-12


def test_energy_conservation(harmonic_params):
    traj = el_solve_q(harmonic_params, q0=1.0, qdot0=0.0, t_final=TWO_PI, dt=1e-3)
    p = harmonic_params.mass * traj.velocity
    energy = hamiltonian(harmonic_params, traj.coord, p)
    assert np.max(np.abs(energy - energy[0])) < 1e-10


# ---------------------------------------------------------------------------
# arena translation
# ---------------------------------------------------------------------------


def test_translate_initial_conditions_harmonic(harmonic_params):
    assert translate_initial_conditions(harmonic_params, 0.0, 1.0) == (1.0, 0.0)
    assert translate_initial_conditions(harmonic_params, 1.0, 0.0) == (0.0, -1.0)


def test_momentum_solution_tracks_position_solution(harmonic_params):
    # solving in p with translated initial data reproduces m qdot(t)
    q0, qdot0 = 0.7, -0.4
    traj_q = el_solve_q(harmonic_params, q0, qdot0, t_final=TWO_PI, dt=1e-3)
    p0, pdot0 = translate_initial_conditions(harmonic_params, q0, qdot0)
    traj_p = el_solve_p(harmonic_params, p0, pdot0, t_final=TWO_PI, dt=1e-3)
    m = harmonic_params.mass
    assert np.max(np.abs(traj_p.coord - m * traj_q.velocity)) < 1e-7


def test_cross_consistency_linear(linear_params):
    q0, qdot0 = 0.0, 0.5
    traj_q = el_solve_q(linear_params, q0, qdot0, t_final=2.0, dt=1e-3)
    p0, pdot0 = translate_initial_conditions(linear_params, q0, qdot0)
    traj_p = el_solve_p(linear_params, p0, pdot0, t_final=2.0, dt=1e-3)
    assert np.max(np.abs(traj_p.coord - linear_params.mass * traj_q.velocity)) < 1e-7


# ---------------------------------------------------------------------------
# Lagrangians and the Legendre duality
# ---------------------------------------------------------------------------


def test_lagrangian_values(harmonic_params, linear_params):
    assert lagrangian_q(harmonic_params, 1.0, 2.0) == pytest.approx(2.0 - 0.5)
    assert lagrangian_q(linear_params, 1.0, 2.0) == pytest.approx(2.0 - 1.0)
    # harmonic momentum-space Lagrangian carries a -pdot^2 / 2k term
    assert lagrangian_p(harmonic_params, 2.0, 1.0) == pytest.approx(2.0 - 0.5)
    # linear gauge: no pdot dependence at all
    assert lagrangian_p(linear_params, 2.0, 7.0) == pytest.approx(2.0)


@HYP
@given(
    x=st.floats(min_value=-3.0, max_value=3.0),
    v=st.floats(min_value=-3.0, max_value=3.0),
)
def test_legendre_duality_is_pointwise(harmonic_params, linear_params, x, v):
    # an algebraic identity of the Lagrangian pair: holds off shell too
    assert legendre_residual(harmonic_params, [(x, v)]) < 1e-13
    assert legendre_residual(linear_params, [(x, v)]) < 1e-13
    # a harmonic potential with a slope: q = -(pdot + b)/k
    both = PhysicalParams(mass=2.0, potential=Potential(k=1.5, b=0.7))
    assert legendre_residual(both, [(x, v)]) < 1e-13


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------


def test_trajectory_validation():
    t = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        Trajectory(t, np.zeros(3), np.zeros(3), space="x")
    with pytest.raises(ValueError):
        Trajectory(t[::-1].copy(), np.zeros(3), np.zeros(3), space="q")
    with pytest.raises(ValueError):
        Trajectory(t, np.zeros(2), np.zeros(3), space="q")
