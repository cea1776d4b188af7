"""Closed-form states: harmonic coherent/eigenstates and the linear-potential
Gaussian, their Fourier companions, and the split-step cross-check."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsqp.numerics import PhysicalParams, Potential
from epsqp.states import (
    YOSHIDA6_WEIGHTS,
    ho_coherent_state,
    ho_eigenstate,
    linear_potential_gaussian,
    splitstep_propagate,
    to_momentum_space,
)

HYP = settings(max_examples=25, deadline=None)


def test_closed_form_states_check_their_potential(q_grid):
    # the oscillator states need k > 0 and b = 0, the drifting Gaussian k = 0
    for pot in (Potential(b=1.0), Potential(k=1.0, b=0.5), Potential(k=-1.0)):
        params = PhysicalParams(potential=pot)
        with pytest.raises(ValueError, match="harmonic parameters"):
            ho_coherent_state(q_grid, params, 0.0, 0.0)
        with pytest.raises(ValueError, match="harmonic parameters"):
            ho_eigenstate(q_grid, params, 0)
    sloped_oscillator = PhysicalParams(potential=Potential(k=1.0, b=1.0))
    with pytest.raises(ValueError, match="linear parameters"):
        linear_potential_gaussian(q_grid, sloped_oscillator, 0.0, 0.0, 1.0)


def _mean_position(psi):
    dq = psi.grid.spacing
    dens = np.abs(psi.values) ** 2
    return float(np.sum(psi.grid.points * dens) * dq / (np.sum(dens) * dq))


# ---------------------------------------------------------------------------
# harmonic-oscillator states
# ---------------------------------------------------------------------------


def test_coherent_state_initial_peak_and_norm(q_grid, harmonic_params):
    psi = ho_coherent_state(q_grid, harmonic_params, q0=1.0, p0=0.0, t=0.0)
    assert abs(psi.norm() - 1.0) < 1e-10
    peak_q = q_grid.points[int(np.argmax(np.abs(psi.values)))]
    assert peak_q == pytest.approx(1.0, abs=q_grid.spacing)
    assert _mean_position(psi) == pytest.approx(1.0, abs=1e-10)


def test_coherent_state_half_period_reflection(q_grid, harmonic_params):
    # after half a period the packet sits at -q0 with the same width
    t_half = math.pi / harmonic_params.omega
    psi = ho_coherent_state(q_grid, harmonic_params, q0=1.0, p0=0.0, t=t_half)
    assert _mean_position(psi) == pytest.approx(-1.0, abs=1e-10)
    assert abs(psi.norm() - 1.0) < 1e-10


def test_ground_state_profile_and_stationarity(q_grid, harmonic_params):
    # |psi_0(q)| = pi^{-1/4} exp(-q^2 / 2) at every time
    expected = np.pi**-0.25 * np.exp(-(q_grid.points**2) / 2.0)
    psi0 = ho_coherent_state(q_grid, harmonic_params, q0=0.0, p0=0.0, t=0.0)
    np.testing.assert_allclose(np.abs(psi0.values), expected, atol=1e-12)
    psi_later = ho_coherent_state(q_grid, harmonic_params, q0=0.0, p0=0.0, t=0.33)
    np.testing.assert_allclose(
        np.abs(psi_later.values), np.abs(psi0.values), atol=1e-12
    )


def test_eigenstate_matches_ground_and_evolves_by_phase(q_grid, harmonic_params):
    e0 = ho_eigenstate(q_grid, harmonic_params, n=0)
    c0 = ho_coherent_state(q_grid, harmonic_params, q0=0.0, p0=0.0, t=0.0)
    np.testing.assert_allclose(e0.values, c0.values, atol=1e-12)
    # energy eigenstates evolve by a global phase exp(-i E_n t / hbar)
    t = 0.7
    e1_t = ho_eigenstate(q_grid, harmonic_params, n=1, t=t)
    e1_0 = ho_eigenstate(q_grid, harmonic_params, n=1, t=0.0)
    energy = harmonic_params.hbar * harmonic_params.omega * (1 + 0.5)
    phase = np.exp(-1j * energy * t / harmonic_params.hbar)
    np.testing.assert_allclose(e1_t.values, phase * e1_0.values, atol=1e-12)


def test_first_excited_state_node_and_orthogonality(q_grid, harmonic_params):
    e0 = ho_eigenstate(q_grid, harmonic_params, n=0)
    e1 = ho_eigenstate(q_grid, harmonic_params, n=1)
    assert abs(e1.norm() - 1.0) < 1e-10
    overlap = np.sum(np.conj(e0.values) * e1.values) * q_grid.spacing
    assert abs(overlap) < 1e-12
    mid = q_grid.n_points // 2  # grid point at q = 0
    assert abs(e1.values[mid]) < 1e-12


@HYP
@given(
    q0=st.floats(min_value=-2.0, max_value=2.0),
    p0=st.floats(min_value=-2.0, max_value=2.0),
    t=st.floats(min_value=0.0, max_value=7.0),
)
def test_coherent_state_norm_is_invariant(q_grid, harmonic_params, q0, p0, t):
    psi = ho_coherent_state(q_grid, harmonic_params, q0=q0, p0=p0, t=t)
    assert abs(psi.norm() - 1.0) < 1e-10


@HYP
@given(
    q0=st.floats(min_value=-2.0, max_value=2.0),
    p0=st.floats(min_value=-2.0, max_value=2.0),
    t=st.floats(min_value=0.0, max_value=7.0),
)
def test_coherent_center_follows_classical_orbit(q_grid, harmonic_params, q0, p0, t):
    w = harmonic_params.omega
    m = harmonic_params.mass
    psi = ho_coherent_state(q_grid, harmonic_params, q0=q0, p0=p0, t=t)
    expected = q0 * math.cos(w * t) + (p0 / (m * w)) * math.sin(w * t)
    assert _mean_position(psi) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# linear-potential Gaussian
# ---------------------------------------------------------------------------


def test_linear_gaussian_reduces_to_plain_gaussian_at_t0(q_grid, linear_params):
    q0, p0, s = 0.3, 0.2, 0.8
    psi = linear_potential_gaussian(q_grid, linear_params, q0=q0, p0=p0, sigma0=s)
    x = q_grid.points
    expected = (
        (2.0 * np.pi * s**2) ** -0.25
        * np.exp(-((x - q0) ** 2) / (4.0 * s**2))
        * np.exp(1j * p0 * (x - q0) / linear_params.hbar)
    )
    np.testing.assert_allclose(psi.values, expected, atol=1e-12)


def test_linear_gaussian_center_falls_down_the_slope(q_grid, linear_params):
    # <q>(t) = q0 + p0 t / m - b t^2 / (2 m); from rest at the origin the
    # packet reaches -1/2 at t = 1 for unit slope and mass
    psi = linear_potential_gaussian(
        q_grid, linear_params, q0=0.0, p0=0.0, sigma0=1.0, t=1.0
    )
    assert _mean_position(psi) == pytest.approx(-0.5, abs=1e-10)
    assert abs(psi.norm() - 1.0) < 1e-10


def test_linear_gaussian_momentum_center_is_uniformly_accelerated(
    q_grid, linear_params
):
    # <p>(t) = p0 - b t, independent of the spreading
    t = 0.9
    psi = linear_potential_gaussian(
        q_grid, linear_params, q0=0.5, p0=0.4, sigma0=0.7, t=t
    )
    phi = to_momentum_space(psi)
    dens = np.abs(phi.values) ** 2
    mean_p = np.sum(phi.grid.points * dens) / np.sum(dens)
    assert mean_p == pytest.approx(0.4 - linear_params.potential.b * t, abs=1e-9)


# ---------------------------------------------------------------------------
# Fourier companions
# ---------------------------------------------------------------------------


def test_ground_state_momentum_profile(q_grid, harmonic_params):
    psi = ho_coherent_state(q_grid, harmonic_params, q0=0.0, p0=0.0, t=0.0)
    phi = to_momentum_space(psi)
    expected = np.pi**-0.25 * np.exp(-(phi.grid.points**2) / 2.0)
    assert np.max(np.abs(phi.values - expected)) < 1e-10
    assert phi.space == "p"


# ---------------------------------------------------------------------------
# split-step cross-check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dt", [0.02, 5e-3])
def test_splitstep_tracks_coherent_state(q_grid, harmonic_params, dt):
    t_final = math.pi / 4.0
    psi0 = ho_coherent_state(q_grid, harmonic_params, q0=1.0, p0=0.0, t=0.0)
    evolved = splitstep_propagate(psi0, t_final, dt=dt)
    exact = ho_coherent_state(q_grid, harmonic_params, q0=1.0, p0=0.0, t=t_final)
    dq = q_grid.spacing
    err = np.sqrt(np.sum(np.abs(evolved.values - exact.values) ** 2) * dq)
    assert err < 1e-8
    assert abs(evolved.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("dt", [0.02, 5e-3])
def test_splitstep_tracks_linear_gaussian(q_grid, linear_params, dt):
    t_final = 0.5
    psi0 = linear_potential_gaussian(
        q_grid, linear_params, q0=0.5, p0=0.0, sigma0=math.sqrt(0.5)
    )
    evolved = splitstep_propagate(psi0, t_final, dt=dt)
    exact = linear_potential_gaussian(
        q_grid, linear_params, q0=0.5, p0=0.0, sigma0=math.sqrt(0.5), t=t_final
    )
    dq = q_grid.spacing
    err = np.sqrt(np.sum(np.abs(evolved.values - exact.values) ** 2) * dq)
    assert err < 1e-8


def test_yoshida_weights_are_palindromic_and_sum_to_one():
    # a symmetric composition of Strang steps that covers the whole step
    assert YOSHIDA6_WEIGHTS == YOSHIDA6_WEIGHTS[::-1]
    assert len(YOSHIDA6_WEIGHTS) == 7
    assert abs(sum(YOSHIDA6_WEIGHTS) - 1.0) <= 1e-15


def test_splitstep_is_sixth_order(q_grid, harmonic_params):
    # the harmonic-coherent scenario's half-period cross-check: halving dt
    # must cut the error by 2^6 = 64 up to the next-order term (measured
    # 69); a fourth-order scheme would give 16.  Below dt = 0.04 the error
    # nears its rounding floor, 1e-13
    t_final = math.pi
    psi0 = ho_coherent_state(q_grid, harmonic_params, q0=0.5, p0=0.0, t=0.0)
    exact = ho_coherent_state(q_grid, harmonic_params, q0=0.5, p0=0.0, t=t_final)

    def err(dt):
        evolved = splitstep_propagate(psi0, t_final, dt=dt)
        return np.sqrt(np.sum(np.abs(evolved.values - exact.values) ** 2) * q_grid.spacing)

    assert err(0.08) / err(0.04) >= 50.0
