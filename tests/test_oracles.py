"""The phase-space kernels against the closed forms of ``oracles``, on the amplitude mask.

Each bound is one decade above the worst floor measured over n = 128, 256, 1024 and
both parameter sets, the coherent state from q0 = 0.5 at t = 0.4:

* chi_build: 3.5e-11 relative, the rounding of the closed form's own kernel
  exp(-i p q / hbar), whose argument reaches a few hundred, and of phi's FFT;
* wigner_direct: 8.6e-11 relative and 2e-14 absolute, an absolute rounding floor
  of 1e-16 of the peak read at the mask edge, where W is 1e-6 of its peak;
* the Wigner residual's gradients on its box, relative to their peak on the mask:
  2.8e-14 for dW/dp, the lag-weighted sum, and 3.9e-14 for dW/dq, the q FFT of the
  box rows, both at n = 1024 (a spectral p derivative of W's columns read 3.5e-11:
  one folded bin holds two lags, and cannot weight each by its own -i y / hbar);
* the alpha in {-1, 0} whole-grid shears of the ground chi: 3.7e-10 relative after one
  fitted complex constant, the FFT round trip's absolute floor read at the mask edge.

The whole-grid shear at other alpha reads 1.6e-7 at unit constants: it moves chi's
product along p, whose p-conjugate extent is twice psi's and aliases at the mask edge.
The momentum strip of the HJ residuals moves psi's 1-D factors instead, and reads
1.1e-10 at every alpha (``test_strip_fields_match_the_whole_grid_shear`` referees its
fields and their gradients at the coherent state's closed form).

The strip kernels, chi on the p rows phi occupies (``chi_rows``) and H' there:

* H' chi against i hbar d(chi)/dt from the closed form's time derivative: 3.7e-12 of
  the peak at unit constants and 9.0e-13 at (2, 1.5, 0.7), both at n = 1024 and growing
  as n^2: the rounding of psi's spectral second derivative, eps k_max^2 of its peak;
* chi's marginals against sqrt(2 pi hbar) |psi|^2 and |phi|^2: 9.7e-15 of the peak, and
  ``expectation`` against <q>, <p>, <q^2> and <H>: 1.3e-15 absolute.

The linear-potential Gaussian (V = b q) from q0 = 0.5, p0 = 0 and sigma0 = sqrt(1/2) at
t = 0.4, with (m, hbar, b) = (1, 1, 1) and (2, 0.7, 0.7), the first closed form to referee
H''s E = -b term (the harmonic family has E = 0), relative to the peak:

* ``to_momentum_space`` against ``linear_phi`` and ``chi_rows`` on the momentum strip
  against ``linear_chi``: 9.8e-15 at most, at n = 1024 and unit constants, the rounding
  of phi's FFT and of chi's kernel; bound 1e-13;
* strip H' chi against i hbar d(chi)/dt from ``linear_chi_dt`` on chi's mask: 2.0e-12 at
  unit constants and 7.1e-13 at (2, 0.7, 0.7), both at n = 1024, the floor of the coherent
  case above (a finite difference of ``linear_chi`` in t agrees with ``linear_chi_dt`` to
  its own O(dt^2)); bounds 2e-11 and 7.1e-12.  On the domain [0, 20), from q0 = 10.5,
  where the state lies past L/2 from q = 0: 2.2e-12 at n = 1024 for both; bound 2.2e-11;
* the strip's spectra at alpha = -1, -0.95, -0.7, -0.7 + 2^-40, -1/2 and 0 against
  ``linear_sheared_q_spectrum``, on the rows the sheared chi occupies and the strip's band:
  1.1e-14 for the spectrum and 2.9e-14 for its p derivative's, both at n = 1024 and unit
  constants, at every alpha, whether its columns share 20, 10 or no shifts: the rounding
  of the closed form's phase as in ``CHI_Q_SPECTRUM_BOUND``; bounds 1.1e-13 and 2.9e-13.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (
    coherent_center,
    coherent_chi,
    coherent_chi_derivatives,
    coherent_chi_dt,
    coherent_phi,
    coherent_sheared_q_spectrum,
    coherent_wigner,
    coherent_wigner_gradients,
    linear_chi,
    linear_chi_dt,
    linear_phi,
    linear_sheared_q_spectrum,
    linear_wigner,
    sheared_ground_chi,
)

from epsqp.eps_core import ExtendedHamiltonian, chi_build, chi_rows, expectation, strip_rows
from epsqp.numerics import (
    Grid2D,
    PhysicalParams,
    Potential,
    amplitude_mask,
    make_grid,
    mask_box,
)
from epsqp.reports import fit_global_constant
from epsqp.states import ho_coherent_state, linear_potential_gaussian, to_momentum_space
from epsqp.transforms import _Strip, _wigner_box, _wigner_centre, apply_extended_transform, wigner_direct

Q0, T = 0.5, 0.4
PARAMS = {
    "unit": PhysicalParams(mass=1.0, hbar=1.0, potential=Potential(k=1.0)),
    "m2-k1.5-hbar0.7": PhysicalParams(mass=2.0, hbar=0.7, potential=Potential(k=1.5)),
}


@pytest.fixture(params=[128, 256, 1024])
def n(request):
    return request.param


@pytest.fixture(params=list(PARAMS))
def params(request):
    return PARAMS[request.param]


def _grids(n, params):
    g = make_grid(n, -10.0, 10.0)
    return g, Grid2D(g, params.hbar)


def _relative_error(got, exact):
    mask = amplitude_mask(np.abs(exact))
    return np.max(np.abs(got - exact)[mask] / np.abs(exact)[mask])


def test_chi_build_matches_its_closed_form(n, params):
    g, g2 = _grids(n, params)
    psi = ho_coherent_state(g, params, Q0, 0.0, T)
    assert _relative_error(chi_build(psi, g2).values, coherent_chi(psi, g2, Q0, 0.0)) < 3.5e-10


# chi's q-spectrum, the strip's alpha = 0 member, and its p derivative's against their
# closed forms on the strip rows and the strip's band, relative to the peak: a
# decade over the worst measured, 1.3e-13 at n = 1024 and unit constants (9.0e-14 at
# (2, 1.5, 0.7); 1.1-3.4e-14 at n = 128 and 256).  The floor grows with n as the closed
# form's phase p q_min / hbar, whose rounding it is, reaches n pi |q_min| / extent.
CHI_Q_SPECTRUM_BOUND = 1.3e-12


def test_chi_q_spectrum_matches_its_closed_form(n, params):
    g, g2 = _grids(n, params)
    psi = ho_coherent_state(g, params, Q0, 0.0, T)
    strip = _Strip([psi])
    got = strip.spectra(0.0, strip.rows).swapaxes(1, 2)
    exact = coherent_sheared_q_spectrum(params, g2, Q0, 0.0, T, 0.0, g2.p_axis.points[strip.rows], strip.band)
    for value, want in zip(got, exact):
        assert np.max(np.abs(value - want)) < CHI_Q_SPECTRUM_BOUND * np.max(np.abs(want))


def test_wigner_direct_matches_its_closed_form(n, params):
    g, g2 = _grids(n, params)
    w = wigner_direct(ho_coherent_state(g, params, Q0, 0.0, T), g2).values
    exact = coherent_wigner(params, g2, Q0, 0.0, T)
    assert _relative_error(w, exact) < 8.6e-10
    assert np.max(np.abs(w - exact)) < 2e-13


@pytest.mark.parametrize("alpha", [-1.0, 0.0])
def test_ground_chi_shear_matches_the_cohen_form(n, params, alpha):
    g, g2 = _grids(n, params)
    sheared = apply_extended_transform(chi_build(ho_coherent_state(g, params, 0.0, 0.0), g2), alpha)
    shape = sheared_ground_chi(params, g2, alpha)
    c = fit_global_constant(sheared, shape, amplitude_mask(np.abs(shape)))
    assert _relative_error(sheared, c * shape) < 3.7e-9


@pytest.mark.parametrize("alpha", [-1.0, -0.75, -0.7, -0.5, -0.25])
def test_strip_shear_matches_the_cohen_form(n, params, alpha):
    # the sheared centre field of the HJ residuals' momentum strip, on its box, against
    # the closed form: a decade over the worst measured, 1.1e-10 (n = 1024, unit
    # constants), at every alpha (the whole-grid shear reads 6-8e-7 off alpha = -1, 0)
    g, g2 = _grids(n, params)
    states = [ho_coherent_state(g, params, 0.0, 0.0, t) for t in (T, T - 1e-3, T + 1e-3)]  # the centre first
    mask, box, f, *_ = _Strip(states).fields(alpha)
    shape = sheared_ground_chi(params, g2, alpha)[box]
    inside = mask[box]
    c = fit_global_constant(f, shape, inside)
    assert np.max(np.abs(f - c * shape)[inside] / np.abs(c * shape)[inside]) < 1.2e-9


# i hbar d(chi)/dt = H' chi to the peak: a decade over the measured 3.7e-12 and 9.0e-13
EVOLUTION_BOUND = {"unit": 3.7e-11, "m2-k1.5-hbar0.7": 9e-12}


@pytest.fixture(params=list(PARAMS))
def named_params(request):
    return request.param, PARAMS[request.param]


def _strip_chi(n, params):
    g, g2 = _grids(n, params)
    psi = ho_coherent_state(g, params, Q0, 0.0, T)
    return g2, psi, chi_rows(psi, strip_rows([psi]))


def test_strip_evolution_operator_matches_the_time_derivative(n, named_params):
    name, params = named_params
    g2, psi, chi = _strip_chi(n, params)
    got = ExtendedHamiltonian.from_params(params).apply(psi, chi.rows)
    exact = 1j * params.hbar * coherent_chi_dt(psi, g2, Q0, 0.0)[chi.rows]
    assert np.max(np.abs(got - exact)) < EVOLUTION_BOUND[name] * np.max(np.abs(exact))


def test_strip_marginals_and_expectations_match_the_moments(n, params):
    g2, psi, chi = _strip_chi(n, params)
    m, hbar, w, k = params.mass, params.hbar, params.omega, params.potential.k
    p, q = g2.p_axis.points, g2.q_axis.points
    scale = np.sqrt(2.0 * np.pi * hbar)
    for marginal, density in (
        (chi.values.sum(axis=0) * g2.p_axis.spacing, np.abs(psi.values) ** 2),
        (chi.values.sum(axis=1) * g2.q_axis.spacing, np.abs(coherent_phi(params, p, Q0, 0.0, T)[chi.rows]) ** 2),
    ):
        assert np.max(np.abs(marginal - scale * density)) < 1e-13 * scale * np.max(density)
    q_c, p_c = coherent_center(params, Q0, 0.0, T)
    q2 = q_c**2 + hbar / (2.0 * m * w)
    for parts, exact in (
        ({"of_q": q}, q_c),
        ({"of_p": p}, p_c),
        ({"of_q": q**2}, q2),
        ({"of_p": p**2 / (2.0 * m), "of_q": 0.5 * k * q**2}, p_c**2 / (2.0 * m) + 0.5 * hbar * w + 0.5 * k * q_c**2),
    ):
        assert abs(expectation(chi, **parts) - exact) < 1e-14


# Strip against whole grid at n = 128 and 256: chi_rows is chi_build's rows bit for bit.
# H' chi on the strip at alpha = 0 and -1/2 is H' of the closed-form derivatives of chi
# (coherent_chi_derivatives) to 2.4e-13 of the peak (measured 1.5e-13 and 7.7e-15 at most,
# the first the floor of the evolution check above); at alpha = 0 that closed form is i hbar
# d(chi)/dt's to 1e-14 (measured 7.3e-16).  The Wigner residual's centre W, built on its
# power-of-two window of rows from every k-th lag, has wigner_direct's mask and box; on the
# box it is wigner_direct's W to 6.7e-15 and the closed form's to 6.2e-14 absolute (peak 2)
# and 8.6e-10 relative on the mask, a decade over the measured 6.7e-16, 6.2e-15 and 8.6e-11
# (its gradients have closed forms: test_wigner_residual_gradients_match_their_closed_forms).
@pytest.mark.parametrize("strip_n", [128, 256])
def test_strip_fields_equal_the_whole_grid_kernels(strip_n, params):
    g2, psi, chi = _strip_chi(strip_n, params)
    whole = chi_build(psi, g2)
    np.testing.assert_array_equal(chi.values, whole.values[chi.rows])
    chi_q, chi_qq, chi_p, chi_pp = (d[chi.rows] for d in coherent_chi_derivatives(psi, g2, Q0, 0.0))
    hbar, p, q = params.hbar, g2.p_axis.points[chi.rows, None], g2.q_axis.points[None, :]
    for alpha in (0.0, -0.5):
        ham = ExtendedHamiltonian.from_params(params, alpha)
        q_terms = ham.A * hbar * chi_qq + 1j * ham.B * p * chi_q
        p_terms = ham.C * hbar * chi_pp + 1j * (ham.D * q + ham.E) * chi_p
        want = -hbar * (q_terms + p_terms)
        assert np.max(np.abs(ham.apply(psi, chi.rows) - want)) < 2.4e-13 * np.max(np.abs(want))
        if alpha == 0.0:
            exact = 1j * hbar * coherent_chi_dt(psi, g2, Q0, 0.0)[chi.rows]
            assert np.max(np.abs(want - exact)) < 1e-14 * np.max(np.abs(exact))

    w = wigner_direct(psi, g2).values
    mask, box, f, *_ = _wigner_centre(psi, g2)
    np.testing.assert_array_equal(mask, amplitude_mask(np.abs(w)))
    assert box == mask_box(mask)
    assert np.max(np.abs(f - w[box])) < 6.7e-15
    exact = coherent_wigner(params, g2, Q0, 0.0, T)[box]
    assert np.max(np.abs(f - exact)) < 6.2e-14
    assert _relative_error(f, exact) < 8.6e-10


def test_wigner_residual_gradients_match_their_closed_forms(n, params):
    g, g2 = _grids(n, params)
    mask, box, _, w_q, w_p = _wigner_centre(ho_coherent_state(g, params, Q0, 0.0, T), g2)
    inside = mask[box]
    exact_p, exact_q = coherent_wigner_gradients(params, g2, Q0, 0.0, T)
    for got, exact, bound in ((w_p, exact_p[box], 2.8e-13), (w_q, exact_q[box], 3.9e-13)):
        assert np.max(np.abs(got - exact)[inside]) < bound * np.max(np.abs(exact)[inside])


LINEAR = {
    "unit": PhysicalParams(mass=1.0, hbar=1.0, potential=Potential(b=1.0)),
    "m2-hbar0.7-b0.7": PhysicalParams(mass=2.0, hbar=0.7, potential=Potential(b=0.7)),
}
LINEAR_STATE = (Q0, 0.0, np.sqrt(0.5))  # q0, p0, sigma0
# i hbar d(chi)/dt = H' chi to the peak: a decade over the measured 2.0e-12 and 7.1e-13
LINEAR_EVOLUTION_BOUND = {"unit": 2e-11, "m2-hbar0.7-b0.7": 7.1e-12}


@pytest.fixture(params=list(LINEAR))
def linear(request):
    return request.param, LINEAR[request.param]


def _linear_strip_chi(n, params):
    g, g2 = _grids(n, params)
    psi = linear_potential_gaussian(g, params, *LINEAR_STATE, T)
    return g2, psi, chi_rows(psi, strip_rows([psi]))


def test_linear_phi_and_strip_chi_match_their_closed_forms(n, linear):
    _, params = linear
    g2, psi, chi = _linear_strip_chi(n, params)
    phi = to_momentum_space(psi)
    for got, exact in (
        (phi.values, linear_phi(params, phi.grid.points, *LINEAR_STATE, T)),
        (chi.values, linear_chi(psi, g2, *LINEAR_STATE)[chi.rows]),
    ):
        assert np.max(np.abs(got - exact)) < 1e-13 * np.max(np.abs(exact))


def test_linear_strip_evolution_operator_matches_the_time_derivative(n, linear):
    name, params = linear
    g2, psi, chi = _linear_strip_chi(n, params)
    got = ExtendedHamiltonian.from_params(params).apply(psi, chi.rows)
    exact = 1j * params.hbar * linear_chi_dt(psi, g2, *LINEAR_STATE)[chi.rows]
    mask = amplitude_mask(np.abs(chi.values))
    assert np.max(np.abs(got - exact)[mask]) < LINEAR_EVOLUTION_BOUND[name] * np.max(np.abs(exact)[mask])


def test_linear_strip_evolution_operator_holds_on_a_translated_domain(n, linear):
    # the state at q0 = 10.5 on [0, 20), past L/2 from q = 0: conj(phi)'s p derivatives are
    # the transforms of (-i q / hbar)^k psi at the grid's own q, where a spectral p derivative
    # of phi would read q - L there (17 times the peak at n = 256); bound in the docstring
    _, params = linear
    g = make_grid(n, 0.0, 20.0)
    g2 = Grid2D(g, params.hbar)
    state = (10.5, *LINEAR_STATE[1:])
    psi = linear_potential_gaussian(g, params, *state, T)
    chi = chi_rows(psi, strip_rows([psi]))
    got = ExtendedHamiltonian.from_params(params).apply(psi, chi.rows)
    exact = 1j * params.hbar * linear_chi_dt(psi, g2, *state)[chi.rows]
    mask = amplitude_mask(np.abs(chi.values))
    assert np.max(np.abs(got - exact)[mask]) < 2.2e-11 * np.max(np.abs(exact)[mask])


@pytest.mark.parametrize("alpha", [-1.0, -0.95, -0.7, -0.7 + 2**-40, -0.5, 0.0])
def test_linear_sheared_q_spectrum_matches_its_closed_form(n, linear, alpha):
    # the strip shear of a chirped phi (c_t complex at t = 0.4), the factor kernel every
    # alpha of the HJ residuals reads, 0 included; bounds in the module docstring.  The
    # columns of -0.95 and -0.7 share 20 and 10 shifts, those of -0.7 + 2^-40 (written
    # -0.6999999999990905) one each
    _, params = linear
    g, g2 = _grids(n, params)
    psi = linear_potential_gaussian(g, params, *LINEAR_STATE, T)
    strip = _Strip([psi])
    rows = strip.out_rows(alpha)
    got = strip.spectra(alpha, rows).swapaxes(1, 2)
    exact = linear_sheared_q_spectrum(params, g2, *LINEAR_STATE, T, alpha, g2.p_axis.points[rows], strip.band)
    for value, want, bound in zip(got, exact, (1.1e-13, 2.9e-13)):
        assert np.max(np.abs(value - want)) < bound * np.max(np.abs(want))


# linear_potential_gaussian's W on its strip rows, built on its window from every k-th lag,
# against linear_wigner: to the peak 2, at most 1.1e-14 (n = 1024, unit constants; 6.3e-15
# at (2, 0.7, 0.7)), and relative to each sample on the mask 2.0e-10 (1.7e-10), the
# absolute rounding floor read at the mask edge as in wigner_direct's closed-form check;
# bounds a decade over.  The closed form is below 1e-32 off the strip.
def test_linear_windowed_wigner_matches_its_closed_form(n, linear):
    _, params = linear
    g, g2 = _grids(n, params)
    psi = linear_potential_gaussian(g, params, *LINEAR_STATE, T)
    rows = strip_rows([psi])
    w = _wigner_box(psi, g2, (rows, slice(None)))
    exact = linear_wigner(params, g2, *LINEAR_STATE, T)
    off = np.ones(n, dtype=bool)
    off[rows] = False
    assert np.max(exact[off]) < 1e-32
    assert np.max(np.abs(w - exact[rows])) < 1.1e-13 * 2.0
    assert _relative_error(w, exact[rows]) < 2.0e-9
