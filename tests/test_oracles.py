"""The phase-space kernels against the closed forms of ``oracles``, on the amplitude mask.

Each bound is one decade above the worst floor measured over n = 128, 256, 1024 and
both parameter sets, the coherent state from q0 = 0.5 at t = 0.4:

* chi_build: 3.5e-11 relative, the rounding of the closed form's own kernel
  exp(-i p q / hbar), whose argument reaches a few hundred, and of phi's FFT;
* wigner_direct: 8.6e-11 relative and 2e-14 absolute, an absolute rounding floor
  of 1e-16 of the peak read at the mask edge, where W is 1e-6 of its peak;
* the alpha in {-1, 0} shears of the ground chi: 3.7e-10 relative after one fitted
  complex constant, the FFT round trip's absolute floor read at the mask edge.

Shears at other alpha read 1.6e-7 at unit constants (the p-Nyquist defect) and are
left to the change that mends it.  The momentum strip of the HJ residuals shears the
same: 3.6e-10 at alpha = -1, and at the other alphas never more than the whole-grid
shear's error plus that floor.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import coherent_chi, coherent_wigner, sheared_ground_chi

from epsqp.eps_core import chi_build
from epsqp.numerics import Grid2D, PhysicalParams, Potential, amplitude_mask, make_grid
from epsqp.quantum_potential import _Strip
from epsqp.reports import fit_global_constant
from epsqp.states import ho_coherent_state
from epsqp.transforms import apply_extended_transform, wigner_direct

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
    # the sheared centre field of the HJ residuals' momentum strip, on its box,
    # against the closed form: at alpha = -1 within the floor bound above, and
    # elsewhere no further from it than the whole-grid shear is (6-8e-7 at unit
    # constants), up to that floor
    g, g2 = _grids(n, params)
    states = [ho_coherent_state(g, params, 0.0, 0.0, t) for t in (T - 1e-3, T, T + 1e-3)]
    mask, box, f, *_ = _Strip(states).fields(alpha)
    shape = sheared_ground_chi(params, g2, alpha)[box]
    whole = apply_extended_transform(chi_build(states[1], g2), alpha)[box]
    inside = mask[box]

    def error(field):
        c = fit_global_constant(field, shape, inside)
        return np.max(np.abs(field - c * shape)[inside] / np.abs(c * shape)[inside])

    assert error(f) < (3.7e-9 if alpha == -1.0 else error(whole) + 3.7e-9)
