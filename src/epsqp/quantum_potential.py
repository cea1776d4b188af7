"""Madelung splits, quantum potentials, and Hamilton-Jacobi residuals.

Writing a state in polar form and inserting it into its evolution equation
splits the real part into a classical Hamilton-Jacobi equation plus
curvature ("quantum potential") corrections proportional to hbar^2:

* position space:  dS/dt + (dS/dq)^2/2m + V(q) + Q = 0,
  with Q = -(hbar^2/2m) R''/R;
* momentum space, for V = k q^2/2 + b q:
  dS/dt + p^2/2m + (k/2)(dS/dp)^2 - b dS/dp + Q_p = 0,
  with Q_p = -(hbar^2 k/2) R''/R, which vanishes for a linear potential
  (k = 0): its momentum-space equation is classical already;
* phase space (sheared by alpha): dS/dt plus the gradient form of the
  sheared Hamiltonian plus (1/2 + alpha) * T, where
  T = -hbar^2 [R_qq/m - k R_pp] / R.

The residual evaluators in this module measure how well those identities
hold on sampled states, using three estimators chosen for conditioning
(all branch-cut-free: no phase is unwrapped anywhere in the package):

* spatial action gradients from the algebraic identity
  S_x = hbar Im(conj(f) f_x)/|f|^2 with spectral f_x — no truncation
  error at all (every phase-space f_x comes from
  :func:`~epsqp.numerics.mask_box_gradients`);
* the action time derivative from the phase of the snapshot ratio,
  S_t = hbar arg(f(t+dt) conj(f(t-dt)))/(2 dt), whose error is exactly
  (dt^2/6) d^3S/dt^3.  The naive Im(conj(f) df/dt)/|f|^2 form hides an
  extra -(dS/dt)^3/hbar^2 term in its dt^2 coefficient (the sine series
  of the rotating phasor), which for these states is orders of magnitude
  larger.  Requires |S(t+dt) - S(t-dt)| < pi hbar pointwise — satisfied
  with two orders to spare by every state here;
* amplitude curvature R''/R via :func:`relative_curvature` (centred
  differences on log R): exact for the Gaussian amplitude family and
  uniformly conditioned on the mask, unlike a spectral derivative of R,
  whose absolute rounding floor is amplified by 1/R at the mask edge.
  The 1D residuals' quantum term is the centre state's
  :func:`quantum_potential`, the same profile the scenarios check.

The phase-space residuals apply them only on the bounding box of the
amplitude mask, grown by one cell for the curvature stencils.

The momentum-space identities above hold for the action S = +hbar arg(phi)
(phi = R exp(+i S / hbar)), the same sign as in position space, and the
residual evaluators use it.  Only derivatives of S enter any residual, so
no global constant is affected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .eps_core import ExtendedHamiltonian, chi_spectrum
from .numerics import (
    Grid2D,
    amplitude_mask,
    fft2_passes,
    inverse_on_box,
    log_amplitude,
    log_curvature,
    mask_box_gradients,
    relative_curvature,
    snapshot_triple,
    spectral_derivative,
)
from .reports import (
    LineFit,
    ResidualReport,
    fit_global_constant,
    fit_line,
    masked_l2,
    residual_report,
    snapshot_metadata,
)
from .states import WaveFunction, to_momentum_space
from .transforms import shear_spectrum


# ---------------------------------------------------------------------------
# quantum potential profiles
# ---------------------------------------------------------------------------


def quantum_potential(state: WaveFunction) -> NDArray[np.float64]:
    """Quantum potential (energy units) of a 1D state, NaN off its amplitude
    mask: ``-(hbar^2/2m) R''/R`` in position space, ``-(hbar^2 k/2) R''/R`` in
    momentum space (exactly zero for a linear potential), with R = |state|.

    The curvature ratio comes from :func:`relative_curvature` (log-space
    differences), which keeps the profile accurate all the way to the mask
    edge, where R is a millionth of its peak and any absolute error in a
    directly differentiated R would be amplified a millionfold.  Raises
    ``ValueError`` for a state whose mask is empty.
    """
    params = state.params
    R = np.abs(state.values)
    mask = amplitude_mask(R)
    if not mask.any():
        raise ValueError("state amplitude is everywhere below the node threshold")
    if state.space == "q":
        coefficient = -(params.hbar**2) / (2.0 * params.mass)
    else:
        coefficient = -(params.hbar**2) * params.potential.k / 2.0
    values = np.full(R.shape, np.nan)
    values[mask] = coefficient * relative_curvature(R, state.grid.spacing)[mask]
    return values


# ---------------------------------------------------------------------------
# 1D Hamilton-Jacobi residuals
# ---------------------------------------------------------------------------


def _hj_setup(snapshots: Sequence[WaveFunction], space: str) -> tuple:
    """Common 1D setup: action derivatives and quantum potential at the centre.

    The snapshots must be ``space``-space states.  Returns ``(params, grid,
    metadata, mask, S_t, S_x, Q)`` with the metadata every 1D report shares
    and ``Q`` the centre's :func:`quantum_potential`.  The action is
    S = +hbar arg(f) in both spaces (see the module docstring).
    """
    if any(s.space != space for s in snapshots):
        raise ValueError(f"snapshots must be {space}-space states")
    minus, center, plus, dt = snapshot_triple(snapshots)
    params = center.params
    grid = center.grid
    c = center.values
    quantum = quantum_potential(center)
    mask = ~np.isnan(quantum)  # the centre's amplitude mask
    dens = np.where(mask, np.abs(c) ** 2, 1.0)

    hbar = params.hbar
    S_t = hbar * np.angle(plus.values * np.conj(minus.values)) / (2.0 * dt)
    S_x = hbar * np.imag(np.conj(c) * spectral_derivative(c, grid, order=1)) / dens
    return params, grid, snapshot_metadata(center, dt), mask, S_t, S_x, quantum


def hj_residual_q(snapshots: Sequence[WaveFunction]) -> ResidualReport:
    """Residual of the position-space modified Hamilton-Jacobi equation.

        dS/dt + (dS/dq)^2 / 2m + V(q) + Q,   Q = -(hbar^2/2m) R''/R

    evaluated at the centre snapshot; the classical-form residual (the
    quantum term deleted) and the quantum potential itself are carried in
    the fields, with ``full = classical_form + quantum_term`` holding
    exactly as array arithmetic.
    """
    params, grid, metadata, mask, S_t, S_q, quantum = _hj_setup(snapshots, "q")
    classical = S_t + S_q**2 / (2.0 * params.mass) + params.potential.value(grid.points)
    return residual_report(
        "qspace-hj", classical + quantum, mask, grid.spacing, metadata,
        classical=classical, quantum=quantum, fields={"mask": mask},
    )


def hj_residual_p(snapshots: Sequence[WaveFunction]) -> ResidualReport:
    """Residual of the momentum-space modified Hamilton-Jacobi equation for
    V = k q^2/2 + b q:

        dS/dt + p^2/2m + (k/2)(dS/dp)^2 - b dS/dp + Q_p,   Q_p = -(hbar^2 k/2) R''/R

    with classical-form and quantum-term fields carried alongside, the same
    way as :func:`hj_residual_q`.  For a linear potential (k = 0) the quantum
    term is exactly zero: the equation is first order in d/dp and classical
    already.  Action convention S = +hbar arg(phi).
    """
    params, grid, metadata, mask, S_t, S_p, quantum = _hj_setup(snapshots, "p")
    pot = params.potential
    classical = S_t + grid.points**2 / (2.0 * params.mass) + pot.k / 2.0 * S_p**2 - pot.b * S_p
    return residual_report(
        f"pspace-hj-{pot.kind}", classical + quantum, mask, grid.spacing, metadata,
        classical=classical, quantum=quantum, fields={"mask": mask},
    )


# ---------------------------------------------------------------------------
# phase-space Hamilton-Jacobi residuals (untransformed and sheared)
# ---------------------------------------------------------------------------


def _hj_residual_2d(
    triple: tuple, alpha: float, name: str, spectra: list | None = None, with_fields: bool = True,
) -> ResidualReport:
    """Shared engine for the phase-space modified Hamilton-Jacobi residual.

    ``triple`` is the unpacked ``(minus, center, plus, dt)`` of three
    position-space states; their chi lives on the paired grid of the centre's
    q axis.  Only the box of the centre field's amplitude mask is evaluated,
    with the mask, box and gradients of
    :func:`~epsqp.numerics.mask_box_gradients`.  At alpha = 0 that field is
    the product psi(q) conj(phi(p)) of chi without its kernel, and the t +- dt
    products are formed on the box only.  Otherwise it is the sheared chi:
    :func:`~epsqp.transforms.shear_spectrum` writes each sheared
    :func:`~epsqp.eps_core.chi_spectrum` of ``spectra`` (built here when none
    are passed) into one work buffer, inverted whole for the centre and by
    :func:`~epsqp.numerics.inverse_on_box` for t +- dt.  The spectra are only
    read, so one set serves any number of alphas and no caller holds a
    sheared field.  The estimators of the module docstring are applied to
    these fields: the phase of the plus/minus snapshot ratio is immune to the
    catastrophic cancellation a literal difference of the sheared fields
    would suffer near the mask edge.

    Residual pieces:

        classical_form = S_t + H'(dS/dq, dS/dp, p, q)
        quantum        = (1/2 + alpha) * T
        full           = classical_form + quantum

    where T collects the curvature terms at unit coefficient.  The
    projection of -classical_form onto T (metadata ``fitted_coefficient``)
    measures the coefficient the data actually demands, which the exact
    identity fixes at 1/2 + alpha (``expected_coefficient``).  Without
    ``with_fields`` (only :func:`alpha_sweep` passes ``False``) the report
    carries norms and metadata only; its fields are box crops, NaN off the mask.
    """
    _, center, _, dt = triple
    params = center.params
    m, hbar = params.mass, params.hbar
    grid = Grid2D.paired(center.grid, hbar)

    if alpha == 0.0:
        # chi's kernel exp(-i p q / hbar) centres the p-spectrum of the row at q
        # near wavenumber -q/hbar: on the outer mask rows its tails reach the
        # (coarse) momentum Nyquist and floor a direct spectral gradient.  So
        # differentiate the product without the kernel and restore the kernel's
        # exact gradients (-p into S_q, -q into S_p) below; it is static, so it
        # cancels in S_t, and unimodular, so it leaves the mask.
        phis = [np.conj(to_momentum_space(s).values) for s in triple[:3]]
        mask, box, f, f_q, f_p = mask_box_gradients(phis[1][:, None] * center.values[None, :], grid)
        minus, plus = (phis[i][box[0], None] * triple[i].values[None, box[1]] for i in (0, 2))
    else:  # each sheared field is an inverse transform of a sheared spectrum in ``work``
        spectra = spectra or [chi_spectrum(s) for s in triple[:3]]
        work = np.empty_like(spectra[1])
        shear_spectrum(spectra[1], grid, alpha, hbar, out=work)
        mask, box, f, f_q, f_p = mask_box_gradients(fft2_passes(work, inverse=True, in_place=True), grid)
        minus = inverse_on_box(shear_spectrum(spectra[0], grid, alpha, hbar, out=work), box)
        plus = inverse_on_box(shear_spectrum(spectra[2], grid, alpha, hbar, out=work), box)
        del work
    amp = np.abs(f)
    ratio = np.conj(minus)
    ratio *= plus
    S_t = hbar * np.angle(ratio) / (2.0 * dt)

    inside = mask[box]
    p = grid.p_axis.points[box[0], None]
    q = grid.q_axis.points[None, box[1]]
    dens = np.where(inside, amp**2, 1.0)
    f = np.conj(f)  # S_x from conj(f) * f_x, in that operand order
    S_q = hbar * np.imag(np.multiply(f, f_q)) / dens
    S_p = hbar * np.imag(np.multiply(f, f_p)) / dens
    if alpha == 0.0:
        S_q -= p
        S_p -= q
    ham = ExtendedHamiltonian.from_params(params, alpha)
    classical = S_t + ham.evaluate_classical(S_q, S_p, p, q)
    log_amp = log_amplitude(amp)  # one log for both curvature ratios
    rqq = log_curvature(log_amp, grid.q_axis.spacing, axis=1)  # R_qq / R
    rpp = log_curvature(log_amp, grid.p_axis.spacing, axis=0)  # R_pp / R

    # curvature terms at unit coefficient: quantum = (1/2 + alpha) * T
    T = -(hbar**2) * (rqq / m - params.potential.k * rpp)
    x = 0.5 + alpha
    quantum = x * T

    fitted = -np.real(fit_global_constant(classical, T, inside))
    metadata = {
        "alpha": alpha,
        "expected_coefficient": x,
        "fitted_coefficient": fitted,
        **snapshot_metadata(center, dt),
        "term_basis_l2": masked_l2(T, inside, grid.cell),
        "remainder_l2": masked_l2(classical + fitted * T, inside, grid.cell),
    }
    fields = None
    if with_fields:
        fields = {"q_term": np.where(inside, -(hbar**2) * ham.A * rqq, np.nan), "mask": mask}
    return residual_report(
        name, classical + quantum, mask, grid.cell, metadata,
        classical=classical, quantum=quantum, fields=fields, box=box,
    )


def hj_residual_eps(snapshots: Sequence[WaveFunction]) -> ResidualReport:
    """Residual of the phase-space modified Hamilton-Jacobi identity for chi.

    ``snapshots`` are position-space states at t - dt, t, t + dt.  This is
    the alpha = 0 member of the sheared family: both curvature terms enter
    at coefficient 1/2 (the p-term carries k, so it vanishes for a linear
    potential).
    """
    triple = snapshot_triple(snapshots)
    return _hj_residual_2d(triple, 0.0, f"eps-hj-{triple[1].params.potential.kind}")


def _transformed_name(alpha: float) -> str:
    return f"transformed-hj(alpha={alpha})"


def hj_residual_transformed(snapshots: Sequence[WaveFunction], alpha: float) -> ResidualReport:
    """Residual of the modified Hamilton-Jacobi identity after shearing by alpha.

    ``snapshots`` are position-space states at t - dt, t, t + dt.  Reports
    the full residual as the headline norms and the classical-form residual
    (curvature terms deleted) in the metadata: away from alpha = -1/2 the
    classical form fails by exactly the (1/2 + alpha)-weighted curvature
    term; at alpha = -1/2 the two coincide and the classical equation holds
    on its own.
    """
    return _hj_residual_2d(snapshot_triple(snapshots), alpha, _transformed_name(alpha))


# ---------------------------------------------------------------------------
# alpha sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaSweepResult:
    """Per-alpha norms and the affine fit of the measured quantum-term coefficient.

    ``coefficients`` are the projections of the classical-form residual
    onto the unit-coefficient curvature field T — the coefficient the data
    assigns to the quantum term, equal to 1/2 + alpha up to the
    discretisation floor.  ``fit`` is the least-squares line of those
    coefficients against alpha; its ``zero_crossing`` estimates the alpha
    at which the quantum term vanishes.

    ``term_norms`` are the literal L2 norms of the signed quantum-term
    fields (1/2 + alpha) * T.  They are reported for the vanishing check at
    alpha = -1/2, but they are NOT the quantity fitted: a norm folds in
    |1/2 + alpha| and the alpha-dependence of ||T|| itself, making it even
    about alpha = -1/2 rather than affine.  The projection coefficient is
    the faithful affine observable.

    ``reports`` are the per-alpha residual reports with their norms and
    metadata only, without the n^2 ``fields`` arrays, so a sweep holds the
    same memory however many alphas it has (call
    :func:`hj_residual_transformed` for one alpha's fields).
    """

    alphas: tuple[float, ...]
    coefficients: tuple[float, ...]
    term_norms: tuple[float, ...]
    classical_norms: tuple[float, ...]
    full_norms: tuple[float, ...]
    remainder_norms: tuple[float, ...]
    fit: LineFit
    reports: tuple[ResidualReport, ...] = field(repr=False, compare=False, default=())


def validate_alphas(alphas: Sequence[float]) -> tuple[float, ...]:
    """Return a sweep's shear parameters as floats: at least three, finite,
    strictly increasing, and including -1/2 (the predicted vanishing point
    must be probed, not merely extrapolated)."""
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) < 3:
        raise ValueError("alpha sweep needs at least three alpha values")
    if not all(np.isfinite(alphas)):
        raise ValueError("alphas must be finite")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be sorted in strictly increasing order")
    if not any(abs(a + 0.5) < 1e-12 for a in alphas):
        raise ValueError("alpha sweep must include alpha = -1/2")
    return alphas


def alpha_sweep(snapshots: Sequence[WaveFunction], alphas: Sequence[float]) -> AlphaSweepResult:
    """Evaluate the transformed residual across a shear-parameter sweep.

    ``snapshots`` are as for :func:`hj_residual_transformed`; ``alphas``
    must pass :func:`validate_alphas`, and the reports follow that order.
    The three :func:`~epsqp.eps_core.chi_spectrum` spectra are built once
    and every alpha is evaluated from them in one pass (alpha = 0 reads the
    states instead).
    """
    alphas = validate_alphas(alphas)
    triple = snapshot_triple(snapshots)
    spectra = [chi_spectrum(s) for s in triple[:3]]
    reports = tuple(
        _hj_residual_2d(triple, a, _transformed_name(a), spectra, with_fields=False) for a in alphas
    )
    coefficients = tuple(r.metadata["fitted_coefficient"] for r in reports)
    return AlphaSweepResult(
        alphas=alphas,
        coefficients=coefficients,
        term_norms=tuple(r.metadata["quantum_term_l2"] for r in reports),
        classical_norms=tuple(r.metadata["classical_form_l2"] for r in reports),
        full_norms=tuple(r.l2_norm for r in reports),
        remainder_norms=tuple(r.metadata["remainder_l2"] for r in reports),
        fit=fit_line(alphas, coefficients),
        reports=reports,
    )
