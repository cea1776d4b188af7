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
  error at all;
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
amplitude mask, grown by one cell for the curvature stencils, and form
their fields on the few dozen p rows phi occupies at any n (:class:`_Strip`).

The momentum-space identities above hold for the action S = +hbar arg(phi)
(phi = R exp(+i S / hbar)), the same sign as in position space, and the
residual evaluators use it.  Only derivatives of S enter any residual, so
no global constant is affected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .eps_core import ExtendedHamiltonian, strip_rows
from .numerics import (
    Grid2D,
    amplitude_mask,
    log_amplitude,
    log_curvature,
    relative_curvature,
    snapshot_triple,
    spectral_derivative,
    strip_mask_box,
    within,
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
from .transforms import sheared_q_spectrum


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


def _hj_1d(center: WaveFunction, space: str, name: str, terms: Callable) -> Callable:
    """The 1D residual at a ``space``-space ``center`` as ``at(minus, plus)``, its report with
    S_t from the snapshots at t -+ dt.  The classical form is S_t plus ``terms(S_x, x, m, V)``
    in that order, the quantum term the centre's :func:`quantum_potential`, and ``full =
    classical_form + quantum_term`` exactly.  S = +hbar arg(f) in both spaces.
    """
    if center.space != space:
        raise ValueError(f"snapshots must be {space}-space states")
    grid, c, hbar = center.grid, center.values, center.params.hbar
    quantum = quantum_potential(center)
    mask = ~np.isnan(quantum)  # the centre's amplitude mask
    dens = np.where(mask, np.abs(c) ** 2, 1.0)
    S_x = hbar * np.imag(np.conj(c) * spectral_derivative(c, grid, order=1)) / dens
    terms = terms(S_x, grid.points, center.params.mass, center.params.potential)

    def at(minus: WaveFunction, plus: WaveFunction) -> ResidualReport:
        minus, _, plus, dt = snapshot_triple([minus, center, plus])
        S_t = hbar * np.angle(plus.values * np.conj(minus.values)) / (2.0 * dt)
        classical = sum(terms, S_t)
        return residual_report(
            name, classical + quantum, mask, grid.spacing, snapshot_metadata(center, dt),
            classical=classical, quantum=quantum,
        )

    return at


def hj_residual_q(center: WaveFunction) -> Callable:
    """Residual of the position-space modified Hamilton-Jacobi equation, as :func:`_hj_1d`:

        dS/dt + (dS/dq)^2 / 2m + V(q) + Q,   Q = -(hbar^2/2m) R''/R

    with the classical-form residual (the quantum term deleted) and the quantum potential
    itself carried in the fields.
    """
    return _hj_1d(center, "q", "qspace-hj", lambda S_q, q, m, pot: (S_q**2 / (2.0 * m), pot.value(q)))


def hj_residual_p(center: WaveFunction) -> Callable:
    """Residual of the momentum-space modified Hamilton-Jacobi equation for V = k q^2/2 + b q,
    as :func:`hj_residual_q`:

        dS/dt + p^2/2m + (k/2)(dS/dp)^2 - b dS/dp + Q_p,   Q_p = -(hbar^2 k/2) R''/R

    For a linear potential (k = 0) the quantum term is exactly zero: the equation is first
    order in d/dp and classical already.  Action convention S = +hbar arg(phi).
    """
    terms = lambda S_p, p, m, pot: (p**2 / (2.0 * m), pot.k / 2.0 * S_p**2, -(pot.b * S_p))
    return _hj_1d(center, "p", f"pspace-hj-{center.params.potential.kind}", terms)


# ---------------------------------------------------------------------------
# phase-space Hamilton-Jacobi residuals (untransformed and sheared)
# ---------------------------------------------------------------------------


class _Strip:
    """The momentum strip of position-space states, the first of them the centre, and their
    :func:`~epsqp.eps_core.strip_rows` ``rows``.  Column b pairs rows i and i + b of phi, so on
    m rows the ``band`` is the signed q wavenumber columns |b| < m, or all n.
    """

    def __init__(self, states: Sequence[WaveFunction]):
        self.states = tuple(states)
        self.grid = Grid2D(self.states[0].grid, self.states[0].params.hbar)
        self.momenta = tuple(to_momentum_space(s) for s in self.states)
        self.rows = strip_rows(self.momenta)
        n = self.grid.shape[0]
        self.size = len(range(n)[self.rows])
        self.band = np.arange(1 - self.size, self.size) if 2 * self.size <= n else np.arange(n) - n // 2

    def out_rows(self, alpha: float) -> slice:
        """The rows chi sheared by alpha occupies: p is a convex combination of phi's
        arguments p + alpha hbar v and p + (1 + alpha) hbar v."""
        return strip_rows(self.momenta, 1 + math.ceil(max(alpha, -1.0 - alpha, 0.0) * self.size))

    def sheared(self, alpha: float) -> tuple:
        """``(rows, values)``: the first state's chi sheared by alpha on the rows it occupies."""
        rows = self.out_rows(alpha)
        return rows, self.q_pass(sheared_q_spectrum(self.states[:1], alpha, rows, self.band)[0])

    def q_pass(self, spectrum: NDArray) -> NDArray[np.complex128]:
        """Rows of a field from their q-spectrum on the band: one length-n inverse q pass each."""
        n = self.grid.q_axis.n_points
        values = np.zeros((len(spectrum), n), dtype=complex)
        values[:, self.band % n] = spectrum
        return np.fft.ifft(values, axis=1, out=values)

    def fields(self, alpha: float) -> tuple:
        """``(mask, box, f, f_q, f_p, *others)``: the centre field's whole-grid mask and box,
        and on the box the field, its spectral gradients and the other states' fields (of
        ``[center, minus, plus]``, those at t -+ dt).

        Sheared by alpha, the q-spectra of the fields and of the centre's p derivative are
        formed by :func:`~epsqp.transforms.sheared_q_spectrum` on the rows the centre occupies,
        for its mask, and brought to q on the box rows.  At alpha = 0 the field is psi(q)
        conj(phi(p)): chi's kernel exp(-i p q / hbar) would carry its p-spectrum past the coarse
        momentum Nyquist on the outer mask rows, and, static and unimodular, it leaves S_t and
        the mask alone, so the engine adds its gradients.
        """
        grid, psis = self.grid, [s.values for s in self.states]
        if alpha == 0.0:
            phis = [np.conj(phi.values) for phi in self.momenta]
            mask, box = strip_mask_box(phis[0][self.rows, None] * psis[0][None, :], self.rows)
            rows, cols = box
            f, *others = (phi[rows, None] * psi[None, cols] for phi, psi in zip(phis, psis))
            f_q = phis[0][rows, None] * spectral_derivative(psis[0], grid.q_axis)[None, cols]
            f_p = spectral_derivative(phis[0], grid.p_axis)[rows, None] * psis[0][None, cols]
            return mask, box, f, f_q, f_p, *others

        n, out_rows = grid.q_axis.n_points, self.out_rows(alpha)
        spectrum, *others, f_p = sheared_q_spectrum(self.states, alpha, out_rows, self.band, dp=True)
        mask, box = strip_mask_box(self.q_pass(spectrum), out_rows)
        rows, cols = box
        spectrum, f_p, *others = (s[within(rows, out_rows, n)] for s in (spectrum, f_p, *others))
        f_q = spectrum * (1j * grid.q_axis.wavenumbers[self.band % n])
        return (mask, box, *(self.q_pass(s)[:, cols] for s in (spectrum, f_q, f_p, *others)))


def _hj_residual_2d(center: WaveFunction, alpha: float, name: str, fields: tuple) -> Callable:
    """Shared engine for the phase-space modified Hamilton-Jacobi residual.

    ``fields`` are the first five of :meth:`_Strip.fields`: the centre field's mask and box,
    and on the box the field and its gradients, on the phase-space grid of the
    position-space ``center``'s q axis.  Returns ``at(minus, plus, dt)``, the report with
    S_t from the phase of the ratio of the box fields at t -+ dt, immune to the catastrophic
    cancellation a literal difference of the sheared fields would suffer near the mask edge.

    Residual pieces:

        classical_form = S_t + H'(dS/dq, dS/dp, p, q)
        quantum        = (1/2 + alpha) * T
        full           = classical_form + quantum

    where T collects the curvature terms at unit coefficient.  The
    projection of -classical_form onto T (metadata ``fitted_coefficient``)
    measures the coefficient the data actually demands, which the exact
    identity fixes at 1/2 + alpha (``expected_coefficient``).  The report's
    fields are box crops, NaN off the mask.
    """
    mask, box, f, f_q, f_p = fields
    params = center.params
    m, hbar = params.mass, params.hbar
    grid = Grid2D(center.grid, hbar)
    amp = np.abs(f)
    inside = mask[box]
    p = grid.p_axis.points[box[0], None]
    q = grid.q_axis.points[None, box[1]]
    dens = np.where(inside, amp**2, 1.0)
    f = np.conj(f)  # S_x from conj(f) * f_x, in that operand order
    S_q = hbar * np.imag(np.multiply(f, f_q)) / dens
    S_p = hbar * np.imag(np.multiply(f, f_p)) / dens
    if alpha == 0.0:  # the exact gradients of the kernel the product lacks
        S_q -= p
        S_p -= q
    ham = ExtendedHamiltonian.from_params(params, alpha)
    hamiltonian = ham.evaluate_classical(S_q, S_p, p, q)
    log_amp = log_amplitude(amp)  # one log for both curvature ratios
    rqq = log_curvature(log_amp, grid.q_axis.spacing, axis=1)  # R_qq / R
    rpp = log_curvature(log_amp, grid.p_axis.spacing, axis=0)  # R_pp / R

    # curvature terms at unit coefficient: quantum = (1/2 + alpha) * T
    T = -(hbar**2) * (rqq / m - params.potential.k * rpp)
    x = 0.5 + alpha
    quantum = x * T
    term_l2 = masked_l2(T, inside, grid.cell)
    q_term = np.where(inside, -(hbar**2) * ham.A * rqq, np.nan)

    def at(minus: NDArray, plus: NDArray, dt: float) -> ResidualReport:
        ratio = np.conj(minus)
        ratio *= plus
        S_t = hbar * np.angle(ratio) / (2.0 * dt)
        classical = S_t + hamiltonian
        fitted = -np.real(fit_global_constant(classical, T, inside))
        metadata = {
            "alpha": alpha,
            "expected_coefficient": x,
            "fitted_coefficient": fitted,
            **snapshot_metadata(center, dt),
            "term_basis_l2": term_l2,
            "remainder_l2": masked_l2(classical + fitted * T, inside, grid.cell),
        }
        return residual_report(
            name, classical + quantum, mask, grid.cell, metadata,
            classical=classical, quantum=quantum, fields={"q_term": q_term}, box=box,
        )

    return at


def hj_residual_eps(center: WaveFunction) -> Callable:
    """Residual of the phase-space modified Hamilton-Jacobi identity for chi at the
    position-space ``center``, as ``at(minus, plus)`` of the states at t -+ dt: the alpha = 0
    member of the sheared family, formed on the centre's own momentum strip.  Both curvature
    terms enter at coefficient 1/2 (the p-term carries k: zero for a linear potential).
    """
    fields = _Strip([center]).fields(0.0)
    evaluate = _hj_residual_2d(center, 0.0, f"eps-hj-{center.params.potential.kind}", fields)
    rows, cols = fields[1]

    def at(minus: WaveFunction, plus: WaveFunction) -> ResidualReport:
        minus, _, plus, dt = snapshot_triple([minus, center, plus])
        pair = (np.conj(to_momentum_space(s).values)[rows, None] * s.values[None, cols] for s in (minus, plus))
        return evaluate(*pair, dt)

    return at


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
    minus, center, plus, dt = snapshot_triple(snapshots)
    fields = _Strip([center, minus, plus]).fields(alpha)
    return _hj_residual_2d(center, alpha, _transformed_name(alpha), fields[:5])(*fields[5:], dt)


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
    metadata only, without their box crops and whole-grid mask, so a sweep
    holds the same memory however many alphas it has (call
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
    The momentum strip of the states is found once, and every alpha shears
    their 1D factors onto it (alpha = 0 forms the product of psi and phi
    instead): no n x n array is formed.
    """
    alphas = validate_alphas(alphas)
    minus, center, plus, dt = snapshot_triple(snapshots)
    strip = _Strip([center, minus, plus])

    def report(alpha: float) -> ResidualReport:  # one alpha's fields at a time
        fields = strip.fields(alpha)
        at = _hj_residual_2d(center, alpha, _transformed_name(alpha), fields[:5])
        return replace(at(*fields[5:], dt), fields={})

    reports = tuple(map(report, alphas))
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
