"""Phase-space distribution fields and their evolution operators.

The central object is the product distribution

    chi(p, q, t) = psi(q, t) * conj(phi(p, t)) * exp(-i p q / hbar)

built from a position-space wavefunction and its momentum-space transform.
``chi`` evolves under a phase-space Hamiltonian operator that is first order
in time, and applying a shear transform to it produces a one-parameter
family of distributions (the Wigner function among them).

:class:`ExtendedHamiltonian` captures every evolution operator in that
family for the quadratic potential V = k q^2 / 2 + b q (harmonic, or linear
at k = 0) through five coefficients:

    H' = A pi_q^2 + B p pi_q + C pi_p^2 + (D q + E) pi_p

where ``pi_q -> -i hbar d/dq`` and ``pi_p -> -i hbar d/dp`` act on the
distribution.  The untransformed evolution is the ``alpha = 0`` member; at
``alpha = -1/2`` the second-derivative coefficients A and C vanish and the
equation takes the classical transport form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .numerics import (
    Grid2D,
    GridError,
    PhysicalParams,
    pq_factors,
    row_blocks,
)
from .states import WaveFunction, to_momentum_space


@dataclass(frozen=True)
class PhaseSpaceField:
    """A field's values on its ``(p, q)`` grid, whose hbar is the field's: chi from
    :func:`chi_build` is complex128, W from :func:`~epsqp.transforms.wigner_direct` float64.
    """

    values: NDArray
    grid: Grid2D

    def __post_init__(self):
        if np.shape(self.values) != self.grid.shape:
            raise GridError(f"values shape {np.shape(self.values)} does not match grid {self.grid.shape}")


def chi_build(psi: WaveFunction, grid: Grid2D) -> PhaseSpaceField:
    """Assemble ``chi(p, q) = psi(q) conj(phi(p)) exp(-i p q / hbar)``, with ``phi``
    the momentum-space form of the position-space state ``psi``.

    ``grid`` must be ``Grid2D(psi.grid, psi.params.hbar)``.
    Written in two passes from the kernel's :func:`~epsqp.numerics.pq_factors`, not
    as the inverse q pass of :func:`chi_spectrum`: an FFT's absolute rounding floor
    would swamp chi at the mask edge, where |chi| is 1e-6 of its peak, while this
    product is accurate relative to each sample.
    """
    phi = to_momentum_space(psi)  # rejects a momentum-space state
    if grid != Grid2D(psi.grid, psi.params.hbar):
        raise GridError("grid is not the state's phase-space grid")
    hankel, row, col = pq_factors(grid)
    values = hankel * (row * np.conj(phi.values))[:, None]
    values *= (col * psi.values)[None, :]
    return PhaseSpaceField(values, grid)


def chi_spectrum(psi: WaveFunction) -> NDArray[np.complex128]:
    """``fft2`` of :func:`chi_build`'s chi of the position-space state ``psi`` on its
    phase-space grid, without chi: one p pass of its whole :func:`chi_q_spectrum`."""
    spectrum = chi_q_spectrum(psi, slice(None), np.arange(psi.grid.n_points))
    return np.fft.fft(spectrum, axis=0, out=spectrum)


def chi_q_spectrum(psi: WaveFunction, rows: slice, band: NDArray[np.int_]) -> NDArray[np.complex128]:
    """The q-spectrum of :func:`chi_build`'s chi of ``psi`` on the p ``rows`` and the
    consecutive q wavenumbers ``band`` (modulo n): chi's (p, v) form (Cohen, J. Math. Phys.
    7, 781 (1966)), ``conj(phi_i) exp(-2 pi i k_i x / n) fft(psi)[(k_i + b) mod n]`` with
    ``k_i = i - n/2`` and ``x = q_min / dq``, the row phase reduced modulo n as in
    :func:`pq_factors`: one product with a Hankel view ``[i, b] -> e[i + b]`` of fft(psi).
    """
    phi = to_momentum_space(psi)  # rejects a momentum-space state
    n, x = psi.grid.n_points, psi.grid.min / psi.grid.spacing
    k = np.arange(n)[rows] - n // 2
    row = np.exp((-2j * np.pi / n) * np.mod(k * x, n)) * np.conj(phi.values[rows])
    extended = np.fft.fft(psi.values)[(k[0] + band[0] + np.arange(len(k) + len(band) - 1)) % n]
    return sliding_window_view(extended, len(band)) * row[:, None]


# ---------------------------------------------------------------------------
# extended Hamiltonian family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtendedHamiltonian:
    """One member of ``H' = A pi_q^2 + B p pi_q + C pi_p^2 + (D q + E) pi_p``.

    ``from_params(params, alpha)`` builds the operator governing the
    alpha-sheared distribution; ``alpha = 0`` is the untransformed
    phase-space Hamiltonian.  A and C carry the factor ``(1 + 2 alpha)``,
    so both vanish at ``alpha = -1/2`` and the evolution reduces to
    ``(p/m) pi_q - V'(q) pi_p`` — the classical transport operator.
    """

    A: float
    B: float
    C: float
    D: float
    E: float

    @classmethod
    def from_params(cls, params: PhysicalParams, alpha: float = 0.0) -> "ExtendedHamiltonian":
        m, k, b = params.mass, params.potential.k, params.potential.b
        return cls(
            A=(1.0 + 2.0 * alpha) / (2.0 * m),
            B=1.0 / m,
            C=-(1.0 + 2.0 * alpha) * k / 2.0,
            D=-k,
            E=-b,
        )

    def evaluate_classical(self, S_q, S_p, p, q):
        """The Hamilton-Jacobi (gradient) part of the evolution identity.

        With ``S`` the phase action of the distribution, this is H' with
        ``pi_q -> dS/dq`` and ``pi_p -> dS/dp``:

            A S_q^2 + B p S_q + C S_p^2 + (D q + E) S_p

        the combination a purely classical action balances against
        ``-dS/dt``.  The coordinates ``p`` and ``q`` broadcast against the
        gradients.
        """
        return (
            self.A * S_q**2
            + self.B * p * S_q
            + self.C * S_p**2
            + (self.D * q + self.E) * S_p
        )

    def apply(self, field: PhaseSpaceField) -> NDArray[np.complex128]:
        """Apply the operator to the field's raw values:

            H' f = -hbar^2 A f_qq - i hbar B p f_q
                   - hbar^2 C f_pp - i hbar (D q + E) f_p

        At alpha = 0 and on chi this is the right-hand side of the dynamical
        equation ``i hbar d(chi)/dt = H' chi``.

        Along each axis, with wavenumber k, both orders are the one spectral
        multiplier ``hbar k (hbar A k + B p)`` (q) or ``hbar k (hbar C k + D q + E)``
        (p), applied to the axis spectrum in row blocks: one forward and one inverse
        FFT per axis, and no n x n multiplier.
        """
        grid = field.grid
        hbar = grid.hbar
        p = grid.p_axis.points[:, None]
        q = grid.q_axis.points[None, :]
        out = None
        for axis, k, second, first in (
            (1, grid.q_axis.wavenumbers[None, :], self.A, self.B * p),
            (0, grid.p_axis.wavenumbers[:, None], self.C, self.D * q + self.E),
        ):
            k, first = np.broadcast_to(k, grid.shape), np.broadcast_to(first, grid.shape)
            spectrum = np.fft.fft(field.values, axis=axis)
            for rows in row_blocks(grid.shape):
                spectrum[rows] *= hbar * k[rows] * (hbar * second * k[rows] + first[rows])
            np.fft.ifft(spectrum, axis=axis, out=spectrum)
            out = spectrum if out is None else np.add(out, spectrum, out=out)
        return out


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


def expectation(observable: NDArray, chi: PhaseSpaceField) -> float:
    """Phase-space average ``int O conj(chi) dp dq / int conj(chi) dp dq``.

    ``observable`` is any array that broadcasts to the field's ``[i_p, i_q]``
    grid: a full ``(n_p, n_q)`` array, a p-only ``p_axis.points[:, None]``
    column or a q-only ``q_axis.points[None, :]`` row; any other shape
    raises :class:`GridError`.  A p-only or q-only observable is averaged
    over the marginal of chi, chi summed over the other axis, without an
    n x n temporary.  The normalisation by the bare integral of ``conj(chi)``
    makes the average independent of the Fourier convention's overall
    constants.  The ratio is real for physical observables; a relative
    imaginary part above 1e-8 raises, as does a vanishing normalisation
    integral.
    """
    observable = np.asarray(observable)
    try:
        np.broadcast_to(observable, chi.grid.shape)
    except ValueError:
        raise GridError("observable does not broadcast to the field grid") from None
    shape = (1,) * (2 - observable.ndim) + observable.shape
    constant = tuple(axis for axis in (0, 1) if shape[axis] == 1)  # axes the observable ignores
    values = chi.values.sum(axis=constant, keepdims=True) if constant else chi.values
    weight = np.conj(values) * chi.grid.cell
    den = np.sum(weight)
    if abs(den) < 1e-12:
        raise ValueError("normalisation integral of the distribution vanishes")
    num = np.sum(observable * weight)
    ratio = num / den
    if abs(ratio.imag) > 1e-8 * max(1.0, abs(ratio.real)):
        raise ValueError(f"expectation value has imaginary part {ratio.imag:.3e}")
    return float(ratio.real)
