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
equation takes the classical transport form.  H' acts on chi through chi's 1-D
factors, by the product rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .numerics import (
    Grid2D,
    GridError,
    PhysicalParams,
    grown_span,
    position_to_momentum,
    pq_factors,
)
from .states import WaveFunction, to_momentum_space

#: |phi| level, relative to its peak, down to which the momentum strip reaches: the tails
#: left out stay at rounding where a sheared field is 1e-6 of its peak, above phi's own
#: floor (3e-17 at n = 256).  Twelve rows past the node mask left 8e-13 at m, k, hbar = 2, 1.5, 0.7.
STRIP_TAIL = 1e-15


@dataclass(frozen=True)
class PhaseSpaceField:
    """A field's values on the p ``rows`` of its ``(p, q)`` grid (all of them by default),
    whose hbar is the field's: chi from :func:`chi_build` is complex128, W from
    :func:`~epsqp.transforms.wigner_direct` float64.
    """

    values: NDArray
    grid: Grid2D
    rows: slice = field(default_factory=lambda: slice(None))

    def __post_init__(self):
        shape = (len(range(self.grid.shape[0])[self.rows]), self.grid.shape[1])
        if np.shape(self.values) != shape:
            raise GridError(f"values shape {np.shape(self.values)} does not match grid rows {shape}")


def chi_build(psi: WaveFunction, grid: Grid2D) -> PhaseSpaceField:
    """Assemble ``chi(p, q) = psi(q) conj(phi(p)) exp(-i p q / hbar)``, with ``phi``
    the momentum-space form of the position-space state ``psi``: :func:`chi_rows` on every
    row.  ``grid`` must be ``Grid2D(psi.grid, psi.params.hbar)``.
    """
    chi = chi_rows(psi, slice(None))  # rejects a momentum-space state
    if grid != chi.grid:
        raise GridError("grid is not the state's phase-space grid")
    return chi


def chi_rows(psi: WaveFunction, rows: slice) -> PhaseSpaceField:
    """:func:`chi_build`'s chi of the position-space state ``psi`` on the p ``rows`` only.

    Written in two passes from the kernel's :func:`~epsqp.numerics.pq_factors`, not as
    the inverse q pass of chi's q-spectrum: an FFT's absolute rounding floor would swamp
    chi at the mask edge, where |chi| is 1e-6 of its peak, while this product is accurate
    relative to each sample.
    """
    phi = to_momentum_space(psi)  # rejects a momentum-space state
    grid = Grid2D(psi.grid, psi.params.hbar)
    hankel, row, col = pq_factors(grid)
    values = hankel[rows] * (row[rows] * np.conj(phi.values[rows]))[:, None]
    values *= (col * psi.values)[None, :]
    return PhaseSpaceField(values, grid, rows)


def strip_rows(states: Sequence[WaveFunction], grow: int = 1) -> slice:
    """The momentum strip of states in either space: the p rows where some |phi| exceeds
    :data:`STRIP_TAIL` of its peak, grown by ``grow`` rows (the whole axis past an edge)."""
    phis = [np.abs((s if s.space == "p" else to_momentum_space(s)).values) for s in states]
    return grown_span(np.logical_or.reduce([phi > STRIP_TAIL * phi.max() for phi in phis]), grow)


def phi_derivative(psi: WaveFunction, order: int) -> NDArray[np.complex128]:
    """The ``order``-th p derivative of the momentum-space form of the position-space ``psi``, exact
    on any q domain: the transform of ``(-i q / hbar)^order psi`` (phi's spectral one wraps q)."""
    hbar = psi.params.hbar
    return position_to_momentum((-1j * psi.grid.points / hbar) ** order * psi.values, psi.grid, hbar)[0]


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

    def apply(self, psi: WaveFunction, rows: slice) -> NDArray[np.complex128]:
        """``H' chi`` on the p ``rows`` of the product chi of the position-space state ``psi``
        (:func:`chi_rows`); at alpha = 0 the right-hand side of ``i hbar d(chi)/dt = H' chi``.

        The product rule on psi, conj(phi) and the kernel ``K = exp(-i p q / hbar)`` makes
        ``H' chi / K`` a sum of five outer products of 1-D arrays (``drift = D q + E``):

            conj(phi)      (x)  -hbar^2 A psi'' + (C q - drift) q psi
            p conj(phi)    (x)  i hbar (2 A - B) psi'
            p^2 conj(phi)  (x)  (A - B) psi
            conj(phi)'     (x)  i hbar (2 C q - drift) psi
            conj(phi)''    (x)  -hbar^2 C psi

        psi's two derivatives are spectral, from one FFT pair; conj(phi)'s are :func:`phi_derivative`'s,
        exact on any q domain.  One ``np.einsum``, not BLAS, sums the terms, so no value depends on
        the BLAS thread count.
        """
        hbar = psi.params.hbar
        grid = Grid2D(psi.grid, hbar)
        phis = [to_momentum_space(psi).values]  # rejects a momentum-space state
        phis += [phi_derivative(psi, k) for k in (1, 2)]
        p, q, psi = grid.p_axis.points[rows], grid.q_axis.points, psi.values
        phi, d_phi, dd_phi = np.conj(np.array(phis)[:, rows])
        ik = 1j * grid.q_axis.wavenumbers
        d_psi, dd_psi = np.fft.ifft(np.fft.fft(psi) * np.array([ik, ik * ik]))
        drift = self.D * q + self.E
        hankel, row, col = pq_factors(grid)
        out = np.einsum(
            "ki,kj->ij",
            row[rows] * np.array([phi, p * phi, p * p * phi, d_phi, dd_phi]),
            col * np.array([
                -hbar**2 * self.A * dd_psi + (self.C * q - drift) * q * psi,
                1j * hbar * (2.0 * self.A - self.B) * d_psi,
                (self.A - self.B) * psi,
                1j * hbar * (2.0 * self.C * q - drift) * psi,
                -hbar**2 * self.C * psi,
            ]),
        )
        out *= hankel[rows]
        return out


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


def expectation(chi: PhaseSpaceField, of_p: NDArray | float = 0.0, of_q: NDArray | float = 0.0) -> float:
    """Phase-space average of ``O = of_p(p) + of_q(q)``,
    ``int O conj(chi) dp dq / int conj(chi) dp dq``, over the field's rows.

    ``of_p`` holds the p part's values on the whole p axis (or one constant) and
    ``of_q`` the q part's on the q axis; any other shape raises :class:`GridError`.
    Each part is averaged over chi's marginal, chi summed over the other axis, and
    both share the normalisation integral, so no 2D temporary is formed.  That
    normalisation by the bare integral of ``conj(chi)`` makes the average
    independent of the Fourier convention's overall constants.  The ratio is real
    for physical observables; a relative imaginary part above 1e-8 raises, as does a
    vanishing normalisation integral.
    """
    n_p, n_q = chi.grid.shape
    parts = [np.asarray(of_p), np.asarray(of_q)]
    if any(part.shape not in ((), (n,)) for part, n in zip(parts, (n_p, n_q))):
        raise GridError("an observable part does not match its axis")
    weight_p, weight_q = (np.conj(chi.values.sum(axis=axis)) * chi.grid.cell for axis in (1, 0))
    den = np.sum(weight_q)
    if abs(den) < 1e-12:
        raise ValueError("normalisation integral of the distribution vanishes")
    of_p = np.broadcast_to(parts[0], (n_p,))[chi.rows]
    ratio = (np.sum(of_p * weight_p) + np.sum(parts[1] * weight_q)) / den
    if abs(ratio.imag) > 1e-8 * max(1.0, abs(ratio.real)):
        raise ValueError(f"expectation value has imaginary part {ratio.imag:.3e}")
    return float(ratio.real)
