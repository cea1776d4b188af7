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
from .reports import l2
from .states import WaveFunction, to_momentum_space

#: Valid provenance tags for phase-space fields.
FIELD_KINDS = ("chi", "wigner", "transformed")


@dataclass(frozen=True)
class PhaseSpaceField:
    """Field on a ``(p, q)`` grid, tagged with time and provenance.

    ``kind`` is one of ``"chi"`` (product distribution with its ``exp(-ipq/
    hbar)`` phase), ``"wigner"`` (direct Wigner construction), or
    ``"transformed"`` (a shear applied), in which case ``alpha`` records the
    accumulated shear parameter.  Wigner values are stored as float64 (a
    non-zero imaginary part raises), all others as complex128.
    """

    values: NDArray
    grid: Grid2D
    t: float
    params: PhysicalParams
    kind: str = "chi"
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"kind must be one of {FIELD_KINDS}, got {self.kind!r}")
        if self.kind == "transformed" and self.alpha is None:
            raise ValueError("transformed fields must record their alpha")
        if self.kind != "transformed" and self.alpha is not None:
            raise ValueError(f"{self.kind!r} fields do not carry an alpha")
        values = np.asarray(self.values)
        if self.kind == "wigner" and np.iscomplexobj(values):
            if np.any(values.imag):
                raise ValueError("a Wigner field is real: its values have a non-zero imaginary part")
            values = values.real.copy()  # not a view that keeps the complex array alive
        values = values.astype(float if self.kind == "wigner" else complex, copy=False)
        if values.shape != self.grid.shape:
            raise GridError(
                f"values shape {values.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "values", values)

    def norm(self) -> float:
        """Discrete L2 norm with the phase-space cell measure."""
        return l2(self.values, self.grid.cell)


def chi_build(psi: WaveFunction, grid: Grid2D) -> PhaseSpaceField:
    """Assemble ``chi(p, q) = psi(q) conj(phi(p)) exp(-i p q / hbar)``, with ``phi``
    the momentum-space form of the position-space state ``psi``.

    ``psi`` must live on ``grid.q_axis`` and the two axes must be Fourier-paired.
    Written in two passes from the kernel's :func:`~epsqp.numerics.pq_factors`, not
    as the inverse q pass of :func:`chi_spectrum`: an FFT's absolute rounding floor
    would swamp chi at the mask edge, where |chi| is 1e-6 of its peak, while this
    product is accurate relative to each sample.
    """
    phi = to_momentum_space(psi)  # rejects a momentum-space state
    if psi.grid != grid.q_axis:
        raise GridError("position state does not live on the q axis of the grid")
    hankel, row, col = pq_factors(grid, psi.params.hbar)  # checks the pairing
    values = hankel * (row * np.conj(phi.values))[:, None]
    values *= (col * psi.values)[None, :]
    return PhaseSpaceField(values, grid, psi.t, psi.params, kind="chi")


def chi_spectrum(psi: WaveFunction) -> NDArray[np.complex128]:
    """``fft2`` of :func:`chi_build`'s chi of the position-space state ``psi`` on its
    paired grid, without chi.

    There chi's q-spectrum is its (p, v) form (Cohen, J. Math. Phys. 7, 781 (1966)),
    ``conj(phi_i) exp(-2 pi i k_i x / n) fft(psi)[(k_i + b) mod n]`` with ``k_i = i -
    n/2`` and ``x = q_min / dq``, the row phase reduced modulo n as in :func:`pq_factors`:
    one product with the Hankel view ``[i, b] -> e[i + b]`` of 2n - 1 entries, then one p pass.
    """
    phi = to_momentum_space(psi)  # rejects a momentum-space state
    n, x = psi.grid.n_points, psi.grid.min / psi.grid.spacing
    k = np.arange(n) - n // 2
    row = np.exp((-2j * np.pi / n) * np.mod(k * x, n)) * np.conj(phi.values)
    extended = np.fft.fft(psi.values)[(np.arange(2 * n - 1) - n // 2) % n]
    spectrum = sliding_window_view(extended, n) * row[:, None]
    return np.fft.fft(spectrum, axis=0, out=spectrum)


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
    alpha: float

    @classmethod
    def from_params(cls, params: PhysicalParams, alpha: float = 0.0) -> "ExtendedHamiltonian":
        m, k, b = params.mass, params.potential.k, params.potential.b
        return cls(
            A=(1.0 + 2.0 * alpha) / (2.0 * m),
            B=1.0 / m,
            C=-(1.0 + 2.0 * alpha) * k / 2.0,
            D=-k,
            E=-b,
            alpha=alpha,
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

        Along each axis, with wavenumber k, both orders are the one spectral
        multiplier ``hbar k (hbar A k + B p)`` (q) or ``hbar k (hbar C k + D q + E)``
        (p), applied to the axis spectrum in row blocks: one forward and one inverse
        FFT per axis, and no n x n multiplier.
        """
        hbar = field.params.hbar
        grid = field.grid
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


def eps_rhs_apply(field: PhaseSpaceField) -> PhaseSpaceField:
    """Right-hand side ``H' chi`` of the dynamical equation ``i hbar d(chi)/dt = H' chi``.

    For untransformed fields the alpha = 0 operator is used; for
    transformed fields the operator matching the field's recorded alpha.
    The result is returned on the same grid with the same tags (it is an
    operator image, not a new distribution).  A Wigner field raises
    ``ValueError``: its image is complex, and Wigner values are real.
    """
    if field.kind == "wigner":
        raise ValueError("eps_rhs_apply takes chi or transformed fields: H' W is complex")
    alpha = field.alpha if field.kind == "transformed" else 0.0
    ham = ExtendedHamiltonian.from_params(field.params, alpha)
    return PhaseSpaceField(
        ham.apply(field), field.grid, field.t, field.params, field.kind, field.alpha
    )


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
