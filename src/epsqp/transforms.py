"""Shear transforms of phase-space distributions and the Wigner connection.

The transform family acts on a phase-space field as

    U_alpha = exp(-i alpha hbar d^2/(dp dq))

implemented as a Fourier multiplier: with ``u, v`` the wavenumbers conjugate
to ``p, q``, the operator multiplies the 2D spectrum by ``exp(+i alpha hbar
u v)``.  It shears the operator algebra (``p -> p + alpha pi_q``, ``q -> q +
alpha pi_p``) and maps the product distribution chi onto a one-parameter
family of distributions.  At ``alpha = -1/2`` the result is the Wigner
function up to a global constant, which this module verifies against a
direct correlation-integral construction (the constant is fitted and
reported, never silently absorbed).

:func:`apply_extended_transform` shears a whole-grid field; :class:`_Strip`
shears chi on its momentum strip from its 1-D factors, built once for every alpha.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .eps_core import PhaseSpaceField, strip_rows
from .numerics import (
    Grid2D,
    GridError,
    snapshot_triple,
    spectral_derivative_2d,
    spectral_resample,
    strip_mask_box,
    within,
)
from .reports import ResidualReport, residual_report, snapshot_metadata
from .states import WaveFunction, to_momentum_space

#: Element count of one column block of W or of the strip's shifted factors: bounds the temporaries.
_BLOCK = 2**15


def _decimal_shifts(alpha: float, band: NDArray[np.int_]) -> tuple:
    """``(whole, shift)``: ``alpha b = whole + shift``, ``shift`` in [-1/2, 1/2), at each column b
    of ``band``, alpha read as the decimal ``P / Q`` that ``repr`` writes.  Both are formed from
    Python integers, so columns of equal ``P b mod Q`` get bitwise-equal shifts, and a tie
    +-1/2 is always -1/2."""
    mantissa, _, exponent = repr(float(alpha)).partition("e")
    units, _, decimals = mantissa.partition(".")
    scale = int(exponent or 0) - len(decimals)
    P, Q = int(units + decimals) * 10 ** max(scale, 0), 10 ** max(-scale, 0)
    b = band.astype(object)  # P b can pass 64 bits
    whole = (2 * P * b + Q) // (2 * Q)
    return whole.astype(int), ((P * b - Q * whole) / Q).astype(float)


class _Strip:
    """The momentum strip ``rows`` (:func:`~epsqp.eps_core.strip_rows`) of position-space states,
    the first of them the centre, and what every alpha's shear of their chi reads there.  Column
    b pairs rows i and i + b of phi, so on m rows the ``band`` is the signed q wavenumber columns
    |b| < m, or all n.  The factors (Cohen's (p, v) form, J. Math. Phys. 7, 781 (1966)) are the
    states rolled to their peaks and the centre's p derivative factor.

    With ``hbar v_b = b dp`` and ``k_i = i - n/2``, chi's q-spectrum is ``conj(F(k_i)) F(k_i +
    b) dq / sqrt(2 pi hbar)``, ``F(x) = sum_j psi_j exp(-2 pi i x j / n)`` the DFT of psi, and
    U_alpha reads column b at ``x = k_i + alpha b``.  Each factor is moved, not their product,
    whose p-conjugate extent (psi's autocorrelation) is twice psi's and aliases at the mask edge.

    F at ``k + s``, ``|s| <= 1/2``, is one length-n FFT of psi times ``exp(-2 pi i s j / n)``
    (coarse times fine exponentials, about 2 sqrt(n) a shift) read at the integer ``k + alpha b
    - s``.  Columns with equal s share it: alpha is read as its decimal (see
    :func:`_decimal_shifts`), so at alpha = -0.7 the columns take 10 shifts, and at ``alpha b``
    integer it is F itself.  j runs over the n positions around the state's peak sigma, so a
    state that wraps in q moves whole; sigma leaves the column phase ``exp(-2 pi i b sigma / n)``.
    The p derivative is the product rule with the factor of ``(-i q / hbar) psi``, q from sigma.
    """

    def __init__(self, states: Sequence[WaveFunction]):
        self.momenta = tuple(to_momentum_space(s) for s in states)  # rejects a momentum-space state
        self.grid = Grid2D(states[0].grid, states[0].params.hbar)
        n, dq, hbar = states[0].grid.n_points, states[0].grid.spacing, self.grid.hbar
        self.rows = strip_rows(self.momenta)
        self.size = len(range(n)[self.rows])
        self.band = np.arange(1 - self.size, self.size) if 2 * self.size <= n else np.arange(n) - n // 2
        sigmas = [int(np.argmax(np.abs(s.values))) for s in states]
        factors = [np.roll(s.values, -sigma) for s, sigma in zip(states, sigmas)]
        factors.append(factors[0] * ((-1j * dq / hbar) * np.fft.fftfreq(n, 1.0 / n)))  # j from sigma
        sigmas.append(sigmas[0])
        self.factors = np.array(factors)[:, None, :]
        phases = np.exp((-2j * np.pi / n) * ((np.array(sigmas)[:, None] * self.band) % n))
        self.phases = (dq / np.sqrt(2.0 * np.pi * hbar)) * phases[:, :, None]
        step = 1 << (n.bit_length() // 2)  # j = coarse + fine
        self.coarse, self.fine = np.fft.fftfreq(n // step, 1.0 / n)[:, None], np.arange(step)

    def out_rows(self, alpha: float) -> slice:
        """The rows chi sheared by alpha occupies: p is a convex combination of phi's
        arguments p + alpha hbar v and p + (1 + alpha) hbar v, on the strip for alpha in [-1, 0]."""
        grow = math.ceil(max(alpha, -1.0 - alpha, 0.0) * self.size)
        return strip_rows(self.momenta, 1 + grow) if grow else self.rows

    def spectra(self, alpha: float, rows: slice) -> NDArray[np.complex128]:
        """The q-spectra of ``U_alpha`` chi of the states, then the centre's p derivative's, on
        the consecutive p ``rows`` and the band, column-major: ``[field, column, row]``.  The
        FFTs go a block of shifts of about half :data:`_BLOCK` elements at a time, and a block
        is read by one gather, of the runs of rows its columns read, and one product."""
        factors, (count, _, n) = self.factors, self.factors.shape
        whole, shift = _decimal_shifts(alpha, self.band)
        shifts, which = np.unique(shift, return_inverse=True)  # equal shifts share an FFT
        order = np.argsort(which, kind="stable")  # the columns of a block of shifts together
        rows = range(n)[rows]
        lo = (rows.start - n // 2 + whole) % n  # F's reads at k_i + alpha b, from row i = rows.start
        starts = np.array([lo, (lo + self.band) % n])[:, order]  # and at k_i + (1 + alpha) b
        width = max(1, _BLOCK // (2 * count * n))  # shifts an FFT block
        ends = np.searchsorted(which[order], range(0, len(shifts) + width, width))
        spectra = np.empty((count, len(self.band), len(rows)), dtype=complex)
        padded = np.empty((count, min(width, len(shifts)), n + len(rows) - 1), dtype=complex)  # F, wrapped
        runs = sliding_window_view(padded, len(rows), axis=2)
        for first, (start, stop) in zip(range(0, len(shifts), width), zip(ends, ends[1:])):
            phase = (-2j * np.pi / n) * shifts[first : first + width, None, None]
            f = padded[:, : len(phase), :n]
            np.multiply(factors, (np.exp(phase * self.coarse) * np.exp(phase * self.fine)).reshape(-1, n), out=f)
            np.fft.fft(f, axis=2, out=f)
            padded[:, : len(phase), n:] = f[:, :, : len(rows) - 1]
            cols = order[start:stop]
            at_lo, at_hi = runs[:, which[cols] - first, starts[:, start:stop]].swapaxes(0, 1)
            np.conj(at_lo, out=at_lo)
            dp = at_lo[-1] * at_hi[0] + at_lo[0] * at_hi[-1]
            at_lo[:-1] *= at_hi[:-1]
            at_lo[-1] = dp
            spectra[:, cols] = at_lo
        spectra *= self.phases
        return spectra

    def sheared(self, alpha: float) -> tuple:
        """``(rows, values)``: the first state's chi sheared by alpha on the rows it occupies."""
        rows = self.out_rows(alpha)
        return rows, self.q_pass(self.spectra(alpha, rows)[0])[0]

    def q_pass(self, *spectra: NDArray) -> NDArray[np.complex128]:
        """``[field, row, q]``: fields on rows from their column-major q-spectra on the band, by
        one stacked length-n inverse q pass."""
        n, cut = self.grid.q_axis.n_points, -self.band[0]  # the columns b < 0 go to the top
        values = np.zeros((len(spectra), n, spectra[0].shape[1]), dtype=complex)
        for value, spectrum in zip(values, spectra):
            value[: len(self.band) - cut] = spectrum[cut:]
            value[n - cut :] = spectrum[:cut]
        return np.fft.ifft(values, axis=1, out=values).swapaxes(1, 2)

    def fields(self, alpha: float) -> tuple:
        """``(mask, box, f, f_q, f_p, *others)``: the centre field's whole-grid mask and box,
        and on the box the field, its spectral gradients and the other states' fields (of
        ``[center, minus, plus]``, those at t -+ dt), of chi sheared by alpha, 0 included.

        The q-spectra of the fields and of the centre's p derivative are formed on the rows the
        centre occupies.  The centre's inverse q pass there gives its mask and its field on the
        box; the other fields take one stacked inverse q pass on the box rows.
        """
        q_axis, out_rows = self.grid.q_axis, self.out_rows(alpha)
        spectrum, *others, f_p = self.spectra(alpha, out_rows)
        (centre,) = self.q_pass(spectrum)
        mask, box = strip_mask_box(centre, out_rows)
        rows, cols = within(box[0], out_rows, q_axis.n_points), box[1]
        f_q = spectrum[:, rows] * (1j * q_axis.wavenumbers[self.band % q_axis.n_points, None])
        passes = self.q_pass(f_q, *(s[:, rows] for s in (f_p, *others)))
        return (mask, box, centre[rows, cols], *passes[:, :, cols])


def apply_extended_transform(field: PhaseSpaceField, alpha: float) -> NDArray[np.complex128]:
    """``U_alpha`` applied to a whole-grid phase-space field (a :class:`GridError` on fewer
    rows), as a new complex array: the reference of the strip shear.  Successive transforms
    compose additively in alpha.  Two one-axis FFT passes (q, then p) into one buffer, each
    p-spectrum row ``a`` times ``exp(i alpha hbar u_a v_b) = exp(2 pi i alpha a b / n)``
    (``a, b`` the integer wavenumber indices: no n x n multiplier), two inverse passes.
    """
    if np.shape(field.values) != field.grid.shape:
        raise GridError("the whole-grid shear needs a field on every p row")
    n = field.grid.q_axis.n_points
    index = np.fft.fftfreq(n, 1.0 / n)
    spectrum = np.fft.fft(field.values, axis=1)
    np.fft.fft(spectrum, axis=0, out=spectrum)
    for a, row in zip(index, spectrum):
        row *= np.exp((2j * np.pi * alpha / n) * (a * index))
    np.fft.ifft(spectrum, axis=1, out=spectrum)
    return np.fft.ifft(spectrum, axis=0, out=spectrum)


# ---------------------------------------------------------------------------
# direct Wigner construction (independent of the shear route)
# ---------------------------------------------------------------------------


def wigner_direct(psi: WaveFunction, grid: Grid2D) -> PhaseSpaceField:
    """Wigner function by direct correlation quadrature, no prefactor:

        W(p, q) = integral psi(q + y / 2) conj(psi)(q - y / 2) exp(-i p y / hbar) dy

    In this measure the harmonic ground state peaks at ``W(0, 0) = 2``, the
    marginals are ``2 pi hbar`` times the position and momentum densities and
    the -1/2 shear of chi is ``W / sqrt(2 pi hbar)``, at any hbar.

    The state is first resampled onto a twice-finer grid by spectral
    zero-padding (exact evaluation of the grid's trigonometric
    interpolant), so the half-spacing shifts ``q +- y / 2`` land on grid
    points with lag spacing ``dq``.  That spacing puts the first quadrature
    alias a full paired-momentum extent away, outside the support of any
    resolved state.

    ``grid`` must be the state's phase-space grid.  On its p axis ``y_l p_j / hbar =
    2 pi l (j - n/2) / n``, so the lag sum folds modulo ``n`` with the sign
    ``(-1)^l`` into one length-n transform per q column.  The correlation is
    Hermitian in the lag, ``C_-l = conj(C_l)``, so folded bin ``m`` is ``C_m +
    conj(C_(n-m))`` and bins ``n/2 + 1 .. n-1`` conjugate bins ``n/2 - 1 .. 1``:
    lags ``0 .. n`` fill ``n/2 + 1`` bins, and the inverse real transform of
    their conjugate returns the real W by construction, as a float64 field.
    Lag ``+n`` replaces the unpaired ``-n`` of a sum over ``-n .. n-1``; both
    read the zero padding of a state that decays at the edge.
    """
    return PhaseSpaceField(_wigner_box(psi, grid, (slice(None), slice(None))), grid)


def _wigner_window(psi: WaveFunction, rows: slice) -> slice:
    """The p rows :func:`_wigner_box` builds W of ``psi`` on to read ``rows``: the fewest,
    a power of two M, that cover ``psi``'s momentum strip and ``rows``, centred on them and
    clamped inside the axis (the whole axis for a whole-axis strip or request).  W's p
    support is the strip's, so the aliases of rows M apart that the window folds onto its
    rows are W's tails past :data:`~epsqp.eps_core.STRIP_TAIL`; a window chosen from
    ``rows`` alone would fold in strip rows outside them."""
    n = psi.grid.n_points
    if len(range(n)[rows]) == n:
        return slice(0, n)
    spans = [range(n)[s] for s in (strip_rows([psi]), rows)]
    lo, hi = min(s.start for s in spans), max(s.stop for s in spans)
    size = min(n, 1 << max(hi - lo - 1, 1).bit_length())
    start = min(max(lo - (size - (hi - lo)) // 2, 0), n - size)
    return slice(start, start + size)


def _wigner_centre(psi: WaveFunction, grid: Grid2D) -> tuple:
    """``(mask, box, w, w_q, w_p)``: the mask of ``psi``'s W (formed on its momentum strip, W's p
    support) and its box, and on the box W, its q FFT derivative and the lag-weighted dW/dp."""
    rows = strip_rows([psi])
    w = _wigner_box(psi, grid, (rows, slice(None)))
    mask, box = strip_mask_box(w, rows)
    w = w[within(box[0], rows, grid.q_axis.n_points)]
    w_q = np.real(spectral_derivative_2d(w, grid, axis=1)[:, box[1]])
    return mask, box, w[:, box[1]], w_q, _wigner_box(psi, grid, box, dp=True)


def _wigner_box(psi: WaveFunction, grid: Grid2D, box: tuple, dp: bool = False) -> NDArray[np.float64]:
    """:func:`wigner_direct`'s W of ``psi`` on ``box``, as a new float64 array in the (p, q)
    transpose of a C-ordered (q, p) one; with ``dp``, dW/dp's: each lag y weighted by
    -i y / hbar before the fold, exact where a spectral p derivative of W is not (a folded bin
    holds two lags).  The q columns go a block of at most :data:`_BLOCK` elements at a time.

    On the whole p axis it is the whole lag sum.  On fewer rows it is built on their
    :func:`_wigner_window` of M = n / k rows, from every k-th lag, folded modulo M into one
    length-M transform per column: that returns W summed over the rows M apart (Markel, IEEE
    Trans. Audio Electroacoust. 19, 305 (1971)), so grid row j is output ``j mod M``.  At even
    k the row phase ``(-1)^(k l)`` of the lag-l sum is 1."""
    if psi.space != "q":
        raise ValueError("wigner_direct expects a position-space state")
    if grid != Grid2D(psi.grid, psi.params.hbar):
        raise GridError("grid is not the state's phase-space grid")
    n = grid.q_axis.n_points
    window = _wigner_window(psi, box[0])
    size = window.stop - window.start
    k = n // size  # lag stride; the window is n / k rows
    h = size // 2
    dy = k * grid.q_axis.spacing  # the decimated lag spacing, exact: k is a power of two
    lag = (-1j * dy / grid.hbar) * np.arange(h + 1)  # -i y / hbar at decimated lag m
    rows = np.arange(n)[box[0]] % size  # the output row of each grid row

    # Row i of ``windows`` holds psi at q_i + (j - n) dq / 2, j = 0 .. 2n.
    # Shifts that leave the domain read the zero padding.  Wrapping them
    # around instead would correlate the state with its periodic image and
    # plant a mirror copy of the distribution half an extent away in q.
    padded = np.pad(spectral_resample(psi.values), n)  # spacing dq/2
    windows = sliding_window_view(padded, 2 * n + 1)[::2]
    start, stop, _ = box[1].indices(n)
    out = np.empty((stop - start, len(rows))).T
    step = max(1, _BLOCK // size)  # columns per block of M rows
    for first in range(start, stop, step):
        cols = slice(first, min(first + step, stop))
        lags = windows[cols, ::k]  # column j = 0 .. 2M holds psi at q_i + (j - M) dy / 2
        # Lag l pairs lags[:, M + l] with conj(lags[:, M - l]).  The conjugate comes
        # first: numpy's vectorised complex product is not bitwise commutative.
        folded = np.conj(lags[:, size : h - 1 : -1]) * lags[:, size : size + h + 1]  # C_m
        wrapped = np.conj(lags[:, 2 * size : size + h - 1 : -1]) * lags[:, : h + 1]  # conj(C_(M-m))
        if dp:
            folded *= lag
            wrapped *= lag - lag[1] * size  # lag m - M
        folded += wrapped
        del wrapped  # not held across the transform
        if k == 1:
            folded[:, 1::2] *= -1.0
        # np.fft.hfft, without the conjugated copy of its input
        block = np.fft.irfft(np.conj(folded, out=folded), size, axis=1, norm="forward").T
        block *= dy
        out[:, first - start : cols.stop - start] = block[rows]
    return out


def wigner_equation_residual(center: WaveFunction) -> Callable:
    """Residual of the Wigner evolution equation at the position-space state ``center``.

    For linear and harmonic potentials the Wigner function obeys the
    classical transport equation, so the residual

        dW/dt + (p/m) dW/dq - V'(q) dW/dp

    sampled at the centre time vanishes up to O(dt^2) and spectral error.  Returns
    ``at(minus, plus)``, the report with dW/dt from the states at t -+ dt; W of each is
    their :func:`wigner_direct` on the centre's phase-space grid.  Only the box of the
    centre W's amplitude mask is evaluated, from :func:`_wigner_centre` and W at t +- dt on
    the box; the ``residual`` field is NaN off the mask.
    """
    grid = Grid2D(center.grid, center.params.hbar)
    mask, box, _, w_q, w_p = _wigner_centre(center, grid)
    p = grid.p_axis.points[box[0], None]
    v_prime = center.params.potential.derivative(grid.q_axis.points[None, box[1]])
    transport, force = (p / center.params.mass) * w_q, v_prime * w_p

    def at(minus: WaveFunction, plus: WaveFunction) -> ResidualReport:
        minus, _, plus, dt = snapshot_triple([minus, center, plus])
        w_t = (_wigner_box(plus, grid, box) - _wigner_box(minus, grid, box)) / (2.0 * dt)
        metadata = snapshot_metadata(center, dt)
        return residual_report("wigner-equation", w_t + transport - force, mask, grid.cell, metadata, box=box)

    return at
