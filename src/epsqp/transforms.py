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
"""

from __future__ import annotations

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
from .states import WaveFunction

#: Element count of one column block of W or of the shifted factors: bounds the temporaries.
_BLOCK = 2**15


def sheared_q_spectrum(
    states: Sequence[WaveFunction], alpha: float, rows: slice, band: NDArray[np.int_], dp: bool = False
) -> list:
    """The q-spectra of ``U_alpha`` chi of the position-space ``states`` on the p ``rows`` and
    the q wavenumber columns ``band``, then, with ``dp``, the first one's p derivative's, from
    1-D factors (Cohen's (p, v) form, J. Math. Phys. 7, 781 (1966)).

    With ``hbar v_b = b dp`` and ``k_i = i - n/2``, chi's q-spectrum is ``conj(F(k_i)) F(k_i +
    b) dq / sqrt(2 pi hbar)``, ``F(x) = sum_j psi_j exp(-2 pi i x j / n)`` the DFT of psi, and
    U_alpha reads column b at ``x = k_i + alpha b``.  Each factor is moved, not their product,
    whose p-conjugate extent (psi's autocorrelation) is twice psi's and aliases at the mask edge.

    F at ``k + s``, ``|s| <= 1/2``, is one length-n FFT of psi times ``exp(-2 pi i s j / n)``
    (coarse times fine exponentials, about 2 sqrt(n) a shift) read at the integer ``k +
    round(alpha b)``; columns with equal s share it, and at ``alpha b`` integer it is F itself.
    j runs over the n positions around the state's peak sigma, so a state that wraps in q
    moves whole; sigma leaves the column phase ``exp(-2 pi i b sigma / n)``.  The p derivative
    is the product rule with the factor of ``(-i q / hbar) psi``, q measured from sigma.  The
    FFTs and the reads go a block of at most half :data:`_BLOCK` elements at a time.
    """
    if any(s.space != "q" for s in states):
        raise ValueError("the sheared q-spectrum expects position-space states")
    n, dq, hbar = states[0].grid.n_points, states[0].grid.spacing, states[0].params.hbar
    sigmas = [int(np.argmax(np.abs(s.values))) for s in states]
    factors = [np.roll(s.values, -sigma) for s, sigma in zip(states, sigmas)]
    if dp:
        factors.append(factors[0] * ((-1j * dq / hbar) * np.fft.fftfreq(n, 1.0 / n)))  # j from sigma
        sigmas.append(sigmas[0])
    factors = np.array(factors)[:, None, :]
    whole = np.rint(alpha * band)
    shifts, which = np.unique(alpha * band - whole, return_inverse=True)  # equal shifts share an FFT
    lo = (np.arange(n)[rows, None] - n // 2 + whole.astype(int)) % n  # F's reads at k_i + alpha b
    hi = (lo + band) % n  # and at k_i + (1 + alpha) b
    step = 1 << (n.bit_length() // 2)  # j = coarse + fine
    coarse, fine = np.fft.fftfreq(n // step, 1.0 / n)[:, None], np.arange(step)
    width = max(1, _BLOCK // (2 * len(factors) * n))  # shifts an FFT block, columns a gather
    out = np.empty((len(factors), len(lo), len(band)), dtype=complex)
    for first in range(0, len(shifts), width):
        phase = (-2j * np.pi / n) * shifts[first : first + width, None, None]
        shifted = factors * (np.exp(phase * coarse) * np.exp(phase * fine)).reshape(-1, n)
        f = np.fft.fft(shifted, axis=2, out=shifted)
        block = np.flatnonzero((which >= first) & (which < first + width))
        for start in range(0, len(block), width):
            cols = block[start : start + width]
            read = which[cols] - first
            at_lo, at_hi = np.conj(f[:, read, lo[:, cols]]), f[:, read, hi[:, cols]]
            out[: len(states), :, cols] = at_lo[: len(states)] * at_hi[: len(states)]
            if dp:
                out[-1][:, cols] = at_lo[-1] * at_hi[0] + at_lo[0] * at_hi[-1]
    phases = np.exp((-2j * np.pi / n) * ((np.array(sigmas)[:, None] * band) % n))
    out *= (dq / np.sqrt(2.0 * np.pi * hbar)) * phases[:, None, :]
    return list(out)


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
    """The p rows :func:`_wigner_blocks` builds W of ``psi`` on to read ``rows``: the fewest,
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


def _wigner_blocks(
    psi: WaveFunction, grid: Grid2D, columns: slice = slice(None), dp: bool = False, window: slice = slice(None)
):
    """Yield ``(cols, W[window, cols])`` for the q-column blocks of :func:`wigner_direct`'s W
    over ``columns``, each of at most :data:`_BLOCK` elements, as new float64 arrays; with
    ``dp``, dW/dp's: each lag y weighted by -i y / hbar before the fold, exact where a
    spectral p derivative of W is not (a folded bin holds two lags).

    On the whole axis the blocks are bitwise those of the whole W.  ``window`` of M = n / k
    rows (from :func:`_wigner_window`) decimates the lag sum instead: every k-th lag, folded
    modulo M into one length-M transform per column, returns W summed over the rows M apart
    (Markel, IEEE Trans. Audio Electroacoust. 19, 305 (1971)), so grid row j is output
    ``j mod M``.  At even k the row phase ``(-1)^(k l)`` of the lag-l sum is 1."""
    if psi.space != "q":
        raise ValueError("wigner_direct expects a position-space state")
    if grid != Grid2D(psi.grid, psi.params.hbar):
        raise GridError("grid is not the state's phase-space grid")
    n = grid.q_axis.n_points
    first_row, stop_row, _ = window.indices(n)
    size = stop_row - first_row
    k = n // size  # lag stride; the window is n / k rows
    h = size // 2
    dy = k * grid.q_axis.spacing  # the decimated lag spacing, exact: k is a power of two
    lag = (-1j * dy / grid.hbar) * np.arange(h + 1)  # -i y / hbar at decimated lag m

    # Row i of ``windows`` holds psi at q_i + (j - n) dq / 2, j = 0 .. 2n.
    # Shifts that leave the domain read the zero padding.  Wrapping them
    # around instead would correlate the state with its periodic image and
    # plant a mirror copy of the distribution half an extent away in q.
    padded = np.pad(spectral_resample(psi.values), n)  # spacing dq/2
    windows = sliding_window_view(padded, 2 * n + 1)[::2]
    start, stop, _ = columns.indices(n)
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
        del wrapped  # not held across the yield
        if k == 1:
            folded[:, 1::2] *= -1.0
        # np.fft.hfft, without the conjugated copy of its input
        block = np.fft.irfft(np.conj(folded, out=folded), size, axis=1, norm="forward").T
        block *= dy
        yield cols, (np.roll(block, -first_row, axis=0) if first_row % size else block)


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
    """W of ``psi`` (dW/dp with ``dp``) on ``box``, from its columns' blocks on its
    :func:`_wigner_window` only and in their layout."""
    n = grid.q_axis.n_points
    window = _wigner_window(psi, box[0])
    rows = within(box[0], window, n)
    out = np.empty((len(range(n)[box[1]]), len(range(n)[box[0]]))).T
    for cols, block in _wigner_blocks(psi, grid, box[1], dp, window):
        out[:, within(cols, box[1], n)] = block[rows]
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
