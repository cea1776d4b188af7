"""Grids, spectral differentiation, amplitude masks and the Fourier convention.

Every module builds on the conventions fixed here:

* Periodic grids with a power-of-two point count; ``spacing = (max - min)/n``
  and ``max`` is an excluded endpoint.
* The position -> momentum transform uses the kernel ``exp(-i p q / hbar)``
  with symmetric normalisation ``1/sqrt(2 pi hbar)``.  No other module
  defines its own transform.
* Derivatives are spectral: multiply the discrete Fourier transform by
  ``(i k)**order`` and transform back.
* Amplitude masks use the relative node threshold ``NODE_THRESHOLD``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

#: Relative amplitude below which polar quantities (action gradients, R''/R,
#: ...) are considered undefined and masked out.
NODE_THRESHOLD = 1e-6

#: Snapshot times closer than this count as equal.
TIME_ATOL = 1e-12


class GridError(ValueError):
    """Raised for malformed grids or fields on mismatched grids."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid: points ``min + i * spacing``, ``max`` excluded."""

    n_points: int
    min: float
    max: float

    def __post_init__(self):
        if not isinstance(self.n_points, (int, np.integer)):
            raise GridError(f"point count must be an integer, got {self.n_points!r}")
        if self.n_points < 8 or not _is_power_of_two(int(self.n_points)):
            raise GridError(
                f"point count must be a power of two >= 8, got {self.n_points}"
            )
        if not self.max > self.min:
            raise GridError(f"need max > min, got [{self.min}, {self.max})")

    @property
    def spacing(self) -> float:
        return (self.max - self.min) / self.n_points

    @property
    def extent(self) -> float:
        return self.max - self.min

    @property
    def points(self) -> NDArray[np.float64]:
        return self.min + self.spacing * np.arange(self.n_points)

    @property
    def wavenumbers(self) -> NDArray[np.float64]:
        """Angular wavenumbers in FFT order (conjugate variable to the points)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)


def make_grid(n_points: int, lo: float, hi: float) -> Grid1D:
    """Build a periodic ``Grid1D`` with validation (see :class:`Grid1D`)."""
    return Grid1D(n_points, float(lo), float(hi))


def paired_momentum_grid(q_grid: Grid1D, hbar: float) -> Grid1D:
    """Momentum grid Fourier-paired with ``q_grid``.

    Spacing ``dp = 2 pi hbar / (n dq)``; the points are the fftshifted DFT
    frequencies scaled by ``hbar``, so a discrete transform between the two
    grids is exactly unitary.
    """
    n = q_grid.n_points
    dp = 2.0 * np.pi * hbar / (n * q_grid.spacing)
    half = n // 2
    return Grid1D(n, -half * dp, (n - half) * dp)


@dataclass(frozen=True)
class Grid2D:
    """Phase-space grid of a q axis and hbar; arrays are indexed ``[i_p, i_q]``.

    The p axis is always :func:`paired_momentum_grid` of the q axis at ``hbar``,
    set here, so an unpaired grid cannot be built.  Coordinates broadcast
    against such arrays as ``p_axis.points[:, None]`` and ``q_axis.points[None, :]``.
    """

    q_axis: Grid1D
    hbar: float
    p_axis: Grid1D = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p_axis", paired_momentum_grid(self.q_axis, self.hbar))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.p_axis.n_points, self.q_axis.n_points)

    @property
    def cell(self) -> float:
        """Phase-space volume element ``dp * dq``."""
        return self.p_axis.spacing * self.q_axis.spacing


# ---------------------------------------------------------------------------
# potentials and physical parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Potential:
    """V(q) = k q^2 / 2 + b q: harmonic when k != 0, linear otherwise.

    Every identity checked here holds for potentials of at most second order
    in q, so these two coefficients cover them all.
    """

    k: float = 0.0
    b: float = 0.0

    @property
    def kind(self) -> str:
        return "harmonic" if self.k != 0.0 else "linear"

    def value(self, q):
        return 0.5 * self.k * q * q + self.b * q

    def derivative(self, q):
        return self.k * q + self.b


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, hbar and the potential (natural units by default)."""

    mass: float = 1.0
    hbar: float = 1.0
    potential: Potential = Potential(k=1.0)

    @property
    def omega(self) -> float:
        if self.potential.k <= 0.0:
            raise ValueError("omega needs a positive spring constant k")
        return float(np.sqrt(self.potential.k / self.mass))


# ---------------------------------------------------------------------------
# spectral differentiation
# ---------------------------------------------------------------------------


def spectral_derivative(values: NDArray, grid: Grid1D, order: int = 1) -> NDArray[np.complex128]:
    """Fourier-multiplier derivative of a field sampled on ``grid``.

    Exact for trigonometric polynomials; spectrally accurate for smooth
    fields that decay below roundoff at the boundary.  Output is complex.
    """
    values = np.asarray(values)
    if values.shape != (grid.n_points,):
        raise GridError(
            f"field shape {values.shape} does not match grid ({grid.n_points},)"
        )
    mult = (1j * grid.wavenumbers) ** order
    return np.fft.ifft(mult * np.fft.fft(values))


def spectral_derivative_2d(values: NDArray, grid: Grid2D, axis: int, order: int = 1) -> NDArray[np.complex128]:
    """Spectral derivative along ``axis`` (0 = p, 1 = q) of a 2D phase-space field, or of
    any subset of its lanes (rows for q, columns for p)."""
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[axis] != grid.shape[axis]:
        raise GridError(f"field shape {values.shape} does not match grid {grid.shape} along axis {axis}")
    k = grid.p_axis.wavenumbers[:, None] if axis == 0 else grid.q_axis.wavenumbers[None, :]
    spectrum = np.fft.fft(values, axis=axis)
    spectrum *= (1j * k) ** order
    return np.fft.ifft(spectrum, axis=axis, out=spectrum)


def relative_curvature(amplitude: NDArray, spacing: float, axis: int = 0) -> NDArray[np.float64]:
    """``R''/R`` for a strictly positive amplitude, evaluated in log space.

    With ``u = log R``, the identity ``R''/R = u'' + (u')^2`` is evaluated
    with 3-point centred differences on ``u`` (periodic indexing; boundary
    rows are only meaningful when the amplitude mask excludes them).

    Rationale: a spectral second derivative of ``R`` carries an absolute
    rounding floor of order ``eps * k_max^2 * max(R)``, which the division
    by ``R`` amplifies four to six orders of magnitude near the edge of the
    amplitude mask.  The log of the amplitude converts relative rounding of
    ``R`` into uniform absolute rounding of ``u``, so this estimator's
    conditioning does not degrade as ``R`` decays.  For Gaussian
    amplitudes — every analytic state in this package, and their sheared
    images — ``u`` is a quadratic polynomial, for which both centred
    differences are exact; for general smooth amplitudes the truncation
    error is O(spacing^2).

    Entries that underflowed to zero are clamped to the smallest positive
    float; the resulting values are garbage there and for their immediate
    neighbours, all of which lie far below any amplitude mask.
    """
    return log_curvature(log_amplitude(amplitude), spacing, axis)


def log_amplitude(amplitude: NDArray) -> NDArray[np.float64]:
    """``log R``, zeros clamped; take it once to get :func:`log_curvature` along several axes."""
    amplitude = np.asarray(amplitude, dtype=float)
    if np.any(amplitude < 0.0):
        raise ValueError("the amplitude must be non-negative")
    return np.log(np.maximum(amplitude, np.finfo(float).tiny))


def log_curvature(u: NDArray, spacing: float, axis: int = 0) -> NDArray[np.float64]:
    """``R''/R = u'' + (u')^2`` along ``axis`` from ``u = log R`` (see :func:`relative_curvature`)."""
    lead = (slice(None),) * (axis % u.ndim)  # the axes before ``axis``, whole
    padded = np.concatenate((u[lead + (slice(-1, None),)], u, u[lead + (slice(1),)]), axis=axis)
    up, um = padded[lead + (slice(2, None),)], padded[lead + (slice(-2),)]  # periodic neighbours
    first = (up - um) / (2.0 * spacing)
    second = (up - 2.0 * u + um) / spacing**2
    return second + first**2


# ---------------------------------------------------------------------------
# the Fourier convention (single definition; see module docstring)
# ---------------------------------------------------------------------------


def position_to_momentum(values: NDArray, q_grid: Grid1D, hbar: float) -> tuple[NDArray[np.complex128], Grid1D]:
    """Discrete ``phi(p) = (2 pi hbar)^(-1/2) integral psi(q) exp(-i p q/hbar) dq``.

    Returns the momentum-space samples on :func:`paired_momentum_grid`
    (monotone ordering).  Unitary: the L2 norm is preserved exactly.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape != (q_grid.n_points,):
        raise GridError("field does not match the position grid")
    n, dq = q_grid.n_points, q_grid.spacing
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dq)  # p / hbar in FFT order
    unshifted = (dq / np.sqrt(2.0 * np.pi * hbar)) * np.exp(-1j * k * q_grid.min) * np.fft.fft(values)
    return np.fft.fftshift(unshifted), paired_momentum_grid(q_grid, hbar)


def pq_factors(grid: Grid2D) -> tuple:
    """Bluestein factors ``(hankel, row, col)`` of chi's kernel ``exp(-i p q / hbar)``
    on ``grid``: ``kernel[i, j] = hankel[i, j] row[i] col[j]``.

    There ``p_i q_j / hbar = 2 pi k_i (x + j) / n`` with ``k_i = i - n/2`` and ``x =
    q_min / dq``, and ``2 k j = (k + j)^2 - k^2 - j^2`` (Bluestein's chirp identity)
    makes ``hankel`` the read-only view ``[i, j] -> h[i + j]`` of the 2n - 1 roots ``h[s]
    = exp(-i pi (s - n/2)^2 / n)``.  Integer phases are reduced modulo 2n and the
    row phase ``k_i x`` modulo n before their exponentials, so the kernel is accurate to
    rounding instead of carrying the rounding of an argument of size |p q / hbar|.
    """
    q_axis = grid.q_axis
    n = q_axis.n_points
    steps = np.arange(2 * n - 1)
    k = steps[:n] - n // 2
    turns = -1j * np.pi / n  # one turn is 2n of these

    def roots(s):  # exp(-i pi s^2 / n), s^2 reduced modulo 2n in integers
        return np.exp(turns * ((s * s) % (2 * n)))

    row = np.exp(2 * turns * np.mod(k * (q_axis.min / q_axis.spacing), n))
    row *= np.conj(roots(k))
    return sliding_window_view(roots(steps - n // 2), n), row, np.conj(roots(steps[:n]))


def spectral_resample(values: NDArray) -> NDArray[np.complex128]:
    """Resample a periodic field onto a twice finer grid.

    Zero-pads the spectrum, which evaluates the grid's trigonometric
    interpolant exactly (no local interpolation error).  The Nyquist bin is
    split symmetrically.
    """
    values = np.asarray(values, dtype=complex)
    n = values.shape[0]
    m = 2 * n
    f = np.fft.fft(values)
    out = np.zeros(m, dtype=complex)
    half = n // 2
    out[:half] = f[:half]
    out[m - half + 1 :] = f[half + 1 :]
    out[half] = 0.5 * f[half]
    out[m - half] = 0.5 * f[half]
    return 2.0 * np.fft.ifft(out)


# ---------------------------------------------------------------------------
# time differencing and masks
# ---------------------------------------------------------------------------


def snapshot_triple(snapshots) -> tuple:
    """Unpack snapshots at ``t - dt, t, t + dt`` into ``(minus, center, plus, dt)``.

    Snapshots are states.  All three must share parameters, space and grid and be
    equally spaced in ``t``.
    """
    if len(snapshots) != 3:
        raise ValueError("need exactly three snapshots (t - dt, t, t + dt)")
    minus, center, plus = snapshots
    for s in snapshots:
        if s.params != center.params:
            raise ValueError("snapshots carry different physical parameters")
        if s.grid != center.grid or s.space != center.space:
            raise ValueError("snapshots live on different grids")
    dt_lo, dt_hi = center.t - minus.t, plus.t - center.t
    if dt_lo <= 0 or abs(dt_hi - dt_lo) > TIME_ATOL:
        raise ValueError("snapshots must be equally spaced in time")
    return minus, center, plus, dt_lo


def amplitude_mask(amplitude: NDArray) -> NDArray[np.bool_]:
    """Boolean mask of samples with ``amplitude > NODE_THRESHOLD * max(amplitude)``."""
    amplitude = np.asarray(amplitude, dtype=float)
    peak = amplitude.max() if amplitude.size else 0.0
    if peak <= 0.0:
        return np.zeros(amplitude.shape, dtype=bool)
    return amplitude > NODE_THRESHOLD * peak


def grown_span(hit: NDArray[np.bool_], grow: int) -> slice:
    """Slice from the first to the last set entry of a 1D mask, grown by ``grow`` on each
    side; the whole axis if the grown span passes an edge, which keeps the periodic wrap."""
    if not hit.any():
        raise ValueError("no sample lies above the node threshold: empty mask")
    lo, hi = np.flatnonzero(hit)[[0, -1]] + (-grow, grow + 1)
    return slice(int(lo), int(hi)) if lo >= 0 and hi <= hit.size else slice(None)


def mask_box(mask: NDArray[np.bool_]) -> tuple[slice, slice]:
    """Row and column slices of a 2D mask's bounding box, grown by one cell so that
    it holds every neighbour a 3-point stencil reads at a masked cell."""
    return grown_span(mask.any(axis=1), 1), grown_span(mask.any(axis=0), 1)


def within(span: slice, rows: slice, n: int) -> slice:
    """``span``, a slice of an axis of n points that lies inside ``rows``, as a slice of a
    block that holds only ``rows``."""
    span, rows = range(n)[span], range(n)[rows]
    return slice(span.start - rows.start, span.stop - rows.start)


def toeplitz_sum(window: NDArray, flipped: NDArray) -> NDArray[np.complex128]:
    """``out[i, b] = sum_w window[i + w] flipped[b, w]``: a block on m p rows, flipped to
    (column, reversed row), convolved along p by a kernel read at the offsets of its rows.
    Summed by ``np.einsum`` over a Toeplitz view, not by BLAS, a row depends neither on the
    BLAS thread count nor on the other rows."""
    return np.einsum("iw,bw->ib", sliding_window_view(window, flipped.shape[-1]), flipped)


def shear_strip(kernel: NDArray, block: NDArray, rows: slice, out_rows: slice) -> NDArray[np.complex128]:
    """``out[i, b] = sum_j kernel[(i - j) mod n] block[j, b]``, i in ``out_rows`` and j in
    ``rows``: a block on p ``rows`` convolved along p by a derivative kernel onto any rows,
    as a :func:`toeplitz_sum` of the block flipped by a view (a copy would be field-sized)
    and of the kernel at the offsets ``i - j``, ascending."""
    n = kernel.shape[-1]
    (r0, r1), (s0, s1) = (r.indices(n)[:2] for r in (out_rows, rows))
    return toeplitz_sum(kernel[np.arange(r0 - s1 + 1, r1 - s0) % n], block[::-1].T)


def strip_mask_box(values: NDArray, rows: slice) -> tuple:
    """The whole-grid amplitude mask of a square field given on its p ``rows`` only, and its
    :func:`mask_box`; a mask on an edge row of ``rows`` inside the axis raises ``ValueError``."""
    n = values.shape[1]
    local = amplitude_mask(np.abs(values))
    hit = local.any(axis=1)
    if len(hit) < n and (hit[0] or hit[-1]):
        raise ValueError("the amplitude mask reaches an edge of its momentum strip")
    mask = np.zeros((n, n), dtype=bool)
    mask[rows] = local
    return mask, mask_box(mask)
