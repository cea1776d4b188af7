"""Shear transforms and the direct Wigner construction."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from epsqp import numerics, transforms
from epsqp.eps_core import ExtendedHamiltonian, PhaseSpaceField, chi_build, chi_rows, strip_rows
from epsqp.numerics import (
    Grid2D,
    GridError,
    PhysicalParams,
    Potential,
    make_grid,
    shear_strip,
    spectral_resample,
    toeplitz_sum,
    within,
)
from epsqp.reports import l2
from epsqp.transforms import (
    _wigner_blocks,
    _wigner_box,
    _wigner_centre,
    _wigner_window,
    apply_extended_transform,
    sheared_q_spectrum,
    wigner_direct,
    wigner_equation_residual,
)
from epsqp.states import (
    ho_coherent_state,
    ho_eigenstate,
    linear_potential_gaussian,
    to_momentum_space,
)
from test_quantum_potential import centred

HYP = settings(max_examples=25, deadline=None)


# ---------------------------------------------------------------------------
# the shear group
# ---------------------------------------------------------------------------


def _shear_twice(chi, first, second):
    return apply_extended_transform(replace(chi, values=apply_extended_transform(chi, first)), second)


def test_zero_shear_is_identity(ground_chi):
    out = apply_extended_transform(ground_chi, 0.0)
    assert out.dtype == np.complex128
    np.testing.assert_allclose(out, ground_chi.values, atol=1e-14)


def test_shears_compose_additively(ground_chi):
    once = _shear_twice(ground_chi, -0.2, -0.3)
    direct = apply_extended_transform(ground_chi, -0.5)
    np.testing.assert_allclose(once, direct, atol=1e-12)


def test_shear_preserves_norm(ground_chi):
    sheared = apply_extended_transform(ground_chi, -0.5)
    cell = ground_chi.grid.cell
    assert l2(sheared, cell) == pytest.approx(l2(ground_chi.values, cell), rel=1e-12)


@HYP
@given(alpha=st.floats(min_value=-0.8, max_value=0.8))
def test_shear_inverts_exactly(ground_chi, alpha):
    back = _shear_twice(ground_chi, alpha, -alpha)
    assert np.max(np.abs(back - ground_chi.values)) < 1e-12


@pytest.mark.parametrize("lo, hi, hbar", [(-10.0, 10.0, 1.0), (-3.0, 5.0, 0.7)])
def test_apply_extended_transform_matches_direct_exponential(lo, hi, hbar):
    # A unit impulse at (0, 0) has an all-ones spectrum, so fft2 of its shear is the
    # multiplier itself.  The phases 2 pi alpha a b / n reach pi |alpha| n / 2 and the
    # FFT round trip adds a few eps, so the difference is bounded by a few
    # eps * pi |alpha| n.  At alpha = 0 the shear is the bare FFT round trip.
    eps = np.finfo(float).eps
    for n in (2**k for k in range(3, 12)):
        g2 = Grid2D(make_grid(n, lo, hi), hbar)
        u, v = g2.p_axis.wavenumbers, g2.q_axis.wavenumbers
        impulse = np.zeros(g2.shape, dtype=complex)
        impulse[0, 0] = 1.0
        field = PhaseSpaceField(impulse, g2)
        for alpha in (-1.0, -0.75, -0.7, -0.5, -0.25, 0.3):
            direct = np.exp(1j * alpha * hbar * u[:, None] * v[None, :])
            multiplier = np.fft.fft2(apply_extended_transform(field, alpha))
            err = np.max(np.abs(multiplier - direct))
            assert err <= 4.0 * eps * math.pi * abs(alpha) * n, (n, alpha, err)
        assert np.array_equal(apply_extended_transform(field, 0.0), np.fft.ifft2(np.fft.fft2(impulse)))


def test_apply_extended_transform_rejects_a_strip_field(harmonic_params):
    # the whole-grid shear of a field on some p rows only would be a wrong field, not an error
    strip = chi_rows(ho_coherent_state(make_grid(64, -10.0, 10.0), harmonic_params, 0.0, 0.0, 0.0), slice(10, 50))
    with pytest.raises(GridError, match="every p row"):
        apply_extended_transform(strip, -0.5)


def test_shear_strip_is_a_toeplitz_product_per_column():
    # out[i, b] = sum_j kernel[(i - j) mod n] block[j, b], on any output rows, and a
    # row's values do not depend on which other rows are asked for
    rng = np.random.default_rng(3)
    n, nb = 32, 5
    kernel = rng.normal(size=n) + 1j * rng.normal(size=n)
    block = rng.normal(size=(6, nb)) + 1j * rng.normal(size=(6, nb))
    rows = slice(20, 26)
    full = shear_strip(kernel, block, rows, slice(None))
    expected = np.zeros((n, nb), dtype=complex)
    for i in range(n):
        for j in range(20, 26):
            expected[i] += kernel[(i - j) % n] * block[j - 20]
    np.testing.assert_allclose(full, expected, rtol=0.0, atol=1e-13)
    for out_rows in (slice(0, 3), slice(17, 30), slice(31, 32)):
        np.testing.assert_array_equal(shear_strip(kernel, block, rows, out_rows), full[out_rows])


@pytest.mark.parametrize("n", [64, 512])
def test_shear_strip_adds_in_the_order_of_the_row_major_einsum(n):
    # flipping the block to (column, reversed row), by a view in shear_strip or as a
    # contiguous copy, so that the summed index is contiguous in both operands, changes no
    # bit: the same products are added in the same order as the einsum over the reversed
    # rows of the block as given
    rng = np.random.default_rng(n)
    m = n // 8
    rows = slice(n // 2 - m // 2, n // 2 - m // 2 + m)
    kernel = rng.normal(size=n) + 1j * rng.normal(size=n)
    block = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    for out_rows in (rows, slice(rows.start - m, rows.stop + m), slice(0, 5), slice(None)):
        (r0, r1), (s0, s1) = (r.indices(n)[:2] for r in (out_rows, rows))
        offsets = (r0 - s1 + 1 + np.arange(r1 - r0 + s1 - s0 - 1)) % n
        toeplitz = sliding_window_view(kernel[offsets], s1 - s0)
        old = np.einsum("iw,wb->ib", toeplitz, block[::-1])
        np.testing.assert_array_equal(shear_strip(kernel, block, rows, out_rows), old)
        flipped = np.ascontiguousarray(block[::-1].T)
        np.testing.assert_array_equal(toeplitz_sum(kernel[offsets], flipped), old)


@pytest.mark.parametrize("shift", [1, 37, 128, 253])
def test_sheared_q_spectrum_follows_a_shift_in_q(harmonic_params, shift):
    # psi rolled by s cells moves chi and every sheared member of it by s dq in q: column
    # b of the q-spectrum and of its p derivative's takes the phase exp(-2 pi i b s / n),
    # at any alpha, also where the rolled state straddles the q edge.  Bound: a decade over
    # the factors' rounding, measured 1.2e-15 of the peak.
    n = 256
    psi = ho_coherent_state(make_grid(n, -9.3, 10.7), replace(harmonic_params, hbar=0.7), 0.5, 0.3, 0.4)
    rolled = replace(psi, values=np.roll(psi.values, shift))
    rows, band = strip_rows([psi]), np.arange(-40, 41)
    phase = np.exp(-2j * np.pi * band * shift / n)
    for alpha in (-1.0, -0.7, -0.5, 0.25, -1.5):
        want = sheared_q_spectrum([psi], alpha, rows, band, dp=True)
        got = sheared_q_spectrum([rolled], alpha, rows, band, dp=True)
        for value, exact in zip(got, want):
            assert np.max(np.abs(value - exact * phase)) < 1.2e-14 * np.max(np.abs(exact)), (alpha, shift)


@pytest.mark.parametrize(
    "kernel, limit",
    [
        ("apply_extended_transform", 1.25),
        ("wigner_direct", 1.25),
        ("chi_build", 1.25),
    ],
)
def test_phase_space_kernels_allocate_little(temporary_arrays, harmonic_params, kernel, limit):
    # peak allocation beyond the inputs, in n x n complex arrays, returned
    # array included: no multiplier (the shear multiplies one spectrum row at a
    # time), no fft2 intermediate, no n x n lag correlation, no complex W, W
    # folded one column block at a time, no n^2 index table (measured 1.01, 0.73
    # and 1.08)
    n = 512
    g = make_grid(n, -10.0, 10.0)
    g2 = Grid2D(g, harmonic_params.hbar)
    psi = ho_coherent_state(g, harmonic_params, q0=1.0, p0=0.5, t=0.3)
    chi = chi_build(psi, g2)
    calls = {
        "apply_extended_transform": lambda: apply_extended_transform(chi, -0.5),
        "wigner_direct": lambda: wigner_direct(psi, g2),
        "chi_build": lambda: chi_build(psi, g2),
    }
    assert temporary_arrays(calls[kernel], n) <= limit


def test_transformed_hamiltonian_is_the_alpha_family(harmonic_params):
    ham = ExtendedHamiltonian.from_params(harmonic_params, -0.5)
    assert ham.A == 0.0 and ham.C == 0.0
    ham0 = ExtendedHamiltonian.from_params(harmonic_params, 0.0)
    assert ham0.A != 0.0


# ---------------------------------------------------------------------------
# direct Wigner construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_ground_state_wigner_profile(q_grid, harmonic_params, n):
    # W(p, q) = 2 (-1)^n L_n(2 r^2) exp(-r^2), r^2 = (q^2 + p^2) / hbar, in
    # this normalisation (unit phase-space integral with the 1/(2 pi hbar)
    # measure; value 2 (-1)^n at the origin at any hbar).  For n >= 1 it
    # goes negative.
    for hbar in (1.0, 0.5):
        grid2 = Grid2D(q_grid, hbar)
        psi = ho_eigenstate(q_grid, replace(harmonic_params, hbar=hbar), n)
        W = wigner_direct(psi, grid2)
        r2 = (grid2.q_axis.points[None, :] ** 2 + grid2.p_axis.points[:, None] ** 2) / hbar
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        expected = 2.0 * (-1) ** n * np.polynomial.laguerre.lagval(2.0 * r2, coeffs) * np.exp(-r2)
        assert W.values.dtype == np.float64
        assert np.max(np.abs(W.values - expected)) < 1e-8


def _lag_sum_wigner(psi, grid2):
    """The plain O(n^3) quadrature over the 2n lags -n .. n-1 with an explicit
    exp(-i tau p / hbar) kernel; shifts that leave the domain read zero."""
    n, dq, hbar = psi.grid.n_points, psi.grid.spacing, psi.params.hbar
    fine = spectral_resample(psi.values)
    lags = np.arange(-n, n)
    plus = 2 * np.arange(n)[:, None] + lags
    minus = 2 * np.arange(n)[:, None] - lags
    inside = (plus >= 0) & (plus < 2 * n) & (minus >= 0) & (minus < 2 * n)
    corr = np.where(inside, fine[plus % (2 * n)] * np.conj(fine[minus % (2 * n)]), 0.0)
    kernel = np.exp(-1j * np.outer(lags * dq, grid2.p_axis.points) / hbar)
    return dq * np.real(corr @ kernel).T


def test_wigner_matches_direct_lag_sum(q_grid, grid2, harmonic_params):
    psi = ho_coherent_state(q_grid, harmonic_params, q0=0.8, p0=-0.5, t=0.3)
    W = wigner_direct(psi, grid2)
    assert np.max(np.abs(W.values.real - _lag_sum_wigner(psi, grid2))) < 1e-12


def test_half_lag_wigner_matches_lag_sum_for_an_odd_eigenstate(q_grid, harmonic_params):
    # the first excited state is odd and W goes negative at the origin, so
    # every folded bin, the Hermitian half and the hfft sign pattern matter
    params = replace(harmonic_params, hbar=0.5)
    grid2 = Grid2D(q_grid, params.hbar)
    psi = ho_eigenstate(q_grid, params, 1)
    W = wigner_direct(psi, grid2)
    assert np.max(np.abs(W.values.real - _lag_sum_wigner(psi, grid2))) < 1e-12
    assert not W.values.imag.any()


def test_wigner_marginals(q_grid, harmonic_params):
    # integrating out p recovers 2 pi hbar |psi(q)|^2; integrating out q
    # gives 2 pi hbar |phi(p)|^2 (the 2 pi hbar is the lag-y measure's)
    for hbar in (1.0, 0.5):
        grid2 = Grid2D(q_grid, hbar)
        psi = ho_coherent_state(q_grid, replace(harmonic_params, hbar=hbar), q0=0.8, p0=-0.5, t=0.3)
        phi = to_momentum_space(psi)
        W = wigner_direct(psi, grid2)
        marg_q = np.sum(W.values.real, axis=0) * grid2.p_axis.spacing
        marg_p = np.sum(W.values.real, axis=1) * grid2.q_axis.spacing
        np.testing.assert_allclose(marg_q, 2.0 * np.pi * hbar * np.abs(psi.values) ** 2, atol=1e-9)
        np.testing.assert_allclose(marg_p, 2.0 * np.pi * hbar * np.abs(phi.values) ** 2, atol=1e-9)


def test_wigner_matches_half_shear_of_chi(q_grid, harmonic_params):
    # the central identity: shearing the product distribution by -1/2
    # reproduces the independent correlation-quadrature Wigner function, up
    # to the fixed overall constant 1/sqrt(2 pi hbar) the two conventions
    # differ by
    for hbar in (1.0, 0.5):
        grid2 = Grid2D(q_grid, hbar)
        psi = ho_coherent_state(q_grid, replace(harmonic_params, hbar=hbar), q0=1.0, p0=0.0, t=0.4)
        chi = chi_build(psi, grid2)
        sheared = apply_extended_transform(chi, -0.5)
        W = wigner_direct(psi, grid2)
        c = 1.0 / math.sqrt(2.0 * math.pi * hbar)
        num = np.sqrt(np.sum(np.abs(sheared - c * W.values) ** 2))
        den = np.sqrt(np.sum(np.abs(sheared) ** 2))
        assert num / den < 1e-8
        # and the sheared field is real to the same precision
        assert np.max(np.abs(sheared.imag)) < 1e-8 * np.max(np.abs(sheared.real))


@pytest.mark.parametrize("n", [64, 256])
def test_wigner_direct_is_the_same_in_one_block_or_many(monkeypatch, harmonic_params, n):
    # wigner_direct assembles W from q-column blocks of at most transforms._BLOCK
    # elements: one block, the default blocks and one column per block give the same
    # values, in the (p, q) transpose of a C-ordered (q, p) array
    g = make_grid(n, -10.0, 10.0)
    g2 = Grid2D(g, harmonic_params.hbar)
    psi = ho_coherent_state(g, harmonic_params, q0=1.0, p0=0.5, t=0.3)
    fields = []
    for block in (n * n, transforms._BLOCK, 1):
        monkeypatch.setattr(transforms, "_BLOCK", block)
        fields.append(wigner_direct(psi, g2).values)
    whole = fields[0]
    assert whole.dtype == np.float64 and whole.strides == (8, 8 * n) and whole.T.flags.c_contiguous
    for w in fields[1:]:
        assert w.strides == whole.strides
        np.testing.assert_array_equal(w, whole)


@pytest.mark.parametrize("n", [64, 256])
def test_wigner_blocks_of_a_column_range_are_those_of_w(monkeypatch, harmonic_params, n):
    # the Wigner residual builds W at t +- dt on its box columns only: the blocks that
    # cover a column range are those columns of the whole W, bit for bit, whatever the
    # block size
    g = make_grid(n, -10.0, 10.0)
    g2 = Grid2D(g, harmonic_params.hbar)
    psi = ho_coherent_state(g, harmonic_params, q0=1.0, p0=0.5, t=0.3)
    whole = wigner_direct(psi, g2).values
    for block in (transforms._BLOCK, 3 * n):
        monkeypatch.setattr(transforms, "_BLOCK", block)
        for columns in (slice(None), slice(5, n // 2 + 3), slice(n - 1, n)):
            blocks = list(_wigner_blocks(psi, g2, columns))
            assert [c.start for c, _ in blocks][0] == columns.indices(n)[0]
            assert all(a.stop == b.start for (a, _), (b, _) in zip(blocks, blocks[1:]))
            got = np.concatenate([w for _, w in blocks], axis=1)
            np.testing.assert_array_equal(got, whole[:, columns])


# ---------------------------------------------------------------------------
# W on its window of rows: the decimated lag sum
# ---------------------------------------------------------------------------

#: The coherent state from q0 = 0.5 at t = 0.4 on three phase-space grids: unit constants,
#: (m, k, hbar) = (2, 1.5, 0.7), and hbar = 0.7 on a domain with no q sample at 0.
WINDOW_CASES = {
    "unit": (PhysicalParams(mass=1.0, hbar=1.0, potential=Potential(k=1.0)), (-10.0, 10.0)),
    "m2-k1.5-hbar0.7": (PhysicalParams(mass=2.0, hbar=0.7, potential=Potential(k=1.5)), (-10.0, 10.0)),
    "off-grid": (PhysicalParams(mass=1.0, hbar=0.7, potential=Potential(k=1.0)), (-9.3, 10.7)),
}
#: W (dW/dp) on its window against the whole lag sum, relative to the whole field's peak:
#: a decade over the worst measured over the cases of WINDOW_CASES at n = 64 to 2048 and
#: the p-edge states, 4.5e-16 (2.1e-15), both at n = 2048 and (m, k, hbar) = (2, 1.5, 0.7).
WINDOW_BOUND = {False: 4.5e-15, True: 2.1e-14}


def _window_state(case, n, q0=0.5, p0=0.0, t=0.4):
    params, (lo, hi) = WINDOW_CASES[case]
    g = make_grid(n, lo, hi)
    return ho_coherent_state(g, params, q0, p0, t), Grid2D(g, params.hbar)


def _blocks(psi, g2, dp=False, window=slice(None)):
    return np.concatenate([w for _, w in _wigner_blocks(psi, g2, dp=dp, window=window)], axis=1)


def _assert_window_matches_whole(psi, g2, window):
    for dp in (False, True):
        whole = _blocks(psi, g2, dp) if dp else wigner_direct(psi, g2).values
        got = _blocks(psi, g2, dp, window)
        assert np.max(np.abs(got - whole[window])) <= WINDOW_BOUND[dp] * np.max(np.abs(whole))


@pytest.mark.parametrize("n", [64, 128, 256, 1024, 2048])
@pytest.mark.parametrize("case", list(WINDOW_CASES))
def test_windowed_wigner_matches_the_whole_lag_sum(case, n):
    # W's p support is phi's strip, the same ~55 rows at any n on the paired grid: W and
    # dW/dp on a power-of-two window that covers it, from every k-th lag, are the whole
    # lag sum's rows to rounding; from n = 256 on the window is a fraction of the axis
    psi, g2 = _window_state(case, n)
    strip = range(n)[strip_rows([psi])]
    window = _wigner_window(psi, strip_rows([psi]))
    size = window.stop - window.start
    assert size & (size - 1) == 0 and window.start <= strip.start and strip.stop <= window.stop
    assert size <= 128 if n >= 256 else size <= n
    _assert_window_matches_whole(psi, g2, window)


@pytest.mark.parametrize("p0, window", [(-11.0, slice(0, 64)), (11.0, slice(64, 128))])
def test_windowed_wigner_next_to_a_p_edge(p0, window):
    # a strip a few rows from a p edge: the window is clamped inside [0, n), not wrapped
    psi, g2 = _window_state("unit", 128, q0=0.0, p0=p0, t=0.0)
    strip = strip_rows([psi])
    assert strip != slice(None) and _wigner_window(psi, strip) == window
    _assert_window_matches_whole(psi, g2, window)


def test_a_whole_axis_strip_keeps_the_whole_lag_sum():
    # at n = 32 phi's strip is the whole p axis: the window is too (k = 1), and every W the
    # residual and the fits read is wigner_direct's, bit for bit
    psi, g2 = _window_state("unit", 32)
    strip = strip_rows([psi])
    assert strip == slice(None) and _wigner_window(psi, strip) == slice(0, 32)
    for dp in (False, True):
        np.testing.assert_array_equal(_blocks(psi, g2, dp, slice(0, 32)), _blocks(psi, g2, dp))
    _, box, f, *_ = _wigner_centre(psi, g2)
    np.testing.assert_array_equal(f, wigner_direct(psi, g2).values[box])


@pytest.mark.parametrize("n", [256, 1024])
def test_box_rows_read_the_window_of_the_strip(n):
    # ten rows to one side of the strip read the values the strip request reads, bit for
    # bit: the window comes from the strip, never from the requested rows alone, whose
    # smaller window would fold the strip rows outside them onto them
    psi, g2 = _window_state("unit", n)
    strip = strip_rows([psi])
    first = range(n)[strip].start + 12
    rows, cols = slice(first, first + 10), slice(n // 4, 3 * n // 4)
    assert _wigner_window(psi, rows) == _wigner_window(psi, strip)
    for dp in (False, True):
        on_strip = _wigner_box(psi, g2, (strip, cols), dp)
        np.testing.assert_array_equal(_wigner_box(psi, g2, (rows, cols), dp), on_strip[within(rows, strip, n)])


def test_wigner_rejects_momentum_space_input(q_grid, grid2, harmonic_params):
    psi = ho_coherent_state(q_grid, harmonic_params, q0=0.0, p0=0.0, t=0.0)
    with pytest.raises(ValueError):
        wigner_direct(to_momentum_space(psi), grid2)


# ---------------------------------------------------------------------------
# Wigner evolution equation
# ---------------------------------------------------------------------------


def test_stationary_wigner_residual_vanishes(q_grid, harmonic_params):
    dt = 1e-3
    snaps = [
        ho_coherent_state(q_grid, harmonic_params, q0=0.0, p0=0.0, t=s * dt)
        for s in (-1, 0, 1)
    ]
    rep = centred(wigner_equation_residual, snaps)
    assert rep.l2_norm < 1e-6


def test_wigner_transport_for_falling_packet(q_grid, linear_params):
    dt = 1e-3
    snaps = [
        linear_potential_gaussian(
            q_grid, linear_params, q0=0.5, p0=0.0, sigma0=math.sqrt(0.5), t=0.4 + s * dt
        )
        for s in (-1, 0, 1)
    ]
    rep = centred(wigner_equation_residual, snaps)
    assert rep.l2_norm < 1e-4


def test_wigner_residual_reads_only_the_box_columns(monkeypatch, coherent_triplet_factory):
    # W is built on every column once, for the centre's mask; dW/dp (the lag-weighted
    # blocks) and W at t +- dt on the mask box's columns only, and no spectral p
    # derivative of W is taken: the only one is dW/dq along q, on the box rows.  Each
    # state's W is built on its window, the rows that cover its own strip and the box
    # rows, so the centre's two calls share one window
    blocks, derivative = transforms._wigner_blocks, numerics.spectral_derivative_2d
    calls, axes = [], []

    def recorded_blocks(psi, grid, columns=slice(None), dp=False, window=slice(None)):
        calls.append((psi.t, columns.start, columns.stop, dp, window.start, window.stop))
        return blocks(psi, grid, columns, dp, window)

    def recorded_derivative(values, grid, axis, order=1):
        axes.append(axis)
        return derivative(values, grid, axis, order)

    monkeypatch.setattr(transforms, "_wigner_blocks", recorded_blocks)
    for module in (numerics, transforms):
        monkeypatch.setattr(module, "spectral_derivative_2d", recorded_derivative)
    snaps = coherent_triplet_factory()
    rows, cols = centred(wigner_equation_residual, snaps).fields["box"]
    assert cols != slice(None)
    t = [s.t for s in snaps]
    n = snaps[1].grid.n_points
    windows = [_wigner_window(s, rows) for s in snaps]
    assert windows[1] == _wigner_window(snaps[1], strip_rows([snaps[1]]))
    assert all(w.stop - w.start < n for w in windows)
    expected = [(t[1], None, None, False, windows[1].start, windows[1].stop)]
    expected += [(t[i], cols.start, cols.stop, i == 1, windows[i].start, windows[i].stop) for i in range(3)]
    assert axes == [1]
    assert sorted(calls, key=repr) == sorted(expected, key=repr)


def test_wigner_residual_needs_position_states(coherent_triplet_factory):
    # the residual builds W of each state itself, from the position-space form
    snaps = coherent_triplet_factory()
    with pytest.raises(ValueError, match="position-space"):
        wigner_equation_residual(to_momentum_space(snaps[1]))
    with pytest.raises(ValueError, match="different grids"):
        wigner_equation_residual(snaps[1])(*(to_momentum_space(s) for s in snaps[::2]))


def test_wigner_residual_rejects_bad_triples(ground_state, grid2):
    at = [replace(ground_state, t=t) for t in (0.0, 1e-3, 2e-3, 3e-3)]
    pair = wigner_equation_residual(at[1])
    with pytest.raises(ValueError, match="equally spaced"):
        pair(at[0], at[3])
    with pytest.raises(ValueError, match="equally spaced"):  # dt <= 0
        pair(at[2], at[0])
    shifted = make_grid(grid2.q_axis.n_points, -8.0, 8.0)
    with pytest.raises(ValueError, match="different grids"):
        pair(at[0], replace(at[2], grid=shifted))
    with pytest.raises(ValueError, match="different physical parameters"):
        pair(at[0], replace(at[2], params=replace(at[2].params, mass=2.0)))
