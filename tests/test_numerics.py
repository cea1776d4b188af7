"""Grids, spectral calculus and masking utilities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsqp.numerics import (
    Grid1D,
    Grid2D,
    GridError,
    PhysicalParams,
    Potential,
    amplitude_mask,
    fft2_passes,
    log_amplitude,
    log_curvature,
    make_grid,
    mask_box,
    paired_momentum_grid,
    position_to_momentum,
    pq_factors,
    relative_curvature,
    spectral_derivative,
    spectral_derivative_2d,
    spectral_resample,
)

HYP = settings(max_examples=30, deadline=None)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_points_exclude_right_endpoint():
    g = make_grid(8, 0.0, 8.0)
    assert g.spacing == 1.0
    np.testing.assert_allclose(g.points, np.arange(8.0))
    assert g.extent == 8.0


@pytest.mark.parametrize("n", [0, 7, 12, 100])
def test_grid_rejects_non_power_of_two(n):
    with pytest.raises(GridError):
        make_grid(n, -1.0, 1.0)


def test_grid_rejects_empty_interval():
    with pytest.raises(GridError):
        make_grid(16, 1.0, 1.0)


def test_potential_is_one_quadratic():
    pot = Potential(k=1.5, b=0.7)
    q = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_allclose(pot.value(q), 0.75 * q**2 + 0.7 * q, rtol=1e-15)
    np.testing.assert_allclose(pot.derivative(q), 1.5 * q + 0.7, rtol=1e-15)
    # the kind follows k alone: a zero slope is still a linear potential
    assert pot.kind == "harmonic"
    assert Potential(b=0.7).kind == Potential().kind == "linear"
    assert PhysicalParams(mass=2.0, potential=Potential(k=8.0)).omega == 2.0
    for pot in (Potential(b=1.0), Potential(k=-1.0)):
        with pytest.raises(ValueError, match="positive spring constant"):
            PhysicalParams(potential=pot).omega


def test_paired_momentum_grid_spacing_and_centering():
    q = make_grid(256, -10.0, 10.0)
    p = paired_momentum_grid(q, hbar=1.0)
    # dp = 2 pi hbar / L_q, same point count, centred on zero
    assert p.n_points == q.n_points
    assert p.spacing == pytest.approx(2.0 * np.pi / q.extent, rel=1e-14)
    assert p.min == pytest.approx(-p.extent / 2.0, rel=1e-14)
    assert 0.0 in p.points


# ---------------------------------------------------------------------------
# spectral derivatives
# ---------------------------------------------------------------------------


@HYP
@given(k=st.integers(min_value=-20, max_value=20))
def test_spectral_derivative_exact_for_plane_wave(k):
    g = make_grid(64, 0.0, 2.0 * np.pi)
    f = np.exp(1j * k * g.points)
    df = spectral_derivative(f, g, order=1)
    np.testing.assert_allclose(df, 1j * k * f, atol=1e-10)
    d2f = spectral_derivative(f, g, order=2)
    np.testing.assert_allclose(d2f, -(k**2) * f, atol=1e-8)


def test_spectral_derivative_2d_axis_semantics():
    q = make_grid(32, 0.0, 2.0 * np.pi)
    g2 = Grid2D.paired(q, hbar=1.0)
    assert g2.shape == (32, 32)
    assert g2.cell == pytest.approx(g2.q_axis.spacing * g2.p_axis.spacing)
    # axis 0 indexes p, axis 1 indexes q
    P, Q = g2.p_axis.points[:, None], g2.q_axis.points[None, :]
    # wavenumbers must sit on each axis's spectral lattice to be exact
    kq = 2.0 * (2.0 * np.pi / g2.q_axis.extent)
    kp = 8.0 * (2.0 * np.pi / g2.p_axis.extent)
    f = np.exp(1j * (kq * Q + kp * P))
    fq = spectral_derivative_2d(f, g2, axis=1, order=1)
    fp = spectral_derivative_2d(f, g2, axis=0, order=1)
    np.testing.assert_allclose(fq, 1j * kq * f, atol=1e-9)
    np.testing.assert_allclose(fp, 1j * kp * f, atol=1e-9)


@pytest.mark.parametrize("n", [2**e for e in range(3, 11)])
def test_fft2_passes_are_bitwise_numpy(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert np.array_equal(fft2_passes(x), np.fft.fft2(x))
    assert np.array_equal(fft2_passes(x, inverse=True), np.fft.ifft2(x))
    expected = np.fft.ifft2(x)
    assert fft2_passes(x, inverse=True, in_place=True) is x
    assert np.array_equal(x, expected)


def test_spectral_resample_evaluates_trig_interpolant():
    g = make_grid(32, 0.0, 2.0 * np.pi)
    f = np.cos(3.0 * g.points) + 0.5 * np.sin(5.0 * g.points)
    fine = spectral_resample(f)
    x_fine = g.min + (g.spacing / 2.0) * np.arange(2 * g.n_points)
    expected = np.cos(3.0 * x_fine) + 0.5 * np.sin(5.0 * x_fine)
    np.testing.assert_allclose(fine.real, expected, atol=1e-12)
    np.testing.assert_allclose(fine.imag, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# log-space curvature
# ---------------------------------------------------------------------------


@HYP
@given(
    center=st.floats(min_value=-1.5, max_value=1.5),
    width=st.floats(min_value=0.5, max_value=1.2),
)
def test_relative_curvature_exact_for_gaussians(center, width):
    # R''/R for R = exp(-(x-a)^2 / (2 s^2)) is (x-a)^2/s^4 - 1/s^2; the
    # log-space estimator differentiates a quadratic, so it is exact to
    # rounding over the whole amplitude mask, not just near the peak.
    # Ranges keep the tails below the mask threshold at the periodic
    # boundary, where the roll-based stencil is documented as meaningless.
    g = make_grid(256, -10.0, 10.0)
    x = g.points
    R = np.exp(-((x - center) ** 2) / (2.0 * width**2))
    expected = ((x - center) ** 2) / width**4 - 1.0 / width**2
    got = relative_curvature(R, g.spacing)
    mask = amplitude_mask(R)
    scale = max(1.0, float(np.max(np.abs(expected[mask]))))
    assert np.max(np.abs((got - expected)[mask])) < 1e-9 * scale


@pytest.mark.parametrize("amplitude", ["random", "gaussian-chi"])
def test_one_log_gives_both_curvature_ratios(amplitude, ground_chi):
    # the 2D residual takes log R once and differentiates it along both
    # axes; that must change no value against one relative_curvature per axis
    if amplitude == "random":
        R = np.random.default_rng(11).uniform(0.05, 2.0, size=(64, 32))
        dp, dq = 0.3, 0.07
    else:
        R = np.abs(ground_chi.values)
        dp, dq = ground_chi.grid.p_axis.spacing, ground_chi.grid.q_axis.spacing
    u = log_amplitude(R)
    assert np.array_equal(log_curvature(u, dq, axis=1), relative_curvature(R, dq, axis=1))
    assert np.array_equal(log_curvature(u, dp, axis=0), relative_curvature(R, dp, axis=0))


@pytest.mark.parametrize("shape", [(40,), (64, 32)])
def test_log_curvature_equals_the_roll_formula(shape):
    # the wrap-padded neighbours give bitwise the arithmetic of np.roll
    u = np.random.default_rng(5).normal(size=shape)
    for axis in range(len(shape)):
        up, um = np.roll(u, -1, axis=axis), np.roll(u, 1, axis=axis)
        expected = (up - 2.0 * u + um) / 0.3**2 + ((up - um) / (2.0 * 0.3)) ** 2
        assert np.array_equal(log_curvature(u, 0.3, axis=axis), expected)


def test_relative_curvature_rejects_negative_amplitude():
    with pytest.raises(ValueError):
        relative_curvature(np.array([1.0, -1.0, 1.0]), 0.1)


# ---------------------------------------------------------------------------
# Fourier transform pair
# ---------------------------------------------------------------------------


def test_fourier_pair_round_trip_and_plancherel():
    g = make_grid(256, -10.0, 10.0)
    f = np.exp(-((g.points - 0.7) ** 2) + 0.3j * g.points)
    fp, p_grid = position_to_momentum(f, g, hbar=1.0)
    # unitary normalisation: sum |f|^2 dq == sum |fp|^2 dp
    nq = np.sum(np.abs(f) ** 2) * g.spacing
    np_ = np.sum(np.abs(fp) ** 2) * p_grid.spacing
    assert nq == pytest.approx(np_, rel=1e-12)


def test_fourier_shift_theorem():
    # translating by a shifts the transform's phase by exp(-i p a / hbar)
    g = make_grid(256, -10.0, 10.0)
    a = 4 * g.spacing  # a grid-commensurate shift is exact
    f0 = np.exp(-(g.points**2))
    fa = np.exp(-((g.points - a) ** 2))
    t0, p_grid = position_to_momentum(f0, g, hbar=1.0)
    ta, _ = position_to_momentum(fa, g, hbar=1.0)
    np.testing.assert_allclose(ta, t0 * np.exp(-1j * p_grid.points * a), atol=1e-12)


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------


def test_amplitude_mask_relative_threshold():
    amp = np.array([1.0, 1e-5, 1e-7, 0.0, 0.5])
    mask = amplitude_mask(amp)  # default threshold 1e-6 of the peak
    np.testing.assert_array_equal(mask, [True, True, False, False, True])
    assert not amplitude_mask(np.zeros(4)).any()


def test_mask_box_grows_by_one_cell_and_keeps_the_wrap():
    mask = np.zeros((16, 8), dtype=bool)
    mask[4:7, 2] = True
    assert mask_box(mask) == (slice(3, 8), slice(1, 4))
    mask[4, 6] = True  # the grown box ends on the last column
    assert mask_box(mask) == (slice(3, 8), slice(1, 8))
    mask[4, 7] = True  # the grown box passes the edge: the axis is taken whole
    assert mask_box(mask) == (slice(3, 8), slice(None))
    mask[0, 2] = True
    assert mask_box(mask) == (slice(None), slice(None))
    with pytest.raises(ValueError, match="empty mask"):
        mask_box(np.zeros((8, 8), dtype=bool))


# ---------------------------------------------------------------------------
# input checks and the phase-space kernel
# ---------------------------------------------------------------------------


def test_spectral_derivative_checks_length():
    g = make_grid(64, 0.0, 1.0)
    with pytest.raises(GridError):
        spectral_derivative(np.zeros(32), g)


@pytest.mark.parametrize("domain", [(-10.0, 10.0), (-7.3, 12.1)])
@pytest.mark.parametrize("n", [2**e for e in range(3, 12)])
def test_pq_kernel_matches_direct_exponential(n, domain):
    # The Bluestein factors reduce every phase modulo 2 pi, so what is left is
    # the reference's own rounding of its argument p q / hbar: measured at
    # 0.2-0.6 x this bound for n = 8 .. 2048 on both domains.  The kernel and
    # the reference are built in row blocks so the largest case holds one n^2
    # array.
    hbar = 0.7
    g2 = Grid2D.paired(make_grid(n, *domain), hbar)
    p, q = g2.p_axis.points, g2.q_axis.points
    bound = 4.0 * np.finfo(float).eps * np.abs(p).max() * np.abs(q).max() / hbar
    hankel, row, col = pq_factors(g2, hbar)
    assert hankel.shape == g2.shape and row.shape == col.shape == (n,)
    for r in range(0, n, 256):
        kernel = hankel[r : r + 256] * row[r : r + 256, None] * col
        direct = np.exp(-1j * np.multiply.outer(p[r : r + 256], q) / hbar)
        assert np.max(np.abs(kernel - direct)) < bound


def test_pq_kernel_needs_a_paired_grid():
    g = make_grid(64, -10.0, 10.0)
    with pytest.raises(GridError):
        pq_factors(Grid2D(g, g), 1.0)
    with pytest.raises(GridError):
        pq_factors(Grid2D.paired(g, 1.0), 0.5)  # paired for another hbar


def test_plane_wave_identity_sanity():
    # the conventions above only make sense if points and wavenumbers pair up
    g = make_grid(64, -3.0, 3.0)
    k = g.wavenumbers
    assert k[0] == 0.0
    assert math.isclose(k[1], 2.0 * np.pi / g.extent, rel_tol=1e-14)
