"""Phase-space product distributions, their phase, the extended Hamiltonian
and expectation values."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsqp.eps_core import (
    ExtendedHamiltonian,
    PhaseSpaceField,
    chi_build,
    chi_rows,
    expectation,
    strip_rows,
)
from epsqp.numerics import (
    Grid2D,
    GridError,
    PhysicalParams,
    Potential,
    amplitude_mask,
    make_grid,
)
from epsqp.states import ho_coherent_state, to_momentum_space
from epsqp.transforms import _Strip, wigner_direct

HYP = settings(max_examples=20, deadline=None)


def _chi_at(q_grid, grid2, params, q0, p0, t):
    psi = ho_coherent_state(q_grid, params, q0=q0, p0=p0, t=t)
    return chi_build(psi, grid2), psi


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_chi_build_rejects_swapped_spaces(q_grid, grid2, harmonic_params):
    # chi_build takes the position-space state and transforms it itself
    phi = to_momentum_space(ho_coherent_state(q_grid, harmonic_params, q0=0.0, p0=0.0, t=0.0))
    with pytest.raises(ValueError, match="position-space"):
        chi_build(phi, grid2)


def test_chi_build_matches_the_direct_product(harmonic_params):
    # psi(q) conj(phi(p)) exp(-i p q / hbar) with the exponential taken
    # directly, on a domain whose q_min / dq is not an integer, at hbar != 1;
    # the bound is the reference's own rounding of its argument p q / hbar
    params = replace(harmonic_params, hbar=0.7)
    q_grid = make_grid(256, -7.3, 12.1)
    g2 = Grid2D(q_grid, params.hbar)
    psi = ho_coherent_state(q_grid, params, q0=1.3, p0=-0.4, t=0.3)
    phi = to_momentum_space(psi)
    p, q = g2.p_axis.points[:, None], g2.q_axis.points[None, :]
    direct = psi.values[None, :] * np.conj(phi.values)[:, None] * np.exp(-1j * p * q / params.hbar)
    scale = np.abs(psi.values).max() * np.abs(phi.values).max()
    bound = 4.0 * np.finfo(float).eps * np.abs(p).max() * np.abs(q).max() / params.hbar * scale
    assert np.max(np.abs(chi_build(psi, g2).values - direct)) < bound


@pytest.mark.parametrize(
    "rows, n, lo, hi, hbar",
    [
        (slice(90, 150), 256, -9.3, 10.7, 0.7),
        (slice(128, 129), 256, -9.3, 10.7, 0.7),
        *((slice(None), n, *domain) for n in (64, 256, 1024) for domain in ((-10.0, 10.0, 1.0), (-9.3, 10.7, 0.7))),
    ],
    ids=["rows0-band0", "rows1-band1", *(f"whole-{n}-{d}" for n in (64, 256, 1024) for d in ("default", "off-grid"))],
)
def test_chi_q_spectrum_is_a_block_of_chis_q_spectrum(harmonic_params, rows, n, lo, hi, hbar):
    # chi's q-spectrum, the strip's spectra at alpha = 0, on any consecutive p rows (one
    # row included) and the strip's signed q wavenumbers, also where q_min / dq is not an
    # integer (-9.3 / (20 / n)): rows and columns (band mod n) of fft(chi) along q
    params = replace(harmonic_params, hbar=hbar)
    q_grid = make_grid(n, lo, hi)
    psi = ho_coherent_state(q_grid, params, q0=0.5, p0=0.3, t=0.4)
    chi = chi_build(psi, Grid2D(q_grid, params.hbar)).values
    strip = _Strip([psi])
    got = strip.spectra(0.0, rows)[0].T
    expected = np.fft.fft(chi, axis=1)[rows][:, strip.band % n]
    assert got.shape == expected.shape and got.dtype == np.complex128
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_chi_q_spectrum_needs_a_position_state(q_grid, harmonic_params):
    psi = ho_coherent_state(q_grid, harmonic_params, q0=0.5, p0=0.0, t=0.0)
    with pytest.raises(ValueError, match="position-space"):
        _Strip([to_momentum_space(psi)])


@pytest.mark.parametrize(
    "build, grid",
    [
        ("chi_build", "hbar"),
        ("chi_build", "q"),
        ("wigner_direct", "hbar"),
        ("wigner_direct", "q"),
    ],
)
def test_phase_space_grid_must_be_the_states(q_grid, ground_state, build, grid):
    # a field's grid carries its hbar, so a builder's grid is the state's own: a grid paired
    # at another hbar, or one on another q axis, is a GridError, never a silently wrong field
    foreign = Grid2D(q_grid, 0.5) if grid == "hbar" else Grid2D(make_grid(q_grid.n_points, -8.0, 8.0), 1.0)
    builders = {
        "chi_build": lambda: chi_build(ground_state, foreign),
        "wigner_direct": lambda: wigner_direct(ground_state, foreign),
    }
    assert ground_state.params.hbar == 1.0
    with pytest.raises(GridError):
        builders[build]()


def test_wigner_fields_are_real(grid2, ground_state, ground_chi):
    # a field is its values on its grid: the Wigner builder writes float64 W,
    # chi_build complex128 chi, and values of another shape are a GridError
    w = wigner_direct(ground_state, grid2)
    assert w.values.dtype == np.float64 and w.values.shape == grid2.shape
    assert ground_chi.values.dtype == np.complex128
    with pytest.raises(GridError, match="shape"):
        PhaseSpaceField(w.values[:, 1:], grid2)


def test_amplitude_factorizes(q_grid, grid2, harmonic_params):
    chi, psi = _chi_at(q_grid, grid2, harmonic_params, 0.7, -0.4, 0.3)
    phi = to_momentum_space(psi)
    expected = np.abs(phi.values)[:, None] * np.abs(psi.values)[None, :]
    np.testing.assert_allclose(np.abs(chi.values), expected, atol=1e-14)


# ---------------------------------------------------------------------------
# phase
# ---------------------------------------------------------------------------


def _wrapped(phase):
    return np.angle(np.exp(1j * phase))


def _theta(chi):
    """arg chi + p q / hbar on chi's amplitude mask: chi's phase without its kernel."""
    mask = amplitude_mask(np.abs(chi.values))
    pq = chi.grid.p_axis.points[:, None] * chi.grid.q_axis.points[None, :]
    return (np.angle(chi.values) + pq / chi.grid.hbar)[mask], mask


def test_ground_action_is_minus_pq(ground_chi):
    # theta + const = 0 with const a multiple of 2 pi: the ground state's action is -p q
    theta, mask = _theta(ground_chi)
    offset = theta[np.argmax(np.abs(ground_chi.values)[mask])]
    assert np.max(np.abs(_wrapped(theta - offset))) < 1e-8
    assert abs(_wrapped(offset)) < 1e-8


def test_phase_splits_into_q_and_p_parts(q_grid, grid2, harmonic_params):
    # theta = arg psi(q) - arg phi(p) modulo 2 pi: the product's action separates
    # into its factors' 1D actions, with no constant between them
    chi, psi = _chi_at(q_grid, grid2, harmonic_params, 1.0, 0.0, 0.4)
    phi = to_momentum_space(psi)
    theta, mask = _theta(chi)
    factors = np.angle(psi.values)[None, :] - np.angle(phi.values)[:, None]
    assert np.max(np.abs(_wrapped(theta - factors[mask]))) < 1e-8


# ---------------------------------------------------------------------------
# extended Hamiltonian
# ---------------------------------------------------------------------------


def test_operator_reduces_to_transport_at_minus_half(harmonic_params, linear_params):
    for params in (harmonic_params, linear_params):
        ham = ExtendedHamiltonian.from_params(params, alpha=-0.5)
        assert ham.A == 0.0
        assert ham.C == 0.0
        assert ham.B == 1.0 / params.mass


def test_from_params_is_one_formula_in_k_and_b(harmonic_params, linear_params):
    # a linear potential has no p-curvature or q-dependent drift, a harmonic
    # one no constant force
    linear = ExtendedHamiltonian.from_params(linear_params, alpha=0.25)
    assert linear.C == 0.0 and linear.D == 0.0 and linear.E == -1.0
    harmonic = ExtendedHamiltonian.from_params(harmonic_params, alpha=0.25)
    assert harmonic.E == 0.0 and harmonic.D == -1.0
    both = PhysicalParams(mass=2.0, potential=Potential(k=1.5, b=0.7))
    ham = ExtendedHamiltonian.from_params(both, alpha=0.25)
    assert (ham.A, ham.B, ham.C, ham.D, ham.E) == (0.375, 0.5, -1.125, -1.5, -0.7)


@pytest.mark.parametrize("alpha", [0.0, -0.25, -0.5])
@pytest.mark.parametrize("potential", ["harmonic", "linear"])
@pytest.mark.parametrize("values", ["chi", "random"])
def test_operator_takes_one_forward_transform_per_axis(
    monkeypatch, ground_state, harmonic_params, linear_params, alpha, potential, values
):
    # H' reads chi through its 1-D factors: phi and its two p derivatives are the transforms
    # of psi, (-i q / hbar) psi and (-i q / hbar)^2 psi, and one forward and one inverse FFT
    # of psi along q give psi' and psi''; every transform is a 1-D one (no axis argument),
    # and their count depends neither on the coefficients nor on the state
    params = harmonic_params if potential == "harmonic" else linear_params
    psi = ground_state
    if values == "random":
        rng = np.random.default_rng(3)
        psi = replace(psi, values=rng.normal(size=psi.grid.n_points) + 1j * rng.normal(size=psi.grid.n_points))
    psi = replace(psi, params=params)
    ham = ExtendedHamiltonian.from_params(params, alpha)

    forward, inverse = [], []
    fft, ifft = np.fft.fft, np.fft.ifft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **k: forward.append(k.get("axis")) or fft(*a, **k))
    monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: inverse.append(k.get("axis")) or ifft(*a, **k))
    got = ham.apply(psi, slice(None))
    assert forward == [None] * 4 and inverse == [None]
    assert got.shape == (psi.grid.n_points,) * 2 and got.dtype == np.complex128


@HYP
@given(alpha=st.floats(min_value=-1.0, max_value=0.5))
def test_second_order_coefficients_scale_as_one_plus_two_alpha(
    harmonic_params, alpha
):
    ham = ExtendedHamiltonian.from_params(harmonic_params, alpha)
    base = ExtendedHamiltonian.from_params(harmonic_params, 0.0)
    factor = 1.0 + 2.0 * alpha
    assert ham.A == pytest.approx(factor * base.A, abs=1e-15)
    assert ham.C == pytest.approx(factor * base.C, abs=1e-15)
    # first-order (transport) coefficients are alpha-independent
    assert ham.B == base.B
    assert ham.D == base.D
    assert ham.E == base.E


def test_evaluate_classical_matches_coefficients(harmonic_params):
    ham = ExtendedHamiltonian.from_params(harmonic_params, alpha=0.0)
    S_q, S_p, P, Q = 2.0, 3.0, 0.5, -1.5
    expected = (
        ham.A * S_q**2 + ham.B * P * S_q + ham.C * S_p**2 + (ham.D * Q + ham.E) * S_p
    )
    assert ham.evaluate_classical(S_q, S_p, P, Q) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def test_ground_distribution_is_a_zero_mode(ground_state, harmonic_params):
    # the stationary ground-state product is annihilated by the operator, on every row
    # and on its momentum strip: a decade over the measured 3.5e-14 (2.3e-14 on the strip)
    ham = ExtendedHamiltonian.from_params(harmonic_params)
    for rows in (slice(None), strip_rows([ground_state])):
        assert np.max(np.abs(ham.apply(ground_state, rows))) < 3.5e-13


def test_evolution_identity_for_coherent_distribution(q_grid, grid2, harmonic_params):
    # i hbar d(chi)/dt = H' chi, the time derivative from a centred pair
    dt = 1e-3
    t = 0.4
    chis = [
        _chi_at(q_grid, grid2, harmonic_params, 1.0, 0.0, t + s * dt)[0]
        for s in (-1, 1)
    ]
    hbar = harmonic_params.hbar
    lhs = 1j * hbar * (chis[1].values - chis[0].values) / (2.0 * dt)
    psi = ho_coherent_state(q_grid, harmonic_params, q0=1.0, p0=0.0, t=t)
    rhs = ExtendedHamiltonian.from_params(harmonic_params).apply(psi, slice(None))
    cell = grid2.cell
    err = np.sqrt(np.sum(np.abs(lhs - rhs) ** 2) * cell)
    assert err < 1e-5


def test_rhs_allocates_one_work_buffer(temporary_arrays, harmonic_params):
    # in n x n complex arrays: the result and the 1-D factors (measured 1.06), and on the
    # 55-row momentum strip the result, the 1-D factors and the ufunc buffer of the kernel
    # product (measured 0.165); the limits are those plus about 10 %
    n = 512
    g = make_grid(n, -10.0, 10.0)
    psi = ho_coherent_state(g, harmonic_params, q0=1.0, p0=0.5, t=0.3)
    ham = ExtendedHamiltonian.from_params(harmonic_params)
    assert temporary_arrays(lambda: ham.apply(psi, slice(None)), n) <= 1.17
    assert temporary_arrays(lambda: ham.apply(psi, strip_rows([psi])), n) <= 0.18


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


def test_ground_state_moments(ground_chi, grid2, harmonic_params):
    p, q = grid2.p_axis.points, grid2.q_axis.points
    m = harmonic_params.mass
    k = harmonic_params.potential.k
    assert expectation(ground_chi, of_q=q**2) == pytest.approx(0.5, abs=1e-8)
    assert expectation(ground_chi, of_p=p**2 / (2 * m), of_q=0.5 * k * q**2) == pytest.approx(0.5, abs=1e-8)
    assert expectation(ground_chi, of_q=q) == pytest.approx(0.0, abs=1e-10)


def test_coherent_first_moments_track_the_orbit(q_grid, grid2, harmonic_params):
    t = 0.6
    chi, _ = _chi_at(q_grid, grid2, harmonic_params, 1.0, 0.0, t)
    assert expectation(chi, of_q=grid2.q_axis.points) == pytest.approx(math.cos(t), abs=1e-8)
    assert expectation(chi, of_p=grid2.p_axis.points) == pytest.approx(-math.sin(t), abs=1e-8)


def test_expectation_validation(grid2, harmonic_params, ground_chi):
    with pytest.raises(GridError):
        expectation(ground_chi, of_q=np.ones(4))
    with pytest.raises(GridError):
        expectation(ground_chi, of_p=np.ones(grid2.shape))
    zero = PhaseSpaceField(np.zeros(grid2.shape), grid2)
    with pytest.raises(ValueError):
        expectation(zero, of_q=np.ones(grid2.shape[1]))


@pytest.mark.parametrize("axis", ["p", "q"])
def test_expectation_broadcasts_one_axis_observables(grid2, ground_state, ground_chi, axis):
    # a p part or a q part is averaged over a marginal of chi: the value of the
    # whole-grid average sum(O conj(chi)) / sum(conj(chi)) of the n x n array it
    # broadcasts to, up to the rounding of the other summation order, also from
    # chi on its momentum strip only; a part of another shape raises
    points = grid2.p_axis.points if axis == "p" else grid2.q_axis.points
    part = points**2 + points
    full = np.broadcast_to(part[:, None] if axis == "p" else part[None, :], grid2.shape)
    weight = np.conj(ground_chi.values)
    want = (np.sum(full * weight) / np.sum(weight)).real
    strip = chi_rows(ground_state, strip_rows([ground_state]))
    for chi in (ground_chi, strip):
        assert expectation(chi, **{f"of_{axis}": part}) == pytest.approx(want, rel=0.0, abs=1e-15)
        with pytest.raises(GridError):
            expectation(chi, **{f"of_{axis}": part[:-1]})
        with pytest.raises(GridError):
            expectation(chi, **{f"of_{axis}": full})


@pytest.mark.parametrize("axis", ["p", "q"])
def test_one_axis_expectation_builds_no_full_size_temporary(temporary_arrays, harmonic_params, axis):
    # each part reads chi through its marginal: the peak allocation stays far
    # below one n x n complex array even for a whole-grid chi
    n = 512
    g = make_grid(n, -10.0, 10.0)
    chi = _chi_at(g, Grid2D(g, harmonic_params.hbar), harmonic_params, 1.0, 0.5, 0.3)[0]
    points = chi.grid.p_axis.points if axis == "p" else chi.grid.q_axis.points
    assert temporary_arrays(lambda: expectation(chi, **{f"of_{axis}": points}), n) <= 0.05
