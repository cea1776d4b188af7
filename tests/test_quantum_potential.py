"""Quantum-potential profiles, modified Hamilton-Jacobi residuals, and the
shear-parameter sweep locating where the quantum term vanishes."""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from epsqp import numerics
from epsqp.eps_core import PhaseSpaceField, chi_build
from epsqp.numerics import (
    PhysicalParams,
    Potential,
    amplitude_mask,
    make_grid,
    mask_box,
    mask_box_gradients,
    spectral_derivative_2d,
)
from epsqp.quantum_potential import (
    alpha_sweep,
    hj_residual_eps,
    hj_residual_p,
    hj_residual_q,
    hj_residual_transformed,
    quantum_potential,
)
from epsqp.reports import masked_field
from epsqp.states import (
    WaveFunction,
    ho_coherent_state,
    linear_potential_gaussian,
    to_momentum_space,
)
from epsqp.transforms import (
    apply_extended_transform,
    shear_spectrum,
    wigner_direct,
    wigner_equation_residual,
)


def _state_triplet(q_grid, params, t=0.4, dt=1e-3, q0=0.5, p0=0.0, linear=False):
    if linear:
        state = partial(linear_potential_gaussian, q_grid, params, q0, p0, math.sqrt(0.5))
    else:
        state = partial(ho_coherent_state, q_grid, params, q0, p0)
    return [state(t + s * dt) for s in (-1, 0, 1)]


# ---------------------------------------------------------------------------
# quantum-potential profiles
# ---------------------------------------------------------------------------


def test_ground_state_quantum_potential_q(q_grid, harmonic_params):
    # Q(q) = hbar w / 2 - m w^2 q^2 / 2  (= 0.5 - 0.5 q^2 in natural units):
    # the quantum potential completes the classical energy balance of the
    # stationary state
    psi = ho_coherent_state(q_grid, harmonic_params, q0=0.0, p0=0.0, t=0.0)
    values = quantum_potential(psi)
    mask = amplitude_mask(np.abs(psi.values))
    x = q_grid.points
    expected = 0.5 - 0.5 * x**2
    assert np.max(np.abs(values[mask] - expected[mask])) < 1e-8
    assert np.isnan(values[~mask]).all()
    i0 = int(np.argmin(np.abs(x)))
    assert values[i0] == pytest.approx(0.5, abs=1e-10)


def test_ground_state_quantum_potential_p(q_grid, harmonic_params):
    psi = ho_coherent_state(q_grid, harmonic_params, q0=0.0, p0=0.0, t=0.0)
    phi = to_momentum_space(psi)
    values = quantum_potential(phi)
    mask = amplitude_mask(np.abs(phi.values))
    p = phi.grid.points
    expected = 0.5 - 0.5 * p**2
    assert np.max(np.abs(values[mask] - expected[mask])) < 1e-8


def test_quantum_potential_space_and_potential_guards(q_grid, linear_params):
    # a linear potential has a position-space quantum potential ...
    lin = linear_potential_gaussian(q_grid, linear_params, q0=0.0, p0=0.0, sigma0=1.0)
    assert np.isfinite(quantum_potential(lin)[amplitude_mask(np.abs(lin.values))]).all()
    # ... but its momentum-space curvature coefficient -hbar^2 k/2 is zero
    lin_p = to_momentum_space(lin)
    values = quantum_potential(lin_p)
    mask = amplitude_mask(np.abs(lin_p.values))
    assert (values[mask] == 0.0).all()
    assert np.isnan(values[~mask]).all()


def test_quantum_potential_rejects_an_all_zero_state(q_grid, harmonic_params):
    zero = WaveFunction(np.zeros(q_grid.n_points), q_grid, "q", 0.0, harmonic_params)
    with pytest.raises(ValueError, match="node threshold"):
        quantum_potential(zero)


# ---------------------------------------------------------------------------
# 1D modified Hamilton-Jacobi residuals
# ---------------------------------------------------------------------------


def test_position_space_residual_harmonic(coherent_triplet_factory):
    snaps = coherent_triplet_factory()
    rep = hj_residual_q(snaps)
    assert rep.l2_norm < 1e-5
    # the decomposition is exact as array arithmetic
    full = rep.fields["residual"]
    classical = rep.fields["classical_form"]
    qpot = rep.fields["quantum_term"]
    mask = rep.fields["mask"]
    np.testing.assert_allclose(
        full[mask], (classical + qpot)[mask], atol=1e-13, rtol=0.0
    )
    # deleting the quantum term leaves exactly -Q as the classical failure
    np.testing.assert_allclose(classical[mask], (full - qpot)[mask], atol=1e-13)


@pytest.mark.parametrize("space", ["q", "p"])
@pytest.mark.parametrize("linear", [False, True])
def test_1d_residual_quantum_term_is_the_quantum_potential(
    space, linear, q_grid, harmonic_params, linear_params
):
    # the residuals' quantum term and the checked profile take one path
    snaps = _state_triplet(q_grid, linear_params if linear else harmonic_params, linear=linear)
    if space == "p":
        snaps = [to_momentum_space(s) for s in snaps]
    rep = (hj_residual_q if space == "q" else hj_residual_p)(snaps)
    mask = rep.fields["mask"]
    values = quantum_potential(snaps[1])
    assert np.array_equal(rep.fields["quantum_term"][mask], values[mask])
    assert np.array_equal(np.isnan(values), ~mask)


def test_position_space_residual_halves_with_dt(coherent_triplet_factory):
    l2 = hj_residual_q(coherent_triplet_factory(dt=1e-3)).l2_norm
    l2_half = hj_residual_q(coherent_triplet_factory(dt=5e-4)).l2_norm
    assert l2 / l2_half >= 3.5  # second-order time stencil


def test_position_space_residual_linear(linear_triplet_factory):
    rep = hj_residual_q(linear_triplet_factory())
    assert rep.l2_norm < 1e-5


# away from unit constants (mass 2), so a swapped or dropped coefficient shows
_M2_LINEAR = PhysicalParams(mass=2.0, potential=Potential(b=0.7))
_M2_HARMONIC = PhysicalParams(mass=2.0, potential=Potential(k=1.5))


def _p_triplet(state, t=0.4, dt=1e-3):
    return [to_momentum_space(state(t + s * dt)) for s in (-1, 0, 1)]


def test_momentum_space_residual_linear(linear_triplet_factory, q_grid):
    snaps = [to_momentum_space(s) for s in linear_triplet_factory()]
    rep = hj_residual_p(snaps)
    assert rep.name == "pspace-hj-linear"
    assert rep.l2_norm < 1e-5
    # first-order equation: the quantum term is exactly zero
    assert rep.metadata["quantum_term_l2"] == 0.0
    rep = hj_residual_p(
        _p_triplet(partial(linear_potential_gaussian, q_grid, _M2_LINEAR, 0.5, 0.0, math.sqrt(0.5)))
    )
    assert rep.l2_norm < 1e-5
    assert rep.metadata["quantum_term_l2"] == 0.0


def test_momentum_space_residual_harmonic(coherent_triplet_factory, q_grid):
    snaps = [to_momentum_space(s) for s in coherent_triplet_factory()]
    rep = hj_residual_p(snaps)
    assert rep.name == "pspace-hj-harmonic"
    assert rep.l2_norm < 1e-5
    coherent = partial(ho_coherent_state, q_grid, _M2_HARMONIC, 0.5, 0.0)
    assert hj_residual_p(_p_triplet(coherent)).l2_norm < 1e-5


@pytest.mark.parametrize(
    "residual, potential",
    [(hj_residual_q, None), (hj_residual_p, "linear"), (hj_residual_p, "harmonic")],
)
def test_momentum_space_residual_guards(
    residual, potential, coherent_triplet_factory, linear_triplet_factory
):
    # every 1D residual rejects the other space and a pair of snapshots
    own = linear_triplet_factory() if potential == "linear" else coherent_triplet_factory()
    if potential is None:
        space, wrong_space = "q", [to_momentum_space(s) for s in own]
    else:
        space, wrong_space, own = "p", own, [to_momentum_space(s) for s in own]
    with pytest.raises(ValueError, match=f"{space}-space"):
        residual(wrong_space)
    with pytest.raises(ValueError, match="three snapshots"):
        residual(own[:2])


def test_snapshot_validation(coherent_triplet_factory):
    snaps = coherent_triplet_factory()
    with pytest.raises(ValueError):
        hj_residual_q(snaps[:2])
    with pytest.raises(ValueError):
        hj_residual_q([snaps[0], snaps[0], snaps[2]])  # unequal spacing


# ---------------------------------------------------------------------------
# phase-space residuals
# ---------------------------------------------------------------------------


def test_eps_residual_harmonic(q_grid, harmonic_params):
    rep = hj_residual_eps(_state_triplet(q_grid, harmonic_params))
    assert rep.name == "eps-hj-harmonic"
    assert rep.l2_norm < 1e-5


def test_eps_residual_linear(q_grid, linear_params):
    rep = hj_residual_eps(_state_triplet(q_grid, linear_params, linear=True))
    assert rep.name == "eps-hj-linear"
    assert rep.l2_norm < 1e-5


def test_eps_residual_needs_three_snapshots(q_grid, harmonic_params):
    snaps = _state_triplet(q_grid, harmonic_params)
    with pytest.raises(ValueError, match="three snapshots"):
        hj_residual_eps(snaps[:2])
    with pytest.raises(ValueError, match="position-space"):
        hj_residual_eps([to_momentum_space(s) for s in snaps])


def test_classical_form_suffices_only_at_minus_half(q_grid, harmonic_params):
    rep_half = hj_residual_transformed(_state_triplet(q_grid, harmonic_params), -0.5)
    classical_half = rep_half.metadata["classical_form_l2"]
    assert classical_half < 1e-5
    # at alpha = 0 the classical form fails by the full quantum term
    rep_zero = hj_residual_eps(_state_triplet(q_grid, harmonic_params))
    classical_zero = rep_zero.metadata["classical_form_l2"]
    assert classical_zero > 100.0 * classical_half


@pytest.mark.parametrize("n", [128, 256, 1024])
def test_eps_residual_vanishes_on_the_stationary_pair(harmonic_params, n):
    # q0 = p0 = 0: the energy phases cancel in psi(q) conj(phi(p)), so S_t is
    # zero and no dt^2 floor hides a wrong restoration of the kernel's
    # gradients (-p into S_q, -q into S_p): the coefficient the data demands
    # is 1/2 and the residual vanishes, both to rounding
    states = _state_triplet(make_grid(n, -10.0, 10.0), harmonic_params, q0=0.0)
    rep = hj_residual_eps(states)
    assert abs(rep.metadata["fitted_coefficient"] - 0.5) <= 1e-8
    assert rep.l2_norm <= 1e-8
    same = hj_residual_transformed(states, 0.0)
    summary = lambda r: (r.l2_norm, r.max_norm, r.masked_fraction, r.metadata)
    assert summary(same) == summary(rep)


# ---------------------------------------------------------------------------
# alpha sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_inputs(q_grid, harmonic_params):
    """The state triplet the sweep and the transformed residual take."""
    return _state_triplet(q_grid, harmonic_params)


@pytest.fixture(scope="module")
def chi_inputs(sweep_inputs, grid2):
    return [chi_build(psi, grid2) for psi in sweep_inputs]


def test_alpha_sweep_finds_the_vanishing_point(sweep_inputs):
    alphas = (-1.0, -0.75, -0.5, -0.25, 0.0)
    res = alpha_sweep(sweep_inputs, alphas)
    assert res.fit.r_squared > 0.999
    assert abs(res.fit.zero_crossing - (-0.5)) < 1e-3
    # measured coefficient tracks 1/2 + alpha across the sweep
    for a, c in zip(res.alphas, res.coefficients):
        assert c == pytest.approx(0.5 + a, abs=5e-3)


def test_alpha_sweep_input_validation(sweep_inputs):
    with pytest.raises(ValueError):
        alpha_sweep(sweep_inputs, (0.0, -0.5, -1.0))  # unsorted
    with pytest.raises(ValueError):
        alpha_sweep(sweep_inputs, (-0.5, 0.0))  # too few
    with pytest.raises(ValueError):
        alpha_sweep(sweep_inputs, (-1.0, -0.4, 0.0))  # missing -1/2
    with pytest.raises(ValueError, match="three snapshots"):
        alpha_sweep(sweep_inputs[:2], (-1.0, -0.5, 0.0))
    with pytest.raises(ValueError, match="position-space"):
        alpha_sweep([to_momentum_space(s) for s in sweep_inputs], (-1.0, -0.5, 0.0))


def test_alpha_sweep_equals_per_alpha_residuals(sweep_inputs):
    # the sweep shears spectra it takes once; each alpha on its own must
    # give the same numbers
    alphas = (-1.0, -0.75, -0.5, -0.25, 0.0)
    res = alpha_sweep(sweep_inputs, alphas)
    for i, a in enumerate(alphas):
        rep = hj_residual_transformed(sweep_inputs, a)
        swept = res.reports[i]
        assert swept.name == rep.name
        assert swept.fields == {}
        assert set(rep.fields) >= {"residual", "q_term", "mask"}
        for got, want in (
            (res.coefficients[i], rep.metadata["fitted_coefficient"]),
            (res.term_norms[i], rep.metadata["quantum_term_l2"]),
            (res.classical_norms[i], rep.metadata["classical_form_l2"]),
            (res.full_norms[i], rep.l2_norm),
            (res.remainder_norms[i], rep.metadata["remainder_l2"]),
            (swept.max_norm, rep.max_norm),
        ):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_shears_leave_the_caller_chi_unchanged(q_grid, grid2, harmonic_params):
    # shear_spectrum may write into the spectrum it reads, and the sweep
    # shears spectra it builds from the states: every shear must still leave
    # the caller's chi and states as they were, bit for bit
    states = _state_triplet(q_grid, harmonic_params)
    chi = chi_build(states[1], grid2)
    held = [chi, *states]
    before = [s.values.tobytes() for s in held]
    apply_extended_transform(chi, -0.5)
    hj_residual_transformed(states, -0.75)
    hj_residual_transformed(states, 0.0)
    alpha_sweep(states, (-1.0, -0.75, -0.5, -0.25, 0.0))
    assert [s.values.tobytes() for s in held] == before


@pytest.mark.parametrize(
    "values, alpha",
    [*((v, a) for v in ("chi", "random") for a in (-1.0, -0.75, -0.5, -0.25)), ("wigner", 0.0)],
)
def test_mask_box_gradients_match_whole_grid_derivatives(chi_inputs, values, alpha):
    # every phase-space residual takes its mask, box and gradients from
    # mask_box_gradients: a sheared chi, any complex field, a real Wigner
    # function.  On the box they must be the whole-grid derivatives.
    center = chi_inputs[1]
    grid = center.grid
    if values == "chi":
        f = center.values
    elif values == "random":
        rng = np.random.default_rng(7)
        f = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    else:
        psi = ho_coherent_state(grid.q_axis, center.params, q0=0.5, p0=0.0, t=center.t)
        f = np.real(wigner_direct(psi, grid).values)
    if alpha != 0.0:
        spectrum = np.fft.fft2(f)
        f = np.fft.ifft2(shear_spectrum(spectrum, grid, alpha, center.params.hbar, out=spectrum))
    mask, box, *fields = mask_box_gradients(f, grid)
    np.testing.assert_array_equal(mask, amplitude_mask(np.abs(f)))
    assert box == mask_box(mask)
    if values != "random":
        assert box != (slice(None), slice(None))
    expected = (
        f,
        spectral_derivative_2d(f, grid, axis=1),
        spectral_derivative_2d(f, grid, axis=0),
    )
    for got, want in zip(fields, expected):
        want = want[box]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("alpha, passes", [(-0.75, (11, 8, 2300)), (0.0, (5, 2, 360))])
def test_transformed_residual_fft_passes(monkeypatch, sweep_inputs, grid2, alpha, passes):
    # alpha != 0: each snapshot's chi_spectrum is two 1D transforms of the
    # state (its phi and fft(psi)) and one forward p pass; then two inverse
    # passes for the sheared centre and for each sheared t +- dt field, and
    # one round trip per gradient.  alpha = 0 builds no spectra: the phi of
    # each state, and one round trip per gradient.  The last entry
    # bounds the forward and inverse lanes together: at n = 256 the box
    # prunes alpha = -0.75 to 2290 lanes (its 16 whole passes are 4096) and
    # alpha = 0 to 349 (4 whole passes are 1024).
    calls = dict.fromkeys(("fft", "ifft", "fft2", "ifft2"), 0)
    lanes = dict.fromkeys(calls, 0)
    for name in calls:
        def counted(a, *args, _name=name, _call=getattr(np.fft, name), axis=-1, **kwargs):
            calls[_name] += 1
            lanes[_name] += a.size // a.shape[axis]
            return _call(a, *args, axis=axis, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    hj_residual_transformed(sweep_inputs, alpha)
    assert calls == {"fft": passes[0], "ifft": passes[1], "fft2": 0, "ifft2": 0}
    whole = (passes[0] + passes[1]) * grid2.shape[0]
    assert sum(lanes.values()) <= passes[2] < whole


def _array_bytes(obj) -> int:
    """Total nbytes of the numpy arrays reachable from ``obj``."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_array_bytes(v) for v in vars(obj).values())
    return 0


def test_alpha_sweep_memory_does_not_grow_with_alphas(harmonic_params):
    snaps = _state_triplet(make_grid(64, -10.0, 10.0), harmonic_params)
    few = alpha_sweep(snaps, (-1.0, -0.75, -0.5, -0.25, 0.0))
    many = alpha_sweep(snaps, tuple((i - 20) * 5 / 100 for i in range(21)))
    assert len(many.reports) == 21
    assert _array_bytes(many) == _array_bytes(few)
    # the walker does see fields when a report holds them
    assert _array_bytes(hj_residual_transformed(snaps, -0.5)) > 0


def test_alpha_sweep_frees_its_sheared_fields(temporary_arrays, harmonic_params):
    # The sweep holds the three chi spectra and the engine one work buffer;
    # the sheared centre field and its amplitude mask set the peak, every
    # later array is box-sized and nothing outside the engine keeps a
    # sheared field, so the peak stays under 5.0 n x n arrays (measured
    # 4.81).
    n = 512
    q_grid = make_grid(n, -10.0, 10.0)
    snaps = _state_triplet(q_grid, harmonic_params)
    alphas = (-1.0, -0.75, -0.5, -0.25, 0.0)
    assert temporary_arrays(lambda: alpha_sweep(snaps, alphas), n) <= 5.0


def test_alpha_sweep_peaks_as_low_with_alpha_zero(temporary_arrays, harmonic_params):
    # alpha = 0 differentiates the product psi(q) conj(phi(p)) beside the
    # three spectra the sheared alphas read: the sweep peaks under 5.0 n x n
    # arrays with alpha = 0 as without it (measured 4.81 and 4.78).
    n = 512
    snaps = _state_triplet(make_grid(n, -10.0, 10.0), harmonic_params)
    peaks = [
        temporary_arrays(lambda: alpha_sweep(snaps, alphas), n)
        for alphas in ((-1.0, -0.75, -0.5, -0.25, 0.0), (-1.0, -0.75, -0.5, -0.25))
    ]
    assert max(peaks) <= 5.0
    assert peaks[0] <= peaks[1] + 0.25


def test_eps_residual_allocates_little(temporary_arrays, harmonic_params):
    # from the states the engine builds one n x n field, the centre product,
    # with its amplitude and mask; the returned report's fields are crops of
    # the mask box and the evaluation itself works on the box: the peak stays
    # under 1.75 n x n arrays (measured 1.67)
    n = 512
    snaps = _state_triplet(make_grid(n, -10.0, 10.0), harmonic_params)
    assert temporary_arrays(lambda: hj_residual_eps(snaps), n) <= 1.75


def _whole_grid(monkeypatch):
    """Make every engine evaluate on the whole grid instead of the mask box: all of
    them take their box from ``numerics.mask_box_gradients``."""
    monkeypatch.setattr(numerics, "mask_box", lambda mask: (slice(None), slice(None)))


def _same_report(got, want):
    assert (got.l2_norm, got.max_norm, got.masked_fraction) == pytest.approx(
        (want.l2_norm, want.max_norm, want.masked_fraction), rel=1e-12, abs=0.0
    )
    assert got.metadata.keys() == want.metadata.keys()
    for key, value in want.metadata.items():
        assert got.metadata[key] == (value if isinstance(value, str) else pytest.approx(value, rel=1e-12))
    residual = masked_field(got.fields["residual"], got.fields["mask"], got.fields["box"])
    np.testing.assert_allclose(residual, want.fields["residual"], rtol=1e-12, equal_nan=True)


@pytest.mark.parametrize("axis", [1, 0])
def test_box_evaluation_keeps_a_wrapping_mask(monkeypatch, chi_inputs, sweep_inputs, grid2, axis):
    # rolled by n/2 the mask straddles the periodic edge of that axis, so
    # the box takes the axis whole; the other axis is still cropped.  The
    # chi residuals take states: rolled by n/2 in q, or times (-1)^j, a
    # shift by n/2 in p, their chi is rolled the same way.
    n = grid2.shape[axis]
    shift = (lambda v: np.roll(v, n // 2)) if axis == 1 else (lambda v: v * (-1.0) ** np.arange(n))
    states = [replace(s, values=shift(s.values)) for s in sweep_inputs]
    wigners = [
        PhaseSpaceField(np.abs(np.roll(s.values, n // 2, axis=axis)), s.grid, s.t, s.params, kind="wigner")
        for s in chi_inputs
    ]
    evaluations = (
        lambda: hj_residual_eps(states),
        lambda: hj_residual_transformed(states, -0.75),
        lambda: wigner_equation_residual(wigners),
    )
    boxed = [evaluate() for evaluate in evaluations]
    for rep in boxed:
        box = mask_box(rep.fields["mask"])
        assert box[axis] == slice(None) and box[1 - axis] != slice(None)
    _whole_grid(monkeypatch)
    for got, evaluate in zip(boxed, evaluations):
        _same_report(got, evaluate())


@pytest.mark.parametrize("engine", ["eps", "transformed", "wigner"])
def test_residual_fields_are_box_crops(sweep_inputs, grid2, engine):
    # every 2D field of a residual report is a crop of the mask's box, NaN
    # off the mask; masked_field puts it on the whole grid
    if engine == "wigner":
        rep = wigner_equation_residual([wigner_direct(psi, grid2) for psi in sweep_inputs])
    elif engine == "eps":
        rep = hj_residual_eps(sweep_inputs)
    else:
        rep = hj_residual_transformed(sweep_inputs, -0.75)
    mask, box = rep.fields["mask"], rep.fields["box"]
    assert mask.shape == grid2.shape and box == mask_box(mask) and box != (slice(None), slice(None))
    crops = [key for key in ("residual", "classical_form", "quantum_term", "q_term") if key in rep.fields]
    assert "residual" in crops
    for key in crops:
        crop = rep.fields[key]
        assert crop.shape == mask[box].shape
        assert np.isnan(crop[~mask[box]]).all() and np.isfinite(crop[mask[box]]).all()
        whole = masked_field(crop, mask, box)
        assert whole.shape == grid2.shape and np.isnan(whole[~mask]).all()
        np.testing.assert_array_equal(whole[box], crop)


@pytest.mark.parametrize("engine", ["eps", "transformed", "wigner"])
def test_empty_mask_is_a_value_error(sweep_inputs, grid2, engine):
    if engine == "wigner":
        zeros = [
            PhaseSpaceField(np.zeros(grid2.shape), grid2, s.t, s.params, kind="wigner") for s in sweep_inputs
        ]
        evaluate = wigner_equation_residual
    else:
        zeros = [replace(s, values=np.zeros(grid2.q_axis.n_points)) for s in sweep_inputs]
        evaluate = hj_residual_eps if engine == "eps" else partial(hj_residual_transformed, alpha=-0.75)
    with pytest.raises(ValueError, match="empty mask"):
        evaluate(zeros)
