"""Quantum-potential profiles, modified Hamilton-Jacobi residuals, and the
shear-parameter sweep locating where the quantum term vanishes."""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from oracles import coherent_sheared_q_spectrum

from epsqp import numerics
from epsqp.eps_core import chi_build
from epsqp.numerics import (
    PhysicalParams,
    Potential,
    amplitude_mask,
    make_grid,
    mask_box,
    within,
)
from epsqp.quantum_potential import (
    _Strip,
    alpha_sweep,
    hj_residual_eps,
    hj_residual_p,
    hj_residual_q,
    hj_residual_transformed,
    quantum_potential,
)
from epsqp.states import (
    WaveFunction,
    ho_coherent_state,
    linear_potential_gaussian,
    to_momentum_space,
)
from epsqp.transforms import (
    apply_extended_transform,
    wigner_equation_residual,
)


def centred(engine, snapshots):
    """``engine``'s report of the snapshots at t - dt, t, t + dt: its centre's ``at`` of the pair."""
    minus, center, plus = snapshots
    return engine(center)(minus, plus)


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
    rep = centred(hj_residual_q, snaps)
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
    rep = centred(hj_residual_q if space == "q" else hj_residual_p, snaps)
    mask = rep.fields["mask"]
    values = quantum_potential(snaps[1])
    assert np.array_equal(rep.fields["quantum_term"][mask], values[mask])
    assert np.array_equal(np.isnan(values), ~mask)


def test_position_space_residual_halves_with_dt(coherent_triplet_factory):
    l2 = centred(hj_residual_q, coherent_triplet_factory(dt=1e-3)).l2_norm
    l2_half = centred(hj_residual_q, coherent_triplet_factory(dt=5e-4)).l2_norm
    assert l2 / l2_half >= 3.5  # second-order time stencil


def test_position_space_residual_linear(linear_triplet_factory):
    rep = centred(hj_residual_q, linear_triplet_factory())
    assert rep.l2_norm < 1e-5


# away from unit constants (mass 2), so a swapped or dropped coefficient shows
_M2_LINEAR = PhysicalParams(mass=2.0, potential=Potential(b=0.7))
_M2_HARMONIC = PhysicalParams(mass=2.0, potential=Potential(k=1.5))


def _p_triplet(state, t=0.4, dt=1e-3):
    return [to_momentum_space(state(t + s * dt)) for s in (-1, 0, 1)]


def test_momentum_space_residual_linear(linear_triplet_factory, q_grid):
    snaps = [to_momentum_space(s) for s in linear_triplet_factory()]
    rep = centred(hj_residual_p, snaps)
    assert rep.name == "pspace-hj-linear"
    assert rep.l2_norm < 1e-5
    # first-order equation: the quantum term is exactly zero
    assert rep.metadata["quantum_term_l2"] == 0.0
    falling = partial(linear_potential_gaussian, q_grid, _M2_LINEAR, 0.5, 0.0, math.sqrt(0.5))
    rep = centred(hj_residual_p, _p_triplet(falling))
    assert rep.l2_norm < 1e-5
    assert rep.metadata["quantum_term_l2"] == 0.0


def test_momentum_space_residual_harmonic(coherent_triplet_factory, q_grid):
    snaps = [to_momentum_space(s) for s in coherent_triplet_factory()]
    rep = centred(hj_residual_p, snaps)
    assert rep.name == "pspace-hj-harmonic"
    assert rep.l2_norm < 1e-5
    coherent = partial(ho_coherent_state, q_grid, _M2_HARMONIC, 0.5, 0.0)
    assert centred(hj_residual_p, _p_triplet(coherent)).l2_norm < 1e-5


@pytest.mark.parametrize(
    "residual, potential",
    [(hj_residual_q, None), (hj_residual_p, "linear"), (hj_residual_p, "harmonic")],
)
def test_momentum_space_residual_guards(
    residual, potential, coherent_triplet_factory, linear_triplet_factory
):
    # every 1D residual rejects a centre in the other space, and a pair there
    own = linear_triplet_factory() if potential == "linear" else coherent_triplet_factory()
    if potential is None:
        space, wrong_space = "q", [to_momentum_space(s) for s in own]
    else:
        space, wrong_space, own = "p", own, [to_momentum_space(s) for s in own]
    with pytest.raises(ValueError, match=f"{space}-space"):
        residual(wrong_space[1])
    with pytest.raises(ValueError, match="different grids"):
        residual(own[1])(wrong_space[0], wrong_space[2])


def test_snapshot_validation(coherent_triplet_factory):
    snaps = coherent_triplet_factory()
    at = hj_residual_q(snaps[1])
    with pytest.raises(ValueError, match="equally spaced"):
        at(snaps[0], snaps[1])  # unequal spacing
    with pytest.raises(ValueError, match="equally spaced"):  # dt <= 0
        at(snaps[2], snaps[0])


# ---------------------------------------------------------------------------
# phase-space residuals
# ---------------------------------------------------------------------------


def test_eps_residual_harmonic(q_grid, harmonic_params):
    rep = centred(hj_residual_eps, _state_triplet(q_grid, harmonic_params))
    assert rep.name == "eps-hj-harmonic"
    assert rep.l2_norm < 1e-5


def test_eps_residual_linear(q_grid, linear_params):
    rep = centred(hj_residual_eps, _state_triplet(q_grid, linear_params, linear=True))
    assert rep.name == "eps-hj-linear"
    assert rep.l2_norm < 1e-5


def test_eps_residual_needs_three_snapshots(q_grid, harmonic_params):
    # a position-space centre, and a pair of position-space states equally spaced about it
    snaps = _state_triplet(q_grid, harmonic_params)
    with pytest.raises(ValueError, match="position-space"):
        hj_residual_eps(to_momentum_space(snaps[1]))
    at = hj_residual_eps(snaps[1])
    with pytest.raises(ValueError, match="different grids"):
        at(*(to_momentum_space(s) for s in snaps[::2]))
    with pytest.raises(ValueError, match="equally spaced"):
        at(snaps[0], snaps[1])


def test_classical_form_suffices_only_at_minus_half(q_grid, harmonic_params):
    rep_half = hj_residual_transformed(_state_triplet(q_grid, harmonic_params), -0.5)
    classical_half = rep_half.metadata["classical_form_l2"]
    assert classical_half < 1e-5
    # at alpha = 0 the classical form fails by the full quantum term
    rep_zero = centred(hj_residual_eps, _state_triplet(q_grid, harmonic_params))
    classical_zero = rep_zero.metadata["classical_form_l2"]
    assert classical_zero > 100.0 * classical_half


@pytest.mark.parametrize("n", [128, 256, 1024])
def test_eps_residual_vanishes_on_the_stationary_pair(harmonic_params, n):
    # q0 = p0 = 0: the energy phases cancel in psi(q) conj(phi(p)), so S_t is
    # zero and no dt^2 floor hides a wrong restoration of the kernel's
    # gradients (-p into S_q, -q into S_p): the coefficient the data demands
    # is 1/2 and the residual vanishes, both to rounding
    states = _state_triplet(make_grid(n, -10.0, 10.0), harmonic_params, q0=0.0)
    rep = centred(hj_residual_eps, states)
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
    # the whole-grid shear transforms in place in a buffer of its own, and the
    # sweep shears spectra it builds from the states: every shear must still
    # leave the caller's chi and states as they were, bit for bit
    states = _state_triplet(q_grid, harmonic_params)
    chi = chi_build(states[1], grid2)
    held = [chi, *states]
    before = [s.values.tobytes() for s in held]
    apply_extended_transform(chi, -0.5)
    hj_residual_transformed(states, -0.75)
    hj_residual_transformed(states, 0.0)
    alpha_sweep(states, (-1.0, -0.75, -0.5, -0.25, 0.0))
    assert [s.values.tobytes() for s in held] == before


@pytest.mark.parametrize("alpha, passes", [(-0.75, (4, 6, 218)), (0.0, (5, 2, 7))])
def test_transformed_residual_fft_passes(monkeypatch, sweep_inputs, grid2, alpha, passes):
    # Both: the phi of each state for the momentum strip.  alpha != 0: one FFT
    # pass of the shifted factors, a lane for each state and for the centre's p
    # derivative at each distinct fractional shift of the band's columns (5 at
    # alpha = -0.75: 0, +-1/4 and +-1/2), then one inverse q pass per field: the
    # centre on the strip for its mask, and on the box rows the centre, its two
    # gradients and the t +- dt fields.
    # alpha = 0 differentiates psi and phi in 1D.  The last entry bounds the
    # forward and inverse lanes together: at n = 256 the 55-row strip and the
    # 28-row box take alpha = -0.75 to 218 lanes (20 of them the factors; its 16
    # whole passes are 4096) and alpha = 0 to 7.
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


STRIP_ALPHAS = (-1.0, -0.95, -0.75, -0.7, -0.5, -0.25, -0.05, 0.25, -1.5, 2.0)


def _strip_field_errors(params, q_grid, rolled=False):
    """The largest error relative to each sample on the mask, over STRIP_ALPHAS, of the
    strip's five fields (f, f_q, f_p and the fields at t -+ dt) of the coherent state from
    q0 = 0.5 at t = 0.4 against ``coherent_sheared_q_spectrum``'s on every q column, brought
    to q by one inverse FFT, and the strip's rows.  Rolled, the states are times (-1)^j, chi
    rolled by n/2 in p."""
    n = q_grid.n_points
    times = (0.4, 0.4 - 1e-3, 0.4 + 1e-3)  # the centre first
    states = [ho_coherent_state(q_grid, params, 0.5, 0.0, t) for t in times]
    if rolled:
        states = [replace(s, values=s.values * (-1.0) ** np.arange(n)) for s in states]
    strip = _Strip(states)
    grid = strip.grid
    columns = np.fft.fftfreq(n, 1.0 / n)
    worst = np.zeros(5)
    for alpha in STRIP_ALPHAS:
        mask, box, *fields = strip.fields(alpha)
        rows = strip.out_rows(alpha)
        p = grid.p_axis.points[rows]
        (f, f_p), (minus, _), (plus, _) = (
            coherent_sheared_q_spectrum(params, grid, 0.5, 0.0, t, alpha, p, columns) for t in times
        )
        spectra = (f, f * (1j * grid.q_axis.wavenumbers), f_p, minus, plus)
        expected = [np.roll(np.fft.ifft(s, axis=1), n // 2 if rolled else 0, axis=0) for s in spectra]
        np.testing.assert_array_equal(mask[rows], amplitude_mask(np.abs(expected[0])))
        assert mask[rows].sum() == mask.sum()
        inside, crop = mask[box], (within(box[0], rows, n), box[1])
        for i, (got, want) in enumerate(zip(fields, expected)):
            want = want[crop]
            worst[i] = max(worst[i], np.max(np.abs(got - want)[inside] / np.abs(want)[inside]))
    return strip.rows, worst


@pytest.mark.parametrize(
    "n, rolled", [(64, False), (128, False), (256, False), (1024, False), (64, True), (128, True), (256, True)]
)
def test_strip_fields_match_the_whole_grid_shear(harmonic_params, n, rolled):
    # The strip's fields are the whole grid's sheared chi, its gradients and the fields
    # at t -+ dt on the rows it occupies, refereed by the closed form of the coherent
    # state's, periodic in p as the discrete shear is: at alpha = 0.25, -1.5 and 2 and
    # n = 64 and 128 an argument passes the p axis.  At alpha = 2 the field leaves the
    # strip and its rows must grow.  Rolled by n/2 in p (times (-1)^j), phi straddles the
    # p edge and the strip takes the whole axis (n^2 products, so not at n = 1024).
    # Bounds: a decade over the worst measured, 5.6e-10 for f and the fields at t -+ dt
    # and 1.1e-8 for f_q, whose relative error peaks beside its zero line at alpha =
    # -1/2; f_p, measured 1.3e-9 (beside its zero line too), keeps the 9.9e-9 it had
    # against the whole-grid shear, which reads 4.2-5.2e-6 off the closed form at the
    # mask edge: it moves chi's product, whose p-conjugate extent aliases there.
    rows, errors = _strip_field_errors(harmonic_params, make_grid(n, -10.0, 10.0), rolled)
    assert (rows == slice(None)) == rolled
    assert np.all(errors < (5.6e-9, 1.1e-7, 9.9e-9, 5.6e-9, 5.6e-9)), errors


@pytest.mark.parametrize("n", [64, 128, 256, 1024])
def test_strip_fields_match_the_closed_form_off_the_grid(harmonic_params, n):
    # as above on a domain whose q_min / dq is not an integer, with no sample at q = 0,
    # at hbar = 0.7.  Bounds a decade over the worst measured: 5.3e-10 for f and the
    # fields at t -+ dt, and for the gradients, beside their zero lines at alpha = -1/2,
    # 2.6e-8 (f_q) and 6.1e-9 (f_p), where each reads 1e-9 of |f|
    params = replace(harmonic_params, hbar=0.7)
    _, errors = _strip_field_errors(params, make_grid(n, -9.3, 10.7))
    assert np.all(errors < (5.3e-9, 2.6e-7, 6.1e-8, 5.3e-9, 5.3e-9)), errors


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
    # Per alpha the engine holds a block of at most 2^14 shifted factors at a
    # time, the centre's q-spectrum and its p derivative's on the 55 strip rows
    # and 109 band columns, the centre on the strip rows and the box-row fields,
    # and nothing outside the engine keeps a sheared field.  The whole-grid bool
    # mask is the one n x n array: the peak stays under 1.1 n x n complex arrays
    # (measured 0.72).
    n = 512
    q_grid = make_grid(n, -10.0, 10.0)
    snaps = _state_triplet(q_grid, harmonic_params)
    alphas = (-1.0, -0.75, -0.5, -0.25, 0.0)
    assert temporary_arrays(lambda: alpha_sweep(snaps, alphas), n) <= 1.1


def test_alpha_sweep_peaks_as_low_with_alpha_zero(temporary_arrays, harmonic_params):
    # alpha = 0 forms the product psi(q) conj(phi(p)) on the strip rows only:
    # the sweep peaks under 1.1 n x n arrays with alpha = 0 as without it
    # (measured 0.72 and 0.69).
    n = 512
    snaps = _state_triplet(make_grid(n, -10.0, 10.0), harmonic_params)
    peaks = [
        temporary_arrays(lambda: alpha_sweep(snaps, alphas), n)
        for alphas in ((-1.0, -0.75, -0.5, -0.25, 0.0), (-1.0, -0.75, -0.5, -0.25))
    ]
    assert max(peaks) <= 1.1
    assert peaks[0] <= peaks[1] + 0.05


def test_eps_residual_allocates_little(temporary_arrays, harmonic_params):
    # the engine forms the centre product on the centre's 55 strip rows only, with
    # its amplitude and mask, and the box fields from the 1D factors, the pair's
    # once the centre's terms are built; the returned report holds box crops and
    # the whole-grid bool mask: the peak stays under 0.52 n x n arrays (measured
    # 0.47, and 0.67 while the triple form held the pair beside the centre)
    n = 512
    snaps = _state_triplet(make_grid(n, -10.0, 10.0), harmonic_params)
    assert temporary_arrays(lambda: centred(hj_residual_eps, snaps), n) <= 0.52


def _whole_grid(monkeypatch):
    """Make every engine evaluate on the whole grid instead of the mask box: all of
    them take their box from ``numerics.mask_box``, and the sheared centre, whose box
    rows are cut from the rows it occupies, then occupies every row."""
    monkeypatch.setattr(numerics, "mask_box", lambda mask: (slice(None), slice(None)))
    monkeypatch.setattr(_Strip, "out_rows", lambda self, alpha: slice(None))


def _on_grid(crop, box, shape):
    """A box crop placed on the whole grid, NaN off the box."""
    whole = np.full(shape, np.nan)
    whole[box] = crop
    return whole


def _same_report(got, want):
    assert (got.l2_norm, got.max_norm, got.masked_fraction) == pytest.approx(
        (want.l2_norm, want.max_norm, want.masked_fraction), rel=1e-12, abs=0.0
    )
    assert got.metadata.keys() == want.metadata.keys()
    for key, value in want.metadata.items():
        assert got.metadata[key] == (value if isinstance(value, str) else pytest.approx(value, rel=1e-12))
    residual = _on_grid(got.fields["residual"], got.fields["box"], got.fields["mask"].shape)
    np.testing.assert_allclose(residual, want.fields["residual"], rtol=1e-12, equal_nan=True)


@pytest.mark.parametrize("axis", [1, 0])
def test_box_evaluation_keeps_a_wrapping_mask(monkeypatch, sweep_inputs, grid2, axis):
    # rolled by n/2 the mask straddles the periodic edge of that axis, so
    # the box takes the axis whole; the other axis is still cropped.  The
    # chi residuals take states: rolled by n/2 in q, or times (-1)^j, a
    # shift by n/2 in p, their chi is rolled the same way.  (W of such a
    # state fills both axes: wigner_direct zero-pads in q and resamples at
    # the p Nyquist, so the Wigner residual has no wrapping case.)
    n = grid2.shape[axis]
    shift = (lambda v: np.roll(v, n // 2)) if axis == 1 else (lambda v: v * (-1.0) ** np.arange(n))
    states = [replace(s, values=shift(s.values)) for s in sweep_inputs]
    evaluations = (
        lambda: centred(hj_residual_eps, states),
        lambda: hj_residual_transformed(states, -0.75),
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
    # off the mask, so on the whole grid it is NaN off the mask
    if engine == "wigner":
        rep = centred(wigner_equation_residual, sweep_inputs)
    elif engine == "eps":
        rep = centred(hj_residual_eps, sweep_inputs)
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
        whole = _on_grid(crop, box, mask.shape)
        assert whole.shape == grid2.shape and np.isnan(whole[~mask]).all()
        np.testing.assert_array_equal(whole[box], crop)


@pytest.mark.parametrize(
    "evaluate", [hj_residual_eps, partial(hj_residual_transformed, alpha=-0.75), wigner_equation_residual]
)
def test_a_mask_past_its_strip_is_a_value_error(monkeypatch, sweep_inputs, evaluate):
    # a strip cut where |phi| is 1e-2 of its peak is narrower than the 1e-6 amplitude
    # mask, which then reaches the strip's edge rows inside the p axis (W's mask is
    # narrower than chi's: cut at 1e-3 it still fits its strip)
    monkeypatch.setattr("epsqp.eps_core.STRIP_TAIL", 1e-2)
    with pytest.raises(ValueError, match="edge of its momentum strip"):
        evaluate(sweep_inputs) if isinstance(evaluate, partial) else centred(evaluate, sweep_inputs)


@pytest.mark.parametrize("engine", ["eps", "transformed", "wigner"])
def test_empty_mask_is_a_value_error(sweep_inputs, grid2, engine):
    zeros = [replace(s, values=np.zeros(grid2.q_axis.n_points)) for s in sweep_inputs]
    evaluate = {
        "eps": partial(centred, hj_residual_eps),
        "transformed": partial(hj_residual_transformed, alpha=-0.75),
        "wigner": partial(centred, wigner_equation_residual),
    }[engine]
    with pytest.raises(ValueError, match="empty mask"):
        evaluate(zeros)


def _same_bits(got, want):
    """The two reports are equal bit for bit: name, norms, metadata and every field."""
    assert (got.name, got.l2_norm, got.max_norm, got.masked_fraction) == (
        want.name, want.l2_norm, want.max_norm, want.masked_fraction
    )
    assert got.metadata == want.metadata
    assert got.fields.keys() == want.fields.keys()
    for key, value in want.fields.items():
        if isinstance(value, np.ndarray):
            assert got.fields[key].dtype == value.dtype and got.fields[key].tobytes() == value.tobytes(), key
        else:
            assert got.fields[key] == value, key


@pytest.mark.parametrize("engine", [hj_residual_q, hj_residual_p, hj_residual_eps, wigner_equation_residual])
def test_a_pair_leaves_its_centre_untouched(q_grid, harmonic_params, engine):
    # A halving check evaluates one centre at the dt/2 pair, then at the dt pair: an
    # in-place step on a centre array (S_q -= p, f = conj(f), ratio *= plus) would
    # change the second report, which must be a fresh centre's, bit for bit.
    coherent = partial(ho_coherent_state, q_grid, harmonic_params, 0.5, 0.0)
    snapshot = (lambda t: to_momentum_space(coherent(t))) if engine is hj_residual_p else coherent
    t, dt = 0.4, 1e-3
    at = engine(snapshot(t))
    at(snapshot(t - dt / 2), snapshot(t + dt / 2))
    pair = snapshot(t - dt), snapshot(t + dt)
    _same_bits(at(*pair), engine(snapshot(t))(*pair))
