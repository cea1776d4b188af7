"""Scenario registry plumbing: check construction, report serialization,
registry completeness.  (The scenarios' numerical content is exercised by
the acceptance suite.)"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import epsqp.scenarios as scenarios
import test_acceptance
from epsqp.eps_core import chi_build, chi_spectrum
from epsqp.numerics import amplitude_mask, fft2_passes
from epsqp.quantum_potential import AlphaSweepResult, hj_residual_eps
from epsqp.reports import ResidualReport, fit_global_constant, fit_line, masked_field
from epsqp.scenarios import (
    CHECKS,
    KIND_COMPARATORS,
    REGISTRY,
    SCENARIO_ORDER,
    Check,
    ScenarioConfig,
    ScenarioReport,
    _check_halving,
    _check_separable,
    make_check,
    run_scenario,
    to_json,
)
from epsqp.states import ho_coherent_state, to_momentum_space
from epsqp.transforms import _wigner_blocks, shear_spectrum, wigner_direct


def _strict_loads(text: str):
    """json.loads that refuses the bare NaN/Infinity tokens strict JSON lacks."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_registry_lists_every_scenario_and_all():
    assert set(SCENARIO_ORDER) | {"all"} == set(REGISTRY)
    for name, (fn, description) in REGISTRY.items():
        assert callable(fn)
        assert isinstance(description, str) and description


def test_run_scenario_rejects_unknown_names():
    with pytest.raises(KeyError):
        run_scenario("no-such-scenario", ScenarioConfig())


@pytest.mark.parametrize("name", ["q_max", "mass", "hbar", "sigma0", "eval_time"])
def test_config_rejects_non_finite_values(name):
    with pytest.raises(ValueError, match=name):
        ScenarioConfig(**{name: float("inf")})


# One check of each comparator: "<" (rounding), ">=" (rate) and ">" (fit).
COMPARATOR_CHECKS = ["wigner-shear-rel-l2", "hj-q-halving-ratio", "alpha-sweep-fit-r2"]


def test_make_check_comparators():
    # passes below, at and above the tolerance
    expected = {"<": [True, False, False], ">=": [False, True, True], ">": [False, False, True]}
    for name in COMPARATOR_CHECKS:
        tol = CHECKS[name].tolerance
        checks = [make_check(name, v) for v in (0.5 * tol, tol, 2.0 * tol)]
        comparator = checks[0].comparator
        assert comparator == KIND_COMPARATORS[CHECKS[name].kind]
        assert [c.passed for c in checks] == expected[comparator], name
        assert all(c.tolerance == tol for c in checks)
    assert {make_check(n, 0.0).comparator for n in COMPARATOR_CHECKS} == set(expected)
    with pytest.raises(KeyError):  # a misspelt check cannot enter a report unbounded
        make_check("wigner-shear-rel-l", 0.0)


def test_report_passed_aggregates_subreports():
    cfg = ScenarioConfig()
    parent = ScenarioReport("parent", cfg)
    child = ScenarioReport("child", cfg)
    child.check("wigner-shear-rel-l2", 0.0)
    parent.subreports.append(child)
    assert parent.passed
    child.check("wigner-shear-rel-l2", 1.0)
    assert not parent.passed


def test_report_json_is_deterministic_and_parseable():
    cfg = ScenarioConfig(grid_n=64)
    rep = run_scenario("classical-appendix", cfg)
    s1 = to_json(rep)
    s2 = to_json(run_scenario("classical-appendix", cfg))
    assert s1 == s2
    payload = json.loads(s1)
    assert payload["scenario"] == "classical-appendix"
    assert payload["config"]["grid_n"] == 64
    assert isinstance(payload["passed"], bool)
    assert s1.endswith("\n")


def test_config_round_trips_through_report(q_grid):
    cfg = ScenarioConfig()
    rep = run_scenario("classical-appendix", cfg)
    assert rep.config == cfg
    payload = json.loads(to_json(rep))
    # every config field appears in the serialized form
    for field_name in cfg.__dataclass_fields__:
        assert field_name in payload["config"]


def test_non_finite_check_values_fail():
    for name in COMPARATOR_CHECKS:
        for value in (math.inf, -math.inf, math.nan):
            assert not make_check(name, value).passed, (name, value)


# A rate pair and an order pair of _check_halving, by the kind of the second name.
HALVING_PAIRS = {
    False: ("hj-q-l2", "hj-q-halving-ratio"),
    True: ("wigner-eq-harmonic-l2", "wigner-eq-harmonic-order"),
}


def _halving(cfg: ScenarioConfig, order: bool, coarse_l2: float, fine_l2: float):
    """Run _check_halving on a fake residual: ``coarse_l2`` at dt, ``fine_l2`` at dt/2."""
    report = ScenarioReport("halving", cfg)
    coarse = ResidualReport("r", coarse_l2, coarse_l2, 0.0, fields={"residual": [coarse_l2]})
    fine = ResidualReport("r", fine_l2, fine_l2, 0.0)

    def residual(snaps):  # the snapshots are their times: dt triplets span 2 dt
        return coarse if snaps[2] - snaps[0] > 1.5 * cfg.dt else fine

    returned, snaps = _check_halving(report, cfg, lambda t: t, residual, *HALVING_PAIRS[order])
    assert returned is coarse
    assert snaps == [cfg.eval_time - cfg.dt, cfg.eval_time, cfg.eval_time + cfg.dt]
    assert report.residuals[0].fields == {}  # stored without its arrays
    assert [c.name for c in report.checks] == list(HALVING_PAIRS[order])
    return report


@pytest.mark.parametrize("order", [False, True])
@pytest.mark.parametrize("coarse_l2, expected", [(1e-6, "inf"), (0.0, "nan")])
def test_zero_fine_residual_fails_its_rate_check(order, coarse_l2, expected):
    report = _halving(ScenarioConfig(grid_n=16), order, coarse_l2, 0.0)
    l2_check, rate_check = report.checks
    assert l2_check.passed
    assert not rate_check.passed
    assert not report.passed
    payload = _strict_loads(to_json(report))
    assert payload["checks"][1]["value"] == expected


@pytest.mark.parametrize("order, value", [(False, 4.0), (True, 2.0)])
def test_halving_order_checks_take_log2_of_the_ratio(order, value):
    report = _halving(ScenarioConfig(grid_n=16), order, 1e-6, 2.5e-7)
    assert report.checks[1].value == value
    assert report.passed


def test_checks_table_lists_every_reported_check_in_report_order():
    # no orphan row and no unlisted check; every kind has a comparator and is used
    layout = [name for _, names in test_acceptance.REPORT_LAYOUT for name in names]
    assert list(CHECKS) == layout
    assert {spec.kind for spec in CHECKS.values()} == set(KIND_COMPARATORS)


def _recording(op: str):
    def compare(self, literal):
        self.seen.append((self.name, op, literal))
        return True

    return compare


class _RecordedValue:
    """A check value that records each comparison made with it, and lets it pass."""

    def __init__(self, name: str, seen: list):
        self.name, self.seen = name, seen

    __lt__, __le__, __gt__, __ge__ = map(_recording, ("<", "<=", ">", ">="))


def test_checks_table_agrees_with_the_acceptance_criteria():
    # The criteria keep their own tolerance literals, so that a loosened table
    # row cannot mask a regression; each literal and comparator they assert
    # must still be the table's.  Every criterion but the CLI run (10) is run
    # on recorded values.
    criteria = [
        fn for name, fn in vars(test_acceptance).items()
        if name.startswith("test_criterion_") and "runner" in inspect.signature(fn).parameters
    ]
    assert len(criteria) == 9
    cfg = ScenarioConfig()
    for criterion in criteria:
        seen: list = []
        report = ScenarioReport("recorded", cfg)
        report.checks = [Check(name, _RecordedValue(name, seen), 0.0, "", True) for name in CHECKS]
        kwargs = {"runner": lambda _: (report, 0.0), "cfg": cfg}
        criterion(**{k: kwargs[k] for k in inspect.signature(criterion).parameters})
        assert seen, criterion.__name__
        for name, op, literal in seen:
            spec = CHECKS[name]
            assert (op, literal) == (KIND_COMPARATORS[spec.kind], spec.tolerance), (criterion.__name__, name)


def test_check_kinds_match_how_values_move_with_dt():
    # Halving dt cuts every dt2-floor value by at least 3x (measured 4.00-4.17
    # at n = 128) and no other "<" value by 3x (measured <= 1.01).  A pair of
    # zeros counts as not falling.
    def values(dt):
        report = scenarios.scenario_all(ScenarioConfig(grid_n=128, dt=dt))
        return {c.name: c.value for sub in report.subreports for c in sub.checks}

    coarse, fine = values(1e-3), values(5e-4)
    for name, spec in CHECKS.items():
        if KIND_COMPARATORS[spec.kind] == "<":
            falls = coarse[name] > 0.0 and coarse[name] >= 3.0 * fine[name]
            assert falls == (spec.kind == "dt2-floor"), (name, coarse[name], fine[name])


def test_flat_line_fit_has_no_zero_crossing():
    fit = fit_line([-1.0, -0.5, 0.0], [0.0, 0.0, 0.0])
    assert fit.slope == 0.0
    assert math.isnan(fit.zero_crossing)


def test_zero_term_norms_and_flat_fit_render_as_strict_json(monkeypatch):
    # a sweep whose quantum term vanishes everywhere: the vanishing ratio
    # has a zero reference norm and the coefficient line is flat
    def flat_sweep(snapshots, alphas):
        zeros = (0.0,) * len(alphas)
        return AlphaSweepResult(
            alphas=tuple(alphas),
            coefficients=zeros,
            term_norms=zeros,
            classical_norms=zeros,
            full_norms=zeros,
            remainder_norms=zeros,
            fit=fit_line(alphas, zeros),
        )

    monkeypatch.setattr(scenarios, "alpha_sweep", flat_sweep)
    report = run_scenario("alpha-sweep", ScenarioConfig(grid_n=16))
    checks = {c.name: c for c in report.checks}
    assert checks["alpha-sweep-vanishing-ratio"].value == math.inf
    assert math.isnan(checks["alpha-sweep-zero-crossing-err"].value)
    assert math.isnan(checks["alpha-sweep-grid-stability"].value)
    for name in (
        "alpha-sweep-vanishing-ratio",
        "alpha-sweep-zero-crossing-err",
        "alpha-sweep-grid-stability",
    ):
        assert not checks[name].passed
    payload = _strict_loads(to_json(report))
    rendered = {c["name"]: c["value"] for c in payload["checks"]}
    assert rendered["alpha-sweep-vanishing-ratio"] == "inf"
    assert rendered["alpha-sweep-zero-crossing-err"] == "nan"
    assert payload["constants"]["zero_crossing"] == "nan"
    assert payload["passed"] is False


@pytest.mark.parametrize(
    "scenario, counted",
    [
        ("linear-gaussian", ("wigner_direct",)),
        ("pspace-linear", ("to_momentum_space",)),
        ("eps-residuals", ("ho_coherent_state", "linear_potential_gaussian")),
    ],
    ids=["linear-gaussian-wigner_direct", "pspace-linear-to_momentum_space", "eps-residuals-states"],
)
def test_halving_checks_build_each_snapshot_once(monkeypatch, scenario, counted):
    # the dt and dt/2 triplets share their centre snapshot, built first; the
    # dt/2 triplet is evaluated before the dt one: five snapshots per check
    calls = []
    for name in counted:
        def counting(*args, _original=getattr(scenarios, name)):
            snapshot = _original(*args)
            calls.append(snapshot.t)
            return snapshot

        monkeypatch.setattr(scenarios, name, counting)
    cfg = ScenarioConfig(grid_n=64)
    run_scenario(scenario, cfg)
    t, dt = cfg.eval_time, cfg.dt
    halving = [t, t - dt / 2, t + dt / 2, t - dt, t + dt]
    # eps-residuals: the harmonic check, the stationary ground state, the linear check
    expected = halving + [0.0] + halving if scenario == "eps-residuals" else halving
    assert calls == pytest.approx(expected, abs=1e-15)


def test_wigner_peak_reference_needs_no_sample_at_the_origin():
    # q_min / dq = -59.52 on this domain, so no q sample sits at 0 and the
    # peak check must compare with the closed form at the nearest sample
    cfg = ScenarioConfig(grid_n=128, q_min=-9.3, q_max=10.7, hbar=0.7)
    report = scenarios.scenario_wigner_equivalence(cfg)
    peak = next(c for c in report.checks if c.name == "wigner-groundstate-peak-err")
    assert peak.passed and peak.value < 1e-12
    assert report.passed


@pytest.mark.parametrize(
    "scenario, limit",
    [
        (scenarios.scenario_eps_residuals, 4.5),
        (scenarios.scenario_all, 5.1),
        (scenarios.scenario_linear_gaussian, 2.6),
        (scenarios.scenario_wigner_equivalence, 4.6),
    ],
)
def test_scenarios_free_their_fields(temporary_arrays, scenario, limit):
    # Traced peak in n x n complex arrays at n = 512, the returned reports
    # included: each n^2 array is freed after its last read, a halving check
    # holds one snapshot triplet at a time, the eps checks build chi from
    # states only where they read it whole, residual fields are mask-box
    # crops, the Wigner fits shear chi's spectrum in place, built without
    # chi, and the n/2 and 2n fits read W one column block at a time
    # (measured 4.24, 4.79, 2.40 and 4.27; the 2n = 1024 sheared chi alone
    # is 4 of them).
    n = 512
    assert temporary_arrays(lambda: scenario(ScenarioConfig(grid_n=n)), n) <= limit


def _expected_bundles(name: str, cfg: ScenarioConfig) -> dict:
    """The 2-D bundle values of ``name``, built as the scenario builds the fields
    its checks read."""
    params = scenarios._harmonic_params(cfg)
    g, g2 = scenarios._grids(cfg)
    coherent = partial(ho_coherent_state, g, params, cfg.q0, cfg.p0)
    if name == "wigner-equivalence":
        psi = coherent(cfg.eval_time)
        spectrum = chi_spectrum(psi)
        sheared = shear_spectrum(spectrum, g2, -0.5, cfg.hbar, out=np.empty_like(spectrum))
        return {"wigner": wigner_direct(psi, g2).values, "sheared-chi": fft2_passes(sheared, inverse=True)}
    t, dt = cfg.eval_time, cfg.dt
    fields = hj_residual_eps([coherent(t - dt), coherent(t), coherent(t + dt)]).fields
    return {"eps-quantum-q-term": masked_field(fields["q_term"], fields["mask"], fields["box"])}


@pytest.mark.parametrize("name", ["wigner-equivalence", "eps-residuals"])
def test_reports_hold_no_phase_space_field(retained_arrays, name):
    # A report keeps no n^2 array once its scenario returns: each 2-D field
    # bundle is a function that rebuilds its field from 1-D states or box
    # crops when it is exported (measured 0.04 and 0.03 n x n complex arrays
    # at n = 512, 1.53 and 0.57 with the fields in the report)
    n = 512
    cfg = ScenarioConfig(grid_n=n)
    held, report = retained_arrays(lambda: run_scenario(name, cfg), n)
    assert held <= 0.05
    expected = _expected_bundles(name, cfg)
    assert set(report.field_bundles) == set(expected)
    for key, build in report.field_bundles.items():
        np.testing.assert_array_equal(build()["values"], expected[key])


@pytest.mark.parametrize("n", [64, 512, 2048])
@pytest.mark.parametrize(
    "domain", [{}, {"q_min": -9.3, "q_max": 10.7, "hbar": 0.7}], ids=["default", "off-grid"]
)
def test_wigner_constant_from_column_blocks(domain, n):
    # The n/2 and 2n fits sum W S and W^2 over q-column blocks of W.  The
    # blocks' constant is within 1e-15 of compensated (math.fsum) sums of the
    # same products, and within 2e-15 of fit_global_constant's one einsum pass
    # over the whole fields, whose own error reaches 1.7e-15 (measured: at
    # most 0.7e-15 and 1.5e-15).
    cfg = ScenarioConfig(**domain)
    g, g2 = scenarios._grids(cfg, n)
    psi = ho_coherent_state(g, scenarios._harmonic_params(cfg), cfg.q0, cfg.p0, cfg.eval_time)
    sheared = scenarios._sheared_chi(psi, g2)
    got = scenarios._fit_wigner_constant(sheared, _wigner_blocks(psi, g2))
    w = wigner_direct(psi, g2).values
    whole = fit_global_constant(sheared, w)
    assert abs(got - whole) <= 2e-15 * abs(whole)

    def fsum(products):
        return math.fsum(math.fsum(row.tolist()) for row in products)

    compensated = fsum(w * sheared.real) / fsum(w * w)  # the imaginary part is ~1e-16 of it
    assert abs(got.real - compensated) <= 1e-15 * abs(compensated)


def _coherent_chi(n: int):
    """The default config, its coherent state at the evaluation time, that state's
    momentum-space state and their chi, at n."""
    cfg = ScenarioConfig(grid_n=n)
    g, g2 = scenarios._grids(cfg)
    psi = ho_coherent_state(g, scenarios._harmonic_params(cfg), cfg.q0, cfg.p0, cfg.eval_time)
    return cfg, psi, to_momentum_space(psi), chi_build(psi, g2)


# Factors of the default coherent chi at n = 256 (hbar = 1), each as a function of
# (p, q, chi's amplitude mask), with the checks it must fail and the values they
# read; every other separable-structure check must pass, at rounding level where
# nothing fails.
SEPARABLE_FAULTS = {
    "none": (lambda p, q, mask: 1.0, {}),
    "bilinear-phase": (
        lambda p, q, mask: np.exp(1e-3j * p * q),
        # the stencil reads the bilinear coefficient
        {"eps-action-mixed-partial": (1e-3, 1e-9), "eps-phase-additivity-spread": (3.1e-2, 1e-2)},
    ),
    "sine-phase": (
        lambda p, q, mask: np.exp(1e-6j * np.sin(p) * np.sin(q)),
        {"eps-phase-additivity-spread": (2.0e-6, 1e-2)},
    ),
    "amplitude": (lambda p, q, mask: 1 + 1e-9 * p * q, {"eps-amplitude-factorization": (1.6e-8, 3e-2)}),
    "kernel-sign": (
        lambda p, q, mask: np.exp(2j * p * q),
        # the spread saturates at the width of the wrapped range
        {"eps-action-mixed-partial": (2.0, 1e-9), "eps-phase-additivity-spread": (2.0 * np.pi, 1e-9)},
    ),
    # phases off chi's mask are never read: the stencil takes only centres whose
    # four diagonal neighbours lie in the mask
    "random-phase-off-mask": (
        lambda p, q, mask: np.where(mask, 1.0, np.exp(2j * np.pi * np.random.default_rng(0).random(mask.shape))),
        {},
    ),
}


@pytest.fixture(scope="module")
def coherent_chi_256():
    return _coherent_chi(256)


@pytest.mark.parametrize("case", SEPARABLE_FAULTS)
def test_separable_checks_catch_faults(coherent_chi_256, case):
    cfg, psi, phi, chi = coherent_chi_256
    factor, failing = SEPARABLE_FAULTS[case]
    p, q = chi.grid.p_axis.points[:, None], chi.grid.q_axis.points[None, :]
    mask = amplitude_mask(np.abs(chi.values))
    report = ScenarioReport("eps-residuals", cfg)
    joint = _check_separable(report, replace(chi, values=chi.values * factor(p, q, mask)), psi, phi)
    assert [c.name for c in report.checks] == [
        "eps-amplitude-factorization", "eps-phase-additivity-spread", "eps-action-mixed-partial"
    ]
    assert {c.name for c in report.checks if not c.passed} == set(failing)
    for check in report.checks:
        if check.name in failing:
            value, rel = failing[check.name]
            assert check.value == pytest.approx(value, rel=rel)
        elif not failing:
            assert check.value < 1e-12  # rounding level
    expected = mask & amplitude_mask(np.abs(phi.values))[:, None] & amplitude_mask(np.abs(psi.values))
    np.testing.assert_array_equal(joint, expected)


def test_separable_checks_allocate_little(temporary_arrays):
    # Traced peak in n x n complex arrays at n = 512: the phases are taken on
    # the box of chi's mask only (measured 0.56; unwrapping the whole grid's
    # phase in 2-D peaked at 3.7)
    n = 512
    cfg, psi, phi, chi = _coherent_chi(n)
    report = ScenarioReport("eps-residuals", cfg)
    assert temporary_arrays(lambda: _check_separable(report, chi, psi, phi), n) <= 1.0
