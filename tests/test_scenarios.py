"""Scenario registry plumbing: check construction, report serialization,
registry completeness.  (The scenarios' numerical content is exercised by
the acceptance suite.)"""

from __future__ import annotations

import json
import math

import pytest

import epsqp.scenarios as scenarios
from epsqp.quantum_potential import AlphaSweepResult
from epsqp.reports import ResidualReport, fit_line
from epsqp.scenarios import (
    REGISTRY,
    SCENARIO_ORDER,
    ScenarioConfig,
    ScenarioReport,
    _check_halving,
    make_check,
    run_scenario,
    to_json,
)


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


def test_make_check_comparators():
    assert make_check("x", 1.0, 2.0).passed
    assert not make_check("x", 3.0, 2.0).passed
    assert make_check("x", 2.0, 2.0, comparator="<=").passed
    assert make_check("x", 4.0, 3.5, comparator=">=").passed
    assert not make_check("x", 3.0, 3.5, comparator=">=").passed
    with pytest.raises(ValueError):
        make_check("x", 1.0, 2.0, comparator="~")


def test_report_passed_aggregates_subreports():
    cfg = ScenarioConfig()
    parent = ScenarioReport("parent", cfg)
    child = ScenarioReport("child", cfg)
    child.checks.append(make_check("ok", 0.0, 1.0))
    parent.subreports.append(child)
    assert parent.passed
    child.checks.append(make_check("bad", 2.0, 1.0))
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
    assert not make_check("x", math.inf, 3.5, comparator=">=").passed
    assert not make_check("x", -math.inf, 1.0).passed
    assert not make_check("x", math.nan, 1.0).passed
    assert not make_check("x", math.nan, 1.0, comparator=">").passed


@pytest.mark.parametrize("order", [False, True])
@pytest.mark.parametrize("coarse_l2, expected", [(1e-6, "inf"), (0.0, "nan")])
def test_zero_fine_residual_fails_its_rate_check(order, coarse_l2, expected):
    cfg = ScenarioConfig(grid_n=16)
    report = ScenarioReport("halving", cfg)
    coarse = ResidualReport("r", coarse_l2, coarse_l2, 0.0, fields={"residual": [coarse_l2]})
    fine = ResidualReport("r", 0.0, 0.0, 0.0)

    def residual(snaps):  # the snapshots are their times: dt triplets span 2 dt
        return coarse if snaps[2] - snaps[0] > 1.5 * cfg.dt else fine

    returned, snaps = _check_halving(
        report, cfg, lambda t: t, residual, "r-l2", 1e-5, "r-rate", order=order
    )
    assert returned is coarse
    assert snaps == [cfg.eval_time - cfg.dt, cfg.eval_time, cfg.eval_time + cfg.dt]
    assert report.residuals[0].fields == {}  # stored without its arrays
    l2_check, rate_check = report.checks
    assert l2_check.passed
    assert not rate_check.passed
    assert not report.passed
    payload = _strict_loads(to_json(report))
    assert payload["checks"][1]["value"] == expected


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
        (scenarios.scenario_all, 6.4),
        (scenarios.scenario_linear_gaussian, 2.6),
        (scenarios.scenario_wigner_equivalence, 6.6),
    ],
)
def test_scenarios_free_their_fields(temporary_arrays, scenario, limit):
    # Traced peak in n x n complex arrays at n = 512, the returned reports and
    # their field bundles included: each n^2 array is freed after its last
    # read, a halving check holds one snapshot triplet at a time, the eps
    # checks build chi from states only where they read it whole, residual
    # fields are mask-box crops and the Wigner fits shear chi's spectrum in
    # place, built without chi (measured 4.24, 6.29, 2.40 and 6.29).
    n = 512
    assert temporary_arrays(lambda: scenario(ScenarioConfig(grid_n=n)), n) <= limit
