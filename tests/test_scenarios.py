"""Scenario registry plumbing: check construction, report serialization,
registry completeness.  (The scenarios' numerical content is exercised by
the acceptance suite.)"""

from __future__ import annotations

import json

import pytest

from epsqp.scenarios import (
    REGISTRY,
    SCENARIO_ORDER,
    ScenarioConfig,
    ScenarioReport,
    make_check,
    run_scenario,
    to_json,
)


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
