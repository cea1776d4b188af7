"""Acceptance gate: ten headline criteria, one verdict line each under
``pytest -v``.

Each test asserts the criterion's stated tolerance directly on the measured
values (not merely on the scenarios' own pass flags), so a loosened scenario
tolerance cannot mask a regression here.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from epsqp.scenarios import Check, ScenarioConfig, ScenarioReport, run_scenario


@pytest.fixture(scope="module")
def cfg() -> ScenarioConfig:
    return ScenarioConfig()


@pytest.fixture(scope="module")
def runner(cfg):
    """Run each scenario at most once; return (report, elapsed seconds)."""
    cache: dict[str, tuple[ScenarioReport, float]] = {}

    def get(name: str) -> tuple[ScenarioReport, float]:
        if name not in cache:
            start = time.perf_counter()
            report = run_scenario(name, cfg)
            cache[name] = (report, time.perf_counter() - start)
        return cache[name]

    return get


# Scenarios of `run all` and their check names, in report order.
REPORT_LAYOUT = [
    ("wigner-equivalence", [
        "wigner-shear-rel-l2",
        "wigner-constant-stability",
        "wigner-constant-vs-reference",
        "wigner-groundstate-profile-max-err",
        "wigner-groundstate-peak-err",
        "wigner-marginal-q-rel-err",
        "wigner-marginal-p-rel-err",
    ]),
    ("alpha-sweep", [
        "alpha-sweep-fit-r2",
        "alpha-sweep-zero-crossing-err",
        "alpha-sweep-vanishing-ratio",
        "alpha-sweep-full-residual-max",
        "alpha-sweep-classical-at-minus-half",
        "alpha-sweep-classical-needed-off-center",
        "alpha-sweep-grid-stability",
    ]),
    ("harmonic-coherent", [
        "quantum-potential-q-max-err",
        "quantum-potential-p-max-err",
        "hj-q-l2",
        "hj-q-halving-ratio",
        "hj-p-harmonic-l2",
        "hj-p-halving-ratio",
        "hj-q-term-deletion-pointwise",
        "wigner-eq-harmonic-l2",
        "wigner-eq-harmonic-order",
        "expectation-q2-ground-err",
        "expectation-energy-ground-err",
        "expectation-trajectory-tracking",
        "coherent-splitstep-l2",
        "ground-period-overlap",
    ]),
    ("linear-gaussian", [
        "hj-q-linear-l2",
        "hj-q-linear-halving-ratio",
        "wigner-eq-linear-l2",
        "wigner-eq-linear-order",
        "linear-splitstep-l2",
        "linear-center-tracking",
    ]),
    ("pspace-linear", [
        "pspace-linear-classical-l2",
        "pspace-linear-halving-ratio",
    ]),
    ("eps-residuals", [
        "eps-hj-harmonic-l2",
        "eps-hj-harmonic-halving-ratio",
        "eps-evolution-residual-l2",
        "eps-stationary-max",
        "eps-amplitude-factorization",
        "eps-phase-additivity-spread",
        "eps-action-mixed-partial",
        "eps-qterm-separability",
        "eps-hj-linear-l2",
        "eps-hj-linear-halving-ratio",
    ]),
    ("classical-appendix", [
        "el-q-max-err",
        "el-p-max-err",
        "el-cross-consistency",
        "el-energy-drift",
        "legendre-residual-harmonic",
        "legendre-residual-linear",
    ]),
]


def _reject_non_finite(token: str):
    raise ValueError(f"report holds the non-JSON number {token}")


def find_check(report: ScenarioReport, name: str) -> Check:
    for c in report.checks:
        if c.name == name:
            return c
    for sub in report.subreports:
        try:
            return find_check(sub, name)
        except KeyError:
            pass
    raise KeyError(f"no check named {name!r} in scenario {report.name!r}")


def test_criterion_01_wigner_equivalence_via_half_shear(runner, cfg):
    assert cfg.grid_n == 256
    report, elapsed = runner("wigner-equivalence")
    rel_l2 = find_check(report, "wigner-shear-rel-l2")
    assert rel_l2.value < 1e-8, f"shear-vs-Wigner relative L2 {rel_l2.value:.3e}"
    stability = find_check(report, "wigner-constant-stability")
    assert stability.value < 1e-6, (
        f"fitted constant varies by {stability.value:.3e} across 128/256/512"
    )
    assert elapsed < 10.0, f"took {elapsed:.2f}s (limit 10s)"


def test_criterion_02_quantum_term_vanishes_at_minus_half(runner, cfg):
    assert cfg.alphas == (-1.0, -0.75, -0.5, -0.25, 0.0)
    report, elapsed = runner("alpha-sweep")
    r2 = find_check(report, "alpha-sweep-fit-r2")
    assert r2.value > 0.999, f"coefficient-vs-alpha fit R^2 = {r2.value}"
    crossing = find_check(report, "alpha-sweep-zero-crossing-err")
    assert crossing.value < 1e-3, (
        f"zero crossing off -1/2 by {crossing.value:.3e}"
    )
    assert elapsed < 30.0, f"took {elapsed:.2f}s (limit 30s)"


def test_criterion_03_analytic_quantum_potential_profiles(runner):
    report, _ = runner("harmonic-coherent")
    for name in ("quantum-potential-q-max-err", "quantum-potential-p-max-err"):
        err = find_check(report, name)
        assert err.value < 1e-8, f"{name} = {err.value:.3e}"


def test_criterion_04_linear_momentum_space_needs_no_quantum_term(runner, cfg):
    assert cfg.dt == 1e-3
    report, _ = runner("pspace-linear")
    resid = find_check(report, "pspace-linear-classical-l2")
    assert resid.value < 1e-5, f"classical-form residual {resid.value:.3e}"


def test_criterion_05_modified_hj_identities_hold_at_second_order(runner):
    pairs = {
        "harmonic-coherent": [
            ("hj-q-l2", "hj-q-halving-ratio"),
            ("hj-p-harmonic-l2", "hj-p-halving-ratio"),
        ],
        "linear-gaussian": [
            ("hj-q-linear-l2", "hj-q-linear-halving-ratio"),
        ],
        "eps-residuals": [
            ("eps-hj-linear-l2", "eps-hj-linear-halving-ratio"),
            ("eps-hj-harmonic-l2", "eps-hj-harmonic-halving-ratio"),
        ],
    }
    for scenario, checks in pairs.items():
        report, _ = runner(scenario)
        for l2_name, ratio_name in checks:
            l2 = find_check(report, l2_name)
            assert l2.value < 1e-5, f"{l2_name} = {l2.value:.3e}"
            ratio = find_check(report, ratio_name)
            assert ratio.value >= 3.5, f"{ratio_name} = {ratio.value:.2f}"


def test_criterion_06_wigner_transport_equation(runner):
    checks = {
        "harmonic-coherent": ("wigner-eq-harmonic-l2", "wigner-eq-harmonic-order"),
        "linear-gaussian": ("wigner-eq-linear-l2", "wigner-eq-linear-order"),
    }
    for scenario, (l2_name, order_name) in checks.items():
        report, _ = runner(scenario)
        l2 = find_check(report, l2_name)
        assert l2.value < 1e-4, f"{l2_name} = {l2.value:.3e}"
        order = find_check(report, order_name)
        assert order.value >= 1.9, f"{order_name} = {order.value:.2f}"


def test_criterion_07_phase_space_dynamical_equation(runner):
    report, _ = runner("eps-residuals")
    evolution = find_check(report, "eps-evolution-residual-l2")
    assert evolution.value < 1e-6, f"separable-chi residual {evolution.value:.3e}"
    stationary = find_check(report, "eps-stationary-max")
    assert stationary.value < 1e-8, (
        f"stationary distribution not annihilated: {stationary.value:.3e}"
    )


def test_criterion_08_averaging_rule(runner):
    report, _ = runner("harmonic-coherent")
    for name in ("expectation-q2-ground-err", "expectation-energy-ground-err"):
        err = find_check(report, name)
        assert err.value < 1e-8, f"{name} = {err.value:.3e}"
    tracking = find_check(report, "expectation-trajectory-tracking")
    assert tracking.value < 1e-7, f"orbit tracking error {tracking.value:.3e}"


def test_criterion_09_dual_lagrangian_appendix(runner):
    report, _ = runner("classical-appendix")
    for name in ("el-q-max-err", "el-p-max-err"):
        err = find_check(report, name)
        assert err.value < 1e-8, f"{name} = {err.value:.3e}"
    cross = find_check(report, "el-cross-consistency")
    assert cross.value < 1e-7, f"cross-space consistency {cross.value:.3e}"
    for name in ("legendre-residual-harmonic", "legendre-residual-linear"):
        err = find_check(report, name)
        assert err.value < 1e-13, f"{name} = {err.value:.3e}"


def test_criterion_10_determinism_and_runtime():
    cmd = [sys.executable, "-m", "epsqp", "run", "all"]
    runs = []
    for _ in range(2):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, timeout=300)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr.decode()
        assert elapsed < 180.0, f"full suite took {elapsed:.1f}s (limit 180s)"
        runs.append(proc.stdout)
    assert runs[0] == runs[1], "repeated runs are not byte-identical"
    payload = json.loads(runs[0], parse_constant=_reject_non_finite)
    layout = [
        (sub["scenario"], [c["name"] for c in sub["checks"]])
        for sub in payload["subreports"]
    ]
    assert layout == REPORT_LAYOUT
