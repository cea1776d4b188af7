"""Named verification scenarios with registered tolerances.

Each scenario builds its states, evaluates the relevant identities, and
returns a :class:`ScenarioReport` whose checks carry explicit tolerances
and pass/fail flags.  Everything a report contains is deterministic —
no timings, timestamps, or paths — so two runs of the same scenario
produce byte-identical JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from operator import ge, gt, lt
from typing import Callable

import numpy as np

from .classical import (
    el_solve_q,
    el_solve_p,
    hamiltonian,
    legendre_residual,
    translate_initial_conditions,
)
from .eps_core import ExtendedHamiltonian, PhaseSpaceField, chi_rows, expectation, strip_rows
from .numerics import (
    Grid2D,
    GridError,
    PhysicalParams,
    Potential,
    amplitude_mask,
    make_grid,
    strip_mask_box,
    within,
)
from .quantum_potential import (
    alpha_sweep,
    hj_residual_eps,
    hj_residual_p,
    hj_residual_q,
    quantum_potential,
    validate_alphas,
)
from .reports import ResidualReport, l2, masked_max
from .states import (
    WaveFunction,
    ho_coherent_state,
    linear_potential_gaussian,
    splitstep_propagate,
    to_momentum_space,
)
from .transforms import _Strip, _wigner_box, wigner_direct, wigner_equation_residual

REGISTRY_VERSION = "1.0"


@dataclass(frozen=True)
class CheckSpec:
    """A check's bound and kind; the kind sets the comparator (KIND_COMPARATORS)."""

    tolerance: float
    kind: str


#: A check passes if ``value <comparator> tolerance``.  Kinds: rounding (an identity at rounding
#: level), dt2-floor (a residual that falls 4x when dt halves), bound (one that does not move
#: with dt), rate and order (the halving ratio, its log2), fit (R^2 or an overlap near 1),
#: nonzero (a term that must not vanish).
KIND_COMPARATORS = {
    "rounding": "<", "dt2-floor": "<", "bound": "<",
    "rate": ">=", "order": ">=", "fit": ">", "nonzero": ">",
}

#: Every check's bound, in report order.
CHECKS: dict[str, CheckSpec] = {
    # wigner-equivalence
    "wigner-shear-rel-l2": CheckSpec(1e-8, "rounding"),
    "wigner-constant-stability": CheckSpec(1e-6, "rounding"),
    "wigner-constant-vs-reference": CheckSpec(1e-6, "rounding"),
    "wigner-groundstate-profile-max-err": CheckSpec(1e-8, "rounding"),
    "wigner-groundstate-peak-err": CheckSpec(1e-8, "rounding"),
    "wigner-marginal-q-rel-err": CheckSpec(1e-8, "rounding"),
    "wigner-marginal-p-rel-err": CheckSpec(1e-8, "rounding"),
    # alpha-sweep
    "alpha-sweep-fit-r2": CheckSpec(0.999, "fit"),
    "alpha-sweep-zero-crossing-err": CheckSpec(1e-3, "rounding"),
    "alpha-sweep-vanishing-ratio": CheckSpec(1e-6, "rounding"),
    "alpha-sweep-full-residual-max": CheckSpec(1e-5, "dt2-floor"),
    "alpha-sweep-classical-at-minus-half": CheckSpec(1e-5, "bound"),
    "alpha-sweep-classical-needed-off-center": CheckSpec(1e-3, "nonzero"),
    "alpha-sweep-grid-stability": CheckSpec(1e-4, "rounding"),
    # harmonic-coherent.  The quantum-potential profiles and eps-qterm-separability hold at 1e-8
    # over the FULL amplitude mask: the curvature estimator differentiates log R, so its error is
    # uniform in R (numerics.relative_curvature), even at the mask edge, where R is 1e-6 of its peak.
    "quantum-potential-q-max-err": CheckSpec(1e-8, "rounding"),
    "quantum-potential-p-max-err": CheckSpec(1e-8, "rounding"),
    "hj-q-l2": CheckSpec(1e-5, "dt2-floor"),
    "hj-q-halving-ratio": CheckSpec(3.5, "rate"),
    "hj-p-harmonic-l2": CheckSpec(1e-5, "dt2-floor"),
    "hj-p-halving-ratio": CheckSpec(3.5, "rate"),
    "hj-q-term-deletion-pointwise": CheckSpec(1e-6, "rounding"),
    "wigner-eq-harmonic-l2": CheckSpec(1e-4, "dt2-floor"),
    "wigner-eq-harmonic-order": CheckSpec(1.9, "order"),
    "expectation-q2-ground-err": CheckSpec(1e-8, "rounding"),
    "expectation-energy-ground-err": CheckSpec(1e-8, "rounding"),
    "expectation-trajectory-tracking": CheckSpec(1e-7, "rounding"),
    "coherent-splitstep-l2": CheckSpec(1e-8, "rounding"),
    "ground-period-overlap": CheckSpec(1.0 - 1e-8, "fit"),
    # linear-gaussian
    "hj-q-linear-l2": CheckSpec(1e-5, "dt2-floor"),
    "hj-q-linear-halving-ratio": CheckSpec(3.5, "rate"),
    "wigner-eq-linear-l2": CheckSpec(1e-4, "dt2-floor"),
    "wigner-eq-linear-order": CheckSpec(1.9, "order"),
    "linear-splitstep-l2": CheckSpec(1e-8, "rounding"),
    "linear-center-tracking": CheckSpec(1e-8, "rounding"),
    # pspace-linear
    "pspace-linear-classical-l2": CheckSpec(1e-5, "dt2-floor"),
    "pspace-linear-halving-ratio": CheckSpec(3.5, "rate"),
    # eps-residuals
    "eps-hj-harmonic-l2": CheckSpec(1e-5, "dt2-floor"),
    "eps-hj-harmonic-halving-ratio": CheckSpec(3.5, "rate"),
    "eps-evolution-residual-l2": CheckSpec(1e-6, "dt2-floor"),
    "eps-stationary-max": CheckSpec(1e-8, "rounding"),
    "eps-amplitude-factorization": CheckSpec(1e-10, "rounding"),
    "eps-phase-additivity-spread": CheckSpec(1e-7, "rounding"),
    "eps-action-mixed-partial": CheckSpec(1e-6, "rounding"),
    "eps-qterm-separability": CheckSpec(1e-8, "rounding"),  # the quantum-potential profiles' bound
    "eps-hj-linear-l2": CheckSpec(1e-5, "dt2-floor"),
    "eps-hj-linear-halving-ratio": CheckSpec(3.5, "rate"),
    # classical-appendix
    "el-q-max-err": CheckSpec(1e-8, "rounding"),
    "el-p-max-err": CheckSpec(1e-8, "rounding"),
    "el-cross-consistency": CheckSpec(1e-7, "rounding"),
    "el-energy-drift": CheckSpec(1e-9, "rounding"),
    "legendre-residual-harmonic": CheckSpec(1e-13, "rounding"),
    "legendre-residual-linear": CheckSpec(1e-13, "rounding"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Numerical defaults shared by all scenarios (overridable via the CLI).

    The test-state parameters are chosen so that every estimator floor sits
    well under the registered tolerances:

    * ``q0 = 0.5`` keeps the Delta-t^2 floor of the time-difference
      estimators (proportional to the oscillation amplitude through
      d^3S/dt^3) a factor of a few below the 1e-5 residual bounds at
      dt = 1e-3;
    * ``sigma0 = sqrt(1/2)`` matches the harmonic ground-state width.  On
      the default grid this keeps the Gaussian tails below 1e-12 at the
      domain edges (periodic spectral arithmetic must not see the
      boundary) and keeps the Wigner function's momentum width resolved
      on the paired momentum grid; a unit-width state fails both by
      orders of magnitude and floors several residuals.
    """

    grid_n: int = 256
    q_min: float = -10.0
    q_max: float = 10.0
    dt: float = 1e-3
    alphas: tuple[float, ...] = (-1.0, -0.75, -0.5, -0.25, 0.0)
    mass: float = 1.0
    hbar: float = 1.0
    spring_k: float = 1.0
    slope_b: float = 1.0
    q0: float = 0.5
    p0: float = 0.0
    sigma0: float = math.sqrt(0.5)
    eval_time: float = 0.4

    def __post_init__(self):
        """Reject a configuration no scenario can run, before any of them runs."""
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("dt", "mass", "hbar", "spring_k", "sigma0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.slope_b == 0:  # the linear p-space action is then exactly linear in t
            raise ValueError("slope_b must be non-zero: at b = 0 the linear dt residual "
                             "is already at the rounding floor and cannot halve")
        if not self.q_max > self.q_min:
            raise ValueError(f"q_max must exceed q_min, got [{self.q_min}, {self.q_max})")
        try:
            make_grid(self.grid_n, self.q_min, self.q_max)
        except GridError as exc:
            raise GridError(f"grid_n: {exc}") from None
        validate_alphas(self.alphas)


@dataclass(frozen=True)
class Check:
    """One tolerance check: ``passed = compare(value, tolerance)``."""

    name: str
    value: float
    tolerance: float
    comparator: str
    passed: bool


_COMPARATORS: dict[str, Callable[[float, float], bool]] = {"<": lt, ">": gt, ">=": ge}


def make_check(name: str, value: float) -> Check:
    """``value`` against ``name``'s CHECKS row (KeyError if it has none); a non-finite value fails."""
    spec = CHECKS[name]
    comparator = KIND_COMPARATORS[spec.kind]
    value = float(value)
    passed = math.isfinite(value) and _COMPARATORS[comparator](value, spec.tolerance)
    return Check(name, value, spec.tolerance, comparator, bool(passed))


@dataclass
class ScenarioReport:
    """Everything a scenario run produced, minus anything nondeterministic."""

    name: str
    config: ScenarioConfig
    checks: list[Check] = field(default_factory=list)
    residuals: list[ResidualReport] = field(default_factory=list)  # without fields
    constants: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    field_bundles: dict = field(default_factory=dict, repr=False)  # name -> () -> bundle dict
    subreports: list["ScenarioReport"] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and all(s.passed for s in self.subreports)

    def check(self, name: str, value: float) -> None:
        self.checks.append(make_check(name, value))

    def to_dict(self) -> dict:
        return {
            "registry_version": REGISTRY_VERSION,
            "scenario": self.name,
            "config": asdict(self.config),
            "checks": [asdict(c) for c in self.checks],
            "residuals": [
                {k: getattr(r, k) for k in ("name", "l2_norm", "max_norm", "masked_fraction", "metadata")}
                for r in self.residuals
            ],
            "constants": self.constants,
            "details": self.details,
            "passed": self.passed,
            "subreports": [s.to_dict() for s in self.subreports],
        }


def _finite_json(obj):
    """``obj`` with every non-finite float replaced by "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(float(obj))
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def to_json(report: ScenarioReport) -> str:
    """Deterministic, strict JSON rendering (sorted keys, fixed indentation).

    JSON has no infinities or NaNs, so a non-finite float is written as the
    string "inf", "-inf" or "nan"; a check holding one has failed.
    """
    payload = _finite_json(report.to_dict())
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# shared construction helpers
# ---------------------------------------------------------------------------


def _harmonic_params(cfg: ScenarioConfig) -> PhysicalParams:
    return PhysicalParams(cfg.mass, cfg.hbar, Potential(k=cfg.spring_k))


def _linear_params(cfg: ScenarioConfig) -> PhysicalParams:
    return PhysicalParams(cfg.mass, cfg.hbar, Potential(b=cfg.slope_b))


def _grids(cfg: ScenarioConfig, n: int | None = None):
    g = make_grid(n or cfg.grid_n, cfg.q_min, cfg.q_max)
    return g, Grid2D(g, cfg.hbar)


def _check_halving(
    report: ScenarioReport,
    cfg: ScenarioConfig,
    snapshot: Callable[[float], object],
    residual: Callable[[object], Callable[[object, object], ResidualReport]],
    l2_name: str,
    rate_name: str,
) -> tuple[ResidualReport, list]:
    """Record ``residual`` of ``snapshot`` around ``cfg.eval_time`` at dt and dt/2.

    ``snapshot(t)`` returns what ``residual`` reads at time t: a state or its
    momentum-space form.  ``residual(center)`` builds the centre once and
    returns ``at(minus, plus)``, evaluated at the dt/2 pair first, of which
    only the L2 norm is kept, so one pair is alive at a time.
    Adds the dt residual (norms and metadata, not its fields), its L2
    check, and a second-order convergence check: the halving ratio, or for
    an ``order`` kind its log2, the observed order.  A zero residual leaves
    the ratio undefined or infinite, which fails the check.  Returns the dt
    residual with its fields and the dt snapshots.
    """
    t, dt, half = cfg.eval_time, cfg.dt, cfg.dt / 2.0
    center = snapshot(t)
    at = residual(center)
    fine_l2 = at(snapshot(t - half), snapshot(t + half)).l2_norm
    snaps = [snapshot(t - dt), center, snapshot(t + dt)]
    coarse = at(snaps[0], snaps[2])
    report.residuals.append(replace(coarse, fields={}))
    report.check(l2_name, coarse.l2_norm)
    with np.errstate(divide="ignore", invalid="ignore"):  # x/0 = inf, 0/0 = nan
        ratio = np.float64(coarse.l2_norm) / fine_l2
        if CHECKS[rate_name].kind == "order":
            ratio = np.log2(ratio)
    report.check(rate_name, ratio)
    return coarse, snaps


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def scenario_wigner_equivalence(cfg: ScenarioConfig) -> ScenarioReport:
    """Shear at alpha = -1/2 versus the direct Wigner construction.

    The two routes agree up to one global constant; the constant is fitted,
    compared against 1/sqrt(2 pi hbar), and checked for stability across
    grid resolutions.  Wigner marginals and the ground-state closed form
    are verified on the side.
    """
    params = _harmonic_params(cfg)
    report = ScenarioReport("wigner-equivalence", cfg)

    def coherent(n: int):
        g, g2 = _grids(cfg, n)
        return g, g2, ho_coherent_state(g, params, cfg.q0, cfg.p0, cfg.eval_time)

    # chi's -1/2 shear is fitted against W at n/2, n and 2n, each from W's column
    # blocks and the shear on its momentum strip, so no n^2 field is held
    sizes = sorted({max(cfg.grid_n // 2, 8), cfg.grid_n, cfg.grid_n * 2})
    fits = {n: _wigner_fit(coherent(n)[2]) for n in sizes}
    constants = {n: fit[0] for n, fit in fits.items()}
    c_mid, deviation, marginal_q, marginal_p = fits[cfg.grid_n]
    report.check("wigner-shear-rel-l2", deviation)
    spread = max(
        abs(constants[a] - constants[b]) for a in sizes for b in sizes if a < b
    )
    report.check("wigner-constant-stability", spread)

    reference = 1.0 / math.sqrt(2.0 * math.pi * params.hbar)
    report.check("wigner-constant-vs-reference", abs(c_mid - reference))
    report.constants = {
        "fitted_constant_real": float(c_mid.real),
        "fitted_constant_imag": float(c_mid.imag),
        "reference_constant": reference,
        **{
            f"fitted_constant_abs_n{n}": float(abs(constants[n])) for n in sizes
        },
    }

    # ground-state closed form: W(p, q) = 2 exp(-q^2 - p^2) in natural units
    # (general: 2 exp(-m w q^2 / hbar - p^2 / (m w hbar))), peak value 2 at
    # any hbar in the lag-y measure of wigner_direct; compared on the ground state's
    # momentum strip.  Off it W counts as 0, so its error there is the closed form's
    # largest value, at the off-strip p and the q nearest the origin.
    g, g2, psi = coherent(cfg.grid_n)
    m, hbar, w_freq = params.mass, params.hbar, params.omega

    def w_exact(p, q):
        return 2.0 * np.exp(-m * w_freq * q**2 / hbar - p**2 / (m * w_freq * hbar))

    p = g2.p_axis.points
    i_p0 = int(np.argmin(np.abs(p)))
    i_q0 = int(np.argmin(np.abs(g.points)))
    ground = ho_coherent_state(g, params, 0.0, 0.0, 0.0)
    rows = strip_rows([ground])
    err = np.abs(_wigner_box(ground, g2, (rows, slice(None))) - w_exact(p[rows, None], g.points[None, :]))
    off = np.delete(p, rows)
    profile_err = float(w_exact(off[np.argmin(np.abs(off))], g.points[i_q0])) if off.size else 0.0
    profile_err = max(profile_err, float(np.max(err)))
    peak_err = float(err[i_p0 - range(g.n_points)[rows].start, i_q0])  # w_exact = 2 on the origin
    report.check("wigner-groundstate-profile-max-err", profile_err)
    report.check("wigner-groundstate-peak-err", peak_err)

    # marginals of the coherent-state Wigner function: integrating out p
    # leaves 2 pi hbar |psi(q)|^2, integrating out q leaves 2 pi hbar
    # |phi(p)|^2 (the correlation integral runs over the lag y, without the
    # 1/(2 pi hbar) prefactor).
    marginals = (
        ("q", psi, marginal_q * g2.p_axis.spacing), ("p", to_momentum_space(psi), marginal_p * g.spacing)
    )
    for axis, state, marginal in marginals:
        density = 2.0 * np.pi * params.hbar * np.abs(state.values) ** 2
        err = float(np.max(np.abs(marginal - density)) / np.max(density))
        report.check(f"wigner-marginal-{axis}-rel-err", err)

    # rebuilt from the state when exported: the report holds no n^2 array
    axes = {"kind": "2d", "p": g2.p_axis.points, "q": g.points}

    def sheared_chi() -> np.ndarray:  # the fit's field, zero off its rows
        rows, sheared = _Strip([psi]).sheared(-0.5)
        values = np.zeros(g2.shape, dtype=complex)
        values[rows] = sheared
        return values

    report.field_bundles = {
        "wigner": lambda: {**axes, "values": wigner_direct(psi, g2).values},
        "sheared-chi": lambda: {**axes, "values": sheared_chi()},
    }
    return report


def _wigner_fit(psi: WaveFunction) -> tuple:
    """The least-squares ``c`` of ``sheared = c W``, ``||sheared - c W|| / ||sheared||``, and W's
    q and p marginals (W summed over p, over q), for chi's -1/2 shear and the real W of ``psi``.

    Both are formed on the rows the shear occupies, which cover W's p support, the momentum
    strip, and count as 0 off them, where W is below 1e-30 of its peak.
    """
    strip = _Strip([psi])
    rows, sheared = strip.sheared(-0.5)
    w = _wigner_box(psi, strip.grid, (rows, slice(None)))
    den = np.sum(w * w)
    if den == 0.0:
        raise ValueError("cannot fit a constant against a zero basis")
    c = complex(np.sum(w * sheared) / den)
    deviation = math.sqrt(np.sum(np.abs(sheared - c * w) ** 2) / np.sum(np.abs(sheared) ** 2))
    marginal_p = np.zeros(psi.grid.n_points)
    marginal_p[rows] = w.sum(axis=1)
    return c, deviation, w.sum(axis=0), marginal_p


def scenario_alpha_sweep(cfg: ScenarioConfig) -> ScenarioReport:
    """Coefficient law of the quantum term under the shear family.

    The measured quantum-term coefficient is affine in alpha with unit
    slope, crossing zero at alpha = -1/2; the literal term norm vanishes
    there identically.  The crossing must be stable under grid refinement.
    """
    params = _harmonic_params(cfg)
    report = ScenarioReport("alpha-sweep", cfg)

    def run_sweep(n: int):
        g, _ = _grids(cfg, n)
        coherent = partial(ho_coherent_state, g, params, cfg.q0, cfg.p0)
        return alpha_sweep([coherent(cfg.eval_time + s * cfg.dt) for s in (-1, 0, 1)], cfg.alphas)

    sweep = run_sweep(cfg.grid_n)
    report.check("alpha-sweep-fit-r2", sweep.fit.r_squared)
    report.check("alpha-sweep-zero-crossing-err", abs(sweep.fit.zero_crossing + 0.5))

    idx_half = min(range(len(sweep.alphas)), key=lambda i: abs(sweep.alphas[i] + 0.5))
    if any(a == 0.0 for a in sweep.alphas):
        idx_ref = sweep.alphas.index(0.0)
    else:
        idx_ref = max(range(len(sweep.alphas)), key=lambda i: sweep.term_norms[i])
    ratio = (
        sweep.term_norms[idx_half] / sweep.term_norms[idx_ref]
        if sweep.term_norms[idx_ref] > 0
        else math.inf
    )
    report.check("alpha-sweep-vanishing-ratio", ratio)
    report.check("alpha-sweep-full-residual-max", max(sweep.full_norms))
    classical = sweep.classical_norms
    report.check("alpha-sweep-classical-at-minus-half", classical[idx_half])
    if any(a == -0.25 for a in sweep.alphas):
        report.check("alpha-sweep-classical-needed-off-center", classical[sweep.alphas.index(-0.25)])

    if cfg.grid_n >= 16:
        stability = abs(sweep.fit.zero_crossing - run_sweep(cfg.grid_n // 2).fit.zero_crossing)
        report.check("alpha-sweep-grid-stability", stability)

    report.constants = asdict(sweep.fit)
    report.details = {
        key: [float(v) for v in getattr(sweep, key)]
        for key in ("alphas", "coefficients", "term_norms", "classical_norms", "full_norms",
                    "remainder_norms")
    }
    report.residuals = list(sweep.reports)
    return report


def _quantum_potential_bundle(state: WaveFunction) -> Callable[[], dict]:
    """The builder of a 1-D bundle: ``state``'s quantum potential on its axis, NaN off its mask."""

    def bundle() -> dict:
        return {"kind": "1d", "axis_name": state.space, "axis": state.grid.points,
                "values": quantum_potential(state)}

    return bundle


def scenario_harmonic_coherent(cfg: ScenarioConfig) -> ScenarioReport:
    """Harmonic-oscillator battery: analytic quantum potentials, 1D
    Hamilton-Jacobi residuals with convergence order, the Wigner transport
    equation, the averaging rule, and split-step cross-checks."""
    params = _harmonic_params(cfg)
    g, g2 = _grids(cfg)
    m, hbar, w_freq = params.mass, params.hbar, params.omega
    k = params.potential.k
    report = ScenarioReport("harmonic-coherent", cfg)

    # --- analytic quantum potentials on the ground state -------------------
    psi_g = ho_coherent_state(g, params, 0.0, 0.0, 0.0)
    qpot_q = quantum_potential(psi_g)
    q_exact = 0.5 * hbar * w_freq - 0.5 * m * w_freq**2 * g.points**2
    report.check("quantum-potential-q-max-err", masked_max(qpot_q - q_exact, ~np.isnan(qpot_q)))

    phi_g = to_momentum_space(psi_g)
    qpot_p = quantum_potential(phi_g)
    p_exact = 0.5 * hbar * w_freq - phi_g.grid.points**2 / (2.0 * m)
    report.check("quantum-potential-p-max-err", masked_max(qpot_p - p_exact, ~np.isnan(qpot_p)))

    # --- 1D modified Hamilton-Jacobi residuals + convergence order ---------
    coherent = partial(ho_coherent_state, g, params, cfg.q0, cfg.p0)
    _check_halving(report, cfg, coherent, hj_residual_q, "hj-q-l2", "hj-q-halving-ratio")
    _check_halving(
        report, cfg, lambda t: to_momentum_space(coherent(t)), hj_residual_p,
        "hj-p-harmonic-l2", "hj-p-halving-ratio",
    )

    # --- term deletion: the classical-form residual IS minus the quantum
    # potential (stationary state: time phase supplies -E, potential the
    # rest), so the full residual, their sum, vanishes pointwise -------------
    ground = partial(ho_coherent_state, g, params, 0.0, 0.0)
    minus, center, plus = (ground(cfg.eval_time + s * cfg.dt) for s in (-1, 0, 1))
    r_gq = hj_residual_q(center)(minus, plus)
    report.check("hj-q-term-deletion-pointwise", r_gq.max_norm)

    # --- Wigner transport equation + convergence order ----------------------
    _check_halving(
        report, cfg, coherent, wigner_equation_residual, "wigner-eq-harmonic-l2", "wigner-eq-harmonic-order"
    )

    # --- averaging rule ------------------------------------------------------
    # on each chi's momentum strip; every observable is a p part plus a q part
    chi_g = chi_rows(psi_g, strip_rows([psi_g]))
    p, q = g2.p_axis.points, g.points
    q2_val = expectation(chi_g, of_q=q**2)
    h_val = expectation(chi_g, of_p=p**2 / (2.0 * m), of_q=0.5 * k * q**2)
    report.check("expectation-q2-ground-err", abs(q2_val - hbar / (2.0 * m * w_freq)))
    report.check("expectation-energy-ground-err", abs(h_val - 0.5 * hbar * w_freq))

    period = 2.0 * math.pi / w_freq
    worst_track = 0.0
    for i in range(10):
        t_i = i * period / 10.0
        psi_i = ho_coherent_state(g, params, cfg.q0, cfg.p0, t_i)
        chi_i = chi_rows(psi_i, strip_rows([psi_i]))
        q_c = cfg.q0 * math.cos(w_freq * t_i) + cfg.p0 / (m * w_freq) * math.sin(w_freq * t_i)
        p_c = cfg.p0 * math.cos(w_freq * t_i) - m * w_freq * cfg.q0 * math.sin(w_freq * t_i)
        worst_track = max(
            worst_track,
            abs(expectation(chi_i, of_q=q) - q_c),
            abs(expectation(chi_i, of_p=p) - p_c),
        )
    report.check("expectation-trajectory-tracking", worst_track)

    # --- split-step cross-checks ---------------------------------------------
    psi0 = ho_coherent_state(g, params, cfg.q0, cfg.p0, 0.0)
    t_half_period = math.pi / w_freq
    evolved = splitstep_propagate(psi0, t_half_period)
    analytic = ho_coherent_state(g, params, cfg.q0, cfg.p0, t_half_period)
    diff = replace(evolved, values=evolved.values - analytic.values).norm()
    report.check("coherent-splitstep-l2", diff)

    ground_evolved = splitstep_propagate(psi_g, period)
    overlap = abs(
        complex(np.sum(np.conj(psi_g.values) * ground_evolved.values) * g.spacing)
    )
    report.check("ground-period-overlap", overlap)

    report.field_bundles = {
        "quantum-potential-q": _quantum_potential_bundle(psi_g),
        "quantum-potential-p": _quantum_potential_bundle(phi_g),
    }
    return report


def scenario_linear_gaussian(cfg: ScenarioConfig) -> ScenarioReport:
    """Linear-potential battery: position-space Hamilton-Jacobi residual,
    Wigner transport, and a split-step cross-check on the drifting state."""
    params = _linear_params(cfg)
    g, g2 = _grids(cfg)
    report = ScenarioReport("linear-gaussian", cfg)
    gaussian = partial(linear_potential_gaussian, g, params, cfg.q0, cfg.p0, cfg.sigma0)
    _, psis = _check_halving(
        report, cfg, gaussian, hj_residual_q, "hj-q-linear-l2", "hj-q-linear-halving-ratio"
    )
    _check_halving(
        report, cfg, gaussian, wigner_equation_residual, "wigner-eq-linear-l2", "wigner-eq-linear-order"
    )

    evolved = splitstep_propagate(gaussian(0.0), 0.5)
    diff = replace(evolved, values=evolved.values - gaussian(0.5).values).norm()
    report.check("linear-splitstep-l2", diff)

    psi_t = psis[1]
    b, m = cfg.slope_b, cfg.mass
    q_c = cfg.q0 + cfg.p0 * cfg.eval_time / m - 0.5 * b * cfg.eval_time**2 / m
    mean_q = float(np.sum(g.points * np.abs(psi_t.values) ** 2) * g.spacing)
    report.check("linear-center-tracking", abs(mean_q - q_c))

    report.field_bundles = {"quantum-potential-q": _quantum_potential_bundle(psi_t)}
    return report


def scenario_pspace_linear(cfg: ScenarioConfig) -> ScenarioReport:
    """The linear potential's momentum-space equation is classical already:
    the Hamilton-Jacobi residual with NO quantum term sits at the
    time-difference floor."""
    params = _linear_params(cfg)
    g, _ = _grids(cfg)
    report = ScenarioReport("pspace-linear", cfg)
    gaussian = partial(linear_potential_gaussian, g, params, cfg.q0, cfg.p0, cfg.sigma0)
    _check_halving(
        report, cfg, lambda t: to_momentum_space(gaussian(t)), hj_residual_p,
        "pspace-linear-classical-l2", "pspace-linear-halving-ratio",
    )
    return report


def scenario_eps_residuals(cfg: ScenarioConfig) -> ScenarioReport:
    """Phase-space identities for the product distribution chi: the
    dynamical equation itself, the modified Hamilton-Jacobi residuals for
    both potentials, and the separable structure of amplitude and action.
    The harmonic helper frees its arrays before the linear part runs."""
    report = ScenarioReport("eps-residuals", cfg)
    g, g2 = _grids(cfg)
    report.field_bundles = {"eps-quantum-q-term": _eps_harmonic(report, cfg, g, g2)}
    gaussian = partial(linear_potential_gaussian, g, _linear_params(cfg), cfg.q0, cfg.p0, cfg.sigma0)
    _check_halving(report, cfg, gaussian, hj_residual_eps, "eps-hj-linear-l2", "eps-hj-linear-halving-ratio")
    return report


def _eps_harmonic(report: ScenarioReport, cfg: ScenarioConfig, g, g2: Grid2D) -> Callable[[], dict]:
    """The harmonic checks of eps-residuals; returns the q-term bundle's builder (box crop only)."""
    params = _harmonic_params(cfg)
    hbar = params.hbar
    ham = ExtendedHamiltonian.from_params(params)
    coherent = partial(ho_coherent_state, g, params, cfg.q0, cfg.p0)
    coarse, snaps = _check_halving(
        report, cfg, coherent, hj_residual_eps, "eps-hj-harmonic-l2", "eps-hj-harmonic-halving-ratio"
    )
    q_term, mask, box = (coarse.fields[key] for key in ("q_term", "mask", "box"))
    del coarse  # its residual, classical-form and quantum-term fields

    # dynamical equation: i hbar d(chi)/dt = H' chi at the operator level, on the
    # momentum strip of the snapshots (chi is below rounding off it)
    rows = strip_rows(snaps)
    plus, minus = (chi_rows(s, rows).values for s in (snaps[2], snaps[0]))
    lhs = 1j * hbar * (plus - minus) / (2.0 * cfg.dt)
    psi_t = snaps[1]
    lhs -= ham.apply(psi_t, rows)
    report.check("eps-evolution-residual-l2", l2(lhs, g2.cell))

    # stationary pair: energy phases cancel in psi phi*, so H' chi = 0
    psi_g = ho_coherent_state(g, params, 0.0, 0.0, 0.0)
    report.check("eps-stationary-max", float(np.max(np.abs(ham.apply(psi_g, strip_rows([psi_g]))))))

    joint = _check_separable(report, chi_rows(psi_t, rows), psi_t, to_momentum_space(psi_t))

    # the q-curvature quantum term of the 2D identity equals the 1D quantum
    # potential of the psi factor, broadcast over p
    q_1d = quantum_potential(psi_t)
    sep_err = masked_max(q_term - q_1d[None, box[1]], (joint & mask)[box])
    report.check("eps-qterm-separability", sep_err)

    def bundle() -> dict:  # q_term is NaN off the mask, which lies in its box
        values = np.full(g2.shape, np.nan)
        values[box] = q_term
        return {"kind": "2d", "p": g2.p_axis.points, "q": g.points, "values": values}

    return bundle


def _check_separable(
    report: ScenarioReport, chi: PhaseSpaceField, psi: WaveFunction, phi: WaveFunction
) -> np.ndarray:
    """Record the separable-structure checks of chi = psi(q) conj(phi(p)) exp(-i p q / hbar):
    |chi| = |psi| |phi|, and theta = arg chi + p q / hbar equals arg psi - arg phi modulo 2 pi,
    so its centred cross difference vanishes.  Evaluated on the box of chi's amplitude mask,
    which must lie inside chi's rows, from wrapped phases: each compared quantity is 0 where
    the structure holds, so wrapping cannot alias it.  Returns the joint mask of chi, psi and
    phi on the whole grid."""
    mask, box = strip_mask_box(chi.values, chi.rows)
    rows, cols = box
    r_p, r_q = np.abs(phi.values), np.abs(psi.values)
    joint = mask & amplitude_mask(r_p)[:, None] & amplitude_mask(r_q)[None, :]
    inside = joint[box]
    values = chi.values[within(rows, chi.rows, len(r_q)), cols]
    outer = r_p[rows, None] * r_q[None, cols]
    report.check("eps-amplitude-factorization", np.max(np.abs(np.abs(values) - outer)[inside] / outer[inside]))

    def wrap(phase):  # into [-pi, pi)
        return np.remainder(phase + np.pi, 2.0 * np.pi) - np.pi

    p_axis, q_axis, hbar = chi.grid.p_axis, chi.grid.q_axis, chi.grid.hbar
    theta = np.angle(values) + p_axis.points[rows, None] * q_axis.points[None, cols] / hbar
    additivity = wrap(theta - np.angle(psi.values[None, cols]) + np.angle(phi.values[rows, None]))
    report.check("eps-phase-additivity-spread", hbar * np.ptp(additivity[inside]))

    # hbar d^2(theta)/dp dq by the centred cross stencil, where all four diagonal neighbours lie in the mask
    m = mask[box]
    valid = m[2:, 2:] & m[2:, :-2] & m[:-2, 2:] & m[:-2, :-2]
    cross = wrap(theta[2:, 2:] - theta[2:, :-2] - theta[:-2, 2:] + theta[:-2, :-2])
    cell = 4.0 * p_axis.spacing * q_axis.spacing
    report.check("eps-action-mixed-partial", hbar * masked_max(cross, valid) / cell)
    return joint


def scenario_classical_appendix(cfg: ScenarioConfig) -> ScenarioReport:
    """Dual-Lagrangian classical checks: trajectories solved in position and
    momentum space describe one motion, and the Legendre identities hold to
    rounding at arbitrary sample points."""
    params = _harmonic_params(cfg)
    m, k = cfg.mass, cfg.spring_k
    w_freq = params.omega
    period = 2.0 * math.pi / w_freq
    report = ScenarioReport("classical-appendix", cfg)

    tr_q = el_solve_q(params, 0.0, 1.0, period, 1e-3)
    q_exact = (1.0 / w_freq) * np.sin(w_freq * tr_q.times)
    qdot_exact = np.cos(w_freq * tr_q.times)
    err_q = max(
        float(np.max(np.abs(tr_q.coord - q_exact))),
        float(np.max(np.abs(tr_q.velocity - qdot_exact))),
    )
    report.check("el-q-max-err", err_q)

    p0, pdot0 = translate_initial_conditions(params, 0.0, 1.0)
    tr_p = el_solve_p(params, p0, pdot0, period, 1e-3)
    p_exact = m * np.cos(w_freq * tr_p.times)
    pdot_exact = -m * w_freq * np.sin(w_freq * tr_p.times)
    err_p = max(
        float(np.max(np.abs(tr_p.coord - p_exact))),
        float(np.max(np.abs(tr_p.velocity - pdot_exact))),
    )
    report.check("el-p-max-err", err_p)

    cross = max(
        float(np.max(np.abs(tr_p.coord - m * tr_q.velocity))),
        float(np.max(np.abs(tr_p.velocity + k * tr_q.coord))),
    )
    report.check("el-cross-consistency", cross)

    energy_q = hamiltonian(params, tr_q.coord, m * tr_q.velocity)
    energy_p = tr_p.coord**2 / (2.0 * m) + tr_p.velocity**2 / (2.0 * k)
    drift = max(
        float(np.max(np.abs(energy_q - energy_q[0]))),
        float(np.max(np.abs(energy_p - energy_p[0]))),
    )
    report.check("el-energy-drift", drift)

    # 100 points of the R2 Kronecker sequence in [-2, 2]^2 (g is the plastic
    # number, the real root of g^3 = g + 1): deterministic, low-discrepancy
    g = 1.3247179572447460
    samples = [(4.0 * ((0.5 + i / g) % 1.0) - 2.0, 4.0 * ((0.5 + i / g**2) % 1.0) - 2.0) for i in range(1, 101)]
    res_h = legendre_residual(params, samples)
    report.check("legendre-residual-harmonic", res_h)
    res_l = legendre_residual(_linear_params(cfg), samples)
    report.check("legendre-residual-linear", res_l)

    return report


def scenario_all(cfg: ScenarioConfig) -> ScenarioReport:
    """Every scenario in registry order, aggregated into one report."""
    report = ScenarioReport("all", cfg)
    for name in SCENARIO_ORDER:
        report.subreports.append(REGISTRY[name][0](cfg))
    return report


REGISTRY: dict[str, tuple[Callable[[ScenarioConfig], ScenarioReport], str]] = {
    "wigner-equivalence": (
        scenario_wigner_equivalence,
        "shear at alpha=-1/2 vs direct Wigner construction (constant fitted)",
    ),
    "alpha-sweep": (
        scenario_alpha_sweep,
        "quantum-term coefficient law across the shear family",
    ),
    "harmonic-coherent": (
        scenario_harmonic_coherent,
        "harmonic oscillator: quantum potentials, HJ residuals, averaging rule",
    ),
    "linear-gaussian": (
        scenario_linear_gaussian,
        "linear potential: HJ residual, Wigner transport, split-step cross-check",
    ),
    "pspace-linear": (
        scenario_pspace_linear,
        "momentum-space equation for the linear potential is classical already",
    ),
    "eps-residuals": (
        scenario_eps_residuals,
        "phase-space dynamical equation and separable-structure checks",
    ),
    "classical-appendix": (
        scenario_classical_appendix,
        "dual-Lagrangian trajectories and Legendre identities",
    ),
    "all": (scenario_all, "every scenario in sequence"),
}

#: The scenarios ``all`` runs, in registry order.
SCENARIO_ORDER = tuple(name for name in REGISTRY if name != "all")


def run_scenario(name: str, cfg: ScenarioConfig) -> ScenarioReport:
    """Run a registered scenario; KeyError for unknown names."""
    if name not in REGISTRY:
        raise KeyError(name)
    return REGISTRY[name][0](cfg)
