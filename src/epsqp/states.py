"""Wavefunctions in position and momentum space, with exact reference states.

The closed-form states here are exact solutions of the time-dependent
Schroedinger equation for their potentials and double as oracles for the
residual diagnostics: plugging them into any of the phase-space evolution
identities must give zero up to discretisation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .numerics import (
    Grid1D,
    GridError,
    PhysicalParams,
    position_to_momentum,
)
from .reports import l2


@dataclass(frozen=True)
class WaveFunction:
    """Complex field on a 1D grid, tagged with its space, time and parameters.

    ``space`` is ``"q"`` (position) or ``"p"`` (momentum).
    """

    values: NDArray[np.complex128]
    grid: Grid1D
    space: str
    t: float
    params: PhysicalParams

    def __post_init__(self):
        if self.space not in ("q", "p"):
            raise ValueError(f"space must be 'q' or 'p', got {self.space!r}")
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n_points,):
            raise GridError(
                f"values shape {values.shape} does not match grid ({self.grid.n_points},)"
            )
        object.__setattr__(self, "values", values)

    def norm(self) -> float:
        """Discrete L2 norm, ``sqrt(sum |f|^2 dx)``."""
        return l2(self.values, self.grid.spacing)


# ---------------------------------------------------------------------------
# exact states
# ---------------------------------------------------------------------------


def ho_coherent_state(
    grid: Grid1D, params: PhysicalParams, q0: float, p0: float, t: float = 0.0
) -> WaveFunction:
    """Coherent state of the harmonic oscillator at time ``t`` (exact).

    A minimum-uncertainty Gaussian whose centre follows the classical
    trajectory ``(q_c(t), p_c(t))``:

        psi(q, t) = (m w / pi hbar)^(1/4)
                    * exp(-m w (q - q_c)^2 / (2 hbar))
                    * exp(i (p_c q - p_c q_c / 2) / hbar)
                    * exp(-i w t / 2)
    """
    if params.potential.k <= 0.0 or params.potential.b != 0.0:
        raise ValueError("coherent state requires harmonic parameters (k > 0, b = 0)")
    m, hbar, w = params.mass, params.hbar, params.omega
    q = grid.points
    q_c = q0 * np.cos(w * t) + (p0 / (m * w)) * np.sin(w * t)
    p_c = p0 * np.cos(w * t) - m * w * q0 * np.sin(w * t)
    prefactor = (m * w / (np.pi * hbar)) ** 0.25
    values = (
        prefactor
        * np.exp(-m * w * (q - q_c) ** 2 / (2.0 * hbar))
        * np.exp(1j * (p_c * q - 0.5 * p_c * q_c) / hbar)
        * np.exp(-0.5j * w * t)
    )
    return WaveFunction(values, grid, "q", t, params)


def ho_eigenstate(grid: Grid1D, params: PhysicalParams, n: int, t: float = 0.0) -> WaveFunction:
    """n-th harmonic-oscillator eigenstate with its phase ``exp(-i E_n t/hbar)``."""
    if params.potential.k <= 0.0 or params.potential.b != 0.0:
        raise ValueError("eigenstate requires harmonic parameters (k > 0, b = 0)")
    if n < 0:
        raise ValueError("quantum number must be non-negative")
    m, hbar, w = params.mass, params.hbar, params.omega
    xi = np.sqrt(m * w / hbar) * grid.points
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    hermite = np.polynomial.hermite.hermval(xi, coeffs)
    norm = (m * w / (np.pi * hbar)) ** 0.25 / np.sqrt(2.0**n * float(math.factorial(n)))
    energy = hbar * w * (n + 0.5)
    values = norm * hermite * np.exp(-0.5 * xi**2) * np.exp(-1j * energy * t / hbar)
    return WaveFunction(values.astype(complex), grid, "q", t, params)


def linear_potential_gaussian(
    grid: Grid1D,
    params: PhysicalParams,
    q0: float,
    p0: float,
    sigma0: float,
    t: float = 0.0,
) -> WaveFunction:
    """Spreading Gaussian in the linear potential ``V = b q`` (exact).

    The centre follows the uniformly accelerated classical path, the width
    spreads freely, and the phase carries the classical action:

        q_c = q0 + p0 t / m - b t^2 / (2 m)
        p_c = p0 - b t
        c_t = 1 + i hbar t / (2 m sigma0^2)
        gamma = p0^2 t / (2m) - b q0 t - p0 b t^2 / m + b^2 t^3 / (3 m)

        psi = (2 pi sigma0^2)^(-1/4) c_t^(-1/2)
              * exp(-(q - q_c)^2 / (4 sigma0^2 c_t))
              * exp(i (p_c (q - q_c) + gamma) / hbar)
    """
    if params.potential.k != 0.0:
        raise ValueError("linear-potential Gaussian requires linear parameters (k = 0)")
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    m, hbar, b = params.mass, params.hbar, params.potential.b
    q = grid.points
    q_c = q0 + p0 * t / m - 0.5 * b * t**2 / m
    p_c = p0 - b * t
    c_t = 1.0 + 0.5j * hbar * t / (m * sigma0**2)
    gamma = p0**2 * t / (2 * m) - b * q0 * t - p0 * b * t**2 / m + b**2 * t**3 / (3 * m)
    values = (
        (2.0 * np.pi * sigma0**2) ** -0.25
        / np.sqrt(c_t)
        * np.exp(-((q - q_c) ** 2) / (4.0 * sigma0**2 * c_t))
        * np.exp(1j * (p_c * (q - q_c) + gamma) / hbar)
    )
    return WaveFunction(values, grid, "q", t, params)


# ---------------------------------------------------------------------------
# space conversion
# ---------------------------------------------------------------------------


def to_momentum_space(psi: WaveFunction) -> WaveFunction:
    """Transform a position-space state to the paired momentum grid."""
    if psi.space != "q":
        raise ValueError("to_momentum_space expects a position-space state")
    values, p_grid = position_to_momentum(psi.values, psi.grid, psi.params.hbar)
    return WaveFunction(values, p_grid, "p", psi.t, psi.params)


# ---------------------------------------------------------------------------
# numerical propagation (independent oracle)
# ---------------------------------------------------------------------------


#: Yoshida's sixth-order weights, solution A (Phys. Lett. A 150, 262 (1990)):
#: the stage order w3 w2 w1 w0 w1 w2 w3 with w0 = 1 - 2 (w1 + w2 + w3).
_W1, _W2, _W3 = -1.17767998417887, 0.235573213359357, 0.784513610477560
YOSHIDA6_WEIGHTS = (_W3, _W2, _W1, 1.0 - 2.0 * (_W1 + _W2 + _W3), _W1, _W2, _W3)


def splitstep_propagate(psi0: WaveFunction, t_final: float, dt: float = 0.04) -> WaveFunction:
    """Propagate with Yoshida's sixth-order split-step composition.

    Each step is ``S(w3 dt) S(w2 dt) S(w1 dt) S(w0 dt) S(w1 dt) S(w2 dt)
    S(w3 dt)`` of the Strang step ``S(h)`` = (half-V, K, half-V), with the
    weights of :data:`YOSHIDA6_WEIGHTS` (H. Yoshida, Phys. Lett. A 150, 262
    (1990), solution A).  Adjacent half-V factors are merged, between
    stages and between steps, so each stage costs two FFTs and two
    multiplies.  The step count is rounded so the final time is hit
    exactly; the actual step used is the returned state's ``t`` divided by
    that count.  Used as an independent check on the closed-form states,
    not for production data.
    """
    if psi0.space != "q":
        raise ValueError("split-step propagation works on position-space states")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    if t_final == 0.0:
        return psi0

    params = psi0.params
    m, hbar = params.mass, params.hbar
    grid = psi0.grid
    n_steps = max(1, round(t_final / dt))
    dt_eff = t_final / n_steps

    v = params.potential.value(grid.points)
    k = grid.wavenumbers  # p/hbar in FFT order
    ws = YOSHIDA6_WEIGHTS

    def v_factor(w):  # exp(-i V w dt / hbar)
        return np.exp(-1j * v * (w * dt_eff / hbar))

    kinetics = [np.exp(-0.5j * hbar * k**2 * w * dt_eff / m) for w in ws]
    # the V factor after each stage: its half-V merged with the next stage's,
    # or with the first stage of the next step; the last step ends on a half-V
    inner = [v_factor(0.5 * (a + b)) for a, b in zip(ws, ws[1:])]
    mid_steps = [*inner, v_factor(ws[-1])]
    last_step = [*inner, v_factor(0.5 * ws[-1])]

    values = v_factor(0.5 * ws[0]) * psi0.values  # every stage works in place on it
    for after in [mid_steps] * (n_steps - 1) + [last_step]:
        for kinetic, v_after in zip(kinetics, after):
            np.fft.fft(values, out=values)
            np.multiply(kinetic, values, out=values)
            np.fft.ifft(values, out=values)
            np.multiply(v_after, values, out=values)
    return replace(psi0, values=values, t=psi0.t + t_final)
