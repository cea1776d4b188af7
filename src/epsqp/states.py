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


def splitstep_propagate(psi0: WaveFunction, t_final: float, dt: float = 5e-3) -> WaveFunction:
    """Propagate with Yoshida's fourth-order split-step composition.

    Each step is the triple jump ``S(w1 dt) S(w0 dt) S(w1 dt)`` of the
    Strang step ``S(h)`` = (half-V, K, half-V), with ``w1 = 1/(2 - 2^(1/3))``
    and ``w0 = 1 - 2 w1`` (H. Yoshida, Phys. Lett. A 150, 262 (1990)).
    The step count is rounded so the final time is hit exactly; the actual
    step used is the returned state's ``t`` divided by that count.  Used as
    an independent check on the closed-form states, not for production
    data.
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
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    stages = [
        (np.exp(-0.5j * v * h / hbar), np.exp(-0.5j * hbar * k**2 * h / m))
        for h in (w1 * dt_eff, (1.0 - 2.0 * w1) * dt_eff, w1 * dt_eff)
    ]

    values = psi0.values.copy()  # every stage works in place on it
    for _ in range(n_steps):
        for half_v, kinetic in stages:
            np.multiply(half_v, values, out=values)
            np.fft.fft(values, out=values)
            np.multiply(kinetic, values, out=values)
            np.fft.ifft(values, out=values)
            np.multiply(half_v, values, out=values)
    return replace(psi0, values=values, t=psi0.t + t_final)
