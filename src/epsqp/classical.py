"""Classical mechanics in position and momentum space.

The same dynamics can be generated from a Lagrangian in either variable:

    L_q(q, qdot) = m qdot^2 / 2 - V(q),        V = k q^2 / 2 + b q
    L_p(p, pdot) = p^2 / 2m - (pdot + b)^2 / 2k   (harmonic, k != 0)
    L_p(p, pdot) = p^2 / 2m                       (linear, k = 0; pdot = -b
                                                   is constant and the pdot^2
                                                   term is gauged away)

Both connect to the same Hamiltonian through Legendre transforms — the
momentum-space version with q = dL_p/dpdot — and their Euler-Lagrange
equations (m qddot = -V'(q) and pddot = -(k/m) p) describe one motion
related by p = m qdot, pdot = -V'(q).  This module verifies those algebraic
identities pointwise and integrates both trajectory families with a
fixed-step fourth-order Runge-Kutta scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.typing import NDArray

from .numerics import PhysicalParams


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution in one space: coordinate and its time derivative.

    ``space`` is ``"q"`` (coord = position, velocity = qdot) or ``"p"``
    (coord = momentum, velocity = pdot).
    """

    times: NDArray[np.float64]
    coord: NDArray[np.float64]
    velocity: NDArray[np.float64]
    space: str

    def __post_init__(self):
        if self.space not in ("q", "p"):
            raise ValueError(f"space must be 'q' or 'p', got {self.space!r}")
        times = np.asarray(self.times, dtype=float)
        coord = np.asarray(self.coord, dtype=float)
        velocity = np.asarray(self.velocity, dtype=float)
        if not (times.shape == coord.shape == velocity.shape) or times.ndim != 1:
            raise ValueError("times, coord and velocity must be equal-length 1D arrays")
        if times.size >= 2 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coord", coord)
        object.__setattr__(self, "velocity", velocity)


def lagrangian_q(params: PhysicalParams, q, qdot):
    """Position-space Lagrangian ``m qdot^2 / 2 - V(q)``."""
    return 0.5 * params.mass * np.asarray(qdot) ** 2 - params.potential.value(np.asarray(q))


def lagrangian_p(params: PhysicalParams, p, pdot):
    """Momentum-space Lagrangian (see module docstring for the linear gauge)."""
    p = np.asarray(p, dtype=float)
    pdot = np.asarray(pdot, dtype=float)
    kinetic = p**2 / (2.0 * params.mass)
    k, b = params.potential.k, params.potential.b
    return kinetic - (pdot + b) ** 2 / (2.0 * k) if k else kinetic


def hamiltonian(params: PhysicalParams, q, p):
    """H(q, p) = p^2 / 2m + V(q)."""
    return np.asarray(p, dtype=float) ** 2 / (2.0 * params.mass) + params.potential.value(
        np.asarray(q, dtype=float)
    )


def legendre_residual(
    params: PhysicalParams, samples: Iterable[tuple[float, float]]
) -> float:
    """Worst-case Legendre-transform mismatch over sample points.

    Each sample ``(x, v)`` is read both ways:

    * as ``(q, qdot)``: with p = dL_q/dqdot = m qdot, the identity
      ``H(q, p) = qdot p - L_q`` must hold;
    * as ``(p, pdot)``: with q = dL_p/dpdot (= -(pdot + b)/k harmonic, 0 in
      the linear gauge where L_p has no pdot dependence), the identity
      ``H(q, p) = -pdot q + L_p`` must hold.

    These are algebraic identities of the Lagrangian pair, not dynamics —
    the residual is rounding-level at arbitrary points, on or off shell.
    """
    worst = 0.0
    m, k, b = params.mass, params.potential.k, params.potential.b
    for x, v in samples:
        p_conj = m * v
        r_q = abs(
            float(hamiltonian(params, x, p_conj))
            - (v * p_conj - float(lagrangian_q(params, x, v)))
        )
        q_conj = -(v + b) / k if k else 0.0
        r_p = abs(
            float(hamiltonian(params, q_conj, x))
            - (-v * q_conj + float(lagrangian_p(params, x, v)))
        )
        worst = max(worst, r_q, r_p)
    return worst


# ---------------------------------------------------------------------------
# Euler-Lagrange trajectories (fixed-step RK4)
# ---------------------------------------------------------------------------


def _rk4_second_order(accel, x0: float, v0: float, t_final: float, dt: float):
    """Integrate ``xddot = accel(x)`` with classic RK4 on (x, v).

    The step count is rounded so the final time is hit exactly.  Plain
    Python floats throughout: the state is two scalars and a fixed-step
    loop in float arithmetic is both faster and bit-reproducible.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    n_steps = max(1, round(t_final / dt))
    h = t_final / n_steps

    times = np.empty(n_steps + 1)
    xs = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1)
    x, v = float(x0), float(v0)
    times[0], xs[0], vs[0] = 0.0, x, v
    for i in range(1, n_steps + 1):
        k1x, k1v = v, accel(x)
        k2x, k2v = v + 0.5 * h * k1v, accel(x + 0.5 * h * k1x)
        k3x, k3v = v + 0.5 * h * k2v, accel(x + 0.5 * h * k2x)
        k4x, k4v = v + h * k3v, accel(x + h * k3x)
        x += h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        v += h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        times[i], xs[i], vs[i] = i * h, x, v
    return times, xs, vs


def el_solve_q(
    params: PhysicalParams, q0: float, qdot0: float, t_final: float, dt: float = 1e-3
) -> Trajectory:
    """Euler-Lagrange trajectory of L_q: integrate ``m qddot = -V'(q)``."""
    m = params.mass
    pot = params.potential

    def accel(x: float) -> float:
        return -float(pot.derivative(x)) / m

    times, xs, vs = _rk4_second_order(accel, q0, qdot0, t_final, dt)
    return Trajectory(times, xs, vs, space="q")


def el_solve_p(
    params: PhysicalParams, p0: float, pdot0: float, t_final: float, dt: float = 1e-3
) -> Trajectory:
    """Euler-Lagrange trajectory of L_p: integrate ``pddot = -(k/m) p``.

    For the harmonic potential this is the same oscillation as the
    position-space solution (p = m qdot); for the linear potential k = 0
    and the momentum moves uniformly, pdot frozen at its initial value.
    """
    curvature = params.potential.k / params.mass

    def accel(x: float) -> float:
        return -curvature * x

    times, xs, vs = _rk4_second_order(accel, p0, pdot0, t_final, dt)
    return Trajectory(times, xs, vs, space="p")


def translate_initial_conditions(
    params: PhysicalParams, q0: float, qdot0: float
) -> tuple[float, float]:
    """Map position-space initial data to momentum-space initial data.

    ``p0 = m qdot0`` (definition of the canonical momentum) and
    ``pdot0 = -V'(q0)`` (the equation of motion): with these, el_solve_p
    traces the momentum of the el_solve_q trajectory.
    """
    return params.mass * qdot0, -float(params.potential.derivative(q0))
