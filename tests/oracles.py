"""Closed forms of the harmonic Gaussian family on a phase-space grid, at general (m, k, hbar),
and of the spreading Gaussian in the linear potential V = b q, at general (m, b, hbar).

Each is written from its formula alone, with no FFT, so it referees the spectral
paths of ``epsqp`` rather than repeating them.  Arrays are indexed ``[i_p, i_q]``
like the package's phase-space fields.  The coherent state is ``ho_coherent_state``'s:
centre ``(q_c, p_c)`` on the classical trajectory from ``(q0, p0)`` at ``t = 0``; the
linear one is ``linear_potential_gaussian``'s, from ``(q0, p0)`` and width ``sigma0``.
"""

from __future__ import annotations

import numpy as np


def coherent_center(params, q0: float, p0: float, t: float) -> tuple[float, float]:
    """The classical trajectory ``(q_c, p_c)`` at ``t``."""
    m, w = params.mass, params.omega
    q_c = q0 * np.cos(w * t) + p0 / (m * w) * np.sin(w * t)
    p_c = p0 * np.cos(w * t) - m * w * q0 * np.sin(w * t)
    return q_c, p_c


def coherent_phi(params, p, q0: float, p0: float, t: float):
    """The coherent state's momentum amplitude, the Fourier integral of its psi:

        phi(p) = (pi hbar m w)^(-1/4) exp(-(p - p_c)^2 / (2 m w hbar))
                 exp(i (p_c q_c / 2 - p q_c) / hbar) exp(-i w t / 2)
    """
    m, hbar, w = params.mass, params.hbar, params.omega
    q_c, p_c = coherent_center(params, q0, p0, t)
    return (
        (np.pi * hbar * m * w) ** -0.25
        * np.exp(-((p - p_c) ** 2) / (2.0 * m * w * hbar))
        * np.exp(1j * (0.5 * p_c * q_c - p * q_c) / hbar)
        * np.exp(-0.5j * w * t)
    )


def coherent_chi(psi, grid, q0: float, p0: float):
    """``chi = psi(q) conj(phi(p)) exp(-i p q / hbar)`` of the coherent state ``psi`` (the
    closed-form ``ho_coherent_state`` from ``(q0, p0)``) with :func:`coherent_phi`."""
    return _chi(psi, grid, coherent_phi(psi.params, grid.p_axis.points, q0, p0, psi.t))


def _chi(psi, grid, phi):
    """``psi(q) conj(phi(p)) exp(-i p q / hbar)`` with the kernel's exponential taken directly."""
    p, q = grid.p_axis.points[:, None], grid.q_axis.points[None, :]
    return psi.values[None, :] * np.conj(phi)[:, None] * np.exp(-1j * p * q / grid.hbar)


def coherent_sheared_q_spectrum(params, grid, q0: float, p0: float, t: float, alpha: float, p, band) -> tuple:
    """``(S, dS/dp)``: the q-spectrum of the coherent state's chi sheared by alpha, on the rows
    ``p`` (an array of momenta) and the q wavenumber columns ``band``, from
    :func:`coherent_phi` alone, as :func:`_sheared_q_spectrum`; ``phi'/phi = -(p - p_c) / (m w
    hbar) - i q_c / hbar``.  At alpha = 0 this is chi's q-spectrum, ``fft(chi)`` along q.
    """
    m, hbar, w = params.mass, params.hbar, params.omega
    q_c, p_c = coherent_center(params, q0, p0, t)
    return _sheared_q_spectrum(
        grid, alpha, p, band, p_c,
        12.0 * np.sqrt(m * w * hbar),  # phi is below 1e-31 of its peak further from p_c
        lambda y: coherent_phi(params, y, q0, p0, t),
        lambda y: -(y - p_c) / (m * w * hbar) - 1j * q_c / hbar,
    )


def _sheared_q_spectrum(grid, alpha: float, p, band, p_c: float, width: float, phi, slope) -> tuple:
    """``(S, dS/dp)`` of a chi sheared by alpha, on the rows ``p`` and the q wavenumber
    columns ``band``, from its state's momentum amplitude ``phi`` and ``slope = phi'/phi``,
    callables of p, and phi's centre ``p_c`` and ``width``, past which it is below rounding:
    with ``dp`` the grid's momentum step (so ``hbar v_b = b dp``),

        S = (sqrt(2 pi hbar) / dq) conj(H(p + alpha b dp)) H(p + (1 + alpha) b dp),

    ``H(p) = sum_l h(p + l n dp)`` and ``h(p) = exp(i p q_min / hbar) phi(p)``, the Fourier
    integral of psi from ``q_min``.  The images make H periodic in p, as the DFT of psi's samples
    is (Poisson summation; the state's decay puts its q aliasing below rounding), so a shear that
    carries an argument past the p axis reads what the discrete one does.
    """
    hbar, q_min, n, dp = grid.hbar, grid.q_axis.min, grid.q_axis.n_points, grid.p_axis.spacing

    def factor(x):  # (H, H') at the momenta x
        h = np.zeros(np.shape(x), dtype=complex)
        h_p = np.zeros_like(h)
        for image in range(-4, 5):
            y = x + image * n * dp
            if np.any(np.abs(y - p_c) < width):
                term = np.exp(1j * y * q_min / hbar) * phi(y)
                h += term
                h_p += term * (slope(y) + 1j * q_min / hbar)
        return h, h_p

    p, band = np.asarray(p)[:, None], np.asarray(band)[None, :]
    (a, a_p), (b, b_p) = factor(p + alpha * band * dp), factor(p + (1.0 + alpha) * band * dp)
    scale = np.sqrt(2.0 * np.pi * hbar) / grid.q_axis.spacing
    return scale * np.conj(a) * b, scale * (np.conj(a_p) * b + np.conj(a) * b_p)


def coherent_chi_derivatives(psi, grid, q0: float, p0: float) -> tuple:
    """``(chi_q, chi_qq, chi_p, chi_pp)`` of :func:`coherent_chi`, each ``chi`` times a closed
    form in its log derivatives, those of the factors and of the kernel ``exp(-i p q / hbar)``:

        d_q log chi = -m w (q - q_c) / hbar + i (p_c - p) / hbar,  d_q^2 log chi = -m w / hbar
        d_p log chi = -(p - p_c) / (m w hbar) + i (q_c - q) / hbar,  d_p^2 log chi = -1 / (m w hbar)

    and ``chi_xx = chi ((d_x log chi)^2 + d_x^2 log chi)``.
    """
    params = psi.params
    m, hbar, w = params.mass, params.hbar, params.omega
    q_c, p_c = coherent_center(params, q0, p0, psi.t)
    p, q = grid.p_axis.points[:, None], grid.q_axis.points[None, :]
    chi = coherent_chi(psi, grid, q0, p0)
    log_q = -m * w * (q - q_c) / hbar + 1j * (p_c - p) / hbar
    log_p = -(p - p_c) / (m * w * hbar) + 1j * (q_c - q) / hbar
    return chi * log_q, chi * (log_q**2 - m * w / hbar), chi * log_p, chi * (log_p**2 - 1.0 / (m * w * hbar))


def coherent_wigner(params, grid, q0: float, p0: float, t: float):
    """``W = 2 exp(-m w (q - q_c)^2 / hbar - (p - p_c)^2 / (m w hbar))``, in the lag measure
    of ``wigner_direct`` (peak 2 at any hbar; Hillery et al., Phys. Rep. 106, 121 (1984))."""
    m, hbar, w = params.mass, params.hbar, params.omega
    q_c, p_c = coherent_center(params, q0, p0, t)
    p, q = grid.p_axis.points[:, None], grid.q_axis.points[None, :]
    return 2.0 * np.exp(-m * w * (q - q_c) ** 2 / hbar - (p - p_c) ** 2 / (m * w * hbar))


def coherent_wigner_gradients(params, grid, q0: float, p0: float, t: float) -> tuple:
    """``(dW/dp, dW/dq)`` of :func:`coherent_wigner`: ``-2 (p - p_c) / (m w hbar) W`` and
    ``-2 m w (q - q_c) / hbar W``."""
    m, hbar, w = params.mass, params.hbar, params.omega
    q_c, p_c = coherent_center(params, q0, p0, t)
    p, q = grid.p_axis.points[:, None], grid.q_axis.points[None, :]
    wigner = coherent_wigner(params, grid, q0, p0, t)
    return -2.0 * (p - p_c) / (m * w * hbar) * wigner, -2.0 * m * w * (q - q_c) / hbar * wigner


def sheared_ground_chi(params, grid, alpha: float):
    """``U_alpha chi`` of the ground state up to one constant, in the Cohen class
    (Cohen, J. Math. Phys. 7, 781 (1966)): with ``x = 1/2 + alpha`` and the scaled
    ``Q = q sqrt(m w / hbar)``, ``P = p / sqrt(m w hbar)``,

        exp(-(P^2 + Q^2) / (1 + 4 x^2) - 4 i x P Q / (1 + 4 x^2)).

    ``x = 1/2`` is chi itself, ``x = 0`` the Wigner function.
    """
    m, hbar, w = params.mass, params.hbar, params.omega
    P = grid.p_axis.points[:, None] / np.sqrt(m * w * hbar)
    Q = grid.q_axis.points[None, :] * np.sqrt(m * w / hbar)
    x = 0.5 + alpha
    return np.exp(-(P**2 + Q**2 + 4j * x * P * Q) / (1.0 + 4.0 * x**2))


def coherent_chi_dt(psi, grid, q0: float, p0: float):
    """``d chi / dt`` of :func:`coherent_chi`: ``chi (L_psi + conj(L_phi))`` with the logarithmic
    time derivatives of the closed forms, from ``dq_c/dt = p_c / m`` and ``dp_c/dt = -m w^2 q_c``:

        L_psi = m w (q - q_c) qdot / hbar + i (pdot q - (pdot q_c + p_c qdot) / 2) / hbar - i w / 2
        L_phi = (p - p_c) pdot / (m w hbar) + i ((pdot q_c + p_c qdot) / 2 - p qdot) / hbar - i w / 2
    """
    params = psi.params
    m, hbar, w = params.mass, params.hbar, params.omega
    q_c, p_c = coherent_center(params, q0, p0, psi.t)
    qdot, pdot = p_c / m, -m * w * w * q_c
    p, q = grid.p_axis.points[:, None], grid.q_axis.points[None, :]
    mixed = 0.5 * (pdot * q_c + p_c * qdot)
    log_psi = m * w * (q - q_c) * qdot / hbar + 1j * (pdot * q - mixed) / hbar - 0.5j * w
    log_phi = (p - p_c) * pdot / (m * w * hbar) + 1j * (mixed - p * qdot) / hbar - 0.5j * w
    return coherent_chi(psi, grid, q0, p0) * (log_psi + np.conj(log_phi))


def _linear_path(params, q0: float, p0: float, sigma0: float, t: float) -> tuple:
    """``(q_c, p_c, c_t, gamma)`` of ``linear_potential_gaussian`` at ``t``."""
    m, hbar, b = params.mass, params.hbar, params.potential.b
    q_c = q0 + p0 * t / m - 0.5 * b * t**2 / m
    p_c = p0 - b * t
    c_t = 1.0 + 0.5j * hbar * t / (m * sigma0**2)
    gamma = p0**2 * t / (2 * m) - b * q0 * t - p0 * b * t**2 / m + b**2 * t**3 / (3 * m)
    return q_c, p_c, c_t, gamma


def linear_phi(params, p, q0: float, p0: float, sigma0: float, t: float):
    """The linear-potential Gaussian's momentum amplitude, the Fourier integral of its psi
    (the Gaussian integral cancels psi's ``c_t^(-1/2)``):

        phi(p) = (2 pi hbar)^(-1/2) (2 pi sigma0^2)^(-1/4) (4 pi sigma0^2)^(1/2)
                 exp(i gamma / hbar) exp(-i p q_c / hbar) exp(-sigma0^2 c_t (p - p_c)^2 / hbar^2)
    """
    hbar = params.hbar
    q_c, p_c, c_t, gamma = _linear_path(params, q0, p0, sigma0, t)
    return (
        (2.0 * np.pi * hbar) ** -0.5
        * (2.0 * np.pi * sigma0**2) ** -0.25
        * (4.0 * np.pi * sigma0**2) ** 0.5
        * np.exp(1j * (gamma - p * q_c) / hbar)
        * np.exp(-(sigma0**2) * c_t * (p - p_c) ** 2 / hbar**2)
    )


def linear_sheared_q_spectrum(
    params, grid, q0: float, p0: float, sigma0: float, t: float, alpha: float, p, band
) -> tuple:
    """``(S, dS/dp)``: the q-spectrum of the linear-potential Gaussian's chi sheared by alpha,
    as :func:`coherent_sheared_q_spectrum`, from :func:`linear_phi`, whose chirp ``c_t`` makes
    ``phi'/phi = -i q_c / hbar - 2 sigma0^2 c_t (p - p_c) / hbar^2``."""
    hbar = params.hbar
    q_c, p_c, c_t, _ = _linear_path(params, q0, p0, sigma0, t)
    return _sheared_q_spectrum(
        grid, alpha, p, band, p_c,
        8.5 * hbar / sigma0,  # |phi| = exp(-sigma0^2 (p - p_c)^2 / hbar^2), below 1e-31 further out
        lambda y: linear_phi(params, y, q0, p0, sigma0, t),
        lambda y: -1j * q_c / hbar - 2.0 * sigma0**2 * c_t * (y - p_c) / hbar**2,
    )


def linear_wigner(params, grid, q0: float, p0: float, sigma0: float, t: float):
    """``linear_potential_gaussian``'s W in the lag measure of ``wigner_direct``: its initial
    W, ``2 exp(-(q - q0)^2 / (2 sigma0^2) - 2 sigma0^2 (p - p0)^2 / hbar^2)``, carried along
    the classical flow of V = b q, which W follows exactly for a potential of degree at most
    two (Hillery et al., Phys. Rep. 106, 121 (1984)): (q, p) at t starts from
    ``(q - q_c - (p - p_c) t / m + q0, p - p_c + p0)``, so

        W = 2 exp(-(q - q_c - (p - p_c) t / m)^2 / (2 sigma0^2) - 2 sigma0^2 (p - p_c)^2 / hbar^2)
    """
    m, hbar = params.mass, params.hbar
    q_c, p_c, _, _ = _linear_path(params, q0, p0, sigma0, t)
    p, q = grid.p_axis.points[:, None] - p_c, grid.q_axis.points[None, :] - q_c
    return 2.0 * np.exp(-((q - p * t / m) ** 2) / (2.0 * sigma0**2) - 2.0 * sigma0**2 * p**2 / hbar**2)


def linear_chi(psi, grid, q0: float, p0: float, sigma0: float):
    """``chi = psi(q) conj(phi(p)) exp(-i p q / hbar)`` of the linear-potential Gaussian
    ``psi`` (the closed-form ``linear_potential_gaussian``) with :func:`linear_phi`."""
    return _chi(psi, grid, linear_phi(psi.params, grid.p_axis.points, q0, p0, sigma0, psi.t))


def linear_chi_dt(psi, grid, q0: float, p0: float, sigma0: float):
    """``d chi / dt`` of :func:`linear_chi`: ``chi (L_psi + conj(L_phi))`` with the logarithmic
    time derivatives of the closed forms, from ``dq_c/dt = p_c / m``, ``dp_c/dt = -b``,
    ``dc_t/dt = i hbar / (2 m sigma0^2)`` and ``dgamma/dt = p_c^2 / (2 m) - b q_c``:

        L_psi = -cdot / (2 c_t) + (q - q_c) qdot / (2 sigma0^2 c_t) + (q - q_c)^2 cdot / (4 sigma0^2 c_t^2)
                + i (pdot (q - q_c) - p_c qdot + gdot) / hbar
        L_phi = i (gdot - p qdot) / hbar - sigma0^2 (cdot (p - p_c) - 2 c_t pdot) (p - p_c) / hbar^2
    """
    params = psi.params
    m, hbar, b = params.mass, params.hbar, params.potential.b
    q_c, p_c, c_t, _ = _linear_path(params, q0, p0, sigma0, psi.t)
    qdot, pdot, cdot = p_c / m, -b, 0.5j * hbar / (m * sigma0**2)
    gdot = p_c**2 / (2.0 * m) - b * q_c
    p, q = grid.p_axis.points[:, None], grid.q_axis.points[None, :]
    x, s2 = q - q_c, sigma0**2
    log_psi = (
        -0.5 * cdot / c_t
        + x * qdot / (2.0 * s2 * c_t)
        + x**2 * cdot / (4.0 * s2 * c_t**2)
        + 1j * (pdot * x - p_c * qdot + gdot) / hbar
    )
    log_phi = 1j * (gdot - p * qdot) / hbar - s2 * (cdot * (p - p_c) - 2.0 * c_t * pdot) * (p - p_c) / hbar**2
    return linear_chi(psi, grid, q0, p0, sigma0) * (log_psi + np.conj(log_phi))
