"""Numerical toolkit for quantum distribution functions on extended phase
space: exact reference states, spectral Fourier machinery, the product
distribution chi(p, q) and its dynamical equation, shear transforms of the
distribution family, quantum-potential profiles, and the classical
dual-Lagrangian checks."""

__version__ = "0.1.0"
