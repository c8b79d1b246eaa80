"""Closed-form oracles and small helpers shared by the test modules.

These stay independent of the pipeline they check: the flight oracles are
evaluated from the analytic free-Gaussian solution, the Fock-space ones
from dense matrices on the truncated number basis.
"""

import math

import numpy as np

from duality_sim.errors import UndefinedVisibilityError
from duality_sim.propagation import DISPERSION_RATE, WAVELENGTH, fringe_visibility


def gaussian_spread_sigma(sigma: float, t_prime: float) -> float:
    """Width of a free Gaussian density after flight, from the analytic law."""
    tau = DISPERSION_RATE * t_prime
    return sigma * math.sqrt(1.0 + (tau / sigma ** 2) ** 2)


def evolved_gaussian(x: np.ndarray, centre: float, sigma: float, t_prime: float) -> np.ndarray:
    """Analytic free evolution of a unit-norm Gaussian packet (amplitude)."""
    tau = DISPERSION_RATE * t_prime
    pref = (2.0 * math.pi * sigma ** 2) ** -0.25 / np.sqrt(1.0 + 1j * tau / sigma ** 2)
    return pref * np.exp(-((x - centre) ** 2) / (4.0 * (sigma ** 2 + 1j * tau)))


def two_slit_intensity(grid, centres, weights, sigma: float, t_prime: float) -> np.ndarray:
    """Screen density (wavelength axis) of a coherent two-packet superposition."""
    psi = np.zeros(grid.n_points, dtype=complex)
    for w, c in zip(weights, centres):
        psi += w * evolved_gaussian(grid.x, c, sigma, t_prime)
    return np.abs(psi) ** 2 * WAVELENGTH


def pattern_l2(a, b) -> float:
    """L2 distance between two screen patterns on the same axis."""
    return math.sqrt(float(np.sum((a.intensity - b.intensity) ** 2)) * a.dx)


def visibility_or_zero(pattern, window=None) -> float:
    """Fringe contrast, with a fringe-free pattern counting as zero contrast."""
    try:
        return fringe_visibility(pattern, window)
    except UndefinedVisibilityError:
        return 0.0


def lowering_operator(n_max: int) -> np.ndarray:
    """Annihilation operator a on the truncated basis."""
    return np.diag(np.sqrt(np.arange(1.0, n_max)), k=1).astype(complex)


def quadrature_operator(theta: float, n_max: int) -> np.ndarray:
    """Hermitian matrix of X_theta = (a e^{-i theta} + a^dag e^{i theta})/2."""
    half = 0.5 * np.exp(-1j * float(theta)) * lowering_operator(n_max)
    return half + half.conj().T


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 / (<a|a> <b|b>) for two Fock amplitude vectors."""
    return abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real)


def dense_rho(rho) -> np.ndarray:
    """Dense atomic density matrix L L^dag, indexed (i, s, j, s'); small grids only."""
    flat = rho.factors.reshape(-1, rho.rank)
    n = rho.grid.n_points
    return (flat @ flat.conj().T).reshape(n, 2, n, 2)
