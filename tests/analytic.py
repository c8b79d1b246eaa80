"""Closed-form oracles and small helpers shared by the test modules.

These stay independent of the pipeline they check: the flight oracles are
evaluated from the analytic free-Gaussian solution, the Fock-space ones
from dense matrices on the truncated number basis.
"""

import math

import numpy as np

from duality_sim.errors import UndefinedVisibilityError
from duality_sim.fock import quadrature_projectors
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


def coherent_matrix(betas, n_max: int) -> np.ndarray:
    """Columns c_m(beta) = exp(-|beta|^2/2) beta^m / sqrt(m!) for a vector of betas."""
    betas = np.asarray(betas, dtype=complex)
    steps = betas[None, :] / np.sqrt(np.arange(1.0, n_max))[:, None]
    powers = np.vstack([np.ones_like(betas), np.cumprod(steps, axis=0)])
    return np.exp(-0.5 * np.abs(betas) ** 2) * powers


def dense_husimi(rho: np.ndarray, betas) -> np.ndarray:
    """Q(beta) = c(beta)^dag rho c(beta) / pi from the dense coherent matrix."""
    cmat = coherent_matrix(betas, rho.shape[0])
    return np.sum(cmat.conj() * (rho @ cmat), axis=0).real / math.pi


def uncached_field_gram(state) -> np.ndarray:
    """dx sum_g conj(amps[g, m]) amps[g, n] as one plain complex product over every row."""
    flat = state.amps.reshape(-1, state.n_max)
    return (flat.conj().T @ flat) * state.grid.dx


def joint_state_pdf(state, theta: float, chis) -> np.ndarray:
    """Outcome densities contracted from the joint state: dx sum_g |<chi|psi_g>|^2."""
    coeffs = quadrature_projectors(theta, chis, state.n_max)
    cond = state.amps.reshape(-1, state.n_max) @ coeffs.conj().T
    return np.sum(np.abs(cond) ** 2, axis=0) * state.grid.dx


def golden_section_chi(state, theta: float, search=(-7.0, 7.0)) -> float:
    """Most probable outcome from a 281-point scan and a golden-section search.

    Both run on joint_state_pdf: the search as it ran before the scan read the field Gram.
    """
    coarse = np.linspace(search[0], search[1], 281)
    best = int(np.argmax(joint_state_pdf(state, theta, coarse)))
    a, b = coarse[max(best - 1, 0)], coarse[min(best + 1, coarse.size - 1)]

    def density_at(chi):
        return float(joint_state_pdf(state, theta, np.array([chi]))[0])

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = density_at(c), density_at(d)
    while b - a > 1e-10:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = density_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = density_at(d)
    return 0.5 * (a + b)
