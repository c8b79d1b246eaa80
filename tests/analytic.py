"""Closed-form oracles and small helpers shared by the test modules.

These stay independent of the pipeline they check: the flight oracles are
evaluated from the analytic free-Gaussian solution, the Fock-space ones
from dense matrices on the truncated number basis.
"""

import math

import numpy as np

from duality_sim.errors import UndefinedVisibilityError
from duality_sim.fock import coherent_state, quadrature_projector, quadrature_projectors
from duality_sim.interferometer import (LEVEL_INDEX, MIDPOINT, X_BOTTOM, X_TOP, AtomDensity,
                                        JointState, _slit_profile)
from duality_sim.propagation import DISPERSION_RATE, WAVELENGTH, ScreenDensity, fringe_visibility


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


def intensity_l2(pattern, intensity) -> float:
    """L2 distance between a screen pattern and an intensity sampled on its axis."""
    dx = float(pattern.x_axis[1] - pattern.x_axis[0])
    return math.sqrt(float(np.sum((pattern.intensity - intensity) ** 2)) * dx)


def pattern_l2(a, b) -> float:
    """L2 distance between two screen patterns on the same axis."""
    return intensity_l2(a, b.intensity)


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
    """Dense L L^dag of full-grid (start = 0) factors, indexed (i, s, j, s'); small grids only."""
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


def uncut_initial(prep, alpha, grid, n_max: int):
    """The initial joint state before the cut at the weight floor.

    It covers every row where a slit packet is exactly nonzero, at all n_max
    Fock columns.
    """
    g_top = _slit_profile(grid, X_TOP)
    ground = prep.c_up * math.cos(prep.phi) * g_top + prep.c_down * _slit_profile(grid, X_BOTTOM)
    mixed = prep.c_up * math.sin(prep.phi) * g_top
    rows = np.flatnonzero((ground != 0.0) | (mixed != 0.0))
    start, stop = int(rows[0]), int(rows[-1]) + 1
    c_m = coherent_state(alpha, n_max)
    amps = np.empty((stop - start, 2, n_max), dtype=complex)
    amps[:, LEVEL_INDEX["c"], :] = np.outer(ground[start:stop], c_m)
    amps[:, LEVEL_INDEX["b"], :] = np.outer(mixed[start:stop], c_m)
    return JointState(grid=grid, amps=amps, start=start)


def full_grid(state):
    """The same state with a row for every grid point (start = 0)."""
    amps = np.zeros((state.grid.n_points,) + state.amps.shape[1:], dtype=complex)
    amps[state.start:state.stop] = state.amps
    return JointState(grid=state.grid, amps=amps)


def window_density(rho) -> np.ndarray:
    """(rows, 2) density of an AtomDensity's carried rows, |factors|^2 added rank by rank."""
    return sum(np.abs(rho.factors[:, :, k]) ** 2 for k in range(rho.rank))


def atom_trace(rho) -> float:
    """trace(rho) of an AtomDensity: dx times its summed window density."""
    return float(np.sum(window_density(rho))) * rho.grid.dx


def top_path_weight(rho) -> float:
    """Probability of an AtomDensity on the top slit's side of MIDPOINT."""
    x = rho.grid.x[rho.start:rho.stop]
    return float(np.sum(window_density(rho)[x < MIDPOINT])) * rho.grid.dx


def full_grid_atom(rho):
    """The same atomic density with a factor row for every grid point (start = 0)."""
    factors = np.zeros((rho.grid.n_points,) + rho.factors.shape[1:], dtype=complex)
    factors[rho.start:rho.stop] = rho.factors
    return AtomDensity(grid=rho.grid, factors=factors, discarded_weight=rho.discarded_weight)


def flown_factors(rho, t_prime: float) -> np.ndarray:
    """The flight of every level and rank at once through one (N, 2, rank) column-major buffer.

    Returns the flown full-grid factors.
    """
    grid = rho.grid
    k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    kernel = np.exp(-1j * (DISPERSION_RATE * t_prime) * k * k)
    factors = np.zeros((grid.n_points, 2, rho.rank), dtype=complex, order="F")
    factors[rho.start:rho.stop] = rho.factors
    np.fft.fft(factors, axis=0, out=factors)
    np.multiply(kernel[:, None, None], factors, out=factors)
    return np.fft.ifft(factors, axis=0, out=factors)


def flown_full_grid(rho, t_prime: float):
    """The ScreenDensity of flown_factors: their density added rank by rank, their Gram times dx.

    The flight flies one level at a time, and its readouts must equal this one's bit for bit.
    """
    flown = AtomDensity(grid=rho.grid, factors=flown_factors(rho, t_prime))
    return ScreenDensity(grid=rho.grid, density=window_density(flown), gram=flown.gram)


def unkicked_local_pattern(prep, alpha, theta_int: float, grid, t_prime: float,
                           n_max: int = 96) -> np.ndarray:
    """Screen intensity of the stage-2 local kick with the trace readout, in closed form.

    Without the drive the dispersive map multiplies |c, m> by the phase
    e^{i theta_int m cos^2 3x} and leaves |b> alone, so the traced atom is the
    mixture sum_m |c_m|^2 (|U(ground e^{i theta_int m cos^2 3x})|^2 + |U mixed|^2),
    U the free flight.  Each term flies through its own FFT.  Returns the
    mixture normalised to unit weight, on the wavelength axis.
    """
    k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    kernel = np.exp(-1j * (DISPERSION_RATE * t_prime) * k * k)

    def flown_density(psi):
        return np.abs(np.fft.ifft(kernel * np.fft.fft(psi))) ** 2

    g_top = _slit_profile(grid, X_TOP)
    ground = prep.c_up * math.cos(prep.phi) * g_top + prep.c_down * _slit_profile(grid, X_BOTTOM)
    mixed = prep.c_up * math.sin(prep.phi) * g_top
    weights = np.abs(coherent_state(alpha, n_max)) ** 2
    phase = theta_int * np.cos(3.0 * grid.x) ** 2
    total = np.sum(weights) * flown_density(mixed)
    for m, weight in enumerate(weights):
        total += weight * flown_density(ground * np.exp(1j * m * phase))
    return total * WAVELENGTH / (float(np.sum(total)) * grid.dx)


def assert_same_readouts(got, want) -> None:
    """Density, Gram, boundary weight, trace and purity of two ScreenDensity agree bit for bit."""
    assert np.array_equal(got.density, want.density), "density"
    assert np.array_equal(got.gram, want.gram), "gram"
    assert got.boundary_weight() == want.boundary_weight(), "boundary weight"
    assert got.trace() == want.trace(), "trace"
    assert got.purity() == want.purity(), "purity"


def uncached_field_gram(state) -> np.ndarray:
    """dx sum_g conj(amps[g, m]) amps[g, n] as one plain complex product over every row."""
    flat = state.amps.reshape(-1, state.n_max)
    return (flat.conj().T @ flat) * state.grid.dx


def joint_state_pdf(state, theta: float, chis) -> np.ndarray:
    """Outcome densities contracted from the joint state: dx sum_g |<chi|psi_g>|^2."""
    coeffs = quadrature_projectors(theta, chis, state.n_max)
    cond = state.amps.reshape(-1, state.n_max) @ coeffs.conj().T
    return np.sum(np.abs(cond) ** 2, axis=0) * state.grid.dx


def _golden_section(density_at, a: float, b: float) -> float:
    """Golden-section search of [a, b] for the maximum, ties towards the smaller chi."""
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


def _bracket(state, theta: float, search) -> tuple[float, float]:
    """The neighbours of the best of 281 outcomes of joint_state_pdf over search."""
    coarse = np.linspace(search[0], search[1], 281)
    best = int(np.argmax(joint_state_pdf(state, theta, coarse)))
    return coarse[max(best - 1, 0)], coarse[min(best + 1, coarse.size - 1)]


def golden_section_chi(state, theta: float, search=(-7.0, 7.0)) -> float:
    """Most probable outcome from a 281-point scan and a golden-section search.

    The scan runs on joint_state_pdf, the search on b_chi G b_chi^dag from the field Gram G.
    """
    gram = state.field_gram

    def density_at(chi):
        row = quadrature_projector(theta, chi, state.n_max)
        return float((row @ gram @ row.conj()).real)

    return _golden_section(density_at, *_bracket(state, theta, search))


def joint_state_chi(state, theta: float, search=(-7.0, 7.0)) -> float:
    """The same search with every density contracted from the joint state (joint_state_pdf)."""
    def density_at(chi):
        return float(joint_state_pdf(state, theta, np.array([chi]))[0])

    return _golden_section(density_at, *_bracket(state, theta, search))
