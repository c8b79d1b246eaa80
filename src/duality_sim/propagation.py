"""Free flight to the screen and screen-pattern observables.

After the readout the atom evolves freely for a time t_prime.  Each factor
column of the density operator is a wavefunction, so conjugation by the
free propagator reduces to one spectral kernel application per column:

    psi_hat(k) -> exp(-i k^2 * DISPERSION_RATE * t_prime) psi_hat(k),

with k the angular spatial frequency of the position grid (units k_c = 1).
DISPERSION_RATE converts the quoted flight time into the kernel's phase
coefficient; it is fixed once here, and the analytic Gaussian-spreading
and two-slit oracles in the test suite are parameterised by the same
constant, which pins the kernel against closed forms.  Its value makes the
default grid (x in [-12, 14], 4096 points) hold the default flight time
t_prime = 3 with boundary weight far below the aliasing tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, NumericRangeError, UndefinedVisibilityError
from .evolution import PHASE_LIMIT
from .fock import write_columns
from .interferometer import AtomDensity, GridSpec, _gram
from .runtime import one_blas_thread

# kernel phase per unit flight time at unit spatial frequency
DISPERSION_RATE = 1.0 / (4.0 * math.pi ** 2)

# screen axis is expressed in classical wavelengths
WAVELENGTH = 2.0 * math.pi

# analysis window for fringe contrast, in classical wavelengths
DEFAULT_VISIBILITY_WINDOW = 0.25

__all__ = [
    "DISPERSION_RATE",
    "WAVELENGTH",
    "DEFAULT_VISIBILITY_WINDOW",
    "ScreenPattern",
    "ScreenDensity",
    "free_propagate",
    "screen_distribution",
    "fringe_visibility",
]


@dataclass(frozen=True)
class ScreenPattern:
    """Normalised atomic arrival density; x axis in classical wavelengths."""

    x_axis: np.ndarray
    intensity: np.ndarray

    def to_csv(self, path) -> None:
        write_columns(path, "x_lambda,intensity", self.x_axis, self.intensity)


@dataclass(frozen=True)
class ScreenDensity:
    """The flown density: column-major (n_points, 2) density and Gram matrix times dx."""

    grid: GridSpec
    density: np.ndarray
    gram: np.ndarray

    def trace(self) -> float:
        return float(np.sum(self.density)) * self.grid.dx

    def boundary_weight(self) -> float:
        """Probability on the two edge points of the periodic grid."""
        return float(np.sum(self.density[[0, -1]])) * self.grid.dx

    def purity(self) -> float:
        """trace(rho^2) via the rank x rank Gram matrix."""
        return float(np.sum(np.abs(self.gram) ** 2))


@one_blas_thread
def free_propagate(rho: AtomDensity, t_prime: float,
                   boundary_tol: float = 1e-6) -> ScreenDensity:
    """Evolve the atomic density operator through a field-free flight of duration t_prime.

    Level b, then level c, flies through one column-major (n_points, rank)
    buffer, so each FFT runs along a contiguous column; the level's density
    column and Gram block products are read before the next level overwrites it.
    The kernel is unitary, so trace, Hermiticity and purity are preserved
    exactly; the boundary check guards against wrap-around of a state that
    outgrew the periodic grid.  A phase DISPERSION_RATE t_prime k_max^2
    beyond evolution.PHASE_LIMIT is rounding noise: NumericRangeError.
    """
    grid = rho.grid
    k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    phase = DISPERSION_RATE * t_prime * float(np.max(k * k))
    if not phase <= PHASE_LIMIT:  # NaN fails too
        raise NumericRangeError(f"the flight phase {phase:.3e} rad exceeds {PHASE_LIMIT:.3e} rad")
    kernel = np.exp(-1j * (DISPERSION_RATE * t_prime) * k * k)
    flight = np.empty((grid.n_points, rho.rank), dtype=complex, order="F")
    density = np.empty((grid.n_points, 2), order="F")  # column-major: trace sums b, then c

    def fly(level):  # the level in the one buffer; _gram reads it before the next flies
        flight[:rho.start] = flight[rho.stop:] = 0.0
        flight[rho.start:rho.stop] = rho.factors[:, level]
        np.fft.fft(flight, axis=0, out=flight)
        # in place, kernel first: with the operands swapped the complex
        # products round differently
        np.multiply(kernel[:, None], flight, out=flight)
        np.fft.ifft(flight, axis=0, out=flight)
        density[:, level] = sum(np.abs(flight[:, j]) ** 2 for j in range(rho.rank))
        return flight

    out = ScreenDensity(grid=grid, density=density, gram=_gram(map(fly, range(2))) * grid.dx)
    edge = out.boundary_weight()
    if not edge <= boundary_tol:  # NaN fails too
        raise GridError(
            f"boundary probability {edge:.3e} exceeds {boundary_tol:.1e}; "
            "the grid is too small for this flight time"
        )
    return out


def screen_distribution(rho: ScreenDensity) -> ScreenPattern:
    """Arrival density summed over internal levels, axis in wavelengths."""
    density = np.sum(rho.density, axis=1)
    return ScreenPattern(
        x_axis=rho.grid.x / WAVELENGTH,
        intensity=density * WAVELENGTH,
    )


def _interior_extrema(values: np.ndarray) -> np.ndarray:
    """Indices of strict interior local extrema of a sampled curve."""
    d = np.diff(values)
    sign = np.sign(d)
    # carry the last nonzero slope through plateaus
    for i in range(1, sign.size):
        if sign[i] == 0.0:
            sign[i] = sign[i - 1]
    turns = np.nonzero(sign[1:] * sign[:-1] < 0.0)[0] + 1
    return turns


def fringe_visibility(pattern: ScreenPattern, window=None) -> float:
    """Average fringe contrast over adjacent extremum pairs in a window.

    window is an (x_lo, x_hi) interval on the wavelength axis; by default
    a central window of width DEFAULT_VISIBILITY_WINDOW around the
    intensity centroid.  Raises UndefinedVisibilityError when the window
    holds fewer than two interior extrema (a fringe-free pattern), which
    is deliberately distinct from measuring zero contrast.
    """
    x = pattern.x_axis
    inten = pattern.intensity
    if window is None:
        total = float(np.sum(inten))
        centre = float(np.sum(x * inten) / total) if total > 0.0 else 0.0
        half = 0.5 * DEFAULT_VISIBILITY_WINDOW
        window = (centre - half, centre + half)
    lo, hi = float(window[0]), float(window[1])
    mask = (x >= lo) & (x <= hi)
    values = inten[mask]
    if values.size < 3:
        raise UndefinedVisibilityError("analysis window holds too few samples")
    turns = _interior_extrema(values)
    if turns.size < 2:
        raise UndefinedVisibilityError("no adjacent fringe extrema inside the window")
    levels = values[turns]
    hi_side = np.maximum(levels[:-1], levels[1:])
    lo_side = np.minimum(levels[:-1], levels[1:])
    contrasts = (hi_side - lo_side) / (hi_side + lo_side)
    return float(np.mean(contrasts))
