"""Free flight to the screen and screen-pattern observables.

After the readout the atom evolves freely for a time t_prime.  Each position
mode of the level-traced density operator is a wavefunction, so conjugation
by the free propagator reduces to one spectral kernel application per mode:

    psi_hat(k) -> exp(-i k^2 * DISPERSION_RATE * t_prime) psi_hat(k),

with k the angular spatial frequency of the position grid (units k_c = 1).
DISPERSION_RATE converts the quoted flight time into the kernel's phase
coefficient; it is fixed once here, and the analytic Gaussian-spreading
and two-slit oracles in the test suite are parameterised by the same
constant, which pins the kernel against closed forms.  Its value makes the
default grid (x in [-12, 14], 4096 points) hold the default flight time
t_prime = 3 with boundary weight far below the aliasing tolerance.  The modes fly at most
FLIGHT_COLUMNS at a time straight from the atom's row-major factors, so at rank 26 the
flight's traced peak above its input is ~3.3 MB on 16384 points and ~12.3 MB on 65536,
where an (n_points, rank) buffer took 8.6 and 38.3 and a copy of the factors 3.7 and 18.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, NumericRangeError
from .evolution import PHASE_LIMIT
from .fock import write_columns
from .interferometer import AtomDensity, GridSpec, _eigh_above_rounding, _gram, _purity

# kernel phase per unit flight time at unit spatial frequency
DISPERSION_RATE = 1.0 / (4.0 * math.pi ** 2)

# screen axis is expressed in classical wavelengths
WAVELENGTH = 2.0 * math.pi

# width of the fringe-contrast window around the intensity centroid, in classical wavelengths
VISIBILITY_WINDOW = 0.25

FLIGHT_COLUMNS = 8  # modes flown per chunk; narrower chunks cost time

__all__ = [
    "DISPERSION_RATE",
    "WAVELENGTH",
    "VISIBILITY_WINDOW",
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
    """The flown (n_points,) level-summed density, level-major Gram matrix times dx (as
    AtomDensity.gram), mode-cut share and momentum weight above 3/4 of the Nyquist frequency."""

    grid: GridSpec
    density: np.ndarray
    gram: np.ndarray
    discarded_weight: float = 0.0
    nyquist_band_weight: float = 0.0

    def trace(self) -> float:
        return float(np.sum(self.density)) * self.grid.dx

    def boundary_weight(self) -> float:
        """Probability on the two edge points of the periodic grid."""
        return float(np.sum(self.density[[0, -1]])) * self.grid.dx

    def purity(self) -> float:
        return _purity(self.gram)


def free_propagate(rho: AtomDensity, t_prime: float, boundary_tol: float = 1e-6,
                   tail_tol: float = 1e-9) -> ScreenDensity:
    """Evolve the atomic density operator through a field-free flight of duration t_prime.

    The screen records position, not level, so the flight carries rho's position
    modes: the eigenvectors of rho.gram above rounding (fock.rank_cut); the share of
    the trace they drop raises NumericError above tail_tol.  The modes fly in chunks
    through one column-major (n_points, min(FLIGHT_COLUMNS, modes)) buffer, each FFT
    along a contiguous column, filled from a (rows, 2 rank) view of rho.factors; each
    chunk adds its density and its flown Gram, mapped back as chunk @ flown @ chunk^dag
    (modes are orthogonal, so blocks between chunks are rounding).  At rank 26 on 65536
    points the peak above the input is ~12.3 MB (18.1 MB with a copy of the factors).
    GridError guards against a state that reaches the grid's edge, or whose weight
    above 3/4 of its Nyquist frequency (nyquist_band_weight, summed before the kernel)
    exceeds boundary_tol.  A phase DISPERSION_RATE t_prime k_max^2 beyond
    evolution.PHASE_LIMIT is rounding noise: NumericRangeError.
    """
    grid, n = rho.grid, rho.grid.n_points
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.dx)
    phase = DISPERSION_RATE * t_prime * float(np.max(k * k))
    if not phase <= PHASE_LIMIT:  # NaN fails too
        raise NumericRangeError(f"the flight phase {phase:.3e} rad exceeds {PHASE_LIMIT:.3e} rad")
    kernel = np.exp(-1j * (DISPERSION_RATE * t_prime) * k * k)
    if not np.isfinite(rho.gram).all():
        raise GridError("the state to fly is not finite; no grid holds it")
    _, modes, discarded = _eigh_above_rounding(rho.gram, tail_tol, "flown trace")
    factors = rho.factors.reshape(len(rho.factors), -1)  # a view of row-major factors
    width = min(FLIGHT_COLUMNS, modes.shape[1])
    flight = np.empty((n, width), dtype=complex, order="F")
    density, gram, aliased = np.zeros(n), 0.0, 0.0
    band = slice(3 * n // 8 + 1, n - 3 * n // 8)  # |k| above 3/4 of the Nyquist frequency
    for i in range(0, modes.shape[1], width):
        chunk = modes[:, i:i + width]
        buf = flight[:, :chunk.shape[1]]
        buf[:rho.start] = buf[rho.stop:] = 0.0
        buf[rho.start:rho.stop] = factors @ chunk
        np.fft.fft(buf, axis=0, out=buf)
        floats = buf[band].T.view(float)  # per mode, each row's real and imaginary part
        aliased += float(np.einsum("ij,ij", floats, floats)) * grid.dx / n
        if not aliased <= boundary_tol:  # NaN fails too
            raise GridError(f"momentum weight {aliased:.3e} near the Nyquist frequency exceeds "
                            f"{boundary_tol:.1e}; refine the grid")
        np.multiply(kernel[:, None], buf, out=buf)
        np.fft.ifft(buf, axis=0, out=buf)
        floats = buf.T.view(float)
        density += np.einsum("ij,ij->j", floats, floats).reshape(n, 2).sum(axis=1)
        gram += chunk @ (_gram([buf]) * grid.dx) @ chunk.conj().T
    out = ScreenDensity(grid=grid, density=density, gram=gram, discarded_weight=discarded,
                        nyquist_band_weight=aliased)
    edge = out.boundary_weight()
    if not edge <= boundary_tol:  # NaN fails too
        raise GridError(
            f"boundary probability {edge:.3e} exceeds {boundary_tol:.1e}; "
            "the grid is too small for this flight time"
        )
    return out


def screen_distribution(rho: ScreenDensity) -> ScreenPattern:
    """Arrival density summed over internal levels, axis in wavelengths."""
    return ScreenPattern(x_axis=rho.grid.x / WAVELENGTH, intensity=rho.density * WAVELENGTH)


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


def fringe_visibility(pattern: ScreenPattern) -> float | None:
    """Average fringe contrast over adjacent extremum pairs, or None where it is undefined.

    The window is VISIBILITY_WINDOW wide around the intensity centroid.  A window that
    holds fewer than two interior extrema (a fringe-free pattern) has no contrast to
    measure: None, deliberately distinct from a measured contrast of zero.
    """
    x = pattern.x_axis
    inten = pattern.intensity
    total = float(np.sum(inten))
    centre = float(np.sum(x * inten) / total) if total > 0.0 else 0.0
    half = 0.5 * VISIBILITY_WINDOW
    values = inten[(x >= centre - half) & (x <= centre + half)]
    turns = _interior_extrema(values)
    if turns.size < 2:
        return None
    levels = values[turns]
    hi_side = np.maximum(levels[:-1], levels[1:])
    lo_side = np.minimum(levels[:-1], levels[1:])
    contrasts = (hi_side - lo_side) / (hi_side + lo_side)
    return float(np.mean(contrasts))
