"""Truncated Fock-space primitives for a single cavity mode.

States are complex amplitude vectors over the number basis |0>..|n_max-1>.
The quadrature convention carries a 1/2 prefactor,

    X_theta = (a e^{-i theta} + a^dag e^{i theta}) / 2,

so a coherent state |alpha> has mean quadrature <X_theta> = Re(alpha e^{-i theta})
and vacuum quadrature variance 1/4.  With that scaling the quadrature
wavefunction of |alpha> is a Gaussian of standard deviation 1/2 centred on
the rotated amplitude, which is what makes homodyne outcomes +/-|alpha|
read off the sign of a pi phase kick directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericRangeError

TWO_PI = 2.0 * math.pi

__all__ = [
    "FieldState",
    "QuadratureSpec",
    "QGrid",
    "coherent_state",
    "quadrature_projector",
    "quadrature_projectors",
    "hermite_oscillator_functions",
    "husimi_q",
]


@dataclass(frozen=True)
class FieldState:
    """Amplitudes over the truncated number basis; norm**2 lies in (0, 1]."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("field amplitudes must form a non-empty 1-D vector")
        object.__setattr__(self, "amps", amps)

    @property
    def n_max(self) -> int:
        return self.amps.size

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


@dataclass(frozen=True)
class QuadratureSpec:
    """A homodyne setting: quadrature angle theta and eigenvalue chi."""

    theta: float
    chi: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)
        object.__setattr__(self, "chi", float(self.chi))


@dataclass(frozen=True)
class QGrid:
    """Husimi Q samples on a rectangular phase-space grid."""

    x_axis: np.ndarray
    y_axis: np.ndarray
    values: np.ndarray

    def integral(self) -> float:
        """Sum(values) * dx * dy; approximates the trace of the sampled state."""
        dx = float(self.x_axis[1] - self.x_axis[0])
        dy = float(self.y_axis[1] - self.y_axis[0])
        return float(np.sum(self.values)) * dx * dy

    def to_csv(self, path) -> None:
        """Header row = y axis, first column = x axis, 9 significant digits."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("," + ",".join(f"{y:.9g}" for y in self.y_axis) + "\n")
            for i, x in enumerate(self.x_axis):
                row = ",".join(f"{v:.9g}" for v in self.values[i])
                fh.write(f"{x:.9g}," + row + "\n")


def coherent_state(alpha: complex, n_max: int) -> FieldState:
    """Coherent state |alpha> truncated at n_max amplitudes.

    amps[m] = exp(-|alpha|^2/2) alpha^m / sqrt(m!).  The truncated tail is
    dropped as-is (no renormalisation); pick n_max well above |alpha|^2 so
    the missing weight stays below the tail tolerance of the run.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError("coherent amplitude must be finite")
    amps = np.empty(n_max, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    if n_max > 1:
        # c_m = c_{m-1} * alpha / sqrt(m); stable for any |alpha| the
        # truncation can represent.
        amps[1:] = amps[0] * np.cumprod(alpha / np.sqrt(np.arange(1.0, n_max)))
    return FieldState(amps)


def hermite_oscillator_functions(u, n_max: int) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions psi_n(u) for n < n_max.

    psi_n(u) = H_n(u) exp(-u^2/2) / sqrt(2^n n! sqrt(pi)), evaluated with the
    bounded three-term recurrence

        psi_{n+1} = sqrt(2/(n+1)) u psi_n - sqrt(n/(n+1)) psi_{n-1},

    which never overflows (|psi_n| < 1 for all n, u).  The guard is on the
    opposite failure: for |u| large enough that exp(-u^2/2) underflows the
    whole column is zero and the caller cannot normalise, so we raise.
    Returns shape (n_max,) + shape(u).
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise NumericRangeError("quadrature argument must be finite")
    out = np.zeros((n_max,) + u.shape, dtype=float)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    if n_max > 1:
        out[1] = math.sqrt(2.0) * u * out[0]
    for n in range(1, n_max - 1):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * u * out[n] - math.sqrt(n / (n + 1.0)) * out[n - 1]
    if not np.all(np.isfinite(out)):
        raise NumericRangeError("oscillator-function recurrence left the float range")
    return out


def quadrature_projector(spec: QuadratureSpec, n_max: int) -> np.ndarray:
    """Delta-normalised quadrature eigenvector coefficients <m|chi_theta>.

    b_m = 2^{1/4} psi_m(sqrt(2) chi) e^{i m theta}.  With this scaling
    |<chi|psi>|^2 is a probability *density* in chi: summing the densities
    of any normalised state over a chi grid integrates to one.
    """
    return quadrature_projectors(spec.theta, [spec.chi], n_max)[0]


def quadrature_projectors(theta: float, chis, n_max: int) -> np.ndarray:
    """quadrature_projector for every chi of a sweep at one angle.

    Returns shape (len(chis), n_max), row i being <m|chi_i, theta>; the
    oscillator functions of all outcomes come from one recurrence.
    """
    u = math.sqrt(2.0) * np.asarray(chis, dtype=float)
    psi = hermite_oscillator_functions(u, n_max).T
    if np.any(np.max(np.abs(psi), axis=1) == 0.0):
        raise NumericRangeError(
            "quadrature eigenvalue too large for the truncated basis "
            "(oscillator functions underflow)"
        )
    phases = np.exp(1j * (float(theta) % TWO_PI) * np.arange(n_max))
    return (2.0 ** 0.25) * psi * phases


def _coherent_matrix(betas: np.ndarray, n_max: int) -> np.ndarray:
    """Columns of coherent amplitudes c_m(beta) for a vector of betas."""
    betas = np.asarray(betas, dtype=complex)
    out = np.empty((n_max, betas.size), dtype=complex)
    out[0] = np.exp(-0.5 * np.abs(betas) ** 2)
    if n_max > 1:
        # built in place: the rows below the first hold the steps
        # beta / sqrt(m), then their running products, then c_m
        steps = out[1:]
        np.divide(betas[None, :], np.sqrt(np.arange(1.0, n_max))[:, None], out=steps)
        np.cumprod(steps, axis=0, out=steps)
        np.multiply(out[0][None, :], steps, out=steps)
    return out


def husimi_q(rho: np.ndarray, x_axis, y_axis) -> QGrid:
    """Husimi function Q(x + iy) = <beta|rho|beta> / pi on a grid.

    rho must be Hermitian with trace <= 1; for such inputs Q >= 0 and
    sum(Q) dx dy approximates trace(rho).  Round-off negatives are clamped
    to zero.
    """
    rho = np.asarray(rho, dtype=complex)
    x_axis = np.asarray(x_axis, dtype=float)
    y_axis = np.asarray(y_axis, dtype=float)
    n_max = rho.shape[0]
    betas = (x_axis[:, None] + 1j * y_axis[None, :]).ravel()
    cmat = _coherent_matrix(betas, n_max)
    vals = np.vecdot(cmat, rho @ cmat, axis=0).real / math.pi
    vals = np.maximum(vals, 0.0).reshape(x_axis.size, y_axis.size)
    return QGrid(x_axis=x_axis, y_axis=y_axis, values=vals)
