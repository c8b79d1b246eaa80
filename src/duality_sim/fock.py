"""Truncated Fock-space primitives for a single cavity mode.

States are complex amplitude vectors over the number basis |0>..|n_max-1>.
The quadrature convention carries a 1/2 prefactor,

    X_theta = (a e^{-i theta} + a^dag e^{i theta}) / 2,

so a coherent state |alpha> has mean quadrature <X_theta> = Re(alpha e^{-i theta})
and vacuum quadrature variance 1/4.  With that scaling the quadrature
wavefunction of |alpha> is a Gaussian of standard deviation 1/2 centred on
the rotated amplitude, which is what makes homodyne outcomes +/-|alpha|
read off the sign of a pi phase kick directly.

Husimi Q is evaluated at the rank of rho = sum_k lambda_k v_k v_k^dag, in
Bargmann form: Q(beta) = e^{-|beta|^2}/pi sum_k lambda_k |sum_m v_km conj(beta)^m/sqrt(m!)|^2,
each polynomial by Horner's rule.  On a 141^2 grid at n_max = 96 that beats the
dense coherent-matrix product below rank ~30 and is about 3x slower at rank 96.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericRangeError
from .runtime import one_blas_thread

TWO_PI = 2.0 * math.pi

__all__ = [
    "QuadratureSpec",
    "QGrid",
    "coherent_state",
    "quadrature_projector",
    "quadrature_projectors",
    "hermite_oscillator_functions",
    "husimi_q",
    "rank_cut",
    "write_columns",
]


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

    def to_csv(self, path) -> None:
        """Header row = y axis, first column = x axis, 9 significant digits."""
        header = (",{:.9g}" * self.y_axis.size).format(*self.y_axis.tolist())
        write_columns(path, header, self.x_axis, self.values)


def write_columns(path, header: str, x: np.ndarray, values: np.ndarray) -> None:
    """A CSV of a header line, then x[i] and the row values[i] per line, 9 significant digits."""
    columns = np.reshape(values, (len(x), -1)).T.tolist()
    line = "{:.9g}" + ",{:.9g}" * len(columns) + "\n"
    body = "".join(map(line.format, x.tolist(), *columns))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n" + body)


def coherent_state(alpha: complex, n_max: int) -> np.ndarray:
    """Amplitudes amps of the coherent state |alpha>, truncated at n_max Fock states.

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
    # the clip keeps |alpha|^2 finite and changes nothing: exp underflows from |alpha| ~ 39
    amps[0] = math.exp(-0.5 * min(abs(alpha), 1e154) ** 2)
    if amps[0] == 0.0:
        raise NumericRangeError(f"exp(-|alpha|^2 / 2) underflows to 0 (alpha = {alpha})")
    if n_max > 1:
        # c_m = c_{m-1} * alpha / sqrt(m); stable for any |alpha| the
        # truncation can represent.
        amps[1:] = amps[0] * np.cumprod(alpha / np.sqrt(np.arange(1.0, n_max)))
    return amps


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
    if not np.all(np.abs(u) < 1e154):  # NaN fails too; u * u stays finite
        raise NumericRangeError("quadrature argument must be finite and below 1e154")
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


def rank_cut(weights: np.ndarray) -> np.ndarray:
    """Mask of the ascending eigenvalues above rounding: > n_max * eps * max(lambda_max, 0)."""
    return weights > weights.size * np.finfo(float).eps * max(weights[-1], 0.0)


@one_blas_thread
def husimi_q(rho: np.ndarray, x_axis, y_axis) -> QGrid:
    """Husimi function Q(x + iy) = <beta|rho|beta> / pi on a grid, at the rank of rho.

    rho must be Hermitian positive semi-definite with trace <= 1; then Q >= 0
    and sum(Q) dx dy approximates trace(rho).  A point so far out that its
    Bargmann polynomial overflows raises NumericRangeError.
    """
    x_axis, y_axis = np.asarray(x_axis, dtype=float), np.asarray(y_axis, dtype=float)
    weights, vecs = np.linalg.eigh(np.asarray(rho, dtype=complex))
    keep = rank_cut(weights)
    # coeffs[k, m] = sqrt(lambda_k) v_km / sqrt(m!)
    inv_sqrt_fact = np.cumprod(np.r_[1.0, 1.0 / np.sqrt(np.arange(1.0, weights.size))])
    coeffs = (vecs[:, keep] * np.sqrt(weights[keep])).T * inv_sqrt_fact
    z = (x_axis[:, None] - 1j * y_axis[None, :]).ravel()  # conj(beta)
    total = np.zeros(z.size)
    for row in coeffs.tolist():  # row by row: a (points,) array stays in cache
        poly = np.full(z.size, row[-1])
        for a in reversed(row[:-1]):
            np.multiply(poly, z, out=poly)
            np.add(poly, a, out=poly)
        total += poly.real ** 2 + poly.imag ** 2
    vals = total * np.exp(-(z.real ** 2 + z.imag ** 2)) / math.pi
    if not np.all(np.isfinite(vals)):
        raise NumericRangeError("phase-space point too far out for the Bargmann polynomials")
    return QGrid(x_axis=x_axis, y_axis=y_axis, values=vals.reshape(x_axis.size, y_axis.size))
