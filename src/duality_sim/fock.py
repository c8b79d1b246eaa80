"""Truncated Fock-space primitives for a single cavity mode, and the writer of every CSV.

States are complex amplitude vectors over the number basis |0>..|n_max-1>.
The quadrature convention carries a 1/2 prefactor,

    X_theta = (a e^{-i theta} + a^dag e^{i theta}) / 2,

so a coherent state |alpha> has mean quadrature <X_theta> = Re(alpha e^{-i theta})
and vacuum quadrature variance 1/4.  With that scaling the quadrature
wavefunction of |alpha> is a Gaussian of standard deviation 1/2 centred on
the rotated amplitude, which is what makes homodyne outcomes +/-|alpha|
read off the sign of a pi phase kick directly.  quadrature_projector gives
the coefficients <m|chi_theta> of one outcome, quadrature_projectors those
of a sweep of outcomes at one angle, from one oscillator-function recurrence.

Husimi Q is evaluated at the rank of rho = sum_k lambda_k v_k v_k^dag, in
Bargmann form: Q(beta) = e^{-|beta|^2}/pi sum_k lambda_k |sum_m v_km conj(beta)^m/sqrt(m!)|^2,
each polynomial by Horner's rule.  On a 141^2 grid at n_max = 96 that beats the
dense coherent-matrix product below rank ~30 and is about 3x slower at rank 96.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericRangeError
from .runtime import one_blas_thread

TWO_PI = 2.0 * math.pi

__all__ = [
    "QGrid",
    "coherent_state",
    "quadrature_projector",
    "quadrature_projectors",
    "husimi_q",
    "rank_cut",
    "write_columns",
]


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


@functools.lru_cache(maxsize=8)
def _row_templates(x: bytes, width: int) -> tuple[int, tuple[bytes, ...]]:
    """write_columns' (cells, blocks): <= 24 cells keep each % in pymalloc; x never gives "%"."""
    slots, rows = b",%.9g" * width + b"\n", max(1, 24 // (width + 1))
    lines = [b"%.9g" % v + slots for v in np.frombuffer(x).tolist()]
    return rows * width, tuple(b"".join(lines[i:i + rows]) for i in range(0, len(lines), rows))


def write_columns(path, header: str, x: np.ndarray, values: np.ndarray) -> None:
    """A header line, then x[i] and row values[i] per line at %.9g, from cached row templates."""
    cells, blocks = _row_templates(np.asarray(x, float).tobytes(), np.size(values) // len(x))
    flat = np.reshape(values, (len(x), -1)).ravel().tolist()
    body = b"".join([t % tuple(flat[k * cells:(k + 1) * cells]) for k, t in enumerate(blocks)])
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n" + body)


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


def quadrature_projector(theta: float, chi: float, n_max: int) -> np.ndarray:
    """Delta-normalised quadrature eigenvector coefficients <m|chi_theta>.

    b_m = 2^{1/4} psi_m(sqrt(2) chi) e^{i m theta}.  With this scaling
    |<chi|psi>|^2 is a probability *density* in chi: summing the densities
    of any normalised state over a chi grid integrates to one.  The sweep's recurrence, on floats.
    """
    return quadrature_projectors(theta, float(chi), n_max)


def quadrature_projectors(theta: float, chis, n_max: int) -> np.ndarray:
    """quadrature_projector for every chi of a sweep at one angle.

    Returns shape (len(chis), n_max), row i being <m|chi_i, theta>, (n_max,) for a scalar.  The
    orthonormal oscillator functions psi_n(u) = H_n(u) exp(-u^2/2) / sqrt(2^n n! sqrt(pi))
    of all outcomes come from one bounded three-term recurrence,

        psi_{n+1} = sqrt(2/(n+1)) u psi_n - sqrt(n/(n+1)) psi_{n-1},

    which never overflows (|psi_n| < 1 for all n, u), on Python floats for a float chi.  The
    guard is on the opposite failure: where exp(-u^2/2) underflows, an outcome's whole row
    is zero and cannot be normalised, so NumericRangeError is raised.
    """
    chis = chis if isinstance(chis, float) else np.asarray(chis, dtype=float)
    if not np.all(abs(chis) < 1e153):  # NaN fails too; u = sqrt(2) chi and u * u stay finite
        raise NumericRangeError("quadrature outcome must be finite and below 1e153")
    u = math.sqrt(2.0) * chis
    head = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    psi = [head] if np.ndim(u) else [float(head)]
    psi.append(math.sqrt(2.0) * u * psi[0])
    for a, b in _steps(n_max):
        psi.append(a * u * psi[-1] - b * psi[-2])
    psi = np.array(psi[:n_max])
    if not np.isfinite(psi).all():
        raise NumericRangeError("oscillator-function recurrence left the float range")
    if not np.abs(psi).max(axis=0).all():  # a row of zeros
        raise NumericRangeError(
            "quadrature eigenvalue too large for the truncated basis "
            "(oscillator functions underflow)"
        )
    return (2.0 ** 0.25) * psi.T * _phase_row(float(theta), n_max)


@functools.lru_cache(maxsize=8)
def _steps(n_max: int) -> tuple[tuple[float, float], ...]:
    """The recurrence's coefficients (sqrt(2/(n+1)), sqrt(n/(n+1))) for n = 1 .. n_max - 2."""
    return tuple((math.sqrt(2.0 / (n + 1)), math.sqrt(n / (n + 1.0))) for n in range(1, n_max - 1))


@functools.lru_cache(maxsize=8)
def _phase_row(theta: float, n_max: int) -> np.ndarray:
    """e^{i m theta} for m < n_max, read-only: callers get products of it, never the row."""
    row = np.exp(1j * (theta % TWO_PI) * np.arange(n_max))
    row.flags.writeable = False
    return row


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
