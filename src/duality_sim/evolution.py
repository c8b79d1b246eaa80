"""Atom-field interaction in the double cavity.

A three-level atom (ground |c>, intermediate |b>, excited |a>) crosses two
superposed standing waves: a quantised mode coupling the a-c transition
with position-dependent strength g cos(k_q x), and a classical drive of
amplitude epsilon coupling a-b with strength g' cos(k_c x).  The geometry
fixes the constants: g' = g, and in units of 1/k_c the wavenumbers are
k_c = 1 and k_q = 3, so the modes share the antinode at x = 0 and the
node at x = pi/2 (a quarter classical wavelength).

Both detunings are equal and large, so |a> is only virtually populated.
In that regime the propagator restricted to {b, c} acts per Fock index m:
the input level keeps its photon number and acquires a phase, while the
cross branch exchanges one photon with the quantum mode (m -> m+1 from
|b>, m -> m-1 from |c>).  With

    A = cos^2(3x) * n_eff             (n_eff = m+1 from |b>, m from |c>)
    B = cos^2(x) |eps|^2
    theta = Theta * (A + B),          Theta = g^2 t / Delta

the dispersive multipliers on the input amplitude c_m are

    stay  = 1 + numer * (e^{i theta} - 1) / (A + B)
    cross = cos(3x) cos(x) eps^(*) sqrt(n_eff) (e^{i theta} - 1) / (A + B)

with numer = B from |b> and numer = A from |c>.  Per m this map is exactly
unitary on the two-level subspace: |stay|^2 + |cross|^2 = 1.  At a common
node A = B = 0 and the map is the identity.

The exact (finite-detuning) multipliers replace e^{i theta} - 1 by

    e^{-i Delta t / 2} (cos(sqrt(mu) t) + i (Delta/2) sin(sqrt(mu) t)/sqrt(mu)) - 1,
    mu = g^2 (A + B) + Delta^2 / 4,

with the coupling time g t = Theta * Delta / g, so both maps share Theta,
and leave a small population in |a> reported as a leak instead of a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericRangeError

LEVELS = ("b", "c")

# A + B values below this floor are float residue of node positions
# (cos(pi/2) is ~6e-17, not 0); the map there is the identity, as at an
# exact node.  The implied phase bound is theta_int * 1e-28.
DEGENERACY_FLOOR = 1e-28

__all__ = ["LEVELS", "InteractionParams", "branch_multipliers"]


@dataclass(frozen=True)
class InteractionParams:
    """Physical knobs of the double-cavity interaction.

    epsilon        classical drive amplitude (complex allowed, real typical)
    theta_int      dispersive phase per unit of A + B, i.e. g^2 t / Delta
    detuning_ratio Delta/g, used only by the exact multipliers

    The values are not checked here; ExperimentConfig and NumericSpec check them.
    """

    epsilon: complex = 0.0
    theta_int: float = math.pi
    detuning_ratio: float = 200.0


def _level_arrays(level_in, x, params, n_max):
    """Shared geometry/photon-number pieces, broadcast over x."""
    if level_in not in LEVELS:
        raise ValueError(f"unknown input level {level_in!r}")
    x = np.asarray(x, dtype=float)
    cq = np.cos(3.0 * x)[..., None]
    cc = np.cos(x)[..., None]
    m = np.arange(n_max, dtype=float)
    eps = complex(params.epsilon)
    try:
        drive = cc * cc * abs(eps) ** 2
    except OverflowError:
        raise NumericRangeError(f"|epsilon|^2 leaves the float range (epsilon = {eps})")
    if level_in == "b":
        n_eff = m + 1.0
        cross_amp = cq * cc * eps * np.sqrt(m + 1.0)
    else:
        n_eff = m
        cross_amp = cq * cc * np.conj(eps) * np.sqrt(m)
    photon = cq * cq * n_eff
    return drive, photon, cross_amp


def branch_multipliers(level_in, x, params: InteractionParams, n_max: int, mode="dispersive"):
    """Per-Fock-index multipliers (stay, cross, leak) at the given positions.

    stay[m] scales the amplitude that keeps the input level and photon
    number; cross[m] scales the amplitude moving to |m+1> (from |b>) or
    |m-1> (from |c>).  leak is the |a>-population fraction per unit input
    weight, zero identically in dispersive mode.  x may be a scalar or an
    array; outputs broadcast to shape(x) + (n_max,).
    """
    drive, photon, cross_amp = _level_arrays(level_in, x, params, n_max)
    total = drive + photon
    degenerate = total <= DEGENERACY_FLOOR
    safe = np.where(degenerate, 1.0, total)
    if mode == "dispersive":
        ring = np.exp(1j * params.theta_int * total) - 1.0
        leak = np.zeros_like(total)
    elif mode == "exact":
        d = params.detuning_ratio
        gt = params.theta_int * d
        mu = total + 0.25 * d * d
        arg = gt * np.sqrt(mu)
        sinc = np.sin(arg) / np.sqrt(mu)
        ring = np.exp(-0.5j * d * gt) * (np.cos(arg) + 0.5j * d * sinc) - 1.0
        seed = drive if level_in == "b" else photon
        leak = np.where(degenerate, 0.0, seed * sinc * sinc)
    else:
        raise ValueError(f"unknown interaction mode {mode!r}")
    numer = drive if level_in == "b" else photon
    stay = np.where(degenerate, 1.0 + 0.0j, 1.0 + numer * ring / safe)
    cross = np.where(degenerate, 0.0 + 0.0j, cross_amp * ring / safe)
    return stay, cross, leak
