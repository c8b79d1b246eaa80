"""Atom-field interaction in the double cavity.

A three-level atom (ground |c>, intermediate |b>, excited |a>) crosses two
superposed standing waves: a quantised mode coupling the a-c transition
with position-dependent strength g cos(k_q x), and a classical drive of
amplitude epsilon coupling a-b with strength g' cos(k_c x).  The geometry
fixes the constants: g' = g, and in units of 1/k_c the wavenumbers are
k_c = 1 and k_q = 3, so the modes share the antinode at x = 0 and the
node at x = pi/2 (a quarter classical wavelength).

Both detunings are equal and large, so |a> is only virtually populated.
The drive couples b-a and the quantum mode a-c, so the map on {b, c} is
closed on the invariant pairs |b, k-1> <-> |c, k>, k = 0 .. n_max (|c, 0>
alone).  Both members of pair k see A = cos^2(3x) k and B = cos^2(x) |eps|^2,
so the map is evaluated once per pair and read off for both levels: |b, m>
at k = m+1, |c, m> at k = m.  With theta = Theta (A + B), Theta = g^2 t / Delta,
the input amplitude keeps its level and photon number times

    stay  = 1 + numer * (e^{i theta} - 1) / (A + B)

and crosses the pair (|b, m> -> |c, m+1>, |c, m> -> |b, m-1>) times

    cross = cos(3x) cos(x) eps^(*) sqrt(k) (e^{i theta} - 1) / (A + B)

with numer = B and eps from |b>, numer = A and eps^* from |c>.  Per pair the
map is exactly unitary, |stay|^2 + |cross|^2 = 1; at a common node A = B = 0
and it is the identity.

The exact (finite-detuning) multipliers replace e^{i theta} - 1 by
e^{-i Delta t / 2} (cos(r t) + i (Delta/2) sin(r t) / r) - 1, r^2 = mu = g^2 (A + B) + Delta^2 / 4,
with the coupling time g t = Theta * Delta / g, so both maps share Theta.  Its two
phases are ~Delta^2 Theta / 2 each, so it is evaluated through the light shift
delta = g t (r - Delta/2) = g t (A + B) / (r + Delta/2), without their cancellation:

    2i sin(delta/2) e^{i delta/2} - i e^{-i Delta t/2} sin(r t) (A + B) / (r (r + Delta/2)).

The exact map leaves a small population in |a>, reported as a leak instead of a state.
The largest phase, Theta (A + B) or g t sqrt(mu), must stay within
PHASE_LIMIT, or NumericError is raised before anything is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

# A + B values below this floor are float residue of node positions
# (cos(pi/2) is ~6e-17, not 0); the map there is the identity, as at an
# exact node.  The implied phase bound is theta_int * 1e-28.
DEGENERACY_FLOOR = 1e-28

# Largest phase (rad) evaluated: its rounding error, phase * eps, is sqrt(eps)
# there.  Far beyond, phases are rounding noise (and an infinite one gives NaN).
PHASE_LIMIT = 2.0 ** 26

__all__ = ["InteractionParams", "branch_multipliers"]


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


def branch_multipliers(x, params: InteractionParams, n_max: int, mode="dispersive"):
    """{"b": (stay, cross, leak), "c": (stay, cross, leak)}, each of shape(x) + (n_max,).

    stay[m] scales the amplitude that keeps its level and photon number,
    cross[m] the one moving |b, m> -> |c, m+1> or |c, m> -> |b, m-1>; leak[m]
    the one moving it to |a, m> or |a, m-1>, up to a phase the pair shares, so
    the two members of a pair add coherently there and |leak|^2 is the |a>
    population per unit input weight.  leak is None in dispersive mode.
    """
    if mode not in ("dispersive", "exact"):
        raise ConfigError(f"unknown interaction mode {mode!r}")
    exact = mode == "exact"
    x = np.asarray(x, dtype=float)
    cq = np.cos(3.0 * x)[..., None]
    cc = np.cos(x)[..., None]
    k = np.arange(n_max + 1, dtype=float)  # pair index: photons in its |c> member
    eps = complex(params.epsilon)
    try:
        drive = cc * cc * abs(eps) ** 2
    except OverflowError:
        raise NumericError(f"|epsilon|^2 leaves the float range (epsilon = {eps})")
    photon = cq * cq * k
    total = drive + photon
    d = params.detuning_ratio
    gt = params.theta_int * d
    largest = float(np.max(total, initial=0.0))
    # sqrt(mu) >= Delta / 2, so g t sqrt(mu) also bounds the phase Delta g t / 2
    phase = gt * math.sqrt(largest + 0.25 * d * d) if exact else params.theta_int * largest
    if not phase <= PHASE_LIMIT:  # NaN fails too
        raise NumericError(
            f"the interaction phase {'g t sqrt(mu)' if exact else 'theta_int (A + B)'} "
            f"reaches {phase:.3e} rad, beyond the limit of {PHASE_LIMIT:.3e} rad")
    degenerate = total <= DEGENERACY_FLOOR
    safe = np.where(degenerate, 1.0, total)
    sinc = None
    if exact:
        root = np.sqrt(safe + 0.25 * d * d)  # > 0 where d * d underflows; degenerates unread
        sinc = np.sin(gt * root) / root
        lift = safe / (root + 0.5 * d)  # sqrt(mu) - Delta/2 without cancellation
        ring = (2j * np.sin(0.5 * gt * lift) * np.exp(0.5j * gt * lift)
                - 1j * np.exp(-0.5j * d * gt) * sinc * lift)
    else:
        ring = np.exp(1j * params.theta_int * total) - 1.0

    def level(pairs, numer, amp, coupling):
        off, ring_k, safe_k = degenerate[..., pairs], ring[..., pairs], safe[..., pairs]
        stay = np.where(off, 1.0 + 0.0j, 1.0 + numer * ring_k / safe_k)
        cross = np.where(off, 0.0 + 0.0j, cq * cc * amp * np.sqrt(k[pairs]) * ring_k / safe_k)
        if sinc is None:
            return stay, cross, None
        return stay, cross, np.where(off, 0.0j, coupling * sinc[..., pairs])

    # |b, m> reads pair k = m+1, |c, m> pair k = m; both couple to |a, k-1>, the
    # drive by eps cos(x), the quantum mode by sqrt(k) cos(3x)
    return {"b": level(slice(1, None), drive, eps, cc * eps),
            "c": level(slice(None, -1), photon[..., :-1], np.conj(eps), cq * np.sqrt(k[:-1]))}
