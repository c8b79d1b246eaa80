"""Closed-form duality metrics and the named preparation cases.

For path amplitudes c_up, c_down and internal-state overlap gamma between
the two paths, the a priori distinguishability, fringe visibility and
path/internal-state concurrence satisfy D0^2 + V0^2 + C0^2 = 1.  The seven
named cases mark the extreme and balanced points of that unit sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["DualityMetrics", "SPHERE_CASE_NAMES",
           "metrics", "gamma_of_phi", "sphere_case"]


@dataclass(frozen=True)
class DualityMetrics:
    V0: float
    D0: float
    C0: float

    @property
    def residual(self) -> float:
        return self.V0 ** 2 + self.D0 ** 2 + self.C0 ** 2 - 1.0


def metrics(c_up: complex, c_down: complex, gamma: complex) -> DualityMetrics:
    """Duality triple of a normalised preparation."""
    w_up = abs(c_up) ** 2
    w_down = abs(c_down) ** 2
    if abs(w_up + w_down - 1.0) > 1e-12:
        raise ValueError("path amplitudes must satisfy |c_up|^2 + |c_down|^2 = 1")
    g = abs(gamma)
    if g > 1.0 + 1e-12:
        raise ValueError("|gamma| cannot exceed 1")
    g = min(g, 1.0)
    pair = abs(c_up) * abs(c_down)
    return DualityMetrics(
        V0=2.0 * pair * g,
        D0=abs(w_up - w_down),
        C0=2.0 * pair * math.sqrt(1.0 - g * g),
    )


def gamma_of_phi(phi: float) -> float:
    """Overlap of the two paths' internal states for mixing angle phi."""
    return math.cos(phi)


_HALF_ANGLE_VD = math.pi / 8.0
# cos(2u) = 1/sqrt(3) balances all three metrics at 1/sqrt(3)
_HALF_ANGLE_VDC = 0.5 * math.acos(1.0 / math.sqrt(3.0))

_SPHERE_TABLE = {
    "V1": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0),
    "VD": (math.cos(_HALF_ANGLE_VD), math.sin(_HALF_ANGLE_VD), 0.0),
    "D1": (1.0, 0.0, 0.0),
    "DC": (math.cos(_HALF_ANGLE_VD), math.sin(_HALF_ANGLE_VD), math.pi / 2.0),
    "C1": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), math.pi / 2.0),
    "CV": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), math.pi / 4.0),
    "VDC": (math.cos(_HALF_ANGLE_VDC), math.sin(_HALF_ANGLE_VDC), math.pi / 4.0),
}

SPHERE_CASE_NAMES = tuple(_SPHERE_TABLE)


def sphere_case(name: str) -> tuple[float, float, float]:
    """(c_up, c_down, phi) of a named preparation: V1/D1/C1 extremes, VD/DC/CV/VDC balances."""
    try:
        return _SPHERE_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown sphere case {name!r}; choose from {SPHERE_CASE_NAMES}")
