"""Unit conventions.

All internal computation uses angular frequencies in rad/ns and times in ns
(hbar = 1).  Device parameters are usually quoted as cyclic frequencies in
GHz ("Delta/h = 0.25 GHz") together with pulse durations in ps, so the
default public convention is cyclic-GHz / ps.  The 2*pi factor is applied
exactly once on ingestion; mixing the two conventions silently is the classic
way to lose a factor of 2*pi, hence the explicit object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

CYCLIC_GHZ = "cyclic-ghz"
ANGULAR = "angular"


def cyclic_ghz_to_angular(f_ghz: float) -> float:
    """Convert a cyclic frequency in GHz to angular rad/ns (1 cycle/ns = 2*pi rad/ns)."""
    return TWO_PI * f_ghz


def angular_to_cyclic_ghz(w: float) -> float:
    return w / TWO_PI


def ps_to_ns(t_ps: float) -> float:
    return t_ps * 1e-3


@dataclass(frozen=True)
class UnitConvention:
    """Input unit convention: ``cyclic-ghz`` (GHz, ps) or ``angular`` (rad/ns, ns)."""

    mode: str = CYCLIC_GHZ

    def __post_init__(self):
        if self.mode not in (CYCLIC_GHZ, ANGULAR):
            raise ValueError(f"unknown unit convention {self.mode!r}")

    def frequency_in(self, value: float) -> float:
        """External frequency -> internal angular frequency (rad/ns)."""
        if self.mode == CYCLIC_GHZ:
            return cyclic_ghz_to_angular(value)
        return value

    def time_in(self, value: float) -> float:
        """External time -> internal time (ns)."""
        if self.mode == CYCLIC_GHZ:
            return ps_to_ns(value)
        return value
