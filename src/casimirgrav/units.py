"""Natural <-> SI unit conversion, used by the command-line layer only.

Internally everything is computed in natural units (hbar = c = 1) with
lengths in meters, so every energy-like quantity is a power of inverse
length: Delta E [1/m], E/A [1/m^3], energy density and pressure [1/m^4].
Multiplying by hbar*c (J m) restores joule-based SI values with the same
powers of meters; a gravitational acceleration converts through g/c^2. A
conversion that turns a non-zero value into a subnormal or zero raises
:class:`DomainError`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

__all__ = ["HBAR", "C_LIGHT", "HBAR_C", "UnitKind", "UnitSystem"]

# CODATA 2018: exact defined values
HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m / s
HBAR_C = HBAR * C_LIGHT  # J m


class UnitKind(Enum):
    NATURAL = "natural"
    SI = "si"


@dataclass(frozen=True)
class UnitSystem:
    """Output unit system of the command line, on the CODATA constants.

    Natural units pass values through unchanged. SI multiplies energy-like
    outputs by hbar*c and divides an input acceleration by c^2.
    """

    kind: UnitKind

    @property
    def is_si(self) -> bool:
        return self.kind is UnitKind.SI

    def energy_like_to_output(self, value_natural: float) -> float:
        """Convert any (1/length)^k quantity to the output system."""
        if self.is_si:
            return _check_normal(value_natural, value_natural * HBAR * C_LIGHT)
        return value_natural

    def gravity_to_natural(self, g_input: float) -> float:
        """SI input is an acceleration (m/s^2); natural is inverse length."""
        return _check_normal(g_input, g_input / C_LIGHT ** 2) if self.is_si else g_input


def _check_normal(value: float, converted: float) -> float:
    """``converted`` unless it lost the non-zero ``value`` to underflow (a
    subnormal or zero result); then :class:`DomainError`."""
    if value != 0 and abs(converted) < sys.float_info.min:
        raise DomainError(f"{value:.15g} underflows the double range in SI units")
    return converted
