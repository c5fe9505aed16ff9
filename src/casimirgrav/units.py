"""Natural <-> SI unit conversion, used by the command-line layer only.

Internally everything is computed in natural units (hbar = c = 1) with
lengths in meters, so every energy-like quantity is a power of inverse
length: Delta E [1/m], E/A [1/m^3], energy density and pressure [1/m^4].
Multiplying by hbar*c (J m) restores joule-based SI values with the same
powers of meters; a gravitational acceleration converts through g/c^2. A
conversion that turns a non-zero value into a subnormal or zero raises
:class:`DomainError` (through :func:`errors.check_normal`).
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from .errors import FrozenValue, check_normal

__all__ = ["HBAR", "C_LIGHT", "HBAR_C", "UnitKind", "UnitSystem"]

# CODATA 2018: exact defined values
HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m / s
HBAR_C = HBAR * C_LIGHT  # J m

# 2^_RESCALE lifts every natural value whose SI value is normal clear of
# underflow in value * hbar
_RESCALE = 128


class UnitKind(Enum):
    NATURAL = "natural"
    SI = "si"


class UnitSystem(FrozenValue):
    """Output unit system of the command line, on the CODATA constants.

    Natural units pass values through unchanged. SI multiplies energy-like
    outputs by hbar*c and divides an input acceleration by c^2.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: UnitKind) -> None:
        object.__setattr__(self, "kind", kind)

    @property
    def is_si(self) -> bool:
        return self.kind is UnitKind.SI

    def energy_like_to_output(self, value_natural: float) -> float:
        """Convert any (1/length)^k quantity to the output system."""
        if not self.is_si:
            return value_natural
        partial = value_natural * HBAR
        if abs(partial) < sys.float_info.min:
            # a subnormal value * hbar has lost digits; rescaling by a power of
            # two is exact, so this rounds as the normal range does
            si = math.ldexp(math.ldexp(value_natural, _RESCALE) * HBAR * C_LIGHT, -_RESCALE)
        else:
            si = partial * C_LIGHT
        return check_normal(si, "SI value", value_natural)

    def gravity_to_natural(self, g_input: float) -> float:
        """SI input is an acceleration (m/s^2); natural is inverse length."""
        if not self.is_si:
            return g_input
        return check_normal(g_input / C_LIGHT ** 2, "g in natural units", g_input)
