"""Natural -> SI unit conversion, used by the command-line layer only.

Internally everything is computed in natural units (hbar = c = 1) with
lengths in meters, so every energy-like quantity is a power of inverse
length: Delta E [1/m], E/A [1/m^3], energy density and pressure [1/m^4].
:func:`energy_like_to_si` multiplies by hbar*c (J m) to restore joule-based
SI values with the same powers of meters; :func:`gravity_to_natural` turns a
gravitational acceleration into inverse length through g/c^2. A conversion
that turns a non-zero value into a subnormal or zero raises
:class:`DomainError` (through :func:`errors.check_normal`).
"""

from __future__ import annotations

import math
import sys

from .errors import check_normal

__all__ = ["HBAR", "C_LIGHT", "energy_like_to_si", "gravity_to_natural"]

# C_LIGHT is exact by definition; HBAR is not: this 10-digit literal is 6.1e-10
# relative below h/(2 pi) = 1.0545718176461564e-34 J s with h = 6.62607015e-34 exact.
# bench/workloads.py pins the same literal, so the two change together.
HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m / s

# 2^_RESCALE lifts every natural value whose SI value is normal clear of
# underflow in value * hbar
_RESCALE = 128


def energy_like_to_si(value_natural: float) -> float:
    """Any (1/length)^k quantity times hbar*c, in joules and meters."""
    partial = value_natural * HBAR
    if abs(partial) < sys.float_info.min:
        # a subnormal value * hbar has lost digits; rescaling by a power of
        # two is exact, so this rounds as the normal range does
        si = math.ldexp(math.ldexp(value_natural, _RESCALE) * HBAR * C_LIGHT, -_RESCALE)
    else:
        si = partial * C_LIGHT
    return check_normal(si, "SI value", value_natural)


def gravity_to_natural(g_si: float) -> float:
    """An acceleration in m/s^2 as inverse length, g / c^2."""
    return check_normal(g_si / C_LIGHT ** 2, "g in natural units", g_si)
