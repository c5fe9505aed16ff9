"""Closed-form observables for the parallel-plate cavity.

Natural units (hbar = c = 1), metric signature (-,+,+,+). A scalar
Dirichlet mode spectrum carries ``polarizations = 1``; the electromagnetic
field carries the factor-of-two polarization count. This module is the
single owner of that convention.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import (FrozenValue, GeometryError, LightConeError, check_finite, check_integer,
                     check_normal)

if TYPE_CHECKING:
    import numpy as np
__all__ = [
    "CavityConfig",
    "StressTensor",
    "SpacetimePoint",
    "energy_density",
    "energy_per_area",
    "pressure",
    "brown_maclay_tensor",
    "feynman_propagator",
]

METRIC_DIAGONAL = (-1.0, 1.0, 1.0, 1.0)

# L^4 stays within 1e+-300 here: no closed form (L^-4 ... L^4 times a prefactor
# in [1e-3, 1]) overflows, underflows to zero or divides by zero.
L_MIN, L_MAX = 1e-75, 1e75

# |(x - x')^2| at most this fraction of dt^2 + |dx|^2 is on the light cone
_LIGHT_CONE_REL_TOL = 1e-12

_PI_SQUARED = math.pi ** 2


def check_geometry(L: float, polarizations: int = 1, a: float | None = None) -> int:
    """``polarizations`` as an ``int`` if the plate geometry is physical.

    The one validator of plate geometry in the package. ``polarizations``
    must be an integer (a numpy integer is returned as ``int``), else
    :class:`DomainError`. Then, else :class:`GeometryError`: the plate side
    ``a`` of an apparatus must satisfy 0 < a < inf, the separation ``L``
    must lie in [L_MIN, L_MAX] (NaN fails both), and ``polarizations``
    must be 1 (scalar) or 2 (EM).
    """
    polarizations = check_integer(polarizations, "polarizations")
    if a is not None and not 0.0 < a < math.inf:
        raise GeometryError(f"plate side must be positive and finite, got {a}")
    if not L_MIN <= L <= L_MAX:
        raise GeometryError(f"plate separation must lie in [{L_MIN:g}, {L_MAX:g}], got {L}")
    if polarizations not in (1, 2):
        raise GeometryError(f"polarizations must be 1 (scalar) or 2 (EM), got {polarizations}")
    return polarizations


class CavityConfig(FrozenValue):
    """Plate separation and polarization count (1 scalar, 2 electromagnetic;
    an integer, stored as ``int``)."""

    __slots__ = ("L", "polarizations")

    def __init__(self, L: float, polarizations: int = 2) -> None:
        super().__init__(L, check_geometry(L, polarizations))


class StressTensor(FrozenValue):
    """Diagonal vacuum stress tensor <T^{mu nu}> in the cavity rest frame (a
    read-only copy), equal to another and pickled by its components' values."""

    __slots__ = ("components",)

    def __init__(self, components: np.ndarray) -> None:
        import numpy as np
        c = np.array(components, dtype=float)
        if c.shape != (4, 4):
            raise GeometryError("stress tensor must be 4x4")
        c.setflags(write=False)
        super().__init__(c)

    def _values(self) -> tuple:
        return (self.components.tolist(),)  # an ndarray compares elementwise

    def trace(self) -> float:
        """eta_{mu nu} T^{mu nu} with the fixed (-,+,+,+) signature."""
        return _trace(self.components.diagonal().tolist())


class SpacetimePoint(FrozenValue):
    """Event (t, x, y, z) in the cavity rest frame; every coordinate finite."""

    __slots__ = ("t", "x", "y", "z")

    def __init__(self, t: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0) -> None:
        super().__init__(t, x, y, z)
        # checked after the fields are set, so the message can show the point
        if not all(map(math.isfinite, (t, x, y, z))):
            raise GeometryError(f"spacetime coordinates must be finite, got {self}")


# The closed forms as plain float kernels, each formula written once: the
# public functions below, the figure sweeps, the weak-field energy shifts and
# the CLI's stress tensor call them. They check nothing; callers pass an L
# and a polarization count that check_geometry accepts.
def _energy_density(L: float) -> float:
    return -_PI_SQUARED / (1440.0 * L ** 4)


def _energy_per_area(L: float, polarizations: int) -> float:
    return polarizations * (-_PI_SQUARED / (1440.0 * L ** 3))


def _pressure(L: float, polarizations: int) -> float:
    return 3.0 * (_energy_per_area(L, polarizations) / L)


def _stress_diagonal(L: float, polarizations: int,
                     flip_transverse_y: bool) -> tuple[float, float, float, float]:
    e_over_l = _energy_per_area(L, polarizations) / L
    return (e_over_l, -e_over_l, e_over_l if flip_transverse_y else -e_over_l, 3.0 * e_over_l)


def _trace(diagonal) -> float:
    total = 0.0
    for eta, t in zip(METRIC_DIAGONAL, diagonal):
        total += eta * t
    return total


def energy_density(L: float) -> float:
    """Renormalized vacuum energy density -pi^2/(1440 L^4), one polarization."""
    check_geometry(L)
    return _energy_density(L)


def energy_per_area(cfg: CavityConfig) -> float:
    """Casimir energy per unit plate area; -pi^2/(720 L^3) for the EM field."""
    return _energy_per_area(cfg.L, cfg.polarizations)


def pressure(cfg: CavityConfig) -> float:
    """Casimir force per unit area; -pi^2/(240 L^4) for the EM field.

    Negative sign means attraction. Computed as 3 E/(A L) so that the 3-3
    stress component built from the same expression matches bit for bit.
    """
    return _pressure(cfg.L, cfg.polarizations)


def brown_maclay_tensor(cfg: CavityConfig, flip_transverse_y: bool = False) -> StressTensor:
    """Constant diagonal vacuum stress tensor (E/A / L) * diag(1, -1, -1, 3).

    The default diagonal is the traceless conformally-invariant one with
    T^33 equal to the pressure and both transverse directions alike.
    ``flip_transverse_y=True`` selects the diag(1, -1, 1, 3) variant that
    circulates in parts of the literature; it breaks tracelessness and
    transverse symmetry and is kept only for side-by-side comparison.
    """
    import numpy as np
    return StressTensor(np.diag(_stress_diagonal(cfg.L, cfg.polarizations, flip_transverse_y)))


def feynman_propagator(x: SpacetimePoint, x2: SpacetimePoint) -> float:
    """Massless flat-space Feynman propagator 1/(4 pi^2 (x - x')^2).

    The squared interval uses the (-,+,+,+) signature. Separations with
    |(x - x')^2| <= 1e-12 (dt^2 + |dx|^2), coincident and null ones included,
    raise :class:`LightConeError`, whatever the length unit; a squared interval
    or value outside the normal double range raises :class:`DomainError`.
    """
    dt = x.t - x2.t
    dx = x.x - x2.x
    dy = x.y - x2.y
    dz = x.z - x2.z
    s2 = check_finite(-dt * dt + dx * dx + dy * dy + dz * dz, "squared interval")
    if abs(s2) <= _LIGHT_CONE_REL_TOL * (dt * dt + dx * dx + dy * dy + dz * dz):
        raise LightConeError(
            f"propagator singular on the light cone: (x - x')^2 = {s2:.3e}"
        )
    return check_normal(1.0 / (4.0 * _PI_SQUARED * s2), "propagator")
