"""Closed-form observables for the parallel-plate cavity.

Natural units (hbar = c = 1), metric signature (-,+,+,+). A scalar
Dirichlet mode spectrum carries ``polarizations = 1``; the electromagnetic
field carries the factor-of-two polarization count. This module is the
single owner of that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, LightConeError

__all__ = [
    "CavityConfig",
    "StressTensor",
    "SpacetimePoint",
    "METRIC_DIAGONAL",
    "check_geometry",
    "energy_density",
    "energy_per_area",
    "pressure",
    "brown_maclay_tensor",
    "feynman_propagator",
]

METRIC_DIAGONAL = (-1.0, 1.0, 1.0, 1.0)


def check_geometry(L: float, polarizations: int = 1, a: float | None = None) -> None:
    """Raise :class:`GeometryError` unless the plate geometry is physical.

    The one validator of plate geometry in the package: the separation
    ``L`` and, for an apparatus, the plate side ``a`` must satisfy
    0 < x < inf (NaN fails too), and ``polarizations`` must be 1 (scalar)
    or 2 (EM).
    """
    if a is not None and not 0.0 < a < math.inf:
        raise GeometryError(f"plate side must be positive and finite, got {a}")
    if not 0.0 < L < math.inf:
        raise GeometryError(f"plate separation must be positive and finite, got {L}")
    if polarizations not in (1, 2):
        raise GeometryError(f"polarizations must be 1 (scalar) or 2 (EM), got {polarizations}")


@dataclass(frozen=True)
class CavityConfig:
    """Plate separation and polarization count (1 scalar, 2 electromagnetic)."""

    L: float
    polarizations: int = 2

    def __post_init__(self) -> None:
        check_geometry(self.L, self.polarizations)


@dataclass(frozen=True)
class StressTensor:
    """Diagonal vacuum stress tensor <T^{mu nu}> in the cavity rest frame."""

    components: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.components, dtype=float)
        if c.shape != (4, 4):
            raise GeometryError("stress tensor must be 4x4")
        object.__setattr__(self, "components", c)

    def trace(self) -> float:
        """eta_{mu nu} T^{mu nu} with the fixed (-,+,+,+) signature."""
        total = 0.0
        for mu, eta in enumerate(METRIC_DIAGONAL):
            total += eta * float(self.components[mu, mu])
        return total


@dataclass(frozen=True)
class SpacetimePoint:
    t: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0


def energy_density(L: float) -> float:
    """Renormalized vacuum energy density -pi^2/(1440 L^4), one polarization."""
    check_geometry(L)
    return -(math.pi ** 2) / (1440.0 * L ** 4)


def energy_per_area(cfg: CavityConfig) -> float:
    """Casimir energy per unit plate area; -pi^2/(720 L^3) for the EM field."""
    return cfg.polarizations * (-(math.pi ** 2) / (1440.0 * cfg.L ** 3))


def pressure(cfg: CavityConfig) -> float:
    """Casimir force per unit area; -pi^2/(240 L^4) for the EM field.

    Negative sign means attraction. Computed as 3 E/(A L) so that the 3-3
    stress component built from the same expression matches bit for bit.
    """
    return 3.0 * (energy_per_area(cfg) / cfg.L)


def brown_maclay_tensor(cfg: CavityConfig, flip_transverse_y: bool = False) -> StressTensor:
    """Constant diagonal vacuum stress tensor (E/A / L) * diag(1, -1, -1, 3).

    The default diagonal is the traceless conformally-invariant one with
    T^33 equal to the pressure and both transverse directions alike.
    ``flip_transverse_y=True`` selects the diag(1, -1, 1, 3) variant that
    circulates in parts of the literature; it breaks tracelessness and
    transverse symmetry and is kept only for side-by-side comparison.
    """
    e_over_l = energy_per_area(cfg) / cfg.L
    yy = e_over_l if flip_transverse_y else -e_over_l
    components = np.diag([e_over_l, -e_over_l, yy, 3.0 * e_over_l])
    return StressTensor(components)


def feynman_propagator(
    x: SpacetimePoint, x2: SpacetimePoint, light_cone_tol: float = 1e-12
) -> float:
    """Massless flat-space Feynman propagator 1/(4 pi^2 (x - x')^2).

    The squared interval uses the (-,+,+,+) signature. Evaluations with
    |(x - x')^2| below ``light_cone_tol`` raise :class:`LightConeError`.
    """
    if light_cone_tol <= 0:
        raise LightConeError("light_cone_tol must be positive")
    dt = x.t - x2.t
    dx = x.x - x2.x
    dy = x.y - x2.y
    dz = x.z - x2.z
    s2 = -dt * dt + dx * dx + dy * dy + dz * dz
    if abs(s2) < light_cone_tol:
        raise LightConeError(
            f"propagator singular on the light cone: (x - x')^2 = {s2:.3e}"
        )
    return 1.0 / (4.0 * math.pi ** 2 * s2)
