"""Weak-field gravitational correction to the Casimir setup.

A plate apparatus tilted by ``alpha`` against the gravity direction sits
in a uniform field of order parameter ``g`` (inverse length, natural
units). The gravitational energy shift of the cavity vacuum follows from
the weak-field metric perturbation in two gauges,

    isotropic:  h_00 = -g z,  h_ij = -g z delta_ij
    Fermi:      h_00 = -g z,  h_ij = 0,

connected by the gauge vector zeta with symmetrized gradient h^F - h^I.
The shift evaluates to  Delta E = -A g E_C z0  with z0 = xi0 cos(alpha),
and the force corrections follow:  Delta F / A = g E_C,
F^I/A = -2 g E_C, F^F/A = F^I/A + Delta F/A = -g E_C.

The closed forms raise :class:`DomainError` when their result leaves the
normal double range: an overflow, a subnormal, or a zero although neither g
nor xi0 is zero.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING, Callable

from .cavity import CavityConfig, SpacetimePoint, check_geometry, energy_per_area, pressure
from .errors import FrozenValue, GeometryError, RegimeWarning, check_finite, check_normal
from .numerics import Interval, QuadratureSpec, SeriesResult, integrate_nd

if TYPE_CHECKING:
    import numpy as np
__all__ = [
    "PlateApparatus",
    "WeakField",
    "apparatus_to_lab",
    "h_isotropic",
    "h_fermi",
    "gauge_field",
    "delta_energy_quadrature",
    "delta_energy_closed",
    "delta_force_per_area",
    "isotropic_force_per_area",
    "fermi_force_per_area",
    "fractional_correction",
]


class PlateApparatus(FrozenValue):
    """Square-plate Casimir apparatus in gravity-aligned lab coordinates.

    ``a`` is the transverse plate side (area A = a^2), ``L`` the plate
    separation, ``xi0`` the center offset along the plate normal and
    ``alpha`` the tilt from the gravity direction (radians, stored as
    given, so cos and sin reduce it exactly). All four must be finite, and
    ``polarizations`` an integer, stored as ``int``. The closed forms
    assume a >> L; smaller aspect ratios only warn.
    """

    __slots__ = ("a", "L", "xi0", "alpha", "polarizations")

    def __init__(self, a: float, L: float, xi0: float = 0.0, alpha: float = 0.0,
                 polarizations: int = 2) -> None:
        polarizations = check_geometry(L, polarizations, a)
        if not (math.isfinite(xi0) and math.isfinite(alpha)):
            raise GeometryError(f"xi0 and alpha must be finite, got {xi0}, {alpha}")
        if a < 10.0 * L:
            warnings.warn(
                f"aspect ratio a/L = {a / L:.3g} < 10; edge effects "
                "neglected by the closed forms may be significant",
                RegimeWarning,
                stacklevel=2,
            )
        super().__init__(a, L, xi0, alpha, polarizations)

    @property
    def area(self) -> float:
        return self.a * self.a

    @property
    def z0(self) -> float:
        """Vertical offset of the apparatus center, xi0 cos(alpha)."""
        return self.xi0 * math.cos(self.alpha)

    def cavity(self) -> CavityConfig:
        return CavityConfig(self.L, self.polarizations)


class WeakField(FrozenValue):
    """Uniform-gravity order parameter g >= 0 (inverse length)."""

    __slots__ = ("g",)

    def __init__(self, g: float = 0.0) -> None:
        if g < 0 or not math.isfinite(g):
            raise GeometryError(f"field order parameter must be finite and >= 0, got {g}")
        super().__init__(g)


def _warn_linearized_regime(app: PlateApparatus, field: WeakField) -> None:
    # crude upper bound on any lab coordinate of the apparatus
    extent = abs(app.xi0) + 0.5 * app.L + app.a
    if field.g * extent > 0.1:
        warnings.warn(
            f"g * apparatus extent = {field.g * extent:.3g} > 0.1; outside "
            "the linearized weak-field regime",
            RegimeWarning,
            stacklevel=3,
        )


def apparatus_to_lab(p: tuple[float, float, float], alpha: float) -> tuple[float, float, float]:
    """Rotate apparatus coordinates (xi, eta, chi) into lab (x, y, z).

    z = xi cos(alpha) + eta sin(alpha), y = eta cos(alpha) - xi sin(alpha),
    x = chi.
    """
    xi, eta, chi = p
    c = math.cos(alpha)
    s = math.sin(alpha)
    return (chi, eta * c - xi * s, xi * c + eta * s)


def h_isotropic(field: WeakField, p: SpacetimePoint) -> np.ndarray:
    """Isotropic-gauge perturbation: diag(-gz, -gz, -gz, -gz); a gz past the
    double range raises :class:`DomainError`."""
    import numpy as np
    return np.diag([check_finite(-field.g * p.z, "h_isotropic")] * 4)


def h_fermi(field: WeakField, p: SpacetimePoint) -> np.ndarray:
    """Fermi-gauge perturbation: only h_00 = -gz survives; a gz past the
    double range raises :class:`DomainError`."""
    import numpy as np
    h = np.zeros((4, 4))
    h[0, 0] = check_finite(-field.g * p.z, "h_fermi")
    return h


def gauge_field(field: WeakField) -> Callable[[SpacetimePoint], np.ndarray]:
    """The vector field zeta_mu(x) carrying the isotropic gauge into the Fermi gauge.

    zeta_0 = 0, zeta_x = g z x / 2, zeta_y = g z y / 2,
    zeta_z = (g/4)(z^2 - x^2 - y^2); its symmetrized gradient equals
    h^F - h^I = g z diag(0, 1, 1, 1) identically. The representative is
    unique up to flat-space Killing vectors; the time component is chosen
    to vanish. A component past the double range raises :class:`DomainError`.
    """
    g = field.g

    def evaluate(p: SpacetimePoint) -> np.ndarray:
        import numpy as np
        zeta = [
            0.0,
            0.5 * g * p.z * p.x,
            0.5 * g * p.z * p.y,
            0.25 * g * (p.z * p.z - p.x * p.x - p.y * p.y),
        ]
        for component in zeta:
            check_finite(component, "gauge field")
        return np.array(zeta)

    return evaluate


def delta_energy_closed(app: PlateApparatus, field: WeakField) -> float:
    """Gravitational energy shift Delta E = -A g E_C xi0 cos(alpha)."""
    _warn_linearized_regime(app, field)
    e_c = energy_per_area(app.cavity())
    return check_normal(-app.area * field.g * e_c * app.xi0 * math.cos(app.alpha), "Delta E_g",
                        field.g, app.xi0)


def delta_energy_quadrature(
    app: PlateApparatus, field: WeakField, spec: QuadratureSpec = QuadratureSpec()
) -> SeriesResult:
    """Gravitational energy shift by direct quadrature of its three terms.

    The three double integrals are evaluated exactly as they arise from
    the stress-tensor coupling, without the simplifications that yield the
    closed form (term 1 has a constant integrand; the eta-odd part of
    term 3 integrates to zero numerically rather than by assumption):

      (6 E_C/L)  int d(eta) d(chi) (1/4) g cos(a) (-2 xi0 L)
    - (2 E_C/L)  int d(xi) d(chi)  (1/2) g cos(a) (-a) xi
    - (2 E_C/L)  int d(xi) d(eta)  (1/2) g (xi cos(a) + eta sin(a)) (-a)

    with eta, chi over [-a/2, a/2] and xi over [xi0 - L/2, xi0 + L/2].
    This is the independent check of :func:`delta_energy_closed`. Products
    of per-call constants are computed once, each as the left-most part of
    the formula above read left to right, so every node gets the same
    doubles as the literal integrands; term 1 is still integrated at every
    node.
    """
    _warn_linearized_regime(app, field)
    e_c = energy_per_area(app.cavity())
    g = field.g
    ca = math.cos(app.alpha)
    sa = math.sin(app.alpha)
    a, L, xi0 = app.a, app.L, app.xi0
    transverse = Interval(-0.5 * a, 0.5 * a)
    normal = Interval(xi0 - 0.5 * L, xi0 + 0.5 * L)
    # left-most parts of the left-to-right products above: regrouping changes bits
    c1 = 0.25 * g * ca * (-2.0 * xi0 * L)
    c2 = 0.5 * g * ca * (-a)
    h, na = 0.5 * g, -a

    term1 = integrate_nd(lambda eta, chi: c1, [transverse, transverse], spec)
    term2 = integrate_nd(lambda xi, chi: c2 * xi, [normal, transverse], spec)
    term3 = integrate_nd(lambda xi, eta: h * (xi * ca + eta * sa) * na, [normal, transverse], spec)

    # terms 2 and 3 share their front factor, so they are summed before scaling
    return term1.scaled(6.0 * e_c / L) + (term2 + term3).scaled(-2.0 * e_c / L)


def delta_force_per_area(field: WeakField, cfg: CavityConfig) -> float:
    """Change of the force per unit area, Delta F / A = g E_C."""
    return check_normal(field.g * energy_per_area(cfg), "Delta F / A", field.g)


def isotropic_force_per_area(field: WeakField, cfg: CavityConfig) -> float:
    """Isotropic-gauge force per unit area, F^I / A = -2 g E_C."""
    return check_finite(-2.0 * delta_force_per_area(field, cfg), "F_iso / A")


def fermi_force_per_area(field: WeakField, cfg: CavityConfig) -> float:
    """Fermi force per unit area, F^F / A = F^I / A + Delta F / A = -g E_C,
    exactly -(Delta F / A), so finite whenever F^I / A is."""
    return isotropic_force_per_area(field, cfg) + delta_force_per_area(field, cfg)


def fractional_correction(field: WeakField, cfg: CavityConfig) -> float:
    """Correction relative to the flat pressure: g E_C / P = g L / 3."""
    return check_normal(delta_force_per_area(field, cfg) / pressure(cfg), "Delta F / F_flat",
                        field.g)
