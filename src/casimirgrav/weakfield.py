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

from .cavity import (CavityConfig, SpacetimePoint, _energy_per_area, check_geometry,
                     energy_per_area, pressure)
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

# delta_energy_quadrature's variable u runs over [-1/2, 1/2] for every apparatus
_UNIT_BOX = (Interval(-0.5, 0.5),)


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
    e_c = _energy_per_area(app.L, app.polarizations)  # checked with the apparatus
    return check_normal(-app.area * field.g * e_c * app.xi0 * math.cos(app.alpha), "Delta E_g",
                        field.g, app.xi0)


def delta_energy_quadrature(
    app: PlateApparatus, field: WeakField, spec: QuadratureSpec = QuadratureSpec()
) -> SeriesResult:
    """Gravitational energy shift by direct quadrature of its three terms.

    The shift is the sum of three double integrals, as they arise from the
    stress-tensor coupling, without the simplifications that yield the
    closed form:

      (6 E_C/L)  int d(eta) d(chi) (1/4) g cos(a) (-2 xi0 L)
    - (2 E_C/L)  int d(xi) d(chi)  (1/2) g cos(a) (-a) xi
    - (2 E_C/L)  int d(xi) d(eta)  (1/2) g (xi cos(a) + eta sin(a)) (-a)

    with eta, chi over [-a/2, a/2] and xi over [xi0 - L/2, xi0 + L/2].
    Term 1's integrand is a constant, and the others are a function of xi
    plus a function of eta, so each part is a 1-D integral times the extent
    of the axis it does not depend on. With xi = xi0 - L u and eta = a u,
    all run over u in [-1/2, 1/2], and the shift is one adaptive integral

      int du g [(6 E_C/L) c1 a^2 + (-2 E_C/L) (L a N(xi0 - L u) + a L T(a u))]

    with c1 = (1/4) cos(a) (-2 xi0 L), N(xi) = (1/2) cos(a) (-a) xi +
    (1/2) (xi cos(a)) (-a) and T(t) = (1/2) (t sin(a)) (-a). Term 1 needs
    no special case: over the unit interval its constant integrates to
    itself, and its rounding is bounded with the rest of the integrand.
    Scaling u by L keeps the normal interval's width exactly L however
    large xi0 is (the ends xi0 +- L/2 round), and the u-odd transverse part
    integrates to zero numerically rather than by assumption. The factor g,
    common to all three terms, multiplies last: it may be as small as a
    subnormal, and bits that a product loses to underflow before -2 E_C/L
    multiplies it are in no bound term, while the quadrature's underflow
    term covers the last product.

    This is the independent check of :func:`delta_energy_closed`. Products
    of per-call constants are computed once, each as the left-most part of
    the integrand read left to right, so every node gets the same doubles
    as the literal formula.
    """
    _warn_linearized_regime(app, field)
    e_c = _energy_per_area(app.L, app.polarizations)  # checked with the apparatus
    g = field.g
    ca = math.cos(app.alpha)
    sa = math.sin(app.alpha)
    a, L, xi0 = app.a, app.L, app.xi0
    # left-most parts of the left-to-right products above: regrouping changes bits
    term1 = 6.0 * e_c / L * (0.25 * ca * (-2.0 * xi0 * L)) * a * a
    front = -2.0 * e_c / L
    la = L * a  # also a L: a rounded product does not depend on the order
    c2 = 0.5 * ca * (-a)
    na = -a

    def unit(u: float) -> float:
        xi = xi0 - L * u
        return g * (term1 + front * (la * (c2 * xi + 0.5 * (xi * ca) * na)
                                     + la * (0.5 * ((a * u) * sa) * na)))

    return integrate_nd(unit, _UNIT_BOX, spec)


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
