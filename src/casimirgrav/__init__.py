"""Casimir observables for parallel plates and their weak-field gravity
corrections, with three independent regularization routes."""

from .cavity import (
    CavityConfig,
    SpacetimePoint,
    StressTensor,
    brown_maclay_tensor,
    energy_density,
    energy_per_area,
    feynman_propagator,
    pressure,
)
from .errors import (
    CasimirError,
    ConvergenceError,
    DivergentSeriesError,
    DomainError,
    GeometryError,
    LightConeError,
    RegimeWarning,
)
from .numerics import (
    Interval,
    QuadratureSpec,
    SeriesResult,
    central_diff,
    integrate_1d,
    integrate_nd,
    tail_bounded_power_sum,
)
from .regularization import (
    SchemeComparison,
    SchemeKind,
    abel_plana_regularized_power_sum,
    compare_schemes,
    energy_density_image_sum,
    energy_per_area_abel_plana,
    riemann_zeta,
)
from .weakfield import (
    PlateApparatus,
    WeakField,
    apparatus_to_lab,
    delta_energy_closed,
    delta_energy_quadrature,
    delta_force_per_area,
    fermi_force_per_area,
    fractional_correction,
    gauge_field,
    h_fermi,
    h_isotropic,
    isotropic_force_per_area,
)

__version__ = "0.1.0"
