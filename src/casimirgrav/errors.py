"""Exception hierarchy, advisory warnings and the finite-result check."""

import math

__all__ = [
    "CasimirError",
    "DomainError",
    "GeometryError",
    "ConvergenceError",
    "DivergentSeriesError",
    "LightConeError",
    "RegimeWarning",
    "check_finite",
]


class CasimirError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CasimirError):
    """Input outside the mathematical domain of an operation."""


class GeometryError(CasimirError):
    """Invalid cavity or apparatus geometry (e.g. non-positive separation)."""


class ConvergenceError(CasimirError):
    """A numerical procedure failed to converge within its budget."""


class DivergentSeriesError(CasimirError):
    """The requested series does not converge."""


class LightConeError(DomainError):
    """Propagator evaluated too close to the light cone."""


class RegimeWarning(UserWarning):
    """Advisory: inputs outside the regime the closed forms were derived in."""


def check_finite(value: float, what: str) -> float:
    """``value`` if it is finite, else :class:`DomainError`: the inputs took
    ``what`` outside the double range (an inf, or the NaN of inf - inf or inf * 0)."""
    if not math.isfinite(value):
        raise DomainError(f"{what} overflows the double range for these inputs")
    return value
