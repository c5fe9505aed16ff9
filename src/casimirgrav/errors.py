"""Exception hierarchy, advisory warnings and the range checks on results."""

import math
import sys

__all__ = [
    "CasimirError",
    "DomainError",
    "GeometryError",
    "ConvergenceError",
    "DivergentSeriesError",
    "LightConeError",
    "RegimeWarning",
    "check_finite",
    "check_normal",
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


def check_normal(value: float, what: str, *factors: float) -> float:
    """``value`` if it is a finite normal double, or a zero that a zero among
    ``factors`` (the inputs that make the exact result zero) explains; else
    :class:`DomainError`. A subnormal has lost digits to underflow, and a zero
    from non-zero ``factors`` has lost them all."""
    check_finite(value, what)
    if abs(value) < sys.float_info.min and (value != 0 or all(factors)):
        raise DomainError(f"{what} underflows the double range for these inputs")
    return value
