"""Exception hierarchy, advisory warnings, the integer check on counts and
exponents, the range checks on results, and :class:`FrozenValue`, the base of
every value type in the package."""

import operator
import sys

__all__ = [
    "CasimirError",
    "DomainError",
    "GeometryError",
    "ConvergenceError",
    "DivergentSeriesError",
    "RegimeWarning",
]


class CasimirError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CasimirError):
    """Input outside the mathematical domain of an operation, or a result
    outside the double range. :class:`GeometryError` and
    :class:`DivergentSeriesError` are its kinds; the command line exits 2 on
    the whole family."""


class GeometryError(DomainError):
    """Invalid cavity or apparatus geometry (e.g. non-positive separation)."""


class ConvergenceError(CasimirError):
    """A numerical procedure failed to converge within its budget."""


class DivergentSeriesError(DomainError):
    """The requested series does not converge."""


class RegimeWarning(UserWarning):
    """Advisory: inputs outside the regime the closed forms were derived in."""


def check_integer(value, what: str) -> int:
    """``value`` as an ``int`` if :func:`operator.index` accepts it (an int or a
    numpy integer), else :class:`DomainError`; a float such as 3.0 is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


# the largest double: a check that compares against it refuses an int past the
# double range as it refuses an inf, where math.isfinite raises OverflowError
_DOUBLE_MAX = sys.float_info.max


def check_finite(value: float, what: str) -> float:
    """``value`` if it is finite, else :class:`DomainError`: the inputs took
    ``what`` outside the double range (an inf, the NaN of inf - inf or inf * 0,
    or an int that no double holds)."""
    if not abs(value) <= _DOUBLE_MAX:
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


class FrozenValue:
    """Base of the package's immutable value types.

    A subclass's ``__slots__`` name its fields and are its whole state, with
    no private slot; they are also its ``__match_args__``. It validates its
    arguments in ``__init__`` and then calls ``FrozenValue.__init__`` with
    every field in declaration order, which sets each one once; a wrong count
    raises :class:`ValueError`. Assigning or deleting an attribute afterwards
    raises :class:`AttributeError`. Equality (between values of one class),
    hash and repr go over the fields in declaration order; a value pickles
    and copies by constructing it again from its fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def __init__(self, *values) -> None:
        set_field = object.__setattr__  # one lookup per value, not per field
        for name, value in zip(self.__slots__, values, strict=True):
            set_field(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
