"""The checks that ``errors`` gives the other modules: ``check_integer`` on
counts and exponents, ``check_finite`` and ``check_normal`` on results, and
the exception family the command line maps to its exit codes."""

import math
import sys

import numpy as np
import pytest

from casimirgrav.errors import (
    CasimirError,
    ConvergenceError,
    DivergentSeriesError,
    DomainError,
    GeometryError,
    check_finite,
    check_integer,
    check_normal,
)

SUBNORMALS = (5e-324, -5e-324, sys.float_info.min / 2)


def test_domain_error_family_and_convergence_error_are_casimir_errors():
    for kind in (GeometryError, DivergentSeriesError):
        assert issubclass(kind, DomainError)
    assert issubclass(DomainError, CasimirError)
    assert issubclass(ConvergenceError, CasimirError)
    assert not issubclass(ConvergenceError, DomainError)


def test_check_integer_returns_an_int_for_ints_and_numpy_integers():
    for value in (0, -7, 2 ** 70, np.int64(3), np.uint8(255)):
        got = check_integer(value, "n")
        assert type(got) is int and got == value


def test_check_integer_refuses_integral_floats_and_other_types():
    for value in (3.0, np.float64(3.0), "3", None):
        with pytest.raises(DomainError, match=r"^n must be an integer, got "):
            check_integer(value, "n")


def test_check_finite_refuses_inf_and_nan_and_passes_every_finite_value():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="^x overflows the double range for these inputs$"):
            check_finite(value, "x")
    for value in (0.0, -0.0, *SUBNORMALS, sys.float_info.max, -sys.float_info.max):
        assert check_finite(value, "x") is value


def test_check_normal_refuses_non_finite_subnormal_and_unexplained_zero_values():
    for value in (math.inf, math.nan):
        with pytest.raises(DomainError, match="overflows"):
            check_normal(value, "x", 0.0)
    # a subnormal has lost digits whatever the factors
    for value in SUBNORMALS:
        with pytest.raises(DomainError, match="^x underflows the double range for these inputs$"):
            check_normal(value, "x", 0.0)
    # a zero that no zero factor explains has lost every digit
    for factors in ((), (2.0,), (1e-300, -1e-300)):
        with pytest.raises(DomainError, match="underflows"):
            check_normal(0.0, "x", *factors)


def test_check_normal_passes_normal_values_and_zeros_that_a_zero_factor_explains():
    for value in (sys.float_info.min, -sys.float_info.min, 1.0, -sys.float_info.max):
        assert check_normal(value, "x") is value
        assert check_normal(value, "x", 0.0) is value
    for zero in (0.0, -0.0):
        assert check_normal(zero, "x", 2.0, 0.0) is zero
