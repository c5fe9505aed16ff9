"""Searched bound honesty: the quadrature energy shift, the Abel-Plana
regulator, the 3-axis ``integrate_nd`` of a linear integrand and
``riemann_zeta``'s documented relative bound, checked against 50-digit
mpmath on inputs that Hypothesis steers towards the largest error / bound.
Abel-Plana's exponent takes only 75 values, so it is also checked on a grid,
and two hard ``integrate_1d`` integrands on [0, inf) at fixed tolerances.

The searches are derandomized and keep no example database, so every run
draws the same inputs. An input that the library refuses with a package
error is skipped; a returned result must enclose the truth.
"""

import math
import sys
import warnings

import mpmath
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from casimirgrav import regularization
from casimirgrav.errors import CasimirError, RegimeWarning
from casimirgrav.numerics import Interval, QuadratureSpec, integrate_1d, integrate_nd
from casimirgrav.regularization import abel_plana_regularized_power_sum, riemann_zeta
from casimirgrav.weakfield import PlateApparatus, WeakField, delta_energy_quadrature

_U = sys.float_info.epsilon / 2.0


def _search(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)


def _log_uniform(lo, hi):
    """Floats spread evenly over the decades of [lo, hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def _holds(value, bound, truth):
    """Assert that value +- bound encloses the mpmath ``truth``, after
    pointing the search at the inputs with the largest error / bound."""
    error = abs(mpmath.mpf(value) - truth)
    ratio = float(error / bound) if bound > 0 else (math.inf if error else 0.0)
    target(min(ratio, 1e6))  # a finite score: a bound of 0 on a wrong value scores highest
    assert error <= bound, (value, bound, truth)


_SPECIAL_TILTS = (0.0, 0.5 * math.pi, -0.5 * math.pi, 1e-310)


# a log-uniform in [1e-3, 1e3], L / a in [1e-4, 0.1] and g in [1e-320, 1], where
# subnormal g reaches the bound's underflow term;
# xi0 zero or of either sign, log-uniform from 1e-300 L up to a; alpha 0,
# +-pi/2, subnormal, or of either sign and magnitude 1e-310 to 1e300
@_search(1500)
@given(st.floats(-3.0, 3.0), st.floats(-4.0, -1.0), st.floats(-320.0, 0.0),
       st.sampled_from((-1.0, 0.0, 1.0)), st.floats(0.0, 1.0),
       st.integers(0, len(_SPECIAL_TILTS) + 1), st.floats(-310.0, 300.0), st.sampled_from((1, 2)))
def test_energy_shift_quadrature_bound_searched(log_a, log_ratio, log_g, xi0_sign, xi0_place,
                                                tilt, log_alpha, polarizations):
    a, g = 10.0 ** log_a, 10.0 ** log_g
    L = a * 10.0 ** log_ratio
    xi0 = xi0_sign * L * 10.0 ** (-300.0 + xi0_place * (300.0 - log_ratio))
    alpha = (_SPECIAL_TILTS[tilt] if tilt < len(_SPECIAL_TILTS)
             else (-1.0) ** tilt * 10.0 ** log_alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        try:
            app = PlateApparatus(a, L, xi0, alpha, polarizations)
            res = delta_energy_quadrature(app, WeakField(g))
        except CasimirError:
            return
    with mpmath.workdps(50):
        e_c = -polarizations * mpmath.pi ** 2 / (1440 * mpmath.mpf(L) ** 3)
        _holds(res.value, res.error_bound,
               -mpmath.mpf(a) ** 2 * g * e_c * xi0 * mpmath.cos(alpha))


# the volume integral of the benchmark's energy-shift-grid: a in [1e-3, 1e3],
# L / a in [1e-4, 1], xi0 zero or of either sign up to 1e3, |k| in [1e-200, 1e200]
@_search(300)
@given(st.floats(-3.0, 3.0), st.floats(-4.0, 0.0), st.sampled_from((-1.0, 0.0, 1.0)),
       st.floats(-12.0, 3.0), st.floats(-math.pi, math.pi), st.sampled_from((-1.0, 1.0)),
       st.floats(-200.0, 200.0))
def test_integrate_nd_3_axis_bound_searched(log_a, log_ratio, xi0_sign, log_xi0, alpha,
                                            k_sign, log_k):
    a = 10.0 ** log_a
    L = a * 10.0 ** log_ratio
    xi0 = xi0_sign * 10.0 ** log_xi0
    k = k_sign * 10.0 ** log_k
    ca, sa = math.cos(alpha), math.sin(alpha)
    normal = Interval(xi0 - 0.5 * L, xi0 + 0.5 * L)
    transverse = Interval(-0.5 * a, 0.5 * a)
    res = integrate_nd(lambda xi, eta, chi: k * (xi * ca + eta * sa),
                       [normal, transverse, transverse])
    with mpmath.workdps(50):
        # the exact integral of the float integrand over the float ends it was given;
        # the eta term integrates to zero over the symmetric transverse interval
        lo, hi, side = mpmath.mpf(normal.lo), mpmath.mpf(normal.hi), mpmath.mpf(transverse.hi)
        _holds(res.value, res.error_bound,
               mpmath.mpf(k) * mpmath.mpf(ca) * (hi ** 2 - lo ** 2) / 2 * (2 * side) ** 2)


def _abel_plana_truth(p):
    """-2 sin(p pi / 2) p! zeta(p + 1) / (2 pi)^(p + 1), the branch-cut integral
    in closed form, for odd p; at the caller's mpmath precision."""
    sign = 1 if p % 4 == 1 else -1
    return -2 * sign * mpmath.factorial(p) * mpmath.zeta(p + 1) / (2 * mpmath.pi) ** (p + 1)


@_search(300)
@given(st.integers(0, 74).map(lambda k: 2 * k + 1), _log_uniform(1e-12, 1e-2))
def test_abel_plana_bound_searched(p, tolerance):
    res = abel_plana_regularized_power_sum(p, QuadratureSpec(tolerance))
    with mpmath.workdps(50):
        _holds(res.value, res.error_bound, _abel_plana_truth(p))


# Every odd exponent at 46 log-spaced tolerances over [1e-12, 1e-2], 3 450 runs,
# which reaches misses that the search above does not (the integrand's peak moves
# out to t ~ p / (2 pi) ~ 24 at p = 149). Worst error / bound 0.46 (p = 67).
def test_abel_plana_bound_holds_on_the_exponent_tolerance_grid():
    tolerances = [10.0 ** (-12 + 10 * k / 45) for k in range(46)]
    with mpmath.workdps(50):
        for p in range(1, regularization.MAX_ABEL_PLANA_EXPONENT, 2):
            truth = _abel_plana_truth(p)
            for tolerance in tolerances:
                res = abel_plana_regularized_power_sum(p, QuadratureSpec(tolerance))
                ratio = float(abs(mpmath.mpf(res.value) - truth) / res.error_bound)
                assert ratio <= 1.0, (p, tolerance, ratio)


# Between two of the grid's tolerances; an integral taken at unit scale instead of
# the peak's missed here by 14.2 times its bound.
def test_abel_plana_bound_holds_at_p141_tolerance_1e3():
    res = abel_plana_regularized_power_sum(141, QuadratureSpec(1e-3))
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(res.value) - _abel_plana_truth(141)) <= res.error_bound


@pytest.mark.parametrize("f, truth, tolerance", [
    # a peak far from unit scale, at t = 91
    (lambda t: t ** 91 * math.exp(-t) if t < 700.0 else 0.0, lambda: mpmath.factorial(91), 1e-4),
    (lambda t: t ** 91 * math.exp(-t) if t < 700.0 else 0.0, lambda: mpmath.factorial(91), 1e-3),
    # 1.6 oscillations per unit t, over the few units where e^-t lives
    (lambda t: math.sin(10.0 * t) * math.exp(-t), lambda: mpmath.mpf(10) / 101, 1e-6),
    (lambda t: math.sin(10.0 * t) * math.exp(-t), lambda: mpmath.mpf(10) / 101, 1e-9),
], ids=["t^91 e^-t at 1e-4", "t^91 e^-t at 1e-3", "sin(10 t) e^-t at 1e-6",
        "sin(10 t) e^-t at 1e-9"])
def test_integrate_1d_bound_holds_on_hard_semi_infinite_integrands(f, truth, tolerance):
    # nested Gauss-Legendre halves missed the first two by 6.12 times their bound
    # and the third by 1.2 times; the Kronrod rule reads 2.0e-5, 3.6e-6, 0.083
    # and 1.8e-4 of it
    res = integrate_1d(f, Interval(0.0, math.inf), QuadratureSpec(tolerance))
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(res.value) - truth()) <= res.error_bound


@_search(1000)
@given(_log_uniform(2.0 ** -52, 53.0).map(lambda d: min(1.0 + d, 54.0)))
def test_riemann_zeta_relative_bound_searched(s):
    with mpmath.workdps(50):
        exact = mpmath.zeta(s)
        _holds(riemann_zeta(s), 8 * _U * float(exact), exact)
