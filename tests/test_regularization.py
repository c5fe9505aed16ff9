import math
import random

import mpmath
import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta

from casimirgrav import regularization
from casimirgrav.errors import ConvergenceError, DivergentSeriesError, DomainError, GeometryError
from casimirgrav.numerics import Interval, QuadratureSpec, integrate_1d, tail_bounded_power_sum
from casimirgrav.regularization import (
    MAX_IMAGE_TERMS,
    SchemeKind,
    abel_plana_regularized_power_sum,
    compare_schemes,
    energy_density_image_sum,
    energy_per_area_abel_plana,
    riemann_zeta,
)


def test_zeta_reference_values():
    assert riemann_zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, abs=1e-14)
    assert riemann_zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-14)
    assert riemann_zeta(10.0) == pytest.approx(1.0009945751278180, abs=1e-14)


def test_zeta_against_scipy():
    for s in np.arange(1.5, 12.01, 0.25):
        assert riemann_zeta(float(s)) == pytest.approx(float(scipy_zeta(s, 1)), abs=5e-14)


def test_zeta_monotone_decreasing_above_one():
    values = [riemann_zeta(s) for s in np.arange(2.0, 10.01, 0.5)]
    assert all(v >= 1.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_zeta_domain():
    # the documented kind for a divergent series, as tail_bounded_power_sum raises
    for s in (1.0, 0.5):
        with pytest.raises(DivergentSeriesError, match=f"diverge for s = {s} <= 1"):
            riemann_zeta(s)
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            riemann_zeta(s)


def test_zeta_against_mpmath_up_to_huge_s():
    # the Bernoulli corrections used to reach inf * 0 = nan from s ~ 1e62 on
    for s in np.logspace(math.log10(2.0), 300.0, 400).tolist():
        assert riemann_zeta(s) == pytest.approx(float(mpmath.zeta(s)), abs=1e-14)
    assert riemann_zeta(1e308) == 1.0


def test_zeta_relative_error_against_mpmath_next_to_one():
    # zeta(s) ~ 1/(s - 1) reaches 4.5e15, where an absolute bound says nothing;
    # the worst of these draws is 3.6 u, of 24 000 other seeded draws 4.3 u
    rng = random.Random(20261019)
    draws = [1.0 + 10.0 ** rng.uniform(-12.0, math.log10(53.0)) for _ in range(1200)]
    draws += [1.0 + k * 2.0 ** -52 for k in (1, 2, 3, 111)]
    u = 2.0 ** -53
    with mpmath.workdps(40):
        for s in draws:
            exact = mpmath.zeta(s)
            assert abs((riemann_zeta(s) - exact) / exact) <= 8 * u, s


def test_image_sum_converges_to_closed_form():
    res = energy_density_image_sum(1.0, 10_000)
    target = -(math.pi ** 2) / 1440.0
    assert abs(res.value - target) <= res.error_bound
    assert res.value == pytest.approx(target, rel=1e-12)


def test_image_sum_quartic_scaling():
    res1 = energy_density_image_sum(1.0, 500)
    for lam in (2.0, 10.0):
        scaled = energy_density_image_sum(lam, 500)
        np.testing.assert_allclose(scaled.value, res1.value / lam ** 4, rtol=1e-12)
    assert energy_density_image_sum(2.0, 10_000).value == pytest.approx(
        -(math.pi ** 2) / 23040.0, rel=1e-12
    )


def test_image_sum_single_term():
    res = energy_density_image_sum(1.0, 1)
    assert res.value == pytest.approx(-1.0 / (16.0 * math.pi ** 2))
    assert res.error_bound == pytest.approx(1.0 / (48.0 * math.pi ** 2))
    assert res.terms_used == 1
    with pytest.raises(DomainError):
        energy_density_image_sum(1.0, 0)


def test_image_sum_geometry_error():
    with pytest.raises(GeometryError):
        energy_density_image_sum(0.0)
    with pytest.raises(GeometryError):
        energy_density_image_sum(-1.0)


@pytest.mark.parametrize("n", [1, 10, 100])
def test_image_sum_bound_honored(n):
    coarse = energy_density_image_sum(1.0, n)
    fine = energy_density_image_sum(1.0, 4 * n)
    assert abs(coarse.value - fine.value) <= coarse.error_bound


def test_abel_plana_odd_values():
    assert abel_plana_regularized_power_sum(3).value == pytest.approx(1.0 / 120.0, rel=1e-10)
    assert abel_plana_regularized_power_sum(1).value == pytest.approx(-1.0 / 12.0, rel=1e-10)
    assert abel_plana_regularized_power_sum(5).value == pytest.approx(-1.0 / 252.0, rel=1e-10)


def test_abel_plana_even_is_exact_zero():
    for p in (2, 4, 6):
        res = abel_plana_regularized_power_sum(p)
        assert res.value == 0.0
        assert res.error_bound == 0.0


@pytest.mark.parametrize("p", [1, 3, 5])
def test_abel_plana_matches_gamma_zeta_closed_form(p):
    quad = QuadratureSpec(relative_tolerance=1e-10)
    res = abel_plana_regularized_power_sum(p, quad)
    sign = 1.0 if p % 4 == 1 else -1.0
    closed = -2.0 * sign * math.gamma(p + 1) * riemann_zeta(p + 1) / (2.0 * math.pi) ** (p + 1)
    np.testing.assert_allclose(res.value, closed, rtol=1e-10)


def _literal_abel_plana(p, quad):
    """abel_plana_regularized_power_sum for odd p with the branch-cut
    integrand written out in full at every node, in tau = t / s with
    s = max(1, p / (2 pi))."""
    sign = 1.0 if p % 4 == 1 else -1.0
    s = max(1.0, p / (2.0 * math.pi))

    def branch_cut(tau):
        w = 2.0 * math.pi * (s * tau)
        return 0.0 if w > 700.0 else (s * tau) ** p / math.expm1(w) * s

    return integrate_1d(branch_cut, Interval(0.0, math.inf), quad).scaled(-2.0 * sign)


def test_abel_plana_is_the_literal_integrand_bit_for_bit():
    def record(res):
        return res.value.hex(), res.error_bound.hex(), res.terms_used

    for tol in (1e-12, 1e-9, 1e-6, 1e-3):
        quad = QuadratureSpec(tol)
        for p in range(1, regularization.MAX_ABEL_PLANA_EXPONENT, 2):
            got = abel_plana_regularized_power_sum(p, quad)
            assert record(got) == record(_literal_abel_plana(p, quad)), (p, tol)
        for L in (1e-70, 1e-8, 1.0, 3.7, 1e8, 1e70):
            want = _literal_abel_plana(3, quad).scaled(-(math.pi ** 2) / (12.0 * L ** 3))
            assert record(energy_per_area_abel_plana(L, quad)) == record(want), (L, tol)


def test_abel_plana_below_two_pi_is_the_unscaled_integrand_bit_for_bit():
    # s = 1 for p < 2 pi, so the p = 3 Casimir energy and every CLI value built
    # on it are the integral of t^p / (e^{2 pi t} - 1) in t itself
    def unscaled(p, quad):
        sign = 1.0 if p % 4 == 1 else -1.0

        def branch_cut(t):
            w = 2.0 * math.pi * t
            return 0.0 if w > 700.0 else t ** p / math.expm1(w)

        return integrate_1d(branch_cut, Interval(0.0, math.inf), quad).scaled(-2.0 * sign)

    for tol in (1e-12, 1e-9, 1e-6, 1e-3):
        quad = QuadratureSpec(tol)
        for p in (1, 3, 5):
            got, want = abel_plana_regularized_power_sum(p, quad), unscaled(p, quad)
            assert got.value.hex() == want.value.hex(), (p, tol)
            assert got.error_bound.hex() == want.error_bound.hex(), (p, tol)
            assert got.terms_used == want.terms_used, (p, tol)
    assert abel_plana_regularized_power_sum(3).terms_used == 96


def test_abel_plana_rejects_nonpositive_exponent():
    with pytest.raises(DomainError):
        abel_plana_regularized_power_sum(0)


def test_abel_plana_exponent_cap():
    # past t = 700/(2 pi) the integrand is zero, and t^p stays finite up to p = 150
    assert regularization.MAX_ABEL_PLANA_EXPONENT == 150
    with mpmath.workdps(30):
        exact = -2 * mpmath.gamma(150) * mpmath.zeta(150) / (2 * mpmath.pi) ** 150
    assert abel_plana_regularized_power_sum(149).value == pytest.approx(float(exact), rel=1e-12)
    for p in (151, 152, 153):
        with pytest.raises(DomainError, match=r"\[1, 150\]"):
            abel_plana_regularized_power_sum(p)


@pytest.mark.parametrize("call", [
    lambda n: abel_plana_regularized_power_sum(n),
    lambda n: tail_bounded_power_sum(4.0, 1.0, n),
    lambda n: energy_density_image_sum(1.0, n),
    lambda n: compare_schemes(1.0, n),
], ids=["abel-plana", "tail-sum", "image-sum", "compare-schemes"])
def test_non_integer_exponent_or_count_raises(call):
    for n in (2.5, 3.0, "3", None):
        with pytest.raises(DomainError, match="must be an integer"):
            call(n)
    assert call(np.int64(3)) == call(3)


def test_compare_schemes_names_the_scheme_of_a_non_integer_count():
    with pytest.raises(DomainError, match="scheme image-sum"):
        compare_schemes(1.0, 2.5)


def test_abel_plana_bound_holds_on_seeded_draws():
    # value +- error_bound must enclose -pi^2/(1440 L^3) at 50 digits
    rng = np.random.default_rng(2024)
    with mpmath.workdps(50):
        for L, tol in zip(10.0 ** rng.uniform(-3, 3, 200), 10.0 ** rng.uniform(-12, -3, 200)):
            res = energy_per_area_abel_plana(float(L), QuadratureSpec(float(tol)))
            truth = -mpmath.pi ** 2 / (1440 * mpmath.mpf(float(L)) ** 3)
            assert abs(mpmath.mpf(res.value) - truth) <= res.error_bound, (L, tol)


def test_energy_per_area_abel_plana():
    res = energy_per_area_abel_plana(1.0)
    assert res.value == pytest.approx(-(math.pi ** 2) / 1440.0, rel=1e-10)
    # lambda^-3 scaling
    res2 = energy_per_area_abel_plana(2.0)
    np.testing.assert_allclose(res2.value, res.value / 8.0, rtol=1e-12)
    # doubling the polarization count reproduces the electromagnetic value
    assert 2.0 * res.value == pytest.approx(-(math.pi ** 2) / 720.0, rel=1e-10)
    with pytest.raises(GeometryError):
        energy_per_area_abel_plana(-0.5)


@pytest.mark.parametrize("L", [0.1, 1.0, 10.0])
def test_scheme_cross_agreement(L):
    report = compare_schemes(L)
    assert report.max_relative_discrepancy <= 1e-8
    assert set(report.energy_per_area) == set(SchemeKind)


def test_compare_schemes_scaling():
    base = compare_schemes(1.0)
    for lam in (2.0, 10.0):
        scaled = compare_schemes(lam)
        for kind in SchemeKind:
            np.testing.assert_allclose(
                scaled.energy_per_area[kind].value,
                base.energy_per_area[kind].value / lam ** 3,
                rtol=1e-12,
            )


def test_compare_schemes_halving_separation():
    report = compare_schemes(0.5)
    target = -(math.pi ** 2) / 1440.0 * 8.0
    for kind in SchemeKind:
        np.testing.assert_allclose(report.energy_per_area[kind].value, target, rtol=1e-8)
    assert report.energy_per_area[SchemeKind.ZETA_CLOSED_FORM].error_bound == 0.0
    with pytest.raises(GeometryError):
        compare_schemes(0.0)


def test_scheme_failure_carries_identity(monkeypatch):
    def exhausted(f, iv, spec):
        raise ConvergenceError("quadrature did not reach relative tolerance")

    monkeypatch.setattr(regularization, "integrate_1d", exhausted)
    with pytest.raises(ConvergenceError, match="abel-plana"):
        compare_schemes(1.0)


class _TwoArgumentError(Exception):
    def __init__(self, reason, code):
        super().__init__(reason, code)


def test_scheme_failure_outside_package_propagates_unchanged(monkeypatch):
    def failing_image_sum(L, n_terms):
        raise _TwoArgumentError("out of memory", 12)

    monkeypatch.setattr(regularization, "energy_density_image_sum", failing_image_sum)
    with pytest.raises(_TwoArgumentError) as info:
        compare_schemes(1.0)
    assert info.value.args == ("out of memory", 12)


def test_image_sum_term_cap():
    with pytest.raises(DomainError, match="at most"):
        energy_density_image_sum(1.0, MAX_IMAGE_TERMS + 1)
    with pytest.raises(DomainError, match="scheme image-sum"):
        compare_schemes(1.0, n_terms=MAX_IMAGE_TERMS + 1)
