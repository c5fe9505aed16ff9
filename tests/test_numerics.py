import math
import random
from itertools import product

import mpmath
import numpy as np
import pytest

from casimirgrav import numerics
from casimirgrav.errors import ConvergenceError, DivergentSeriesError, DomainError
from casimirgrav.numerics import (
    Interval,
    QuadratureSpec,
    SeriesResult,
    central_diff,
    integrate_1d,
    integrate_nd,
    relative_discrepancy,
    tail_bounded_power_sum,
)
from casimirgrav.regularization import abel_plana_regularized_power_sum, riemann_zeta
from casimirgrav.weakfield import PlateApparatus, WeakField, delta_energy_quadrature


def test_integrate_polynomial_exact():
    res = integrate_1d(lambda x: x * x, Interval(0.0, 1.0))
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-16)


def test_integrate_sin():
    res = integrate_1d(math.sin, Interval(0.0, math.pi))
    assert abs(res.value - 2.0) <= 1e-9
    assert abs(res.value - 2.0) <= max(res.error_bound, 1e-14)


def test_semi_infinite_bose_integral():
    # int_0^inf 2 t^3/(e^{2 pi t}-1) dt = 2 Gamma(4) zeta(4) / (2 pi)^4 = 1/120
    def f(t):
        w = 2.0 * math.pi * t
        return 2.0 * t ** 3 / math.expm1(w) if w < 700.0 else 0.0

    res = integrate_1d(f, Interval(0.0, math.inf))
    assert res.value == pytest.approx(1.0 / 120.0, rel=1e-9)


@pytest.mark.parametrize("rate", [1e-2, 1.0, 2.0 * math.pi, 1e2])
@pytest.mark.parametrize("lo", [0.0, -3.0, 5.0])
def test_semi_infinite_exponential_needs_no_decay_hint(rate, lo):
    # int_lo^inf e^{-rate t} dt = e^{-rate lo} / rate, whatever the rate
    res = integrate_1d(lambda t: math.exp(-rate * t), Interval(lo, math.inf))
    exact = mpmath.exp(-mpmath.mpf(rate) * lo) / rate
    err = abs(mpmath.mpf(res.value) - exact)
    assert err <= QuadratureSpec().relative_tolerance * exact
    assert err <= res.error_bound


def test_interval_ordering_validated():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError, match="lower endpoint must be finite"):
        Interval(-math.inf, 0.0)


@pytest.mark.parametrize("lo, hi", [(-10**400, 0), (0, 10**400), (-10**400, math.inf),
                                    (10**5000, 0)],
                         ids=["-10^400, 0", "0, 10^400", "-10^400, inf", "10^5000, 0"])
def test_interval_refuses_an_int_end_past_the_double_range(lo, hi):
    # math.isinf raised OverflowError on such an end, and the quadrature too;
    # formatting 10**5000 in a message raises ValueError
    with pytest.raises(DomainError, match="ends must lie in the double range"):
        Interval(lo, hi)


def test_quadrature_spec_validated():
    with pytest.raises(DomainError):
        QuadratureSpec(relative_tolerance=0.5)
    with pytest.raises(DomainError):
        QuadratureSpec(relative_tolerance=-1e-9)


def test_integrand_nan_raises():
    with pytest.raises(DomainError):
        integrate_1d(lambda x: float("nan"), Interval(0.0, 1.0))


def test_nonconvergence_raises():
    # an interior inverse-square-root singularity exhausts the 40 splits
    with pytest.raises(ConvergenceError, match="within 40 subdivisions"):
        integrate_1d(lambda x: abs(x - 1.0 / 3.0) ** -0.5, Interval(0.0, 1.0))


def test_quadrature_linearity():
    spec = QuadratureSpec()
    iv = Interval(0.0, 2.0)
    a, b = 2.5, -1.3
    combined = integrate_1d(lambda x: a * math.sin(x) + b * math.exp(-x), iv, spec)
    parts = a * integrate_1d(math.sin, iv, spec).value + b * integrate_1d(
        lambda x: math.exp(-x), iv, spec
    ).value
    assert abs(combined.value - parts) <= 2.0 * spec.relative_tolerance * abs(parts)


def test_polynomial_exactness_up_to_rule_degree():
    rng = np.random.default_rng(7)
    coeffs = rng.uniform(-2.0, 2.0, size=32)  # degree 31 = 2 * 16 - 1
    lo, hi = -1.0, 1.0
    exact = sum(
        c / (k + 1) * (hi ** (k + 1) - lo ** (k + 1)) for k, c in enumerate(coeffs)
    )
    res = integrate_1d(
        lambda x: sum(c * x ** k for k, c in enumerate(coeffs)), Interval(lo, hi)
    )
    np.testing.assert_allclose(res.value, exact, rtol=1e-13)


def _legendre_16_root(x):
    """The root of P_16 next to ``x`` by Newton's method at 40 digits, and its
    Gauss weight 2 / ((1 - x^2) P_16'(x)^2)."""
    def slope(x):
        return 16 * (x * mpmath.legendre(16, x) - mpmath.legendre(15, x)) / (x * x - 1)

    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        for _ in range(4):
            x -= mpmath.legendre(16, x) / slope(x)
        return x, 2 / ((1 - x * x) * slope(x) ** 2)


def test_gauss_legendre_table_is_nearest_doubles():
    nodes, weights = numerics._NODES, numerics._tensor_weights(1)
    assert len(nodes) == 16 and list(nodes) == sorted(nodes)
    for x, w in zip(nodes, weights):
        root, weight = _legendre_16_root(x)
        assert x == float(root) and w == float(weight), (x, w)


def test_tensor_rule_integrates_bivariate_monomials_exactly():
    nodes, weights = numerics._NODES, numerics._tensor_weights(2)
    with mpmath.workdps(40):
        powers = [[mpmath.mpf(x) ** j for j in range(32)] for x in nodes]
        cells = [(mpmath.mpf(w), px, py)
                 for w, (px, py) in zip(weights, product(powers, repeat=2))]
        exact = [mpmath.mpf(2) / (j + 1) if j % 2 == 0 else 0 for j in range(32)]
        for j, k in product(range(32), repeat=2):
            rule = mpmath.fsum(w * px[j] * py[k] for w, px, py in cells)
            # only the rounding of the double nodes and weights: 8.5e-17 at worst
            assert abs(rule - exact[j] * exact[k]) <= 2e-16, (j, k)


def test_integrate_nd_volume():
    res = integrate_nd(lambda x, y: 1.0, [Interval(0.0, 1.0), Interval(0.0, 1.0)])
    assert res.value == pytest.approx(1.0, abs=1e-15)


def test_integrate_nd_odd_symmetry():
    res = integrate_nd(lambda x, y: x * y, [Interval(-1.0, 1.0), Interval(-1.0, 1.0)])
    assert abs(res.value) <= 1e-14


def test_integrate_nd_hand_integrated():
    res = integrate_nd(lambda x, y: x + y, [Interval(0.0, 1.0), Interval(0.0, 2.0)])
    assert res.value == pytest.approx(3.0, rel=1e-12)


def test_integrate_nd_three_axes():
    box = [Interval(0.0, 1.0)] * 3
    res = integrate_nd(lambda x, y, z: x * y * z, box)
    assert res.value == pytest.approx(0.125, rel=1e-12)


def test_panels_that_tie_on_error_split_oldest_first(monkeypatch):
    # The quadrant panels of this integrand tie on error; the two with x > 0
    # (0x1.1b2f9b8304000p-10) differ in the last bit of their values: ...cbb3p+2
    # for y < 0, made first, and ...cbb4p+2 for y > 0. The oldest splits first;
    # breaking the tie on the value splits the y > 0 quadrant first and gives
    # 0x1.6652dfbcf923ep+4.
    boxes = []
    box_sums = numerics._box_sums

    def spy(f, box, *rule):
        boxes.append(box)
        return box_sums(f, box, *rule)

    monkeypatch.setattr(numerics, "_box_sums", spy)
    res = integrate_nd(lambda x, y: 1.0 / (1e-3 + x * x + y * y), [Interval(-1.0, 1.0)] * 2,
                       QuadratureSpec(1e-6))
    assert res.value.hex() == "0x1.6652dfbcf923fp+4"
    assert res.error_bound.hex() == "0x1.6f194e229c5bfp-16"
    assert res.terms_used == 34048

    def quadrants(side):
        """Quadrants, as (x >= 0, y >= 0), in the order of their first box of this side."""
        return list(dict.fromkeys(tuple(lo >= 0.0 for lo, _ in box) for box in boxes
                                  if all(hi - lo == side for lo, hi in box)))

    # a quadrant's panel is made when its halves (side 1/2) are evaluated, and
    # split when their halves (side 1/4) are
    made = quadrants(0.5)
    assert made == [(False, False), (False, True), (True, False), (True, True)]
    assert quadrants(0.25) == made


def test_integrate_nd_rejects_bad_boxes():
    with pytest.raises(DomainError):
        integrate_nd(lambda *xs: 1.0, [Interval(0.0, 1.0)] * 4)
    with pytest.raises(DomainError):
        integrate_nd(lambda x: 1.0, [Interval(0.0, math.inf)])
    with pytest.raises(DomainError):
        integrate_nd(lambda: 1.0, [])


def _counted(f):
    """``f`` plus a list whose length is the number of calls made to it."""
    calls = []

    def counted(*xs):
        calls.append(xs)
        return f(*xs)

    return counted, calls


def _bose(t):
    w = 2.0 * math.pi * t
    return 2.0 * t ** 3 / math.expm1(w) if w < 700.0 else 0.0


@pytest.mark.parametrize("f, integrate", [
    (math.sqrt, lambda f: integrate_1d(f, Interval(0.0, 1.0))),
    (_bose, lambda f: integrate_1d(f, Interval(0.0, math.inf))),
    (lambda x, y: math.exp(-x * x - y * y),
     lambda f: integrate_nd(f, [Interval(-3.0, 3.0)] * 2)),
    (lambda x, y, z: math.exp(-x * x - y * y - z * z),
     lambda f: integrate_nd(f, [Interval(-3.0, 3.0)] * 3)),
])
def test_terms_used_counts_every_evaluation(f, integrate):
    counted, calls = _counted(f)
    res = integrate(counted)
    assert res.terms_used == len(calls)
    assert len(set(calls)) == len(calls)  # no node, so no box, is evaluated twice


def test_integrate_nd_bilinear_needs_one_panel():
    # exact on the first box: the box and its 8 half-boxes, 16^3 nodes each
    res = integrate_nd(lambda x, y, z: x * y * z + 1.0, [Interval(0.0, 1.0)] * 3)
    assert res.value == pytest.approx(1.125, rel=1e-14)
    assert res.terms_used == 9 * 16 ** 3


def test_abel_plana_evaluations():
    # the two initial panels of [0, 1) and their halves, 16 nodes each
    assert abel_plana_regularized_power_sum(3).terms_used == 2 * 3 * 16


@pytest.mark.parametrize("f, box, exact", [
    (lambda x: 1e-310 * (x + 0.3), [Interval(0.0, 1.0)],
     lambda: mpmath.mpf(1e-310) * (mpmath.mpf(0.5) + mpmath.mpf(0.3))),
    (lambda x: 3e-320 * x * x, [Interval(0.1, 1.0)],
     lambda: mpmath.mpf(3e-320) * (1 - mpmath.mpf(0.1) ** 3) / 3),
    # 2 and 3 axes: the per-box part of the underflow term is 16^-d per evaluation
    (lambda x, y: 1e-310 * (x + 2.0 * y + 0.3), [Interval(0.0, 1.0), Interval(0.0, 0.5)],
     lambda: mpmath.mpf(1e-310) * (mpmath.mpf(0.25) + mpmath.mpf(0.25)
                                   + mpmath.mpf(0.3) * mpmath.mpf(0.5))),
    (lambda x, y, z: 1e-310 * x * y * z, [Interval(0.1, 1.0)] * 3,
     lambda: mpmath.mpf(1e-310) * ((1 - mpmath.mpf(0.1) ** 2) / 2) ** 3),
    # deep below the normal range the two estimates never agree to the bit;
    # refinement stops once their difference is within the underflow term
    (lambda x, y, z: 3e-320 * x * y * z, [Interval(0.1, 1.0)] * 3,
     lambda: mpmath.mpf(3e-320) * ((1 - mpmath.mpf(0.1) ** 2) / 2) ** 3),
    (lambda x, y, z: 3e-320 * (x + y + z), [Interval(0.1, 1.0)] * 3,
     lambda: mpmath.mpf(3e-320) * 3 * (1 - mpmath.mpf(0.1) ** 2) / 2
     * (1 - mpmath.mpf(0.1)) ** 2),
], ids=["1e-310 (x + 0.3)", "3e-320 x^2", "1e-310 (x + 2 y + 0.3)", "1e-310 x y z",
        "3e-320 x y z", "3e-320 (x + y + z)"])
def test_subnormal_integral_bound_holds(f, box, exact):
    # 64 u times a subnormal quadrature of |f| underflows to 0; the
    # gradual-underflow term keeps the bound positive and enclosing, and
    # accepts as the rounding-noise test does in the normal range
    res = integrate_nd(f, box)
    with mpmath.workdps(50):
        assert 0.0 < abs(mpmath.mpf(res.value) - exact()) <= res.error_bound


def _literal_box_sums(f, box):
    """``_box_sums`` written out: every node from its axis's ends, and the sums
    of w f and w |f| over :func:`itertools.product`."""
    nodes, weights = numerics._NODES, numerics._tensor_weights(len(box))
    axes = []
    scale = 1.0
    for lo, hi in box:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        axes.append([mid + half * x for x in nodes])
        scale *= half
    total = 0.0
    gross = 0.0
    for w, xs in zip(weights, product(*axes)):
        y = f(*xs)
        total += w * y
        gross += w * abs(y)
    return scale * total, gross * scale, scale


def _box_sums(f, box):
    return numerics._box_sums(f, box, numerics._tensor_weights(len(box)))


def _hex(sums):
    return [x.hex() for x in sums]


_KERNEL_INTEGRANDS = {
    "-0.0": lambda *xs: -0.0,
    "c prod(x) - d": lambda *xs: 3.7 * math.prod(xs) - 11.0,
    "1e-310 (sum(x) + 0.3)": lambda *xs: 1e-310 * (sum(xs) + 0.3),
    "cos(3 sum(x)) / 7": lambda *xs: math.cos(3.0 * sum(xs)) / 7.0,
}


@pytest.mark.parametrize("name", _KERNEL_INTEGRANDS)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_box_sums_is_the_literal_loop_bit_for_bit(name, dim):
    f = _KERNEL_INTEGRANDS[name]
    rng = random.Random(f"box-sums:{name}:{dim}")
    for _ in range(4):
        box = []
        for _ in range(dim):
            lo = rng.uniform(-5.0, 5.0)
            box.append((lo, lo + 10.0 ** rng.uniform(-3.0, 1.0)))
        box = tuple(box)
        want = _hex(_literal_box_sums(f, box))
        numerics._axis_nodes.cache_clear()
        assert _hex(_box_sums(f, box)) == want  # every axis computed afresh
        assert _hex(_box_sums(f, box)) == want  # every axis from the cache


@pytest.mark.parametrize("box, twin", [
    (((-0.0, 0.5),), ((0.0, 0.5),)),
    (((-1.0, -0.0),), ((-1.0, 0.0),)),
    (((0, 3),), ((0.0, 3.0),)),
    (((-2, 7), (-0.0, 1)), ((-2.0, 7.0), (0.0, 1.0))),
])
def test_axis_ends_equal_by_eq_give_the_same_bits_cold_or_warm(box, twin):
    f = _KERNEL_INTEGRANDS["cos(3 sum(x)) / 7"]
    want = _hex(_literal_box_sums(f, box))
    assert _hex(_literal_box_sums(f, twin)) == want
    for first, second in ((box, twin), (twin, box)):
        numerics._axis_nodes.cache_clear()
        assert _hex(_box_sums(f, first)) == want  # cold
        assert _hex(_box_sums(f, second)) == want  # warm, from the twin's entry


def test_axis_node_cache_is_bounded():
    size = numerics._axis_nodes.cache_info().maxsize
    assert size is not None
    numerics._axis_nodes.cache_clear()
    for k in range(size + 10):
        integrate_nd(lambda x: x, [Interval(k, k + 1.0)])
    assert numerics._axis_nodes.cache_info().currsize == size


def test_integrand_zero_at_every_node_has_bound_zero():
    assert integrate_nd(lambda x, y: 0.0, [Interval(0.0, 1.0)] * 2) == SeriesResult(0.0, 0.0, 1280)


def test_delta_energy_quadrature_evaluations():
    app = PlateApparatus(1.0, 0.1, 0.5, 0.3, 2)
    # one 1-axis integral of a linear integrand: one panel of 3 boxes
    assert delta_energy_quadrature(app, WeakField(1e-3)).terms_used == 3 * 16


@pytest.mark.parametrize("f, box, exact", [
    (lambda x, y: math.exp(-x * x - y * y), [Interval(-3.0, 3.0)] * 2,
     math.pi * math.erf(3.0) ** 2),
    (lambda x, y, z: math.exp(x + y + z), [Interval(0.0, 1.0)] * 3, (math.e - 1.0) ** 3),
])
def test_integrate_nd_closed_forms(f, box, exact):
    assert integrate_nd(f, box).value == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("integrate", [
    lambda: delta_energy_quadrature(PlateApparatus(1e200, 0.1, 0.5), WeakField(1.0)),
    lambda: integrate_nd(lambda x, y: x, [Interval(-1e200, 1e200)] * 2),
    lambda: integrate_nd(lambda x, y: 1.0, [Interval(-1e155, 1e155)] * 2),
])
def test_integral_past_double_range_raises_before_splitting(integrate, monkeypatch):
    # the box volume overflows although every integrand value is finite
    boxes = []
    box_sums = numerics._box_sums

    def spy(f, box, *rule):
        boxes.append(box)
        return box_sums(f, box, *rule)

    monkeypatch.setattr(numerics, "_box_sums", spy)
    with pytest.raises(DomainError, match="not finite on the box"):
        integrate()
    assert len(boxes) == 1  # the first single-box estimate; nothing refined or split


def test_series_result_scaled():
    res = SeriesResult(2.0, 0.5, 7)
    assert res.scaled(-3.0) == SeriesResult(-6.0, 1.5, 7)
    assert res.scaled(0.0) == SeriesResult(0.0, 0.0, 7)
    assert res.scaled(1.0) == res


@pytest.mark.parametrize("value, bound, terms_used", [
    (math.nan, 0.0, 1), (math.inf, 0.0, 1), (-math.inf, 0.0, 1), (1.0, math.inf, 1),
    (1.0, math.nan, 1), (1.0, 0.0, 2.5), (1.0, 0.0, math.nan), (1.0, -0.5, 1), (1.0, 0.0, 0),
], ids=["nan-0.0", "inf-0.0", "-inf-0.0", "1.0-inf", "1.0-nan", "terms-2.5", "terms-nan",
        "bound-negative", "terms-0"])
def test_series_result_must_be_finite(value, bound, terms_used):
    # a finite value, a finite non-negative bound and a positive integer count of work
    with pytest.raises(DomainError):
        SeriesResult(value, bound, terms_used)


def test_series_result_combination_past_double_range_raises():
    with pytest.raises(DomainError):
        SeriesResult(1e300, 1.0, 1).scaled(1e10)
    with pytest.raises(DomainError):
        SeriesResult(1.0, 1e300, 1).scaled(-1e10)


def test_relative_discrepancy():
    assert relative_discrepancy([2.0, -1.0]) == 1.5
    assert relative_discrepancy([4.0, 5.0, 3.0]) == 0.4
    assert relative_discrepancy([0.0, -0.0, 0.0]) == 0.0


@pytest.mark.parametrize("values", [[], [math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf]])
def test_relative_discrepancy_rejects_empty_and_non_finite(values):
    # [nan, 1.0] read 0.0 (perfect agreement) and [inf, 1.0] read nan
    with pytest.raises(DomainError, match="one or more finite values"):
        relative_discrepancy(values)


def test_relative_discrepancy_is_the_pairwise_formula_bit_for_bit():
    rng = random.Random(7)
    draws = [[1.7e308, -1.7e308]]  # the spread overflows in both formulas
    for _ in range(2000):
        base = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 307.0)
        draws.append([rng.choice((base * (1.0 + rng.uniform(-1e-12, 1e-12)), -base, 0.0, -0.0,
                                  rng.uniform(-2.0, 2.0) * base))
                      for _ in range(rng.randint(1, 6))])
    for values in draws:
        scale = max(abs(v) for v in values)
        spread = max(abs(a - b) for a in values for b in values)
        want = spread / scale if scale > 0 else 0.0
        assert relative_discrepancy(values).hex() == want.hex(), values


def test_central_diff_quadratic_exact():
    for h in (1.0, 0.1, 1e-4):
        assert central_diff(lambda x: x * x, 3.0, h) == pytest.approx(6.0, rel=1e-10)


def test_central_diff_constant():
    assert central_diff(lambda x: 4.2, 0.7, 1e-3) == 0.0


def test_central_diff_cubic_truncation():
    # truncation term h^2 f'''/6 = h^2 for f = x^3
    err = abs(central_diff(lambda x: x ** 3, 1.0, 1e-4) - 3.0)
    assert err == pytest.approx(1e-8, rel=1e-3)


def test_central_diff_observed_order_two():
    f = lambda x: x ** 3 - 2.0 * x ** 2 + 0.5 * x
    h = 1e-3
    e1 = abs(central_diff(f, 1.3, h) - (3 * 1.3 ** 2 - 4 * 1.3 + 0.5))
    e2 = abs(central_diff(f, 1.3, h / 2) - (3 * 1.3 ** 2 - 4 * 1.3 + 0.5))
    assert abs(math.log2(e1 / e2) - 2.0) < 0.05


def test_central_diff_domain_error():
    with pytest.raises(DomainError):
        central_diff(lambda x: math.sqrt(x) if x >= 0 else float("nan"), 0.0, 0.5)
    with pytest.raises(DomainError):
        central_diff(lambda x: x, 0.0, 0.0)


def test_tail_sum_zeta4():
    target = math.pi ** 4 / 90.0
    for n in (10, 100, 1000):
        res = tail_bounded_power_sum(4.0, 1.0, n)
        assert abs(res.value - target) <= res.error_bound
    res = tail_bounded_power_sum(4.0, 1.0, 100)
    assert res.error_bound == pytest.approx(1.0 / (3.0 * 100 ** 3))


def test_tail_sum_zeta2():
    res = tail_bounded_power_sum(2.0, 1.0, 5000)
    assert abs(res.value - math.pi ** 2 / 6.0) <= res.error_bound


def test_tail_sum_zero_scale():
    res = tail_bounded_power_sum(4.0, 0.0, 17)
    assert res.value == 0.0
    assert res.error_bound == 0.0
    assert res.terms_used == 17


def test_tail_sum_bound_past_double_range_raises():
    # n_terms^(p - 1) overflows; the message names both inputs
    with pytest.raises(DomainError, match=r"p = 60\.0, n_terms = 1000000"):
        tail_bounded_power_sum(60.0, 1.0, 10**6)
    with pytest.raises(DomainError, match=r"p = 400\.0, n_terms = 10\b"):
        tail_bounded_power_sum(400.0, 1.0, 10)


def test_tail_sum_nan_input_is_named():
    with pytest.raises(DomainError, match=r"got p = nan, scale = 1\.0"):
        tail_bounded_power_sum(math.nan, 1.0, 10)
    with pytest.raises(DomainError, match=r"got p = 2\.0, scale = nan"):
        tail_bounded_power_sum(2.0, math.nan, 10)
    assert tail_bounded_power_sum(math.inf, 1.0, 10) == SeriesResult(1.0, 0.0, 10)


def test_tail_sum_divergent():
    with pytest.raises(DivergentSeriesError):
        tail_bounded_power_sum(1.0, 1.0, 10)
    with pytest.raises(DivergentSeriesError):
        tail_bounded_power_sum(0.5, 1.0, 10)


def _zeta_from_a_generator(s):
    """``riemann_zeta`` with its partial sum written as a generator of ``k ** -s``."""
    n = 50
    total = math.fsum(k ** -s for k in range(1, n + 1))
    total += n ** (1.0 - s) / (s - 1.0) - 0.5 * n ** -s
    pochhammer = s
    for k, b2k in enumerate((1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0), start=1):
        total += b2k / math.factorial(2 * k) * pochhammer * n ** (-s - 2 * k + 1)
        pochhammer *= (s + 2 * k - 1) * (s + 2 * k)
    return total


def test_tail_sum_is_the_fsum_of_the_same_terms():
    # the terms are exactly n ** -p, subnormal (p = 1024.5) and zero (p = inf)
    # ones included, and fsum rounds their sum correctly
    scale = -1.0 / (16.0 * math.pi ** 2)
    cases = [(p, n) for p in (1.0001, math.pi, 4.0, 12.0)
             for n in (1, 2, 9741, 9742, 10**4, 10**5, 10**6)]
    for p, n in cases + [(300.0, 2), (1024.5, 2), (math.inf, 2)]:
        want = scale * math.fsum(k ** -p for k in range(1, n + 1))
        assert tail_bounded_power_sum(p, scale, n).value.hex() == want.hex(), (p, n)
    for s in [1.0 + k / 16.0 for k in range(1, 848)]:
        assert riemann_zeta(s).hex() == _zeta_from_a_generator(s).hex(), s


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 5.0])
@pytest.mark.parametrize("n", [10, 100, 1000])
def test_tail_bound_honored_by_refinement(p, n):
    coarse = tail_bounded_power_sum(p, 1.0, n)
    fine = tail_bounded_power_sum(p, 1.0, 2 * n)
    assert abs(coarse.value - fine.value) <= coarse.error_bound
