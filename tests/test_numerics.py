import math
import random
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest

from casimirgrav import numerics, units
from casimirgrav.cavity import SpacetimePoint
from casimirgrav.errors import ConvergenceError, DivergentSeriesError, DomainError, GeometryError
from casimirgrav.figures import FigureSpec, figure_series
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
from casimirgrav.weakfield import (PlateApparatus, WeakField, delta_energy_closed,
                                   delta_energy_quadrature)


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


# each takes ``big``, an int past the double range, as one input
PAST_THE_DOUBLE_RANGE = {
    "WeakField": (GeometryError, WeakField),
    "PlateApparatus a": (GeometryError, lambda big: PlateApparatus(big, 0.1)),
    "PlateApparatus xi0": (GeometryError, lambda big: PlateApparatus(1.0, 0.1, big)),
    "PlateApparatus alpha": (GeometryError, lambda big: PlateApparatus(1.0, 0.1, 0.0, big)),
    "SpacetimePoint z": (GeometryError, lambda big: SpacetimePoint(z=big)),
    "SeriesResult": (DomainError, lambda big: SeriesResult(big, 0.0, 1)),
    "riemann_zeta": (DomainError, riemann_zeta),
    "central_diff x": (DomainError, lambda big: central_diff(math.sin, big, 1.0)),
    "central_diff h": (DomainError, lambda big: central_diff(math.sin, 0.0, big)),
    "FigureSpec g": (DomainError, lambda big: FigureSpec(1, g=big)),
    "FigureSpec A_list": (DomainError, lambda big: FigureSpec(4, A_list=(big,))),
    "FigureSpec A_max": (DomainError, lambda big: FigureSpec(5, A_max=big)),
    "energy_like_to_si": (DomainError, units.energy_like_to_si),
    "gravity_to_natural": (DomainError, units.gravity_to_natural),
}


@pytest.mark.parametrize("big", [10**400, -10**400], ids=["10^400", "-10^400"])
@pytest.mark.parametrize("call", PAST_THE_DOUBLE_RANGE)
def test_an_int_past_the_double_range_gets_a_typed_error(call, big):
    # math.isfinite, or the int's conversion to a float, raised an untyped
    # OverflowError here, at once or later from the closed forms
    error, make = PAST_THE_DOUBLE_RANGE[call]
    with pytest.raises(error):
        result = make(big)
        if isinstance(result, PlateApparatus):
            delta_energy_closed(result, WeakField(1e-3))
        elif isinstance(result, FigureSpec):
            figure_series(result)


@pytest.mark.parametrize("dim, f, spec", [
    (1, lambda x: 1.0, QuadratureSpec()),
    (1, lambda x: x, QuadratureSpec()),
    (2, lambda x, y: 1.0, QuadratureSpec()),
    (2, lambda x, y: y, QuadratureSpec()),
    (2, lambda x, y: math.sin(50.0 * x), QuadratureSpec(1e-12)),  # splits the box
], ids=["1", "x", "1, 2 axes", "y, 2 axes", "sin(50 x), 2 axes"])
def test_int_ends_whose_sum_leaves_the_double_range_act_as_their_floats(dim, f, spec):
    # each end fits the double range but their exact sum does not: the ends
    # become doubles first, so the int ends give what their float twins give
    # (a constant integrates to 7e307; the others meet infinite nodes), never
    # an untyped OverflowError from the nodes or from a bisection
    def outcome(last):
        try:
            if dim == 1:
                return integrate_1d(f, last, spec)
            return integrate_nd(f, [Interval(0.0, 1.0), last], spec)
        except DomainError:
            return DomainError

    assert outcome(Interval(10**308, 17 * 10**307)) == outcome(Interval(1e308, 1.7e308))


def test_quadrature_spec_validated():
    with pytest.raises(DomainError):
        QuadratureSpec(relative_tolerance=0.5)
    with pytest.raises(DomainError):
        QuadratureSpec(relative_tolerance=-1e-9)


def test_integrand_nan_raises():
    with pytest.raises(DomainError):
        integrate_1d(lambda x: float("nan"), Interval(0.0, 1.0))


_FIRST, _LAST = numerics._NODES[0], numerics._NODES[-1]  # on [-1, 1], so on every axis here


@pytest.mark.parametrize("special", [
    {(0.0,): math.inf},
    {(0.0,): math.nan},
    {(_FIRST,): math.inf, (_LAST,): -math.inf},
    {(_FIRST,): -math.inf, (_LAST,): math.inf},
    {(0.0,): -math.inf, (_FIRST,): math.nan},
], ids=["inf", "nan", "inf, -inf", "-inf, inf", "-inf, nan"])
@pytest.mark.parametrize("dim", [1, 3])
def test_non_finite_integrand_raises_domain_error(special, dim):
    # a value at the given nodes, every axis at the same node (3 axes: one in the
    # centre slab, or one in each end slab); math.fsum raises OverflowError or
    # ValueError on such terms, which must surface as DomainError
    special = {xs * dim: y for xs, y in special.items()}

    def f(*xs):
        return special.get(xs, 1.0)

    with pytest.raises(DomainError, match="not finite on the box"):
        integrate_nd(f, [Interval(-1.0, 1.0)] * dim)


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
    coeffs = rng.uniform(-2.0, 2.0, size=47)  # degree 46 = 3 * 15 + 1, the Kronrod degree
    lo, hi = -1.0, 1.0
    exact = sum(
        c / (k + 1) * (hi ** (k + 1) - lo ** (k + 1)) for k, c in enumerate(coeffs)
    )
    res = integrate_1d(
        lambda x: sum(c * x ** k for k, c in enumerate(coeffs)), Interval(lo, hi)
    )
    np.testing.assert_allclose(res.value, exact, rtol=1e-13)


def _newton(p, x):
    """The root of the polynomial ``p`` (coefficients, highest degree first)
    next to ``x``, by Newton's method at the working precision."""
    x = mpmath.mpf(x)
    for _ in range(6):
        value, slope = mpmath.polyval(p, x, derivative=True)
        x -= value / slope
    return x


def _gauss_kronrod_31():
    """The 31 Gauss-Kronrod nodes on [-1, 1] in ascending order, their Kronrod
    weights and the Gauss weights of the 15 at odd positions, at 40+ digits,
    each root found by Newton's method next to the library's double.

    The Gauss nodes are the roots of P_15. The Kronrod nodes added to them are
    the roots of the Stieltjes polynomial E_16, monic, even, and orthogonal to
    x^k P_15 for k < 16; its 8 coefficients solve that linear system exactly
    in rationals. The Kronrod weights integrate P_0, P_2, ..., P_30 exactly
    (the odd P_k vanish by symmetry); the Gauss weights are
    2 / ((1 - x^2) P_15'(x)^2)."""
    legendre = [[Fraction(1)], [Fraction(1), Fraction(0)]]  # highest degree first
    for k in range(1, 15):
        up = [Fraction(2 * k + 1, k + 1) * c for c in legendre[k]] + [Fraction(0)]
        down = [Fraction(0)] * 2 + [Fraction(k, k + 1) * c for c in legendre[k - 1]]
        legendre.append([a - b for a, b in zip(up, down)])
    p15 = legendre[15][::-1]  # lowest degree first

    def moment(q, k):  # integral over [-1, 1] of P_15(x) q(x) x^k, q lowest degree first
        return sum((a * b * Fraction(2, i + j + k + 1) for i, a in enumerate(p15)
                    for j, b in enumerate(q) if (i + j + k) % 2 == 0), Fraction(0))

    rows = [[moment([0] * 2 * j + [1], k) for j in range(8)] + [-moment([0] * 16 + [1], k)]
            for k in range(1, 16, 2)]
    for c in range(8):  # Gauss-Jordan on the 8 unknown even coefficients
        pivot = next(r for r in range(c, 8) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(8):
            if r != c:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    e16 = [Fraction(0)] * 17
    e16[16] = Fraction(1)
    for j in range(8):
        e16[2 * j] = rows[j][8]
    with mpmath.workdps(50):
        def mp(q):
            return [mpmath.mpf(c.numerator) / c.denominator for c in q]

        nodes = [_newton(mp(legendre[15]) if k % 2 else mp(e16[::-1]), x)
                 for k, x in enumerate(numerics._NODES)]
        system = mpmath.matrix([[mpmath.legendre(k, x) for x in nodes] for k in range(0, 31, 2)]
                               + [[x ** k for x in nodes] for k in range(1, 31, 2)])
        kronrod = mpmath.lu_solve(system, [2] + [0] * 30)

        def gauss_weight(x):
            slope = 15 * (x * mpmath.legendre(15, x) - mpmath.legendre(14, x)) / (x * x - 1)
            return 2 / ((1 - x * x) * slope ** 2)

        return nodes, list(kronrod), [gauss_weight(x) for x in nodes[1::2]]


def test_gauss_kronrod_table_is_nearest_doubles():
    nodes, kronrod, gauss = _gauss_kronrod_31()
    assert len(numerics._NODES) == 31 and list(numerics._NODES) == sorted(numerics._NODES)
    assert len(set(map(float, nodes))) == 31  # Newton found 31 distinct roots
    assert list(numerics._NODES) == [float(x) for x in nodes]
    assert list(numerics._WEIGHTS) == [float(w) for w in kronrod]
    assert list(numerics._GAUSS_WEIGHTS) == [float(w) for w in gauss]
    with mpmath.workdps(50):
        # the double table: Kronrod exact up to degree 46 = 3 * 15 + 1 and
        # Gauss up to 29 = 2 * 15 - 1, but for the rounding of the doubles
        xs = [mpmath.mpf(x) for x in numerics._NODES]
        for weights, xs, degree in ((numerics._WEIGHTS, xs, 46),
                                    (numerics._GAUSS_WEIGHTS, xs[1::2], 29)):
            for k in range(degree + 1):
                rule = mpmath.fsum(mpmath.mpf(w) * x ** k for w, x in zip(weights, xs))
                exact = mpmath.mpf(2) / (k + 1) if k % 2 == 0 else 0
                assert abs(rule - exact) <= 2e-16, (degree, k)
            # and no further: the next even degree is off by far more than rounding
            k = degree + 1 + degree % 2
            rule = mpmath.fsum(mpmath.mpf(w) * x ** k for w, x in zip(weights, xs))
            assert abs(rule - mpmath.mpf(2) / (k + 1)) > 1e-9, (degree, k)


@pytest.mark.parametrize("j, k", [(j, k) for j in (0, 1, 2, 29, 30, 45, 46)
                                  for k in (0, 3, 28, 29, 44, 46)])
def test_tensor_rule_integrates_bivariate_monomials_exactly(j, k):
    # through the kernel's slab sums on a square: the Kronrod estimate is exact
    # for x^j y^k up to degree 46 on each axis, and the Gauss estimate, from the
    # nodes at odd positions on both axes, up to 29, but for rounding: a node
    # rounded by u relative is raised to the power j + k (over every
    # j, k <= 46 the worst error is 0.25 of this tolerance)
    kronrod, gauss, gross, scale = numerics._box_sums(lambda x, y: x ** j * y ** k,
                                                      ((-1.0, 1.0), (-1.0, 1.0)))
    exact = (2.0 / (j + 1) if j % 2 == 0 else 0.0) * (2.0 / (k + 1) if k % 2 == 0 else 0.0)
    tolerance = (j + k + 2) * numerics._EPS * gross
    assert scale == 1.0
    assert abs(kronrod - exact) <= tolerance
    if j <= 29 and k <= 29:
        assert abs(gauss - exact) <= tolerance
    elif exact:
        assert abs(gauss - exact) > 1000 * tolerance  # past its degree, far from exact


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
    # The first box splits into four quadrant panels that tie on error
    # (0x1.3e71c795fc800p-9, four times the error of any of their half-boxes):
    # the oldest splits first, so the quadrants' half-boxes are made in the
    # order the quadrants were. Splitting the newest of equal errors first
    # reverses that order.
    sums = []
    box_sums = numerics._box_sums

    def spy(f, box):
        sums.append((box, box_sums(f, box)))
        return sums[-1][1]

    monkeypatch.setattr(numerics, "_box_sums", spy)
    res = integrate_nd(lambda x, y: 1.0 / (1e-3 + x * x + y * y), [Interval(-1.0, 1.0)] * 2,
                       QuadratureSpec(1e-6))
    assert res.value.hex() == "0x1.6652df933804ep+4"
    assert res.error_bound.hex() == "0x1.14c987c896fcap-22"
    assert res.terms_used == 37 * 31 ** 2

    def quadrants(side):
        """Quadrants, as (x >= 0, y >= 0), in the order of their first box of this side."""
        return list(dict.fromkeys(tuple(lo >= 0.0 for lo, _ in box) for box, _ in sums
                                  if all(hi - lo == side for lo, hi in box)))

    errors = {abs(kronrod - gauss) for box, (kronrod, gauss, _, _) in sums
              if all(hi - lo == 1.0 for lo, hi in box)}
    assert [e.hex() for e in errors] == ["0x1.3e71c795fc800p-9"]
    made = quadrants(1.0)
    assert made == [(False, False), (False, True), (True, False), (True, True)]
    assert quadrants(0.5) == made


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
    # exact on the first box, so one panel: 31^3 nodes
    res = integrate_nd(lambda x, y, z: x * y * z + 1.0, [Interval(0.0, 1.0)] * 3)
    assert res.value == pytest.approx(1.125, rel=1e-14)
    assert res.terms_used == 31 ** 3


def test_abel_plana_evaluations():
    # the two initial panels of [0, 1), 31 nodes each
    assert abel_plana_regularized_power_sum(3).terms_used == 2 * 31


@pytest.mark.parametrize("f, box, exact", [
    (lambda x: 1e-310 * (x + 0.3), [Interval(0.0, 1.0)],
     lambda: mpmath.mpf(1e-310) * (mpmath.mpf(0.5) + mpmath.mpf(0.3))),
    (lambda x: 3e-320 * x * x, [Interval(0.1, 1.0)],
     lambda: mpmath.mpf(3e-320) * (1 - mpmath.mpf(0.1) ** 3) / 3),
    # 2 and 3 axes: the per-box part of the underflow term is 31^-d per evaluation
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
    """``_box_sums`` written out: every node from its axis's ends. On one axis,
    math.fsum of w f, of w f at the odd positions and of w |f|. On more, for
    each node of the first axis, a sum in order of w f over the other axes in
    :func:`itertools.product` order, and one of w f over their odd positions,
    and math.fsum of those slab sums times the first axis's weights."""
    weights, gauss_weights = numerics._WEIGHTS, numerics._GAUSS_WEIGHTS
    axes = []
    scale = 1.0
    for lo, hi in box:
        lo, hi = float(lo), float(hi)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        axes.append([mid + half * x for x in numerics._NODES])
        scale *= half
    if len(box) == 1:
        ys = [f(x) for x in axes[0]]
        terms = [w * y for w, y in zip(weights, ys)]
        kronrod = math.fsum(terms)
        gauss = math.fsum([w * y for w, y in zip(gauss_weights, ys[1::2])])
        gross = math.fsum([abs(t) for t in terms])
    else:
        k_terms, g_terms, a_terms = [], [], []
        rest = len(box) - 1
        for i, x in enumerate(axes[0]):
            total = gauss = absolute = 0.0
            for ix, xs in zip(product(range(31), repeat=rest), product(*axes[1:])):
                y = f(x, *xs)
                wy = math.prod([weights[k] for k in ix]) * y
                total += wy
                absolute += abs(wy)
                if all(k % 2 for k in ix):
                    gauss += math.prod([gauss_weights[k // 2] for k in ix]) * y
            k_terms.append(weights[i] * total)
            a_terms.append(weights[i] * absolute)
            if i % 2:
                g_terms.append(gauss_weights[i // 2] * gauss)
        kronrod, gauss, gross = math.fsum(k_terms), math.fsum(g_terms), math.fsum(a_terms)
    return scale * kronrod, scale * gauss, gross * scale, scale


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
        assert _hex(numerics._box_sums(f, box)) == want  # every axis computed afresh
        assert _hex(numerics._box_sums(f, box)) == want  # every axis from the cache


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
        assert _hex(numerics._box_sums(f, first)) == want  # cold
        assert _hex(numerics._box_sums(f, second)) == want  # warm, from the twin's entry


def test_axis_node_cache_is_bounded():
    size = numerics._axis_nodes.cache_info().maxsize
    assert size is not None
    numerics._axis_nodes.cache_clear()
    for k in range(size + 10):
        integrate_nd(lambda x: x, [Interval(k, k + 1.0)])
    assert numerics._axis_nodes.cache_info().currsize == size


def test_integrand_zero_at_every_node_has_bound_zero():
    assert integrate_nd(lambda x, y: 0.0, [Interval(0.0, 1.0)] * 2) == SeriesResult(0.0, 0.0, 961)


def test_delta_energy_quadrature_evaluations():
    app = PlateApparatus(1.0, 0.1, 0.5, 0.3, 2)
    # one 1-axis integral of a linear integrand: one panel
    assert delta_energy_quadrature(app, WeakField(1e-3)).terms_used == 31


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
    # every w f is finite, their sum is not: math.fsum raises OverflowError
    lambda: integrate_nd(lambda x: 1.7e308, [Interval(-1.0, 1.0)]),
    lambda: integrate_nd(lambda x, y, z: 1.7e308, [Interval(-1.0, 1.0)] * 3),
])
def test_integral_past_double_range_raises_before_splitting(integrate, monkeypatch):
    # the box volume or the integral overflows although every integrand value
    # is finite
    boxes = []
    box_sums = numerics._box_sums

    def spy(f, box):
        boxes.append(box)
        return box_sums(f, box)

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
    # ones included, and fsum rounds their sum correctly; the 64 image-sum
    # lengths that the regulator-scan benchmark draws are pinned at p = 4
    scale = -1.0 / (16.0 * math.pi ** 2)
    cases = [(p, n) for p in (1.0001, math.pi, 4.0, 12.0)
             for n in (1, 2, 9741, 9742, 10**4, 10**5, 10**6)]
    cases += [(4.0, round(10 ** (2 + 3 * (k + 0.5) / 64))) for k in range(64)]
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
