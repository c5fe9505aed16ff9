"""Finite-output contract: finite, in-domain input gives a finite result or a
typed :class:`CasimirError`, never inf or NaN, over the whole double range;
the closed forms of the weak-field shift and the figure 4 and 5 products
never return a subnormal either."""

import math
import sys

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from casimirgrav.cavity import L_MAX, L_MIN, CavityConfig, SpacetimePoint
from casimirgrav.errors import CasimirError, DomainError, GeometryError
from casimirgrav.figures import FigureSpec, figure_series
from casimirgrav.regularization import compare_schemes, riemann_zeta
from casimirgrav.weakfield import (
    PlateApparatus,
    WeakField,
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

# deterministic: the same examples on every run, and no example database
_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
separation = st.floats(min_value=L_MIN, max_value=L_MAX)


def _finite_or_typed_error(compute):
    """The value of ``compute()`` if it is finite; ``None`` if it raised a
    package error. Any other exception, or a non-finite value, fails."""
    try:
        value = compute()
    except CasimirError:
        return None
    assert math.isfinite(value), value
    return value


@_SETTINGS
@given(finite)
def test_zeta_is_finite_or_rejected(s):
    value = _finite_or_typed_error(lambda: riemann_zeta(s))
    assert (value is None) == (s <= 1.0)
    if value is not None:
        assert value >= 1.0


def _normal_or_typed_error(compute, *factors):
    """As :func:`_finite_or_typed_error`, and the value is a normal double, or
    a zero that a zero among ``factors`` explains."""
    value = _finite_or_typed_error(compute)
    if value is not None:
        assert abs(value) >= sys.float_info.min or (value == 0 and not all(factors)), value


@_SETTINGS
@given(positive, separation, finite, finite, non_negative, st.sampled_from([1, 2]))
def test_energy_shift_and_force_chain_are_finite_or_rejected(a, L, xi0, alpha, g, pol):
    app = PlateApparatus(a, L, xi0, alpha, pol)
    field = WeakField(g)
    cfg = CavityConfig(L, pol)
    _normal_or_typed_error(lambda: delta_energy_closed(app, field), g, xi0)
    for force in (delta_force_per_area, isotropic_force_per_area, fermi_force_per_area,
                  fractional_correction):
        _normal_or_typed_error(lambda: force(field, cfg), g)


@_SETTINGS
@given(finite)
@example(-1e-20)  # rounds up to 2 pi under % 2 pi
@example(-5e-324)
@example(2.0 * math.pi + 0.25)
def test_apparatus_tilt_is_stored_as_given(alpha):
    assert PlateApparatus(1.0, 0.01, 0.0, alpha).alpha.hex() == alpha.hex()


# cos is even and libm reduces its argument exactly, so the shift is even to the bit
@_SETTINGS
@given(finite)
@example(math.pi / 2)
def test_closed_energy_shift_is_even_in_the_tilt(alpha):
    field = WeakField(1e-3)
    left, right = (delta_energy_closed(PlateApparatus(1.0, 0.01, 0.001, tilt), field)
                   for tilt in (alpha, -alpha))
    assert left.hex() == right.hex()


@_SETTINGS
@given(non_negative, finite, finite, finite, finite)
@example(1.0, 0.0, 1e200, 0.0, 1e200)  # g z x overflows; z^2 - x^2 is inf - inf
@example(1e300, 0.0, 0.0, 0.0, 1e300)  # g z overflows
def test_weak_field_tensors_are_finite_or_rejected(g, t, x, y, z):
    field = WeakField(g)
    p = SpacetimePoint(t, x, y, z)
    for tensor in (lambda: h_isotropic(field, p), lambda: h_fermi(field, p),
                   lambda: gauge_field(field)(p)):
        try:
            cells = tensor().ravel().tolist()
        except DomainError:
            continue
        assert all(map(math.isfinite, cells)), cells


def _assert_bounded_and_finite(res):
    assert math.isfinite(res.value) and math.isfinite(res.error_bound), res


# Only the typed input errors may escape: ConvergenceError or an untyped
# exception on finite, in-domain input fails these tests.
@_SETTINGS
@given(positive, separation, finite, finite, non_negative, st.sampled_from([1, 2]))
def test_energy_shift_quadrature_is_finite_or_rejected(a, L, xi0, alpha, g, pol):
    try:
        res = delta_energy_quadrature(PlateApparatus(a, L, xi0, alpha, pol), WeakField(g))
    except (DomainError, GeometryError):
        return
    _assert_bounded_and_finite(res)


@_SETTINGS
@given(separation, st.integers(-10, 10**4))
def test_scheme_comparison_is_finite_or_rejected(L, n_terms):
    try:
        report = compare_schemes(L, n_terms)
    except (DomainError, GeometryError):
        return
    for res in report.energy_per_area.values():
        _assert_bounded_and_finite(res)
    assert math.isfinite(report.max_relative_discrepancy)


def _sweep_is_finite_or_rejected(spec):
    """A figure 4 or 5 sweep is finite, and each product cell is normal, or
    zero when g is; otherwise it raises a package error."""
    try:
        data = figure_series(spec)
    except CasimirError:
        return
    assert all(map(math.isfinite, data.series[0]))
    for col in data.series[1:]:
        for v in col:
            assert math.isfinite(v) and (abs(v) >= sys.float_info.min if spec.g else v == 0), v


@_SETTINGS
@given(separation, separation, st.lists(positive, min_size=1, max_size=3, unique=True),
       non_negative, st.integers(2, 20))
def test_figure_4_is_finite_or_rejected(L_a, L_b, areas, g, points):
    assume(L_a != L_b)
    _sweep_is_finite_or_rejected(FigureSpec(
        4, L_min=min(L_a, L_b), L_max=max(L_a, L_b), points=points, A_list=tuple(areas), g=g))


@_SETTINGS
@given(positive, positive, st.lists(separation, min_size=1, max_size=3, unique=True),
       non_negative, st.integers(2, 20))
def test_figure_5_is_finite_or_rejected(A_a, A_b, separations, g, points):
    assume(A_a != A_b)
    _sweep_is_finite_or_rejected(FigureSpec(
        5, A_min=min(A_a, A_b), A_max=max(A_a, A_b), points=points,
        L_list=tuple(separations), g=g))
