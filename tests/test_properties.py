"""Finite-output contract: finite, in-domain input gives a finite result or a
typed :class:`CasimirError`, never inf or NaN, over the whole double range."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from casimirgrav.cavity import L_MAX, L_MIN, CavityConfig
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


@_SETTINGS
@given(positive, separation, finite, finite, non_negative, st.sampled_from([1, 2]))
def test_energy_shift_and_force_chain_are_finite_or_rejected(a, L, xi0, alpha, g, pol):
    app = PlateApparatus(a, L, xi0, alpha, pol)
    field = WeakField(g)
    cfg = CavityConfig(L, pol)
    _finite_or_typed_error(lambda: delta_energy_closed(app, field))
    for force in (delta_force_per_area, isotropic_force_per_area, fermi_force_per_area,
                  fractional_correction):
        _finite_or_typed_error(lambda: force(field, cfg))


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
    try:
        data = figure_series(spec)
    except CasimirError:
        return
    assert np.isfinite(data.rows).all()


@_SETTINGS
@given(separation, separation, st.lists(positive, min_size=1, max_size=3), non_negative,
       st.integers(2, 20))
def test_figure_4_is_finite_or_rejected(L_a, L_b, areas, g, points):
    assume(L_a != L_b)
    _sweep_is_finite_or_rejected(FigureSpec(
        4, L_min=min(L_a, L_b), L_max=max(L_a, L_b), points=points, A_list=tuple(areas), g=g))


@_SETTINGS
@given(positive, positive, st.lists(separation, min_size=1, max_size=3), non_negative,
       st.integers(2, 20))
def test_figure_5_is_finite_or_rejected(A_a, A_b, separations, g, points):
    assume(A_a != A_b)
    _sweep_is_finite_or_rejected(FigureSpec(
        5, A_min=min(A_a, A_b), A_max=max(A_a, A_b), points=points,
        L_list=tuple(separations), g=g))
