import math
import warnings

import mpmath
import numpy as np
import pytest

from casimirgrav.cavity import (
    CavityConfig,
    SpacetimePoint,
    brown_maclay_tensor,
    energy_per_area,
)
from casimirgrav.errors import DomainError, GeometryError, RegimeWarning
from casimirgrav.numerics import Interval, QuadratureSpec, integrate_nd
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


def _quiet_apparatus(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return PlateApparatus(*args, **kwargs)


def test_h_isotropic_table():
    fld = WeakField(1.0)
    np.testing.assert_array_equal(h_isotropic(fld, SpacetimePoint(z=0.0)), np.zeros((4, 4)))
    np.testing.assert_array_equal(
        h_isotropic(fld, SpacetimePoint(z=2.0)), np.diag([-2.0, -2.0, -2.0, -2.0])
    )
    np.testing.assert_array_equal(
        h_isotropic(WeakField(0.0), SpacetimePoint(z=3.0)), np.zeros((4, 4))
    )


def test_h_fermi_table():
    fld = WeakField(1.0)
    h = h_fermi(fld, SpacetimePoint(z=2.0))
    expected = np.zeros((4, 4))
    expected[0, 0] = -2.0
    np.testing.assert_array_equal(h, expected)
    np.testing.assert_array_equal(h_fermi(fld, SpacetimePoint(z=0.0)), np.zeros((4, 4)))
    np.testing.assert_array_equal(h_fermi(WeakField(0.0), SpacetimePoint(z=5.0)), np.zeros((4, 4)))


def _fd_symmetrized_gradient(zeta, p, h):
    coords = [p.t, p.x, p.y, p.z]
    grad = np.zeros((4, 4))
    for mu in range(4):
        plus = list(coords)
        minus = list(coords)
        plus[mu] += h
        minus[mu] -= h
        dmu = (zeta(SpacetimePoint(*plus)) - zeta(SpacetimePoint(*minus))) / (2.0 * h)
        grad[mu, :] += dmu
        grad[:, mu] += dmu
    return grad


def test_gauge_field_reference_point():
    fld = WeakField(1.0)
    zeta = gauge_field(fld)
    p = SpacetimePoint(0.0, 1.0, 1.0, 1.0)
    sym = _fd_symmetrized_gradient(zeta, p, 1e-5)
    np.testing.assert_allclose(
        sym, h_fermi(fld, p) - h_isotropic(fld, p), atol=1e-10
    )


def test_gauge_field_trivial_points():
    assert np.all(gauge_field(WeakField(0.0))(SpacetimePoint(3, 1, -2, 5)) == 0.0)
    assert np.all(gauge_field(WeakField(1.0))(SpacetimePoint(t=7.0)) == 0.0)


@pytest.mark.parametrize("g", [0.1, 1.0])
def test_gauge_identity_at_random_points(g):
    rng = np.random.default_rng(37)
    fld = WeakField(g)
    zeta = gauge_field(fld)
    for _ in range(50):
        p = SpacetimePoint(*rng.uniform(-2.0, 2.0, size=4))
        target = h_fermi(fld, p) - h_isotropic(fld, p)
        sym = _fd_symmetrized_gradient(zeta, p, 1e-5)
        np.testing.assert_allclose(sym, target, atol=5e-11)


def test_tensor_and_metric_give_the_printed_shift():
    # 1/2 h^I_{mu nu} T^{mu nu} = -g z E_C / L, whose integral over the cavity at
    # alpha = 0 is -A g E_C z0; only the h_00 part survives in the Fermi gauge
    u = 2.0 ** -53
    rng = np.random.default_rng(26)
    for _ in range(20):
        L, g = float(10.0 ** rng.uniform(-3, 3)), float(10.0 ** rng.uniform(-6, 0))
        z, a = float(rng.uniform(-10.0, 10.0)), float(10.0 ** rng.uniform(0, 2)) * L
        cfg = CavityConfig(L, int(rng.integers(1, 3)))
        t = brown_maclay_tensor(cfg).components
        fld = WeakField(g)
        want = -g * z * energy_per_area(cfg) / L
        isotropic = 0.5 * float((h_isotropic(fld, SpacetimePoint(z=z)) * t).sum())
        fermi = 0.5 * float((h_fermi(fld, SpacetimePoint(z=z)) * t).sum())
        assert abs(isotropic - want) <= 4 * u * abs(want), (L, g, z)
        assert abs(fermi - 0.5 * want) <= 4 * u * abs(want), (L, g, z)

        # constant across the plates, so the volume integral is the area times an
        # integral over the height, written as z plus an offset whose ends do not round
        k = isotropic / z
        res = integrate_nd(lambda s: k * (z + s), [Interval(-0.5 * L, 0.5 * L)]).scaled(a * a)
        closed = delta_energy_closed(_quiet_apparatus(a, L, z, 0.0, cfg.polarizations), fld)
        assert abs(res.value - closed) <= res.error_bound + 8 * u * abs(closed), (L, g, z)


def test_delta_energy_reference_cell():
    app = PlateApparatus(1.0, 0.1, 0.5, 0.0, 2)
    fld = WeakField(1.0)
    closed = delta_energy_closed(app, fld)
    assert closed == pytest.approx(math.pi ** 2 * 1000.0 / 1440.0, rel=1e-12)
    quad = delta_energy_quadrature(app, fld)
    assert quad.value == pytest.approx(closed, rel=1e-6)


def test_delta_energy_zero_configurations():
    fld = WeakField(1.0)
    centered = PlateApparatus(1.0, 0.1, 0.0, 0.3, 2)
    assert delta_energy_closed(centered, fld) == 0.0
    assert abs(delta_energy_quadrature(centered, fld).value) <= 1e-12
    horizontal = PlateApparatus(1.0, 0.1, 0.5, math.pi / 2, 2)
    assert abs(delta_energy_closed(horizontal, fld)) <= 1e-12
    assert delta_energy_closed(PlateApparatus(1.0, 0.1, 0.5), WeakField(0.0)) == 0.0


# near a zero of cos, and far from 0, where a tilt reduced before cos loses its sign or digits
@pytest.mark.parametrize("alpha", [-math.pi / 2, 1e12, 1e15, 1e300])
def test_delta_energy_closed_against_mpmath_at_hard_tilts(alpha):
    app, g = PlateApparatus(1.0, 0.01, 0.001, alpha, 2), 1e-3
    with mpmath.workdps(50):
        e_c = -2 * mpmath.pi ** 2 / (1440 * mpmath.mpf(app.L) ** 3)
        exact = -mpmath.mpf(app.a) ** 2 * g * e_c * mpmath.mpf(app.xi0) * mpmath.cos(alpha)
        assert abs((delta_energy_closed(app, WeakField(g)) - exact) / exact) <= 1e-14


def test_delta_energy_sign():
    # E_C < 0, g > 0, z0 > 0 implies a positive energy shift
    app = PlateApparatus(1.0, 0.1, 0.5, 0.0, 2)
    assert delta_energy_closed(app, WeakField(2.0)) > 0.0


def test_delta_energy_linearity():
    base_app = _quiet_apparatus(1.0, 0.1, 0.5, 0.0, 2)
    fld = WeakField(0.01)
    base = delta_energy_closed(base_app, fld)
    assert delta_energy_closed(base_app, WeakField(0.02)) == pytest.approx(
        2.0 * base, rel=1e-14
    )
    doubled_offset = _quiet_apparatus(1.0, 0.1, 1.0, 0.0, 2)
    assert delta_energy_closed(doubled_offset, fld) == pytest.approx(2.0 * base, rel=1e-14)
    doubled_area = _quiet_apparatus(math.sqrt(2.0), 0.1, 0.5, 0.0, 2)
    assert delta_energy_closed(doubled_area, fld) == pytest.approx(2.0 * base, rel=1e-13)
    quad = delta_energy_quadrature(base_app, fld)
    quad2 = delta_energy_quadrature(doubled_offset, fld)
    assert quad2.value == pytest.approx(2.0 * quad.value, rel=1e-9)


def test_delta_energy_grid_agreement():
    spec = QuadratureSpec()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for alpha in (0.0, math.pi / 6, math.pi / 4, math.pi / 3):
            for xi0 in (-1.0, 0.0, 0.5, 2.0):
                for a in (1.0, 5.0):
                    for L in (0.05, 0.1):
                        for g in (1e-3, 1.0):
                            app = PlateApparatus(a, L, xi0, alpha, 2)
                            fld = WeakField(g)
                            closed = delta_energy_closed(app, fld)
                            quad = delta_energy_quadrature(app, fld, spec)
                            if xi0 * math.cos(alpha) == 0.0:
                                assert abs(closed) <= 1e-12
                                assert abs(quad.value) <= 1e-12
                                assert abs(quad.value) <= quad.error_bound
                            else:
                                assert quad.value == pytest.approx(closed, rel=1e-6)


def _literal_delta_energy_quadrature(app, field, spec):
    """The delta_energy_quadrature docstring's single integrand over the unit
    interval, g times the rest, written out as there and integrated by
    integrate_nd."""
    e_c = energy_per_area(app.cavity())
    g = field.g
    ca = math.cos(app.alpha)
    sa = math.sin(app.alpha)
    a, L, xi0 = app.a, app.L, app.xi0

    def unit(u):
        xi = xi0 - L * u
        t = a * u
        return g * (6.0 * e_c / L * (0.25 * ca * (-2.0 * xi0 * L)) * a * a
                    + (-2.0 * e_c / L) * (L * a * (0.5 * ca * (-a) * xi + 0.5 * (xi * ca) * (-a))
                                          + a * L * (0.5 * (t * sa) * (-a))))

    return integrate_nd(unit, [Interval(-0.5, 0.5)], spec)


def _energy_shift_draws():
    """Seeded (a, L, xi0, alpha, g, tolerance) draws over the quadrature's edge cases."""
    rng = np.random.default_rng(14)
    half_pi = 0.5 * math.pi
    edges = [(0.0, 0.3, 1e-3), (0.4, 0.0, 1e-3), (0.0, 0.0, 1e-3), (0.4, half_pi, 1e-3),
             (0.4, math.nextafter(half_pi, 0.0), 1e-3), (0.4, half_pi + 1e-9, 1.0),
             (0.4, 3.0 * half_pi, 1e-2), (-2.0, half_pi - 1e-12, 1e-6)]
    draws = [(1.0, 0.05, xi0, alpha, g, 1e-10) for xi0, alpha, g in edges]
    for _ in range(46):  # 100 draws in all
        a = float(10.0 ** rng.uniform(-1, 2))
        L = a * float(10.0 ** rng.uniform(-3, -1.1))
        tol = float(10.0 ** rng.uniform(-12, -3))
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        g = float(10.0 ** rng.uniform(-6, -2))
        # |xi0 cos(alpha)| << a: term 3's eta sin(alpha) part cancels to far
        # below its own size
        draws.append((a, L, float(rng.uniform(-0.45, 0.45)) * L, alpha, g, tol))
        draws.append((a, L, float(rng.uniform(-2.0, 2.0)) * a, alpha, g, tol))
    return draws


def test_quadrature_is_the_literal_integrands_bit_for_bit():
    for a, L, xi0, alpha, g, tol in _energy_shift_draws():
        app = _quiet_apparatus(a, L, xi0, alpha)
        field = WeakField(g)
        spec = QuadratureSpec(tol)
        got = delta_energy_quadrature(app, field, spec)
        want = _literal_delta_energy_quadrature(app, field, spec)
        assert (got.value.hex(), got.error_bound.hex(), got.terms_used) == (
            want.value.hex(), want.error_bound.hex(), want.terms_used), (a, L, xi0, alpha, g, tol)


def _bound_draws():
    """200 seeded (a, L, xi0, alpha, g): a log-uniform in [0.1, 100], L/a in
    [1e-3, 0.08] and g in [1e-6, 1e-2] log-uniform, xi0 within 0.45 L of the
    centre, alpha in [0, 2 pi)."""
    rng = np.random.default_rng(21)
    draws = []
    for _ in range(200):
        a = float(10.0 ** rng.uniform(-1, 2))
        L = a * float(10.0 ** rng.uniform(-3, math.log10(0.08)))
        xi0 = float(rng.uniform(-0.45, 0.45)) * L
        draws.append((a, L, xi0, float(rng.uniform(0.0, 2.0 * math.pi)),
                      float(10.0 ** rng.uniform(-6, -2))))
    return draws


# alpha = 0, the CLI default, is where the refinement estimate is most often
# exactly 0: the rule is exact on these linear integrands, while the rounding is not
@pytest.mark.parametrize("tilted", [True, False], ids=["random-alpha", "alpha-0"])
def test_energy_shift_bound_holds_on_seeded_draws(tilted):
    # value +- error_bound must enclose -A g E_C xi0 cos(alpha) at 50 digits
    with mpmath.workdps(50):
        for a, L, xi0, alpha, g in _bound_draws():
            alpha = alpha if tilted else 0.0
            res = delta_energy_quadrature(_quiet_apparatus(a, L, xi0, alpha), WeakField(g))
            e_c = -2 * mpmath.pi ** 2 / (1440 * mpmath.mpf(L) ** 3)
            truth = -mpmath.mpf(a) ** 2 * g * e_c * xi0 * mpmath.cos(alpha)
            assert res.error_bound > 0, (a, L, xi0, alpha, g)
            assert abs(res.value - truth) <= res.error_bound, (a, L, xi0, alpha, g)


# xi0 +- L/2 rounds at these offsets, to an interval whose width is not L
# (or to an empty one from xi0/L ~ 1e17 up); the centred s keeps the width L
@pytest.mark.parametrize("xi0", [1e10, 1e13, 1e20])
def test_quadrature_at_large_plate_offsets(xi0):
    app, field = _quiet_apparatus(1.0, 0.01, xi0, 0.3), WeakField(1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)  # g xi0 is far past 0.1
        closed = delta_energy_closed(app, field)
        quad = delta_energy_quadrature(app, field)
    assert abs(quad.value - closed) <= 1e-12 * abs(closed)


def test_force_chain_values():
    fld = WeakField(1.0)
    cfg = CavityConfig(1.0, 2)
    assert delta_force_per_area(fld, cfg) == pytest.approx(-(math.pi ** 2) / 720.0, rel=1e-15)
    assert isotropic_force_per_area(fld, cfg) == pytest.approx(math.pi ** 2 / 360.0, rel=1e-15)
    assert fermi_force_per_area(fld, cfg) == pytest.approx(math.pi ** 2 / 720.0, rel=1e-15)


def test_force_bookkeeping_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        fld = WeakField(float(rng.uniform(0.0, 2.0)))
        cfg = CavityConfig(float(rng.uniform(0.1, 10.0)), int(rng.integers(1, 3)))
        delta = delta_force_per_area(fld, cfg)
        iso = isotropic_force_per_area(fld, cfg)
        assert fermi_force_per_area(fld, cfg) == iso + delta
        assert iso == -2.0 * delta
        if fld.g > 0.0:
            assert delta < 0.0 and iso > 0.0 and fermi_force_per_area(fld, cfg) > 0.0


def test_force_zero_field():
    cfg = CavityConfig(1.0, 2)
    assert delta_force_per_area(WeakField(0.0), cfg) == 0.0
    assert isotropic_force_per_area(WeakField(0.0), cfg) == 0.0
    assert fermi_force_per_area(WeakField(0.0), cfg) == 0.0


def test_closed_forms_that_underflow_raise():
    near = CavityConfig(0.1, 2)
    subnormal = WeakField(1e-320)  # every result is subnormal
    with pytest.raises(DomainError, match="Delta E_g underflows"):
        delta_energy_closed(PlateApparatus(1.0, 0.1, 0.5), subnormal)
    for force in (delta_force_per_area, isotropic_force_per_area, fermi_force_per_area,
                  fractional_correction):
        with pytest.raises(DomainError, match="underflows"):
            force(subnormal, near)
    # every product rounds to zero although g and xi0 are not zero
    far = _quiet_apparatus(1e71, 1e70, 1.0)
    with pytest.raises(DomainError, match="Delta E_g underflows"):
        delta_energy_closed(far, WeakField(1e-300))
    with pytest.raises(DomainError, match="Delta F / A underflows"):
        fractional_correction(WeakField(1e-300), far.cavity())


def test_delta_energy_slope_reproduces_force():
    # Delta E is linear in z0 = xi0 at alpha = 0; its z0-slope over -A gives g E_C
    fld = WeakField(1.0)
    a, L = 1.0, 0.1
    cfg = CavityConfig(L, 2)

    def energy_of_offset(z0):
        return delta_energy_closed(PlateApparatus(a, L, z0, 0.0, 2), fld)

    slope = (energy_of_offset(0.6) - energy_of_offset(0.4)) / 0.2
    assert -slope / (a * a) == pytest.approx(delta_force_per_area(fld, cfg), rel=1e-12)


def test_fractional_correction():
    assert fractional_correction(WeakField(1.0), CavityConfig(1.0, 2)) == pytest.approx(
        1.0 / 3.0, rel=1e-14
    )
    assert fractional_correction(WeakField(1.0), CavityConfig(3.0, 2)) == pytest.approx(
        1.0, rel=1e-14
    )
    assert fractional_correction(WeakField(0.0), CavityConfig(1.0, 2)) == 0.0
    # polarization count cancels exactly
    assert fractional_correction(WeakField(0.7), CavityConfig(2.0, 1)) == fractional_correction(
        WeakField(0.7), CavityConfig(2.0, 2)
    )


def test_apparatus_validation_and_normalization():
    with pytest.raises(GeometryError):
        PlateApparatus(0.0, 1.0)
    with pytest.raises(GeometryError):
        _quiet_apparatus(1.0, -0.1)
    with pytest.raises(GeometryError):
        _quiet_apparatus(1.0, 0.01, polarizations=0)
    with pytest.raises(DomainError, match="polarizations must be an integer, got 2.0"):
        _quiet_apparatus(1.0, 0.01, polarizations=2.0)
    assert type(_quiet_apparatus(1.0, 0.01, polarizations=np.int64(1)).polarizations) is int
    with pytest.raises(GeometryError):
        WeakField(-1.0)
    # the tilt is stored as given, not reduced mod 2 pi
    app = _quiet_apparatus(10.0, 0.1, alpha=2.0 * math.pi + 0.25)
    assert app.alpha == 2.0 * math.pi + 0.25
    assert _quiet_apparatus(10.0, 0.1, alpha=-1e-20).alpha == -1e-20
    assert app.area == 100.0
    assert app.cavity() == CavityConfig(0.1, 2)


def test_regime_warnings():
    with pytest.warns(RegimeWarning):
        PlateApparatus(1.0, 0.5)  # aspect ratio below 10
    app = PlateApparatus(10.0, 0.1, 0.5)
    with pytest.warns(RegimeWarning):
        delta_energy_closed(app, WeakField(1.0))  # g * extent way above 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RegimeWarning)
        delta_energy_closed(app, WeakField(1e-4))  # comfortably linear: no warning
