"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on passing runs as well.
"""

import math
import warnings

import numpy as np
import pytest

from casimirgrav.cavity import (
    CavityConfig,
    SpacetimePoint,
    brown_maclay_tensor,
    energy_density,
    energy_per_area,
    pressure,
)
from casimirgrav.errors import RegimeWarning
from casimirgrav.figures import FigureSpec, figure_series
from casimirgrav.numerics import QuadratureSpec, central_diff, tail_bounded_power_sum
from casimirgrav.regularization import (
    abel_plana_regularized_power_sum,
    compare_schemes,
    energy_density_image_sum,
    riemann_zeta,
)
from casimirgrav.units import energy_like_to_si
from casimirgrav.weakfield import (
    PlateApparatus,
    WeakField,
    delta_energy_closed,
    delta_energy_quadrature,
    delta_force_per_area,
    fermi_force_per_area,
    gauge_field,
    h_fermi,
    h_isotropic,
    isotropic_force_per_area,
)


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {status} - {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_01_zeta_identity():
    target = math.pi ** 4 / 90.0
    err = abs(riemann_zeta(4.0) - target)
    ok = err <= 1e-14
    for n in (10, 100, 1000):
        partial = tail_bounded_power_sum(4.0, 1.0, n)
        ok = ok and abs(partial.value - target) <= partial.error_bound
    _report(1, "zeta(4) = pi^4/90 and tail-bounded partial sums honor their bounds",
            ok, f"|zeta(4) err| = {err:.2e}")


def test_criterion_02_energy_density_image_sum():
    target = -(math.pi ** 2) / 1440.0
    value = energy_density_image_sum(1.0, 10_000).value
    rel = abs(value - target) / abs(target)
    _report(2, "image sum at L=1, N=1e4 matches -pi^2/1440 to 1e-12 relative",
            rel <= 1e-12, f"rel err = {rel:.2e}")


def test_criterion_03_scheme_cross_agreement():
    worst = max(compare_schemes(L).max_relative_discrepancy for L in (0.1, 1.0, 10.0))
    _report(3, "three regulators agree on scalar energy per area to 1e-8",
            worst <= 1e-8, f"worst spread = {worst:.2e}")


def test_criterion_04_abel_plana_oracle():
    quad = QuadratureSpec(relative_tolerance=1e-10)
    value = abel_plana_regularized_power_sum(3, quad).value
    closed = -2.0 * (-1.0) * math.gamma(4) * riemann_zeta(4.0) / (2.0 * math.pi) ** 4
    rel_branch = abs(value - 1.0 / 120.0) * 120.0
    rel_closed = abs(value - closed) / abs(closed)
    ok = rel_branch <= 1e-10 and rel_closed <= 1e-10
    _report(4, "regularized sum over n^3 equals 1/120 and the Gamma*zeta closed form",
            ok, f"rel err = {rel_branch:.2e}")


def test_criterion_05_electromagnetic_quantities():
    e = energy_per_area(CavityConfig(1.0, 2))
    p = pressure(CavityConfig(1.0, 2))
    rel_e = abs(e + math.pi ** 2 / 720.0) / (math.pi ** 2 / 720.0)
    rel_p = abs(p + math.pi ** 2 / 240.0) / (math.pi ** 2 / 240.0)
    ok = rel_e <= 1e-15 and rel_p <= 1e-15
    _report(5, "E/A = -pi^2/720 and P = -pi^2/240 at L=1 to machine rounding",
            ok, f"rel errs = {rel_e:.1e}, {rel_p:.1e}")


def test_criterion_06_pressure_is_energy_slope():
    ok = True
    detail = []
    for L in (0.5, 1.0, 2.0, 5.0):
        e_of_l = lambda l: energy_per_area(CavityConfig(l, 2))
        p = pressure(CavityConfig(L, 2))
        h = 1e-3 * L
        e1 = abs(-central_diff(e_of_l, L, h) - p)
        e2 = abs(-central_diff(e_of_l, L, h / 2) - p)
        order = math.log2(e1 / e2)
        detail.append(f"{order:.3f}")
        ok = ok and abs(order - 2.0) <= 0.05
    _report(6, "P = -dE/dL by central differences with observed order 2.00 +/- 0.05",
            ok, "orders " + ", ".join(detail))


def test_criterion_07_stress_tensor_identities():
    rng = np.random.default_rng(2024)
    ok = True
    for L in rng.uniform(0.1, 10.0, size=20):
        cfg = CavityConfig(float(L), 2)
        t = brown_maclay_tensor(cfg)
        ok = ok and t.components[0, 0] == energy_per_area(cfg) / cfg.L
        ok = ok and t.components[3, 3] == pressure(cfg)
        ok = ok and t.trace() == 0.0
    _report(7, "T^00 = E/(A L), T^33 = P, trace = 0 as exact identities for 20 random L", ok)


def test_criterion_08_energy_shift_quadrature_vs_closed():
    ok = True
    worst = 0.0
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
                            quad = delta_energy_quadrature(app, fld).value
                            if xi0 * math.cos(alpha) == 0.0:
                                ok = ok and abs(closed) <= 1e-12 and abs(quad) <= 1e-12
                            else:
                                rel = abs(quad - closed) / abs(closed)
                                worst = max(worst, rel)
                                ok = ok and rel <= 1e-6
    _report(8, "Delta E_g quadrature matches -A g E_C z0 on the 4x4x2x2x2 grid",
            ok, f"worst rel = {worst:.2e}")


def test_criterion_09_force_chain():
    ok = True
    for g in (0.5, 1.0):
        for L in (0.5, 1.0, 2.0):
            fld = WeakField(g)
            cfg = CavityConfig(L, 2)
            e_c = energy_per_area(cfg)
            delta = delta_force_per_area(fld, cfg)
            iso = isotropic_force_per_area(fld, cfg)
            fermi = fermi_force_per_area(fld, cfg)
            ok = ok and delta == g * e_c and iso == -2.0 * delta and fermi == iso + delta

    # slope of the energy shift over the vertical offset reproduces -A g E_C
    fld = WeakField(1.0)
    a, L = 1.0, 0.1
    cfg = CavityConfig(L, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        slope = central_diff(
            lambda z0: delta_energy_closed(PlateApparatus(a, L, z0, 0.0, 2), fld), 0.5, 1e-3
        )
    target = -a * a * delta_force_per_area(fld, cfg)
    ok = ok and slope == pytest.approx(target, rel=1e-12)
    _report(9, "Delta F/A = g E_C, F_iso/A = -2 g E_C, F_fermi/A = -g E_C, "
               "fermi = iso + delta, and the z0-slope of Delta E_g checks out", ok)


def test_criterion_10_gauge_identity():
    # The gauge vector is quadratic in the coordinates (any valid representative
    # is, up to Killing vectors), so second-order central differences carry no
    # h^2 truncation term: agreement is exact up to roundoff at every step. The
    # identity is asserted strictly; the h vs h/2 error-ratio diagnostic is only
    # meaningful when errors rise above the roundoff floor, which would signal a
    # wrong gauge field.
    rng = np.random.default_rng(77)
    noise_floor = 1e-10
    ok = True
    measurable = []
    for g in (0.1, 1.0):
        fld = WeakField(g)
        zeta = gauge_field(fld)
        for _ in range(25):
            p = SpacetimePoint(*rng.uniform(-2.0, 2.0, size=4))
            target = h_fermi(fld, p) - h_isotropic(fld, p)
            errs = {}
            for h in (1e-3, 5e-4):
                coords = [p.t, p.x, p.y, p.z]
                grad = np.zeros((4, 4))
                for mu in range(4):
                    plus, minus = list(coords), list(coords)
                    plus[mu] += h
                    minus[mu] -= h
                    dmu = (zeta(SpacetimePoint(*plus)) - zeta(SpacetimePoint(*minus))) / (2 * h)
                    grad[mu, :] += dmu
                    grad[:, mu] += dmu
                errs[h] = float(np.max(np.abs(grad - target)))
                ok = ok and errs[h] <= noise_floor
            if errs[1e-3] > noise_floor and errs[5e-4] > noise_floor:
                measurable.append(errs[1e-3] / errs[5e-4])
    if measurable:
        ok = ok and all(abs(r - 4.0) <= 0.4 for r in measurable)
        detail = f"truncation measurable, ratios {measurable[:3]}"
    else:
        detail = ("agreement at roundoff (< 1e-10) for every h; O(h^2) bound "
                  "holds vacuously, truncation term is identically zero")
    _report(10, "symmetrized FD gradient of the gauge field equals h_F - h_I "
                "at 50 random points", ok, detail)


def test_criterion_11_figure_properties():
    def loglog_slope(x, y):
        return np.polyfit(np.log(x), np.log(np.abs(y)), 1)[0]

    ok = True
    for fig_id, slope in ((1, -4.0), (2, -4.0), (3, -3.0)):
        data = figure_series(FigureSpec(fig_id))
        ok = ok and abs(loglog_slope(data.rows[:, 0], data.rows[:, 1]) - slope) <= 1e-6

    fig4 = figure_series(FigureSpec(4))
    for j in range(1, fig4.rows.shape[1]):
        ok = ok and abs(loglog_slope(fig4.rows[:, 0], fig4.rows[:, j]) + 3.0) <= 1e-6

    fig5 = figure_series(FigureSpec(5))
    A = fig5.rows[:, 0]
    for j, L in enumerate((0.5, 1.0, 2.0), start=1):
        target = delta_force_per_area(WeakField(1.0), CavityConfig(L, 2))
        fit = np.polyfit(A, fig5.rows[:, j], 1)
        ok = ok and abs(fit[0] - target) <= 1e-12 * abs(target)
        ok = ok and np.allclose(fig5.rows[:, j], A * target, rtol=1e-13, atol=0.0)

    fig6 = figure_series(FigureSpec(6))
    ok = ok and np.array_equal(fig6.rows[:, 1], -fig6.rows[:, 2])
    _report(11, "figures 1-6: slopes -4/-4/-3, -3 per area column, exact linearity "
                "in A with slope g E_C, and Delta F/A = -F_fermi/A rowwise", ok)


def test_criterion_12_si_pressure_sanity():
    value = energy_like_to_si(pressure(CavityConfig(1e-6, 2)))
    reference = -1.30013e-3  # pi^2 hbar c / 240 * 1e24, constants looked up independently
    rel = abs(value - reference) / abs(reference)
    _report(12, "SI pressure at L = 1 um equals -pi^2 hbar c/240 x 1e24 Pa within 0.1%",
            rel <= 1e-3, f"value = {value:.6e} Pa, rel = {rel:.1e}")
