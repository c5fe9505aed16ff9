import math

import numpy as np
import pytest

from casimirgrav.cavity import (
    L_MAX,
    L_MIN,
    CavityConfig,
    SpacetimePoint,
    StressTensor,
    brown_maclay_tensor,
    energy_density,
    energy_per_area,
    feynman_propagator,
    pressure,
)
from casimirgrav.errors import DomainError, GeometryError, LightConeError
from casimirgrav.numerics import central_diff
from casimirgrav.regularization import energy_density_image_sum


def test_energy_density_value():
    assert energy_density(1.0) == pytest.approx(-6.853891945200942e-3, rel=1e-15)
    assert energy_density(2.0) == pytest.approx(-(math.pi ** 2) / 1440.0 / 16.0, rel=1e-15)
    with pytest.raises(GeometryError):
        energy_density(0.0)


def test_closed_forms_are_the_literal_formulas_bit_for_bit():
    # 0.5-decade steps over the whole accepted range, plus both ends
    for L in [L_MIN, L_MAX] + [10.0 ** (k / 2.0) for k in range(-150, 151)]:
        assert energy_density(L).hex() == (-(math.pi ** 2) / (1440.0 * L ** 4)).hex(), L
        for pol in (1, 2):
            per_area = pol * (-(math.pi ** 2) / (1440.0 * L ** 3))
            cfg = CavityConfig(L, pol)
            assert energy_per_area(cfg).hex() == per_area.hex(), (L, pol)
            assert pressure(cfg).hex() == (3.0 * (per_area / L)).hex(), (L, pol)
    for r in [10.0 ** (k / 4.0) for k in range(-600, 601)]:
        got = feynman_propagator(SpacetimePoint(), SpacetimePoint(x=r))
        assert got.hex() == (1.0 / (4.0 * math.pi ** 2 * (r * r))).hex(), r


def test_energy_density_matches_image_sum_within_tail_bound():
    image = energy_density_image_sum(1.0, 10_000)
    assert abs(energy_density(1.0) - image.value) <= image.error_bound


def test_energy_per_area_values():
    assert energy_per_area(CavityConfig(1.0, 2)) == pytest.approx(
        -1.3707783890401885e-2, rel=1e-15
    )
    assert energy_per_area(CavityConfig(1.0, 1)) == pytest.approx(
        -(math.pi ** 2) / 1440.0, rel=1e-15
    )
    assert energy_per_area(CavityConfig(3.0, 2)) == pytest.approx(
        -(math.pi ** 2) / (720.0 * 27.0), rel=1e-15
    )


def test_pressure_values():
    assert pressure(CavityConfig(1.0, 2)) == pytest.approx(-4.112335167120566e-2, rel=1e-15)
    assert pressure(CavityConfig(2.0, 2)) == pytest.approx(-(math.pi ** 2) / 3840.0, rel=1e-15)


@pytest.mark.parametrize("shape", [(3, 3), (4,), (4, 4, 1), (16,)])
def test_stress_tensor_must_be_4x4(shape):
    with pytest.raises(GeometryError, match="stress tensor must be 4x4"):
        StressTensor(np.zeros(shape))


def test_stress_tensor_holds_a_read_only_copy():
    given = np.diag([1.0, -1.0, -1.0, 3.0])
    tensor = StressTensor(given)
    given[0, 0] = 7.0
    np.testing.assert_array_equal(tensor.components, np.diag([1.0, -1.0, -1.0, 3.0]))
    with pytest.raises(ValueError):
        tensor.components[0, 0] = 7.0
    brown_maclay = brown_maclay_tensor(CavityConfig(1.0))
    trace = brown_maclay.trace()
    with pytest.raises(ValueError):
        brown_maclay.components[1, 1] = 0.0
    assert brown_maclay.trace() == trace


def test_cavity_config_validation():
    with pytest.raises(GeometryError):
        CavityConfig(-1.0)
    with pytest.raises(GeometryError):
        CavityConfig(1.0, polarizations=3)
    with pytest.raises(DomainError, match="polarizations must be an integer, got 2.0"):
        CavityConfig(1.0, 2.0)
    cfg = CavityConfig(1.0, np.int64(2))
    assert type(cfg.polarizations) is int and cfg == CavityConfig(1.0, 2)


@pytest.mark.parametrize("L", [0.5, 1.0, 2.0, 5.0])
def test_pressure_is_minus_energy_slope(L):
    e_of_l = lambda l: energy_per_area(CavityConfig(l, 2))
    p = pressure(CavityConfig(L, 2))
    h = 1e-3 * L
    e1 = abs(-central_diff(e_of_l, L, h) - p)
    e2 = abs(-central_diff(e_of_l, L, h / 2) - p)
    assert abs(math.log2(e1 / e2) - 2.0) < 0.05
    assert -central_diff(e_of_l, L, h) == pytest.approx(p, rel=1e-5)


def test_default_step_slope_at_micron_separation():
    # SI-scale separation: the default step must stay relative to L
    L = 1e-6
    slope = central_diff(lambda l: energy_per_area(CavityConfig(l, 2)), L)
    assert -slope == pytest.approx(pressure(CavityConfig(L, 2)), rel=1e-7)


def test_brown_maclay_identities():
    rng = np.random.default_rng(11)
    for L in rng.uniform(0.1, 10.0, size=20):
        cfg = CavityConfig(float(L), 2)
        t = brown_maclay_tensor(cfg)
        assert t.components[0, 0] == energy_per_area(cfg) / cfg.L
        assert t.components[3, 3] == pressure(cfg)
        assert t.trace() == 0.0
        off_diagonal = t.components - np.diag(np.diag(t.components))
        assert np.all(off_diagonal == 0.0)


def test_brown_maclay_reference_diagonal():
    t = brown_maclay_tensor(CavityConfig(1.0, 2))
    expected = np.diag(
        [-(math.pi ** 2) / 720.0, math.pi ** 2 / 720.0, math.pi ** 2 / 720.0,
         -(math.pi ** 2) / 240.0]
    )
    np.testing.assert_allclose(t.components, expected, rtol=1e-14, atol=0.0)


def test_brown_maclay_polarization_linearity():
    full = brown_maclay_tensor(CavityConfig(1.0, 2))
    half = brown_maclay_tensor(CavityConfig(1.0, 1))
    np.testing.assert_array_equal(half.components * 2.0, full.components)


def test_brown_maclay_flipped_y_variant():
    cfg = CavityConfig(1.0, 2)
    variant = brown_maclay_tensor(cfg, flip_transverse_y=True)
    default = brown_maclay_tensor(cfg)
    assert variant.components[2, 2] == -default.components[2, 2]
    assert variant.trace() != 0.0
    mask = np.ones((4, 4), dtype=bool)
    mask[2, 2] = False
    np.testing.assert_array_equal(variant.components[mask], default.components[mask])


def _loglog_slope(x, y):
    return np.polyfit(np.log(x), np.log(np.abs(y)), 1)[0]


def test_power_law_slopes():
    L = np.linspace(0.5, 5.0, 50)
    assert _loglog_slope(L, [pressure(CavityConfig(l, 2)) for l in L]) == pytest.approx(
        -4.0, abs=1e-9
    )
    assert _loglog_slope(
        L, [energy_per_area(CavityConfig(l, 2)) for l in L]
    ) == pytest.approx(-3.0, abs=1e-9)
    assert _loglog_slope(L, [energy_density(l) for l in L]) == pytest.approx(-4.0, abs=1e-9)


def test_propagator_unit_spacelike_interval():
    value = feynman_propagator(SpacetimePoint(0, 1, 0, 0), SpacetimePoint(0, 0, 0, 0))
    assert value == pytest.approx(1.0 / (4.0 * math.pi ** 2), rel=1e-15)


def test_propagator_symmetric_in_arguments():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = SpacetimePoint(*rng.uniform(-3.0, 3.0, size=4))
        b = SpacetimePoint(*rng.uniform(-3.0, 3.0, size=4))
        try:
            left = feynman_propagator(a, b)
        except LightConeError:
            continue
        assert left == feynman_propagator(b, a)


def test_propagator_light_cone_error():
    origin = SpacetimePoint(0, 0, 0, 0)
    for x in (SpacetimePoint(1, 1, 0, 0), origin):  # null and coincident
        with pytest.raises(LightConeError):
            feynman_propagator(x, origin)
    # timelike or spacelike by less than 1e-12 of dt^2 + |dx|^2
    for x in (SpacetimePoint(1.0, 1.0 - 1e-14, 0, 0),
              SpacetimePoint(1e3 * (1 + 1e-15), 1e3, 0, 0)):
        with pytest.raises(LightConeError):
            feynman_propagator(x, origin)


def test_propagator_at_micron_equal_time_separation():
    value = feynman_propagator(SpacetimePoint(x=1e-7), SpacetimePoint())
    assert value == pytest.approx(1.0 / (4.0 * math.pi ** 2 * 1e-14), rel=1e-15)


def test_propagator_is_independent_of_the_length_unit():
    rng = np.random.default_rng(11)
    pairs = [rng.uniform(-3.0, 3.0, size=(2, 4)) for _ in range(20)]
    pairs.append(np.array([[1.0, 1.0 - 1e-14, 0, 0], [0, 0, 0, 0]]))
    for a, b in pairs:
        outcomes = []
        for k in range(-8, 9):
            scale = 10.0 ** k
            try:
                value = feynman_propagator(SpacetimePoint(*(a * scale)), SpacetimePoint(*(b * scale)))
            except LightConeError:
                outcomes.append(None)
            else:
                outcomes.append(value * scale ** 2)
        if outcomes[0] is None:
            assert outcomes == [None] * 17
        else:
            assert outcomes == pytest.approx([outcomes[8]] * 17, rel=1e-12)


def test_propagator_past_double_range_raises():
    with pytest.raises(DomainError) as info:
        feynman_propagator(SpacetimePoint(x=1e200), SpacetimePoint())
    assert not isinstance(info.value, LightConeError)


@pytest.mark.parametrize("coord", ["t", "x", "y", "z"])
def test_spacetime_point_rejects_non_finite_coordinates(coord):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(GeometryError, match="finite"):
            SpacetimePoint(**{coord: bad})
    assert getattr(SpacetimePoint(**{coord: np.float64(1.5)}), coord) == 1.5
