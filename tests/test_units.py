import math

import pytest

from casimirgrav.cavity import CavityConfig, pressure
from casimirgrav.errors import DomainError
from casimirgrav.units import C_LIGHT, HBAR, HBAR_C, UnitKind, UnitSystem

# independent constant lookup: pi^2 hbar c / 240 * 1e24, hbar c = 3.161527e-26 J m
PRESSURE_1UM_PA = -1.30013e-3


def test_natural_system_is_identity():
    nat = UnitSystem(UnitKind.NATURAL)
    assert nat.energy_like_to_output(-0.25) == -0.25
    assert nat.gravity_to_natural(9.8) == 9.8
    assert not nat.is_si


def test_constants():
    assert HBAR == 1.054571817e-34
    assert C_LIGHT == 2.99792458e8
    assert HBAR_C == pytest.approx(3.1615268e-26, rel=1e-7)


def test_pressure_at_one_micron_si():
    si = UnitSystem(UnitKind.SI)
    value = si.energy_like_to_output(pressure(CavityConfig(1e-6, 2)))
    assert value == pytest.approx(PRESSURE_1UM_PA, rel=1e-3)
    assert value == pytest.approx(-(math.pi ** 2) * HBAR_C / 240.0 * 1e24, rel=1e-12)


def test_gravity_acceleration_conversion():
    si = UnitSystem(UnitKind.SI)
    g_nat = si.gravity_to_natural(9.8)
    assert g_nat == pytest.approx(9.8 / C_LIGHT ** 2, rel=1e-15)
    # Fermi force for a micron cavity under lab gravity: positive and tiny
    e_c = -(math.pi ** 2) / (720.0 * (1e-6) ** 3)
    fermi_si = si.energy_like_to_output(-g_nat * e_c)
    assert 0.0 < fermi_si < 1e-24


def test_si_conversion_that_underflows_raises():
    si = UnitSystem(UnitKind.SI)
    with pytest.raises(DomainError, match="underflows"):
        si.energy_like_to_output(-7e-303)  # energy density at L = 1e75
    with pytest.raises(DomainError, match="underflows"):
        si.gravity_to_natural(1e-300)  # g / c^2 is subnormal
    assert si.energy_like_to_output(0.0) == 0.0
    assert si.gravity_to_natural(0.0) == 0.0
