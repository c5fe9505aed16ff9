import math
import sys

import mpmath
import pytest

from casimirgrav.cavity import CavityConfig, energy_density, pressure
from casimirgrav.errors import DomainError
from casimirgrav.units import C_LIGHT, HBAR, energy_like_to_si, gravity_to_natural

# independent constant lookup: pi^2 hbar c / 240 * 1e24, hbar c = 3.161527e-26 J m
PRESSURE_1UM_PA = -1.30013e-3


def test_constants():
    assert HBAR == 1.054571817e-34
    assert C_LIGHT == 2.99792458e8
    assert HBAR * C_LIGHT == pytest.approx(3.1615268e-26, rel=1e-7)


def test_pressure_at_one_micron_si():
    value = energy_like_to_si(pressure(CavityConfig(1e-6, 2)))
    assert value == pytest.approx(PRESSURE_1UM_PA, rel=1e-3)
    assert value == pytest.approx(-(math.pi ** 2) * (HBAR * C_LIGHT) / 240.0 * 1e24, rel=1e-12)


def test_gravity_acceleration_conversion():
    g_nat = gravity_to_natural(9.8)
    assert g_nat == pytest.approx(9.8 / C_LIGHT ** 2, rel=1e-15)
    # Fermi force for a micron cavity under lab gravity: positive and tiny
    e_c = -(math.pi ** 2) / (720.0 * (1e-6) ** 3)
    fermi_si = energy_like_to_si(-g_nat * e_c)
    assert 0.0 < fermi_si < 1e-24


def test_si_conversion_that_underflows_raises():
    with pytest.raises(DomainError, match="underflows"):
        energy_like_to_si(-7e-303)  # energy density at L = 1e75
    with pytest.raises(DomainError, match="underflows"):
        gravity_to_natural(1e-300)  # g / c^2 is subnormal
    assert energy_like_to_si(0.0) == 0.0
    assert gravity_to_natural(0.0) == 0.0


def test_si_conversion_of_tiny_values_within_one_ulp():
    # below |value| = 2.1e-274 the intermediate value * hbar is subnormal
    with mpmath.workdps(40):
        hbar_c = mpmath.mpf("1.054571817e-34") * mpmath.mpf("2.99792458e8")
        for i in range(401):
            L = 10.0 ** (60 + 14 * i / 400)
            for natural in (energy_density(L), pressure(CavityConfig(L, 2))):
                exact = float(mpmath.mpf(natural) * hbar_c)
                if abs(exact) < sys.float_info.min:
                    with pytest.raises(DomainError, match="underflows"):
                        energy_like_to_si(natural)
                else:
                    assert abs(energy_like_to_si(natural) - exact) <= math.ulp(exact), L
