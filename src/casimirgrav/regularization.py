"""Three independent routes to the renormalized Casimir quantities.

The divergent mode sum over cavity modes is made finite by (a) the image
sum, a partial sum of 1/n^4 with a rigorous tail bound, (b) Abel-Plana
regularization, where the divergent pieces are dropped and the finite
branch-cut integral

    -2 sin(p pi / 2) * int_0^inf t^p / (e^{2 pi t} - 1) dt

is evaluated by quadrature, and (c) the zeta-function closed form. All
values here carry a single scalar polarization; the electromagnetic factor
of two is applied exclusively in :mod:`casimirgrav.cavity`.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import count, repeat

from .cavity import check_geometry
from .errors import CasimirError, DivergentSeriesError, DomainError, FrozenValue, check_integer
from .numerics import (
    Interval,
    QuadratureSpec,
    SeriesResult,
    integrate_1d,
    relative_discrepancy,
    tail_bounded_power_sum,
)

__all__ = [
    "SchemeKind",
    "SchemeComparison",
    "riemann_zeta",
    "energy_density_image_sum",
    "abel_plana_regularized_power_sum",
    "energy_per_area_abel_plana",
    "compare_schemes",
]

# Euler-Maclaurin parameters for riemann_zeta: partial sum length and the
# even Bernoulli numbers B2, B4, B6 of the correction terms. Truncation after
# B6 at N = 50 is below 2e-17 relative on all of (1, 54); rounding sets the
# error (see riemann_zeta).
_ZETA_TERMS = 50
_BERNOULLI_EVEN = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0)

DEFAULT_IMAGE_TERMS = 10_000
MAX_IMAGE_TERMS = 10**6  # its tail bound 1/(3 N^3) is below 1/600 ulp of zeta(4)
# the Abel-Plana integrand is zero past t = 700/(2 pi) ~ 111.4, and 111.4^p
# stays below the largest double up to p = 150
MAX_ABEL_PLANA_EXPONENT = 150


class SchemeKind(Enum):
    IMAGE_SUM = "image-sum"
    ABEL_PLANA = "abel-plana"
    ZETA_CLOSED_FORM = "zeta"


def riemann_zeta(s: float) -> float:
    """zeta(s) for real s > 1 by Euler-Maclaurin summation.

    Partial sum of N = 50 terms plus N^{1-s}/(s-1) - N^{-s}/2 and Bernoulli
    corrections through B6. Relative error at most 4.3 u (u = 2^-53) over
    24 000 seeded draws of s - 1 log-uniform in [1e-12, 53], next to s = 1
    too, where zeta(s) ~ 1/(s - 1) reaches 4.5e15; a test holds it to 8 u.
    From s = 54 on, zeta(s) - 1 <= 2^-s (1 + 2/(s-1)) is below half an ulp
    of 1, so the value is 1.0 (the Bernoulli terms would reach inf * 0).
    An s <= 1 raises :class:`DivergentSeriesError`, a NaN or infinite s
    :class:`DomainError`.
    """
    if s <= 1:
        raise DivergentSeriesError(f"zeta partial sums diverge for s = {s} <= 1")
    if not math.isfinite(s):
        raise DomainError(f"zeta needs a finite s, got {s}")
    if s >= 54.0:
        return 1.0
    n = _ZETA_TERMS
    total = math.fsum(map(math.pow, count(1.0), repeat(-s, n)))
    total += n ** (1.0 - s) / (s - 1.0) - 0.5 * n ** -s
    pochhammer = s
    for k, b2k in enumerate(_BERNOULLI_EVEN, start=1):
        total += b2k / math.factorial(2 * k) * pochhammer * n ** (-s - 2 * k + 1)
        pochhammer *= (s + 2 * k - 1) * (s + 2 * k)
    return total


def energy_density_image_sum(L: float, n_terms: int = DEFAULT_IMAGE_TERMS) -> SeriesResult:
    """Casimir energy density from the image sum -(1/16 pi^2 L^4) sum 1/n^4.

    Converges to -pi^2/(1440 L^4); the bound 1/(3 N^3) on the omitted tail
    comes from the integral comparison test. At most MAX_IMAGE_TERMS terms.
    """
    check_geometry(L)
    n_terms = check_integer(n_terms, "n_terms")
    if n_terms > MAX_IMAGE_TERMS:
        raise DomainError(f"n_terms must be at most {MAX_IMAGE_TERMS}, got {n_terms}")
    return tail_bounded_power_sum(4.0, -1.0 / (16.0 * math.pi ** 2 * L ** 4), n_terms)


def abel_plana_regularized_power_sum(
    p: int, quad: QuadratureSpec = QuadratureSpec()
) -> SeriesResult:
    """Abel-Plana value of the (divergent) sum over n^p, p a positive integer.

    Only the branch-cut integral survives dropping the divergent pieces:

        -2 sin(p pi/2) int_0^inf t^p / (e^{2 pi t} - 1) dt
            = -2 sin(p pi/2) Gamma(p+1) zeta(p+1) / (2 pi)^{p+1}.

    Even p gives exactly zero; the sine is resolved from p mod 4 so no
    floating-point cancellation enters; that exact zero counts as one term.
    At most MAX_ABEL_PLANA_EXPONENT, past which t^p overflows.
    """
    p = check_integer(p, "exponent")
    if not 1 <= p <= MAX_ABEL_PLANA_EXPONENT:
        raise DomainError(f"exponent must be an integer in [1, {MAX_ABEL_PLANA_EXPONENT}], "
                          f"got {p}")
    if p % 2 == 0:
        return SeriesResult(0.0, 0.0, 1)
    sign = 1.0 if p % 4 == 1 else -1.0
    two_pi, expm1 = 2.0 * math.pi, math.expm1
    scale = max(1.0, p / two_pi)  # integrated in t / scale, so the peak t ~ p / (2 pi) is ~1

    def branch_cut(tau: float) -> float:
        t = scale * tau
        w = two_pi * t
        if w > 700.0:  # e^w overflows a double; the term is < 1e-290 here
            return 0.0
        return t ** p / expm1(w) * scale  # divided first: t^p alone nears the largest double

    integral = integrate_1d(branch_cut, Interval(0.0, math.inf), quad)
    return integral.scaled(-2.0 * sign)


def energy_per_area_abel_plana(
    L: float, quad: QuadratureSpec = QuadratureSpec()
) -> SeriesResult:
    """Scalar (one polarization) Casimir energy per unit area via Abel-Plana.

    The mode sum reduces to the p = 3 regularized power sum with prefactor
    -pi^2/(12 L^3), giving -pi^2/(1440 L^3).
    """
    check_geometry(L)
    return abel_plana_regularized_power_sum(3, quad).scaled(-(math.pi ** 2) / (12.0 * L ** 3))


class SchemeComparison(FrozenValue):
    """Per-scheme scalar energy per area and their worst pairwise spread."""

    __slots__ = ("energy_per_area", "max_relative_discrepancy")

    def __init__(self, energy_per_area: dict[SchemeKind, SeriesResult],
                 max_relative_discrepancy: float) -> None:
        super().__init__(energy_per_area, max_relative_discrepancy)


def compare_schemes(
    L: float,
    n_terms: int = DEFAULT_IMAGE_TERMS,
    quad: QuadratureSpec = QuadratureSpec(),
) -> SchemeComparison:
    """Evaluate the scalar energy per area by all three regulators.

    ``n_terms`` applies to the image sum only, ``quad`` to Abel-Plana only.
    Returns every value plus the maximum pairwise discrepancy relative to
    the largest magnitude among the three. Package errors propagate annotated
    with the scheme that produced them, any other exception unchanged.
    """
    check_geometry(L)
    routes = {
        # the image sum gives an energy density; E/A = eps * L
        SchemeKind.IMAGE_SUM: lambda: energy_density_image_sum(L, n_terms).scaled(L),
        SchemeKind.ABEL_PLANA: lambda: energy_per_area_abel_plana(L, quad),
        SchemeKind.ZETA_CLOSED_FORM: lambda: SeriesResult(
            -riemann_zeta(4.0) / (16.0 * math.pi ** 2 * L ** 3), 0.0, _ZETA_TERMS),
    }
    results: dict[SchemeKind, SeriesResult] = {}
    for kind in SchemeKind:
        try:
            results[kind] = routes[kind]()
        except CasimirError as exc:
            raise type(exc)(f"scheme {kind.value}: {exc}") from exc
    return SchemeComparison(results, relative_discrepancy([r.value for r in results.values()]))
