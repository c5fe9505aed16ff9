"""Deterministic numerical engine: adaptive tensor Gauss-Legendre quadrature
on boxes of 1-3 axes (finite intervals, semi-infinite ones after a change of
variable), central finite differences, and partial sums with rigorous tail
bounds.

One adaptive loop serves every integral. A panel is a box with the rule
already evaluated on it and on its 2^d half-boxes; its error estimate is
|sum of halves - whole|. The panels are kept in a list, in the order they
were made. The worst panel, the oldest among equal errors, is split into
its half-boxes, each refined against the value it already carries, so no
box is evaluated twice. The reported bound adds 64 u (u = 2^-53) times the
quadrature of |f| to the panel estimates, for the rounding of the sums,
which |sum of halves - whole| does not see, and an absolute term for
gradual underflow, which no relative term sees once the integral is
subnormal.

All functions are pure; nothing here keeps mutable state, so every entry
point is safe to call concurrently (integrands supplied by callers must be
reentrant themselves).
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import count, product, repeat, starmap
from operator import itemgetter
from typing import Callable, Sequence

from .errors import (ConvergenceError, DivergentSeriesError, DomainError, FrozenValue,
                     check_finite, check_integer)

__all__ = [
    "Interval",
    "QuadratureSpec",
    "SeriesResult",
    "integrate_1d",
    "integrate_nd",
    "central_diff",
    "tail_bounded_power_sum",
]

_EPS = sys.float_info.epsilon
# spacing of the subnormals, 2 eta: a product that underflows is off by at most
# eta = 2^-1075 (Higham, Accuracy and Stability of Numerical Algorithms, 2002, §2.1)
_TINY = 2.0 ** -1074
_CBRT_EPS = _EPS ** (1.0 / 3.0)

_MAX_SPLITS = 40  # panel splits before ConvergenceError
# [lo, inf) mapped onto u in [0, 1) starts as these two panels
_SEMI_INFINITE_PANELS = (((0.0, 0.5),), ((0.5, 1.0),))

# The 8 positive nodes of the 16-point Gauss-Legendre rule on [-1, 1] (the
# roots of P_16) and their weights 2 / ((1 - x^2) P_16'(x)^2), each the double
# nearest its 50-digit value; the rule is symmetric about 0.
_GL16_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GL16_WEIGHTS = (
    0.1894506104550685, 0.18260341504492358, 0.16915651939500254, 0.14959598881657674,
    0.12462897125553388, 0.09515851168249279, 0.062253523938647894, 0.027152459411754096,
)


class Interval(FrozenValue):
    """Integration interval ``[lo, hi]`` with a finite ``lo``; ``hi = inf``
    makes it semi-infinite."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float = math.inf) -> None:
        if not lo < hi:
            raise DomainError(f"interval requires lo < hi, got [{lo}, {hi}]")
        if math.isinf(lo):
            raise DomainError("lower endpoint must be finite")
        super().__init__(lo, hi)

    @property
    def is_semi_infinite(self) -> bool:
        return math.isinf(self.hi)


class QuadratureSpec(FrozenValue):
    """Relative tolerance of the adaptive quadrature, the one setting of its
    fixed rule (16 Gauss-Legendre nodes per axis, at most 40 panel splits)."""

    __slots__ = ("relative_tolerance",)

    def __init__(self, relative_tolerance: float = 1e-9) -> None:
        if not 0.0 < relative_tolerance <= 1e-2:
            raise DomainError("relative_tolerance must lie in (0, 1e-2]")
        super().__init__(relative_tolerance)


class SeriesResult(FrozenValue):
    """Value of a limit process together with an error bound and its work.

    The one result type of the package. ``error_bound`` bounds
    ``|value - limit|``; ``terms_used`` counts the work done. Per producer:

    - partial sums (:func:`tail_bounded_power_sum`, the image sum): the
      analytic integral-comparison tail bound; the number of series terms.
    - quadrature (:func:`integrate_1d`, :func:`integrate_nd`, Abel-Plana,
      the quadrature energy shift): the sum over panels of
      |half-box refinement - single-box estimate|, plus 64 u (u = 2^-53)
      times the quadrature of |f| for the rounding of the sums, plus
      2^-1074 per evaluation, times the largest starting box's
      half-volume plus 1/16, for gradual underflow; integrand evaluations.
    - Abel-Plana at even exponents: 0, the value being exactly zero; 1.
    - the zeta closed form in ``compare_schemes``: 0; the 50 terms of the
      Euler-Maclaurin sum behind ``riemann_zeta``.

    Results combine only through :meth:`scaled` and ``+``: a constant
    factor c gives (c value, |c| bound, terms), and a sum adds values,
    bounds and terms. A result is always finite: a value or bound that
    leaves the double range, or a ``terms_used`` that is not an integer,
    raises :class:`DomainError` on construction.
    """

    __slots__ = ("value", "error_bound", "terms_used")

    def __init__(self, value: float, error_bound: float, terms_used: int) -> None:
        check_finite(value, "result value")
        check_finite(error_bound, "error bound")
        if error_bound < 0:
            raise DomainError("error_bound must be non-negative")
        terms_used = check_integer(terms_used, "terms_used")
        if terms_used < 1:
            raise DomainError("terms_used must be a positive integer")
        super().__init__(value, error_bound, terms_used)

    def scaled(self, c: float) -> SeriesResult:
        """This result times the exact constant ``c``."""
        return SeriesResult(c * self.value, abs(c) * self.error_bound, self.terms_used)

    def __add__(self, other: SeriesResult) -> SeriesResult:
        return SeriesResult(self.value + other.value, self.error_bound + other.error_bound,
                            self.terms_used + other.terms_used)


@lru_cache(maxsize=None)
def _gauss_legendre(dim: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The 16 Gauss-Legendre nodes on [-1, 1] in ascending order and the
    ``dim``-fold tensor product of their weights, in :func:`itertools.product`
    order."""
    nodes = tuple(-x for x in reversed(_GL16_NODES)) + _GL16_NODES
    weights = tuple(reversed(_GL16_WEIGHTS)) + _GL16_WEIGHTS
    return nodes, tuple(math.prod(ws) for ws in product(weights, repeat=dim))


def _box_sums(f, box, nodes, weights) -> tuple[float, float, float]:
    """Tensor Gauss-Legendre estimate of (integral, integral of |f|) on
    ``box``, one ``(lo, hi)`` per axis, and the box's half-volume, which
    scales both."""
    axes = []
    scale = 1.0
    for lo, hi in box:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        axes.append([mid + half * x for x in nodes])
        scale *= half
    total = 0.0
    gross = 0.0
    for w, y in zip(weights, starmap(f, product(*axes))):
        total += w * y
        gross += w * abs(y)
    # a NaN or infinite value anywhere, or a box volume or integral past the
    # double range, leaves the scaled sum of |f| non-finite
    gross *= scale
    if not math.isfinite(gross):
        raise DomainError(f"integral is not finite on the box {box}")
    return scale * total, gross, scale


def _refined_panel(f, box, coarse: float, nodes, weights) -> tuple:
    """Panel ``(error, value, gross, halves)`` of ``box``: ``value`` sums the
    2^d half-boxes, ``halves`` holds ``(half-box, value, gross, scale)`` for each,
    and ``error`` is the difference against ``coarse``, the single-box
    estimate."""
    bisected = [((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)) for lo, hi in box]
    halves = [(half, *_box_sums(f, half, nodes, weights)) for half in product(*bisected)]
    fine = math.fsum([h[1] for h in halves])
    return abs(fine - coarse), fine, math.fsum([h[2] for h in halves]), halves


def _adaptive(f, boxes: Sequence[tuple], spec: QuadratureSpec) -> SeriesResult:
    """Adaptive tensor Gauss-Legendre quadrature of ``f`` over ``boxes``, all
    with the same number of axes; see the module docstring."""
    dim = len(boxes[0])
    nodes, weights = _gauss_legendre(dim)
    # every later box lies inside one of these, with a smaller scaling
    half_volume = 0.0
    panels = []
    for box in boxes:
        coarse, _, scale = _box_sums(f, box, nodes, weights)
        half_volume = max(half_volume, scale)
        panels.append(_refined_panel(f, box, coarse, nodes, weights))
    evals = len(boxes) * (1 + 2 ** dim) * len(weights)

    splits = 0
    while True:
        total = math.fsum([p[1] for p in panels])
        err = math.fsum([p[0] for p in panels])
        gross = math.fsum([p[2] for p in panels])
        # The second acceptance branch stops refinement once the estimated
        # error sits at the rounding noise of the accumulated quadrature
        # sums; below that level the relative target is unattainable.
        if err <= max(spec.relative_tolerance * abs(total), 64.0 * _EPS * gross):
            # 64 u gross, u = eps / 2: where the rule is exact, fine and
            # coarse can agree to the bit while their rounding does not vanish.
            # Below the normal range that term underflows to 0, so each
            # evaluation adds 2 eta, for f's last product and its weight's, times
            # its box's half-volume, and each box 2 eta for the products that
            # scale it; nothing when every w |f| is 0, which the rule sums exactly.
            underflow = _TINY * evals * (half_volume + 1.0 / len(weights)) if gross else 0.0
            return SeriesResult(total, err + 32.0 * _EPS * gross + underflow, evals)
        if splits >= _MAX_SPLITS:
            raise ConvergenceError(
                f"quadrature did not reach relative tolerance "
                f"{spec.relative_tolerance:g} within {_MAX_SPLITS} "
                f"subdivisions (estimated error {err:.3e} on value {total:.6e})"
            )
        worst = max(panels, key=itemgetter(0))  # the oldest of equal errors
        panels.remove(worst)
        for half_box, coarse, _, _ in worst[3]:
            panels.append(_refined_panel(f, half_box, coarse, nodes, weights))
        evals += 4 ** dim * len(weights)
        splits += 1


def integrate_1d(
    f: Callable[[float], float],
    iv: Interval,
    spec: QuadratureSpec = QuadratureSpec(),
) -> SeriesResult:
    """Integrate ``f`` over ``iv`` with adaptive Gauss-Legendre panels.

    Finite intervals start as a single panel and are bisected where the
    two-half refinement disagrees most with the single-panel estimate.
    Semi-infinite intervals are mapped onto ``u in [0, 1)`` through
    ``t = lo + u/(1-u)`` and start as the two panels [0, 1/2] and [1/2, 1];
    the refinement finds where the integrand lives, so no decay rate is
    needed. The rule suits integrands that decay smoothly, such as
    t^k e^{-rt} for any rate r > 0; an integrand that oscillates many times
    per unit t (sin(10 t) e^{-t} and faster) can miss its bound or exhaust
    the split budget. Nodes never touch interval endpoints, so integrable
    endpoint singularities (0/0 limits) are tolerated.

    Args:
      f: integrand, finite on the interior of ``iv``.
      iv: integration interval.
      spec: relative tolerance; see :class:`QuadratureSpec`.

    Returns:
      :class:`SeriesResult` with the refinement error estimate plus
      64 u (u = 2^-53) times the quadrature of |f| and a gradual-underflow
      term as bound, and the number of integrand evaluations as
      ``terms_used``.

    Raises:
      DomainError: if ``f`` produces NaN/Inf at a quadrature node.
      ConvergenceError: if the subdivision budget is exhausted.
    """
    if not iv.is_semi_infinite:
        return _adaptive(f, [((iv.lo, iv.hi),)], spec)

    lo = iv.lo

    def mapped(u: float) -> float:
        den = 1.0 - u
        return f(lo + u / den) / (den * den)

    return _adaptive(mapped, _SEMI_INFINITE_PANELS, spec)


def integrate_nd(
    f: Callable[..., float],
    box: Sequence[Interval],
    spec: QuadratureSpec = QuadratureSpec(),
) -> SeriesResult:
    """Adaptive tensor-product quadrature over a finite box of dimension 1-3.

    The same adaptive rule as :func:`integrate_1d`, on boxes: each panel is
    compared against its 2^d half-boxes (every axis bisected), and the
    panel with the largest disagreement is split. ``f`` is called with one
    positional float per axis, ``f(x0, ..., x_{n-1})``. The reported bound
    is the sum of those disagreements over all panels, after at most 40
    panel splits, plus 64 u (u = 2^-53) times the quadrature of |f| for
    the rounding of the sums and a gradual-underflow term.
    """
    ivs = list(box)
    if not 1 <= len(ivs) <= 3:
        raise DomainError(f"integrate_nd supports 1-3 axes, got {len(ivs)}")
    for iv in ivs:
        if iv.is_semi_infinite:
            raise DomainError("integrate_nd requires finite intervals on every axis")
    return _adaptive(f, [tuple([(iv.lo, iv.hi) for iv in ivs])], spec)


def default_step(x: float) -> float:
    """Default finite-difference step ``eps^(1/3) |x|``, balancing truncation
    and rounding (Numerical Recipes, 3rd ed., section 5.7); ``eps^(1/3)`` at
    x = 0. Relative, so ``x +/- h`` keeps the sign of ``x``."""
    return _CBRT_EPS * (abs(x) or 1.0)


def central_diff(f: Callable[[float], float], x: float, h: float | None = None) -> float:
    """Second-order central difference ``(f(x+h) - f(x-h)) / (2h)``.

    The caller owns the step choice; ``h=None`` selects
    :func:`default_step`. Raises :class:`DomainError` on NaN/Inf from ``f``.
    """
    if h is None:
        h = default_step(x)
    if not h > 0:
        raise DomainError(f"step must be positive, got {h}")
    fp = f(x + h)
    fm = f(x - h)
    if not (math.isfinite(fp) and math.isfinite(fm)):
        raise DomainError(f"function not finite at {x} +/- {h}")
    return (fp - fm) / (2.0 * h)


def tail_bounded_power_sum(p: float, scale: float, n_terms: int) -> SeriesResult:
    """Partial sum ``sum_{n=1}^{N} scale / n^p`` with an integral tail bound.

    The terms are exactly the doubles ``n ** -p``: ``math.pow`` over a float
    counter (exact up to 2^53) ends in the same C library ``pow``, with no
    Python frame per term, and ``math.fsum`` rounds their sum correctly.
    The bound ``|scale| / ((p-1) N^{p-1})`` dominates the omitted tail by
    the integral comparison test, so ``error_bound`` is rigorous for the
    limit ``scale * zeta(p)``. ``n_terms`` must be an integer, and a NaN
    exponent or scale raises :class:`DomainError` naming it.
    """
    if p <= 1:
        raise DivergentSeriesError(f"sum of 1/n^p diverges for p = {p}")
    n_terms = check_integer(n_terms, "n_terms")
    if n_terms < 1:
        raise DomainError("n_terms must be a positive integer")
    if p != p or scale != scale:  # NaN; math.isnan raises on an int past the double range
        raise DomainError(f"exponent and scale must be numbers, got p = {p}, scale = {scale}")
    try:
        bound = abs(scale) / ((p - 1.0) * n_terms ** (p - 1.0))
    except OverflowError:
        raise DomainError(f"n_terms^(p - 1) in the tail bound overflows the double range "
                          f"for p = {p}, n_terms = {n_terms}") from None
    value = scale * math.fsum(map(math.pow, count(1.0), repeat(-p, n_terms)))
    return SeriesResult(value, bound, n_terms)


def relative_discrepancy(values: Sequence[float]) -> float:
    """Largest pairwise ``|a - b|`` over ``values``, relative to the largest
    magnitude among them; 0 when every value is zero.

    Rounding is monotone, so the largest rounded difference is the rounded
    ``max - min``. Raises :class:`DomainError` on an empty sequence or a
    NaN or infinite value, which have no discrepancy to report.
    """
    if len(values) == 0 or not all(map(math.isfinite, values)):
        raise DomainError(f"relative_discrepancy needs one or more finite values, got {values!r}")
    hi, lo = max(values), min(values)
    scale = max(hi, -lo)
    return (hi - lo) / scale if scale > 0 else 0.0
