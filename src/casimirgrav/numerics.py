"""Deterministic numerical engine: adaptive tensor Gauss-Kronrod quadrature
on boxes of 1-3 axes (finite intervals, semi-infinite ones after a change of
variable), central finite differences, and partial sums with rigorous tail
bounds.

One adaptive loop serves every integral. A panel is a box with the 31-point
Kronrod rule evaluated once on it, on every axis; the 15-point Gauss rule
uses the Kronrod nodes at odd positions, so its estimate costs no extra
call, and the panel's error estimate is |Kronrod - Gauss|. The panels are
kept in a list, in the order they were made. The worst panel, the oldest
among equal errors, is split into its 2^d half-boxes (every axis bisected),
each a new panel. The reported value sums the Kronrod estimates; the bound
adds 64 u (u = 2^-53) times the quadrature of |f| to the panel estimates,
for the rounding of the sums, which |Kronrod - Gauss| does not see, and an
absolute term for gradual underflow, which no relative term sees once the
integral is subnormal.

The loop is split in two. The refinement yields its state (value, error,
integral of |f|, underflow term, evaluations) before each split, and stops
after the first state that every tolerance accepts or after the last split
allowed; it does not depend on the tolerance. The acceptance step returns
the first state that the caller's tolerance accepts. So a caller that keeps
an integrand's states, as Abel-Plana does for each exponent, answers any
tolerance with the bits that a run of its own would give.

All functions are pure. The only state here is two bounded caches of
constants: the tensor weights of a slab (every axis but the first) of a 2-
and of a 3-axis box, and the nodes of the most recently used axes, keyed on
their ends, which a call computes to the same doubles whether or not they
are cached. The library's one other state is ``regularization``'s memo of
the Abel-Plana states, at most 41 immutable states for each of 75
exponents. So every entry point is safe to call concurrently (integrands
supplied by callers must be reentrant themselves).
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import count, product, repeat, starmap
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, Sequence

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

_MAX_SPLITS = 40  # panel splits before ConvergenceError
# [lo, inf) mapped onto u in [0, 1) starts as these two panels
_SEMI_INFINITE_PANELS = (((0.0, 0.5),), ((0.5, 1.0),))

# QUADPACK's 31-point Kronrod extension of the 15-point Gauss-Legendre rule on
# [-1, 1] (qk31; Piessens et al., QUADPACK, 1983). The rule is symmetric about
# 0: its 16 non-negative nodes in descending order, the roots of the Stieltjes
# polynomial E_16 alternating with those of P_15, which end with 0; their
# interpolatory Kronrod weights; and the Gauss weights of the P_15 roots
# (every second node here, from the second), 2 / ((1 - x^2) P_15'(x)^2). Each
# is the double nearest its 50-digit value.
_K31_NODES = (
    0.9980022986933971, 0.9879925180204854, 0.9677390756791391, 0.937273392400706,
    0.8972645323440819, 0.8482065834104272, 0.790418501442466, 0.7244177313601701,
    0.650996741297417, 0.5709721726085388, 0.4850818636402397, 0.3941513470775634,
    0.29918000715316884, 0.20119409399743451, 0.1011420669187175, 0.0,
)
_K31_WEIGHTS = (
    0.005377479872923349, 0.015007947329316122, 0.02546084732671532, 0.03534636079137585,
    0.04458975132476488, 0.05348152469092809, 0.06200956780067064, 0.06985412131872826,
    0.07684968075772038, 0.08308050282313302, 0.08856444305621176, 0.09312659817082532,
    0.09664272698362368, 0.09917359872179196, 0.10076984552387559, 0.10133000701479154,
)
_G15_WEIGHTS = (
    0.03075324199611727, 0.07036604748810812, 0.10715922046717194, 0.13957067792615432,
    0.16626920581699392, 0.1861610000155622, 0.19843148532711158, 0.2025782419255613,
)


class Interval(FrozenValue):
    """Integration interval ``[lo, hi]`` with a finite ``lo``; ``hi = inf``
    makes it semi-infinite. An int end past the double range raises
    :class:`DomainError`, as an infinite ``lo`` does."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float = math.inf) -> None:
        # compared exactly, and before the ends are formatted or passed to
        # math.isinf, which raises on an int past the double range
        if sys.float_info.max < abs(lo) < math.inf or sys.float_info.max < abs(hi) < math.inf:
            raise DomainError("interval ends must lie in the double range")
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
    fixed rule (31 Gauss-Kronrod nodes per axis, at most 40 panel splits)."""

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
      |Kronrod estimate - Gauss estimate|, plus 64 u (u = 2^-53) times the
      quadrature of |f| for the rounding of the sums, plus, for gradual
      underflow, 2^-1074 per evaluation times the largest starting box's
      half-volume and 2^-1074 per evaluated box (31^-d per evaluation on d
      axes); integrand evaluations.
    - Abel-Plana at even exponents: 0, the value being exactly zero; 1.
    - the zeta closed form in ``compare_schemes``: 0; the 50 terms of the
      Euler-Maclaurin sum behind ``riemann_zeta``.

    Results combine only through :meth:`scaled`: a constant factor c gives
    (c value, |c| bound, terms). A result is always finite: a value or bound
    that leaves the double range, or a ``terms_used`` that is not an integer,
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


_POINTS = 2 * len(_K31_NODES) - 1  # Kronrod nodes per axis
# the 31 nodes on [-1, 1] in ascending order and their Kronrod weights; the
# Gauss weights of the nodes at odd positions, _NODES[1::2], in the same order
_NODES = tuple(-x for x in _K31_NODES[:-1]) + _K31_NODES[::-1]
_WEIGHTS = _K31_WEIGHTS[:-1] + _K31_WEIGHTS[::-1]
_GAUSS_WEIGHTS = _G15_WEIGHTS[:-1] + _G15_WEIGHTS[::-1]


@lru_cache(maxsize=None)
def _slab_weights(axes: int) -> tuple[tuple[float, ...], tuple[float, ...], tuple[int, ...]]:
    """The ``axes``-fold tensor products of the Kronrod and of the Gauss
    weights, in :func:`itertools.product` order, and the positions of the
    Gauss nodes among the Kronrod ones in that order."""
    gauss_index = (0,)
    for _ in range(axes):
        gauss_index = tuple([_POINTS * k + i for k in gauss_index for i in range(1, _POINTS, 2)])
    return (tuple(math.prod(ws) for ws in product(_WEIGHTS, repeat=axes)),
            tuple(math.prod(ws) for ws in product(_GAUSS_WEIGHTS, repeat=axes)),
            gauss_index)


@lru_cache(maxsize=128)
def _axis_nodes(lo: float, hi: float) -> tuple[tuple[float, ...], float]:
    """The 31 nodes on the axis ``[lo, hi]`` and its half-width.

    Cached on ``(lo, hi)``: an adaptive run meets each axis of a box again in
    its half-boxes' siblings, and callers integrate over the same intervals
    call after call. Ends equal by ``==`` (-0.0 and 0.0, an int and its
    float) give the same doubles here, so a cached entry is what a fresh call
    returns. Two ends whose sum leaves the double range give non-finite
    nodes, which :func:`_box_sums` refuses unless ``f`` is finite there.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return tuple([mid + half * x for x in _NODES]), half


def _box_sums(f, box) -> tuple[float, float, float, float]:
    """Kronrod and Gauss estimates of the integral of ``f`` over ``box``, one
    ``(lo, hi)`` per axis, the Kronrod estimate of the integral of |f|, and
    the box's half-volume, which scales all three.

    One axis sums its 31 products w f with :func:`math.fsum`. On more axes
    the evaluations stream one slab at a time, a slab being the nodes that
    share a node of the first axis: its sums over the other axes run in
    order, and the 31 slab sums, each times its first-axis weight, go to
    :func:`math.fsum`. Every weight is positive, so |w f| is w |f| to the bit.
    """
    xs, scale = _axis_nodes(*box[0])
    if len(box) == 1:
        ys = list(map(f, xs))
        k_terms = list(map(mul, _WEIGHTS, ys))
        g_terms = map(mul, _GAUSS_WEIGHTS, ys[1::2])
        a_terms = map(abs, k_terms)
    else:
        inner = []
        for lo, hi in box[1:]:
            nodes, half = _axis_nodes(lo, hi)
            inner.append(nodes)
            scale *= half
        k_weights, g_weights, g_index = _slab_weights(len(inner))
        k_terms, g_terms, a_terms = [], [], []
        for i, x in enumerate(xs):
            ys = list(starmap(f, product((x,), *inner)))
            total = 0.0
            absolute = 0.0
            for w, y in zip(k_weights, ys):
                y *= w
                total += y
                absolute += abs(y)
            k_terms.append(_WEIGHTS[i] * total)
            a_terms.append(_WEIGHTS[i] * absolute)
            if i % 2:
                total = 0.0
                for w, y in zip(g_weights, map(ys.__getitem__, g_index)):
                    total += w * y
                g_terms.append(_GAUSS_WEIGHTS[i // 2] * total)
    try:
        gross = math.fsum(a_terms) * scale
        kronrod = math.fsum(k_terms)
        gauss = math.fsum(g_terms)
    except (OverflowError, ValueError):  # a sum past the double range, or inf - inf
        gross = math.inf
    # a NaN or infinite value anywhere, or a box volume or integral past the
    # double range, leaves the scaled sum of |f| non-finite
    if not math.isfinite(gross):
        raise DomainError(f"integral is not finite on the box {box}")
    return scale * kronrod, scale * gauss, gross, scale


def _panel(f, box) -> tuple:
    """Panel ``(error, value, gross, box, scale)`` of ``box``: its Kronrod
    estimate as value, |Kronrod - Gauss| as error, the estimate of the
    integral of |f| and the box's half-volume."""
    kronrod, gauss, gross, scale = _box_sums(f, box)
    return abs(kronrod - gauss), kronrod, gross, box, scale


def _refinements(f, boxes: Sequence[tuple]) -> Iterator[tuple[float, float, float, float, int]]:
    """The states of the adaptive tensor Gauss-Kronrod quadrature of ``f``
    over ``boxes``, all with the same number of axes; see the module
    docstring.

    Each state ``(total, err, gross, underflow, evals)`` comes before a
    split. The last is the first that every tolerance accepts, or the one
    after ``_MAX_SPLITS`` splits. A consumer that stops early makes no
    further evaluation.
    """
    dim = len(boxes[0])
    points = _POINTS ** dim
    panels = [_panel(f, box) for box in boxes]
    # every later box lies inside one of these, with a smaller scaling
    half_volume = max([p[4] for p in panels])
    evals = len(boxes) * points

    splits = 0
    while True:
        total = math.fsum([p[1] for p in panels])
        err = math.fsum([p[0] for p in panels])
        gross = math.fsum([p[2] for p in panels])
        # 64 u gross, u = eps / 2: where the rule is exact, Kronrod and Gauss
        # can agree to the bit while their rounding does not vanish. Below the
        # normal range that term underflows to 0, so each evaluation adds
        # 2 eta, for f's last product and its weight's, times its box's
        # half-volume, and each box 2 eta for the products that scale it;
        # nothing when every w |f| is 0, which the rule sums exactly. A
        # slab's product by its first-axis weight fits in the first part:
        # the weights of a box sum to 2^d, far below its 31^d evaluations.
        underflow = _TINY * evals * (half_volume + 1.0 / points) if gross else 0.0
        yield total, err, gross, underflow, evals
        if err <= max(64.0 * _EPS * gross, underflow) or splits >= _MAX_SPLITS:
            return
        worst = max(panels, key=itemgetter(0))  # the oldest of equal errors
        panels.remove(worst)
        bisected = [((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)) for lo, hi in worst[3]]
        panels.extend([_panel(f, half) for half in product(*bisected)])
        evals += 2 ** dim * points
        splits += 1


def _accepted(states: Iterable[tuple], spec: QuadratureSpec) -> SeriesResult:
    """The first of ``states`` (see :func:`_refinements`) that ``spec``
    accepts, as a :class:`SeriesResult`."""
    for total, err, gross, underflow, evals in states:
        # The second and third acceptance branches stop refinement once the
        # estimated error sits at the rounding noise of the accumulated
        # quadrature sums; below that level the relative target is unattainable.
        if err <= max(spec.relative_tolerance * abs(total), 64.0 * _EPS * gross, underflow):
            return SeriesResult(total, err + 32.0 * _EPS * gross + underflow, evals)
    raise ConvergenceError(
        f"quadrature did not reach relative tolerance "
        f"{spec.relative_tolerance:g} within {_MAX_SPLITS} "
        f"subdivisions (estimated error {err:.3e} on value {total:.6e})"
    )


def _states_1d(f: Callable[[float], float], iv: Interval) -> Iterator[tuple]:
    """The refinement states of ``f`` over ``iv``, a semi-infinite one
    mapped onto ``u in [0, 1)``; see :func:`integrate_1d`."""
    if not iv.is_semi_infinite:
        return _refinements(f, [((float(iv.lo), float(iv.hi)),)])

    lo = iv.lo

    def mapped(u: float) -> float:
        den = 1.0 - u
        return f(lo + u / den) / (den * den)

    return _refinements(mapped, _SEMI_INFINITE_PANELS)


def integrate_1d(
    f: Callable[[float], float],
    iv: Interval,
    spec: QuadratureSpec = QuadratureSpec(),
) -> SeriesResult:
    """Integrate ``f`` over ``iv`` with adaptive Gauss-Kronrod panels.

    Finite intervals start as a single panel and are bisected where the
    31-point Kronrod and the embedded 15-point Gauss estimates disagree most.
    Semi-infinite intervals are mapped onto ``u in [0, 1)`` through
    ``t = lo + u/(1-u)`` and start as the two panels [0, 1/2] and [1/2, 1];
    the refinement finds where the integrand lives, so no decay rate is
    needed. The rule suits integrands that decay smoothly from a peak near
    unit scale; its bound holds for t^91 e^{-t} at 1e-4 and 1e-3 and for
    sin(10 t) e^{-t} at 1e-6 and 1e-9, but a peak much farther out or faster
    oscillation can miss it or exhaust the split budget, so a caller
    rescales such an integrand, as Abel-Plana does. Nodes never touch
    interval endpoints, so integrable endpoint singularities (0/0 limits)
    are tolerated.

    Args:
      f: integrand, finite on the interior of ``iv``.
      iv: integration interval.
      spec: relative tolerance; see :class:`QuadratureSpec`.

    Returns:
      :class:`SeriesResult` with the summed |Kronrod - Gauss| estimate plus
      64 u (u = 2^-53) times the quadrature of |f| and a gradual-underflow
      term as bound, and the number of integrand evaluations as
      ``terms_used``.

    Raises:
      DomainError: if ``f`` produces NaN/Inf at a quadrature node.
      ConvergenceError: if the subdivision budget is exhausted.
    """
    return _accepted(_states_1d(f, iv), spec)


def integrate_nd(
    f: Callable[..., float],
    box: Sequence[Interval],
    spec: QuadratureSpec = QuadratureSpec(),
) -> SeriesResult:
    """Adaptive tensor-product quadrature over a finite box of dimension 1-3.

    The same adaptive rule as :func:`integrate_1d`, on boxes: each panel is
    evaluated once on its 31^d Kronrod nodes, its Kronrod estimate compared
    against the Gauss estimate on the 15^d nodes among them, and the panel
    with the largest disagreement is split into its 2^d half-boxes (every
    axis bisected). ``f`` is called with one positional float per axis,
    ``f(x0, ..., x_{n-1})``. The reported bound is the sum of those
    disagreements over all panels, after at most 40 panel splits, plus
    64 u (u = 2^-53) times the quadrature of |f| for the rounding of the
    sums and a gradual-underflow term.
    """
    ivs = list(box)
    if not 1 <= len(ivs) <= 3:
        raise DomainError(f"integrate_nd supports 1-3 axes, got {len(ivs)}")
    for iv in ivs:
        if iv.is_semi_infinite:
            raise DomainError("integrate_nd requires finite intervals on every axis")
    # as doubles, so that no node or bisection adds two int ends exactly
    return _accepted(
        _refinements(f, [tuple([(float(iv.lo), float(iv.hi)) for iv in ivs])]), spec)


def central_diff(f: Callable[[float], float], x: float, h: float) -> float:
    """Second-order central difference ``(f(x+h) - f(x-h)) / (2h)``.

    The caller owns the step ``h > 0``, which balances truncation, of order
    h^2, against rounding, of order eps / h. Raises :class:`DomainError` on a
    step that is not positive and on NaN/Inf from ``f``.
    """
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
