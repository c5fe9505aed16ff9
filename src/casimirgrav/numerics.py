"""Deterministic numerical engine: adaptive Gauss-Legendre quadrature over
finite and semi-infinite intervals, tensor-product quadrature on boxes,
central finite differences, and partial sums with rigorous tail bounds.

All functions are pure; nothing here keeps mutable state, so every entry
point is safe to call concurrently (integrands supplied by callers must be
reentrant themselves).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DivergentSeriesError, DomainError

__all__ = [
    "Interval",
    "QuadratureSpec",
    "SeriesResult",
    "integrate_1d",
    "integrate_nd",
    "central_diff",
    "default_step",
    "tail_bounded_power_sum",
]

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Interval:
    """Integration interval ``[lo, hi]``, with ``hi = inf`` allowed.

    Semi-infinite intervals must carry ``decay_rate``, a positive lower
    bound on the exponential decay rate of the integrand; it is used to
    place the initial panel boundaries after the variable change
    ``t = lo + u/(1-u)``.
    """

    lo: float
    hi: float = math.inf
    decay_rate: float | None = None

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DomainError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")
        if math.isinf(self.lo):
            raise DomainError("lower endpoint must be finite")
        if math.isinf(self.hi):
            if self.decay_rate is None or not self.decay_rate > 0:
                raise DomainError(
                    "semi-infinite interval requires a positive exponential decay_rate hint"
                )

    @property
    def is_semi_infinite(self) -> bool:
        return math.isinf(self.hi)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the adaptive quadrature.

    ``base_order`` is the number of Gauss-Legendre nodes per panel;
    ``max_subdivisions`` caps the number of panel bisections.
    """

    relative_tolerance: float = 1e-9
    max_subdivisions: int = 40
    base_order: int = 16

    def __post_init__(self) -> None:
        if not 0.0 < self.relative_tolerance <= 1e-2:
            raise DomainError("relative_tolerance must lie in (0, 1e-2]")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be a positive integer")
        if self.base_order < 4:
            raise DomainError("base_order must be at least 4")


@dataclass(frozen=True)
class SeriesResult:
    """Value of a limit process together with an error bound and its work.

    The one result type of the package. ``error_bound`` bounds
    ``|value - limit|``; ``terms_used`` counts the work done. Per producer:

    - partial sums (:func:`tail_bounded_power_sum`, the image sum): the
      analytic integral-comparison tail bound; the number of series terms.
    - quadrature (:func:`integrate_1d`, :func:`integrate_nd`, Abel-Plana,
      the quadrature energy shift): the refinement error estimate;
      integrand evaluations.
    - Abel-Plana at even exponents: 0, the value being exactly zero; 1.
    - the zeta closed form in ``compare_schemes``: 0; the 50 terms of the
      Euler-Maclaurin sum behind ``riemann_zeta``.
    """

    value: float
    error_bound: float
    terms_used: int

    def __post_init__(self) -> None:
        if self.error_bound < 0:
            raise DomainError("error_bound must be non-negative")
        if self.terms_used < 1:
            raise DomainError("terms_used must be a positive integer")


@lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return tuple(nodes), tuple(weights)


def _panel_sums(f, a: float, b: float, nodes, weights) -> tuple[float, float]:
    """Gauss-Legendre estimate of (integral, integral of |f|) on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    gross = 0.0
    for x, w in zip(nodes, weights):
        y = f(mid + half * x)
        if not math.isfinite(y):
            raise DomainError(f"integrand returned {y!r} at x = {mid + half * x!r}")
        total += w * y
        gross += w * abs(y)
    return half * total, half * gross


@dataclass(order=True)
class _Panel:
    neg_error: float
    a: float = field(compare=False)
    b: float = field(compare=False)
    value: float = field(compare=False)
    gross: float = field(compare=False)


def _refined_panel(f, a: float, b: float, nodes, weights) -> _Panel:
    """Panel whose value comes from two half-panels; error is the
    difference against the single-panel estimate."""
    coarse, _ = _panel_sums(f, a, b, nodes, weights)
    mid = 0.5 * (a + b)
    left, gross_l = _panel_sums(f, a, mid, nodes, weights)
    right, gross_r = _panel_sums(f, mid, b, nodes, weights)
    fine = left + right
    return _Panel(-abs(fine - coarse), a, b, fine, gross_l + gross_r)


def _adaptive(f, boundaries: Sequence[float], spec: QuadratureSpec) -> SeriesResult:
    nodes, weights = _gauss_legendre(spec.base_order)
    evals_per_panel = 3 * spec.base_order
    heap: list[_Panel] = []
    evals = 0
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        heapq.heappush(heap, _refined_panel(f, a, b, nodes, weights))
        evals += evals_per_panel

    splits = 0
    while True:
        total = math.fsum(p.value for p in heap)
        err = math.fsum(-p.neg_error for p in heap)
        gross = math.fsum(p.gross for p in heap)
        # The second acceptance branch stops refinement once the estimated
        # error sits at the rounding noise of the accumulated quadrature
        # sums; below that level the relative target is unattainable.
        if err <= max(spec.relative_tolerance * abs(total), 64.0 * _EPS * gross):
            return SeriesResult(total, err, evals)
        if splits >= spec.max_subdivisions:
            raise ConvergenceError(
                f"quadrature did not reach relative tolerance "
                f"{spec.relative_tolerance:g} within {spec.max_subdivisions} "
                f"subdivisions (estimated error {err:.3e} on value {total:.6e})"
            )
        worst = heapq.heappop(heap)
        mid = 0.5 * (worst.a + worst.b)
        heapq.heappush(heap, _refined_panel(f, worst.a, mid, nodes, weights))
        heapq.heappush(heap, _refined_panel(f, mid, worst.b, nodes, weights))
        evals += 2 * evals_per_panel
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
    ``t = lo + u/(1-u)``; the decay hint fixes the point beyond which the
    integrand is below double-precision resolution, and the initial panels
    resolve everything before it. Nodes never touch interval endpoints, so
    integrable endpoint singularities (0/0 limits) are tolerated.

    Args:
      f: integrand, finite on the interior of ``iv``.
      iv: integration interval.
      spec: tolerance/budget; see :class:`QuadratureSpec`.

    Returns:
      :class:`SeriesResult` with the refinement error estimate as bound
      and the number of integrand evaluations as ``terms_used``.

    Raises:
      DomainError: if ``f`` produces NaN/Inf at a quadrature node.
      ConvergenceError: if the subdivision budget is exhausted.
    """
    if not iv.is_semi_infinite:
        return _adaptive(f, (iv.lo, iv.hi), spec)

    lo = iv.lo

    def mapped(u: float) -> float:
        den = 1.0 - u
        t = lo + u / den
        y = f(t) / (den * den)
        # exponential decay beats the quadratic Jacobian; treat overflow
        # of the intermediate as a genuine integrand failure only
        return y

    # e^{-rate * span} < 2^-60 beyond the truncation point
    span = 42.0 / iv.decay_rate
    u_cut = span / (1.0 + span)
    cuts = [u_cut * k / 8.0 for k in range(9)] + [1.0]
    return _adaptive(mapped, cuts, spec)


def integrate_nd(
    f: Callable[..., float],
    box: Sequence[Interval],
    spec: QuadratureSpec = QuadratureSpec(),
) -> SeriesResult:
    """Tensor-product quadrature over a finite box of dimension 1-3.

    The integral is iterated: the innermost axis is integrated by
    :func:`integrate_1d` for each fixed outer coordinate, each axis being
    refined adaptively to the same relative tolerance. ``f`` is called
    with one positional float per axis, ``f(x0, ..., x_{n-1})``.

    The reported bound combines the outer refinement estimate with the
    worst inner bound propagated through the outer interval length.
    """
    ivs = list(box)
    if not 1 <= len(ivs) <= 3:
        raise DomainError(f"integrate_nd supports 1-3 axes, got {len(ivs)}")
    for iv in ivs:
        if iv.is_semi_infinite:
            raise DomainError("integrate_nd requires finite intervals on every axis")

    evals = 0

    def level(axis: int, prefix: tuple[float, ...]) -> SeriesResult:
        nonlocal evals
        if axis == len(ivs) - 1:

            def innermost(x: float) -> float:
                nonlocal evals
                evals += 1
                return f(*prefix, x)

            return integrate_1d(innermost, ivs[axis], spec)

        inner_worst = 0.0

        def outer_integrand(x: float) -> float:
            nonlocal inner_worst
            res = level(axis + 1, prefix + (x,))
            inner_worst = max(inner_worst, res.error_bound)
            return res.value

        outer = integrate_1d(outer_integrand, ivs[axis], spec)
        width = ivs[axis].hi - ivs[axis].lo
        return SeriesResult(
            outer.value, outer.error_bound + width * inner_worst, outer.terms_used
        )

    top = level(0, ())
    return SeriesResult(top.value, top.error_bound, max(evals, 1))


def default_step(x: float) -> float:
    """Default finite-difference step, balancing truncation and rounding."""
    return max(1e-5, 1e-5 * abs(x))


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

    The bound ``|scale| / ((p-1) N^{p-1})`` dominates the omitted tail by
    the integral comparison test, so ``error_bound`` is rigorous for the
    limit ``scale * zeta(p)``.
    """
    if p <= 1:
        raise DivergentSeriesError(f"sum of 1/n^p diverges for p = {p}")
    if n_terms < 1:
        raise DomainError("n_terms must be a positive integer")
    value = scale * math.fsum(n ** -p for n in range(1, n_terms + 1))
    bound = abs(scale) / ((p - 1.0) * n_terms ** (p - 1.0))
    return SeriesResult(value, bound, n_terms)
