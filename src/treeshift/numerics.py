"""Exact rational helpers: rising factorials, finite differences, disc integrals.

Everything that feeds an identity check stays exact.  The finite-difference
checks bring their inputs once onto integer numerators over a common
denominator, compute on those integers, and build a ``fractions.Fraction``
only for a value they return; floating point enters only through the
Gauss-Legendre cross-check of the radial integrals.  Likewise the
depth-only ratios (a)_n/(b)_n come as integer pairs: for integer bases
they telescope to (lo)_m/(lo+n)_m or its reciprocal, m = |b - a|, two
products of m factors, and the moving one takes one exact integer step
per n.  A pair's quotient u / v is the correctly rounded double of the
ratio, the same as ``float`` of its ``Fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import IndexOutOfRange


def pochhammer(x: int | Fraction, k: int) -> Fraction:
    """Rising factorial x(x+1)...(x+k-1); 1 when k = 0.

    The base must be at least 1 (integer or exact rational); nothing in
    this package evaluates the gamma-function extension.
    """
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if x < 1:
        raise ValueError("base must be at least 1")
    result = Fraction(1)
    for i in range(k):
        result *= x + i
    return result


def pochhammer_ratio(a: int | Fraction, b: int | Fraction, k: int) -> Fraction:
    """(a)_k / (b)_k in lowest terms."""
    return pochhammer(a, k) / pochhammer(b, k)


def pochhammer_ratio_terms(a: int | Fraction, b: int | Fraction, order: int) -> Iterator[tuple[int, int]]:
    """Yield integers (u, v) with u / v = (a)_n / (b)_n for n = 0..order, not in lowest terms.

    Integer bases telescope: with lo, hi = sorted((a, b)) and m = hi - lo,
    (a)_n / (b)_n is (lo)_m / (lo+n)_m or its reciprocal, so one product is
    fixed and the other moves by the exact step Q_(n+1) = Q_n (hi+n) // (lo+n);
    both stay below (hi+order)^m.  Other rational bases take the step
    c_(n+1) = c_n (a+n)/(b+n) in ``Fraction``.
    """
    if a < 1 or b < 1:
        raise ValueError("bases must be at least 1")
    a, b = Fraction(a), Fraction(b)
    if a.denominator == b.denominator == 1:
        lo, hi = sorted((int(a), int(b)))
        fixed = moving = math.prod(range(lo, hi))
        rising = a > b  # the moving product is the numerator
        for n in range(order + 1):
            yield (moving, fixed) if rising else (fixed, moving)
            moving = moving * (hi + n) // (lo + n)
        return
    c = Fraction(1)
    for n in range(order + 1):
        yield c.numerator, c.denominator
        c = c * (a + n) / (b + n)


def pochhammer_ratios(a: int | Fraction, b: int | Fraction, order: int) -> Iterator[Fraction]:
    """Yield (a)_n / (b)_n for n = 0..order in lowest terms, from ``pochhammer_ratio_terms``."""
    for u, v in pochhammer_ratio_terms(a, b, order):
        yield Fraction(u, v)


def _common_numerators(values: Sequence) -> tuple[list[int], int]:
    """Numerators over D = lcm of the denominators, and D; each value is
    converted exactly with ``Fraction``."""
    fractions = [Fraction(x) for x in values]
    denominator = math.lcm(*(x.denominator for x in fractions))
    return [x.numerator * (denominator // x.denominator) for x in fractions], denominator


def alternating_binomial_sum(
    seq: Sequence[Fraction], q: int, at: int = 0
) -> Fraction:
    """Signed binomial sum over a window: sum_k (-1)^k C(q,k) seq[at+k].

    This is (-1)^q times the q-th forward difference at ``at``; it
    annihilates any sequence that is polynomial of degree < q.
    """
    if q < 0 or at < 0:
        raise ValueError("q and at must be nonnegative")
    if at + q >= len(seq):
        raise IndexOutOfRange(f"window [{at}, {at + q}] exceeds length {len(seq)}")
    numerators, denominator = _common_numerators([seq[at + k] for k in range(q + 1)])
    total = sum((-1) ** k * math.comb(q, k) * n for k, n in enumerate(numerators))
    return Fraction(total, denominator)


@dataclass(frozen=True)
class HausdorffReport:
    """Outcome of a complete-monotonicity check.

    ``violation`` is the first (difference order, index, value) triple with
    the wrong sign, or None when the check passed.
    """

    passed: bool
    violation: tuple[int, int, Fraction] | None = None


def hausdorff_check(seq: Sequence[Fraction], order: int) -> HausdorffReport:
    """Verify complete monotonicity up to the given difference order.

    A sequence of moments of a measure on [0, 1] satisfies
    (-1)^m (delta^m seq)_k >= 0 for every m and k; the comparison is exact.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order >= len(seq):
        raise IndexOutOfRange(f"order {order} needs at least {order + 1} values")
    # row m holds (-1)^m delta^m seq as numerators over the common
    # denominator, so every entry of every row must be nonnegative
    current, denominator = _common_numerators(seq)
    for m in range(order + 1):
        if min(current) < 0:
            k = next(k for k, value in enumerate(current) if value < 0)
            violation = (m, k, Fraction((-1) ** m * current[k], denominator))
            return HausdorffReport(passed=False, violation=violation)
        current = [a - b for a, b in zip(current, current[1:])]
    return HausdorffReport(passed=True)


def radial_integral(coefficients: Mapping[int, Fraction]) -> Fraction:
    """Integral over the unit disc, normalized area measure, of a radial
    polynomial given by its coefficients {j: c} of |z|^(2j).

    Uses the exact moments int |z|^(2j) dA = 1/(j+1).
    """
    return sum((Fraction(c) / (j + 1) for j, c in coefficients.items()), start=Fraction(0))


@cache
def _gauss_legendre_unit() -> tuple[tuple[float, ...], tuple[float, ...]]:
    x, w = np.polynomial.legendre.leggauss(64)
    return tuple((x + 1.0) / 2.0), tuple(w / 2.0)


def radial_integral_quadrature(g: Callable[[float], float]) -> float:
    """Gauss-Legendre value of the disc integral of a radial function.

    ``g`` receives t = |z|^2; with the normalized area measure the disc
    integral reduces to the integral of g over [0, 1].  64 nodes are exact
    for polynomials in t up to degree 127.
    """
    points, weights = _gauss_legendre_unit()
    return float(sum(w * g(t) for t, w in zip(points, weights)))
