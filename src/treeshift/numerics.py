"""Exact rational helpers: the sequence c(k) = (q)_k / k!, finite differences, disc integrals.

Everything that feeds an identity check stays exact.  Every depth-only
number of the package is a ratio of one sequence, c(k) = (q)_k / k! =
C(k+q-1, k): ``binomial_ratios`` yields c(n+k) / c(n) as integer pairs (u, v),
binomial coefficients at integer q and one ``Fraction`` step per k at other
rational q, and ``binomial_table`` gives integers proportional to c over a
set of k.  A pair's quotient u / v is the correctly rounded double of the
ratio, the same as ``float`` of its ``Fraction``.  The finite-difference
checks take such pairs (their ``Fraction`` forms read each entry with
``as_integer_ratio``), bring them once onto integer numerators over a common
denominator, and build a ``fractions.Fraction`` only for a value they return;
floating point enters only through the Gauss-Legendre cross-check of the
radial integrals.  ``pochhammer`` and ``pochhammer_ratio`` are the plain
``Fraction`` products, an independent reference.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
    x = operator.index(x) if isinstance(x, numbers.Integral) else x  # no numpy dtype's wrapping sums
    result = Fraction(1)
    for i in range(k):
        result *= x + i
    return result


def pochhammer_ratio(a: int | Fraction, b: int | Fraction, k: int) -> Fraction:
    """(a)_k / (b)_k in lowest terms."""
    return pochhammer(a, k) / pochhammer(b, k)


def binomial_ratios(q: int | Fraction, n: int, order: int) -> Iterator[tuple[int, int]]:
    """Yield integers (u, v) with u / v = c(n+k) / c(n), c(k) = (q)_k / k! = C(k+q-1, k), for k = 0..order.

    At integer q each pair is C(n+k+q-1, q-1) against the fixed C(n+q-1, q-1), O(q)
    multiplications whatever n and k are; at other rational q one ``Fraction`` step
    c(k+1) = c(k) (q+k)/(k+1) per k, from c(n) / c(n) = 1.
    """
    if q.denominator == 1:
        m = int(q) - 1
        fixed = math.comb(n + m, m)
        for k in range(n, n + order + 1):
            yield math.comb(k + m, m), fixed
        return
    c = Fraction(1)
    for k in range(n, n + order + 1):
        yield c.numerator, c.denominator
        c = c * (q + k) / (k + 1)


def binomial_table(q: int | Fraction, ks: Iterable[int]) -> dict[int, int]:
    """Positive integers proportional to c(k) = (q)_k / k! = C(k+q-1, k), at each k of ``ks``.

    The table serves through its ratios: (l+1)_n / (l+q)_n = c(l) / c(l+n).
    At integer q each entry is c(k) itself, ``math.comb(k+q-1, q-1)``.  At
    other rational q one ``binomial_ratios`` walk runs from the smallest k to
    the largest, and the c(k) / c(smallest k) it keeps are scaled by the lcm of
    their denominators.
    """
    if q.denominator == 1:
        m = int(q) - 1
        return {k: math.comb(k + m, m) for k in ks}
    ks = set(ks)
    low = min(ks, default=0)
    walked = [(k, pair) for k, pair in enumerate(binomial_ratios(q, low, max(ks, default=-1) - low), low) if k in ks]
    scale = math.lcm(*(v for _k, (_u, v) in walked))
    return {k: u * (scale // v) for k, (u, v) in walked}


def _common_numerators(terms: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Numerators of integer pairs (u, v), v > 0, over D = lcm of the v's, and D."""
    denominator = math.lcm(*(v for _u, v in terms))
    return [u * (denominator // v) for u, v in terms], denominator


def _check_window(q: int, at: int, length: int) -> None:
    if q < 0 or at < 0:
        raise ValueError("q and at must be nonnegative")
    if at + q >= length:
        raise IndexOutOfRange(f"window [{at}, {at + q}] exceeds length {length}")


def alternating_binomial_sum(seq: Sequence[Fraction], q: int, at: int = 0) -> Fraction:
    """Signed binomial sum over a window: sum_k (-1)^k C(q,k) seq[at+k].

    This is (-1)^q times the q-th forward difference at ``at``; it
    annihilates any sequence that is polynomial of degree < q.
    """
    _check_window(q, at, len(seq))
    return alternating_binomial_sum_terms([x.as_integer_ratio() for x in seq[at : at + q + 1]], q)


def alternating_binomial_sum_terms(terms: Sequence[tuple[int, int]], q: int) -> Fraction:
    """``alternating_binomial_sum`` of the values u / v of integer pairs (u, v), v > 0, at 0."""
    _check_window(q, 0, len(terms))
    numerators, denominator = _common_numerators(terms[: q + 1])
    return Fraction(sum((-1) ** k * math.comb(q, k) * n for k, n in enumerate(numerators)), denominator)


@dataclass(frozen=True)
class HausdorffReport:
    """Outcome of a complete-monotonicity check.

    ``violation`` is the first (difference order, index, value) triple with
    the wrong sign, or None when the check passed.
    """

    passed: bool
    violation: tuple[int, int, Fraction] | None = None


def _check_order(order: int, length: int) -> None:
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order >= length:
        raise IndexOutOfRange(f"order {order} needs at least {order + 1} values")


def hausdorff_check(seq: Sequence[Fraction], order: int) -> HausdorffReport:
    """Verify complete monotonicity up to the given difference order.

    A sequence of moments of a measure on [0, 1] satisfies
    (-1)^m (delta^m seq)_k >= 0 for every m and k; the comparison is exact.
    """
    _check_order(order, len(seq))
    return hausdorff_check_terms([x.as_integer_ratio() for x in seq], order)


def hausdorff_check_terms(terms: Sequence[tuple[int, int]], order: int) -> HausdorffReport:
    """``hausdorff_check`` of the values u / v of integer pairs (u, v), v > 0."""
    _check_order(order, len(terms))
    # row m holds (-1)^m delta^m seq as numerators over the common
    # denominator, so every entry of every row must be nonnegative
    current, denominator = _common_numerators(terms)
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
