"""Exact rational helpers: rising factorials, finite differences, disc integrals.

Everything that feeds an identity check stays exact.  The finite-difference
checks take integer pairs (u, v) (their ``Fraction`` forms read each entry
with ``as_integer_ratio``), bring them once onto integer numerators over a
common denominator, and build a ``fractions.Fraction`` only for a value they
return; floating point enters only through the Gauss-Legendre cross-check of
the radial integrals.  Likewise the depth-only ratios (a)_n/(b)_n come as
integer pairs: for integer bases they telescope to (lo)_m/(lo+n)_m or its
reciprocal, m = |b - a|, so the pair at any one n is the closed form
perm(hi-1+n, m) against perm(hi-1, m), with no walk over the n below it;
other rational bases step through ``Fraction``s.  A pair's quotient u / v is
the correctly rounded double of the ratio, the same as ``float`` of its
``Fraction``.  The ratios at bases (l+1, l+q) read off one sequence,
c(k) = (q)_k / k!, as c(l) / c(l+n) (``binomial_table``).
"""

from __future__ import annotations

import itertools
import math
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
    result = Fraction(1)
    for i in range(k):
        result *= x + i
    return result


def pochhammer_ratio(a: int | Fraction, b: int | Fraction, k: int) -> Fraction:
    """(a)_k / (b)_k in lowest terms."""
    return pochhammer(a, k) / pochhammer(b, k)


def pochhammer_ratio_terms(a: int | Fraction, b: int | Fraction, order: int) -> Iterator[tuple[int, int]]:
    """Yield integers (u, v) with u / v = (a)_n / (b)_n, not in lowest terms, for n = 0..order.

    Integer bases telescope: with lo, hi = sorted((a, b)) and m = hi - lo,
    (a)_n / (b)_n is (lo)_m / (lo+n)_m or its reciprocal, so each pair is
    perm(hi-1+n, m) against the fixed perm(hi-1, m), below (hi+n)^m, at the
    cost of m multiplications whatever n is.  Other rational bases take the
    step c_(n+1) = c_n (a+n)/(b+n) in ``Fraction`` (``_stepped_ratios``).
    """
    if a < 1 or b < 1:
        raise ValueError("bases must be at least 1")
    if a.denominator == b.denominator == 1:
        lo, hi = sorted((int(a), int(b)))
        m = hi - lo
        fixed = math.perm(hi - 1, m)
        if a > b:
            for n in range(order + 1):
                yield math.perm(hi - 1 + n, m), fixed
        else:
            for n in range(order + 1):
                yield fixed, math.perm(hi - 1 + n, m)
        return
    for c in itertools.islice(_stepped_ratios(a, b), order + 1):
        yield c.numerator, c.denominator


def _stepped_ratios(a: int | Fraction, b: int | Fraction) -> Iterator[Fraction]:
    """(a)_n / (b)_n for n = 0, 1, 2, ..., one ``Fraction`` step per n, as far as it is read."""
    c = Fraction(1)
    for n in itertools.count():
        yield c
        c = c * (a + n) / (b + n)


def binomial_table(q: int | Fraction, ks: Iterable[int]) -> dict[int, int]:
    """Positive integers proportional to c(k) = (q)_k / k! = C(k+q-1, k), at each k of ``ks``.

    The table serves through its ratios: (l+1)_n / (l+q)_n = c(l) / c(l+n).
    At integer q each entry is c(k) itself, ``math.comb(k+q-1, q-1)``.  At
    other rational q one walk c(k+1) = c(k) (q+k)/(k+1) (``_stepped_ratios(q, 1)``)
    runs up to the largest k, and the c(k) it keeps are scaled by the lcm of
    their denominators.
    """
    if q.denominator == 1:
        m = int(q) - 1
        return {k: math.comb(k + m, m) for k in ks}
    walked: dict[int, Fraction] = {}
    steps, n = _stepped_ratios(q, 1), -1
    for k in sorted(ks):
        while n < k:
            c, n = next(steps), n + 1
        walked[k] = c
    scale = math.lcm(*(c.denominator for c in walked.values()))
    return {k: c.numerator * (scale // c.denominator) for k, c in walked.items()}


def pochhammer_ratios(a: int | Fraction, b: int | Fraction, order: int) -> Iterator[Fraction]:
    """Yield (a)_n / (b)_n for n = 0..order in lowest terms, from ``pochhammer_ratio_terms``."""
    for u, v in pochhammer_ratio_terms(a, b, order):
        yield Fraction(u, v)


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
