"""Exact rational helpers: rising factorials, finite differences, disc integrals.

Everything that feeds an identity check stays exact.  The finite-difference
checks bring their inputs once onto integer numerators over a common
denominator, compute on those integers, and build a ``fractions.Fraction``
only for a value they return; floating point enters only through the
Gauss-Legendre cross-check of the radial integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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


def pochhammer_ratios(a: int | Fraction, b: int | Fraction, order: int) -> Iterator[Fraction]:
    """Yield (a)_n / (b)_n for n = 0..order by the exact step c_{n+1} = c_n (a+n)/(b+n)."""
    if a < 1 or b < 1:
        raise ValueError("bases must be at least 1")
    c = Fraction(1)
    for n in range(order + 1):
        yield c
        c = c * (a + n) / (b + n)


def pochhammer_negative(x: int | Fraction, j: int) -> Fraction:
    """Rising factorial at a negative exponent: (x)_{-j} = 1/(x-j)_j.

    Requires x - j >= 1 so the reciprocal product stays positive.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    if x - j < 1:
        raise ValueError("(x)_{-j} needs x - j >= 1")
    return 1 / pochhammer(x - j, j)


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
    order: int
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
            return HausdorffReport(passed=False, order=order, violation=violation)
        current = [a - b for a, b in zip(current, current[1:])]
    return HausdorffReport(passed=True, order=order)


def radial_integral(coefficients: Mapping[int, Fraction] | Sequence[Fraction]) -> Fraction:
    """Integral over the unit disc, normalized area measure, of a radial
    polynomial given by coefficients of |z|^(2j).

    Uses the exact moments int |z|^(2j) dA = 1/(j+1).
    """
    if isinstance(coefficients, Mapping):
        items = coefficients.items()
    else:
        items = enumerate(coefficients)
    return sum((Fraction(c) / (j + 1) for j, c in items), start=Fraction(0))


@lru_cache(maxsize=None)
def _gauss_legendre_unit(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return tuple((x + 1.0) / 2.0), tuple(w / 2.0)


def radial_integral_quadrature(g: Callable[[float], float], nodes: int = 64) -> float:
    """Gauss-Legendre value of the disc integral of a radial function.

    ``g`` receives t = |z|^2; with the normalized area measure the disc
    integral reduces to the integral of g over [0, 1].  64 nodes are exact
    for polynomials in t up to degree 127.
    """
    points, weights = _gauss_legendre_unit(nodes)
    return float(sum(w * g(t) for t, w in zip(points, weights)))
