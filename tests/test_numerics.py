from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    alternating_binomial_sum,
    hausdorff_check,
    pochhammer,
    pochhammer_negative,
    pochhammer_ratio,
    radial_integral,
    radial_integral_quadrature,
)
from treeshift.errors import IndexOutOfRange
from treeshift.numerics import pochhammer_ratios


def test_pochhammer_values():
    assert pochhammer(1, 4) == 24
    assert pochhammer(2, 3) == 24
    assert all(pochhammer(x, 0) == 1 for x in (1, 2, 17, Fraction(3, 2)))


def test_pochhammer_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pochhammer(0, 3)
    with pytest.raises(ValueError):
        pochhammer(2, -1)


@given(x=st.integers(min_value=1, max_value=20), k=st.integers(min_value=0, max_value=50))
def test_pochhammer_recurrence(x, k):
    assert pochhammer(x, k + 1) == pochhammer(x, k) * (x + k)


def test_pochhammer_ratio_values():
    assert pochhammer_ratio(2, 1, 3) == 4
    assert pochhammer_ratio(5, 5, 9) == 1
    assert pochhammer_ratio(1, 2, 2) == Fraction(1, 3)


@given(
    a=st.integers(min_value=1, max_value=15),
    b=st.integers(min_value=1, max_value=15),
    k=st.integers(min_value=0, max_value=30),
)
def test_pochhammer_ratio_reciprocity(a, b, k):
    assert pochhammer_ratio(a, b, k) * pochhammer_ratio(b, a, k) == 1


@given(
    a=st.integers(min_value=1, max_value=15),
    b=st.integers(min_value=1, max_value=15),
    order=st.integers(min_value=0, max_value=40),
)
def test_pochhammer_ratios_match_per_term_ratios(a, b, order):
    expected = [pochhammer_ratio(a, b, n) for n in range(order + 1)]
    assert list(pochhammer_ratios(a, b, order)) == expected


def test_pochhammer_ratios_edges():
    assert list(pochhammer_ratios(3, Fraction(5, 2), 2)) == [1, Fraction(6, 5), Fraction(48, 35)]
    assert list(pochhammer_ratios(2, 3, -1)) == []
    with pytest.raises(ValueError):
        list(pochhammer_ratios(2, 0, 3))
    with pytest.raises(ValueError):
        list(pochhammer_ratios(0, 2, 3))


def test_pochhammer_negative_exponent():
    # (5)_{-2} = 1/(3)_2 = 1/12
    assert pochhammer_negative(5, 2) == Fraction(1, 12)
    assert pochhammer_negative(7, 0) == 1
    with pytest.raises(ValueError):
        pochhammer_negative(3, 3)


def test_alternating_sum_examples():
    moments = [Fraction(k + 1) for k in range(4)]  # (2)_k/(1)_k at depth 0
    assert alternating_binomial_sum(moments, 2) == 0
    assert alternating_binomial_sum([Fraction(1)] * 6, 4) == 0
    squares = [Fraction(k * k) for k in range(5)]
    assert alternating_binomial_sum(squares, 3) == 0
    with pytest.raises(IndexOutOfRange):
        alternating_binomial_sum(squares, 3, at=2)


@settings(max_examples=50)
@given(
    q=st.integers(min_value=1, max_value=5),
    coeffs=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
)
def test_alternating_sum_annihilates_low_degree_polynomials(q, coeffs):
    coeffs = coeffs[:q]  # degree < q
    seq = [Fraction(sum(c * k**i for i, c in enumerate(coeffs))) for k in range(q + 3)]
    assert alternating_binomial_sum(seq, q) == 0


@given(q=st.integers(min_value=1, max_value=6))
def test_alternating_sum_sees_degree_q_minus_one(q):
    seq = [Fraction(k ** (q - 1)) for k in range(q + 2)]
    if q >= 2:
        assert alternating_binomial_sum(seq, q - 1) != 0
    assert alternating_binomial_sum(seq, q) == 0


def test_hausdorff_classical_sequence_passes():
    seq = [Fraction(1, k + 1) for k in range(30)]
    assert hausdorff_check(seq, 10).passed


def test_hausdorff_dual_moment_sequence_passes():
    # (2)_k/(4)_k = 6/((k+2)(k+3))
    seq = [Fraction(6, (k + 2) * (k + 3)) for k in range(25)]
    assert hausdorff_check(seq, 8).passed


def test_hausdorff_increasing_sequence_fails_at_first_difference():
    seq = [Fraction(k + 1) for k in range(10)]
    report = hausdorff_check(seq, 3)
    assert not report.passed
    m, k, value = report.violation
    assert (m, k) == (1, 0) and value == 1


def test_hausdorff_monotone_in_order():
    seq = [Fraction(1, (k + 1) ** 2) for k in range(30)]
    assert hausdorff_check(seq, 12).passed
    for order in range(12):
        assert hausdorff_check(seq, order).passed


def test_hausdorff_needs_enough_values():
    with pytest.raises(IndexOutOfRange):
        hausdorff_check([Fraction(1)] * 3, 3)


def test_radial_integral_monomials():
    assert radial_integral([Fraction(1)]) == 1
    assert radial_integral({1: Fraction(1)}) == Fraction(1, 2)
    assert radial_integral({2: Fraction(1)}) == Fraction(1, 3)
    assert radial_integral({0: Fraction(2), 3: Fraction(-4)}) == 2 - Fraction(4, 4)


def test_quadrature_matches_exact_integral():
    coeffs = {0: Fraction(3), 2: Fraction(-1), 5: Fraction(7, 2)}
    exact = float(radial_integral(coeffs))
    quad = radial_integral_quadrature(
        lambda t: float(sum(float(c) * t**j for j, c in coeffs.items()))
    )
    assert abs(exact - quad) < 1e-14
