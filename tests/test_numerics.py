import time
from fractions import Fraction

import pytest
from corpus import LINE, reference_alternating_binomial_sum, reference_hausdorff_check
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    DIRICHLET,
    DUAL,
    alternating_binomial_sum,
    hausdorff_check,
    make_shift,
    pochhammer,
    pochhammer_ratio,
    radial_integral,
    radial_integral_quadrature,
)
from treeshift.errors import IndexOutOfRange
from treeshift.numerics import alternating_binomial_sum_terms, hausdorff_check_terms, pochhammer_ratio_terms, pochhammer_ratios
from treeshift.shifts import depth_moments


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


@pytest.mark.parametrize(
    "a, b",
    [(7, 7 + gap) for gap in range(-6, 7)] + [(4, 3 + Fraction(3)), (4, 3 + Fraction(5, 2)), (Fraction(7, 3), 2)],
)
def test_pochhammer_ratio_terms_equal_per_term_ratios(a, b):
    terms = list(pochhammer_ratio_terms(a, b, 300))
    assert len(terms) == 301
    for n, (u, v) in enumerate(terms):
        assert type(u) is int and type(v) is int
        assert Fraction(u, v) == pochhammer_ratio(a, b, n)


def test_pochhammer_ratio_terms_edges():
    assert list(pochhammer_ratio_terms(3, 3, 2)) == [(1, 1)] * 3
    assert list(pochhammer_ratio_terms(2, 3, -1)) == []
    with pytest.raises(ValueError):
        list(pochhammer_ratio_terms(Fraction(1, 2), 2, 3))


def test_pochhammer_ratios_edges():
    assert list(pochhammer_ratios(3, Fraction(5, 2), 2)) == [1, Fraction(6, 5), Fraction(48, 35)]
    assert list(pochhammer_ratios(2, 3, -1)) == []
    with pytest.raises(ValueError):
        list(pochhammer_ratios(2, 0, 3))
    with pytest.raises(ValueError):
        list(pochhammer_ratios(0, 2, 3))


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


def test_hausdorff_increasing_sequence_fails_at_order_one():
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


def _outcome(check, *args):
    """What a check returns, or the type and message of what it raises."""
    try:
        return check(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_checks_equal_fraction_references(seq):
    """Every order and every window, orders and windows out of range included."""
    for order in range(-1, len(seq) + 1):
        got = _outcome(hausdorff_check, seq, order)
        assert got == _outcome(reference_hausdorff_check, seq, order)
        if not isinstance(got, tuple) and got.violation is not None:
            assert type(got.violation[2]) is Fraction
    for q in range(-1, len(seq) + 1):
        for at in range(-1, len(seq) - q + 1):
            got = _outcome(alternating_binomial_sum, seq, q, at)
            assert got == _outcome(reference_alternating_binomial_sum, seq, q, at)
            assert isinstance(got, tuple) or type(got) is Fraction


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(), st.fractions(), st.floats()), max_size=10))
def test_exact_checks_equal_fraction_references_on_mixed_sequences(seq):
    _assert_checks_equal_fraction_references(seq)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 12), st.sampled_from([DIRICHLET, DUAL]))
def test_exact_checks_equal_fraction_references_on_moment_sequences(q, depth, kind):
    # the line has one vertex per depth 0..12; 27 moments, as the hausdorff suite reads
    shift = make_shift(LINE, q, kind, 12)
    _assert_checks_equal_fraction_references(shift.moment_sequence(shift.trunc.vertices[depth], 26))


def _assert_pair_checks_equal_fraction_references(terms, order):
    """The pair checks and their Fraction wrappers against the Fraction references, on
    the values of ``terms``; every violation value an exact ``Fraction``."""
    seq = [Fraction(u, v) for u, v in terms]
    for q in range(8):
        expected = reference_alternating_binomial_sum(seq, q)
        assert alternating_binomial_sum_terms(terms, q) == alternating_binomial_sum(seq, q) == expected
    expected = reference_hausdorff_check(seq, order)
    for report in (hausdorff_check_terms(terms, order), hausdorff_check(seq, order)):
        assert report == expected
        assert report.violation is None or type(report.violation[2]) is Fraction
    return expected


@pytest.mark.parametrize("q", range(1, 7))
@pytest.mark.parametrize("exact", [int, Fraction, lambda q: Fraction(2 * q + 1, 2)], ids=["int", "Fraction", "half"])
@pytest.mark.parametrize("kind", [DIRICHLET, DUAL])
def test_pair_checks_equal_fraction_references_on_depth_moments(q, exact, kind):
    # the 27 moments and order 12 of the hausdorff suite, depths 0..40
    for depth in range(41):
        terms = list(depth_moments(exact(q), kind, depth, 26))
        report = _assert_pair_checks_equal_fraction_references(terms, 12)
        assert report.passed == (kind == DUAL or exact(q) == 1)
        # one entry raised by 1: a sequence in (0, 1] that was nonincreasing
        # fails at the first difference just above it, as does the reference
        at = 1 + (7 * depth + q) % 26
        u, v = terms[at]
        perturbed = _assert_pair_checks_equal_fraction_references(terms[:at] + [(u + v, v)] + terms[at + 1 :], 12)
        assert not perturbed.passed
        if kind == DUAL:
            m, k, value = perturbed.violation
            assert (m, k) == (1, at - 1) and value == Fraction(u, v) + 1 - Fraction(*terms[at - 1])


def test_hausdorff_check_at_order_120_is_fast():
    # dual moments at depth 10 for q = 4: (11)_k/(14)_k, 2 * 120 + 3 terms
    seq = list(pochhammer_ratios(11, 14, 242))
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        report = hausdorff_check(seq, 120)
        timings.append(time.perf_counter() - started)
    assert report.passed
    assert min(timings) < 0.05


def test_radial_integral_monomials():
    assert radial_integral({0: Fraction(1)}) == 1
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
