import math
from fractions import Fraction

import numpy as np
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
from treeshift import numerics
from treeshift.errors import IndexOutOfRange
from treeshift.numerics import alternating_binomial_sum_terms, binomial_ratios, binomial_table, hausdorff_check_terms
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


def _moments_with_bases(a, b, order):
    """``depth_moments`` read as (a)_k / (b)_k, k = 0..order: bases (n+q, n+1) are the Dirichlet
    moments of depth n, and (n+1, n+q) the dual ones, for q = |a - b| + 1."""
    if a >= b:
        return depth_moments(a - b + 1, DIRICHLET, int(b) - 1, order)
    return depth_moments(b - a + 1, DUAL, int(a) - 1, order)


@given(
    a=st.integers(min_value=1, max_value=15),
    b=st.integers(min_value=1, max_value=15),
    order=st.integers(min_value=0, max_value=40),
)
def test_pochhammer_ratios_match_per_term_ratios(a, b, order):
    expected = [pochhammer_ratio(a, b, n) for n in range(order + 1)]
    assert [Fraction(u, v) for u, v in _moments_with_bases(a, b, order)] == expected


@pytest.mark.parametrize(
    "a, b",
    [(7, 7 + gap) for gap in range(-6, 7)] + [(4, 3 + Fraction(3)), (4, 3 + Fraction(5, 2)), (Fraction(7, 3), 2)],
)
def test_pochhammer_ratio_terms_equal_per_term_ratios(a, b):
    terms = list(_moments_with_bases(a, b, 300))
    assert len(terms) == 301
    for n, (u, v) in enumerate(terms):
        assert type(u) is int and type(v) is int
        assert Fraction(u, v) == pochhammer_ratio(a, b, n)


@pytest.mark.parametrize("base", [np.uint8(4), np.int64(4)], ids=["uint8", "int64"])
def test_pochhammer_reads_a_numpy_base_as_a_python_int(base):
    # x + i kept a uint8 base's dtype, which wrapped past 255 with a RuntimeWarning
    assert pochhammer(base, 300) == pochhammer(4, 300)
    assert pochhammer_ratio(base, 1, 300) == pochhammer_ratio(4, 1, 300) == math.comb(303, 3)


@pytest.mark.parametrize(
    "q",
    [1, 2, 3, 6, Fraction(3, 2), Fraction(5, 2), Fraction(7, 3), np.int64(3), np.uint8(3)],
    ids=["1", "2", "3", "6", "3/2", "5/2", "7/3", "int64-3", "uint8-3"],
)
def test_depth_moments_equal_pochhammer_ratios(q):
    # the moments of a depth-n vertex, c(n+k) / c(n) = (n+q)_k / (n+1)_k and its reciprocal
    for n in range(41):
        dirichlet = list(depth_moments(q, DIRICHLET, n, 60))
        dual = list(depth_moments(q, DUAL, n, 60))
        assert len(dirichlet) == len(dual) == 61
        for k, ((u, v), (s, t)) in enumerate(zip(dirichlet, dual)):
            assert all(type(x) is int for x in (u, v, s, t))
            expected = pochhammer_ratio(n + q, n + 1, k)
            assert Fraction(u, v) == expected and Fraction(s, t) == 1 / expected
    for kind in (DIRICHLET, DUAL):
        with pytest.raises(ValueError, match="^depth must be nonnegative, got -1$"):
            depth_moments(q, kind, -1, 3)
    with pytest.raises(ValueError):
        depth_moments(q, "other", 0, 3)


def test_binomial_ratios_at_an_integer_q_read_no_walk():
    # C(n+k+q-1, q-1) against C(n+q-1, q-1): the pair at any k costs O(q), whatever n is
    fixed = math.comb(10**6 + 3, 3)
    assert list(binomial_ratios(4, 10**6, 1)) == [(fixed, fixed), (math.comb(10**6 + 4, 3), fixed)]
    assert list(binomial_ratios(3, 2, -1)) == [] == list(binomial_ratios(Fraction(5, 2), 2, -1))
    assert list(binomial_ratios(Fraction(5, 2), 0, 2)) == [(1, 1), (5, 2), (35, 8)]


@pytest.mark.parametrize(
    "q", [1, 2, 5, np.int64(3), np.uint8(4), Fraction(4), Fraction(3, 2), Fraction(5, 2), Fraction(7, 3)]
)
def test_binomial_table_is_proportional_to_the_rising_binomials(q):
    # c(k) = (q)_k / k!, and (l+1)_n / (l+q)_n = c(l) / c(l+n) for every l and n
    picked = [0, 1, 2, 7, 30, 31, 150, 299, 300]
    table = binomial_table(q, set(picked))
    assert list(table) == picked or q.denominator == 1 and sorted(table) == picked
    assert all(type(v) is int and v > 0 for v in table.values())
    exact = int(q) if q.denominator == 1 else q  # a numpy q would wrap in the reference's own sums
    c = {k: pochhammer_ratio(exact, 1, k) for k in picked}
    if q.denominator == 1:  # the binomial coefficients themselves
        assert table == {k: math.comb(k + exact - 1, k) for k in picked}
    for l in picked:
        for k in picked:
            assert Fraction(table[k], table[l]) == c[k] / c[l]
            if k >= l:
                assert Fraction(table[l], table[k]) == pochhammer_ratio(l + 1, l + exact, k - l)
    assert binomial_table(q, []) == {}


def test_binomial_table_walks_once_through_the_largest_index(monkeypatch):
    steps, walk = [], numerics.binomial_ratios

    def counted(q, n, order):
        for pair in walk(q, n, order):
            steps.append((q, n, order))
            yield pair

    monkeypatch.setattr(numerics, "binomial_ratios", counted)
    binomial_table(Fraction(5, 2), {40, 3, 17})
    assert steps == [(Fraction(5, 2), 3, 37)] * 38  # c(3) ... c(40), from the smallest index
    steps.clear()
    binomial_table(3, {40, 3, 17})
    binomial_table(Fraction(5, 2), set())
    assert steps == []


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


def test_hausdorff_check_at_order_120_is_fast(monkeypatch):
    # dual moments at depth 10 for q = 4: (11)_k/(14)_k, 2 * 120 + 3 terms; a passing
    # check works on integer numerators alone and builds no Fraction
    terms = list(depth_moments(4, DUAL, 10, 242))
    seq = [Fraction(u, v) for u, v in terms]

    def refuse(*_args):
        raise AssertionError("a passing check builds no Fraction")

    monkeypatch.setattr(numerics, "Fraction", refuse)
    assert hausdorff_check(seq, 120).passed
    assert hausdorff_check_terms(terms, 120).passed


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
