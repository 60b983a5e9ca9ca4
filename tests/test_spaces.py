import cmath
import collections.abc
import dataclasses
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from corpus import (
    CORPUS,
    DEEP13,
    DOUBLE01,
    FORK2,
    LINE,
    SPLIT,
    WIDE,
    complete_binary,
    dense_compression_maxima,
    exact_bergman_block,
    exact_dirichlet_block,
    expected_oracle_diagonal,
    fan,
    named_horizon,
    prefix_trees,
    reference_log_convexity_check,
    vec_norm,
    walked_series_order,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeshift import (
    DUAL,
    KernelBlockSpec,
    PickReport,
    bergman_coefficient,
    bergman_norm,
    bergman_weight_moment,
    build_graded_unitary,
    cokernel_dimension,
    decide_equivalence,
    dirichlet_coefficient,
    dirichlet_measure_weights,
    dirichlet_norm,
    graded_function,
    h2_norm_via_measure_decomposition,
    kernel_apply,
    kernel_block_spec,
    kernel_matrix_oracle,
    kernel_series_order,
    log_convexity_check,
    make_shift,
    numerics,
    pick_property_check,
    pochhammer,
    pochhammer_ratio,
    radial_weight,
    spaces,
    tree_from_json,
    verify_intertwining,
)
from treeshift.errors import InvalidQ, OutsideDisc, TruncationLoss, UnknownVertex, WrongQ
from treeshift.numerics import pochhammer_ratios
from treeshift.shifts import DIRICHLET
from treeshift.spaces import CLOSED_FORM_RTOL, SERIES_TAIL_TOL, kernel_block_series, kernel_compression_maxima


def test_dirichlet_coefficients():
    assert all(dirichlet_coefficient(1, l, 5) == 1 for l in (0, 1, 4))
    assert dirichlet_coefficient(2, 0, 3) == Fraction(1, 4)
    assert dirichlet_coefficient(2, 1, 1) == Fraction(2, 3)


def test_bergman_coefficients():
    assert [bergman_coefficient(2, 0, n) for n in range(5)] == [1, 2, 3, 4, 5]
    assert bergman_coefficient(3, 2, 2) == Fraction(5, 2)
    for l in (0, 1, 3):
        for n in range(8):
            assert bergman_coefficient(3, l, n) * dirichlet_coefficient(3, l, n) == 1


def test_kernel_coefficient_monotonicity():
    for q in (2, 3, 4):
        for block in (0, 1, 2):
            dirichlet = [dirichlet_coefficient(q, block, n) for n in range(12)]
            bergman = [bergman_coefficient(q, block, n) for n in range(12)]
            assert dirichlet[0] == bergman[0] == 1
            assert all(a >= b for a, b in zip(dirichlet, dirichlet[1:]))
            assert all(a <= b for a, b in zip(bergman, bergman[1:]))


@pytest.mark.parametrize("tree", [FORK2, DOUBLE01, SPLIT], ids=["fork2", "double01", "split"])
@pytest.mark.parametrize("q", [2, 3])
def test_kernel_oracle_structure(tree, q):
    shift = make_shift(tree, q, DUAL, 9)
    identity = kernel_matrix_oracle(shift, 0, 0)
    assert np.max(np.abs(identity - np.eye(identity.shape[0]))) < 1e-12
    for j in range(4):
        for k in range(4):
            block = kernel_matrix_oracle(shift, j, k)
            if j == k:
                assert np.max(np.abs(block - expected_oracle_diagonal(shift, k))) < 1e-10
            else:
                assert np.max(np.abs(block)) < 1e-10


def test_kernel_oracle_guards():
    dirichlet = make_shift(FORK2, 2, DIRICHLET, 6)
    with pytest.raises(ValueError):
        kernel_matrix_oracle(dirichlet, 1, 1)
    dual = make_shift(FORK2, 2, DUAL, 4)
    with pytest.raises(TruncationLoss):
        kernel_matrix_oracle(dual, 4, 4)


def _oracle_maxima(shift, nmax=5):
    """Reference: the kernel suite's two maxima over every (j, k) oracle call."""
    off = diag = 0.0
    for j in range(nmax + 1):
        for k in range(nmax + 1):
            block = kernel_matrix_oracle(shift, j, k)
            if j == k:
                diag = max(diag, float(np.max(np.abs(block - expected_oracle_diagonal(shift, k)))))
            else:
                off = max(off, float(np.max(np.abs(block))))
    return off, diag


def _suite_shift(tree, q, nmax=5):
    """The dual shift at the depth the kernel suite truncates to."""
    return make_shift(tree, q, DUAL, max(10, tree.branching_index() + nmax))


def _assert_maxima_agree(shift):
    closed, reference = kernel_compression_maxima(shift, 5), _oracle_maxima(shift)
    assert np.max(np.abs(np.subtract(closed, reference))) <= 1e-14
    assert max(closed) < 1e-10 and max(reference) < 1e-10


@settings(max_examples=25, deadline=None)
@given(prefix_trees(), st.integers(1, 4))
def test_kernel_maxima_equal_oracle_loop_on_random_trees(tree, q):
    _assert_maxima_agree(_suite_shift(tree, q))


@settings(max_examples=60, deadline=None)
@given(prefix_trees(), st.integers(1, 4), st.integers(0, 6))
def test_kernel_maxima_equal_the_pushed_gram_reference(tree, q, nmax):
    shift = make_shift(tree, q, DUAL, max(10, tree.branching_index() + nmax))
    closed, dense = kernel_compression_maxima(shift, nmax), dense_compression_maxima(shift, nmax)
    assert np.max(np.abs(np.subtract(closed, dense))) <= 1e-14


@pytest.mark.parametrize(
    "tree,q",
    [
        (tree_from_json(complete_binary(5)), 2),
        (tree_from_json(complete_binary(7)), 3),
        (tree_from_json(fan(100)), 2),
        (DEEP13, 2),
        (WIDE, 3),
    ],
    ids=["binary5", "binary7", "fan100", "deep13", "wide"],
)
def test_kernel_maxima_equal_oracle_loop(tree, q):
    _assert_maxima_agree(_suite_shift(tree, q))


# DEEP13 branches at depths 1 and 3 (one column each), WIDE at depths 0 and 1
# (one and two columns): columns land on generations 1..9 and 1..7.  The
# scaled vertex carries column mass: the first of its generation, or the one
# on c's ray (DEEP13) or e's ray (WIDE, only the second Helmert column of a)
# while a block still reaches it.
PERTURBED = (
    [(DEEP13, g, 0) for g in range(1, 10)]
    + [(DEEP13, g, -1) for g in range(1, 8)]
    + [(WIDE, g, 0) for g in range(1, 8)]
    + [(WIDE, g, -2) for g in range(2, 8)]
)


@pytest.mark.parametrize(
    "tree,landing,position",
    PERTURBED,
    ids=[f"{'deep13' if t is DEEP13 else 'wide'}-g{g}-{p}" for t, g, p in PERTURBED],
)
def test_perturbed_weight_fails_both_paths(tree, landing, position):
    shift = _suite_shift(tree, 2)
    weights = shift.weights.copy()
    weights[shift.trunc.position(shift.trunc.generations[landing][position])] *= 1 + 1e-6
    perturbed = dataclasses.replace(shift, weights=weights)
    closed, reference = kernel_compression_maxima(perturbed, 5), _oracle_maxima(perturbed)
    assert max(closed) > 1e-10 and max(reference) > 1e-10
    # S* stays the adjoint of the perturbed S, so every path still reads the same entries
    assert np.allclose(closed, reference, rtol=1e-6, atol=1e-14)
    assert np.allclose(closed, dense_compression_maxima(perturbed, 5), rtol=1e-6, atol=1e-14)


def test_kernel_maxima_refuse_to_push_past_the_horizon():
    shift = make_shift(DOUBLE01, 2, DUAL, 6)  # columns born on generation 2 need 2 + 5
    with pytest.raises(TruncationLoss):
        kernel_compression_maxima(shift, 5)
    assert max(kernel_compression_maxima(shift, 4)) < 1e-10
    with pytest.raises(TruncationLoss):
        shift.push(np.ones((len(shift.trunc.generations[6]), 1)), 7)
    with pytest.raises(ValueError):
        kernel_compression_maxima(make_shift(DOUBLE01, 2, DIRICHLET, 10), 5)


def test_kernel_maxima_peak_under_160_bytes_per_vertex():
    # at nmax 5 the 6 x n array d and the 5 x n array of reach hold 88 B per vertex and the
    # peak is about 142 B; a second copy of reach, as the accumulate of a list of rows
    # makes, lifts it past 190 B
    shift = make_shift(tree_from_json(fan(2000)), 2, DUAL, 30)
    n = len(shift.weights)
    tracemalloc.start()
    try:
        worst = kernel_compression_maxima(shift, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(worst) < 1e-10
    assert peak < 160 * n


@pytest.mark.parametrize("tree", [FORK2, DOUBLE01, DEEP13], ids=["fork2", "double01", "deep13"])
def test_kernel_oracle_past_the_horizon_names_the_horizon_it_needs(tree):
    with pytest.raises(TruncationLoss) as excinfo:
        kernel_matrix_oracle(make_shift(tree, 2, DUAL, 2), 1, 3)
    needed = named_horizon(excinfo.value)
    assert kernel_matrix_oracle(make_shift(tree, 2, DUAL, needed), 1, 3).shape[0] == cokernel_dimension(tree)
    with pytest.raises(TruncationLoss):
        kernel_matrix_oracle(make_shift(tree, 2, DUAL, needed - 1), 1, 3)


@pytest.mark.parametrize("tree", [FORK2, DOUBLE01, DEEP13], ids=["fork2", "double01", "deep13"])
def test_kernel_maxima_past_the_horizon_name_the_horizon_they_need(tree):
    with pytest.raises(TruncationLoss) as excinfo:
        kernel_compression_maxima(make_shift(tree, 2, DUAL, 2), 4)
    needed = named_horizon(excinfo.value)
    assert max(kernel_compression_maxima(make_shift(tree, 2, DUAL, needed), 4)) < 1e-10
    with pytest.raises(TruncationLoss):
        kernel_compression_maxima(make_shift(tree, 2, DUAL, needed - 1), 4)


def test_kernel_apply_at_origin_is_identity():
    spec = kernel_block_spec(DOUBLE01)
    g = {None: (Fraction(2),), "r": (Fraction(1, 3),), "a": (Fraction(-1),)}
    out = kernel_apply(spec, 3, "dirichlet", 0.0, 0.5, g, order=40)
    for block, coords in g.items():
        assert out[block] == pytest.approx([complex(c) for c in coords])


def test_kernel_apply_q1_is_truncated_geometric_series():
    spec = kernel_block_spec(FORK2)
    x = 0.3 * 0.4
    order = 25
    out = kernel_apply(spec, 1, "dirichlet", 0.3, 0.4, {None: (1.0,)}, order)
    expected = (1 - x ** (order + 1)) / (1 - x)
    assert out[None][0] == pytest.approx(expected, abs=1e-14)


def test_kernel_apply_q2_root_block_is_log_series():
    spec = kernel_block_spec(LINE)
    out = kernel_apply(spec, 2, "dirichlet", 0.5, 0.5, {None: (1.0,)}, order=80)
    assert out[None][0] == pytest.approx(-math.log(0.75) / 0.25, abs=1e-13)


def test_kernel_apply_outside_disc():
    with pytest.raises(OutsideDisc):
        kernel_apply(kernel_block_spec(LINE), 2, "dirichlet", 1.0, 0.5, {None: (1,)}, 5)
    # an unknown space is refused by the series and by its order alike
    with pytest.raises(ValueError, match="^unknown space 'nonsense'$"):
        kernel_series_order(2, "nonsense", 0.5)
    with pytest.raises(ValueError, match="^unknown space 'nonsense'$"):
        kernel_block_series(2, 0, 0.25, 5, "nonsense")


@pytest.mark.parametrize("space", ["dirichlet", "bergman"])
@pytest.mark.parametrize("q", [2, 4])
def test_kernel_series_order_bound_is_honest(space, q):
    spec = kernel_block_spec(DOUBLE01)
    z = w = 0.6
    order = kernel_series_order(q, space, abs(z * w))
    g = {None: (1.0,), "r": (1.0,), "a": (1.0,)}
    short = kernel_apply(spec, q, space, z, w, g, order)
    long = kernel_apply(spec, q, space, z, w, g, order + 25)
    for block in g:
        assert abs(short[block][0] - long[block][0]) < 1e-12


# radii where the order is 0, where it leaves 0, and up to 1.4 million (q 8, Bergman side, r 0.9999)
SERIES_ORDER_RADII = [0.0, 1e-300, 1e-13, 1e-12, 1e-6, 0.1, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999]


@pytest.mark.parametrize("space", ["dirichlet", "bergman"])
@pytest.mark.parametrize("q", range(1, 9))
def test_kernel_series_order_equals_the_walk(space, q):
    rng = np.random.default_rng(q)
    # seeded radii spread over the disc and over 1 - r in [1e-3, 1]
    radii = [*SERIES_ORDER_RADII, *rng.random(20).tolist(), *(1 - 10 ** -rng.uniform(0, 3, 20)).tolist()]
    assert [kernel_series_order(q, space, r) for r in radii] == [walked_series_order(q, space, r) for r in radii]


def test_kernel_series_order_starts_within_a_few_steps_of_its_order(monkeypatch):
    # the start is the crossing of the logarithms, so the walk after it takes a step
    # or two; at most 4 bounds per order were measured over this grid
    calls, bound = [], spaces._tail_bound

    def counted(*args):
        calls.append(args)
        return bound(*args)

    monkeypatch.setattr(spaces, "_tail_bound", counted)
    radii = [*SERIES_ORDER_RADII[:-1], *np.linspace(0, 0.999, 1000).tolist(), *(1 - np.logspace(-3, 0, 300)).tolist()]
    for space in ("dirichlet", "bergman"):
        for q in range(1, 9):
            for r in radii:
                calls.clear()
                kernel_series_order(q, space, r)
                assert len(calls) <= 4, (space, q, r, len(calls))


def test_graded_function_validation():
    with pytest.raises(UnknownVertex):
        graded_function(FORK2, [(1, {"a": (1,)})])
    with pytest.raises(ValueError):
        graded_function(FORK2, [(1, {"r": (1, 2)})])


def test_dirichlet_norm_examples():
    constant = graded_function(FORK2, [(Fraction(1), {})])
    assert dirichlet_norm(constant, 2) == 1
    linear = graded_function(FORK2, [(0, {}), (Fraction(1), {})])
    assert dirichlet_norm(linear, 2) == 2
    mixed = graded_function(
        FORK2, [(Fraction(1), {"r": (Fraction(1, 2),)}), (Fraction(2), {})]
    )
    # q=1 norm is the plain sum of squared layer norms
    assert dirichlet_norm(mixed, 1) == 1 + Fraction(1, 4) + 4
    assert isinstance(dirichlet_norm(mixed, 2), Fraction)


def test_bergman_norm_examples():
    linear = graded_function(FORK2, [(0, {}), (Fraction(1), {})])
    assert bergman_norm(linear, 2) == Fraction(1, 2)
    block = graded_function(FORK2, [(0, {}), (0, {}), (0, {"r": (Fraction(1),)})])
    assert bergman_norm(block, 2) == Fraction(1, 2)  # (2)_2/(3)_2
    # single-layer reciprocity: the two squared norms multiply to the
    # squared Hardy norm squared
    single = graded_function(FORK2, [(0, {}), (0, {"r": (Fraction(3),)})])
    assert dirichlet_norm(single, 3) * bergman_norm(single, 3) == Fraction(81)


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("q", [1, 2, 3])
def test_dirichlet_norm_equals_moment_aggregation(name, q):
    tree = CORPUS[name]
    shift = make_shift(tree, q, DIRICHLET, 10)
    blocks = dict(tree.branching_vertices())
    for n in range(5):
        layers = [(0, {})] * n + [
            (Fraction(2, 3), {v: tuple([Fraction(1, 2)] * (c - 1)) for v, c in blocks.items()})
        ]
        f = graded_function(tree, layers)
        expected = Fraction(2, 3) ** 2 * shift.moment_sequence(tree.root, n)[n]
        for v, c in blocks.items():
            child = tree.children_of(v)[0]
            expected += (c - 1) * Fraction(1, 4) * shift.moment_sequence(child, n)[n]
        assert dirichlet_norm(f, q) == expected


def _combine(terms):
    """The sparse vector sum of c * vec over the (c, vec) pairs."""
    out = {}
    for c, vec in terms:
        for v, x in vec.items():
            out[v] = out.get(v, 0) + c * x
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_single_layer_norm_matches_vertex_space_matrix_route(q):
    tree = DOUBLE01
    shift = make_shift(tree, q, DIRICHLET, 10)
    basis = {b.vertex: b for b in shift.kernel_basis().blocks}
    coords = {"r": (Fraction(1, 2),), "a": (Fraction(-2, 3),)}
    for n in range(4):
        layers = [(0, {})] * n + [(Fraction(1, 5), coords)]
        f = graded_function(tree, layers)
        vector = _combine(
            [(float(Fraction(1, 5)), {tree.root: 1.0})]
            + [(float(c), vec) for v, cs in coords.items() for c, vec in zip(cs, basis[v].vectors)]
        )
        pushed = shift.apply_power(vector, n)
        assert vec_norm(pushed) ** 2 == pytest.approx(float(dirichlet_norm(f, q)), rel=1e-12)


def test_h2_norm_decomposition_examples():
    linear = graded_function(FORK2, [(0, {}), (Fraction(1), {})])
    assert h2_norm_via_measure_decomposition(linear) == 2
    constant = graded_function(FORK2, [(Fraction(5), {})])
    assert h2_norm_via_measure_decomposition(constant) == 25
    deep = graded_function(
        DOUBLE01, [(0, {}), (0, {}), (0, {}), (0, {"a": (Fraction(1),)})]
    )
    assert h2_norm_via_measure_decomposition(deep) == 2


def _random_rational_function(tree, rng, layers=5):
    blocks = dict(tree.branching_vertices())
    built = []
    for _ in range(layers):
        coords = {
            v: tuple(Fraction(int(rng.integers(-6, 7)), 3) for _ in range(c - 1))
            for v, c in blocks.items()
        }
        built.append((Fraction(int(rng.integers(-6, 7)), 2), coords))
    return graded_function(tree, built)


def test_h2_norm_decomposition_equals_direct_norm():
    rng = np.random.default_rng(11)
    for name in sorted(CORPUS):
        tree = CORPUS[name]
        for _ in range(20):
            f = _random_rational_function(tree, rng)
            assert h2_norm_via_measure_decomposition(f) == dirichlet_norm(f, 2)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_norm_domination_over_hardy(q):
    rng = np.random.default_rng(13)
    for name in sorted(CORPUS):
        tree = CORPUS[name]
        for _ in range(20):
            f = _random_rational_function(tree, rng)
            assert dirichlet_norm(f, q) >= dirichlet_norm(f, 1)


def test_radial_weight_coefficients():
    assert radial_weight(2, 3) == {3: Fraction(4)}
    assert radial_weight(3, 0) == {0: Fraction(2), 1: Fraction(-2)}
    with pytest.raises(WrongQ):
        radial_weight(1, 0)
    # q >= 2 but not an integer; a numpy integer is one, and a float is no q at all
    with pytest.raises(WrongQ):
        radial_weight(Fraction(5, 2), 1)
    with pytest.raises(InvalidQ):
        radial_weight(2.0, 1)
    assert radial_weight(np.int64(3), 0) == radial_weight(3, 0)


def test_bergman_weight_moment_q2_closed_form():
    for l in range(5):
        for n in range(7):
            exact, quad = bergman_weight_moment(2, l, n)
            assert exact == Fraction(l + 1, n + l + 1)
            assert abs(float(exact) - quad) < 1e-12


def test_bergman_weight_moment_is_normalized():
    for q in range(2, 6):
        for l in range(7):
            exact, _quad = bergman_weight_moment(q, l, 0)
            assert exact == 1


def test_bergman_weight_moment_matches_block_weight():
    assert bergman_weight_moment(3, 1, 1)[0] == Fraction(1, 2)
    for q in range(2, 6):
        for l in range(7):
            for n in range(11):
                exact, quad = bergman_weight_moment(q, l, n)
                assert exact == Fraction(math.prod(range(l + 1, l + 1 + n))) / math.prod(
                    range(l + q, l + q + n)
                )
                assert abs(float(exact) - quad) < 1e-10


def test_pick_property():
    assert pick_property_check(1, None, 50).passed  # equal parameters
    assert log_convexity_check(1, 2, 100).passed
    reversed_report = log_convexity_check(2, 1, 100)
    assert not reversed_report.passed
    assert reversed_report.witness == 1
    for q in range(1, 7):
        for depth in (None, 0, 1, 5, 10):
            assert pick_property_check(q, depth, 100).passed


# integer and rational q >= 1
_ANY_Q = st.one_of(st.integers(1, 6), st.fractions(min_value=1, max_value=6, max_denominator=6))


@settings(max_examples=80, deadline=None)
@given(tree=prefix_trees(), q=_ANY_Q, l=st.integers(0, 5), n=st.integers(0, 12))
def test_kernel_coefficients_are_shift_moments_at_depth_l(tree, q, l, n):
    # block l's coefficients are the moments of any depth-l vertex
    v = tree.truncate(l).generations[l][0]
    assert dirichlet_coefficient(q, l, n) == make_shift(tree, q, DUAL, l + 1).moment_sequence(v, n)[n]
    assert bergman_coefficient(q, l, n) == make_shift(tree, q, DIRICHLET, l + 1).moment_sequence(v, n)[n]


@settings(max_examples=80, deadline=None)
@given(q=_ANY_Q, depth=st.integers(0, 20), bound=st.integers(0, 60))
def test_pick_check_is_log_convexity_of_the_block_bases(q, depth, bound):
    assert pick_property_check(q, depth, bound) == log_convexity_check(depth + 2, depth + 1 + q, bound)
    assert pick_property_check(q, None, bound) == log_convexity_check(1, q, bound)


@pytest.mark.parametrize("bound", [0, 1, 2, 100])
def test_log_convexity_closed_form_equals_the_loop(bound):
    for k in range(1, 41):
        for l in range(1, 41):
            assert log_convexity_check(k, l, bound) == reference_log_convexity_check(k, l, bound)


def _reference_log_convexity(k, l, bound):
    """Log-convexity compared as c_n^2 <= c_{n-1} c_{n+1} in exact Fractions."""
    c = list(pochhammer_ratios(k, l, bound + 1))
    for n in range(1, bound + 1):
        if c[n] * c[n] > c[n - 1] * c[n + 1]:
            return PickReport(passed=False, checked_through=bound, witness=n)
    return PickReport(passed=True, checked_through=bound)


_bases = st.one_of(
    st.integers(min_value=-2, max_value=40),
    st.fractions(min_value=0, max_value=40, max_denominator=7),
)


@settings(max_examples=200, deadline=None)
@given(k=_bases, l=_bases, bound=st.integers(min_value=0, max_value=120))
def test_log_convexity_equals_fraction_reference(k, l, bound):
    try:
        expected = _reference_log_convexity(k, l, bound)
    except ValueError:
        with pytest.raises(ValueError):
            log_convexity_check(k, l, bound)
        return
    # PickReport equality compares passed, checked_through and witness
    assert log_convexity_check(k, l, bound) == expected


def test_kernel_apply_is_linear_in_the_number_of_blocks(monkeypatch):
    calls = []

    def counted(q, l, x, order, space):
        calls.append(l)
        return kernel_block_series(q, l, x, order, space)

    monkeypatch.setattr(spaces, "kernel_block_series", counted)
    spec = KernelBlockSpec(blocks=((None, 0),) + tuple((f"v{i}", 1 + i % 9) for i in range(19_999)))
    g = {block_id: (1.0,) for block_id, _l in spec.blocks}
    out = kernel_apply(spec, 2, "dirichlet", 0.3, 0.4, g, order=0)
    assert len(out) == 20_000 and all(coords == (1.0,) for coords in out.values())
    # one series per distinct block index, l = 0..9, whatever the number of blocks
    assert sorted(calls) == list(range(10))
    with pytest.raises(UnknownVertex):
        kernel_apply(spec, 2, "dirichlet", 0.3, 0.4, {"missing": (1.0,)}, order=0)


def test_dirichlet_measure_weights():
    assert dirichlet_measure_weights(LINE) == {None: 1}
    assert dirichlet_measure_weights(FORK2) == {None: 1, "r": Fraction(1, 2)}
    assert dirichlet_measure_weights(DOUBLE01) == {
        None: 1,
        "r": Fraction(1, 2),
        "a": Fraction(1, 3),
    }


# -- differential check of the one-step recurrence against per-n rebuilds --------


def _reference_pair(q, l, space):
    """Pochhammer pair (a, b) of the kernel coefficient (a)_n/(b)_n."""
    return (l + 1, l + q) if space == "dirichlet" else (l + q, l + 1)


def _reference_block_series(q, l, x, order, space):
    """Kernel partial sum with every coefficient recomputed per n (O(order^2))."""
    a, b = _reference_pair(q, l, space)
    total = 0j
    power = 1 + 0j
    for n in range(order + 1):
        total += float(pochhammer_ratio(a, b, n)) * power
        power *= x
    return total


def _reference_norm(f, q, space):
    """Squared norm with every layer weight recomputed per n; the weights
    of a space are the kernel coefficients of the other one.  A zero entry
    adds nothing and takes no weight, which at layer n costs n steps."""
    dual = "bergman" if space == "dirichlet" else "dirichlet"

    def weight(l, n):
        return pochhammer_ratio(*_reference_pair(q, l, dual), n)

    def square(c):
        return Fraction(c) ** 2 if isinstance(c, (int, Fraction)) else abs(c) ** 2

    total = Fraction(0)
    for n, layer in enumerate(f.layers):
        (root,) = layer[None]
        if square(root):
            total = total + square(root) * weight(0, n)
        for v, l in f.blocks.items():
            block = sum((square(c) for c in layer.get(v, ())), start=Fraction(0))
            if v is not None and block:
                total = total + block * weight(l, n)
    return total


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(min_value=1, max_value=6),
    l=st.integers(min_value=0, max_value=12),
    order=st.integers(min_value=0, max_value=300),
    radius=st.floats(min_value=0.0, max_value=0.999),
    angle=st.floats(min_value=0.0, max_value=2 * math.pi),
    space=st.sampled_from(["dirichlet", "bergman"]),
)
@example(q=3, l=2, order=200, radius=0.5, angle=1.0, space="bergman")  # in closed form
@example(q=6, l=0, order=5, radius=0.99, angle=math.pi, space="bergman")  # by the series
@example(q=3, l=2, order=300, radius=0.9, angle=1.0, space="dirichlet")  # in closed form
@example(q=3, l=2, order=200, radius=0.25, angle=1.0, space="dirichlet")  # by the series: rounding
@example(q=6, l=0, order=200, radius=0.8, angle=1.0, space="dirichlet")  # by the series: rounding, by its log
@example(q=2, l=0, order=5, radius=0.9, angle=1.0, space="dirichlet")  # by the series: remainder
def test_block_series_equals_per_term_reference(q, l, order, radius, angle, space):
    x = cmath.rect(radius, angle)
    value = kernel_block_series(q, l, x, order, space)
    if space == "bergman" and _tail_below_tol(q, abs(x), order):
        # summed in closed form: within roundoff of the exact partial sum
        assert _closed_form_error(q, l, x, order, value) <= 1e-14
    elif space == "dirichlet" and _dirichlet_in_closed_form(q, l, abs(x), order):
        # the whole sum in closed form: within the stated error and the remainder bound
        assert _within_stated_error(q, l, x, order, value)
    else:
        # summed term by term: the same bits as the per-term reference
        assert value == _reference_block_series(q, l, x, order, space)


def _tail_below_tol(q, r, order):
    """Whether the Bergman remainder bound r^(N+1) (N+q)^(q-1) / (1-r) of the
    order-N sum is below the tolerance: the rule for the closed form."""
    return r ** (order + 1) / (1 - r) * float(order + q) ** (q - 1) < SERIES_TAIL_TOL


def _dirichlet_in_closed_form(q, l, r, order):
    """The rule for a Dirichlet block in closed form: its remainder bound r^(N+1)/(1-r)
    below the tolerance and, from q = 2 on, its rounding bound
    eps sum_j |A_j| (1 + |log(1-r)|) / r^(l+q-1) below ``CLOSED_FORM_RTOL``, with
    sum_j |A_j| = m 2^(m-1) C(l+m, m), m = q - 1, compared times r^(l+m)."""
    if not (r < 1 and r ** (order + 1) / (1 - r) < SERIES_TAIL_TOL):
        return False
    m = q - 1
    if m == 0:
        return True
    weight = float(m * 2 ** (m - 1) * math.comb(l + m, m))
    return sys.float_info.epsilon * weight * (1.0 - math.log1p(-r)) < CLOSED_FORM_RTOL * r ** (l + m)


def _within_stated_error(q, l, x, order, value):
    """Whether value lies within ``CLOSED_FORM_RTOL`` times the sum of the series' |terms|,
    plus the remainder bound r^(N+1)/(1-r), of the exact Dirichlet partial sum.  The sum
    of |terms| is at least its first term, 1, and is summed only if the error exceeds that."""
    re, im = exact_dirichlet_block(q, l, x, order)
    error = math.hypot(float(Fraction(value.real) - re), float(Fraction(value.imag) - im))
    r = abs(x)
    tail = r ** (order + 1) / (1 - r)
    if error <= CLOSED_FORM_RTOL + tail:
        return True
    return error <= CLOSED_FORM_RTOL * float(exact_dirichlet_block(q, l, complex(r), order)[0]) + tail


def _closed_form_error(q, l, x, order, value):
    """|value - the exact partial sum| over the sum of the series' |terms|."""
    re, im = exact_bergman_block(q, l, x, order)
    scale = exact_bergman_block(q, l, complex(abs(x)), order)[0]
    return math.hypot(float(Fraction(value.real) - re), float(Fraction(value.imag) - im)) / float(scale)


def test_bergman_closed_form_matches_the_exact_partial_sum():
    # q 1-8, l up to 200, r up to 0.999 and every order at or above the series order
    rng = np.random.default_rng(31)
    for _ in range(600):
        q, l = int(rng.integers(1, 9)), int(rng.integers(0, 201))
        r = float(rng.choice([rng.random(), 1 - 10 ** -rng.uniform(0, 3), 0.999]))
        x = cmath.rect(r, rng.uniform(0, 2 * math.pi))
        order = kernel_series_order(q, "bergman", abs(x)) + int(rng.choice([0, 1, rng.integers(0, 1000)]))
        assert _tail_below_tol(q, abs(x), order)
        assert _closed_form_error(q, l, x, order, kernel_block_series(q, l, x, order, "bergman")) <= 1e-14


def test_exact_closed_form_is_the_partial_sum():
    # the identity behind the closed form, in exact rationals, against the direct sum
    rng = np.random.default_rng(37)
    for _ in range(150):
        q, l, order = int(rng.integers(1, 9)), int(rng.integers(0, 40)), int(rng.integers(0, 40))
        x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1) if rng.random() < 0.5 else 0.0)
        re, im = Fraction(x.real), Fraction(x.imag)
        total, power = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
        for n in range(order + 1):
            c = bergman_coefficient(q, l, n)
            total = (total[0] + c * power[0], total[1] + c * power[1])
            power = (power[0] * re - power[1] * im, power[0] * im + power[1] * re)
        assert exact_bergman_block(q, l, x, order, bits=None) == total


def test_bergman_block_near_minus_one_keeps_its_digits():
    # the series summed 91,620 terms here and returned -0.18488
    order = kernel_series_order(6, "bergman", 0.999)
    assert order == 91_620
    value = kernel_block_series(6, 0, -0.999, order, "bergman")
    assert abs(value - 1 / 1.999**6) <= 1e-14 / 1.999**6


def test_bergman_block_past_the_float_range_of_its_bound_takes_the_series(monkeypatch):
    # (N+q)^(q-1) overflows a float here, while the series sum is finite
    series = _reference_block_series(200, 0, 0.5, 300, "bergman")
    assert math.isfinite(series.real)
    assert kernel_block_series(200, 0, 0.5, 300, "bergman") == series
    with pytest.raises(OverflowError):
        spaces._tail_bound(200, "bergman", 0.5, 300)


_rational_coords = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=7)
)
_complex_coords = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CORPUS)),
    q=st.integers(min_value=1, max_value=6),
    exact=st.booleans(),
    data=st.data(),
)
def test_norms_equal_per_term_reference(name, q, exact, data):
    tree = CORPUS[name]
    coords = _rational_coords if exact else _complex_coords
    blocks = dict(tree.branching_vertices())
    layer = st.tuples(
        coords,
        st.fixed_dictionaries(
            {}, optional={v: st.lists(coords, max_size=c - 1) for v, c in blocks.items()}
        ),
    )
    f = graded_function(tree, data.draw(st.lists(layer, max_size=60)))
    assert dirichlet_norm(f, q) == _reference_norm(f, q, "dirichlet")
    assert bergman_norm(f, q) == _reference_norm(f, q, "bergman")


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(CORPUS)),
    q=st.sampled_from([Fraction(3, 2), Fraction(5, 2), Fraction(7, 3)]),
    data=st.data(),
)
def test_norms_at_non_integer_q_equal_per_term_reference(name, q, data):
    # the pairs come from the Fraction recurrence, whose denominator moves
    # at every step, so each block index sums over an lcm of many of them
    tree = CORPUS[name]
    blocks = dict(tree.branching_vertices())
    layer = st.tuples(
        _rational_coords,
        st.fixed_dictionaries(
            {}, optional={v: st.lists(_rational_coords, max_size=c - 1) for v, c in blocks.items()}
        ),
    )
    f = graded_function(tree, data.draw(st.lists(layer, max_size=60)))
    assert dirichlet_norm(f, q) == _reference_norm(f, q, "dirichlet")
    assert bergman_norm(f, q) == _reference_norm(f, q, "bergman")


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(CORPUS)),
    q=st.one_of(st.integers(min_value=1, max_value=6), st.sampled_from([Fraction(3, 2), Fraction(5, 2), Fraction(7, 3)])),
    exact=st.booleans(),
    data=st.data(),
)
@example(name="double01", q=3, exact=False, data=None)
def test_sparse_layer_norms_equal_per_term_reference(name, q, exact, data):
    # a few entries on layers up to 2,000: each block index takes its weights at the
    # stored layers only, and the float sums keep the per-term reference's bits
    tree = CORPUS[name]
    coords = _rational_coords if exact else _complex_coords
    blocks = [(None, 2), *tree.branching_vertices()]
    entry = st.tuples(st.integers(min_value=0, max_value=2000), st.sampled_from(blocks), st.lists(coords, min_size=1, max_size=3))
    drawn = data.draw(st.lists(entry, min_size=1, max_size=4)) if data else [
        (1999, blocks[-1], [1.5 + 0.5j]), (7, blocks[0], [-0.25j]), (1999, blocks[1], [3 - 1j])
    ]
    layers = [(0, {}) for _ in range(max(n for n, _block, _coords in drawn) + 1)]
    for n, (v, count), values in drawn:
        root, stored = layers[n]
        layers[n] = (values[0], stored) if v is None else (root, {**stored, v: tuple(values[: count - 1])})
    f = graded_function(tree, layers)
    assert dirichlet_norm(f, q) == _reference_norm(f, q, "dirichlet")
    assert bergman_norm(f, q) == _reference_norm(f, q, "bergman")


def test_numpy_integer_coordinates_square_exactly():
    # a numpy square would wrap around: 2^66 to 0, 3037000500^2 to a negative
    big = graded_function(FORK2, [(np.int64(2**33), {})])
    assert dirichlet_norm(big, 2) == 2**66
    edge = graded_function(FORK2, [(np.int64(3037000500), {"r": (np.int32(-7),)}), (np.uint8(200), {})])
    for norm in (dirichlet_norm, bergman_norm):
        value = norm(edge, 2)
        assert type(value) is Fraction and value == 3037000500**2 + 49 + 200**2 * (2 if norm is dirichlet_norm else Fraction(1, 2))


def test_norm_walks_one_coefficient_table(monkeypatch):
    layers = [(Fraction(n + 1), {"r": (Fraction(1, n + 2),), "a": (Fraction(n),)}) for n in range(200)]
    f = graded_function(DOUBLE01, layers)
    expected = {q: (dirichlet_norm(f, q), bergman_norm(f, q)) for q in (2, Fraction(5, 2))}
    h2 = dirichlet_norm(f, 2)
    tables, table = [], spaces.binomial_table
    steps, stepped = collections.Counter(), numerics._stepped_ratios

    def counted(q, ks):
        tables.append((q, set(ks)))
        return table(q, ks)

    def counted_steps(a, b):
        for c in stepped(a, b):
            steps[a, b] += 1
            yield c

    monkeypatch.setattr(spaces, "binomial_table", counted)
    monkeypatch.setattr(numerics, "_stepped_ratios", counted_steps)
    for q, values in expected.items():
        for norm, value in zip((dirichlet_norm, bergman_norm), values):
            tables.clear()
            steps.clear()
            assert norm(f, q) == value
            # the root line, r and a: block indices 0, 1 and 2 on layers 0..199, but a's zero at
            # layer 0, so one table over k = l + n and l: 0..199, 1..200, 3..201 and 0, 1, 2
            assert tables == [(q, set(range(202)))]
            if q == 2:  # integer q: binomial coefficients in closed form, no walk
                assert not steps
            else:  # one Fraction walk, c(0) ... c(201), for every index
                assert steps == {(q, 1): 202}

    def refuse(*args):
        raise AssertionError("the measure decomposition read moment_bases or the coefficient table")

    monkeypatch.setattr(spaces, "moment_bases", refuse)
    monkeypatch.setattr(spaces, "binomial_table", refuse)
    assert h2_norm_via_measure_decomposition(f) == h2


def _comb(depths):
    """A path p0 ... p<depths> with a ray leaf s<i> beside each p<i + 1>: block indices 1 ... depths."""
    children = {f"p{i}": [f"p{i + 1}", f"s{i}"] for i in range(depths)}
    return tree_from_json({"root": "p0", "children": children, "ray_leaves": [f"s{i}" for i in range(depths)] + [f"p{depths}"]})


def test_sparse_deep_norm_costs_its_entries(monkeypatch):
    # block indices 1 ... 200 on 5,000 layers, one unit coordinate each: index l at layer 4,999 - l
    tree = _comb(200)
    blocks = dict(kernel_block_spec(tree).blocks)
    layers = [(0, {})] * 5000
    for v, _count in tree.branching_vertices():
        layers[4999 - blocks[v]] = (0, {v: (1,)})
    f = graded_function(tree, layers)
    entries = sum(1 for layer in f.layers for coords in layer.values() if any(coords))
    assert entries == 200
    # at q 3 the weight of index l at layer n is C(l+2+n, 2) / C(l+2, 2) on the Dirichlet side
    weights = [Fraction(math.comb(l + 2 + 4999 - l, 2), math.comb(l + 2, 2)) for l in range(1, 201)]
    expected = {dirichlet_norm: sum(weights), bergman_norm: sum(1 / w for w in weights)}
    for norm, value in expected.items():
        tracemalloc.start()
        try:
            assert norm(f, 3) == value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
    requested, table = [], spaces.binomial_table
    monkeypatch.setattr(spaces, "binomial_table", lambda q, ks: requested.append(set(ks)) or table(q, ks))
    for norm, value in expected.items():
        requested.clear()
        assert norm(f, 3) == value
        # one table entry per stored k = l + n (all 4,999 here) and one per block index l
        assert requested == [{4999, *range(1, 201)}]
    assert dirichlet_norm(f, 2) == h2_norm_via_measure_decomposition(f)


def test_comb_norms_at_a_rational_q_walk_once(monkeypatch):
    # block indices 1 ... 200 on 2,000 layers, index l at layer 1,999 - l: every k = l + n is 1,999
    tree = _comb(200)
    blocks = dict(kernel_block_spec(tree).blocks)
    layers = [(0, {})] * 2000
    for v, _count in tree.branching_vertices():
        layers[1999 - blocks[v]] = (0, {v: (1,)})
    f = graded_function(tree, layers)
    q = Fraction(5, 2)
    # c(k) = (q)_k / k!, as direct products; the Dirichlet weight of index l at layer n is c(l+n) / c(l)
    c = {k: pochhammer(q, k) / math.factorial(k) for k in (*range(1, 201), 1999)}
    expected = {
        dirichlet_norm: sum(c[1999] / c[l] for l in range(1, 201)),
        bergman_norm: sum(c[l] / c[1999] for l in range(1, 201)),
    }
    assert c[1999] / c[200] == pochhammer_ratio(200 + q, 201, 1799)
    steps, stepped = [], numerics._stepped_ratios

    def counted_steps(a, b):
        for value in stepped(a, b):
            steps.append((a, b))
            yield value

    monkeypatch.setattr(numerics, "_stepped_ratios", counted_steps)
    for norm, value in expected.items():
        steps.clear()
        assert norm(f, q) == value
        assert steps == [(q, 1)] * 2000  # one walk, c(0) ... c(1999), for all 200 indices


@pytest.mark.parametrize("q", [np.uint8(3), np.int64(3)])
def test_numpy_integer_q_keeps_python_arithmetic_past_depth_255(q):
    # n + q kept a uint8 q's dtype: 253 + 3 wrapped to 0 and 256 + 3 raised OverflowError
    for kind in (DIRICHLET, DUAL):
        assert np.array_equal(make_shift(LINE, q, kind, 300).weights, make_shift(LINE, 3, kind, 300).weights)
    assert make_shift(LINE, q, DIRICHLET, 254).weights[-1] == make_shift(LINE, 3, DIRICHLET, 254).weights[-1] > 1
    for space in ("dirichlet", "bergman"):
        assert kernel_series_order(q, space, 0.99) == kernel_series_order(3, space, 0.99) > 256
        for l, x, order in ((253, 0.5, 10), (300, 0.3 + 0.2j, 40), (260, 0.9, 400)):
            assert kernel_block_series(q, l, x, order, space) == kernel_block_series(3, l, x, order, space)
    tree = _comb(270)
    blocks = dict(kernel_block_spec(tree).blocks)
    layers = [(Fraction(1, 3), {}) for _ in range(300)]
    for v, _count in tree.branching_vertices():  # two indices a layer, k = l + n up to 434
        root, stored = layers[299 - blocks[v] // 2]
        layers[299 - blocks[v] // 2] = (root, {**stored, v: (blocks[v] - 100,)})
    f = graded_function(tree, layers)
    for norm in (dirichlet_norm, bergman_norm):
        assert norm(f, q) == norm(f, 3)


class _CountedTable(collections.abc.Mapping):
    """A block table that counts its lookups and refuses to be walked."""

    def __init__(self, table):
        self.table, self.lookups = table, 0

    def __getitem__(self, key):
        self.lookups += 1
        return self.table[key]

    def __iter__(self):
        raise AssertionError("the norm walked the whole block table")

    def __len__(self):
        return len(self.table)


def test_sparse_norm_visits_only_the_stored_entries():
    # 4,095 branching blocks, a few of them stored on a few of 300 layers
    tree = tree_from_json(complete_binary(12))
    vertices = [v for v, _count in tree.branching_vertices()]
    layers = [(0, {})] * 300
    for n, v in ((3, vertices[0]), (3, vertices[4000]), (150, vertices[77]), (299, vertices[4094])):
        layers[n] = (Fraction(n, 7), {**layers[n][1], v: (n - 100,)})
    f = graded_function(tree, layers)
    stored = sum(len(layer) for layer in f.layers)
    assert stored == 300 + 4
    # the reference walks every block of its table on every layer, so it gets the stored ones only
    used = dataclasses.replace(f, blocks={b: f.blocks[b] for layer in f.layers for b in layer})
    for norm, space in ((dirichlet_norm, "dirichlet"), (bergman_norm, "bergman")):
        table = _CountedTable(f.blocks)
        assert norm(dataclasses.replace(f, blocks=table), 3) == _reference_norm(used, 3, space)
        assert table.lookups == stored


def test_float_norms_add_in_block_table_order():
    # each layer lists its blocks in the reverse of the table's order; the float sum follows the table
    tree = tree_from_json(complete_binary(4))
    rng = np.random.default_rng(5)
    backwards = [v for v, _count in tree.branching_vertices()][::-1]
    f = graded_function(tree, [(complex(*rng.normal(size=2)), {v: (complex(*rng.normal(size=2)),) for v in backwards}) for _ in range(30)])
    for q in (2, 3):
        assert dirichlet_norm(f, q) == _reference_norm(f, q, "dirichlet")
        assert bergman_norm(f, q) == _reference_norm(f, q, "bergman")


@pytest.mark.parametrize("q", [0, -1, Fraction(1, 2)])
def test_norms_check_q_before_any_early_exit(q):
    empty = graded_function(FORK2, [])
    zero = graded_function(FORK2, [(0, {"r": (Fraction(0),)}), (Fraction(0), {})])
    for f in (empty, zero):
        for norm in (dirichlet_norm, bergman_norm):
            with pytest.raises(InvalidQ):
                norm(f, q)
            for valid in (1, 3, Fraction(5, 2)):
                value = norm(f, valid)
                assert value == 0 and type(value) is Fraction


def test_integer_coordinates_give_a_fraction():
    f = graded_function(DOUBLE01, [(n - 100, {"r": (3,), "a": (n,)}) for n in range(200)])
    for q in (1, 2, 3):
        assert type(dirichlet_norm(f, q)) is Fraction and type(bergman_norm(f, q)) is Fraction
        assert dirichlet_norm(f, q) == _reference_norm(f, q, "dirichlet")
        assert bergman_norm(f, q) == _reference_norm(f, q, "bergman")
    assert type(h2_norm_via_measure_decomposition(f)) is Fraction


def _count_series_steps(monkeypatch):
    """The list that every step of the series loop appends its pair to."""
    steps, walk = [], spaces.pochhammer_ratio_terms

    def counted(a, b, order):
        for pair in walk(a, b, order):
            steps.append(pair)
            yield pair

    monkeypatch.setattr(spaces, "pochhammer_ratio_terms", counted)
    return steps


@pytest.mark.parametrize("space", ["dirichlet", "bergman"])
def test_series_order_in_the_thousands_is_linear_time(space, monkeypatch):
    # q = 3 root line at x = 0.99: the coefficients are 2/((n+1)(n+2)) and
    # (n+1)(n+2)/2, whose series have the closed forms below.
    x = 0.99
    order = kernel_series_order(3, space, x)
    assert order == {"dirichlet": 3207, "bergman": 4898}[space]
    steps = _count_series_steps(monkeypatch)
    value = kernel_block_series(3, 0, x, order, space)
    if space == "dirichlet":
        expected = 2 * (-math.log(1 - x) / x + (math.log(1 - x) + x) / x**2)
    else:
        expected = 1 / (1 - x) ** 3
    assert value.real == pytest.approx(expected, rel=1e-12)
    # both blocks are below the tolerance and the Dirichlet one below its rounding bound, in closed form
    assert steps == []


def test_dirichlet_block_its_rounding_bound_refuses_takes_one_step_per_term(monkeypatch):
    # q 6, l 40 at x 0.9: sum_j |A_j| = 80 C(45, 5) and 0.9^-45 put the rounding bound at 8e-6
    x = 0.9
    order = kernel_series_order(6, "dirichlet", x)
    steps = _count_series_steps(monkeypatch)
    value = kernel_block_series(6, 40, x, order, "dirichlet")
    assert len(steps) == order + 1
    assert value == _reference_block_series(6, 40, x, order, "dirichlet")


def test_dirichlet_closed_form_is_within_its_stated_error(monkeypatch):
    # q 1-8, l up to 200, r up to 0.999 and every order at or above the series order: an
    # accepted block is within CLOSED_FORM_RTOL of the sum of |terms| of the exact partial
    # sum, plus the remainder bound; a refused one asks for the series through its order,
    # here recorded and not summed
    series = []
    monkeypatch.setattr(spaces, "pochhammer_ratio_terms", lambda a, b, order: series.append(order) or iter(()))
    rng = np.random.default_rng(41)
    accepted, refused = set(), set()
    for _ in range(400):
        q, l = int(rng.integers(1, 9)), int(rng.choice([rng.integers(0, 13), rng.integers(0, 201)]))
        r = float(rng.choice([rng.random(), 1 - 10 ** -rng.uniform(0, 3), 0.999]))
        x = cmath.rect(r, rng.uniform(0, 2 * math.pi))
        order = kernel_series_order(q, "dirichlet", abs(x)) + int(rng.choice([0, 1, rng.integers(0, 1000)]))
        series.clear()
        value = kernel_block_series(q, l, x, order, "dirichlet")
        if series:
            assert series == [order]
            refused.add(q)
        else:
            assert _within_stated_error(q, l, x, order, value)
            accepted.add(q)
    # 1/(1-x) at q = 1 is always taken; from q = 2 on, the bound refuses some block of every q
    assert 1 not in refused and refused == set(range(2, 9))
    assert {1, 2, 3, 4} <= accepted


@pytest.mark.parametrize("x", [0j, 1e-300 + 0j, cmath.rect(1e-300, 2.0)])
def test_dirichlet_block_at_tiny_x_divides_by_no_power_of_x(x):
    # the rounding bound is compared times |x|^(l+q-1), which is 0 here, so from q = 2 on
    # the series runs, with the per-term reference's bits; q = 1 is 1/(1-x)
    for q in range(1, 9):
        for l in (0, 1, 40, 200):
            for order in (0, 1, 30):
                value = kernel_block_series(q, l, x, order, "dirichlet")
                assert _within_stated_error(q, l, x, order, value)
                if q > 1:
                    assert value == _reference_block_series(q, l, x, order, "dirichlet")
                else:
                    assert value == 1 / (1 - x)


@settings(max_examples=30, deadline=None)
@given(
    l=st.integers(min_value=0, max_value=12),
    order=st.integers(min_value=0, max_value=300),
    x=st.complex_numbers(max_magnitude=0.999, allow_nan=False, allow_infinity=False),
    space=st.sampled_from(["dirichlet", "bergman"]),
)
def test_block_series_of_an_integral_fraction_q_equals_the_integer_q(l, order, x, space):
    value = kernel_block_series(3, l, x, order, space)
    assert kernel_block_series(Fraction(3), l, x, order, space) == value
    assert kernel_block_series(np.int64(3), l, x, order, space) == value


def test_kernel_apply_sums_one_series_per_block_index(monkeypatch):
    calls = []

    def counted(q, l, x, order, space):
        calls.append(l)
        return kernel_block_series(q, l, x, order, space)

    monkeypatch.setattr(spaces, "kernel_block_series", counted)
    spec = kernel_block_spec(tree_from_json(complete_binary(8)))
    g = {block_id: (1.0, 2.0) for block_id, _l in spec.blocks}
    out = kernel_apply(spec, 2, "dirichlet", 0.9, 0.5, g, order=50)
    # the root line and 255 branching blocks on 9 distinct block indices
    assert len(out) == 256 and sorted(calls) == list(range(9))
    for block_id, l in spec.blocks:
        factor = kernel_block_series(2, l, 0.45, 50, "dirichlet")
        assert out[block_id] == (factor * 1.0, factor * 2.0)
    calls.clear()
    with pytest.raises(UnknownVertex):
        kernel_apply(spec, 2, "dirichlet", 0.9, 0.5, {**g, "missing": (1.0,)}, order=50)
    assert calls == []


@pytest.mark.parametrize("q", [0, -1, Fraction(1, 2)])
def test_q_below_one_is_rejected(q):
    spec = kernel_block_spec(FORK2)
    f = graded_function(FORK2, [(Fraction(1), {"r": (Fraction(1),)})])
    with pytest.raises(InvalidQ):
        kernel_apply(spec, q, "dirichlet", 0.1, 0.2, {None: (1.0,)}, order=5)
    with pytest.raises(InvalidQ):
        dirichlet_norm(f, q)
    with pytest.raises(InvalidQ):
        bergman_norm(f, q)
    with pytest.raises(InvalidQ):
        pick_property_check(q, None, 10)
    for space in ("dirichlet", "bergman"):
        with pytest.raises(InvalidQ):
            kernel_series_order(q, space, 0.5)


def _q_entry_points():
    """One call per public entry point that takes q, as a function of q."""
    spec = kernel_block_spec(FORK2)
    f = graded_function(FORK2, [(Fraction(1), {"r": (Fraction(1),)}), (2, {})])
    unitary = build_graded_unitary(decide_equivalence(FORK2, FORK2, 2))
    spaces_ = ("dirichlet", "bergman")
    return {
        "make_shift": lambda q: make_shift(FORK2, q, DIRICHLET, 4).weights.tolist(),
        "decide_equivalence": lambda q: decide_equivalence(FORK2, SPLIT, q).result,
        "verify_intertwining": lambda q: verify_intertwining(FORK2, FORK2, q, unitary, 4),
        "dirichlet_coefficient": lambda q: dirichlet_coefficient(q, 1, 3),
        "bergman_coefficient": lambda q: bergman_coefficient(q, 1, 3),
        "kernel_series_order": lambda q: [kernel_series_order(q, space, 0.5) for space in spaces_],
        "kernel_block_series": lambda q: [kernel_block_series(q, 1, 0.25, 5, space) for space in spaces_],
        "kernel_apply": lambda q: kernel_apply(spec, q, "dirichlet", 0.3, 0.2, {None: (1.0,)}, 5),
        "kernel_apply on no blocks": lambda q: kernel_apply(spec, q, "bergman", 0.3, 0.2, {}, 5),
        "dirichlet_norm": lambda q: dirichlet_norm(f, q),
        "bergman_norm": lambda q: bergman_norm(f, q),
        "pick_property_check": lambda q: pick_property_check(q, None, 10),
        "radial_weight": lambda q: radial_weight(q, 1),
        "bergman_weight_moment": lambda q: bergman_weight_moment(q, 1, 2),
    }


@pytest.mark.parametrize(
    "q", [2.0, 2.5, True, np.int64(2), Fraction(5, 2)], ids=["2.0", "2.5", "True", "int64-2", "5/2"]
)
def test_one_rule_for_q_at_every_entry_point(q):
    # a rational q >= 1 that is not a bool is a q (an integer one gives the int's results),
    # a float or a bool is none; a claim that needs an integer q refuses 5/2 by its own error
    for name, call in _q_entry_points().items():
        if isinstance(q, (bool, float)):
            with pytest.raises(InvalidQ):
                call(q)
        elif q.denominator == 1:
            assert call(q) == call(int(q)), name
        elif name == "decide_equivalence":
            with pytest.raises(InvalidQ):
                call(q)
        elif name in ("radial_weight", "bergman_weight_moment"):
            with pytest.raises(WrongQ):
                call(q)
        else:
            call(q)


def test_negative_order_is_refused():
    message = "^order must be nonnegative, got -1$"
    with pytest.raises(ValueError, match=message):
        kernel_apply(kernel_block_spec(LINE), 2, "dirichlet", 0.3, 0.2, {None: (1,)}, -1)
    with pytest.raises(ValueError, match=message):
        kernel_apply(kernel_block_spec(LINE), 2, "dirichlet", 0.3, 0.2, {}, -1)
    for space in ("dirichlet", "bergman"):
        with pytest.raises(ValueError, match=message):
            kernel_block_series(2, 0, 0.25, -1, space)
