import cmath
import dataclasses
import math
import time
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
    expected_oracle_diagonal,
    fan,
    named_horizon,
    prefix_trees,
    reference_log_convexity_check,
    vec_norm,
    walked_series_order,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    DUAL,
    KernelBlockSpec,
    PickReport,
    bergman_coefficient,
    bergman_norm,
    bergman_weight_moment,
    cokernel_dimension,
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
    pick_property_check,
    pochhammer_ratio,
    radial_weight,
    spaces,
    tree_from_json,
)
from treeshift.errors import InvalidQ, OutsideDisc, TruncationLoss, UnknownVertex, WrongQ
from treeshift.numerics import pochhammer_ratios
from treeshift.shifts import DIRICHLET
from treeshift.spaces import kernel_block_series, kernel_compression_maxima


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
    # q >= 2 but not an integer; a numpy integer is one
    for q in (Fraction(5, 2), 2.0):
        with pytest.raises(WrongQ):
            radial_weight(q, 1)
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


def test_kernel_apply_is_linear_in_the_number_of_blocks():
    spec = KernelBlockSpec(blocks=((None, 0),) + tuple((f"v{i}", 1 + i % 9) for i in range(19_999)))
    g = {block_id: (1.0,) for block_id, _l in spec.blocks}
    started = time.perf_counter()
    out = kernel_apply(spec, 2, "dirichlet", 0.3, 0.4, g, order=0)
    elapsed = time.perf_counter() - started
    assert len(out) == 20_000 and all(coords == (1.0,) for coords in out.values())
    assert elapsed < 1.0, f"20,000 blocks took {elapsed:.2f}s"
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
    of a space are the kernel coefficients of the other one."""
    dual = "bergman" if space == "dirichlet" else "dirichlet"

    def weight(l, n):
        return pochhammer_ratio(*_reference_pair(q, l, dual), n)

    def square(c):
        return Fraction(c) ** 2 if isinstance(c, (int, Fraction)) else abs(c) ** 2

    total = Fraction(0)
    for n, layer in enumerate(f.layers):
        (root,) = layer[None]
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
def test_block_series_equals_per_term_reference(q, l, order, radius, angle, space):
    x = cmath.rect(radius, angle)
    expected = _reference_block_series(q, l, x, order, space)
    assert kernel_block_series(q, l, x, order, space) == expected


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


def test_numpy_integer_coordinates_square_exactly():
    # a numpy square would wrap around: 2^66 to 0, 3037000500^2 to a negative
    big = graded_function(FORK2, [(np.int64(2**33), {})])
    assert dirichlet_norm(big, 2) == 2**66
    edge = graded_function(FORK2, [(np.int64(3037000500), {"r": (np.int32(-7),)}), (np.uint8(200), {})])
    for norm in (dirichlet_norm, bergman_norm):
        value = norm(edge, 2)
        assert type(value) is Fraction and value == 3037000500**2 + 49 + 200**2 * (2 if norm is dirichlet_norm else Fraction(1, 2))


def test_norm_walks_the_pairs_once_per_block_index(monkeypatch):
    layers = [(Fraction(n + 1), {"r": (Fraction(1, n + 2),), "a": (Fraction(n),)}) for n in range(200)]
    f = graded_function(DOUBLE01, layers)
    expected = {q: (dirichlet_norm(f, q), bergman_norm(f, q)) for q in (2, Fraction(5, 2))}
    h2 = dirichlet_norm(f, 2)
    calls, walk = [], spaces.pochhammer_ratio_terms

    def counted(a, b, order):
        calls.append((a, b, order))
        return walk(a, b, order)

    monkeypatch.setattr(spaces, "pochhammer_ratio_terms", counted)
    for q, (dirichlet, bergman) in expected.items():
        calls.clear()
        assert dirichlet_norm(f, q) == dirichlet
        # the root line, r and a: block indices 0, 1 and 2, each walked through order 199
        assert sorted(calls) == [(l + q, l + 1, 199) for l in range(3)]
        calls.clear()
        assert bergman_norm(f, q) == bergman
        assert sorted(calls) == [(l + 1, l + q, 199) for l in range(3)]

    def refuse(*args):
        raise AssertionError("the measure decomposition read moment_bases")

    monkeypatch.setattr(spaces, "moment_bases", refuse)
    assert h2_norm_via_measure_decomposition(f) == h2


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


@pytest.mark.parametrize("space", ["dirichlet", "bergman"])
def test_series_order_in_the_thousands_is_linear_time(space):
    # q = 3 root line at x = 0.99: the coefficients are 2/((n+1)(n+2)) and
    # (n+1)(n+2)/2, whose series have the closed forms below.
    x = 0.99
    order = kernel_series_order(3, space, x)
    assert order == {"dirichlet": 3207, "bergman": 4898}[space]
    started = time.perf_counter()
    value = kernel_block_series(3, 0, x, order, space)
    elapsed = time.perf_counter() - started
    if space == "dirichlet":
        expected = 2 * (-math.log(1 - x) / x + (math.log(1 - x) + x) / x**2)
    else:
        expected = 1 / (1 - x) ** 3
    assert value.real == pytest.approx(expected, rel=1e-12)
    assert elapsed < 1.0, f"order {order} took {elapsed:.2f}s"


@settings(max_examples=30, deadline=None)
@given(
    l=st.integers(min_value=0, max_value=12),
    order=st.integers(min_value=0, max_value=300),
    x=st.complex_numbers(max_magnitude=0.999, allow_nan=False, allow_infinity=False),
    space=st.sampled_from(["dirichlet", "bergman"]),
)
def test_block_series_of_an_integral_fraction_q_equals_the_integer_q(l, order, x, space):
    assert kernel_block_series(Fraction(3), l, x, order, space) == kernel_block_series(3, l, x, order, space)


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
