import collections
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from corpus import (
    DEEP13,
    DEEP13_WIDER,
    DOUBLE01,
    FORK3,
    LINE,
    PROFILE_PAIR,
    TOTALS_PAIR,
    complete_binary,
    prefix_trees,
    recursive_canonical_form,
    reference_kernel_basis,
    relabel_and_shuffle,
    same_profile_tree,
    to_array,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    build_graded_unitary,
    build_tree,
    cokernel_dimension,
    decide_equivalence,
    lift_graded_unitary,
    make_shift,
    tree_from_json,
    verify_intertwining,
)
from treeshift import classify
from treeshift.classify import GradedUnitary, LiftedUnitary, LiftSide, _residual
from treeshift.errors import InvalidQ, NotEquivalentError, TruncationLoss
from treeshift.shifts import DIRICHLET, ShiftOperator, kernel_births


def test_cokernel_dimensions():
    assert cokernel_dimension(LINE) == 1
    assert cokernel_dimension(FORK3) == 3
    assert cokernel_dimension(DOUBLE01) == 3


def test_isomorphic_pair_is_equivalent_for_every_q():
    other = build_tree("s", {"s": ["x", "y"], "y": ["u", "w"]}, ["x", "u", "w"])
    assert recursive_canonical_form(DOUBLE01, 8) == recursive_canonical_form(other, 8)
    for q in range(1, 5):
        assert decide_equivalence(DOUBLE01, other, q).result == EQUIVALENT


def test_totals_pair_separates_q1_from_q2():
    tree1, tree2 = TOTALS_PAIR
    q1 = decide_equivalence(tree1, tree2, 1)
    assert q1.result == EQUIVALENT and q1.witness is None
    q2 = decide_equivalence(tree1, tree2, 2)
    assert q2.result == NOT_EQUIVALENT
    assert q2.witness == 0


def test_line_tree_self_equivalence():
    for q in (1, 2, 5):
        assert decide_equivalence(LINE, LINE, q).result == EQUIVALENT


def test_q_must_be_a_positive_integer():
    with pytest.raises(InvalidQ):
        decide_equivalence(LINE, LINE, 0)
    for q in (2.0, np.float64(2.0), np.int64(0), True):
        with pytest.raises(InvalidQ):
            decide_equivalence(LINE, LINE, q)
    # every rational q >= 1 is a q, by the one rule of ``require_q``
    assert decide_equivalence(*PROFILE_PAIR, Fraction(2)) == decide_equivalence(*PROFILE_PAIR, 2)


@pytest.mark.parametrize(
    "pair",
    [PROFILE_PAIR, PROFILE_PAIR[::-1], TOTALS_PAIR, (DEEP13, DEEP13_WIDER), (DEEP13, DOUBLE01), (FORK3, DOUBLE01)],
    ids=["profile", "profile-reversed", "totals", "deep13-wider", "deep13-double01", "fork3-double01"],
)
def test_a_rational_q_gives_the_q2_verdicts(pair):
    # the profile criterion holds for every q > 1, where the generation scalars rho(n) are distinct
    q = Fraction(5, 2)
    verdict = decide_equivalence(*pair, q)
    assert verdict == decide_equivalence(*pair, 2)
    if verdict.equivalent:
        depth = max(tree.branching_index() for tree in pair) + 4
        assert verify_intertwining(*pair, q, build_graded_unitary(verdict), depth) < 1e-8


def test_numpy_integer_q_is_accepted():
    # as in make_shift and radial_weight, any integral q is a q
    for q in (np.int64(1), np.int64(2), np.int32(3)):
        assert decide_equivalence(*PROFILE_PAIR, q) == decide_equivalence(*PROFILE_PAIR, int(q))
    assert decide_equivalence(*TOTALS_PAIR, np.int64(2)).witness == 0


def test_profile_pair_equivalent_but_not_isomorphic():
    wide, split = PROFILE_PAIR
    assert recursive_canonical_form(wide, 8) != recursive_canonical_form(split, 8)
    for q in range(1, 5):
        assert decide_equivalence(wide, split, q).result == EQUIVALENT


def test_horizon_limited_verdicts():
    # the profiles are read down to the deepest branching vertex, so the
    # depth-3 difference decides the verdict
    verdict = decide_equivalence(DEEP13, DEEP13_WIDER, 2)
    assert verdict.result == NOT_EQUIVALENT
    assert verdict.witness == 3


def _random_tree(seed: int):
    rng = random.Random(seed)
    counter = itertools.count(1)
    children: dict[str, list[str]] = {}
    rays: list[str] = []
    frontier = ["v0"]
    for depth in range(rng.randint(1, 3)):
        nxt = []
        for v in frontier:
            if rng.random() < 0.6:
                kids = [f"v{next(counter)}" for _ in range(rng.randint(2, 3))]
                children[v] = kids
                nxt.extend(kids)
            else:
                rays.append(v)
        frontier = nxt
    rays.extend(frontier)
    return build_tree("v0", children, rays)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_decide_equivalence_is_an_equivalence_relation(q):
    trees = [_random_tree(seed) for seed in range(12)]
    related = {
        (i, j): decide_equivalence(trees[i], trees[j], q).equivalent
        for i in range(len(trees))
        for j in range(len(trees))
    }
    for i in range(len(trees)):
        assert related[i, i]
        for j in range(len(trees)):
            assert related[i, j] == related[j, i]
            for k in range(len(trees)):
                if related[i, j] and related[j, k]:
                    assert related[i, k]


@settings(max_examples=60, deadline=None)
@given(
    trees=st.lists(prefix_trees(max_vertices=6), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
    q=st.integers(1, 4),
)
def test_decide_equivalence_laws_on_prefix_trees(trees, seed, q):
    a, b, c = trees
    assert decide_equivalence(a, relabel_and_shuffle(a, seed), q).equivalent
    ab, ba = decide_equivalence(a, b, q), decide_equivalence(b, a, q)
    assert (ab.result, ab.witness) == (ba.result, ba.witness)
    if ab.equivalent and decide_equivalence(b, c, q).equivalent:
        assert decide_equivalence(a, c, q).equivalent


@settings(max_examples=60, deadline=None)
@given(a=prefix_trees(max_vertices=6), b=prefix_trees(max_vertices=6), q=st.integers(1, 4))
def test_verdict_compares_complete_branching_data(a, b, q):
    # q = 1 reads the total branching defect, q >= 2 the defect of every generation
    defects = [collections.Counter(), collections.Counter()]
    for tree, counter in zip((a, b), defects):
        for v, count in tree.branching_vertices():
            counter[tree.depth_of(v)] += count - 1
    same = defects[0].total() == defects[1].total() if q == 1 else defects[0] == defects[1]
    assert decide_equivalence(a, b, q).equivalent == same


def test_equivalence_at_higher_q_implies_equivalence_at_one():
    trees = [_random_tree(seed) for seed in range(12)]
    for t1, t2 in itertools.combinations(trees, 2):
        for q in (2, 3):
            if decide_equivalence(t1, t2, q).result == EQUIVALENT:
                assert decide_equivalence(t1, t2, 1).result == EQUIVALENT


def test_graded_unitary_shapes():
    other = build_tree("s", {"s": ["x", "y"], "y": ["u", "w"]}, ["x", "u", "w"])
    unitary = build_graded_unitary(decide_equivalence(DOUBLE01, other, 3))
    # one Helmert coordinate per generation: the root and y each branch in two
    assert unitary.generations == {0: 1, 1: 1}
    line_unitary = build_graded_unitary(decide_equivalence(LINE, LINE, 2))
    assert line_unitary.generations == {}
    wide_unitary = build_graded_unitary(decide_equivalence(*PROFILE_PAIR, 2))
    # the identity carries no matrix, only the count of each generation
    assert wide_unitary.generations[1] == 2
    assert all(type(count) is int for count in wide_unitary.generations.values())


def test_graded_unitary_requires_equivalence():
    with pytest.raises(NotEquivalentError):
        build_graded_unitary(decide_equivalence(*TOTALS_PAIR, 2))
    # equivalent at q = 1, but no graded unitary exists across profiles
    with pytest.raises(ValueError):
        build_graded_unitary(decide_equivalence(*TOTALS_PAIR, 1))


def test_identity_pair_residual_is_roundoff():
    unitary = build_graded_unitary(decide_equivalence(DOUBLE01, DOUBLE01, 2))
    residual = verify_intertwining(DOUBLE01, DOUBLE01, 2, unitary, 10)
    assert residual < 1e-12


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_profile_pair_intertwines(q):
    wide, split = PROFILE_PAIR
    unitary = build_graded_unitary(decide_equivalence(wide, split, q))
    residual = verify_intertwining(wide, split, q, unitary, 12)
    assert residual < 1e-8


def test_lift_is_unitary():
    wide, split = PROFILE_PAIR
    unitary = build_graded_unitary(decide_equivalence(wide, split, 2))
    lift = lift_graded_unitary(wide, split, 2, unitary, 10)
    n1 = lift.source.shape[0]

    def lifted(f):
        return lift.target @ (lift.source.T @ f)

    assert lifted(np.eye(n1)).shape == (lift.target.shape[0], n1)
    assert np.max(np.abs(lift.source.T @ (lift.source @ np.eye(n1)) - np.eye(n1))) < 1e-10
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = rng.standard_normal(n1)
        assert np.linalg.norm(lifted(f)) == pytest.approx(
            np.linalg.norm(f), rel=1e-10
        )


# relative gap allowed between the norms of a reference column pair
_NORM_MATCH_TOL = 1e-10


def _lift_pairs(shift1, shift2, pairs, check_norms):
    """Reference lift: push each column pair on its own and keep dense n x c blocks.

    ``pairs`` holds (source array, target array, highest power).
    """
    cols1, cols2 = [], []
    for a1, a2, max_power in pairs:
        for power in range(max_power + 1):
            if power:
                a1, a2 = shift1.act(a1), shift2.act(a2)
            n1, n2 = np.linalg.norm(a1), np.linalg.norm(a2)
            if check_norms and abs(n1 - n2) > _NORM_MATCH_TOL * max(n1, n2):
                raise AssertionError(f"moment mismatch at power {power}: {n1} vs {n2}")
            cols1.append(a1 / n1)
            cols2.append(a2 / n2)
    return LiftedUnitary(source=np.column_stack(cols1), target=np.column_stack(cols2), shifts=(shift1, shift2))


def reference_lift(tree1, tree2, q, unitary, depth):
    """The lift built column by column from the per-vertex reference kernel basis."""
    shift1 = make_shift(tree1, q, DIRICHLET, depth)
    shift2 = make_shift(tree2, q, DIRICHLET, depth)
    blocks1, blocks2 = reference_kernel_basis(shift1).blocks, reference_kernel_basis(shift2).blocks
    pairs = [
        (
            to_array(shift1, {tree1.root: 1.0}),
            to_array(shift2, {tree2.root: 1.0}),
            depth,
        )
    ]
    for n in sorted(unitary.generations):
        # the reference lists its blocks breadth-first, the coordinate order of the unitary
        flat1 = [v for b in blocks1 if b.l == n + 1 for v in b.vectors]
        flat2 = [v for b in blocks2 if b.l == n + 1 for v in b.vectors]
        assert len(flat1) == len(flat2) == unitary.generations[n]
        for vec1, vec2 in zip(flat1, flat2):
            pairs.append((to_array(shift1, vec1), to_array(shift2, vec2), depth - (n + 1)))
    return _lift_pairs(shift1, shift2, pairs, check_norms=True)


def forced_flat_residual(tree1, tree2, q, depth):
    """Best-effort lift for a pair with equal cokernel totals.

    Kernel vectors are paired in flat order regardless of generation, each
    side normalized on its own.  When the depth profiles differ no
    intertwiner exists and the residual stays bounded away from zero.
    """
    shift1 = make_shift(tree1, q, DIRICHLET, depth)
    shift2 = make_shift(tree2, q, DIRICHLET, depth)
    flat1, flat2 = (
        [(block, vec) for block in reference_kernel_basis(shift).blocks for vec in block.vectors]
        for shift in (shift1, shift2)
    )
    assert len(flat1) == len(flat2)
    pairs = [
        (to_array(shift1, vec1), to_array(shift2, vec2), depth - max(block1.l, block2.l))
        for (block1, vec1), (block2, vec2) in zip(flat1, flat2)
    ]
    return _residual(_lift_pairs(shift1, shift2, pairs, check_norms=False), seed=42)


def test_forced_pairing_residual_is_bounded_away_from_zero():
    residual = forced_flat_residual(*TOTALS_PAIR, 2, 8)
    assert residual > 0.01


def _lift_map(lift):
    return lift.target @ (lift.source.T @ np.eye(lift.source.shape[0]))


def _unitary(tree1, tree2, q):
    """The graded unitary of an equivalent pair."""
    return build_graded_unitary(decide_equivalence(tree1, tree2, q))


def _assert_lift_matches_reference(tree1, tree2, q, depth):
    # the whole map target @ source.T pins the column pairing: a permutation of the
    # columns on one side changes it
    unitary = _unitary(tree1, tree2, q)
    lift = lift_graded_unitary(tree1, tree2, q, unitary, depth)
    reference = reference_lift(tree1, tree2, q, unitary, depth)
    assert lift.source.shape == reference.source.shape
    assert lift.target.shape == reference.target.shape
    assert np.max(np.abs(_lift_map(lift) - _lift_map(reference))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(tree=prefix_trees(), seed=st.integers(0, 2**16), q=st.integers(1, 4), extra=st.integers(0, 8))
def test_block_lift_matches_reference_on_relabelled_copies(tree, seed, q, extra):
    _assert_lift_matches_reference(tree, relabel_and_shuffle(tree, seed), q, tree.branching_index() + 1 + extra)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("depth", [3, 6])
def test_block_lift_matches_reference_on_profile_pair(q, depth):
    _assert_lift_matches_reference(*PROFILE_PAIR, q, depth)


# two trees of one depth profile, often not isomorphic: the lift pairs kernel columns
# of vertices with different sibling counts and different positions
@settings(max_examples=40, deadline=None)
@given(
    tree=prefix_trees(max_vertices=12),
    seed=st.integers(0, 2**16),
    q=st.integers(1, 4),
    extra=st.integers(0, 8),
)
def test_lift_matches_reference_on_prefix_trees_of_one_profile(tree, seed, q, extra):
    other = same_profile_tree(tree, seed)
    _assert_lift_matches_reference(tree, other, q, tree.branching_index() + 1 + extra)


# the premise of the per-side lift: two truncations of one depth profile widen on the
# same generations by the same counts, so their lift sides widen, and share blocks, alike
@settings(max_examples=60, deadline=None)
@given(tree=prefix_trees(), seed=st.integers(0, 2**16))
def test_trees_of_one_profile_have_equal_kernel_births(tree, seed):
    other = same_profile_tree(tree, seed)
    horizon = tree.branching_index() + 8
    assert kernel_births(tree.truncate(horizon)) == kernel_births(other.truncate(horizon))


_BINARY3 = tree_from_json(complete_binary(3))
# (tree1, tree2, depth)
LIFT_PAIRS = {
    "wide-split": (*PROFILE_PAIR, 7),
    "split-wide": (*reversed(PROFILE_PAIR), 7),
    "deep13": (DEEP13, relabel_and_shuffle(DEEP13, 7), 8),
    "binary3": (_BINARY3, relabel_and_shuffle(_BINARY3, 3), 6),
}


def test_lift_blocks_are_one_generation_each():
    wide, split = PROFILE_PAIR
    unitary = build_graded_unitary(decide_equivalence(wide, split, 3))
    lift = lift_graded_unitary(wide, split, 3, unitary, 7)
    sizes = [len(gen) for gen in wide.truncate(7).generations]
    for side in (lift.source, lift.target):
        assert isinstance(side, LiftSide)
        assert side.shape == side.T.shape == (sum(sizes), sum(sizes))
        assert np.diff(side.offsets).tolist() == sizes
        # block d is square: the columns pushed from generation d - 1, then the ones born on d
        newborn = [0 if runs is None else len(runs[0]) for runs in side.runs]
        assert [p.shape[0] for p in side.pushed] == sizes
        assert [p.shape[1] + k for p, k in zip(side.pushed, newborn)] == sizes


SHARING_PAIRS = {
    "profile-pair": (*PROFILE_PAIR, 12),
    "binary3-12": (_BINARY3, relabel_and_shuffle(_BINARY3, 3), 12),
    **LIFT_PAIRS,
}


@pytest.mark.parametrize("pair", sorted(SHARING_PAIRS))
def test_lift_shares_the_block_above_exactly_where_no_width_changes(pair):
    tree1, tree2, depth = SHARING_PAIRS[pair]
    unitary = _unitary(tree1, tree2, 2)
    lift = lift_graded_unitary(tree1, tree2, 2, unitary, depth)
    widths1, widths2 = ([len(gen) for gen in tree.truncate(depth).generations] for tree in (tree1, tree2))
    kept = [widths1[d] == widths1[d - 1] and widths2[d] == widths2[d - 1] for d in range(1, depth + 1)]
    assert any(kept)
    for d in range(1, depth + 1):
        for side in (lift.source, lift.target):
            assert (side.pushed[d] is side.pushed[d - 1]) == kept[d - 1]
            assert (side.runs[d] is side.runs[d - 1]) == kept[d - 1]


def test_lift_blocks_are_read_only():
    wide, split = PROFILE_PAIR
    unitary = build_graded_unitary(decide_equivalence(wide, split, 2))
    lift = lift_graded_unitary(wide, split, 2, unitary, 12)
    widths1, widths2 = ([len(gen) for gen in tree.truncate(12).generations] for tree in (wide, split))
    widening = [d for d in range(1, 13) if widths1[d] != widths1[d - 1] or widths2[d] != widths2[d - 1]]
    assert widening
    for side in (lift.source, lift.target):
        for d in range(13):
            with pytest.raises(ValueError, match="read-only"):
                side.pushed[d][0, 0] = 0.0
        # a widening block stores the columns of the block above, pushed; its newborn ones
        # are applied by prefix sums
        for d in widening:
            assert side.pushed[d].shape[1] == widths1[d - 1] < widths1[d] == side.pushed[d].shape[0]
    assert _residual(lift, seed=42) < 1e-12
    assert verify_intertwining(wide, split, 2, unitary, 12) < 1e-12


def _assert_lift_is_complex_linear(tree1, tree2, q, depth, seed):
    """The lift of complex coordinates is the lift of their real and imaginary parts."""
    unitary = build_graded_unitary(decide_equivalence(tree1, tree2, q))
    lift = lift_graded_unitary(tree1, tree2, q, unitary, depth)
    rng = np.random.default_rng(seed)
    n = lift.source.shape[0]
    f = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))

    def lifted(a):
        return lift.target @ (lift.source.T @ a)

    for a in (f, f[:, 0]):
        image = lifted(a)
        assert image.dtype == np.complex128
        assert np.max(np.abs(image - (lifted(a.real) + 1j * lifted(a.imag)))) < 1e-15
        assert np.linalg.norm(image, axis=0) == pytest.approx(np.linalg.norm(a, axis=0), rel=1e-12)


def test_lift_of_complex_coordinates_on_profile_pair():
    _assert_lift_is_complex_linear(*PROFILE_PAIR, 2, 10, seed=3)


@settings(max_examples=40, deadline=None)
@given(tree=prefix_trees(max_vertices=12), seed=st.integers(0, 2**16), q=st.integers(1, 4), extra=st.integers(0, 8))
def test_lift_of_complex_coordinates_on_prefix_trees_of_one_profile(tree, seed, q, extra):
    other = same_profile_tree(tree, seed)
    _assert_lift_is_complex_linear(tree, other, q, tree.branching_index() + 1 + extra, seed)


@pytest.mark.parametrize(
    ("tree1", "tree2", "depth", "pushes"),
    [(_BINARY3, relabel_and_shuffle(_BINARY3, 3), 40, 6), (LINE, LINE, 1000, 0)],
    ids=["binary3-40", "line-1000"],
)
def test_lift_pushes_only_where_a_width_changes(monkeypatch, tree1, tree2, depth, pushes):
    # binary 3 widens on generations 1, 2 and 3 only, so each side pushes three
    # times; one push per generation and side would be 2 x depth
    unitary = build_graded_unitary(decide_equivalence(tree1, tree2, 2))
    calls = []
    push = ShiftOperator.push

    def counting_push(self, block, generation):
        calls.append(generation)
        return push(self, block, generation)

    monkeypatch.setattr(ShiftOperator, "push", counting_push)
    lift = lift_graded_unitary(tree1, tree2, 2, unitary, depth)
    assert len(calls) == pushes
    assert _residual(lift, seed=42) < 1e-12


@pytest.mark.parametrize("pair", ["profile-pair", "deep13"])
def test_lift_is_q_free_bit_for_bit(pair):
    # both shifts are a scalar per generation times their isometry, and the lift pushes by
    # the isometries alone, so every stored column is the same double for every q
    tree1, tree2 = PROFILE_PAIR if pair == "profile-pair" else (DEEP13, relabel_and_shuffle(DEEP13, 7))

    def stored(q):
        lift = lift_graded_unitary(tree1, tree2, q, _unitary(tree1, tree2, q), 9)
        return [*lift.source.pushed, *lift.target.pushed]

    at_q2 = stored(2)
    for q in (1, 3, 6, 8):
        assert all(np.array_equal(a, b) for a, b in zip(stored(q), at_q2, strict=True))


def test_truncation_loss_when_blocks_need_more_depth():
    wide, split = PROFILE_PAIR
    unitary = build_graded_unitary(decide_equivalence(wide, split, 2))
    with pytest.raises(TruncationLoss, match="generation 1 blocks need depth at least 3"):
        lift_graded_unitary(wide, split, 2, unitary, 2)


@pytest.mark.parametrize(
    ("pair", "generations", "message"),
    [
        # FORK3's unitary on the pair of FORK3 and DOUBLE01, equal in total only
        (TOTALS_PAIR, {0: 2}, "graded unitary {0: 2} does not match the births {0: 1, 1: 1} of tree 2"),
        # PROFILE_PAIR's unitary without its generation 0
        (PROFILE_PAIR, {1: 2}, "graded unitary {1: 2} does not match the births {0: 1, 1: 2} of tree 1"),
    ],
    ids=["another-pair", "dropped-generation"],
)
def test_lift_refuses_a_unitary_the_trees_do_not_carry(monkeypatch, pair, generations, message):
    pushes, push = [], ShiftOperator.push

    def counting_push(self, block, generation):
        pushes.append(generation)
        return push(self, block, generation)

    monkeypatch.setattr(ShiftOperator, "push", counting_push)
    with pytest.raises(ValueError) as excinfo:
        verify_intertwining(*pair, 2, GradedUnitary(generations), 6)
    assert str(excinfo.value) == message
    assert pushes == []


def test_verify_refuses_generation_blocks_over_the_limit(monkeypatch):
    # DOUBLE01 has generations of 1, 2, 3, 3, ... vertices carrying 1, 2, 3, 3, ... lifted
    # columns.  Generation 2 pushes the 2 columns of generation 1, so that block stores
    # them; generation 2 widens last and stores its 2 pushed columns only, its newborn
    # one applied by prefix sums: the largest stored block is 3 x 2
    # at depth 3 that block sits on generation depth - 1, the deepest a lift can widen on
    unitary = build_graded_unitary(decide_equivalence(DOUBLE01, DOUBLE01, 2))
    for depth in (10, 3):
        monkeypatch.setattr(classify, "MAX_BLOCK_ENTRIES", 6)
        assert verify_intertwining(DOUBLE01, DOUBLE01, 2, unitary, depth) < 1e-12
        monkeypatch.setattr(classify, "MAX_BLOCK_ENTRIES", 5)
        with pytest.raises(
            ValueError, match="^lift needs a 3 x 2 block of stored columns on generation 2, over the limit of 5 float64"
        ):
            verify_intertwining(DOUBLE01, DOUBLE01, 2, unitary, depth)
    # FORK3's identity graded unitary carries no matrix: generation 1 stores its one
    # pushed root column and applies both newborn ones by prefix sums
    monkeypatch.setattr(classify, "MAX_BLOCK_ENTRIES", 3)
    identity = build_graded_unitary(decide_equivalence(FORK3, FORK3, 2))
    assert verify_intertwining(FORK3, FORK3, 2, identity, 6) < 1e-12


def test_binary9_verify_at_depth_12_allocates_no_dense_matrix():
    # one dense matrix over the 2,559 vertices would be 50 MB; one verify peaks near 6 MiB
    tree = tree_from_json(complete_binary(9))
    unitary = build_graded_unitary(decide_equivalence(tree, tree, 2))
    tracemalloc.start()
    try:
        residual = verify_intertwining(tree, tree, 2, unitary, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual < 1e-8
    assert peak < 16 * 2**20
