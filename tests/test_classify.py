import collections
import dataclasses
import itertools
import random
import time

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
from treeshift.classify import _NORM_MATCH_TOL, HelmertBlock, Identity, LiftedUnitary, _residual
from treeshift.errors import InvalidQ, NotEquivalentError, TruncationLoss
from treeshift.shifts import DIRICHLET, ShiftOperator


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
    assert sorted(unitary.generations) == [0, 1]
    assert unitary.generations[1].shape == (1, 1)
    assert unitary.generations[1] == Identity(1)
    line_unitary = build_graded_unitary(decide_equivalence(LINE, LINE, 2))
    assert line_unitary.generations == {}
    wide_unitary = build_graded_unitary(decide_equivalence(*PROFILE_PAIR, 2))
    assert wide_unitary.generations[1].shape == (2, 2)
    # the identity carries no matrix
    assert wide_unitary.generations[1] == Identity(2)


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


def _lift_pairs(shift1, shift2, pairs, check_norms):
    """Reference lift: push each column pair on its own and keep dense n x c blocks.

    ``pairs`` holds (source array, target array, highest power); the
    columns below the highest power form the domain.
    """
    cols1, cols2, domain = [], [], []
    for a1, a2, max_power in pairs:
        for power in range(max_power + 1):
            if power:
                a1, a2 = shift1.act(a1), shift2.act(a2)
            n1, n2 = np.linalg.norm(a1), np.linalg.norm(a2)
            if check_norms and abs(n1 - n2) > _NORM_MATCH_TOL * max(n1, n2):
                raise AssertionError(f"moment mismatch at power {power}: {n1} vs {n2}")
            if power < max_power:
                domain.append(len(cols1))
            cols1.append(a1 / n1)
            cols2.append(a2 / n2)
    return LiftedUnitary(
        source=np.column_stack(cols1),
        target=np.column_stack(cols2),
        domain=tuple(domain),
        shifts=(shift1, shift2),
    )


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
        images = np.column_stack([to_array(shift2, v) for v in flat2])
        if isinstance(unitary.generations[n], np.ndarray):
            images = images @ unitary.generations[n]
        for i, vec1 in enumerate(flat1):
            pairs.append((to_array(shift1, vec1), images[:, i], depth - (n + 1)))
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


def _random_orthogonal(unitary, seed):
    """``unitary`` with a seeded random orthogonal matrix on every generation."""
    rng = np.random.default_rng(seed)
    mixed = {n: np.linalg.qr(rng.standard_normal(u.shape))[0] for n, u in unitary.generations.items()}
    return dataclasses.replace(unitary, generations=mixed)


def _unitary(tree1, tree2, q, drop=()):
    """The graded unitary of an equivalent pair, without the generations in ``drop``."""
    unitary = build_graded_unitary(decide_equivalence(tree1, tree2, q))
    kept = {n: u for n, u in unitary.generations.items() if n not in drop}
    return dataclasses.replace(unitary, generations=kept)


def _assert_lift_matches_reference(tree1, tree2, q, depth, drop=(), mix_seed=None):
    unitary = _unitary(tree1, tree2, q, drop)
    if mix_seed is not None:
        unitary = _random_orthogonal(unitary, mix_seed)
    lift = lift_graded_unitary(tree1, tree2, q, unitary, depth)
    reference = reference_lift(tree1, tree2, q, unitary, depth)
    assert lift.source.shape == reference.source.shape
    assert lift.target.shape == reference.target.shape
    assert len(lift.domain) == len(reference.domain)
    assert np.max(np.abs(_lift_map(lift) - _lift_map(reference))) < 1e-12
    if mix_seed is not None:
        assert verify_intertwining(tree1, tree2, q, unitary, depth) < 1e-8


@settings(max_examples=40, deadline=None)
@given(tree=prefix_trees(), seed=st.integers(0, 2**16), q=st.integers(1, 4), extra=st.integers(0, 8))
def test_block_lift_matches_reference_on_relabelled_copies(tree, seed, q, extra):
    _assert_lift_matches_reference(tree, relabel_and_shuffle(tree, seed), q, tree.branching_index() + 1 + extra)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("depth", [3, 6])
def test_block_lift_matches_reference_on_profile_pair(q, depth):
    _assert_lift_matches_reference(*PROFILE_PAIR, q, depth)


def test_block_lift_matches_reference_below_a_limited_horizon():
    # DEEP13 branches at depths 1 and 3; a unitary without its generation-3
    # block leaves the kernel columns born on generation 4 out, so the deeper
    # generation blocks have more rows than columns
    other = relabel_and_shuffle(DEEP13, 7)
    _assert_lift_matches_reference(DEEP13, other, 2, 7, drop={3})
    unitary = _unitary(DEEP13, other, 2, drop={3})
    assert sorted(unitary.generations) == [1]
    lift = lift_graded_unitary(DEEP13, other, 2, unitary, 7)
    assert any(b.shape[0] > b.shape[1] for b in lift.source.blocks)
    assert verify_intertwining(DEEP13, other, 2, unitary, 7) < 1e-12


# a non-identity unitary pins the coordinate order of each generation: a
# permutation of the columns on one side no longer cancels
@settings(max_examples=40, deadline=None)
@given(tree=prefix_trees(), seed=st.integers(0, 2**16), q=st.integers(1, 4), extra=st.integers(0, 8))
def test_mixed_lift_matches_reference_on_relabelled_copies(tree, seed, q, extra):
    other = relabel_and_shuffle(tree, seed)
    _assert_lift_matches_reference(tree, other, q, tree.branching_index() + 1 + extra, mix_seed=seed)


# two trees of one depth profile, often not isomorphic: the lift pairs kernel columns
# of vertices with different sibling counts and different positions
@settings(max_examples=40, deadline=None)
@given(
    tree=prefix_trees(max_vertices=12),
    seed=st.integers(0, 2**16),
    q=st.integers(1, 4),
    extra=st.integers(0, 8),
    mixed=st.booleans(),
)
def test_lift_matches_reference_on_prefix_trees_of_one_profile(tree, seed, q, extra, mixed):
    other = same_profile_tree(tree, seed)
    depth = tree.branching_index() + 1 + extra
    _assert_lift_matches_reference(tree, other, q, depth, mix_seed=seed if mixed else None)


_BINARY3 = tree_from_json(complete_binary(3))
# (tree1, tree2, depth, generations left out of the unitary); binary 3 has a 4 x 4
# generation, whose random orthogonal matrix is not symmetric
MIXED_PAIRS = {
    "wide-split": (*PROFILE_PAIR, 7, ()),
    "split-wide": (*reversed(PROFILE_PAIR), 7, ()),
    "deep13": (DEEP13, relabel_and_shuffle(DEEP13, 7), 8, ()),
    "deep13-limited": (DEEP13, relabel_and_shuffle(DEEP13, 7), 7, {3}),
    "binary3": (_BINARY3, relabel_and_shuffle(_BINARY3, 3), 6, ()),
}


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("pair", sorted(MIXED_PAIRS))
def test_mixed_lift_matches_reference(pair, q):
    tree1, tree2, depth, drop = MIXED_PAIRS[pair]
    _assert_lift_matches_reference(tree1, tree2, q, depth, drop=drop, mix_seed=q)


def test_non_unitary_generation_raises_moment_mismatch():
    wide, split = PROFILE_PAIR
    unitary = build_graded_unitary(decide_equivalence(wide, split, 2))
    stretched = dataclasses.replace(unitary, generations={**unitary.generations, 1: 2 * np.eye(2)})
    with pytest.raises(AssertionError, match="moment mismatch"):
        lift_graded_unitary(wide, split, 2, stretched, 8)
    with pytest.raises(AssertionError, match="moment mismatch"):
        reference_lift(wide, split, 2, stretched, 8)


def test_lift_blocks_are_one_generation_each():
    wide, split = PROFILE_PAIR
    unitary = build_graded_unitary(decide_equivalence(wide, split, 3))
    lift = lift_graded_unitary(wide, split, 3, unitary, 7)
    sizes = [len(gen) for gen in wide.truncate(7).generations]
    assert [b.shape for b in lift.source.blocks] == [(n, n) for n in sizes]
    assert [b.shape for b in lift.target.blocks] == [(n, n) for n in sizes]
    assert lift.domain == tuple(range(sum(sizes[:-1])))


SHARING_PAIRS = {
    "profile-pair": (*PROFILE_PAIR, 12, ()),
    "binary3-12": (_BINARY3, relabel_and_shuffle(_BINARY3, 3), 12, ()),
    **MIXED_PAIRS,
}


@pytest.mark.parametrize("pair", sorted(SHARING_PAIRS))
def test_lift_shares_the_block_above_exactly_where_no_width_changes(pair):
    tree1, tree2, depth, drop = SHARING_PAIRS[pair]
    unitary = _unitary(tree1, tree2, 2, drop)
    lift = lift_graded_unitary(tree1, tree2, 2, unitary, depth)
    widths1, widths2 = ([len(gen) for gen in tree.truncate(depth).generations] for tree in (tree1, tree2))
    kept = [widths1[d] == widths1[d - 1] and widths2[d] == widths2[d - 1] for d in range(1, depth + 1)]
    assert any(kept)
    for d in range(1, depth + 1):
        assert (lift.source.blocks[d] is lift.source.blocks[d - 1]) == kept[d - 1]
        assert (lift.target.blocks[d] is lift.target.blocks[d - 1]) == kept[d - 1]


def test_lift_blocks_are_read_only():
    wide, split = PROFILE_PAIR
    unitary = build_graded_unitary(decide_equivalence(wide, split, 2))
    lift = lift_graded_unitary(wide, split, 2, unitary, 12)
    widths1, widths2 = ([len(gen) for gen in tree.truncate(12).generations] for tree in (wide, split))
    widening = [d for d in range(1, 13) if widths1[d] != widths1[d - 1] or widths2[d] != widths2[d - 1]]
    assert widening
    for blocks in (lift.source.blocks, lift.target.blocks):
        assert all(isinstance(b, HelmertBlock) for b in blocks)
        for d in range(13):
            with pytest.raises(ValueError, match="read-only"):
                blocks[d].pushed[0, 0] = 0.0
        # a widening block stores the columns of the block above, pushed; its newborn ones
        # are applied by prefix sums
        for d in widening:
            assert blocks[d].pushed.shape[1] == blocks[d - 1].shape[1] < blocks[d].shape[1]
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


def test_truncation_loss_when_blocks_need_more_depth():
    wide, split = PROFILE_PAIR
    unitary = build_graded_unitary(decide_equivalence(wide, split, 2))
    with pytest.raises(TruncationLoss, match="generation 1 blocks need depth at least 3"):
        lift_graded_unitary(wide, split, 2, unitary, 2)


def test_verify_refuses_generation_blocks_over_the_limit(monkeypatch):
    # DOUBLE01 has generations of 1, 2, 3, 3, ... vertices carrying 1, 2, 3, 3, ... lifted
    # columns.  Generation 2 pushes the 2 columns of generation 1, so that block stores
    # them; generation 2 widens last and stores its 2 pushed columns only, its newborn
    # one applied by prefix sums: the largest stored block is 3 x 2
    unitary = build_graded_unitary(decide_equivalence(DOUBLE01, DOUBLE01, 2))
    monkeypatch.setattr(classify, "MAX_BLOCK_ENTRIES", 6)
    assert verify_intertwining(DOUBLE01, DOUBLE01, 2, unitary, 10) < 1e-12
    monkeypatch.setattr(classify, "MAX_BLOCK_ENTRIES", 5)
    with pytest.raises(
        ValueError, match="^lift needs a 3 x 2 block of stored columns on generation 2, over the limit of 5 float64"
    ):
        verify_intertwining(DOUBLE01, DOUBLE01, 2, unitary, 10)
    # FORK3's identity graded unitary carries no matrix; an explicit one is one 2 x 2 block
    monkeypatch.setattr(classify, "MAX_BLOCK_ENTRIES", 3)
    identity = build_graded_unitary(decide_equivalence(FORK3, FORK3, 2))
    assert verify_intertwining(FORK3, FORK3, 2, identity, 6) < 1e-12
    explicit = dataclasses.replace(identity, generations={0: np.eye(2)})
    with pytest.raises(ValueError, match="^graded unitary needs a 2 x 2 block on generation 0, over the limit of 3"):
        verify_intertwining(FORK3, FORK3, 2, explicit, 6)
    monkeypatch.setattr(classify, "MAX_BLOCK_ENTRIES", 4)
    assert verify_intertwining(FORK3, FORK3, 2, explicit, 6) < 1e-12


def test_binary9_verify_at_depth_12_is_fast():
    tree = tree_from_json(complete_binary(9))
    unitary = build_graded_unitary(decide_equivalence(tree, tree, 2))
    verify_intertwining(tree, tree, 2, unitary, 12)  # warm up
    start = time.perf_counter()
    residual = verify_intertwining(tree, tree, 2, unitary, 12)
    elapsed = time.perf_counter() - start
    assert residual < 1e-8
    assert elapsed < 0.25
