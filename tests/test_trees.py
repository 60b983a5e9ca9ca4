import random
from fractions import Fraction

import pytest
from corpus import CORPUS, DEEP13, DOUBLE01, FORK2, FORK3, LINE

from treeshift import (
    VertexInfo,
    build_tree,
    sibling_chain_identity_sum,
    tree_from_json,
    tree_to_json,
)
from treeshift.errors import (
    AncestorOutOfRange,
    CircuitDetected,
    Disconnected,
    HorizonExceeded,
    InvalidVertexId,
    LeafWithoutRay,
    MultipleParents,
    MultipleRoots,
    RayLeafHasChildren,
    TreeFormatError,
    UnknownVertex,
)


@pytest.fixture
def smallest():
    return build_tree("r", {"r": ["a", "b"], "a": ["c"], "b": ["d"]}, ["c", "d"])


def test_build_smallest_branching_tree(smallest):
    assert smallest.vertices == ("r", "a", "b", "c", "d")
    assert smallest.depths == {"r": 0, "a": 1, "b": 1, "c": 2, "d": 2}
    assert smallest.parents == {"a": "r", "b": "r", "c": "a", "d": "b"}


def test_two_cycle_is_a_circuit():
    with pytest.raises(CircuitDetected):
        build_tree("r", {"r": ["a"], "a": ["r"]}, [])


def test_bare_leaf_rejected():
    with pytest.raises(LeafWithoutRay):
        build_tree("r", {"r": ["a", "b"]}, ["a"])


def test_two_parents_rejected():
    with pytest.raises(MultipleParents):
        build_tree("r", {"r": ["a", "b"], "a": ["c"], "b": ["c"]}, ["c"])


def test_second_root_rejected():
    with pytest.raises(MultipleRoots):
        build_tree("r", {"r": ["a"], "x": ["y"]}, ["a", "y"])


def test_root_below_another_root_rejected():
    with pytest.raises(MultipleRoots):
        build_tree("r", {"r": ["a"], "x": ["r"]}, ["a"])


def test_unknown_ray_id_is_disconnected():
    with pytest.raises(Disconnected):
        build_tree("r", {"r": ["a"]}, ["a", "z"])


def test_detached_cycle_is_a_circuit():
    with pytest.raises(CircuitDetected):
        build_tree("r", {"r": ["a"], "b": ["c"], "c": ["b"]}, ["a"])


def test_ray_leaf_with_children_rejected():
    with pytest.raises(RayLeafHasChildren):
        build_tree("r", {"r": ["a"], "a": ["b"]}, ["a", "b"])


@pytest.mark.parametrize("bad", ["", "a~1", 7])
def test_bad_vertex_ids(bad):
    with pytest.raises(InvalidVertexId):
        build_tree("r", {"r": [bad]}, [bad])


def test_line_tree_is_just_a_ray():
    assert LINE.vertices == ("r",)
    assert LINE.truncate(10).generations[4] == ("r~4",)
    assert LINE.depth_of("r~4") == 4
    assert LINE.parent_of("r~1") == "r"
    assert LINE.parent_of("r~3") == "r~2"


def test_generations(smallest):
    generations = smallest.truncate(5).generations
    assert generations[0] == ("r",)
    assert generations[1] == ("a", "b")
    assert generations[3] == ("c~1", "d~1")
    # nothing is materialized beyond the horizon
    assert len(generations) == 6


def test_branching_vertices():
    assert CORPUS["line"].branching_vertices() == ()
    tree = build_tree(
        "r", {"r": ["a", "b"], "a": ["c", "d", "e"], "b": ["f"]}, ["c", "d", "e", "f"]
    )
    assert tree.branching_vertices() == (("r", 2), ("a", 3))


def test_branching_index():
    assert LINE.branching_index() == 0
    assert FORK2.branching_index() == 1
    assert DOUBLE01.branching_index() == 2


def test_sibling_count_chain():
    ray_vertex = "a~1"  # depth 2 in the 2-way fork
    assert FORK2.sibling_count_chain(ray_vertex, 0) == 1
    assert FORK2.sibling_count_chain(ray_vertex, 1) == 2
    assert FORK2.sibling_count_chain("a", 0) == 2
    with pytest.raises(AncestorOutOfRange):
        FORK2.sibling_count_chain("a", 1)


def test_depth_profiles():
    assert dict(FORK3.depth_profile(5).entries) == {0: 2}
    assert FORK3.depth_profile(5).exact_beyond_horizon
    assert dict(DOUBLE01.depth_profile(5).entries) == {0: 1, 1: 1}
    assert dict(LINE.depth_profile(5).entries) == {}
    assert LINE.depth_profile(0).exact_beyond_horizon


def test_profile_horizon_limitation():
    profile = DEEP13.depth_profile(2)
    assert dict(profile.entries) == {1: 1}
    assert not profile.exact_beyond_horizon
    with pytest.raises(HorizonExceeded):
        profile.entry(3)
    assert DEEP13.depth_profile(3).exact_beyond_horizon


def test_canonical_form_invariance():
    relabeled = build_tree("q", {"q": ["x", "y"]}, ["x", "y"])
    assert FORK2.canonical_form(6) == relabeled.canonical_form(6)
    left = build_tree("r", {"r": ["a", "b"], "a": ["c", "d"]}, ["b", "c", "d"])
    right = build_tree("r", {"r": ["a", "b"], "b": ["c", "d"]}, ["a", "c", "d"])
    assert left.canonical_form(6) == right.canonical_form(6)
    assert left.canonical_form(6) != FORK3.canonical_form(6)


def test_vertex_info(smallest):
    root = smallest.vertex_info("r")
    assert (root.depth, root.sibling_count, root.child_count) == (0, 0, 2)
    assert smallest.vertex_info("a") == VertexInfo(depth=1, sibling_count=2, child_count=1)
    assert smallest.vertex_info("c~2").depth == 4
    with pytest.raises(UnknownVertex):
        smallest.vertex_info("nope")


def test_truncation_children_cut_at_horizon(smallest):
    trunc = smallest.truncate(2)
    assert trunc.children["c"] == ()
    assert trunc.children["r"] == ("a", "b")
    assert len(trunc.vertices) == 1 + 2 + 2


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_sibling_chain_identity(name):
    tree = CORPUS[name]
    for v in tree.vertices:
        for k in range(1, 6):
            assert sibling_chain_identity_sum(tree, v, k) == Fraction(1)


def _relabel_and_shuffle(tree, seed):
    rng = random.Random(seed)
    names = {v: f"v{i}" for i, v in enumerate(rng.sample(tree.vertices, len(tree.vertices)))}
    children = {}
    for v, kids in tree.children.items():
        if kids:
            shuffled = list(kids)
            rng.shuffle(shuffled)
            children[names[v]] = [names[u] for u in shuffled]
    return build_tree(names[tree.root], children, [names[v] for v in tree.ray_leaves])


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("seed", [0, 1])
def test_profile_independent_of_labels_and_order(name, seed):
    tree = CORPUS[name]
    other = _relabel_and_shuffle(tree, seed)
    assert dict(tree.depth_profile(6).entries) == dict(other.depth_profile(6).entries)
    assert tree.canonical_form(6) == other.canonical_form(6)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_generation_growth_matches_profile(name):
    tree = CORPUS[name]
    horizon = 7
    trunc = tree.truncate(horizon)
    profile = tree.depth_profile(horizon)
    for n in range(horizon - 1):
        grown = len(trunc.generations[n + 1]) - len(trunc.generations[n])
        assert grown == profile.entry(n)


def test_json_round_trip(smallest):
    rebuilt = tree_from_json(tree_to_json(smallest))
    assert rebuilt == smallest


def test_json_schema_is_strict():
    good = {"root": "r", "children": {}, "ray_leaves": ["r"]}
    assert tree_from_json(good).root == "r"
    with pytest.raises(TreeFormatError):
        tree_from_json({**good, "extra": 1})
    with pytest.raises(TreeFormatError):
        tree_from_json({"root": "r", "children": {}})
    with pytest.raises(TreeFormatError):
        tree_from_json({"root": "r", "children": [], "ray_leaves": ["r"]})
    with pytest.raises(InvalidVertexId):
        tree_from_json({"root": "r", "children": {"r": ["x~1"]}, "ray_leaves": ["x~1"]})
