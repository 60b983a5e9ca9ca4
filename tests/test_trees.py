import dataclasses
import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from corpus import (
    CORPUS,
    DEEP13,
    DOUBLE01,
    FORK2,
    FORK3,
    LINE,
    Reads,
    fan,
    path,
    prefix_trees,
    recursive_canonical_form,
    reference_build_tree,
    reference_preorder,
    reference_truncate,
    reference_truncation_arrays,
    relabel_and_shuffle,
    sibling_chain_identity_sums,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    build_tree,
    sibling_chain_identity_sum,
    tree_from_json,
    tree_to_json,
)
from treeshift.trees import sibling_chain_sums
from treeshift.errors import (
    CircuitDetected,
    Disconnected,
    InvalidVertexId,
    LeafWithoutRay,
    MultipleParents,
    MultipleRoots,
    RayLeafHasChildren,
    TreeFormatError,
    UnknownVertex,
)
from treeshift import trees


@pytest.fixture
def smallest():
    return build_tree("r", {"r": ["a", "b"], "a": ["c"], "b": ["d"]}, ["c", "d"])


def test_build_smallest_branching_tree(smallest):
    assert smallest.vertices == ("r", "a", "b", "c", "d")
    assert smallest.ids == {"r": 0, "a": 1, "b": 2, "c": 3, "d": 4}
    assert smallest.depth.tolist() == [0, 1, 1, 2, 2]
    assert smallest.parent.tolist() == [0, 0, 0, 1, 2]
    assert smallest.child_counts.tolist() == [2, 1, 1, 0, 0]
    assert smallest.first_child.tolist() == [1, 3, 4, 5, 5, 5]
    assert smallest.preorder.tolist() == [0, 1, 3, 2, 4]
    assert {v: smallest.depth_of(v) for v in smallest.vertices} == {"r": 0, "a": 1, "b": 1, "c": 2, "d": 2}
    assert {v: smallest.parent_of(v) for v in smallest.vertices[1:]} == {"a": "r", "b": "r", "c": "a", "d": "b"}
    assert smallest.parent_of("r") is None


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
    assert tree.branching_vertices() is tree.branching_vertices()  # derived once per tree


def test_branching_index():
    assert LINE.branching_index() == 0
    assert FORK2.branching_index() == 1
    assert DOUBLE01.branching_index() == 2


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
    assert DEEP13.depth_profile(3).exact_beyond_horizon


def test_canonical_form_invariance():
    # the isomorphism guards of the classification tests compare this reference
    relabeled = build_tree("q", {"q": ["x", "y"]}, ["x", "y"])
    assert recursive_canonical_form(FORK2, 6) == recursive_canonical_form(relabeled, 6)
    left = build_tree("r", {"r": ["a", "b"], "a": ["c", "d"]}, ["b", "c", "d"])
    right = build_tree("r", {"r": ["a", "b"], "b": ["c", "d"]}, ["a", "c", "d"])
    assert recursive_canonical_form(left, 6) == recursive_canonical_form(right, 6)
    assert recursive_canonical_form(left, 6) != recursive_canonical_form(FORK3, 6)


@settings(max_examples=40, deadline=None)
@given(prefix_trees(), st.integers(0, 2**16))
def test_canonical_form_and_profile_ignore_labels(tree, seed):
    other = relabel_and_shuffle(tree, seed)
    for horizon in (0, 3, 6):
        assert recursive_canonical_form(tree, horizon) == recursive_canonical_form(other, horizon)
        assert tree.depth_profile(horizon) == other.depth_profile(horizon)


def test_sibling_count(smallest):
    assert [smallest.sibling_count(v) for v in ("r", "a", "c", "c~2")] == [0, 2, 1, 1]
    with pytest.raises(UnknownVertex):
        smallest.sibling_count("nope")


def test_truncation_children_cut_at_horizon(smallest):
    trunc = smallest.truncate(2)

    def children(v):
        i = trunc.position(v)
        return tuple(trunc.vertices[j] for j in np.flatnonzero(trunc.parent_index == i) if j != i)

    assert children("c") == ()
    assert trunc.position("c~1") is None
    assert children("r") == ("a", "b")
    assert len(trunc.generations) == 3
    assert len(trunc.vertices) == 1 + 2 + 2


def test_truncate_refuses_more_vertices_than_the_limit(monkeypatch):
    # DOUBLE01 at horizon 4: 5 explicit vertices, 3 below the ray leaf b, 2 below each of c, d
    assert len(DOUBLE01.truncate(4).vertices) == 12
    monkeypatch.setattr(trees, "MAX_TRUNCATION_VERTICES", 12)
    DOUBLE01.truncate(4)
    with pytest.raises(ValueError, match="horizon 5 would hold 15 vertices, over the limit of 12$"):
        DOUBLE01.truncate(5)


@settings(max_examples=60, deadline=None)
@given(tree=prefix_trees(), horizon=st.integers(0, 8))
def test_truncation_limit_counts_exactly_the_vertices_built(tree, horizon):
    size = len(tree.truncate(horizon).vertices)
    with mock.patch.object(trees, "MAX_TRUNCATION_VERTICES", size):
        tree.truncate(horizon)
    with mock.patch.object(trees, "MAX_TRUNCATION_VERTICES", size - 1):
        with pytest.raises(ValueError, match=f"would hold {size} vertices"):
            tree.truncate(horizon)


@settings(max_examples=60, deadline=None)
@given(tree=prefix_trees(), horizon=st.integers(0, 8))
def test_array_truncation_equals_the_name_walking_reference(tree, horizon):
    generations, parent_index = reference_truncate(tree, horizon)
    vertices = tuple(v for gen in generations for v in gen)
    trunc = tree.truncate(horizon)
    assert trunc.parent_index.tolist() == parent_index
    start = 0
    for n, gen in enumerate(generations):
        assert trunc.span(n) == (start, start + len(gen))
        start += len(gen)
    for n in (-1, horizon + 1):
        with pytest.raises(IndexError, match=f"generation {n} is outside 0..{horizon}"):
            trunc.span(n)
    assert trunc.generations == generations
    assert trunc.vertices == vertices
    assert [trunc.position(v) for v in vertices] == list(range(len(vertices)))


@settings(max_examples=60, deadline=None)
@given(tree=prefix_trees(), horizon=st.integers(0, 8))
def test_position_agrees_with_the_name_index(tree, horizon):
    trunc = tree.truncate(horizon)
    for i, v in enumerate(trunc.vertices):
        assert trunc.position(v) == i
    deeper = set(tree.truncate(horizon + 2).vertices) | set(tree.vertices)
    absent = deeper - set(trunc.vertices)
    absent |= {"nope", f"{tree.root}~", f"{tree.root}~~1"}
    absent |= {f"{v}~1" for v in tree.vertices if v not in tree.ray_leaves}
    absent |= {f"{r}~{tail}" for r in tree.ray_leaves for tail in ("0", "01", "-1", "+1", " 1", "x")}
    for v in absent:
        assert trunc.position(v) is None, v


@settings(max_examples=60, deadline=None)
@given(tree=prefix_trees(), horizon=st.integers(0, 8))
def test_every_truncation_name_locates_to_its_stored_id_and_step(tree, horizon):
    # below the stored generations each generation repeats the last stored one, and
    # the step is the generation less the depth of the id's vertex
    trunc = tree.truncate(horizon)
    stored, width = len(trunc.explicit), trunc.offsets[-1] - trunc.offsets[-2]
    assert stored == trunc.offsets[min(horizon, tree.depth.max()) + 1]
    for n, generation in enumerate(trunc.generations):
        for i, v in enumerate(generation, trunc.offsets[n]):
            base = trunc.explicit[i if i < stored else stored - width + (i - stored) % width]
            assert tree._locate(v) == (base, n - tree.depth[base])
            assert trunc.position(v) == i


def _malformed_names(tree):
    """Names of no vertex: ray tails with a zero, a sign, a space or a leading zero, a
    ray below an explicit vertex that is not a ray leaf, an empty base, an unknown id."""
    leaf = sorted(tree.ray_leaves)[0]
    inner = next(v for v in tree.vertices if v not in tree.ray_leaves)
    return [f"{leaf}~0", f"{leaf}~01", f"{leaf}~+1", f"{leaf}~ 1", f"{inner}~1", "~1", "nope"]


@pytest.mark.parametrize("name", ["double01", "deep13"])
def test_malformed_names_are_no_vertex(name):
    tree = CORPUS[name]
    trunc = tree.truncate(6)
    for v in _malformed_names(tree):
        for query in (tree._locate, tree.depth_of, tree.parent_of, tree.children_of, tree.sibling_count):
            with pytest.raises(UnknownVertex):
                query(v)
        with pytest.raises(UnknownVertex):
            sibling_chain_identity_sum(tree, v, 1)
        assert not tree.contains(v)
        assert trunc.position(v) is None


_SECOND_ROOTS = """
from treeshift import build_tree
from treeshift.errors import MultipleRoots
try:
    build_tree("r", {"r": ["a"], "x": ["y"], "p": ["q"], "m": ["n"]}, ["a", "y", "q", "n"])
except MultipleRoots as exc:
    print(exc)
"""


def test_multiple_roots_names_the_same_vertex_under_every_hash_seed():
    messages = set()
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run([sys.executable, "-c", _SECOND_ROOTS], env=env, capture_output=True, text=True, check=True)
        messages.add(run.stdout)
    assert messages == {"'x' has children but no parent\n"}


def _position_reads(m):
    """``position`` of c0, c10, ... and of each one's ray vertex ~2 on the fan of ``m``
    children truncated at 3, and the elements of the cached ``_runs`` arrays it read
    per lookup."""
    trunc = tree_from_json(fan(m)).truncate(3)
    order, starts, top, width = trunc._runs
    trunc.__dict__["_runs"] = (order.view(Reads), starts.view(Reads), top, width)
    names = [f"c{i}{ray}" for ray in ("", "~2") for i in range(0, m, 10)]
    Reads.count = 0
    positions = [trunc.position(v) for v in names]
    return positions, Reads.count / len(names)


def test_position_takes_constant_time_per_vertex():
    # a scan of the vertex's generation would read 200,000 elements per lookup; a ray
    # continues past the deepest explicit vertex arithmetically
    m = 200000
    positions, reads = _position_reads(m)
    picked = range(0, m, 10)
    assert positions == [1 + i for i in picked] + [1 + 2 * m + i for i in picked]
    assert reads == _position_reads(2)[1] == 2


# the corpus, plus a tree whose second level mixes chain products 4 and 6,
# neither of which divides the other
CHAIN_TREES = {
    **CORPUS,
    "fork2x3": build_tree(
        "r", {"r": ["a", "b"], "a": ["c", "d"], "b": ["e", "f", "g"]}, ["c", "d", "e", "f", "g"]
    ),
}


@pytest.mark.parametrize("name", sorted(CHAIN_TREES))
def test_sibling_chain_identity(name):
    tree = CHAIN_TREES[name]
    for v in tree.vertices:
        for k in range(1, 6):
            assert sibling_chain_identity_sum(tree, v, k) == Fraction(1)


def _ancestor_walk_sum(tree, v, k):
    """Reference: climb k ancestors from every k-th descendant."""
    descendants = [v]
    for _ in range(k):
        descendants = [u for w in descendants for u in tree.children_of(w)]
    total = Fraction(0)
    for u in descendants:
        product = Fraction(1)
        for _ in range(k):
            product /= tree.sibling_count(u)
            u = tree.parent_of(u)
        total += product
    return total


@settings(max_examples=40, deadline=None)
@given(prefix_trees(), st.integers(1, 5))
def test_sibling_chain_sum_matches_ancestor_walk(tree, k):
    for v in (*tree.vertices, *(f"{r}~2" for r in tree.ray_leaves)):
        pushed = sibling_chain_identity_sum(tree, v, k)
        assert isinstance(pushed, Fraction)
        assert pushed == _ancestor_walk_sum(tree, v, k) == 1


@settings(max_examples=40, deadline=None)
@given(prefix_trees(), st.integers(1, 5))
def test_one_push_gives_every_sibling_chain_sum(tree, kmax):
    for v in tree.vertices:
        sums = sibling_chain_identity_sums(tree, v, kmax)
        assert sums == [sibling_chain_identity_sum(tree, v, k) for k in range(1, kmax + 1)]
        assert all(isinstance(s, Fraction) and s == 1 for s in sums)


@settings(max_examples=40, deadline=None)
@given(prefix_trees(), st.integers(1, 5))
def test_sibling_chain_identity_sum_equals_the_whole_tree_sums_row_by_row(tree, kmax):
    for v, (n0, *row) in zip(tree.vertices, sibling_chain_sums(tree, kmax)):
        assert [sibling_chain_identity_sum(tree, v, k) for k in range(1, kmax + 1)] == [Fraction(n, n0) for n in row]


def test_sibling_chain_identity_sum_visits_the_subtree_alone():
    # a fan of 2,000: c0 and its ray are one vertex per level, the root's subtree is the fan;
    # one child count is read per visited vertex, and one first child per vertex with children
    tree = tree_from_json(fan(2000))
    tree = dataclasses.replace(tree, child_counts=tree.child_counts.view(Reads))
    Reads.count = 0
    assert sibling_chain_identity_sum(tree, "c0", 5) == 1
    assert Reads.count == 5
    assert sibling_chain_identity_sum(tree, "c7~3", 5) == 1
    assert Reads.count == 10
    assert sibling_chain_identity_sum(tree, "r", 5) == 1
    assert Reads.count == 10 + 1 + 4 * 2000
    with pytest.raises(ValueError):
        sibling_chain_identity_sum(tree, "c0", 0)


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("seed", [0, 1])
def test_profile_independent_of_labels_and_order(name, seed):
    tree = CORPUS[name]
    other = relabel_and_shuffle(tree, seed)
    assert dict(tree.depth_profile(6).entries) == dict(other.depth_profile(6).entries)
    assert recursive_canonical_form(tree, 6) == recursive_canonical_form(other, 6)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_generation_growth_matches_profile(name):
    tree = CORPUS[name]
    horizon = 7
    trunc = tree.truncate(horizon)
    profile = tree.depth_profile(horizon)
    for n in range(horizon - 1):
        grown = len(trunc.generations[n + 1]) - len(trunc.generations[n])
        assert grown == profile.entries.get(n, 0)


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
    with pytest.raises(TreeFormatError, match="duplicate ray leaves"):
        tree_from_json({**good, "ray_leaves": ["r", "r"]})
    with pytest.raises(InvalidVertexId):
        tree_from_json({"root": "r", "children": {"r": ["x~1"]}, "ray_leaves": ["x~1"]})
    # build_tree is the one validator, so it refuses a repeated ray leaf too
    with pytest.raises(TreeFormatError, match=r"^duplicate ray leaves: \['a'\]$"):
        build_tree("r", {"r": ["a", "b"]}, ray_leaves=["a", "a"])
    # and a child listed twice by its parent, named on the walk that finds a second parent
    with pytest.raises(TreeFormatError, match=r"^duplicate children of 'r': \['a'\]$"):
        build_tree("r", {"r": ["a", "a"]}, ray_leaves=["a"])
    with pytest.raises(MultipleParents, match="^'a' has parents 'r' and 'b'$"):
        build_tree("r", {"r": ["a", "b"], "b": ["a", "a"]}, ray_leaves=["a"])


def test_load_checks_each_vertex_id_once(tmp_path, monkeypatch):
    # valid ids pass in bulk, with no call per id; a bad one is named by one walk that
    # checks each id occurrence once, in input order, up to the culprit
    path = tmp_path / "fan300.json"
    path.write_text(json.dumps(fan(300)))
    checked = []
    check = trees._check_vertex_id
    monkeypatch.setattr(trees, "_check_vertex_id", lambda v: checked.append(v) or check(v))
    assert len(trees.load_tree(str(path)).vertices) == 301
    assert checked == []
    bad = fan(300)
    bad["ray_leaves"] = [*bad["ray_leaves"][:-1], "c299~1"]
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidVertexId, match=r"^bad vertex id 'c299~1'$"):
        trees.load_tree(str(path))
    # the root, the one children key, its 300 children and the 300 ray leaves
    assert len(checked) == 1 + 1 + 300 + 300


def _description(tree):
    obj = tree_to_json(tree)
    return obj["root"], obj["children"], obj["ray_leaves"]


@settings(max_examples=150, deadline=None)
@given(tree=prefix_trees(max_vertices=16), horizons=st.lists(st.integers(0, 20), min_size=1, max_size=4))
def test_array_tree_and_truncation_equal_the_dict_references(tree, horizons):
    ref = reference_build_tree(*_description(tree))
    assert tree.vertices == ref.vertices
    assert {v: tree.parent_of(v) for v in tree.vertices[1:]} == ref.parents
    assert dict(zip(tree.vertices, tree.depth.tolist())) == ref.depths
    assert [tree.vertices[i] for i in np.argsort(tree.preorder)] == reference_preorder(ref)
    for horizon in horizons:
        trunc = tree.truncate(horizon)
        parent_index, offsets, explicit = reference_truncation_arrays(ref, horizon)
        assert trunc.parent_index.tolist() == parent_index.tolist()
        assert trunc.offsets.tolist() == offsets.tolist()
        assert trunc.explicit.tolist() == explicit.tolist()
        assert trunc.vertices == tuple(v for gen in reference_truncate(tree, horizon)[0] for v in gen)


_BAD_IDS = st.sampled_from([7, None, "", "~", "a~1", ["x"]])


@st.composite
def _mutated_descriptions(draw):
    """A valid description with one to three faults: a bad id, a repeated child or ray leaf, a
    second parent, a cycle, a second root, an unreachable vertex, a ray leaf with children or a
    leaf without a ray; the children keys are shuffled, as their order picks the vertex named."""
    root, children, rays = _description(draw(prefix_trees(max_vertices=10)))
    children = {v: list(kids) for v, kids in children.items()}
    names, leaves = [root, *(u for kids in children.values() for u in kids)], list(rays)
    pick = lambda seq: draw(st.sampled_from(seq))  # noqa: E731
    for fault in draw(st.lists(st.integers(0, 9), min_size=1, max_size=3)):
        if fault == 0:  # a bad id: the root, a children key, a child or a ray leaf
            full = [v for v, kids in children.items() if kids]
            where = draw(st.sampled_from(["root", "key", "child", "ray"] if full else ["root", "ray"]))
            if where == "root":
                root = draw(_BAD_IDS.filter(lambda v: not isinstance(v, list)))
            elif where == "key":
                key, bad = pick(list(children)), draw(st.sampled_from([7, "", "a~1"]))
                children = {bad if v == key else v: kids for v, kids in children.items()}
            elif where == "child":
                kids = children[pick(full)]
                kids[draw(st.integers(0, len(kids) - 1))] = draw(_BAD_IDS)
            else:
                rays.insert(draw(st.integers(0, len(rays))), draw(_BAD_IDS))
        elif fault == 1 and (full := [v for v, kids in children.items() if kids]):
            kids = children[pick(full)]
            kids.insert(draw(st.integers(0, len(kids))), pick(kids))  # a repeated child
        elif fault == 2:
            rays.append(pick(names))  # a repeated ray leaf, or a ray on an inner vertex
        elif fault == 3:
            children.setdefault(pick(names), []).append(pick(names))  # a second parent, or a cycle
        elif fault == 4:
            children.setdefault(pick(names), []).append(root)  # the root below a vertex
        elif fault == 5:
            children["x"] = ["y"] if draw(st.booleans()) else ["y", pick(names)]  # a second root
            rays.append("y")
        elif fault == 6:
            children["p"], children["q"] = ["q"], ["p"]  # a detached cycle
        elif fault == 7:
            if draw(st.booleans()):
                rays.append("z")  # unreachable
            else:
                children["z"] = []
        elif fault == 8:
            children.setdefault(pick(leaves), []).append("w")  # a ray leaf with children
            rays.append("w")
        elif fault == 9 and (left := [v for v in leaves if v in rays]):
            rays.remove(pick(left))  # a leaf without a ray
    order = draw(st.permutations(list(children)))
    return root, {v: children[v] for v in order}, draw(st.permutations(rays))


def _outcome(build, description):
    try:
        tree = build(*description)
    except Exception as exc:  # noqa: BLE001 -- the class and message are what is compared
        return type(exc), str(exc)
    return tree.vertices, tree.ray_leaves


@settings(max_examples=400, deadline=None)
@given(_mutated_descriptions())
def test_build_raises_what_the_dict_reference_raises(description):
    expected = _outcome(reference_build_tree, description)
    assert _outcome(build_tree, description) == expected
    if isinstance(expected[0], type):
        assert issubclass(expected[0], (TreeFormatError, CircuitDetected, MultipleParents, MultipleRoots,
                                        Disconnected, RayLeafHasChildren, LeafWithoutRay))
    else:
        tree, ref = build_tree(*description), reference_build_tree(*description)
        assert {v: tree.parent_of(v) for v in tree.vertices[1:]} == ref.parents
        assert dict(zip(tree.vertices, tree.depth.tolist())) == ref.depths


def _python_calls(run):
    """Python function calls (``call`` events of ``sys.setprofile``) made by ``run()``, with
    the garbage collector off, so that no finalizer of other objects runs and is counted."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        calls += event == "call"

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def test_load_and_truncate_make_as_many_calls_at_any_depth(tmp_path):
    # an operation guard, not a clock: a build or a truncation that looped over the
    # generations would make calls in proportion to the depth
    calls = []
    for m in (2000, 20000):
        file = tmp_path / f"path{m}.json"
        file.write_text(json.dumps(path(m)))
        calls.append(_python_calls(lambda: trees.load_tree(str(file)).truncate(m + 2)))
    assert calls[0] == calls[1]


@pytest.mark.parametrize("name", ["double01", "deep13"])
def test_lineage_keeps_the_vertex_its_ancestors_and_its_descendants(name):
    tree = CORPUS[name]
    for v in (*tree.vertices, *(f"{r}~2" for r in tree.ray_leaves)):
        cut = tree.lineage(v)
        line, below = [v], [v]
        while (up := tree.parent_of(line[-1])) is not None:
            line.append(up)
        for _ in range(4):
            below = [u for w in below for u in tree.children_of(w)]
            for u in below:
                assert cut.depth_of(u) == tree.depth_of(u)
                assert cut.sibling_count(u) == tree.sibling_count(u)
                assert cut.children_of(u) == tree.children_of(u)
        for u in line[1:]:
            assert cut.children_of(u) == (line[line.index(u) - 1],)
        assert cut.depth_of(v) == tree.depth_of(v)
        assert set(cut.vertices) <= set(tree.vertices)
    assert tree.lineage(tree.root) is tree
