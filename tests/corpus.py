"""Shared tree corpus: the five acceptance trees plus named witness pairs,
and a bounded hypothesis strategy for random prefix-plus-rays trees."""

import random

import numpy as np
from hypothesis import strategies as st

from treeshift import build_tree

# acceptance corpus: line, one 2-way branch, one 3-way branch,
# branchings at depths 0 and 1, branchings at depths 1 and 3
LINE = build_tree("r", {}, ["r"])
FORK2 = build_tree("r", {"r": ["a", "b"]}, ["a", "b"])
FORK3 = build_tree("r", {"r": ["a", "b", "c"]}, ["a", "b", "c"])
DOUBLE01 = build_tree("r", {"r": ["a", "b"], "a": ["c", "d"]}, ["b", "c", "d"])
DEEP13 = build_tree(
    "r",
    {"r": ["a"], "a": ["b", "c"], "b": ["d"], "d": ["e", "f"]},
    ["c", "e", "f"],
)

CORPUS = {
    "line": LINE,
    "fork2": FORK2,
    "fork3": FORK3,
    "double01": DOUBLE01,
    "deep13": DEEP13,
}

# equal cokernel totals (3 = 3) but different depth profiles {0:2} vs {0:1,1:1}
TOTALS_PAIR = (FORK3, DOUBLE01)

# equal depth profiles {0:1, 1:2} but non-isomorphic trees
WIDE = build_tree("r", {"r": ["a", "b"], "a": ["c", "d", "e"]}, ["b", "c", "d", "e"])
SPLIT = build_tree(
    "r", {"r": ["a", "b"], "a": ["c", "d"], "b": ["e", "f"]}, ["c", "d", "e", "f"]
)
PROFILE_PAIR = (WIDE, SPLIT)


@st.composite
def prefix_trees(draw, max_vertices=8):
    """A random explicit prefix of at most ``max_vertices`` vertices; vertex
    i > 0 hangs below an earlier vertex, and every leaf carries a ray."""
    size = draw(st.integers(1, max_vertices))
    children: dict[str, list[str]] = {}
    for i in range(1, size):
        children.setdefault(f"v{draw(st.integers(0, i - 1))}", []).append(f"v{i}")
    rays = [f"v{i}" for i in range(size) if f"v{i}" not in children]
    return build_tree("v0", children, rays)


def complete_binary(depth):
    """Complete binary tree of the given depth with a ray on every leaf, as JSON."""
    children = {f"v{i}": [f"v{2 * i + 1}", f"v{2 * i + 2}"] for i in range(2**depth - 1)}
    leaves = [f"v{i}" for i in range(2**depth - 1, 2 ** (depth + 1) - 1)]
    return {"root": "v0", "children": children, "ray_leaves": leaves}


def relabel_and_shuffle(tree, seed):
    """The same tree with fresh vertex names and shuffled child orders."""
    rng = random.Random(seed)
    names = {v: f"v{i}" for i, v in enumerate(rng.sample(tree.vertices, len(tree.vertices)))}
    children = {}
    for v, kids in tree.children.items():
        if kids:
            shuffled = list(kids)
            rng.shuffle(shuffled)
            children[names[v]] = [names[u] for u in shuffled]
    return build_tree(names[tree.root], children, [names[v] for v in tree.ray_leaves])


def to_array(shift, f):
    """Real parts of a sparse vector as a coordinate array in truncation order."""
    out = np.zeros(len(shift.weights))
    for v, x in f.items():
        out[shift.trunc.index[v]] = complex(x).real
    return out
