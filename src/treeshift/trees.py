"""Leafless, locally finite rooted directed trees.

A tree is stored as a finite explicit prefix (the only part that can
branch) together with a set of *ray leaves*: explicit vertices from which
an infinite chain of single-child vertices descends.  Chain vertices are
materialized on demand with synthetic identifiers ``<leaf>~<k>`` for the
k-th descendant, so the same tree always produces the same names.

The explicit vertices are parsed once into integer arrays indexed by their
breadth-first id: parent, child count, first child and depth, and, on the
first truncation, the depth-first preorder rank.  Breadth-first order keeps
siblings together, so the children of an id form one run of ids and each
generation one range of ids.  A truncation sorts its positions by
(generation, preorder rank of the explicit vertex) in one pass, with no loop
over generations.  A name becomes an id through one dict, read by one
resolver, ``Tree._locate``; every vertex-level query reads it and then the
arrays alone.

Every depth-indexed query (a truncation, a depth profile) takes an explicit
horizon; there is no global default.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, compress, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
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

RAY_SEPARATOR = "~"

_TREE_FILE_KEYS = {"root", "children", "ray_leaves"}

# vertices one truncation may hold.  Per vertex (tracemalloc, fan 20,000 and binary 13): a
# shift keeps 16 to 17 bytes (peak 33), about 138 MB at the limit; the vertex names the defect
# and hausdorff suites build keep 64 more (peak 128), and the kernel suite's (nmax + 1) x n
# and nmax x n arrays peak at 128 to 135 more, so that suite nears 1.3 GB at the limit
MAX_TRUNCATION_VERTICES = 2**23


@dataclass(frozen=True)
class DepthProfile:
    """Generation-indexed branching defect ``n -> sum(child_count - 1)``.

    ``entries`` holds the nonzero values for generations up to the horizon
    the profile was read to.  ``exact_beyond_horizon`` is True when every
    generation past that horizon is certified to contribute 0, which for the
    prefix-plus-rays representation holds exactly when the horizon reaches
    the deepest branching vertex.
    """

    entries: Mapping[int, int]
    exact_beyond_horizon: bool


@dataclass(frozen=True)
class Truncation:
    """All vertices of depth at most ``horizon``, rays materialized, as arrays.

    Generation n holds the positions ``offsets[n]:offsets[n + 1]``, children
    grouped by parent in parent order; ``parent_index`` maps a position to its
    parent's, the root to itself.  ``explicit[i]`` is the ``tree.vertices`` id of
    position i's explicit vertex, or of its ray leaf, down to the deepest generation
    with an explicit vertex; each generation below repeats that one.  Position i of
    generation n is the id's vertex v if n = depth(v), else ``<v>~<n - depth(v)>``.
    Horizon vertices have no children here although the tree goes on below them.
    ``generations`` and ``vertices`` name the positions on first access.
    """

    tree: Tree
    horizon: int
    parent_index: np.ndarray
    offsets: np.ndarray
    explicit: np.ndarray

    def span(self, n: int) -> tuple[int, int]:
        """Positions (start, end) of generation n."""
        if not 0 <= n <= self.horizon:
            raise IndexError(f"generation {n} is outside 0..{self.horizon}")
        return int(self.offsets[n]), int(self.offsets[n + 1])

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        names, size, width = self.tree.vertices, int(self.offsets[-1]), int(self.offsets[-1] - self.offsets[-2])
        ids = np.concatenate([self.explicit, np.resize(self.explicit[-width:], size - len(self.explicit))])
        steps = np.repeat(np.arange(self.horizon + 1), np.diff(self.offsets)) - self.tree.depth[ids]
        return tuple(f"{names[e]}{RAY_SEPARATOR}{k}" if k else names[e] for e, k in zip(ids.tolist(), steps.tolist()))

    @cached_property
    def generations(self) -> tuple[tuple[str, ...], ...]:
        bounds = self.offsets.tolist()
        return tuple(self.vertices[a:b] for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray, int, int]:
        """The positions of ``explicit`` sorted by id, stably, so id e at ray step k is
        ``order[starts[e] + k]``; then top and its width: below top, a ray moves ``width``
        positions per generation."""
        top = min(self.horizon, self.tree.depth.item(-1))  # breadth-first: the last id is the deepest
        counts = np.bincount(self.explicit, minlength=len(self.tree.vertices))
        width = int(self.offsets[top + 1] - self.offsets[top])
        return np.argsort(self.explicit, kind="stable"), np.cumsum(counts) - counts, top, width

    def position(self, v: str) -> int | None:
        """Position of vertex ``v``, parsing its name once; None if the truncation lacks it."""
        try:
            base, k = self.tree._locate(v)
        except UnknownVertex:
            return None
        if (n := self.tree.depth.item(base) + k) > self.horizon:
            return None
        order, starts, top, width = self._runs
        below = max(0, n - top)
        return int(order[starts[base] + k - below]) + below * width


@dataclass(frozen=True, eq=False)
class Tree:
    """Validated leafless rooted directed tree (immutable), as arrays over breadth-first ids.

    Id i names ``vertices[i]`` (``ids`` maps a name back); the root is id 0, and the
    children of id i are the ids ``first_child[i]:first_child[i + 1]``, in child order.
    ``preorder`` and the branching vertices are derived on first use.  Construct through
    :func:`build_tree` or :func:`tree_from_json`; the constructor itself performs no
    validation.
    """

    root: str
    vertices: tuple[str, ...]  # explicit vertices in breadth-first order
    ray_leaves: frozenset[str]
    ids: Mapping[str, int]  # explicit vertex -> its position in ``vertices``, the id a truncation stores
    parent: np.ndarray  # parent id; the root's is 0, itself
    child_counts: np.ndarray  # explicit children; 0 exactly for a ray leaf
    first_child: np.ndarray  # id of the first child, or where it would sit; one entry more, the vertex count
    depth: np.ndarray  # nondecreasing, as ids are breadth-first

    def __eq__(self, other: object) -> bool:
        """The same names in the same breadth-first order, with the same parents and ray leaves."""
        if not isinstance(other, Tree):
            return NotImplemented
        same = (self.vertices, self.ray_leaves) == (other.vertices, other.ray_leaves)
        return same and np.array_equal(self.parent, other.parent)

    # -- vertex names and local structure ---------------------------------------

    def _locate(self, v: str) -> tuple[int, int]:
        """(id of v, 0) for an explicit vertex, (id of r, k) for the ray vertex ``<r>~<k>``; any
        other name raises ``UnknownVertex``.  Every vertex-level query reads its name here alone."""
        if (i := self.ids.get(v)) is not None:
            return i, 0
        base, sep, tail = v.rpartition(RAY_SEPARATOR)
        if not sep or base not in self.ray_leaves:
            raise UnknownVertex(v)
        try:
            k = int(tail)
        except ValueError:
            raise UnknownVertex(v) from None
        if k < 1 or tail != str(k):  # one name per vertex: no sign, spaces or leading zeros
            raise UnknownVertex(v)
        return self.ids[base], k

    def contains(self, v: str) -> bool:
        """True for explicit vertices and well-formed ray vertices."""
        try:
            self._locate(v)
        except UnknownVertex:
            return False
        return True

    def depth_of(self, v: str) -> int:
        i, k = self._locate(v)
        return self.depth.item(i) + k

    def parent_of(self, v: str) -> str | None:
        i, k = self._locate(v)
        if k:
            return self.vertices[i] if k == 1 else f"{self.vertices[i]}{RAY_SEPARATOR}{k - 1}"
        return self.vertices[self.parent.item(i)] if i else None

    def children_of(self, v: str) -> tuple[str, ...]:
        """Materialized children, reaching into rays where needed."""
        i, k = self._locate(v)
        if k or not self.child_counts.item(i):
            return (f"{self.vertices[i]}{RAY_SEPARATOR}{k + 1}",)
        return self.vertices[self.first_child.item(i) : self.first_child.item(i + 1)]

    def sibling_count(self, v: str) -> int:
        """Number of children of the parent: 1 on a ray, 0 for the root."""
        i, k = self._locate(v)
        if k:
            return 1
        return self.child_counts.item(self.parent.item(i)) if i else 0

    def lineage(self, v: str) -> Tree:
        """The tree cut down to the ancestors and descendants of v's explicit vertex.

        Every kept vertex keeps its name and depth, a ray leaf below v its ray, and a
        vertex below v its sibling count; each ancestor keeps only the next one on the
        way down.  O(depth + descendants); the lineage of the root, or of a vertex on its ray,
        is the tree itself."""
        base, _k = self._locate(v)
        if not base:
            return self
        names, first = self.vertices, self.first_child
        line = [base]
        while line[-1]:
            line.append(self.parent.item(line[-1]))
        children = {names[p]: [names[u]] for u, p in zip(line, line[1:])}
        below = [base]
        for u in below:
            if kids := range(first.item(u), first.item(u + 1)):
                below += kids
                children[names[u]] = list(names[kids.start : kids.stop])
        rays = [names[u] for u in below if names[u] not in children]
        return build_tree(self.root, children, rays)

    # -- global structure -----------------------------------------------------

    @cached_property
    def preorder(self) -> np.ndarray:
        """Rank of each id in the depth-first preorder, by pointer doubling in O(vertices x
        log depth).  With f the first-child map (f(n) = n) and s_g the first id of generation
        g, v at depth d follows its d ancestors, the ids left of its ancestor a_g in each
        generation g < d and those left of its descendants f^k(v) in generation d + k:
        d + sum_(g<d) (a_g - s_g) + sum_(k>=0) (f^k(v) - s_(d+k))."""
        n, depth = len(self.vertices), self.depth
        starts = depth.searchsorted(np.arange(depth.item(-1) + 2))
        above, up, ahead, f = self.parent, self.parent, np.arange(n + 1) - n, self.first_child
        while f[0] < n:  # until 2^j passes the depth: every jump then lands on the root and on n
            above, up = above + above[up], up[up]
            ahead, f = ahead + ahead[f], f[f]
        left = np.cumsum(starts) - starts
        return depth + above - left[depth] + ahead[:n] - ahead[starts[depth]]

    @cached_property
    def _branch_ids(self) -> np.ndarray:
        """Ids of the vertices with at least two children, breadth-first."""
        return np.flatnonzero(self.child_counts >= 2)

    @cached_property
    def _branching(self) -> tuple[tuple[str, int], ...]:
        ids = self._branch_ids
        return tuple(zip(map(self.vertices.__getitem__, ids.tolist()), self.child_counts[ids].tolist()))

    def branching_vertices(self) -> tuple[tuple[str, int], ...]:
        """Vertices with at least two children, breadth-first, with counts.

        Ray vertices never branch, so the explicit prefix is exhaustive.
        """
        return self._branching

    def branching_index(self) -> int:
        """0 when no vertex branches, else 1 + depth of the deepest one."""
        ids = self._branch_ids
        return self.depth.item(ids[-1]) + 1 if len(ids) else 0

    def truncate(self, horizon: int) -> Truncation:
        """Materialize every vertex of depth at most ``horizon``; more than
        ``MAX_TRUNCATION_VERTICES`` raise ``ValueError`` before any is built."""
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        # stored down to top, the deepest explicit generation in reach: each explicit vertex,
        # a ray leaf followed by its ray down to top; each generation below repeats top's
        # vertices, one per ray leaf, one ray step further
        top = min(horizon, self.depth.item(-1))
        explicit = self.depth.searchsorted(top, side="right")
        runs = 1 + (self.child_counts[:explicit] == 0) * (top - self.depth[:explicit])
        stored, width = runs.sum().item(), len(self.ray_leaves)
        if (size := stored + (horizon - top) * width) > MAX_TRUNCATION_VERTICES:
            raise ValueError(
                f"truncation at horizon {horizon} would hold {size} vertices, "
                f"over the limit of {MAX_TRUNCATION_VERTICES}"
            )
        # a generation lists its vertices in the preorder of their explicit ids, so sorting
        # by (generation, preorder) places them; a parent, the explicit parent of an explicit
        # vertex and the previous step of a ray, is found by its key
        n, preorder = len(self.vertices), self.preorder
        base, first = np.repeat(np.arange(explicit), runs), np.cumsum(runs) - runs
        generation = np.arange(stored) - np.repeat(first - self.depth[:explicit], runs)
        up = base.copy()
        up[first] = self.parent[:explicit]
        key = generation * n + preorder[base]
        order = np.argsort(key, kind="stable")
        parent_index = np.searchsorted(key[order], ((generation - 1) * n + preorder[up])[order])
        below = width * np.arange(1, horizon - top + 1)
        return Truncation(
            tree=self,
            horizon=horizon,
            parent_index=np.concatenate([parent_index, np.arange(stored - width, size - width)]),
            offsets=np.concatenate([[0], np.cumsum(np.bincount(generation, minlength=top + 1)), stored + below]),
            explicit=base[order],
        )

    def depth_profile(self, horizon: int) -> DepthProfile:
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        entries: dict[int, int] = {}
        ids = self._branch_ids
        for n, count in zip(self.depth[ids].tolist(), self.child_counts[ids].tolist()):
            if n <= horizon:
                entries[n] = entries.get(n, 0) + (count - 1)
        exact = self.branching_index() <= horizon + 1
        return DepthProfile(entries=entries, exact_beyond_horizon=exact)


# -- construction and validation ---------------------------------------------


def _check_vertex_id(v: object) -> str:
    if not isinstance(v, str) or not v or RAY_SEPARATOR in v:
        raise InvalidVertexId(f"bad vertex id {v!r}")
    return v


def _check_parent_chain(parent: Mapping[str, str], v: str) -> None:
    """Raise CircuitDetected when the parent chain from ``v`` loops."""
    seen = set()
    current: str | None = v
    while current is not None and current not in seen:
        seen.add(current)
        current = parent.get(current)
    if current is not None:
        raise CircuitDetected(f"circuit through {current!r}")


def _depths(parent: np.ndarray) -> np.ndarray:
    """Depth of each id from the parent map, by pointer doubling: each round adds the
    depth found so far at the ancestor reached so far, whose distance then doubles."""
    depth, up = (np.arange(len(parent)) > 0).astype(np.int64), parent
    while up[-1]:  # the last id is the deepest; once it jumps to the root, all do
        depth, up = depth + depth[up], up[up]
    return depth


def _name_the_fault(root: str, children: Mapping[str, Sequence[str]], rays: frozenset[str]) -> None:
    """Raise the first structural fault of a description that failed a bulk check of
    ``build_tree``, walking it in input order, check by check in the order listed there,
    so the error and the vertex it names do not depend on set order."""
    parent: dict[str, str] = {}
    for v, kids in children.items():
        for u in kids:
            if parent.get(u) == v:  # v lists u twice
                twice = sorted(w for w, count in Counter(kids).items() if count > 1)
                raise TreeFormatError(f"duplicate children of {v!r}: {twice}")
            if u in parent:
                raise MultipleParents(f"{u!r} has parents {parent[u]!r} and {v!r}")
            parent[u] = v
    if root in parent:
        _check_parent_chain(parent, root)
        raise MultipleRoots(f"declared root {root!r} has a parent")
    for v, kids in children.items():
        if v != root and v not in parent and kids:
            raise MultipleRoots(f"{v!r} has children but no parent")
    order = [root]
    for v in order:
        order += children.get(v, ())
    if missing := sorted(rays.union(parent, children).difference(order)):
        for v in missing:
            _check_parent_chain(parent, v)
        raise Disconnected(f"unreachable vertices: {missing}")
    for v in order:
        if v in rays and children.get(v):
            raise RayLeafHasChildren(f"{v!r} is a ray leaf with explicit children")
        if not children.get(v) and v not in rays:
            raise LeafWithoutRay(f"{v!r} has no children and is not a ray leaf")


def build_tree(
    root: str,
    children: Mapping[str, Sequence[str]],
    ray_leaves: Iterable[str],
) -> Tree:
    """Validate a children-map description and return an immutable Tree.

    The one check of the vertex ids (InvalidVertexId), of repeated ray leaves and
    of a child listed twice by its parent (TreeFormatError); raises the specific
    structural error on violation:
    MultipleParents, CircuitDetected, MultipleRoots, Disconnected,
    RayLeafHasChildren or LeafWithoutRay.  The checks run over whole lists, sets
    and one joined string; only a failed one walks the input to name the vertex.
    """
    listed = list(ray_leaves)
    placed = list(chain.from_iterable(children.values()))
    every = [root, *children, *placed, *listed]
    try:
        named = RAY_SEPARATOR not in "".join(every) and all(every)
    except TypeError:  # an id that is not a string
        named = False
    if not named:
        for v in (root, *chain.from_iterable((v, *kids) for v, kids in children.items()), *listed):
            _check_vertex_id(v)
    rays = frozenset(listed)
    if len(rays) != len(listed):
        raise TreeFormatError(f"duplicate ray leaves: {sorted(v for v, c in Counter(listed).items() if c > 1)}")

    # one walk from the root fixes the breadth-first ids; with every child listed
    # once and the root never, it meets no vertex twice
    once = set(placed)
    order = [root]
    if len(once) == len(placed) and root not in once:
        for v in order:
            order += children.get(v, ())
    n = len(order)
    child_counts = np.fromiter(map(len, map(children.get, order, repeat((), n))), np.int64, n)
    ids = dict(zip(order, range(n)))
    # the walk reached every child, so every vertex with children; the others are listed
    # as ray leaves or with no children, and each leaf is a ray leaf
    unlisted = chain(rays, compress(children, map(operator.not_, children.values())))
    if (
        n != len(placed) + 1
        or not all(map(ids.__contains__, unlisted))
        or any(map(children.get, rays))
        or n - np.count_nonzero(child_counts) != len(rays)
    ):
        _name_the_fault(root, children, rays)

    parent = np.concatenate([[0], np.repeat(np.arange(n), child_counts)])
    return Tree(
        root=root,
        vertices=tuple(order),
        ray_leaves=rays,
        ids=ids,
        parent=parent,
        child_counts=child_counts,
        first_child=np.concatenate([[1], np.cumsum(child_counts) + 1]),
        depth=_depths(parent),
    )


# -- identities ----------------------------------------------------------------


def sibling_chain_sums(tree: Tree, kmax: int) -> list[list[int]]:
    """Per explicit vertex v, in ``tree.vertices`` order, integers [N_0, ..., N_kmax] with
    N_k / N_0 = ``sibling_chain_identity_sum(tree, v, k)``; O(explicit vertices x kmax).

    With P(u) the product of the child counts above u (a Python int, exact past 2**63), the
    k-th descendants u of v sum to P(v) sum(1 / P(u)): N_0(u) = L // P(u) for L the lcm of
    the P's, and N_k sums N_(k-1) over the explicit children, which sit in one run per vertex;
    a ray leaf keeps N_0, as its ray vertices keep its P.
    """
    if kmax < 1:
        raise ValueError("k must be at least 1")
    counts = tree.child_counts.tolist()
    products = [1] * len(counts)
    for i, p in enumerate(tree.parent.tolist()[1:], 1):
        products[i] = products[p] * counts[p]
    inner = tree.child_counts > 0
    runs = tree.first_child[:-1][inner] - 1  # the first child of each inner vertex, less one
    lcm = math.lcm(*set(products))
    levels = [np.array([lcm // p for p in products], dtype=object)]
    for _ in range(kmax):
        levels.append(levels[0].copy())
        levels[-1][inner] = np.add.reduceat(levels[-2][1:], runs)
    return np.array(levels).T.tolist()


def sibling_chain_identity_sum(tree: Tree, v: str, k: int) -> Fraction:
    """Sum over the k-th descendants of ``v`` of the product of reciprocal
    sibling counts along the chain back up to ``v``.

    Equals 1 exactly for every vertex and every k >= 1: the sum of 1 / P over the
    explicit descendants of v's explicit base, P their product of child counts below it.
    Reads the child counts of the visited vertices alone.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    counts, first = tree.child_counts, tree.first_child
    level = [(tree._locate(v)[0], 1)]
    for _ in range(k):  # a ray leaf stands for its ray child
        level = [
            (c, p * (m or 1))
            for u, p in level
            for m in [int(counts[u])]
            for c in range(first.item(u), first.item(u + 1)) or (u,)
        ]
    lcm = math.lcm(*{p for _u, p in level})
    return Fraction(sum(lcm // p for _u, p in level), lcm)


# -- JSON interchange ----------------------------------------------------------


def tree_from_json(obj: object) -> Tree:
    """Check the strict tree schema, then build and validate the tree.

    Schema: ``{"root": id, "children": {id: [id, ...]}, "ray_leaves": [id]}``
    with no extra keys.  Only the keys and container types are checked here;
    :func:`build_tree` checks the ids (nonempty strings without '~'), that
    each ray leaf is listed once, and the structure.
    """
    if not isinstance(obj, dict):
        raise TreeFormatError("tree description must be a JSON object")
    unknown = set(obj) - _TREE_FILE_KEYS
    if unknown:
        raise TreeFormatError(f"unknown keys: {sorted(unknown)}")
    missing = _TREE_FILE_KEYS - set(obj)
    if missing:
        raise TreeFormatError(f"missing keys: {sorted(missing)}")
    children = obj["children"]
    rays = obj["ray_leaves"]
    if not isinstance(children, dict):
        raise TreeFormatError("'children' must be an object")
    if not isinstance(rays, list):
        raise TreeFormatError("'ray_leaves' must be a list")
    if not all(map(isinstance, children.values(), repeat(list))):
        v = next(v for v, kids in children.items() if not isinstance(kids, list))
        raise TreeFormatError(f"children of {v!r} must be a list")
    return build_tree(obj["root"], children, rays)


def tree_to_json(tree: Tree) -> dict:
    names, first = tree.vertices, tree.first_child.tolist()
    return {
        "root": tree.root,
        "children": {names[i]: list(names[a:b]) for i, (a, b) in enumerate(zip(first, first[1:])) if a < b},
        "ray_leaves": sorted(tree.ray_leaves),
    }


def load_tree(path: str) -> Tree:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise TreeFormatError(f"invalid JSON: {exc}") from exc
    return tree_from_json(obj)
