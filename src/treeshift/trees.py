"""Leafless, locally finite rooted directed trees.

A tree is stored as a finite explicit prefix (the only part that can
branch) together with a set of *ray leaves*: explicit vertices from which
an infinite chain of single-child vertices descends.  Chain vertices are
materialized on demand with synthetic identifiers ``<leaf>~<k>`` for the
k-th descendant, so the same tree always produces the same names.  One
resolver, ``Tree._locate``, turns a name into its explicit vertex and ray
step; every vertex-level query reads it.

Every depth-indexed query (a truncation, a depth profile) takes an explicit
horizon; there is no global default.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
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
        depths = np.array([self.tree.depths[v] for v in names])
        steps = np.repeat(np.arange(self.horizon + 1), np.diff(self.offsets)) - depths[ids]
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
        top = min(self.horizon, max(self.tree.depths.values()))
        counts = np.bincount(self.explicit, minlength=len(self.tree.vertices))
        width = int(self.offsets[top + 1] - self.offsets[top])
        return np.argsort(self.explicit, kind="stable"), np.cumsum(counts) - counts, top, width

    def position(self, v: str) -> int | None:
        """Position of vertex ``v``, parsing its name once; None if the truncation lacks it."""
        try:
            base, k = self.tree._locate(v)
        except UnknownVertex:
            return None
        if (n := self.tree.depths[base] + k) > self.horizon:
            return None
        order, starts, top, width = self._runs
        below = max(0, n - top)
        return int(order[starts[self.tree._ids[base]] + k - below]) + below * width


@dataclass(frozen=True)
class Tree:
    """Validated leafless rooted directed tree (immutable).

    Construct through :func:`build_tree` or :func:`tree_from_json`; the
    constructor itself performs no validation.
    """

    root: str
    vertices: tuple[str, ...]  # explicit vertices in breadth-first order
    children: Mapping[str, tuple[str, ...]]  # explicit children only
    ray_leaves: frozenset[str]
    parents: Mapping[str, str]  # explicit non-root vertex -> parent
    depths: Mapping[str, int]  # explicit vertex -> depth

    @cached_property
    def _ids(self) -> Mapping[str, int]:
        """Explicit vertex -> its position in ``vertices``, the id a truncation stores."""
        return {v: i for i, v in enumerate(self.vertices)}

    # -- vertex names and local structure ---------------------------------------

    def _locate(self, v: str) -> tuple[str, int]:
        """(v, 0) for an explicit vertex, (r, k) for the ray vertex ``<r>~<k>``; any other
        name raises ``UnknownVertex``.  Every vertex-level query reads its name here alone."""
        if v in self.depths:
            return v, 0
        base, sep, tail = v.rpartition(RAY_SEPARATOR)
        if not sep or base not in self.ray_leaves:
            raise UnknownVertex(v)
        try:
            k = int(tail)
        except ValueError:
            raise UnknownVertex(v) from None
        if k < 1 or tail != str(k):  # one name per vertex: no sign, spaces or leading zeros
            raise UnknownVertex(v)
        return base, k

    def contains(self, v: str) -> bool:
        """True for explicit vertices and well-formed ray vertices."""
        try:
            self._locate(v)
        except UnknownVertex:
            return False
        return True

    def depth_of(self, v: str) -> int:
        base, k = self._locate(v)
        return self.depths[base] + k

    def parent_of(self, v: str) -> str | None:
        base, k = self._locate(v)
        if k == 0:
            return self.parents.get(v)
        return base if k == 1 else f"{base}{RAY_SEPARATOR}{k - 1}"

    def children_of(self, v: str) -> tuple[str, ...]:
        """Materialized children, reaching into rays where needed."""
        base, k = self._locate(v)
        if k == 0 and v not in self.ray_leaves:
            return self.children[v]
        return (f"{base}{RAY_SEPARATOR}{k + 1}",)

    def sibling_count(self, v: str) -> int:
        """Number of children of the parent: 1 on a ray, 0 for the root."""
        if self._locate(v)[1]:
            return 1
        return len(self.children[self.parents[v]]) if v in self.parents else 0

    # -- global structure -----------------------------------------------------

    @cached_property
    def _child_counts(self) -> np.ndarray:
        """Explicit child count of each vertex of ``vertices``; 0 for a ray leaf."""
        return np.array([len(self.children[v]) for v in self.vertices])

    @cached_property
    def _branching(self) -> tuple[tuple[str, int], ...]:
        return tuple((v, c) for v, c in zip(self.vertices, self._child_counts.tolist()) if c >= 2)

    def branching_vertices(self) -> tuple[tuple[str, int], ...]:
        """Vertices with at least two children, breadth-first, with counts.

        Ray vertices never branch, so the explicit prefix is exhaustive.
        """
        return self._branching

    def branching_index(self) -> int:
        """0 when no vertex branches, else 1 + depth of the deepest one."""
        return max((self.depths[v] + 1 for v, _ in self._branching), default=0)

    def truncate(self, horizon: int) -> Truncation:
        """Materialize every vertex of depth at most ``horizon``; more than
        ``MAX_TRUNCATION_VERTICES`` raise ``ValueError`` before any is built."""
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        # the explicit vertices, plus horizon - depth(r) below each ray leaf r
        size = sum(n <= horizon for n in self.depths.values())
        size += sum(max(0, horizon - self.depths[r]) for r in self.ray_leaves)
        if size > MAX_TRUNCATION_VERTICES:
            raise ValueError(
                f"truncation at horizon {horizon} would hold {size} vertices, "
                f"over the limit of {MAX_TRUNCATION_VERTICES}"
            )
        # explicit ids are breadth-first, so the explicit vertices of one depth take
        # consecutive ids in generation order; a ray vertex keeps its leaf's id
        kids = self._child_counts
        deepest = max(self.depths.values())
        parents, explicit = [np.zeros(1, int)], [np.zeros(1, int)]
        start, first = 0, 1
        for _ in range(min(horizon, deepest)):
            count = np.maximum(kids[explicit[-1]], 1)
            parents.append(np.repeat(np.arange(start, start + len(count)), count))
            e = np.repeat(explicit[-1], count)
            branch = kids[e] > 0
            born = int(np.count_nonzero(branch))
            e[branch] = np.arange(first, first + born)
            start, first = start + len(count), first + born
            explicit.append(e)
        # below the deepest explicit vertex every vertex has one child, the next on its ray
        below, width = max(0, horizon - deepest), len(explicit[-1])
        sizes = [len(e) for e in explicit] + [width] * below
        parents.append(np.arange(start, start + width * below))
        return Truncation(
            tree=self,
            horizon=horizon,
            parent_index=np.concatenate(parents),
            offsets=np.concatenate([[0], np.cumsum(sizes)]),
            explicit=np.concatenate(explicit),
        )

    def depth_profile(self, horizon: int) -> DepthProfile:
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        entries: dict[int, int] = {}
        for v, count in self._branching:
            if (n := self.depths[v]) <= horizon:
                entries[n] = entries.get(n, 0) + (count - 1)
        exact = self.branching_index() <= horizon + 1
        return DepthProfile(entries=entries, exact_beyond_horizon=exact)


# -- construction and validation ---------------------------------------------


def _check_vertex_id(v: object) -> str:
    if not isinstance(v, str) or not v or RAY_SEPARATOR in v:
        raise InvalidVertexId(f"bad vertex id {v!r}")
    return v


def build_tree(
    root: str,
    children: Mapping[str, Sequence[str]],
    ray_leaves: Iterable[str],
) -> Tree:
    """Validate a children-map description and return an immutable Tree.

    The one check of the vertex ids (InvalidVertexId) and of repeated ray leaves
    (TreeFormatError); raises the specific structural error on violation:
    MultipleParents, CircuitDetected, MultipleRoots, Disconnected,
    RayLeafHasChildren or LeafWithoutRay.
    """
    root = _check_vertex_id(root)
    child_map = {
        _check_vertex_id(v): tuple(_check_vertex_id(u) for u in kids)
        for v, kids in children.items()
    }
    listed = [_check_vertex_id(v) for v in ray_leaves]
    if duplicates := sorted(v for v, count in Counter(listed).items() if count > 1):
        raise TreeFormatError(f"duplicate ray leaves: {duplicates}")
    rays = frozenset(listed)

    universe = {root} | set(child_map)
    for kids in child_map.values():
        universe.update(kids)

    parent: dict[str, str] = {}
    for v, kids in child_map.items():
        for u in kids:
            if u in parent:
                raise MultipleParents(f"{u!r} has parents {parent[u]!r} and {v!r}")
            parent[u] = v

    def check_parent_chain(v: str) -> None:
        """Raise CircuitDetected when the parent chain from ``v`` loops."""
        seen = set()
        current: str | None = v
        while current is not None and current not in seen:
            seen.add(current)
            current = parent.get(current)
        if current is not None:
            raise CircuitDetected(f"circuit through {current!r}")

    if root in parent:
        check_parent_chain(root)
        raise MultipleRoots(f"declared root {root!r} has a parent")

    for v, kids in child_map.items():  # input order, so the named vertex is the same in every run
        if v != root and v not in parent and kids:
            raise MultipleRoots(f"{v!r} has children but no parent")

    # breadth-first reachability from the root fixes vertex order and depths
    order: list[str] = [root]
    depth: dict[str, int] = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in child_map.get(v, ()):
            depth[u] = depth[v] + 1
            order.append(u)
            queue.append(u)

    missing = (universe | rays) - set(order)
    for v in sorted(missing):
        check_parent_chain(v)
    if missing:
        raise Disconnected(f"unreachable vertices: {sorted(missing)}")

    full_children = {v: child_map.get(v, ()) for v in order}
    for v in order:
        if v in rays and full_children[v]:
            raise RayLeafHasChildren(f"{v!r} is a ray leaf with explicit children")
        if not full_children[v] and v not in rays:
            raise LeafWithoutRay(f"{v!r} has no children and is not a ray leaf")

    return Tree(
        root=root,
        vertices=tuple(order),
        children=full_children,
        ray_leaves=rays,
        parents=parent,
        depths=depth,
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
    ids, counts = tree._ids, tree._child_counts.tolist()
    products = [1] * len(counts)
    for i, v in enumerate(tree.vertices[1:], 1):
        parent = ids[tree.parents[v]]
        products[i] = products[parent] * counts[parent]
    inner = tree._child_counts > 0
    runs = np.cumsum([0] + counts)[:-1][inner]  # the first child of each inner vertex, less one
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
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    level = [(tree._locate(v)[0], 1)]
    for _ in range(k):  # a ray leaf stands for its ray child
        level = [(c, p * len(kids)) for u, p in level for kids in [tree.children[u] or (u,)] for c in kids]
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
    for v, kids in children.items():
        if not isinstance(kids, list):
            raise TreeFormatError(f"children of {v!r} must be a list")
    return build_tree(obj["root"], children, rays)


def tree_to_json(tree: Tree) -> dict:
    return {
        "root": tree.root,
        "children": {v: list(kids) for v, kids in tree.children.items() if kids},
        "ray_leaves": sorted(tree.ray_leaves),
    }


def load_tree(path: str) -> Tree:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise TreeFormatError(f"invalid JSON: {exc}") from exc
    return tree_from_json(obj)
