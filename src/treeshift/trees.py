"""Leafless, locally finite rooted directed trees.

A tree is stored as a finite explicit prefix (the only part that can
branch) together with a set of *ray leaves*: explicit vertices from which
an infinite chain of single-child vertices descends.  Chain vertices are
materialized on demand with synthetic identifiers ``<leaf>~<k>`` for the
k-th descendant, so the same tree always produces the same names.

Every depth-indexed query takes an explicit truncation horizon; there is
no global default.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
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

RAY_SEPARATOR = "~"

_TREE_FILE_KEYS = {"root", "children", "ray_leaves"}


@dataclass(frozen=True)
class VertexInfo:
    """Depth, sibling count and child count of a single vertex.

    ``sibling_count`` counts the children of the parent (including the
    vertex itself) and is 0 for the root, whose sibling set is empty.
    """

    depth: int
    sibling_count: int
    child_count: int


@dataclass(frozen=True)
class DepthProfile:
    """Generation-indexed branching defect ``n -> sum(child_count - 1)``.

    ``entries`` holds the nonzero values for generations up to ``horizon``.
    ``exact_beyond_horizon`` is True when every generation past the horizon
    is certified to contribute 0, which for the prefix-plus-rays
    representation holds exactly when the horizon reaches the deepest
    branching vertex.
    """

    entries: Mapping[int, int]
    horizon: int
    exact_beyond_horizon: bool

    def entry(self, n: int) -> int:
        if n < 0:
            raise ValueError("generation index must be nonnegative")
        if n > self.horizon and not self.exact_beyond_horizon:
            raise HorizonExceeded(f"profile not certified at generation {n}")
        return self.entries.get(n, 0)

    def total(self) -> int:
        """Sum of all entries; meaningful when the profile is exact."""
        if not self.exact_beyond_horizon:
            raise HorizonExceeded("total of a horizon-limited profile")
        return sum(self.entries.values())

    def same_as(self, other: "DepthProfile") -> bool:
        """Entrywise equality on the region both profiles certify."""
        limit = min(self.horizon, other.horizon)
        if self.exact_beyond_horizon and other.exact_beyond_horizon:
            return dict(self.entries) == dict(other.entries)
        for n in range(limit + 1):
            if self.entries.get(n, 0) != other.entries.get(n, 0):
                return False
        return True

    def first_difference(self, other: "DepthProfile") -> int | None:
        """Smallest certified generation where the two profiles differ."""
        keys = set(self.entries) | set(other.entries)
        limit = min(self.horizon, other.horizon)
        if not (self.exact_beyond_horizon and other.exact_beyond_horizon):
            keys = {n for n in keys if n <= limit}
        for n in sorted(keys):
            if self.entries.get(n, 0) != other.entries.get(n, 0):
                return n
        return None


@dataclass(frozen=True)
class Truncation:
    """All vertices of depth at most ``horizon``, rays materialized.

    ``children`` maps each vertex to its children inside the truncation;
    vertices sitting exactly at the horizon map to an empty tuple even
    though the underlying tree continues below them.  ``parent_index[i]``
    is the position of the parent of ``vertices[i]``; the root points to
    itself.
    """

    horizon: int
    generations: tuple[tuple[str, ...], ...]
    vertices: tuple[str, ...]
    index: Mapping[str, int]
    depth: Mapping[str, int]
    parent: Mapping[str, str | None]
    children: Mapping[str, tuple[str, ...]]
    parent_index: np.ndarray


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

    # -- vertex classification ------------------------------------------------

    def is_explicit(self, v: str) -> bool:
        return v in self.depths

    def contains(self, v: str) -> bool:
        """True for explicit vertices and well-formed ray vertices."""
        if self.is_explicit(v):
            return True
        try:
            self._split_ray(v)
        except UnknownVertex:
            return False
        return True

    def _split_ray(self, v: str) -> tuple[str, int]:
        base, sep, tail = v.rpartition(RAY_SEPARATOR)
        if not sep or base not in self.ray_leaves:
            raise UnknownVertex(v)
        try:
            k = int(tail)
        except ValueError:
            raise UnknownVertex(v) from None
        if k < 1:
            raise UnknownVertex(v)
        return base, k

    # -- local structure ------------------------------------------------------

    def depth_of(self, v: str) -> int:
        if self.is_explicit(v):
            return self.depths[v]
        base, k = self._split_ray(v)
        return self.depths[base] + k

    def parent_of(self, v: str) -> str | None:
        if self.is_explicit(v):
            return self.parents.get(v)
        base, k = self._split_ray(v)
        return base if k == 1 else f"{base}{RAY_SEPARATOR}{k - 1}"

    def children_of(self, v: str) -> tuple[str, ...]:
        """Materialized children, reaching into rays where needed."""
        if self.is_explicit(v):
            if v in self.ray_leaves:
                return (f"{v}{RAY_SEPARATOR}1",)
            return self.children[v]
        base, k = self._split_ray(v)
        return (f"{base}{RAY_SEPARATOR}{k + 1}",)

    def child_count(self, v: str) -> int:
        return len(self.children_of(v))

    def sibling_count(self, v: str) -> int:
        """Number of children of the parent; 0 for the root."""
        parent = self.parent_of(v)
        if parent is None:
            if v != self.root:
                raise UnknownVertex(v)
            return 0
        return self.child_count(parent)

    def vertex_info(self, v: str) -> VertexInfo:
        return VertexInfo(
            depth=self.depth_of(v),
            sibling_count=self.sibling_count(v),
            child_count=self.child_count(v),
        )

    # -- global structure -----------------------------------------------------

    def branching_vertices(self) -> tuple[tuple[str, int], ...]:
        """Vertices with at least two children, breadth-first, with counts.

        Ray vertices never branch, so the explicit prefix is exhaustive.
        """
        return tuple(
            (v, len(self.children[v]))
            for v in self.vertices
            if v not in self.ray_leaves and len(self.children[v]) >= 2
        )

    def max_branching_depth(self) -> int | None:
        depths = [self.depths[v] for v, _ in self.branching_vertices()]
        return max(depths) if depths else None

    def branching_index(self) -> int:
        """0 when no vertex branches, else 1 + depth of the deepest one."""
        deepest = self.max_branching_depth()
        return 0 if deepest is None else deepest + 1

    def truncate(self, horizon: int) -> Truncation:
        """Materialize every vertex of depth at most ``horizon``."""
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        generations: list[tuple[str, ...]] = [(self.root,)]
        parent: dict[str, str | None] = {self.root: None}
        children: dict[str, tuple[str, ...]] = {}
        parent_index = [0]
        start = 0
        for n in range(horizon):
            nxt: list[str] = []
            for i, v in enumerate(generations[n], start):
                kids = self.children_of(v)
                children[v] = kids
                for u in kids:
                    parent[u] = v
                parent_index.extend([i] * len(kids))
                nxt.extend(kids)
            start += len(generations[n])
            generations.append(tuple(nxt))
        for v in generations[horizon]:
            children[v] = ()
        vertices = tuple(v for gen in generations for v in gen)
        depth = {v: n for n, gen in enumerate(generations) for v in gen}
        index = {v: i for i, v in enumerate(vertices)}
        return Truncation(
            horizon=horizon,
            generations=tuple(generations),
            vertices=vertices,
            index=index,
            depth=depth,
            parent=parent,
            children=children,
            parent_index=np.array(parent_index),
        )

    def sibling_count_chain(self, v: str, l: int) -> int:
        """Sibling count of the l-th ancestor of ``v`` (l = 0 is v itself).

        The ancestor must be a non-root vertex, i.e. l < depth(v).
        """
        if l < 0 or l >= self.depth_of(v):
            raise AncestorOutOfRange(f"ancestor {l} of {v!r}")
        current = v
        for _ in range(l):
            current = self.parent_of(current)  # type: ignore[assignment]
        return self.sibling_count(current)

    def depth_profile(self, horizon: int) -> DepthProfile:
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        entries: dict[int, int] = {}
        for v, count in self.branching_vertices():
            n = self.depths[v]
            if n <= horizon:
                entries[n] = entries.get(n, 0) + (count - 1)
        deepest = self.max_branching_depth()
        exact = deepest is None or deepest <= horizon
        return DepthProfile(entries=entries, horizon=horizon, exact_beyond_horizon=exact)

    def canonical_form(self, horizon: int) -> str:
        """Label-independent form of the truncation at ``horizon``.

        Two trees truncated at the same horizon are isomorphic as rooted
        directed trees exactly when their canonical forms coincide
        (child subtrees are canonicalized recursively and sorted).
        """
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")

        def canon(v: str, remaining: int) -> str:
            if remaining == 0:
                return "()"
            parts = sorted(canon(u, remaining - 1) for u in self.children_of(v))
            return "(" + "".join(parts) + ")"

        return canon(self.root, horizon)


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

    Raises the specific structural error on violation: MultipleParents,
    CircuitDetected, MultipleRoots, Disconnected, RayLeafHasChildren or
    LeafWithoutRay.
    """
    root = _check_vertex_id(root)
    child_map = {
        _check_vertex_id(v): tuple(_check_vertex_id(u) for u in kids)
        for v, kids in children.items()
    }
    rays = frozenset(_check_vertex_id(v) for v in ray_leaves)

    universe = {root} | set(child_map)
    for kids in child_map.values():
        universe.update(kids)

    parent: dict[str, str] = {}
    for v, kids in child_map.items():
        for u in kids:
            if u in parent:
                raise MultipleParents(f"{u!r} has parents {parent[u]!r} and {v!r}")
            parent[u] = v

    if root in parent:
        seen = {root}
        current: str | None = parent[root]
        while current is not None and current not in seen:
            seen.add(current)
            current = parent.get(current)
        if current is not None:
            raise CircuitDetected(f"circuit through {current!r}")
        raise MultipleRoots(f"declared root {root!r} has a parent")

    for v in universe:
        if v != root and v not in parent and child_map.get(v):
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
    if missing:
        for v in sorted(missing):
            seen = set()
            current = v
            while current is not None and current not in seen:
                seen.add(current)
                current = parent.get(current)
            if current is not None:
                raise CircuitDetected(f"circuit through {current!r}")
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


def sibling_chain_identity_sum(tree: Tree, v: str, k: int) -> Fraction:
    """Sum over the k-th descendants of ``v`` of the product of reciprocal
    sibling counts along the chain back up to ``v``.

    Equals 1 exactly for every vertex and every k >= 1; computed in exact
    rational arithmetic.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    total = Fraction(0)
    descendants = [v]
    for _ in range(k):
        descendants = [u for w in descendants for u in tree.children_of(w)]
    for u in descendants:
        product = Fraction(1)
        for l in range(k):
            product /= tree.sibling_count_chain(u, l)
        total += product
    return total


# -- JSON interchange ----------------------------------------------------------


def tree_from_json(obj: object) -> Tree:
    """Parse the strict tree schema and validate the result.

    Schema: ``{"root": id, "children": {id: [id, ...]}, "ray_leaves": [id]}``
    with no extra keys; identifiers are nonempty strings without '~'.
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
        _check_vertex_id(v)
        if not isinstance(kids, list):
            raise TreeFormatError(f"children of {v!r} must be a list")
        for u in kids:
            _check_vertex_id(u)
    for v in rays:
        _check_vertex_id(v)
    return build_tree(_check_vertex_id(obj["root"]), children, rays)


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
        except json.JSONDecodeError as exc:
            raise TreeFormatError(f"invalid JSON: {exc}") from exc
    return tree_from_json(obj)
