"""Seeded inputs and op lists for the three benchmark workloads.

This module does not import treeshift: it builds tree descriptions in the
strict file schema, the op list of one pass, and for every op the outcome
the construction implies (exit code, verdict, witness generation) and the
sizes the program will see (explicit and truncated vertices, kernel
dimension, series order).  The same (workload, seed) always gives the same
files and ops, byte for byte.

Workloads
---------
equiv_verify
    ``equiv --verify-depth`` at q in {2, 3} on equivalent pairs (relabelled
    complete binary trees of depth 5-8, fans of 100-200 children,
    random prefix-plus-rays trees, profile-equal but non-isomorphic pairs)
    plus cheap pairs (profile perturbed at a seeded generation, q = 1 pairs
    with equal cokernel totals).  The dense float operator path dominates.
checks_exact
    ``checks`` for every suite and for ``all``, plus ``moments`` with kmax
    up to 300, on binary trees of depth 3-7, fans, the line and random
    trees that branch at depth >= 5.  Exact per-vertex Fraction work
    dominates.  Trees branching at depth >= 5 make the ``kernel`` suite
    exit 3 (it hard-codes depth 10 and nmax 5); those ops stay in and are
    counted as failed.
kernel_series
    Library calls only: ``kernel_series_order`` plus ``kernel_apply`` for
    both spaces at radii 0.5-0.95 on the kernel block layout of the five
    acceptance trees, ``dirichlet_norm``/``bergman_norm`` on graded
    functions with hundreds of layers, and ``pick_property_check``.  The
    O(N^2) Fraction series dominates.

Every shape and parameter that sets an op's cost is fixed per workload;
the seed draws labels, child order, random tree shapes (kept small),
evaluation points and coordinates, so pass times are comparable across
seeds.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass, field

WORKLOADS = ("equiv_verify", "checks_exact", "kernel_series")

KERNEL_SUITE_DEPTH = 10  # depth and power limit hard-coded in the kernel suite
KERNEL_SUITE_NMAX = 5
HAUSDORFF_DEPTH_CAP = 10
KERNEL_DEFECT = (
    "kernel suite hard-codes truncation depth 10 and powers up to 5, so it exits 3 "
    "on trees that branch at depth >= 5"
)

_ALPHABET = "abcdefghijkmnpqrstuvwxyz23456789"


# -- tree descriptions ---------------------------------------------------------------


@dataclass
class GenTree:
    """A tree in the strict file schema plus the facts the oracles need."""

    root: str
    children: dict[str, list[str]]
    ray_leaves: list[str]
    depth: dict[str, int] = field(init=False)
    order: list[str] = field(init=False)

    def __post_init__(self) -> None:
        self.depth = {self.root: 0}
        self.order = [self.root]
        queue = deque([self.root])
        while queue:
            v = queue.popleft()
            for u in self.children.get(v, ()):
                self.depth[u] = self.depth[v] + 1
                self.order.append(u)
                queue.append(u)

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "children": {v: list(k) for v, k in self.children.items() if k},
            "ray_leaves": sorted(self.ray_leaves),
        }

    def branching(self) -> list[tuple[str, int]]:
        """Branching vertices in breadth-first order with child counts."""
        return [(v, len(self.children[v])) for v in self.order if len(self.children.get(v, ())) >= 2]

    def profile(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for v, count in self.branching():
            out[self.depth[v]] = out.get(self.depth[v], 0) + count - 1
        return out

    def cokernel_dim(self) -> int:
        return 1 + sum(count - 1 for _v, count in self.branching())

    def deepest_branching(self) -> int | None:
        depths = [self.depth[v] for v, _c in self.branching()]
        return max(depths) if depths else None

    def branching_index(self) -> int:
        deepest = self.deepest_branching()
        return 0 if deepest is None else deepest + 1

    def truncated(self, horizon: int) -> dict[str, int]:
        """Every vertex of depth <= horizon with its depth, rays materialized."""
        out = {v: d for v, d in self.depth.items() if d <= horizon}
        for leaf in self.ray_leaves:
            for k in range(1, horizon - self.depth[leaf] + 1):
                out[f"{leaf}~{k}"] = self.depth[leaf] + k
        return out

    def truncated_count(self, horizon: int) -> int:
        explicit = sum(1 for d in self.depth.values() if d <= horizon)
        return explicit + sum(max(0, horizon - self.depth[leaf]) for leaf in self.ray_leaves)


def _from_children(children: dict[str, list[str]], root: str = "r") -> GenTree:
    """Close a children map: every vertex without children becomes a ray leaf."""
    seen = {root} | {u for kids in children.values() for u in kids}
    rays = [v for v in seen if not children.get(v)]
    return GenTree(root, {v: list(k) for v, k in children.items() if k}, rays)


def binary_tree(depth: int) -> GenTree:
    children: dict[str, list[str]] = {}
    level = ["r"]
    for _ in range(depth):
        nxt = []
        for v in level:
            kids = [f"{v}0", f"{v}1"]
            children[v] = kids
            nxt.extend(kids)
        level = nxt
    return _from_children(children)


def fan_tree(m: int) -> GenTree:
    return _from_children({"r": [f"c{i}" for i in range(m)]})


def line_tree() -> GenTree:
    return _from_children({})


def acceptance_trees() -> dict[str, GenTree]:
    """The five acceptance-corpus shapes: line, forks, two-level branchings."""
    return {
        "line": line_tree(),
        "fork2": _from_children({"r": ["a", "b"]}),
        "fork3": _from_children({"r": ["a", "b", "c"]}),
        "double01": _from_children({"r": ["a", "b"], "a": ["c", "d"]}),
        "deep13": _from_children({"r": ["a"], "a": ["b", "c"], "b": ["d"], "d": ["e", "f"]}),
    }


def random_prefix_tree(rng: random.Random, branchings: int, max_depth: int) -> GenTree:
    """Random explicit prefix: unary steps and 2-3-way branchings, rays below."""
    children: dict[str, list[str]] = {}
    depth = {"r": 0}
    leaves = ["r"]
    done = 0
    counter = 0
    while done < branchings:
        open_leaves = [v for v in leaves if depth[v] < max_depth]
        if not open_leaves:
            break
        v = rng.choice(open_leaves)
        unary = depth[v] < max_depth - 1 and rng.random() < 0.3
        arity = 1 if unary else rng.choice((2, 2, 3))
        kids = []
        for _ in range(arity):
            counter += 1
            kids.append(f"x{counter}")
        children[v] = kids
        leaves.remove(v)
        for u in kids:
            depth[u] = depth[v] + 1
            leaves.append(u)
        done += arity >= 2
    return _from_children(children)


def deep_branching_tree(rng: random.Random, branchings: int, branch_depth: int) -> GenTree:
    """Random prefix tree plus one extra 2-way branching at ``branch_depth``."""
    tree = random_prefix_tree(rng, branchings, max_depth=3)
    children = {v: list(k) for v, k in tree.children.items()}
    v = rng.choice(sorted(tree.ray_leaves))
    d = tree.depth[v]
    while d < branch_depth:
        children[v] = [f"{v}u"]
        v, d = f"{v}u", d + 1
    children[v] = [f"{v}p", f"{v}s"]
    return _from_children(children)


def profile_tree(rng: random.Random, profile: dict[int, int]) -> GenTree:
    """A random tree whose depth profile is exactly ``profile``.

    Generation by generation, the defect e_n is split into random parts
    spread over distinct vertices of generation n (a part p gives its
    vertex p + 1 children); other vertices continue with one child.
    """
    depth_end = max(profile) + 1 if profile else 0
    children: dict[str, list[str]] = {}
    level = ["r"]
    counter = 0
    for n in range(depth_end):
        e = profile.get(n, 0)
        parts: list[int] = []
        if e:
            count = rng.randint(1, min(e, len(level)))
            cuts = sorted(rng.sample(range(1, e), count - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [e])]
        hosts = rng.sample(range(len(level)), len(parts))
        extra = dict(zip(hosts, parts))
        nxt = []
        for i, v in enumerate(level):
            kids = []
            for _ in range(1 + extra.get(i, 0)):
                counter += 1
                kids.append(f"y{counter}")
            children[v] = kids
            nxt.extend(kids)
        level = nxt
    return _from_children(children)


def perturb_at(rng: random.Random, tree: GenTree, generation: int) -> GenTree:
    """Copy of ``tree`` whose profile differs only at ``generation`` (+1)."""
    children = {v: list(k) for v, k in tree.children.items()}
    v = rng.choice([u for u in tree.order if tree.depth[u] == generation])
    if children.get(v):
        children[v].append(f"{v}e")
    else:
        children[v] = [f"{v}e", f"{v}f"]
    return _from_children(children, tree.root)


def canonical(tree: GenTree) -> str:
    """Label-independent form of the explicit prefix (iterative AHU)."""
    code: dict[str, str] = {}
    for v in reversed(tree.order):
        code[v] = "(" + "".join(sorted(code[u] for u in tree.children.get(v, ()))) + ")"
    return code[tree.root]


def relabel(rng: random.Random, tree: GenTree) -> GenTree:
    """Same shape, fresh random vertex ids, children in a random order."""
    names: dict[str, str] = {}
    used: set[str] = set()
    for v in tree.order:
        while True:
            name = "".join(rng.choice(_ALPHABET) for _ in range(7))
            if name not in used:
                break
        used.add(name)
        names[v] = name
    children = {}
    for v, kids in tree.children.items():
        mapped = [names[u] for u in kids]
        rng.shuffle(mapped)
        children[names[v]] = mapped
    return GenTree(names[tree.root], children, [names[v] for v in tree.ray_leaves])


SERIES_TAIL_TOL = 1e-12  # remainder bound used by kernel_series_order


def series_order(q: int, space: str, radius: float) -> int:
    """Smallest N whose documented remainder bound is below 1e-12.

    Dirichlet-side coefficients are at most 1, so the tail is bounded by
    r^(N+1)/(1-r); Bergman-side coefficients grow like (n+q)^(q-1).
    """
    n = 0
    while True:
        bound = radius ** (n + 1) / (1.0 - radius)
        if space == "bergman":
            bound *= float(n + q) ** (q - 1)
        if bound < SERIES_TAIL_TOL:
            return n
        n += 1


# -- ops -------------------------------------------------------------------------------


@dataclass
class Op:
    """One timed operation and the outcome its construction implies.

    ``argv`` holds tree file names relative to the input directory for CLI
    ops; ``call`` describes a library call group for ``kernel_series``.
    ``expect`` holds the exit code and verdict fields; ``sizes`` the work
    the program will see; ``known_defect`` names a documented program
    defect that makes the op fail today (the op still counts as failed).
    """

    name: str
    argv: list[str] | None = None
    call: dict | None = None
    expect: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    known_defect: str | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "argv": self.argv,
            "call": self.call,
            "expect": self.expect,
            "sizes": self.sizes,
            "known_defect": self.known_defect,
        }


@dataclass
class Workload:
    name: str
    trees: dict[str, GenTree]  # file name -> tree
    ops: list[Op]

    def files(self) -> dict[str, str]:
        """File name -> exact JSON text written for the program."""
        return {name: json.dumps(t.to_json(), sort_keys=True) for name, t in self.trees.items()}

    def largest_dense(self) -> int:
        """Side n of the largest dense n x n matrix any op builds."""
        return max((op.sizes.get("dense_n", 0) for op in self.ops), default=0)


class _Builder:
    def __init__(self, name: str, seed: int):
        self.rng = random.Random(f"{name}:{seed}")
        self.trees: dict[str, GenTree] = {}
        self.ops: list[Op] = []

    def add_tree(self, label: str, tree: GenTree) -> str:
        fname = f"{label}.json"
        if fname in self.trees:
            raise ValueError(f"duplicate tree file {fname}")
        self.trees[fname] = tree
        return fname

    def add(self, op: Op) -> None:
        if any(o.name == op.name for o in self.ops):
            raise ValueError(f"duplicate op {op.name}")
        self.ops.append(op)


def _equiv_op(b: _Builder, name: str, f1: str, f2: str, q: int, expect_equivalent: bool,
              witness: int | None = None) -> None:
    t1, t2 = b.trees[f1], b.trees[f2]
    horizon = max(t1.branching_index(), t2.branching_index(), 1)
    verify = horizon + 3
    same_profile = t1.profile() == t2.profile()
    if q == 1:
        expect_equivalent = t1.cokernel_dim() == t2.cokernel_dim()
        witness = None
    expect = {
        "exit": 0 if expect_equivalent else 1,
        "verdict": "equivalent" if expect_equivalent else "not_equivalent",
        "certainty": "exact",
        "witness": witness,
        "cokernel_dims": [t1.cokernel_dim(), t2.cokernel_dim()],
        "profiles": [
            {str(n): c for n, c in sorted(t1.profile().items())},
            {str(n): c for n, c in sorted(t2.profile().items())},
        ],
        "horizon": horizon,
        "verify_depth": verify,
        "intertwining": None if not expect_equivalent else ("residual" if same_profile else "skipped"),
    }
    lifted = expect["intertwining"] == "residual"
    n_verify = max(t1.truncated_count(verify), t2.truncated_count(verify)) if lifted else 0
    sizes = {
        "explicit_vertices": len(t1.order) + len(t2.order),
        "truncated_vertices": n_verify,
        "kernel_dim": t1.cokernel_dim(),
        "dense_n": n_verify,
    }
    argv = ["equiv", f1, f2, "--q", str(q), "--horizon", str(horizon), "--verify-depth", str(verify)]
    b.add(Op(name=name, argv=argv, expect=expect, sizes=sizes))


def _random_profile(rng: random.Random, generations: int) -> dict[int, int]:
    profile = {0: rng.randint(1, 2)}
    for n in range(1, generations):
        e = rng.randint(0, 3)
        if e:
            profile[n] = e
    profile[generations - 1] = profile.get(generations - 1, 0) or 1
    return profile


def _equiv_verify(b: _Builder) -> None:
    # Op counts are chosen so that, sorted by cost, the median op falls inside
    # the eight fan-100 ops and the 90th percentile inside the four fan-200
    # ops: 10 cheap seeded pairs < 4 x binary5 < 4 x binary6 < 8 x fan100 <
    # 12 mid-size < 4 x fan200 < 2 x binary8.  A percentile that sits between
    # two groups of different cost would jump between them from run to run,
    # and ops of a few milliseconds vary more with the host than larger ones.
    rng = b.rng

    def copies(label: str, base: GenTree, pairs: int) -> None:
        for k in range(pairs):
            tag = label if pairs == 1 else f"{label}-{k}"
            f1 = b.add_tree(f"{tag}_a", relabel(rng, base))
            f2 = b.add_tree(f"{tag}_b", relabel(rng, base))
            for q in (2, 3):
                _equiv_op(b, f"equiv/{tag}/q{q}", f1, f2, q, True)

    for d, pairs in ((5, 2), (6, 2), (7, 2), (8, 1)):
        copies(f"binary{d}", binary_tree(d), pairs)
    for m, pairs in ((100, 4), (120, 2), (150, 2), (200, 2)):
        copies(f"fan{m}", fan_tree(m), pairs)
    for i in range(2):
        copies(f"random{i}", random_prefix_tree(rng, branchings=8, max_depth=5), 1)
    # the WIDE/SPLIT pair: profile {0: 1, 1: 2}, not isomorphic
    wide = _from_children({"r": ["a", "b"], "a": ["c", "d", "e"]})
    split = _from_children({"r": ["a", "b"], "a": ["c", "d"], "b": ["e", "f"]})
    f1 = b.add_tree("wide", relabel(rng, wide))
    f2 = b.add_tree("split", relabel(rng, split))
    for q in (2, 3):
        _equiv_op(b, f"equiv/wide_split/q{q}", f1, f2, q, True)
    for i in range(1):
        profile = _random_profile(rng, generations=5)
        first = profile_tree(rng, profile)
        for _attempt in range(20):
            second = profile_tree(rng, profile)
            if canonical(second) != canonical(first):
                break
        f1 = b.add_tree(f"profile{i}_a", relabel(rng, first))
        f2 = b.add_tree(f"profile{i}_b", relabel(rng, second))
        for q in (2, 3):
            _equiv_op(b, f"equiv/profile{i}/q{q}", f1, f2, q, True)
    # cheap pairs: profile differs at a seeded generation
    for i in range(1):
        profile = _random_profile(rng, generations=5)
        base = profile_tree(rng, profile)
        g = rng.randint(0, 4)
        f1 = b.add_tree(f"perturb{i}_a", relabel(rng, base))
        f2 = b.add_tree(f"perturb{i}_b", relabel(rng, perturb_at(rng, base, g)))
        _equiv_op(b, f"equiv/perturb{i}/q{2 + i % 2}", f1, f2, 2 + i % 2, False, witness=g)
    # cheap pairs at q = 1: equal cokernel totals, profiles moved
    for i in range(1):
        profile = _random_profile(rng, generations=4)
        moved = dict(profile)
        src = rng.choice(sorted(moved))
        dst = rng.choice([n for n in range(4) if n != src])
        moved[src] -= 1
        moved[dst] = moved.get(dst, 0) + 1
        moved = {n: e for n, e in moved.items() if e}
        f1 = b.add_tree(f"totals{i}_a", relabel(rng, profile_tree(rng, profile)))
        f2 = b.add_tree(f"totals{i}_b", relabel(rng, profile_tree(rng, moved)))
        _equiv_op(b, f"equiv/totals{i}/q1", f1, f2, 1, True)


def _checks_op(b: _Builder, fname: str, suite: str, q: int, horizon: int) -> None:
    tree = b.trees[fname]
    deepest = tree.deepest_branching()
    defect = (
        suite in ("kernel", "all")
        and deepest is not None
        and deepest + 1 + KERNEL_SUITE_NMAX > KERNEL_SUITE_DEPTH
    )
    dense = tree.truncated_count(KERNEL_SUITE_DEPTH) if suite in ("kernel", "all") else 0
    sizes = {
        "explicit_vertices": len(tree.order),
        "truncated_vertices": tree.truncated_count(horizon),
        "kernel_dim": tree.cokernel_dim(),
        "dense_n": dense,
    }
    label = fname.removesuffix(".json")
    argv = ["checks", fname, "--q", str(q), "--suite", suite, "--horizon", str(horizon)]
    b.add(Op(
        name=f"checks/{label}/{suite}/q{q}/h{horizon}",
        argv=argv,
        expect={"exit": 0, "suite": suite, "q": q, "horizon": horizon},
        sizes=sizes,
        known_defect=KERNEL_DEFECT if defect else None,
    ))


def _moments_op(b: _Builder, fname: str, vertex: str, q: int, kmax: int, kind: str) -> None:
    tree = b.trees[fname]
    depth = tree.depth[vertex]
    horizon = max(1, depth + kmax)
    label = fname.removesuffix(".json")
    b.add(Op(
        name=f"moments/{label}/{kind}/q{q}/k{kmax}",
        argv=["moments", fname, "--q", str(q), "--vertex", vertex, "--kmax", str(kmax), "--kind", kind],
        expect={"exit": 0, "q": q, "kmax": kmax, "kind": kind, "vertex": vertex, "depth": depth},
        sizes={"explicit_vertices": len(tree.order), "truncated_vertices": tree.truncated_count(horizon),
               "kernel_dim": tree.cokernel_dim(), "dense_n": 0},
    ))


def _checks_exact(b: _Builder) -> None:
    # Sorted by cost the 43 ops form tiers: 19 cheaper ops, the 6 identical
    # binary-7 cardid ops and a fan-300 cardid op of about their cost (the
    # median, the 22nd op, falls among them), 11 mid-size ops, 4 identical
    # binary-5 ``all`` ops (where the 90th percentile, the 39th, falls) and
    # 2 heavy fan ops.
    rng = b.rng
    files = {}
    for d in (3, 4, 5, 6, 7):
        files[f"binary{d}"] = b.add_tree(f"binary{d}", relabel(rng, binary_tree(d)))
    for label in ("binary5b", "binary5c", "binary5d"):
        files[label] = b.add_tree(label, relabel(rng, binary_tree(5)))
    for m in (100, 200, 300):
        files[f"fan{m}"] = b.add_tree(f"fan{m}", relabel(rng, fan_tree(m)))
    files["line"] = b.add_tree("line", relabel(rng, line_tree()))
    for i in range(3):
        tree = deep_branching_tree(rng, branchings=5, branch_depth=5 + i)
        files[f"deep{i}"] = b.add_tree(f"deep{i}", relabel(rng, tree))
    plan = [
        # (tree, suite, q, horizon); cheap tier
        ("line", "defect", 4, 12), ("line", "kernel", 3, 8), ("line", "hausdorff", 4, 12),
        ("line", "all", 3, 8),
        ("fan200", "pick", 2, 8), ("fan300", "pick", 4, 12), ("fan200", "cardid", 4, 8),
        ("binary4", "kernel", 2, 8), ("binary6", "kernel", 3, 8), ("binary7", "kernel", 2, 8),
        ("binary6", "defect", 4, 11), ("binary6", "pick", 2, 8),
        ("deep0", "defect", 3, 12), ("deep2", "cardid", 3, 10),
        # median tier: cardid ignores q and the horizon, so these cost the same
        ("binary7", "cardid", 2, 8), ("binary7", "cardid", 3, 10),
        ("binary7", "cardid", 4, 12), ("binary7", "cardid", 3, 8),
        ("binary7", "cardid", 2, 10), ("binary7", "cardid", 4, 8),
        # mid tier
        ("binary3", "all", 2, 8), ("binary3", "all", 4, 12), ("binary4", "all", 3, 10),
        ("binary4", "hausdorff", 2, 12), ("binary5", "hausdorff", 2, 8),
        ("deep0", "all", 2, 8), ("deep1", "all", 3, 10), ("deep2", "all", 4, 12),
        ("deep1", "hausdorff", 2, 10),
        ("fan300", "cardid", 3, 8), ("fan200", "defect", 3, 10), ("fan300", "defect", 2, 8),
        # 90th-percentile tier: four copies of binary 5 with the same parameters
        ("binary5", "all", 4, 9), ("binary5b", "all", 4, 9),
        ("binary5c", "all", 4, 9), ("binary5d", "all", 4, 9),
        # heaviest ops
        ("fan100", "all", 2, 8), ("fan100", "kernel", 4, 8),
    ]
    for label, suite, q, horizon in plan:
        _checks_op(b, files[label], suite, q, horizon)

    def root(label: str) -> str:
        return b.trees[files[label]].root

    def child_of_root(label: str) -> str:
        tree = b.trees[files[label]]
        return sorted(tree.children[tree.root])[0]

    _moments_op(b, files["line"], root("line"), 3, 300, "dirichlet")
    _moments_op(b, files["line"], root("line"), 2, 250, "dual")
    _moments_op(b, files["deep0"], root("deep0"), 2, 60, "dual")
    _moments_op(b, files["binary4"], root("binary4"), 2, 150, "dirichlet")
    _moments_op(b, files["fan100"], child_of_root("fan100"), 3, 200, "dirichlet")


def _kernel_series(b: _Builder) -> None:
    rng = b.rng
    corpus = {label: relabel(rng, t) for label, t in acceptance_trees().items()}
    files = {label: b.add_tree(label, tree) for label, tree in corpus.items()}

    def blocks(tree: GenTree) -> list[tuple[str | None, int, int]]:
        out = [(None, 0, 1)]
        out += [(v, tree.depth[v] + 1, count - 1) for v, count in tree.branching()]
        return out

    def point(radius: float) -> list[float]:
        angle = rng.uniform(0.0, 2 * math.pi)
        return [round(radius * math.cos(angle), 12), round(radius * math.sin(angle), 12)]

    def coords(dim: int) -> list[list[float]]:
        return [[round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6)] for _ in range(dim)]

    def series_op(label: str, radius: float, q: int, first_block_only: bool) -> None:
        tree = corpus[label]
        spec = blocks(tree)
        chosen = spec[:1] if first_block_only else spec
        call = {
            "fn": "series",
            "tree": files[label],
            "q": q,
            "radius": radius,
            "z": point(radius),
            "w": point(radius),
            "g": [[bid, coords(dim)] for bid, _l, dim in chosen],
        }
        b.add(Op(
            name=f"series/{label}/r{radius}/q{q}" + ("/block0" if first_block_only else ""),
            call=call,
            expect={"blocks": {str(bid): l for bid, l, _d in spec}},
            sizes={"explicit_vertices": len(tree.order), "kernel_dim": tree.cokernel_dim(),
                   "blocks": len(chosen), "dense_n": 0,
                   "series_order": {sp: series_order(q, sp, radius) for sp in ("dirichlet", "bergman")}},
        ))

    # Sorted by cost: 11 cheap ops (series at r <= 0.8 on few blocks, pick
    # checks), 14 mid ops (graded norms, series at r = 0.8 on 2-3 blocks,
    # where the median op falls), 5 identical root-block series at r = 0.9
    # (where the 90th percentile falls) and one series at r = 0.95.
    for radius, label, q in (
        (0.5, "line", 2), (0.5, "double01", 3), (0.6, "fork2", 2), (0.6, "deep13", 3),
        (0.7, "fork3", 2), (0.7, "line", 3), (0.7, "double01", 2), (0.8, "line", 2),
        (0.8, "fork2", 3), (0.8, "fork3", 2), (0.8, "double01", 3), (0.8, "deep13", 2),
    ):
        series_op(label, radius, q, False)
    for label in corpus:
        series_op(label, 0.9, 2, True)
    series_op("line", 0.95, 3, False)

    for j, label in enumerate(corpus):
        tree = corpus[label]
        branching = tree.branching()
        for space in ("dirichlet", "bergman"):
            layers = []
            for n in range(200):
                blk = {}
                for k, (v, count) in enumerate(branching):
                    if (n + k) % 3 == 0:
                        blk[v] = [rng.choice((-2, -1, 1, 2)) for _ in range(count - 1)]
                layers.append([rng.choice((-3, -2, -1, 1, 2, 3)), blk])
            q = 2 + (j % 2) if space == "dirichlet" else 3 - (j % 2)
            b.add(Op(
                name=f"norm/{label}/{space}/q{q}",
                call={"fn": "norm", "tree": files[label], "q": q, "space": space, "layers": layers},
                expect={"block_depths": {v: tree.depth[v] for v, _c in branching}},
                sizes={"explicit_vertices": len(tree.order), "layers": len(layers),
                       "kernel_dim": tree.cokernel_dim(), "dense_n": 0},
            ))
    for label, q in (("line", 2), ("double01", 3), ("deep13", 4)):
        tree = corpus[label]
        b.add(Op(
            name=f"pick/{label}/q{q}",
            call={"fn": "pick", "tree": files[label], "q": q, "bound": 600},
            sizes={"explicit_vertices": len(tree.order), "kernel_dim": tree.cokernel_dim(),
                   "blocks": len(blocks(tree)), "dense_n": 0},
        ))


_BUILDERS = {
    "equiv_verify": _equiv_verify,
    "checks_exact": _checks_exact,
    "kernel_series": _kernel_series,
}


def generate(name: str, seed: int) -> Workload:
    """Build the files and the op list of one pass of workload ``name``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    builder = _Builder(name, seed)
    _BUILDERS[name](builder)
    order = list(builder.ops)
    builder.rng.shuffle(order)
    return Workload(name=name, trees=builder.trees, ops=order)
