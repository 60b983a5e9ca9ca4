"""Shared tree corpus: the five acceptance trees plus named witness pairs,
a bounded hypothesis strategy for random prefix-plus-rays trees, a tree
dealt the depth profile of another, the recursive canonical form that the
isomorphism guards compare, a name-walking truncation reference, the
dict-walking tree builder and per-generation array truncation that the
array tree replaced, kept as differential references, the
sibling-chain sums walked by vertex name, per-vertex references for the
shift's vertex-keyed methods, its squared weights, its defect operator and
its self-commutator, the push of S by its weights, one generation at a time,
and the per-generation push reference for the float moment oracle built on
it, the diagonal the kernel matrix oracle must reproduce, the
pushed-column reference for the kernel suite's closed form, the walked
kernel series order, Fraction references for the exact difference
checks, and an array view that counts the elements its indexing reads."""

import collections
import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from treeshift import DIRICHLET, build_tree, tree_to_json
from treeshift.errors import (
    CircuitDetected,
    Disconnected,
    IndexOutOfRange,
    InvalidVertexId,
    LeafWithoutRay,
    MultipleParents,
    MultipleRoots,
    RayLeafHasChildren,
    TreeFormatError,
    TruncationLoss,
    UnknownVertex,
    WrongQ,
)
from treeshift.numerics import HausdorffReport, pochhammer_ratios
from treeshift.shifts import DUAL, KernelBasis, KernelBlock, kernel_births, kernel_columns, moment_bases
from treeshift.spaces import BERGMAN_SPACE, SERIES_TAIL_TOL, PickReport, _births_in_reach, dirichlet_coefficient

class Reads(np.ndarray):
    """An array counting, in ``Reads.count``, the elements its indexing returns."""

    count = 0

    def __getitem__(self, index):
        out = super().__getitem__(index)
        Reads.count += np.size(out)
        return out


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
# DEEP13 with a third child at d: the depth profiles {1: 1, 3: 1} and
# {1: 1, 3: 2} first differ at generation 3
DEEP13_WIDER = build_tree(
    "r",
    {"r": ["a"], "a": ["b", "c"], "b": ["d"], "d": ["e", "f", "g"]},
    ["c", "e", "f", "g"],
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


def fan(size):
    """Root with ``size`` children, each carrying a ray, as JSON."""
    leaves = [f"c{i}" for i in range(size)]
    return {"root": "r", "children": {"r": leaves}, "ray_leaves": leaves}


def path(size):
    """A chain of ``size`` explicit edges with a ray on its last vertex, as JSON."""
    children = {f"p{i}": [f"p{i + 1}"] for i in range(size)}
    return {"root": "p0", "children": children, "ray_leaves": [f"p{size}"]}


def relabel_and_shuffle(tree, seed):
    """The same tree with fresh vertex names and shuffled child orders."""
    rng = random.Random(seed)
    names = {v: f"v{i}" for i, v in enumerate(rng.sample(tree.vertices, len(tree.vertices)))}
    children = {}
    for v, kids in tree_to_json(tree)["children"].items():
        rng.shuffle(kids)
        children[names[v]] = [names[u] for u in kids]
    return build_tree(names[tree.root], children, [names[v] for v in tree.ray_leaves])


def recursive_canonical_form(tree, horizon):
    """Label-independent form of the truncation at ``horizon``, equal for two trees
    exactly when those truncations are isomorphic: each vertex's form is "(" + its
    children's forms sorted and joined + ")".  Recursive, so limited by the recursion depth."""

    def canon(v, remaining):
        if remaining == 0:
            return "()"
        return "(" + "".join(sorted(canon(u, remaining - 1) for u in tree.children_of(v))) + ")"

    return canon(tree.root, horizon)


def same_profile_tree(tree, seed):
    """A tree with the depth profile of ``tree``, often not isomorphic to it: each
    generation's branching defect is dealt one unit at a time to seeded vertices
    of the generation, whose width the profile fixes."""
    rng = random.Random(seed)
    profile = tree.depth_profile(tree.branching_index()).entries
    names = itertools.count(1)
    children, generation = {}, ["v0"]
    for n in range(tree.branching_index()):
        extra = collections.Counter(rng.choice(generation) for _ in range(profile.get(n, 0)))
        for v in generation:
            children[v] = [f"v{next(names)}" for _ in range(extra[v] + 1)]
        generation = [u for v in generation for u in children[v]]
    return build_tree("v0", children, generation)


def comb(depth):
    """Spine of ``depth`` + 1 vertices; each spine vertex above the last has two
    children, the next spine vertex and a ray leaf, so chain products reach 2**depth."""
    children = {f"s{i}": [f"s{i + 1}", f"t{i + 1}"] for i in range(depth)}
    leaves = [f"t{i}" for i in range(1, depth + 1)] + [f"s{depth}"]
    return build_tree("s0", children, leaves)


def reference_truncate(tree, horizon):
    """(generations, parent_index) of the truncation at ``horizon``, walking the
    tree by vertex name: each generation is its parents' ``children_of``."""
    generations = [(tree.root,)]
    parent_index = [0]
    start = 0
    for n in range(horizon):
        nxt = []
        for i, v in enumerate(generations[n], start):
            kids = tree.children_of(v)
            parent_index.extend([i] * len(kids))
            nxt.extend(kids)
        start += len(generations[n])
        generations.append(tuple(nxt))
    return tuple(generations), parent_index


@dataclass(frozen=True)
class ReferenceTree:
    """What the dict-walking builder returns: the breadth-first names and string-keyed maps."""

    root: str
    vertices: tuple
    children: dict  # explicit children only
    ray_leaves: frozenset
    parents: dict  # explicit non-root vertex -> parent
    depths: dict  # explicit vertex -> depth


def reference_build_tree(root, children, ray_leaves):
    """The builder the array tree replaced: one check per id occurrence, a parent dict
    walked per vertex and a breadth-first queue.  ``build_tree`` must raise what it
    raises, with the same message, and build the same vertices, parents and depths."""

    def check(v):
        if not isinstance(v, str) or not v or "~" in v:
            raise InvalidVertexId(f"bad vertex id {v!r}")
        return v

    root = check(root)
    child_map = {check(v): tuple(check(u) for u in kids) for v, kids in children.items()}
    listed = [check(v) for v in ray_leaves]
    if duplicates := sorted(v for v, count in collections.Counter(listed).items() if count > 1):
        raise TreeFormatError(f"duplicate ray leaves: {duplicates}")
    rays = frozenset(listed)
    universe = {root} | set(child_map)
    for kids in child_map.values():
        universe.update(kids)
    parent = {}
    for v, kids in child_map.items():
        for u in kids:
            if parent.get(u) == v:
                duplicates = sorted(w for w, count in collections.Counter(kids).items() if count > 1)
                raise TreeFormatError(f"duplicate children of {v!r}: {duplicates}")
            if u in parent:
                raise MultipleParents(f"{u!r} has parents {parent[u]!r} and {v!r}")
            parent[u] = v

    def check_parent_chain(v):
        seen = set()
        current = v
        while current is not None and current not in seen:
            seen.add(current)
            current = parent.get(current)
        if current is not None:
            raise CircuitDetected(f"circuit through {current!r}")

    if root in parent:
        check_parent_chain(root)
        raise MultipleRoots(f"declared root {root!r} has a parent")
    for v, kids in child_map.items():
        if v != root and v not in parent and kids:
            raise MultipleRoots(f"{v!r} has children but no parent")
    order, depth, queue = [root], {root: 0}, collections.deque([root])
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
    return ReferenceTree(root, tuple(order), full_children, rays, parent, depth)


def reference_truncation_arrays(ref, horizon):
    """(parent_index, offsets, explicit) of the truncation at ``horizon`` of a
    ``ReferenceTree``, built as the array tree replaced: one ``np.repeat`` per
    generation of the explicit prefix, breadth-first ids being consecutive per generation."""
    kids = np.array([len(ref.children[v]) for v in ref.vertices])
    deepest = max(ref.depths.values())
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
    below, width = max(0, horizon - deepest), len(explicit[-1])
    sizes = [len(e) for e in explicit] + [width] * below
    parents.append(np.arange(start, start + width * below))
    return np.concatenate(parents), np.concatenate([[0], np.cumsum(sizes)]), np.concatenate(explicit)


def reference_preorder(ref):
    """Depth-first preorder of a ``ReferenceTree``, children in order, by an explicit stack."""
    order, stack = [], [ref.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(ref.children[v]))
    return order


def sibling_chain_identity_sums(tree, v, kmax):
    """Reference: ``sibling_chain_identity_sum(tree, v, k)`` for k = 1..kmax, from
    one push of kmax levels below ``v`` by vertex name."""
    if kmax < 1:
        raise ValueError("k must be at least 1")
    # a vertex's share is 1/p, p the product of the sibling counts along its
    # chain; an only child keeps its parent's p.  Each level's sum is one
    # Fraction over the lcm of its p's
    layer = {v: 1}
    sums = []
    for _ in range(kmax):
        below = {}
        for w, p in layer.items():
            kids = tree.children_of(w)
            if len(kids) > 1:
                p *= len(kids)
            for u in kids:
                below[u] = p
        layer = below
        denominator = math.lcm(*set(layer.values()))
        sums.append(Fraction(sum(denominator // p for p in layer.values()), denominator))
    return sums


def named_horizon(error):
    """The horizon a ``TruncationLoss`` message says would succeed."""
    return int(re.search(r"needs horizon (\d+)", str(error)).group(1))


def to_array(shift, f):
    """Real parts of a sparse vector as a coordinate array in truncation order."""
    out = np.zeros(len(shift.weights))
    for v, x in f.items():
        out[shift.trunc.position(v)] = complex(x).real
    return out


# -- per-vertex references for the vertex-keyed shift methods ----------------------
# They walk the tree vertex by vertex, independently of the parent-map arrays.


def vec_norm(f):
    return math.sqrt(sum(abs(x) ** 2 for x in f.values()))


def check_support(shift, f, margin=0):
    """Every vertex of ``f``, in order, lies in the truncation at depth at
    most horizon - margin."""
    for v in f:
        if shift.trunc.position(v) is None:
            raise UnknownVertex(v)
        if shift.tree.depth_of(v) > shift.horizon - margin:
            raise TruncationLoss(v)


def dict_apply(shift, f):
    """(S f)(u) = weight(u) f(parent(u)); support moves one level down."""
    check_support(shift, f, margin=1)
    out = {}
    for v, x in f.items():
        for u in shift.tree.children_of(v):
            out[u] = out.get(u, 0) + shift.weights.item(shift.trunc.position(u)) * x
    return out


def dict_apply_adjoint(shift, f):
    """(S* f)(v) = sum over children u of weight(u) f(u); kills the root."""
    check_support(shift, f)
    out = {}
    for u, x in f.items():
        v = shift.tree.parent_of(u)
        if v is not None:
            out[v] = out.get(v, 0) + shift.weights.item(shift.trunc.position(u)) * x
    return out


def dict_apply_power(shift, f, k):
    check_support(shift, f, margin=k)
    out = dict(f)
    for _ in range(k):
        out = dict_apply(shift, out)
    return out


def dict_apply_adjoint_power(shift, f, k):
    check_support(shift, f)
    out = dict(f)
    for _ in range(k):
        out = dict_apply_adjoint(shift, out)
    return out


def squared_weight_formula(tree, q, kind, v):
    """(n + q - 1)/(n s) into a vertex at depth n >= 1 with s siblings for
    the Dirichlet shift, n/((n + q - 1) s) for its dual; 0 at the root."""
    n = tree.depth_of(v)
    if n == 0:
        return Fraction(0)
    s = tree.sibling_count(v)
    if kind == DIRICHLET:
        return Fraction(n + q - 1) / (n * s)
    return n / (Fraction(n + q - 1) * s)


def per_vertex_commutator_diagonal(shift, v):
    """<[S*, S] e_v, e_v> = ||S e_v||^2 - ||S* e_v||^2: the squared weights into the
    children of ``v`` less the one into ``v``, every one from the formula."""

    def weight(u):
        return squared_weight_formula(shift.tree, shift.q, shift.kind, u)

    return sum(map(weight, shift.tree.children_of(v)), Fraction(0)) - weight(v)


def per_vertex_partial_trace(shift, depth_cap):
    """Sum of ``per_vertex_commutator_diagonal`` over the vertices of depth <= depth_cap."""
    generations = shift.trunc.generations[: depth_cap + 1]
    return sum((per_vertex_commutator_diagonal(shift, v) for gen in generations for v in gen), Fraction(0))


def dict_defect_operator_apply(shift, f):
    """sum_k (-1)^k C(q,k) S^k S*^k f, one vertex at a time."""
    if not isinstance(shift.q, int):
        raise WrongQ(shift.q)
    check_support(shift, f, margin=shift.q)
    result = {}
    for k in range(shift.q + 1):
        coefficient = (-1) ** k * math.comb(shift.q, k)
        for v, x in dict_apply_power(shift, dict_apply_adjoint_power(shift, f, k), k).items():
            result[v] = result.get(v, 0) + coefficient * x
    return result


def helmert_vectors(children):
    """Orthonormal basis of the zero-sum functions on ``children``: the k-th
    vector is (1, ..., 1, -k, 0, ..., 0)/sqrt(k(k+1)) with k leading ones."""
    vectors = []
    for k in range(1, len(children)):
        scale = 1.0 / math.sqrt(k * (k + 1))
        vec = {children[i]: scale for i in range(k)}
        vec[children[k]] = -k * scale
        vectors.append(vec)
    return tuple(vectors)


def reference_kernel_basis(shift):
    """ker S* from the tree: the root line, then one Helmert block per
    branching vertex whose children lie inside the truncation, breadth-first."""
    tree = shift.tree
    blocks = [KernelBlock(vertex=None, l=0, vectors=({tree.root: 1.0},))]
    for v, _count in tree.branching_vertices():
        l = tree.depth_of(v) + 1
        if l <= shift.horizon:
            blocks.append(KernelBlock(vertex=v, l=l, vectors=helmert_vectors(tree.children_of(v))))
    return KernelBasis(blocks=tuple(blocks))


def walked_series_order(q, space, radius):
    """Reference for ``kernel_series_order``: the first n = 0, 1, 2, ... whose
    remainder bound r^(n+1)/(1-r), times (n+q)^(q-1) on the Bergman side, is
    below ``SERIES_TAIL_TOL``, each bound evaluated as the function does."""
    if radius == 0.0:
        return 0
    n = 0
    while True:
        bound = radius ** (n + 1) / (1.0 - radius)
        if space == BERGMAN_SPACE:
            bound *= float(n + q) ** (q - 1)
        if bound < SERIES_TAIL_TOL:
            return n
        n += 1


def _gaussian_power(x, e, bits):
    """x^e for a complex float x, as (real, imaginary) ``Fraction`` parts: exact when
    ``bits`` is None, else each product of the repeated squaring floored to ``bits``
    bits, as the exact value holds about 53 e bits per part."""
    re, im = Fraction(x.real), Fraction(x.imag)
    den = max(re.denominator, im.denominator)  # both powers of two
    base = (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den.bit_length() - 1)
    acc = (1, 0, 0)  # (a, b, k): the value (a + ib) / 2^k

    def times(p, r):
        a, b, k = p[0] * r[0] - p[1] * r[1], p[0] * r[1] + p[1] * r[0], p[2] + r[2]
        cut = 0 if bits is None else max(max(abs(a), abs(b)).bit_length() - bits, 0)
        return a >> cut, b >> cut, k - cut

    while e:
        if e & 1:
            acc = times(acc, base)
        e >>= 1
        base = times(base, base) if e else base
    return Fraction(acc[0], 1 << acc[2]), Fraction(acc[1], 1 << acc[2])


def exact_bergman_block(q, l, x, order, bits=256):
    """Reference for the Bergman block's partial sum through ``order`` at integer q, at
    the exact value of the complex float x, as (real, imaginary) ``Fraction`` parts:

        sum_(j<q) (C(l+m-1-j, m-j) - x^(N+1) C(l+N+m-j, m-j)) / (1-x)^(j+1) / C(l+m, m),

    m = q - 1 and C(-1, 0) = 1, in Gaussian rationals; x^(N+1) as ``_gaussian_power``
    gives it, the rest exact."""
    m = q - 1
    re, im = Fraction(x.real), Fraction(x.imag)
    norm = (1 - re) ** 2 + im**2
    y = ((1 - re) / norm, im / norm)  # 1 / (1 - x)
    power = _gaussian_power(complex(x), order + 1, bits)
    total, y_power = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    for j in range(m + 1):
        y_power = (y_power[0] * y[0] - y_power[1] * y[1], y_power[0] * y[1] + y_power[1] * y[0])
        head = math.comb(l + m - 1 - j, m - j) if l + m > j else 1
        tail = math.comb(l + order + m - j, m - j)
        c = (head - power[0] * tail, -power[1] * tail)
        total = (total[0] + c[0] * y_power[0] - c[1] * y_power[1], total[1] + c[0] * y_power[1] + c[1] * y_power[0])
    scale = math.comb(l + m, m)
    return total[0] / scale, total[1] / scale


def exact_dirichlet_block(q, l, x, order, bits=256):
    """Reference for the Dirichlet block's partial sum through ``order`` at integer q, at
    the exact value of the complex float x, as (real, imaginary) ``Fraction`` parts:

        sum_(n<=N) x^n (l+1)_(q-1) / (l+n+1)_(q-1),

    in fixed point with ``bits`` fractional bits: x^n is x^(n-1) times the exact x and
    each such product and each term is floored, so the sum is within (N+1)(N+2) 2^-bits
    of the exact one."""
    re, im = Fraction(x.real), Fraction(x.imag)
    den = max(re.denominator, im.denominator)  # both powers of two
    a, b, shift = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den.bit_length() - 1
    fixed = math.prod(range(l + 1, l + q))
    power, total = (1 << bits, 0), (0, 0)
    for n in range(order + 1):
        moving = math.prod(range(l + n + 1, l + n + q))
        total = (total[0] + power[0] * fixed // moving, total[1] + power[1] * fixed // moving)
        power = ((power[0] * a - power[1] * b) >> shift, (power[0] * b + power[1] * a) >> shift)
    return Fraction(total[0], 1 << bits), Fraction(total[1], 1 << bits)


def weighted_push(shift, block, generation):
    """S on columns supported on generation - 1, given as that generation's rows:
    the rows of ``generation``, each the weight into it times its parent's row.
    ``ShiftOperator.push`` applies the isometry instead, so this reads the
    weights, perturbed ones too."""
    start, end = shift.trunc.span(generation)
    parents = shift.trunc.parent_index[start:end] - shift.trunc.span(generation - 1)[0]
    return shift.weights[start:end, None] * block[parents]


def pushed_moment_columns(shift, v, kmax):
    """Reference for ``ShiftOperator._pushes``: S^k e_v for k = 0..kmax as whole
    generations, e_v pushed one generation at a time by ``weighted_push``."""
    depth = shift.tree.depth_of(v)
    e_v = to_array(shift, {v: 1.0})
    column = e_v[slice(*shift.trunc.span(depth)), None]
    columns = [column[:, 0]]
    for k in range(1, kmax + 1):
        column = weighted_push(shift, column, depth + k)
        columns.append(column[:, 0])
    return columns


def pushed_moment_sequence(shift, v, kmax):
    """Reference for ``moment_sequence_via_matrix``: the squares of each pushed
    generation summed in truncation order; the root of the sum, squared."""
    return [math.sqrt(sum(abs(x) ** 2 for x in c.tolist())) ** 2 for c in pushed_moment_columns(shift, v, kmax)]


def expected_oracle_diagonal(shift, n):
    """The diagonal ``kernel_matrix_oracle`` must reproduce at j = k = n: the
    columns born on generation g carry the Dirichlet coefficient of index g."""
    born = kernel_births(shift.trunc)
    return np.diag(np.repeat([float(dirichlet_coefficient(shift.q, g, n)) for g in range(len(born))], born))


def dense_compression_maxima(shift, nmax):
    """Reference for ``spaces.kernel_compression_maxima``: each cokernel column
    pushed once per power, and one Gram matrix of the columns landing on each
    generation.  Its sub-block of the columns born on g must be c I, with c the
    Dirichlet coefficient of index g at power L - g, and the rest zero."""
    born = _births_in_reach(shift, nmax)
    trunc = shift.trunc
    last = max(g for g, count in enumerate(born) if count) + nmax
    coefficients = [list(map(float, pochhammer_ratios(*moment_bases(shift.q, DUAL, g), nmax))) for g in range(last + 1)]
    off_worst = diag_worst = 0.0
    block = kernel_columns(trunc, 0)
    for landing in range(last + 1):
        first = max(0, landing - nmax)  # births still alive, oldest first
        if landing:
            # columns born nmax generations back have had all their powers
            retired = born[first - 1] if first else 0
            block = weighted_push(shift, block[:, retired:], landing)
            if born[landing]:
                block = np.hstack([block, kernel_columns(trunc, landing)])
        sizes = born[first : landing + 1]
        gram = block.T @ block
        expected = [coefficients[g][landing - g] for g in range(first, landing + 1)]
        gram[np.diag_indices_from(gram)] -= np.repeat(expected, sizes)
        np.abs(gram, out=gram)
        a = 0
        for size in sizes:
            b = a + size
            diag_worst = max(diag_worst, float(np.max(gram[a:b, a:b], initial=0.0)))
            off_worst = max(
                off_worst, float(np.max(gram[a:b, :a], initial=0.0)), float(np.max(gram[a:b, b:], initial=0.0))
            )
            a = b
    return off_worst, diag_worst


# -- Fraction references for the integer-numerator checks in numerics ------------
# One Fraction operation per step, as the checks were first written.


def reference_alternating_binomial_sum(seq, q, at=0):
    """sum_k (-1)^k C(q,k) seq[at+k], term by term in Fractions."""
    if q < 0 or at < 0:
        raise ValueError("q and at must be nonnegative")
    if at + q >= len(seq):
        raise IndexOutOfRange(f"window [{at}, {at + q}] exceeds length {len(seq)}")
    return sum((-1) ** k * math.comb(q, k) * Fraction(seq[at + k]) for k in range(q + 1))


def reference_hausdorff_check(seq, order):
    """The Fraction difference table, every (m, k) entry sign-tested."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order >= len(seq):
        raise IndexOutOfRange(f"order {order} needs at least {order + 1} values")
    current = [Fraction(x) for x in seq]
    for m in range(order + 1):
        sign = -1 if m % 2 else 1
        for k, value in enumerate(current):
            if sign * value < 0:
                return HausdorffReport(passed=False, violation=(m, k, value))
        current = [current[k + 1] - current[k] for k in range(len(current) - 1)]
    return HausdorffReport(passed=True)


def reference_log_convexity_check(k, l, bound):
    """``log_convexity_check`` n by n: (l+n)(k+n-1) <= (l+n-1)(k+n) for 1 <= n <= bound."""
    for n in range(1, bound + 1):
        if (l + n) * (k + n - 1) > (l + n - 1) * (k + n):
            return PickReport(passed=False, checked_through=bound, witness=n)
    return PickReport(passed=True, checked_through=bound)
