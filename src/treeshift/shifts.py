"""Weighted shifts on rooted directed trees, truncated at a finite depth.

Two weight systems are built from the same tree: the Dirichlet shift,
whose squared weight into a vertex v at depth n with sibling count s is
(n + q - 1)/(n s), and its Cauchy dual, with squared weight
n/((n + q - 1) s).  For each the squared weights are exact rationals;
floating point appears only where the operator acts on coordinates.

The operator acts on finitely supported vectors over the vertices of
depth at most ``horizon``, in two forms: sparse vertex-keyed dicts
(``apply``), for vectors with small support, and coordinate arrays in
truncation order (``act``), where the shift reweights the parent map in
O(n).  Applying the sparse shift to a vector touching the horizon would
push mass outside the truncation, so that raises ``TruncationLoss``
instead of silently projecting: every exactness claim carries its
validity region.  The array action drops that mass, so its callers keep
their supports away from the horizon themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidQ, TruncationLoss, UnknownVertex, WrongQ
from .numerics import alternating_binomial_sum, pochhammer_ratios
from .trees import Tree, Truncation

DIRICHLET = "dirichlet"
DUAL = "dual"

# sparse coordinate vector: vertex id -> coefficient
CoordinateVector = dict[str, complex]


def vec_scale(c: complex, f: Mapping[str, complex]) -> CoordinateVector:
    return {v: c * x for v, x in f.items()}


def vec_add(f: Mapping[str, complex], g: Mapping[str, complex]) -> CoordinateVector:
    out = dict(f)
    for v, x in g.items():
        out[v] = out.get(v, 0) + x
    return out


def vec_inner(f: Mapping[str, complex], g: Mapping[str, complex]) -> complex:
    """Standard l2 pairing, conjugate-linear in the second argument."""
    small, large = (f, g) if len(f) <= len(g) else (g, f)
    total = 0j
    for v in small:
        if v in large:
            total += f[v] * complex(g[v]).conjugate()
    return total


def vec_norm(f: Mapping[str, complex]) -> float:
    return math.sqrt(sum(abs(x) ** 2 for x in f.values()))


@dataclass(frozen=True)
class KernelBlock:
    """One orthonormal block of the cokernel ker S*.

    ``vertex`` is None for the root line (spanned by the root indicator)
    and a branching vertex otherwise, in which case the vectors form a
    Helmert basis of the zero-sum functions on its children.
    """

    vertex: str | None
    branch_depth: int | None
    vectors: tuple[CoordinateVector, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    @property
    def support_depth(self) -> int:
        """Depth of the vertices carrying the block's vectors."""
        return 0 if self.branch_depth is None else self.branch_depth + 1


@dataclass(frozen=True)
class KernelBasis:
    blocks: tuple[KernelBlock, ...]

    @property
    def dimension(self) -> int:
        return sum(b.dimension for b in self.blocks)

    def all_vectors(self) -> tuple[tuple[KernelBlock, CoordinateVector], ...]:
        return tuple((b, v) for b in self.blocks for v in b.vectors)


def _helmert_vectors(children: tuple[str, ...]) -> tuple[CoordinateVector, ...]:
    """Orthonormal basis of the zero-sum functions on ``children``.

    The k-th vector is (1, ..., 1, -k, 0, ..., 0)/sqrt(k(k+1)) with k
    leading ones; deterministic in the given child order.
    """
    m = len(children)
    vectors = []
    for k in range(1, m):
        scale = 1.0 / math.sqrt(k * (k + 1))
        vec: CoordinateVector = {children[i]: scale for i in range(k)}
        vec[children[k]] = -k * scale
        vectors.append(vec)
    return tuple(vectors)


def _helmert_matrix(m: int) -> np.ndarray:
    """The m - 1 vectors of ``_helmert_vectors`` on m children, as columns."""
    k = np.arange(1, m)
    scale = 1.0 / np.sqrt(k * (k + 1))
    out = np.triu(np.broadcast_to(scale, (m, m - 1)))
    out[k, k - 1] = -k * scale
    return out


def helmert_columns(
    trunc: Truncation, groups: Sequence[Sequence[str]], start: int, size: int
) -> np.ndarray:
    """The Helmert vectors of each sibling group, side by side as columns.

    Rows are the ``size`` truncation positions from ``start``.  A group is
    the children of one vertex, which sit at consecutive positions in
    child order; groups of equal size are written in one step.
    """
    counts = np.array([len(kids) for kids in groups], dtype=np.int64)
    rows = np.array([trunc.index[kids[0]] for kids in groups], dtype=np.int64) - start
    cols = np.cumsum(counts - 1) - (counts - 1)
    out = np.zeros((size, int(np.sum(counts - 1))))
    for m in np.unique(counts).tolist():
        picked = counts == m
        r = rows[picked][:, None, None] + np.arange(m)[:, None]
        c = cols[picked][:, None, None] + np.arange(m - 1)
        out[r, c] = _helmert_matrix(m)
    return out


@dataclass(frozen=True)
class ShiftOperator:
    """A Dirichlet or Cauchy-dual shift realized on a depth truncation."""

    tree: Tree
    q: int | Fraction
    kind: str
    horizon: int
    trunc: Truncation
    squared_weights: Mapping[str, Fraction]
    weights: np.ndarray  # float weight into each vertex, truncation order; 0 at the root

    # -- structure -------------------------------------------------------------

    def _depth(self, v: str) -> int:
        if v not in self.trunc.index:
            raise UnknownVertex(f"{v!r} not materialized at horizon {self.horizon}")
        return self.tree.depth_of(v)

    def row_sum(self, depth: int) -> Fraction:
        """Exact sum of squared weights over the children of a depth-n vertex."""
        n = depth
        if self.kind == DIRICHLET:
            return Fraction(n + self.q) / (n + 1)
        return Fraction(n + 1) / (n + self.q)

    def matrix(self) -> np.ndarray:
        """Dense matrix of the truncated operator in vertex coordinates.

        Reference for the array action ``act``; columns of horizon-depth
        vertices are zero.
        """
        n = len(self.weights)
        mat = np.zeros((n, n))
        mat[np.arange(n), self.trunc.parent_index] = self.weights
        return mat

    # -- action ----------------------------------------------------------------

    def _column_weights(self, a: np.ndarray) -> np.ndarray:
        return self.weights if a.ndim == 1 else self.weights[:, None]

    def act(self, a: np.ndarray) -> np.ndarray:
        """(S a)(u) = weight(u) a(parent(u)) on a coordinate array or a block
        of columns; mass at the horizon leaves the truncation and drops."""
        return self._column_weights(a) * a[self.trunc.parent_index]

    def act_adjoint(self, a: np.ndarray) -> np.ndarray:
        """(S* a)(v) = sum over children u of weight(u) a(u), as ``act``."""
        weighted = self._column_weights(a) * a
        out = np.zeros_like(weighted)
        np.add.at(out, self.trunc.parent_index, weighted)
        return out

    def _check_support(self, f: Mapping[str, complex], margin: int = 0) -> None:
        limit = self.horizon - margin
        index = self.trunc.index
        # the vertices of depth <= limit are exactly the positions below ``end``
        end = index[self.trunc.generations[limit][-1]] + 1 if limit >= 0 else 0
        for v in f:
            if index.get(v, end) >= end:
                raise TruncationLoss(
                    f"support at depth {self._depth(v)} exceeds {limit} "
                    f"(horizon {self.horizon}, margin {margin})"
                )

    def apply(self, f: Mapping[str, complex]) -> CoordinateVector:
        """(S f)(u) = weight(u) f(parent(u)); support moves one level down."""
        self._check_support(f, margin=1)
        index = self.trunc.index
        out: CoordinateVector = {}
        for v, x in f.items():
            for u in self.tree.children_of(v):
                out[u] = out.get(u, 0) + self.weights.item(index[u]) * x
        return out

    def apply_adjoint(self, f: Mapping[str, complex]) -> CoordinateVector:
        """(S* f)(v) = sum over children u of weight(u) f(u); kills the root."""
        self._check_support(f)
        index = self.trunc.index
        out: CoordinateVector = {}
        for u, x in f.items():
            v = self.tree.parent_of(u)
            if v is not None:
                out[v] = out.get(v, 0) + self.weights.item(index[u]) * x
        return out

    def apply_power(self, f: Mapping[str, complex], k: int) -> CoordinateVector:
        out = dict(f)
        for _ in range(k):
            out = self.apply(out)
        return out

    def apply_adjoint_power(self, f: Mapping[str, complex], k: int) -> CoordinateVector:
        out = dict(f)
        for _ in range(k):
            out = self.apply_adjoint(out)
        return out

    # -- moments and defects -----------------------------------------------------

    def moment(self, v: str, k: int) -> Fraction:
        """Exact squared norm of S^k applied to the basis vector at ``v``.

        Depends only on the depth n of v: (n+q)_k/(n+1)_k for the Dirichlet
        shift and its reciprocal for the Cauchy dual.
        """
        return self.moment_sequence(v, k)[k]

    def moment_sequence(self, v: str, kmax: int) -> list[Fraction]:
        """Moments for k = 0..kmax, built by the one-step recurrence."""
        n = self.tree.depth_of(v)
        a, b = (n + self.q, n + 1) if self.kind == DIRICHLET else (n + 1, n + self.q)
        return list(pochhammer_ratios(a, b, kmax))

    def moment_via_matrix(self, v: str, k: int) -> float:
        """Squared norm of S^k e_v by repeated application (float oracle)."""
        if self._depth(v) + k > self.horizon:
            raise TruncationLoss(f"power {k} from depth {self._depth(v)} leaves the truncation")
        out = self.apply_power({v: 1.0}, k)
        return vec_norm(out) ** 2

    def q_isometry_defect(self, v: str, order: int) -> Fraction:
        """Signed binomial sum of the moment sequence at ``v``.

        Zero at order q certifies the q-isometry identity on e_v; the
        (q-1)-defect stays nonzero for q >= 2.
        """
        return alternating_binomial_sum(self.moment_sequence(v, order), order)

    # -- cokernel ----------------------------------------------------------------

    def kernel_basis(self) -> KernelBasis:
        """Orthonormal basis of ker S*: root line plus one Helmert block per
        branching vertex whose children lie inside the truncation."""
        blocks = [KernelBlock(vertex=None, branch_depth=None, vectors=({self.tree.root: 1.0},))]
        for v, _count in self.tree.branching_vertices():
            depth = self.tree.depth_of(v)
            if depth < self.horizon:
                blocks.append(
                    KernelBlock(
                        vertex=v,
                        branch_depth=depth,
                        vectors=_helmert_vectors(self.tree.children[v]),
                    )
                )
        return KernelBasis(blocks=tuple(blocks))

    # -- defect operator and self-commutator --------------------------------------

    def defect_operator_apply(self, f: Mapping[str, complex]) -> CoordinateVector:
        """Apply sum_k (-1)^k C(q,k) S^k S*^k to ``f`` (integer q only).

        On the Cauchy dual this is the operator whose failure to be a
        projection separates branching trees from the chain.
        """
        if not isinstance(self.q, int):
            raise WrongQ("defect operator requires integer q")
        self._check_support(f, margin=self.q)
        result: CoordinateVector = {}
        for k in range(self.q + 1):
            term = self.apply_power(self.apply_adjoint_power(f, k), k)
            result = vec_add(result, vec_scale((-1) ** k * math.comb(self.q, k), term))
        return result

    def self_commutator_diagonal(self, v: str) -> Fraction:
        """Exact diagonal entry <[S*, S] e_v, e_v>."""
        depth = self._depth(v)
        entry = self.row_sum(depth)
        if v != self.tree.root:
            entry -= self.squared_weights[v]
        return entry

    def self_commutator_partial_trace(self, depth_cap: int) -> float:
        """Partial trace of [S*, S] over the vertices of depth <= depth_cap.

        Diagnostic partial sum only; trace-class membership itself is a
        qualitative statement.
        """
        if depth_cap >= self.horizon:
            raise TruncationLoss("depth_cap must stay below the horizon")
        total = Fraction(0)
        for gen in self.trunc.generations[: depth_cap + 1]:
            for v in gen:
                total += self.self_commutator_diagonal(v)
        return float(total)


def require_q(q: int | Fraction) -> None:
    """Reject a shift parameter outside its admissible range q >= 1."""
    if q < 1:
        raise InvalidQ(f"q must be at least 1, got {q}")


def make_shift(
    tree: Tree,
    q: int | Fraction,
    kind: str,
    horizon: int,
) -> ShiftOperator:
    """Assemble a Dirichlet or Cauchy-dual shift with exact squared weights.

    The truncation depth is always explicit; exactness guarantees are
    stated relative to it.
    """
    if kind not in (DIRICHLET, DUAL):
        raise ValueError(f"kind must be {DIRICHLET!r} or {DUAL!r}")
    require_q(q)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    trunc = tree.truncate(horizon)
    # the squared weight depends only on (depth n, sibling count s): one
    # exact value per distinct pair, keyed n * stride + s
    parent = trunc.parent_index
    siblings = np.bincount(parent[1:])[parent]
    depths = np.repeat(np.arange(horizon + 1), [len(gen) for gen in trunc.generations])
    stride = int(siblings.max()) + 1
    keys, inverse = np.unique(depths[1:] * stride + siblings[1:], return_inverse=True)
    table = []
    for key in keys.tolist():
        n, s = divmod(key, stride)
        if kind == DIRICHLET:
            table.append(Fraction(n + q - 1) / (n * s))
        else:
            table.append(n / (Fraction(n + q - 1) * s))
    squared = dict(zip(trunc.vertices[1:], np.array(table, dtype=object)[inverse]))
    weights = np.zeros(len(trunc.vertices))
    weights[1:] = np.array([math.sqrt(x) for x in table])[inverse]
    return ShiftOperator(
        tree=tree,
        q=q,
        kind=kind,
        horizon=horizon,
        trunc=trunc,
        squared_weights=squared,
        weights=weights,
    )
