"""Weighted shifts on rooted directed trees, truncated at a finite depth.

Two weight systems are built from the same tree: the Dirichlet shift,
whose squared weight into a vertex v at depth n with sibling count s is
(n + q - 1)/(n s), and its Cauchy dual, with squared weight
n/((n + q - 1) s), both read off ``moment_bases`` as exact rationals;
floating point appears only where the operator acts on coordinates.

The operator acts on coordinate arrays in truncation order (``act``,
``act_adjoint``, ``push``), where the shift reweights the parent map in
O(n).  The array action drops mass at the horizon, so its callers keep
their supports away from it themselves.  The vertex-keyed methods
(``apply`` and its relatives) are adapters over the same action: they
take a sparse dict, check its support and return the nonzero
coordinates of the image.  The float moment oracle
(``moment_sequence_via_matrix``, read by ``moment_via_matrix``) pushes
e_v one generation at a time instead.  A support that the shift would
push outside the truncation raises ``TruncationLoss`` instead of being
silently projected: every exactness claim carries its validity region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .errors import InvalidQ, TruncationLoss, UnknownVertex, WrongQ
from .numerics import alternating_binomial_sum, pochhammer_ratios
from .trees import Tree, Truncation

DIRICHLET = "dirichlet"
DUAL = "dual"

# sparse coordinate vector: vertex id -> coefficient
CoordinateVector = dict[str, complex]


@dataclass(frozen=True)
class KernelBlock:
    """One orthonormal block of the cokernel ker S*.

    ``vertex`` is None for the root line (spanned by the root indicator)
    and a branching vertex otherwise, in which case the vectors form a
    Helmert basis of the zero-sum functions on its children.  ``l`` is the
    block's birth generation, the depth of the vertices carrying its
    vectors: 0 for the root line, the branching depth + 1 otherwise.
    """

    vertex: str | None
    l: int
    vectors: tuple[CoordinateVector, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class KernelBasis:
    blocks: tuple[KernelBlock, ...]

    @property
    def dimension(self) -> int:
        return sum(b.dimension for b in self.blocks)

    def all_vectors(self) -> tuple[tuple[KernelBlock, CoordinateVector], ...]:
        return tuple((b, v) for b in self.blocks for v in b.vectors)


def _helmert_matrix(m: int) -> np.ndarray:
    """Orthonormal basis of the zero-sum functions on m children, as columns.

    Column k is (1, ..., 1, -k, 0, ..., 0)/sqrt(k(k+1)) with k leading ones,
    k = 1..m-1; deterministic in child order.
    """
    k = np.arange(1, m)
    scale = 1.0 / np.sqrt(k * (k + 1))
    out = np.triu(np.broadcast_to(scale, (m, m - 1)))
    out[k, k - 1] = -k * scale
    return out


def kernel_births(trunc: Truncation) -> list[int]:
    """Number of columns of ker S* born on each generation 0..horizon.

    The root line is born on generation 0.  Every vertex has a child, the
    tree being leafless, so generation g gains |gen_g| - |gen_{g-1}|
    Helmert columns from the vertices of generation g - 1 that branch.
    """
    return [1] + np.diff(trunc.offsets, 2).tolist()


def sibling_runs(parents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first index, length) of each run of two or more equal entries of ``parents``,
    a slice of ``parent_index`` past the root: the sibling groups that branch.
    The children of one vertex sit at consecutive positions, so the runs are sorted."""
    counts = np.bincount(parents - parents[0])
    branching = counts >= 2
    return (np.cumsum(counts) - counts)[branching], counts[branching]


def kernel_columns(trunc: Truncation, generation: int) -> np.ndarray:
    """The columns of ker S* born on ``generation``, as that generation's rows.

    Generation 0 carries the root line.  On a later generation each group of
    m >= 2 siblings (``sibling_runs``) carries the m - 1 columns of
    ``_helmert_matrix`` in child order, groups in truncation order.  Groups
    of equal size are written in one step.
    """
    if generation == 0:
        return np.ones((1, 1))
    start, end = trunc.span(generation)
    rows, counts = sibling_runs(trunc.parent_index[start:end])
    cols = np.cumsum(counts - 1) - (counts - 1)
    out = np.zeros((end - start, int(np.sum(counts - 1))))
    for m in np.unique(counts).tolist():
        picked = counts == m
        r = rows[picked][:, None, None] + np.arange(m)[:, None]
        c = cols[picked][:, None, None] + np.arange(m - 1)
        out[r, c] = _helmert_matrix(m)
    return out


def _iterate(step, a: np.ndarray, k: int) -> np.ndarray:
    for _ in range(k):
        a = step(a)
    return a


@dataclass(frozen=True)
class ShiftOperator:
    """A Dirichlet or Cauchy-dual shift realized on a depth truncation."""

    tree: Tree
    q: int | Fraction
    kind: str
    horizon: int
    trunc: Truncation
    weights: np.ndarray  # float weight into each vertex, truncation order; 0 at the root

    # -- structure -------------------------------------------------------------

    def _depth(self, v: str) -> int:
        if self.trunc.position(v) is None:
            raise UnknownVertex(f"{v!r} not materialized at horizon {self.horizon}")
        return self.tree.depth_of(v)

    def row_sum(self, depth: int) -> Fraction:
        """Exact sum of squared weights over the children of a depth-n vertex."""
        a, b = moment_bases(self.q, self.kind, depth)
        return Fraction(a) / b

    def squared_weight(self, v: str) -> Fraction:
        """Exact squared weight into ``v``; 0 at the root, as ``weights[0]``."""
        depth = self._depth(v)
        return self.row_sum(depth - 1) / self.tree.sibling_count(v) if depth else Fraction(0)

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

    def push(self, block: np.ndarray, generation: int) -> np.ndarray:
        """S on columns supported on generation - 1, given as that generation's
        rows (another row count raises ``ValueError``); returns the rows of ``generation``.
        A push past the horizon raises ``TruncationLoss`` instead of dropping the mass."""
        if generation > self.horizon:
            raise TruncationLoss(f"push onto generation {generation} needs horizon {generation}, have {self.horizon}")
        if generation < 1:
            raise ValueError(f"cannot push onto generation {generation}: generation 0 has no parent generation")
        start, end = self.trunc.span(generation)
        if block.shape[0] != (rows := start - self.trunc.span(generation - 1)[0]):
            raise ValueError(f"push onto generation {generation} needs {rows} rows, got {block.shape[0]}")
        parents = self.trunc.parent_index[start:end] - (start - rows)
        return self.weights[start:end, None] * block[parents]

    # -- vertex-keyed adapters ------------------------------------------------------

    def _to_array(self, f: Mapping[str, complex], margin: int = 0) -> np.ndarray:
        """``f`` as a coordinate array, complex when a value is.  The first vertex of
        ``f`` outside the truncation raises ``UnknownVertex`` if the tree lacks it, else
        ``TruncationLoss``: it is deeper than horizon - margin."""
        limit = self.horizon - margin
        # the vertices of depth <= limit are exactly the positions below ``end``
        end = self.trunc.span(limit)[1] if limit >= 0 else 0
        complex_values = any(isinstance(x, complex) for x in f.values())
        out = np.zeros(len(self.weights), dtype=complex if complex_values else float)
        for v, x in f.items():
            i = self.trunc.position(v)
            if i is None or i >= end:
                depth = self.tree.depth_of(v)  # a vertex not in the tree raises UnknownVertex first
                deepest = max(self.tree.depth_of(u) for u in f if self.tree.contains(u))
                raise TruncationLoss(
                    f"support at depth {depth} exceeds {limit} "
                    f"(horizon {self.horizon}, margin {margin}); needs horizon {deepest + margin}"
                )
            out[i] = x
        return out

    def _to_dict(self, a: np.ndarray) -> CoordinateVector:
        """The nonzero coordinates of ``a``, keyed by vertex in truncation order."""
        return {self.trunc.vertices[i]: a.item(i) for i in np.flatnonzero(a).tolist()}

    def apply(self, f: Mapping[str, complex]) -> CoordinateVector:
        """``act`` on a sparse vector; its support must stay above the horizon."""
        return self._to_dict(self.act(self._to_array(f, margin=1)))

    def apply_adjoint(self, f: Mapping[str, complex]) -> CoordinateVector:
        """``act_adjoint`` on a sparse vector; kills the root."""
        return self._to_dict(self.act_adjoint(self._to_array(f)))

    def apply_power(self, f: Mapping[str, complex], k: int) -> CoordinateVector:
        """S^k on a sparse vector supported at depth at most horizon - k."""
        return self._to_dict(_iterate(self.act, self._to_array(f, margin=k), k))

    def apply_adjoint_power(self, f: Mapping[str, complex], k: int) -> CoordinateVector:
        return self._to_dict(_iterate(self.act_adjoint, self._to_array(f), k))

    # -- moments and defects -----------------------------------------------------

    def moment(self, v: str, k: int) -> Fraction:
        """Exact squared norm of S^k e_v, which depends on the depth of v alone."""
        return self.moment_sequence(v, k)[k]

    def moment_sequence(self, v: str, kmax: int) -> list[Fraction]:
        """Moments for k = 0..kmax, built by the one-step recurrence."""
        return list(depth_moments(self.q, self.kind, self.tree.depth_of(v), kmax))

    def moment_sequence_via_matrix(self, v: str, kmax: int) -> list[float]:
        """Squared norms of S^k e_v for k = 0..kmax, the float oracle for ``moment_sequence``:
        e_v is pushed one generation at a time, and each entry is the square root of the
        squares summed in truncation order, squared.  Raises as ``_to_array`` does for
        the support {v} with margin kmax."""
        e_v = self._to_array({v: 1.0}, margin=kmax)
        depth = self.tree.depth_of(v)
        column = e_v[slice(*self.trunc.span(depth)), None]
        out = []
        for k in range(kmax + 1):
            if k:
                column = self.push(column, depth + k)
            out.append(math.sqrt(sum(abs(x) ** 2 for x in column[:, 0].tolist())) ** 2)
        return out

    def moment_via_matrix(self, v: str, k: int) -> float:
        """Squared norm of S^k e_v, entry k of ``moment_sequence_via_matrix``."""
        return self.moment_sequence_via_matrix(v, k)[k]

    def q_isometry_defect(self, v: str, order: int) -> Fraction:
        """Signed binomial sum of the moment sequence at ``v``.

        Zero at order q certifies the q-isometry identity on e_v; the
        (q-1)-defect stays nonzero for q >= 2.
        """
        return alternating_binomial_sum(self.moment_sequence(v, order), order)

    # -- cokernel ----------------------------------------------------------------

    def kernel_basis(self) -> KernelBasis:
        """Orthonormal basis of ker S*, read off ``kernel_columns``: the root
        line, then one Helmert block per branching vertex whose children lie
        inside the truncation, in breadth-first order."""
        blocks = []
        for l, generation in enumerate(self.trunc.generations):
            columns = kernel_columns(self.trunc, l).T
            # the first nonzero row of a column is a child of its block's vertex
            rows = self.trunc.span(l)[0] + np.argmax(columns != 0, axis=1)
            vectors: dict[int, list[CoordinateVector]] = {}
            for owner, column in zip(self.trunc.parent_index[rows].tolist(), columns):
                support = np.flatnonzero(column).tolist()
                vectors.setdefault(owner, []).append({generation[i]: column.item(i) for i in support})
            for owner, vecs in vectors.items():
                vertex = None if l == 0 else self.trunc.vertices[owner]
                blocks.append(KernelBlock(vertex=vertex, l=l, vectors=tuple(vecs)))
        return KernelBasis(blocks=tuple(blocks))

    # -- defect operator and self-commutator --------------------------------------

    def defect_operator_apply(self, f: Mapping[str, complex]) -> CoordinateVector:
        """Apply sum_k (-1)^k C(q,k) S^k S*^k to ``f`` (integer q only).

        On the Cauchy dual this is the operator whose failure to be a
        projection separates branching trees from the chain.
        """
        if not isinstance(self.q, int):
            raise WrongQ("defect operator requires integer q")
        down = self._to_array(f, margin=self.q)  # S*^k f, k = 0..q
        result = np.zeros_like(down)
        for k in range(self.q + 1):
            result += (-1) ** k * math.comb(self.q, k) * _iterate(self.act, down, k)
            down = self.act_adjoint(down)
        return self._to_dict(result)

    def self_commutator_diagonal(self, v: str) -> Fraction:
        """Exact diagonal entry <[S*, S] e_v, e_v>."""
        return self.row_sum(self._depth(v)) - self.squared_weight(v)

    def self_commutator_partial_trace(self, depth_cap: int) -> float:
        """Partial trace of [S*, S] over the vertices of depth <= depth_cap, a
        diagnostic partial sum.  The squared weights into generation n + 1 sum
        to |gen_n| row_sum(n), so it telescopes to |gen_cap| row_sum(cap)."""
        if depth_cap >= self.horizon:
            raise TruncationLoss(f"depth_cap {depth_cap} needs horizon {depth_cap + 1}, have {self.horizon}")
        if depth_cap < 0:
            return 0.0
        start, end = self.trunc.span(depth_cap)
        return float((end - start) * self.row_sum(depth_cap))


def require_q(q: int | Fraction) -> None:
    """Reject a shift parameter outside its admissible range q >= 1."""
    if q < 1:
        raise InvalidQ(f"q must be at least 1, got {q}")


def moment_bases(q: int | Fraction, kind: str, n: int) -> tuple:
    """Bases (a, b) with ||S^k e_v||^2 = (a)_k/(b)_k at a depth-n vertex v:
    (n + q, n + 1) for the Dirichlet shift, swapped for its Cauchy dual.
    Every depth-only number of the package reads off this pair."""
    require_q(q)
    if kind == DIRICHLET:
        return n + q, n + 1
    if kind == DUAL:
        return n + 1, n + q
    raise ValueError(f"kind must be {DIRICHLET!r} or {DUAL!r}")


def depth_moments(q: int | Fraction, kind: str, n: int, kmax: int) -> Iterator[Fraction]:
    """Moments of a depth-n vertex for k = 0..kmax; q and kind are checked at the call."""
    return pochhammer_ratios(*moment_bases(q, kind, n), kmax)


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
    moment_bases(q, kind, 0)  # rejects an unknown kind and q < 1 before truncating
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    trunc = tree.truncate(horizon)
    # the squared weight depends only on (depth n, sibling count s): one
    # exact value per distinct pair, keyed n * stride + s
    parent = trunc.parent_index
    siblings = np.bincount(parent[1:])[parent]
    depths = np.repeat(np.arange(horizon + 1), np.diff(trunc.offsets))
    stride = int(siblings.max()) + 1
    keys, inverse = np.unique(depths[1:] * stride + siblings[1:], return_inverse=True)
    table = []
    for key in keys.tolist():
        n, s = divmod(key, stride)
        a, b = moment_bases(q, kind, n - 1)
        table.append(Fraction(a) / (b * s))
    weights = np.zeros(len(parent))
    weights[1:] = np.array([math.sqrt(x) for x in table])[inverse]
    return ShiftOperator(
        tree=tree,
        q=q,
        kind=kind,
        horizon=horizon,
        trunc=trunc,
        weights=weights,
    )
