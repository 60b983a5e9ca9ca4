"""Weighted shifts on rooted directed trees, truncated at a finite depth.

Two weight systems are built from the same tree: the Dirichlet shift,
whose squared weight into a vertex v at depth n with sibling count s is
(n + q - 1)/(n s), and its Cauchy dual, with squared weight
n/((n + q - 1) s).  Both factor as S = sqrt(rho(n - 1)) A on generation
n: rho is the ratio of the depth-(n - 1) ``moment_bases``, (n + q - 1)/n
for the Dirichlet shift and its reciprocal for the dual, and A, the
isometry that sends e_v to the sum of e_u/sqrt(s) over v's s children,
reads neither q nor the kind.  ``make_shift`` keeps the float weights
alone, the generation scalar times A; ``push`` derives A from the parent
map.  The exact numbers (moments, q-isometry defects) depend on depth
alone and read off ``moment_bases`` directly.

The operator acts on coordinate arrays in truncation order (``act`` and
``act_adjoint``, and ``push``, which applies A one generation at a time),
where the shift reweights the parent map in O(n).  The array action
drops mass at the horizon, so its callers keep their supports away from
it themselves.  The vertex-keyed methods
(``apply`` and its relatives) are adapters over the same action: they
take a sparse dict, check its support and return the nonzero
coordinates of the image.  The float moment oracle
(``moment_sequence_via_matrix``, read by ``moment_via_matrix``) follows
e_v down v's descendants alone instead.  A support that the shift would
push outside the truncation raises ``TruncationLoss`` instead of being
silently projected: every exactness claim carries its validity region.

The cokernel layout is decided here alone, as one prefix-sum operator:
``helmert_runs`` reads where the Helmert columns of ker S* born on a
generation sit off the parent map, ``helmert_apply`` and
``helmert_adjoint`` apply them through prefix sums over each run of
siblings, and ``kernel_columns`` is their dense form.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .errors import InvalidQ, TruncationLoss
from .numerics import alternating_binomial_sum_terms, pochhammer_ratio_terms, pochhammer_ratios
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


def kernel_births(trunc: Truncation) -> list[int]:
    """Number of columns of ker S* born on each generation 0..horizon.

    The root line is born on generation 0.  Every vertex has a child, the
    tree being leafless, so generation g gains |gen_g| - |gen_{g-1}|
    Helmert columns from the vertices of generation g - 1 that branch.
    """
    return [1] + np.diff(trunc.offsets, 2).tolist()


def helmert_runs(trunc: Truncation, generation: int) -> tuple[np.ndarray, ...]:
    """Where the Helmert columns of ker S* born on ``generation`` sit, read off its parents.

    Column k (k = 1..m - 1) of a run of m siblings from row s is 1/sqrt(k(k+1))
    on rows s..s+k-1 and -k/sqrt(k(k+1)) on its tail row s + k, the rows whose
    parent is the row above's, so the columns match the tail rows in order:
    runs in truncation order, each run's columns in child order.  Returns the
    tail and head row of each column, 1/sqrt(k(k+1)) and k/sqrt(k(k+1)) as
    columns, and for every row one past the last row of its run.
    """
    start, end = trunc.span(generation)
    parents = trunc.parent_index[start:end]
    tail = np.flatnonzero(parents[1:] == parents[:-1]) + 1
    head = np.searchsorted(parents, parents[tail])
    stop = np.searchsorted(parents, parents, side="right")
    k = tail - head
    scale = 1.0 / np.sqrt(k * (k + 1.0))
    return tail, head, stop, scale[:, None], (k * scale)[:, None]


def helmert_apply(runs: tuple[np.ndarray, ...], c: np.ndarray) -> np.ndarray:
    """H @ c for the Helmert columns H of ``runs`` and a block c of coefficients.

    Row s + i of a run gets the sum of the scaled coefficients of the columns
    k > i, a reverse prefix sum over the run, less i times its own; O(rows)
    per column of c, in the dtype of c promoted to float."""
    tail, _head, stop, scale, kscale = runs
    # row r: the scaled coefficient of the column with tail r, then the sum of rows r.. of that
    suffix = np.zeros((len(stop) + 1, c.shape[1]), np.result_type(c, np.float64))
    suffix[tail] = scale * c
    np.cumsum(suffix[-2::-1], axis=0, out=suffix[-2::-1])
    out = suffix[stop]
    np.subtract(suffix[1:], out, out=out)
    out[tail] -= kscale * c
    return out


def helmert_adjoint(runs: tuple[np.ndarray, ...], z: np.ndarray) -> np.ndarray:
    """H.T @ z: column k of a run from row s reads the prefix sum of z over
    rows s..s+k-1, less k times row s + k, both scaled by 1/sqrt(k(k+1))."""
    tail, head, _stop, scale, kscale = runs
    prefix = np.zeros((len(z) + 1, z.shape[1]), np.result_type(z, np.float64))
    np.cumsum(z, axis=0, out=prefix[1:])
    out = prefix[tail]
    out -= prefix[head]
    out *= scale
    out -= kscale * z[tail]
    return out


def kernel_columns(trunc: Truncation, generation: int) -> np.ndarray:
    """The columns of ker S* born on ``generation``, as that generation's rows.

    Generation 0 carries the root line.  On a later generation they are the
    Helmert columns of ``helmert_runs``, the dense form of ``helmert_apply``:
    its apply of the identity, which holds about four times the output while
    it runs.
    """
    if generation == 0:
        return np.ones((1, 1))
    runs = helmert_runs(trunc, generation)
    return helmert_apply(runs, np.eye(len(runs[0])))


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
        """A on columns supported on generation - 1, given as that generation's
        rows (another row count raises ``ValueError``); returns the rows of ``generation``,
        each its parent's row times 1/sqrt(sibling count), read off the parent map.
        The push of S onto ``generation`` is this times the generation's scalar
        sqrt(rho(generation - 1)).  A push past the horizon raises ``TruncationLoss``
        instead of dropping the mass."""
        if generation > self.horizon:
            raise TruncationLoss(f"push onto generation {generation} needs horizon {generation}, have {self.horizon}")
        if generation < 1:
            raise ValueError(f"cannot push onto generation {generation}: generation 0 has no parent generation")
        start, end = self.trunc.span(generation)
        if block.shape[0] != (rows := start - self.trunc.span(generation - 1)[0]):
            raise ValueError(f"push onto generation {generation} needs {rows} rows, got {block.shape[0]}")
        parents = self.trunc.parent_index[start:end] - (start - rows)
        return (1.0 / np.sqrt(np.bincount(parents)[parents]))[:, None] * block[parents]

    # -- vertex-keyed adapters ------------------------------------------------------

    def _to_array(self, f: Mapping[str, complex], margin: int = 0) -> np.ndarray:
        """``f`` as a coordinate array, complex when a value is.  The first vertex of
        ``f`` outside the truncation raises ``UnknownVertex`` if the tree lacks it, else
        ``TruncationLoss``: it is deeper than horizon - margin."""
        limit = self.horizon - margin
        # the vertices of depth <= limit are exactly the positions below ``end``
        end = self.trunc.span(limit)[1] if limit >= 0 else 0
        complex_values = any(isinstance(x, (complex, np.complexfloating)) for x in f.values())
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

    def moment_sequence(self, v: str, kmax: int) -> list[Fraction]:
        """Moments for k = 0..kmax in lowest terms, the one place they become ``Fraction``s."""
        return list(pochhammer_ratios(*moment_bases(self.q, self.kind, self.tree.depth_of(v)), kmax))

    def _pushes(self, v: str, kmax: int) -> list[tuple[int, int, np.ndarray]]:
        """S^k e_v, k = 0..kmax, on v's k-th descendants (consecutive positions) as pieces (start, stride,
        rows), row j from position start + j stride.  Down to top = min(horizon, deepest explicit depth)
        a step reweights the parent map on the range ``searchsorted`` finds in ``parent_index``; below top a
        vertex's one child sits ``width`` positions on: one ``np.cumprod`` of aligned weight rows under the
        last column."""
        if (depth := self.tree.depth_of(v)) + kmax > self.horizon:
            self._to_array({v: 1.0}, margin=kmax)  # raises the vertex-keyed methods' TruncationLoss
        _order, _starts, top, width = self.trunc._runs
        parent, a = self.trunc.parent_index, self.trunc.position(v)
        column, b, pieces = np.ones(1), a + 1, [(a, 0, np.ones((1, 1)))]
        for _ in range(depth, min(top, depth + kmax)):
            lo, b = np.searchsorted(parent, (a, b)).tolist()
            lo = max(lo, 1)  # the root is its own parent
            column, a = self.weights[lo:b] * column[parent[lo:b] - a], lo
            pieces.append((a, 0, column[None]))
        if (rays := depth + kmax - max(depth, top)) > 0:
            rows = self.weights[np.arange(width, (rays + 1) * width, width)[:, None] + np.arange(a, b)]
            pieces.append((a + width, width, np.cumprod(np.vstack([column, rows]), axis=0)[1:]))
        return pieces

    def moment_sequence_via_matrix(self, v: str, kmax: int) -> list[float]:
        """Squared norms of S^k e_v for k = 0..kmax, the float oracle for ``moment_sequence``:
        the squares of each row of ``_pushes`` summed by ``np.add.reduce``."""
        return [x for _a, _stride, rows in self._pushes(v, kmax) for x in np.add.reduce(rows * rows, axis=1).tolist()]

    def moment_via_matrix(self, v: str, k: int) -> float:
        """Squared norm of S^k e_v, entry k of ``moment_sequence_via_matrix``."""
        return self.moment_sequence_via_matrix(v, k)[k]

    def q_isometry_defect(self, v: str, order: int) -> Fraction:
        """Signed binomial sum of the moment sequence at ``v``.

        Zero at order q certifies the q-isometry identity on e_v; the
        (q-1)-defect stays nonzero for q >= 2.
        """
        return alternating_binomial_sum_terms([*depth_moments(self.q, self.kind, self.tree.depth_of(v), order)], order)

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


def require_q(q: int | Fraction) -> int | Fraction:
    """Reject a shift parameter outside its admissible range: a rational q >= 1
    (an int, a numpy integer or a ``Fraction``), never a float or a bool.
    Returns q, an integral one read through ``operator.index`` as a Python int,
    so that no sum n + q keeps the wrapping arithmetic of a small numpy dtype."""
    if isinstance(q, bool) or not isinstance(q, numbers.Rational):
        raise InvalidQ(f"q must be an integer or a Fraction, got {q!r}")
    if q < 1:
        raise InvalidQ(f"q must be at least 1, got {q}")
    return q if type(q) is int or not isinstance(q, numbers.Integral) else operator.index(q)


def moment_bases(q: int | Fraction, kind: str, n: int) -> tuple:
    """Bases (a, b) with ||S^k e_v||^2 = (a)_k/(b)_k at a depth-n vertex v:
    (n + q, n + 1) for the Dirichlet shift, swapped for its Cauchy dual.
    Every depth-only number of the package reads off this pair."""
    q = require_q(q)
    if kind == DIRICHLET:
        return n + q, n + 1
    if kind == DUAL:
        return n + 1, n + q
    raise ValueError(f"kind must be {DIRICHLET!r} or {DUAL!r}")


def depth_moments(q: int | Fraction, kind: str, n: int, kmax: int) -> Iterator[tuple[int, int]]:
    """Moments of a depth-n vertex, k = 0..kmax, as ``pochhammer_ratio_terms`` pairs; q and kind checked at the call."""
    return pochhammer_ratio_terms(*moment_bases(q, kind, n), kmax)


def make_shift(
    tree: Tree,
    q: int | Fraction,
    kind: str,
    horizon: int,
) -> ShiftOperator:
    """Assemble a Dirichlet or Cauchy-dual shift as its generation scalars times A.

    The truncation depth is always explicit; exactness guarantees are
    stated relative to it.
    """
    moment_bases(q, kind, 0)  # rejects an unknown kind and q < 1 before truncating
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    trunc = tree.truncate(horizon)
    parent = trunc.parent_index
    # sqrt(rho(n - 1)) on generation n, 0 on the root; rho the ratio of the depth-(n - 1) moment bases,
    # which a / b rounds correctly for an int (a numpy q read as one) or a Fraction q alike
    scale = [0.0] + [math.sqrt(a / b) for a, b in (moment_bases(q, kind, n) for n in range(horizon))]
    return ShiftOperator(
        tree=tree,
        q=q,
        kind=kind,
        horizon=horizon,
        trunc=trunc,
        # times A, 1/sqrt(sibling count), each temporary freed as the next is made
        weights=np.repeat(scale, np.diff(trunc.offsets)) * (1.0 / np.sqrt(np.bincount(parent[1:])[parent])),
    )
