"""Unitary equivalence of Dirichlet shifts on two trees.

For q = 1 the shifts are isometries and equivalence is decided by the
cokernel dimension alone.  For integer q >= 2 the complete invariant is
the depth profile: generation by generation, the branching defect counts
must agree.  In the equivalent case the identity between the cokernel
blocks of each generation intertwines the two shifts; it is lifted to
the truncated coordinate spaces, where the intertwining residual can be
measured directly.  On each generation both shifts are the same scalar
times the isometry A of their tree (``shifts.make_shift``), so each side
of the lift is its own kernel columns pushed by its own A: they stay
orthonormal with no normalization, and the lift reads neither q nor the
weights.  Each generation block of a side stores only the columns pushed
from the generation above; the Helmert columns born on it are applied
through prefix sums over the sibling runs (``shifts.helmert_apply``),
since S* is a sum over children, and are made dense only as the operand
of the next generation's push.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from typing import Collection, Mapping

import numpy as np

from .errors import InvalidQ, NotEquivalentError, TruncationLoss
from .shifts import DIRICHLET, ShiftOperator, helmert_adjoint, helmert_apply, helmert_runs, kernel_births, make_shift
from .trees import DepthProfile, Tree

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"

# random test vectors per intertwining check
_TRIALS = 16

# float64 entries (256 MiB) allowed in the columns one generation block of the lift stores
MAX_BLOCK_ENTRIES = 2**25


@dataclass(frozen=True)
class EquivalenceVerdict:
    result: str
    witness: int | None
    profile1: DepthProfile
    profile2: DepthProfile

    @property
    def equivalent(self) -> bool:
        return self.result == EQUIVALENT


def cokernel_dimension(tree: Tree) -> int:
    """Dimension of ker S*: 1 plus the total branching defect.

    The prefix-plus-rays representation always certifies a finite
    branching index, so the total is exact.
    """
    return 1 + sum(count - 1 for _v, count in tree.branching_vertices())


def decide_equivalence(tree1: Tree, tree2: Tree, q: int) -> EquivalenceVerdict:
    """Decide whether the two Dirichlet shifts are unitarily equivalent.

    Both depth profiles are read down to the branching index, so they are
    complete and every verdict is exact.  q = 1 compares cokernel
    dimensions; q >= 2 compares the profiles entrywise, and the witness is
    the first generation where they differ.
    """
    if not isinstance(q, numbers.Integral) or q < 1:
        raise InvalidQ(f"q must be a positive integer, got {q!r}")
    p1, p2 = (tree.depth_profile(tree.branching_index()) for tree in (tree1, tree2))
    witness = None
    if q == 1:
        equal = cokernel_dimension(tree1) == cokernel_dimension(tree2)
    else:
        differ = (n for n in p1.entries.keys() | p2.entries.keys() if p1.entries.get(n) != p2.entries.get(n))
        witness = min(differ, default=None)
        equal = witness is None
    return EquivalenceVerdict(
        result=EQUIVALENT if equal else NOT_EQUIVALENT, witness=witness, profile1=p1, profile2=p2
    )


@dataclass(frozen=True)
class GradedUnitary:
    """Generation-by-generation identity between the cokernel blocks.

    The first root indicator goes to the second, and the Helmert coordinates
    of the first tree's generation-n branching vertices go one to one to the
    second's; ``generations[n]`` is their count.  On each side the
    coordinates are in breadth-first order, which is truncation order: the
    branching vertices in generation order, each one's Helmert vectors in
    child order.  A generation left out carries no lifted columns.
    """

    generations: Mapping[int, int]


def build_graded_unitary(verdict: EquivalenceVerdict) -> GradedUnitary:
    """Construct the canonical graded unitary for the pair ``verdict`` decided.

    Blocks are ordered by (generation, breadth-first vertex order) and
    each generation gets the identity in Helmert coordinates; any choice
    of unitaries works, the identity is the canonical one and needs no matrix.
    """
    if verdict.result == NOT_EQUIVALENT:
        raise NotEquivalentError(f"shifts differ (witness generation {verdict.witness})")
    entries = verdict.profile1.entries
    if entries != verdict.profile2.entries:
        # only reachable at q = 1, where equal totals do not force equal
        # profiles; the generation-by-generation construction needs them
        raise ValueError("graded construction needs matching depth profiles")
    return GradedUnitary(generations=dict(sorted(entries.items())))


# -- lifting to the truncated coordinate spaces ---------------------------------


@dataclass(frozen=True)
class BlockDiagonal:
    """A block-diagonal matrix kept as its diagonal blocks, in order.

    Supports ``.shape``, ``.T`` and ``@`` on an array or a block of columns.
    One block may appear as several consecutive blocks.
    """

    blocks: tuple[HelmertBlock, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return sum(b.shape[0] for b in self.blocks), sum(b.shape[1] for b in self.blocks)

    @property
    def T(self) -> BlockDiagonal:
        return BlockDiagonal(tuple(b.T for b in self.blocks))

    def __matmul__(self, a: np.ndarray) -> np.ndarray:
        rows, cols = self.shape
        if a.shape[0] != cols:
            raise ValueError(f"cannot apply a {rows}x{cols} block-diagonal matrix to shape {a.shape}")
        out = np.empty((rows, *a.shape[1:]), dtype=np.result_type(a.dtype, np.float64))
        row = col = 0
        for b in self.blocks:
            out[row : row + b.shape[0]] = b @ a[col : col + b.shape[1]]
            row += b.shape[0]
            col += b.shape[1]
        return out


@dataclass(frozen=True)
class HelmertBlock:
    """One generation block of the lift, its newborn columns kept implicit.

    The block is ``pushed``, the stored columns pushed from the generation
    above, followed by the Helmert columns born on its generation, located
    by ``runs`` (``helmert_runs``).  ``runs`` is None where the block has no
    newborn columns: the root line, and a generation whose parent generation
    the unitary leaves out.  The Helmert columns are applied through prefix
    sums over the sibling runs (``helmert_apply`` and ``helmert_adjoint``),
    O(rows) per column of the operand; ``dense`` builds them only as the
    operand of the next generation's push.  ``T`` is the transpose.
    """

    pushed: np.ndarray
    runs: tuple[np.ndarray, ...] | None = None
    transposed: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        newborn = 0 if self.runs is None else len(self.runs[0])
        rows, cols = self.pushed.shape[0], self.pushed.shape[1] + newborn
        return (cols, rows) if self.transposed else (rows, cols)

    @property
    def T(self) -> HelmertBlock:
        return dataclasses.replace(self, transposed=not self.transposed)

    def dense(self) -> np.ndarray:
        """The block as one array: its newborn columns are built here, for a moment."""
        if self.runs is None:
            return self.pushed
        return np.concatenate([self.pushed, helmert_apply(self.runs, np.eye(len(self.runs[0])))], axis=1)

    def __matmul__(self, a: np.ndarray) -> np.ndarray:
        if a.ndim == 1:
            return (self @ a[:, None])[:, 0]
        p = self.pushed.shape[1]
        if self.transposed:
            out = self.pushed.T @ a
            return out if self.runs is None else np.vstack([out, helmert_adjoint(self.runs, a)])
        out = self.pushed @ a[:p]
        if self.runs is not None:
            out += helmert_apply(self.runs, a[p:])
        return out


@dataclass(frozen=True)
class LiftedUnitary:
    """Matched orthonormal columns of the lifted map between the two truncations.

    The lift sends ``source[:, i]`` to ``target[:, i]``, so it acts on a
    coordinate array f as ``target @ (source.T @ f)``.  Both are
    block-diagonal with one block per generation D: the root line and the
    kernel blocks of generations below D, pushed forward onto generation
    D.  Every block is a ``HelmertBlock`` that stores only its pushed
    columns.  On each side, a generation where the truncation does not
    widen shares the block of the generation above, so the stored arrays
    are read-only.
    ``domain`` holds the columns of the generations below the depth, whose
    image under one more application of the shift stays inside the
    truncation; ``shifts`` are the two truncated shifts whose isometries
    the columns were pushed forward by, and whose weights ``_residual``
    applies.
    """

    source: BlockDiagonal
    target: BlockDiagonal
    domain: tuple[int, ...]
    shifts: tuple[ShiftOperator, ShiftOperator]


def _column_norms(block: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", block, block))


def _lift_side(shift: ShiftOperator, generations: Collection[int]) -> list[HelmertBlock]:
    """The generation blocks 0..horizon of one side of the lift.

    Block D is block D - 1 pushed forward by A, stored, followed by the
    kernel columns born on generation D when generation D - 1 is in
    ``generations``, applied by prefix sums.  Where the truncation does not
    widen at D, A onto D is the identity, so block D is block D - 1 again,
    the same block, and is not recomputed.  Every widening block is checked
    against ``MAX_BLOCK_ENTRIES`` before the first one is built.
    """
    trunc, depth = shift.trunc, shift.horizon
    births = kernel_births(trunc)
    # block d holds the root line and the columns born on generations 1..d of the unitary
    columns = np.cumsum([1] + [births[d] if d - 1 in generations else 0 for d in range(1, depth + 1)]).tolist()
    rows = np.diff(trunc.offsets).tolist()
    for d in range(1, depth + 1):
        # a block that widens stores the columns of the block above, pushed
        if births[d] and rows[d] * columns[d - 1] > MAX_BLOCK_ENTRIES:
            raise ValueError(
                f"lift needs a {rows[d]} x {columns[d - 1]} block of stored columns on generation {d}, "
                f"over the limit of {MAX_BLOCK_ENTRIES} float64 entries per block"
            )
    # the root line
    blocks = [HelmertBlock(np.ones((1, 1)))]
    for d in range(1, depth + 1):
        if not births[d]:
            # every vertex of generation d - 1 has one child, so A is the identity onto d
            blocks.append(blocks[-1])
            continue
        runs = helmert_runs(trunc, d) if d - 1 in generations else None
        blocks.append(HelmertBlock(shift.push(blocks[-1].dense(), d), runs))
    # a block may stand for several generations, so no stored array may be written in place
    for block in blocks:
        block.pushed.setflags(write=False)
    return blocks


def lift_graded_unitary(
    tree1: Tree, tree2: Tree, q: int, unitary: GradedUnitary, depth: int
) -> LiftedUnitary:
    """Extend the cokernel unitary to the depth-``depth`` truncations.

    A kernel vector carried by generation n + 1 is paired with its image,
    the kernel vector of the same coordinate on the other side, and both
    are pushed forward by powers of the respective isometries A, so every
    column lives on one generation: each side is built one generation
    block at a time from its own shift (``_lift_side``).  Equal depth
    profiles give both truncations the same width on every generation, so
    both sides widen, and share blocks, on the same generations.
    ``MAX_BLOCK_ENTRIES`` bounds the columns each block stores, which also
    bounds the dense operand of its push.  A is an isometry, so the columns
    stay orthonormal on both sides and the map is a genuine unitary
    between the truncated spaces.  It intertwines because both shifts are
    the same scalar times A on each generation; ``q`` only builds the
    shifts whose weights ``_residual`` applies, a check independent of
    this construction.
    """
    for n in sorted(unitary.generations):
        if n + 2 > depth:
            raise TruncationLoss(f"generation {n} blocks need depth at least {n + 2}, got {depth}")
    shifts = make_shift(tree1, q, DIRICHLET, depth), make_shift(tree2, q, DIRICHLET, depth)
    source, target = (_lift_side(shift, unitary.generations) for shift in shifts)
    return LiftedUnitary(
        source=BlockDiagonal(tuple(source)),
        target=BlockDiagonal(tuple(target)),
        domain=tuple(range(sum(b.shape[1] for b in source[:-1]))),
        shifts=shifts,
    )


def _residual(lift: LiftedUnitary, seed: int) -> float:
    """Largest relative defect |U S1 f - S2 U f| / |f| over ``_TRIALS`` random f in the domain."""
    shift1, shift2 = lift.shifts
    rng = np.random.default_rng(seed)
    coefficients = np.zeros((lift.source.shape[1], _TRIALS))
    coefficients[list(lift.domain)] = rng.standard_normal((_TRIALS, len(lift.domain))).T
    f = lift.source @ coefficients
    # U S1 f and U f in one application of U = target @ source.T
    lifted = lift.target @ (lift.source.T @ np.hstack([shift1.act(f), f]))
    gap = lifted[:, :_TRIALS] - shift2.act(lifted[:, _TRIALS:])
    return float(np.max(_column_norms(gap) / _column_norms(f), initial=0.0))


def verify_intertwining(
    tree1: Tree,
    tree2: Tree,
    q: int,
    unitary: GradedUnitary,
    depth: int,
    seed: int = 42,
) -> float:
    """Largest relative intertwining defect of the lifted unitary over
    random test vectors supported strictly inside the truncation."""
    return _residual(lift_graded_unitary(tree1, tree2, q, unitary, depth), seed)
