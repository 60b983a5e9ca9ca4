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
weights.  The graded unitary carries every generation where the trees
branch, so each generation block of a side is square and orthogonal, and
one ``LiftSide`` holds a whole side.  Each block stores only the columns
pushed from the generation above; the Helmert columns born on it are
applied through prefix sums over the sibling runs
(``shifts.helmert_apply``), since S* is a sum over children, and are made
dense only as the operand of the next generation's push.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from typing import Mapping

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
    branching index, so the total is exact: every explicit vertex but the
    root has one parent and every leaf carries a ray, so 1 plus the sum of
    (child count - 1) over the vertices with children is the ray-leaf count.
    """
    return len(tree.ray_leaves)


def decide_equivalence(tree1: Tree, tree2: Tree, q: int) -> EquivalenceVerdict:
    """Decide whether the two Dirichlet shifts are unitarily equivalent.

    Both depth profiles are read down to the branching index, so they are
    complete and every verdict is exact.  q = 1 compares cokernel
    dimensions; q >= 2 compares the profiles entrywise, and the witness is
    the first generation where they differ.
    """
    if isinstance(q, bool) or not isinstance(q, numbers.Integral) or q < 1:
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
    child order.  ``lift_graded_unitary`` checks the counts against the
    kernel columns born on each generation of either truncation.
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
class LiftSide:
    """One side of the lift: a square orthogonal matrix, block-diagonal by generation.

    Rows and columns share ``offsets`` (``Truncation.offsets``).  Block D,
    square on generation D, is ``pushed[D]``, the stored push of block D - 1
    (the root line for D = 0), followed by the Helmert columns born on D,
    located by ``runs[D]`` (``helmert_runs``) and applied through prefix
    sums over the sibling runs (``helmert_apply`` and ``helmert_adjoint``),
    O(rows) per column of the operand.  ``runs[D]`` is None where no block
    down to D has newborn columns.  A generation that does not widen has
    the entries of the one above: it reuses both arrays, so the stored
    arrays are read-only.  Supports ``.shape``, ``.T`` (the transpose) and
    ``@`` on an array or a block of columns, complex included.
    """

    offsets: np.ndarray
    pushed: tuple[np.ndarray, ...]
    runs: tuple[tuple[np.ndarray, ...] | None, ...]
    transposed: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.offsets[-1]),) * 2

    @property
    def T(self) -> LiftSide:
        return dataclasses.replace(self, transposed=not self.transposed)

    def __matmul__(self, a: np.ndarray) -> np.ndarray:
        if a.ndim == 1:
            return (self @ a[:, None])[:, 0]
        if a.shape[0] != self.shape[1]:
            raise ValueError(f"cannot apply a lift side of shape {self.shape} to shape {a.shape}")
        out = np.empty(a.shape, dtype=np.result_type(a.dtype, np.float64))
        bounds = self.offsets.tolist()
        for lo, hi, pushed, runs in zip(bounds, bounds[1:], self.pushed, self.runs):
            p = pushed.shape[1]
            if self.transposed:
                out[lo : lo + p] = pushed.T @ a[lo:hi]
                if runs is not None:
                    out[lo + p : hi] = helmert_adjoint(runs, a[lo:hi])
            else:
                out[lo:hi] = pushed @ a[lo : lo + p]
                if runs is not None:
                    out[lo:hi] += helmert_apply(runs, a[lo + p : hi])
        return out


@dataclass(frozen=True)
class LiftedUnitary:
    """Matched orthonormal columns of the lifted map between the two truncations.

    The lift sends ``source[:, i]`` to ``target[:, i]``, so it acts on a
    coordinate array f as ``target @ (source.T @ f)``.  Each side is a
    ``LiftSide``: on every generation D its block holds the root line and
    the kernel columns born on generations up to D, pushed forward onto D,
    so it is square and the map is a unitary of the truncated spaces.
    ``shifts`` are the two truncated shifts whose isometries the columns
    were pushed forward by, and whose weights ``_residual`` applies.
    """

    source: LiftSide
    target: LiftSide
    shifts: tuple[ShiftOperator, ShiftOperator]


def _column_norms(block: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", block, block))


def _lift_side(shift: ShiftOperator) -> LiftSide:
    """The side of the lift built from one shift, generations 0..horizon.

    Block D is block D - 1 pushed forward by A, stored, followed by the
    kernel columns born on generation D, applied by prefix sums.  Where the
    truncation does not widen at D, A onto D is the identity, so block D is
    block D - 1 again and is not recomputed.  Every widening block is
    checked against ``MAX_BLOCK_ENTRIES`` before the first one is built.
    """
    trunc, depth = shift.trunc, shift.horizon
    births = kernel_births(trunc)
    rows = np.diff(trunc.offsets).tolist()
    for d in range(1, depth + 1):
        # a block that widens stores the columns of the block above, pushed
        if births[d] and rows[d] * rows[d - 1] > MAX_BLOCK_ENTRIES:
            raise ValueError(
                f"lift needs a {rows[d]} x {rows[d - 1]} block of stored columns on generation {d}, "
                f"over the limit of {MAX_BLOCK_ENTRIES} float64 entries per block"
            )
    blocks = [(np.ones((1, 1)), None)]  # (pushed, runs) of each generation, the root line first
    for d in range(1, depth + 1):
        if not births[d]:
            # every vertex of generation d - 1 has one child, so A is the identity onto d
            blocks.append(blocks[-1])
            continue
        above, runs = blocks[-1]
        if runs is not None:
            # block d - 1 made dense, for a moment, as the operand of the push
            above = np.hstack([above, helmert_apply(runs, np.eye(len(runs[0])))])
        blocks.append((shift.push(above, d), helmert_runs(trunc, d)))
    pushed, runs = zip(*blocks)
    # an array may stand for several generations, so none may be written in place
    for block in pushed:
        block.setflags(write=False)
    return LiftSide(trunc.offsets, pushed, runs)


def lift_graded_unitary(
    tree1: Tree, tree2: Tree, q: int, unitary: GradedUnitary, depth: int
) -> LiftedUnitary:
    """Extend the cokernel unitary to the depth-``depth`` truncations.

    A kernel vector carried by generation n + 1 is paired with its image,
    the kernel vector of the same coordinate on the other side, and both
    are pushed forward by powers of the respective isometries A, so every
    column lives on one generation: each side is built from its own shift
    (``_lift_side``).  The unitary must count the kernel columns born on
    every generation of either truncation (``kernel_births``); any other
    raises ``ValueError`` naming the tree, before any push.  So both sides
    widen, and share blocks, on the same generations, and A being an
    isometry makes each a square orthogonal matrix: the map is a genuine
    unitary between the truncated spaces.  It intertwines because both
    shifts are the same scalar times A on each generation; ``q`` only
    builds the shifts whose weights ``_residual`` applies, a check
    independent of this construction.
    """
    for n in sorted(unitary.generations):
        if n + 2 > depth:
            raise TruncationLoss(f"generation {n} blocks need depth at least {n + 2}, got {depth}")
    shifts = make_shift(tree1, q, DIRICHLET, depth), make_shift(tree2, q, DIRICHLET, depth)
    for i, shift in enumerate(shifts, 1):
        births = {d - 1: count for d, count in enumerate(kernel_births(shift.trunc)) if d and count}
        if births != unitary.generations:
            raise ValueError(
                f"graded unitary {dict(unitary.generations)} does not match the births {births} of tree {i}"
            )
    source, target = (_lift_side(shift) for shift in shifts)
    return LiftedUnitary(source=source, target=target, shifts=shifts)


def _residual(lift: LiftedUnitary, seed: int) -> float:
    """Largest relative defect |U S1 f - S2 U f| / |f| over ``_TRIALS`` random f
    supported above the horizon generation, whose image under S1 stays inside."""
    shift1, shift2 = lift.shifts
    inside, n = shift1.trunc.span(shift1.horizon)
    rng = np.random.default_rng(seed)
    f = np.zeros((n, _TRIALS))
    f[:inside] = rng.standard_normal((_TRIALS, inside)).T
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
