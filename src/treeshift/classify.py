"""Unitary equivalence of Dirichlet shifts on two trees.

For q = 1 the shifts are isometries and equivalence is decided by the
cokernel dimension alone.  For integer q >= 2 the complete invariant is
the depth profile: generation by generation, the branching defect counts
must agree.  In the equivalent case an explicit intertwining unitary is
assembled generation by generation on the cokernel blocks and lifted to
the truncated coordinate spaces, where the intertwining residual can be
measured directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InvalidQ, NotEquivalentError, TruncationLoss
from .shifts import DIRICHLET, ShiftOperator, kernel_births, kernel_columns, make_shift
from .trees import DepthProfile, Tree

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
EQUIVALENT_UP_TO_HORIZON = "equivalent_up_to_horizon"

EXACT = "exact"
HORIZON_LIMITED = "horizon_limited"

_NORM_MATCH_TOL = 1e-10

# random test vectors per intertwining check
_TRIALS = 16

# float64 entries (256 MiB) allowed in one generation block of the graded unitary or its lift
MAX_BLOCK_ENTRIES = 2**25


def _refuse_block(rows: int, cols: int, generation: int, what: str) -> None:
    """``ValueError`` for a rows x cols block over ``MAX_BLOCK_ENTRIES``, raised before allocating it."""
    if rows * cols > MAX_BLOCK_ENTRIES:
        raise ValueError(
            f"{what} needs a {rows} x {cols} block on generation {generation}, "
            f"over the limit of {MAX_BLOCK_ENTRIES} float64 entries per block"
        )


@dataclass(frozen=True)
class EquivalenceVerdict:
    result: str
    certainty: str
    witness: int | None
    profile1: DepthProfile
    profile2: DepthProfile

    @property
    def equivalent(self) -> bool:
        return self.result in (EQUIVALENT, EQUIVALENT_UP_TO_HORIZON)


def cokernel_dimension(tree: Tree) -> int:
    """Dimension of ker S*: 1 plus the total branching defect.

    The prefix-plus-rays representation always certifies a finite
    branching index, so the total is exact.
    """
    return 1 + sum(count - 1 for _v, count in tree.branching_vertices())


def decide_equivalence(tree1: Tree, tree2: Tree, q: int, horizon: int) -> EquivalenceVerdict:
    """Decide whether the two Dirichlet shifts are unitarily equivalent.

    q = 1 compares cokernel dimensions; q >= 2 compares depth profiles
    entrywise.  The verdict is exact unless a profile is horizon-limited
    and no difference was found inside the horizon.
    """
    if not isinstance(q, int) or q < 1:
        raise InvalidQ(f"q must be a positive integer, got {q!r}")
    if horizon < 0:  # q = 1 extends the horizon below, which would hide a negative one
        raise ValueError("horizon must be nonnegative")
    witness = None
    if q == 1:
        # totals are representation-exact; extend the horizon so the
        # reported profiles are certified complete
        p1 = tree1.depth_profile(max(horizon, tree1.branching_index()))
        p2 = tree2.depth_profile(max(horizon, tree2.branching_index()))
        equal = cokernel_dimension(tree1) == cokernel_dimension(tree2)
        exact = True
    else:
        p1, p2 = tree1.depth_profile(horizon), tree2.depth_profile(horizon)
        witness = p1.first_difference(p2)
        equal = witness is None
        # a witness is exact; agreement is exact when both profiles are
        exact = not equal or (p1.exact_beyond_horizon and p2.exact_beyond_horizon)
    result = EQUIVALENT if exact else EQUIVALENT_UP_TO_HORIZON
    return EquivalenceVerdict(
        result=result if equal else NOT_EQUIVALENT,
        certainty=EXACT if exact else HORIZON_LIMITED,
        witness=witness,
        profile1=p1,
        profile2=p2,
    )


@dataclass(frozen=True)
class GradedUnitary:
    """Generation-by-generation unitary between the cokernel blocks.

    The first root indicator goes to the second; ``generations[n]`` is a
    unitary matrix from the Helmert coordinates of the first tree's
    generation-n branching vertices to the second's.  On
    each side the coordinates are in breadth-first order, which is
    truncation order: the branching vertices in generation order, each
    one's Helmert vectors in child order.
    """

    generations: Mapping[int, np.ndarray]


def build_graded_unitary(verdict: EquivalenceVerdict) -> GradedUnitary:
    """Construct the canonical graded unitary for the pair ``verdict`` decided.

    Blocks are ordered by (generation, breadth-first vertex order) and
    each generation gets the identity matrix in Helmert coordinates; any
    choice of unitaries works, the identity is the deterministic one.
    """
    if verdict.result == NOT_EQUIVALENT:
        raise NotEquivalentError(f"shifts differ (witness generation {verdict.witness})")
    if not verdict.profile1.same_as(verdict.profile2):
        # only reachable at q = 1, where equal totals do not force equal
        # profiles; the generation-by-generation construction needs them
        raise ValueError("graded construction needs matching depth profiles")
    for n, count in verdict.profile1.entries.items():
        _refuse_block(count, count, n, "graded unitary")
    generations = {
        n: np.eye(verdict.profile1.entry(n)) for n in sorted(verdict.profile1.entries)
    }
    return GradedUnitary(generations=generations)


# -- lifting to the truncated coordinate spaces ---------------------------------


@dataclass(frozen=True)
class BlockDiagonal:
    """A block-diagonal matrix kept as its diagonal blocks, in order.

    Supports ``.shape``, ``.T`` and ``@`` on an array or a block of columns.
    One array may appear as several consecutive blocks.
    """

    blocks: tuple[np.ndarray, ...]

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
class LiftedUnitary:
    """Matched orthonormal columns of the lifted map between the two truncations.

    The lift sends ``source[:, i]`` to ``target[:, i]``, so it acts on a
    coordinate array f as ``target @ (source.T @ f)``.  Both are
    block-diagonal with one block per generation D: the root line and the
    kernel blocks of generations below D, pushed forward onto generation
    D.  A generation where neither truncation widens shares the array of
    the generation above, so the blocks are read-only.  ``domain`` holds
    the columns of the generations below the depth, whose image under one
    more application of the shift stays inside the truncation; ``shifts``
    are the two truncated shifts the columns were pushed forward by.
    """

    source: BlockDiagonal
    target: BlockDiagonal
    domain: tuple[int, ...]
    shifts: tuple[ShiftOperator, ShiftOperator]


def _normalize_pair(block1: np.ndarray, block2: np.ndarray, generation: int) -> None:
    """Check that matched columns have equal norms, then scale both to unit norm."""
    n1, n2 = np.linalg.norm(block1, axis=0), np.linalg.norm(block2, axis=0)
    bad = np.flatnonzero(np.abs(n1 - n2) > _NORM_MATCH_TOL * np.maximum(n1, n2))
    if bad.size:
        i = bad[0]
        raise AssertionError(
            f"moment mismatch at generation {generation}, column {i}: {n1[i]} vs {n2[i]}"
        )
    block1 /= n1
    block2 /= n2


def lift_graded_unitary(
    tree1: Tree, tree2: Tree, q: int, unitary: GradedUnitary, depth: int
) -> LiftedUnitary:
    """Extend the cokernel unitary to the depth-``depth`` truncations.

    A kernel vector carried by generation n + 1 is paired with its image,
    and both are pushed forward by powers of the respective shifts, so
    every column lives on one generation: the lift is built one generation
    block at a time.  Block D is block D - 1 pushed forward, followed by
    the kernel columns born on generation D, times the generation-(D - 1)
    unitary on the second side.  Where neither truncation widens at D, the
    push is one scalar times the identity, the same on both sides, so block
    D is block D - 1 again, the same read-only array, and is not recomputed.
    Matching moments make the columns orthonormal on both sides, so the
    resulting map is a genuine unitary between the truncated spaces.
    """
    shift1 = make_shift(tree1, q, DIRICHLET, depth)
    shift2 = make_shift(tree2, q, DIRICHLET, depth)
    for n in sorted(unitary.generations):
        if n + 2 > depth:
            raise TruncationLoss(
                f"generation {n} blocks need depth at least {n + 2}, got {depth}"
            )
    births1, births2 = kernel_births(shift1.trunc), kernel_births(shift2.trunc)
    # block d holds every column born on generations 0..d, on the rows of generation d
    columns = np.cumsum(births1).tolist()
    for d, rows in enumerate(np.diff(shift1.trunc.offsets).tolist()):
        _refuse_block(rows, columns[d], d, "lift")
    source = [kernel_columns(shift1.trunc, 0)]
    target = [kernel_columns(shift2.trunc, 0)]
    _normalize_pair(source[0], target[0], 0)
    for d in range(1, depth + 1):
        if births1[d] or births2[d]:
            block1, block2 = shift1.push(source[-1], d), shift2.push(target[-1], d)
            if d - 1 in unitary.generations:
                block1 = np.hstack([block1, kernel_columns(shift1.trunc, d)])
                block2 = np.hstack([block2, kernel_columns(shift2.trunc, d) @ unitary.generations[d - 1]])
            _normalize_pair(block1, block2, d)
        else:
            # every vertex of generation d - 1 has one child, and every weight into d
            # is the same double on both sides (it depends on depth and sibling count)
            block1, block2 = source[-1], target[-1]
        source.append(block1)
        target.append(block2)
    # a block may stand for several generations, so none may be written in place
    for block in (*source, *target):
        block.setflags(write=False)
    return LiftedUnitary(
        source=BlockDiagonal(tuple(source)),
        target=BlockDiagonal(tuple(target)),
        domain=tuple(range(sum(b.shape[1] for b in source[:-1]))),
        shifts=(shift1, shift2),
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
    return float(np.max(np.linalg.norm(gap, axis=0) / np.linalg.norm(f, axis=0), initial=0.0))


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
