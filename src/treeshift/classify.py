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
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidQ, NotEquivalentError, TruncationLoss
from .shifts import DIRICHLET, ShiftOperator, make_shift
from .trees import DepthProfile, Tree

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
EQUIVALENT_UP_TO_HORIZON = "equivalent_up_to_horizon"

EXACT = "exact"
HORIZON_LIMITED = "horizon_limited"

_NORM_MATCH_TOL = 1e-10


@dataclass(frozen=True)
class EquivalenceVerdict:
    q: int
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
    if q == 1:
        # totals are representation-exact; extend the horizon so the
        # reported profiles are certified complete
        h1 = max(horizon, tree1.branching_index())
        h2 = max(horizon, tree2.branching_index())
        p1, p2 = tree1.depth_profile(h1), tree2.depth_profile(h2)
        same = cokernel_dimension(tree1) == cokernel_dimension(tree2)
        return EquivalenceVerdict(
            q=q,
            result=EQUIVALENT if same else NOT_EQUIVALENT,
            certainty=EXACT,
            witness=None,
            profile1=p1,
            profile2=p2,
        )
    p1, p2 = tree1.depth_profile(horizon), tree2.depth_profile(horizon)
    witness = p1.first_difference(p2)
    if witness is not None:
        return EquivalenceVerdict(
            q=q,
            result=NOT_EQUIVALENT,
            certainty=EXACT,
            witness=witness,
            profile1=p1,
            profile2=p2,
        )
    both_exact = p1.exact_beyond_horizon and p2.exact_beyond_horizon
    return EquivalenceVerdict(
        q=q,
        result=EQUIVALENT if both_exact else EQUIVALENT_UP_TO_HORIZON,
        certainty=EXACT if both_exact else HORIZON_LIMITED,
        witness=None,
        profile1=p1,
        profile2=p2,
    )


@dataclass(frozen=True)
class GradedUnitary:
    """Generation-by-generation unitary between the cokernel blocks.

    ``root_map`` sends the first root indicator to the second;
    ``generations[n]`` is a unitary matrix between the flattened Helmert
    coordinates of the generation-n branching blocks, whose vertex order
    is recorded in ``blocks1``/``blocks2``.
    """

    q: int
    root_map: float
    generations: Mapping[int, np.ndarray]
    blocks1: Mapping[int, tuple[str, ...]]
    blocks2: Mapping[int, tuple[str, ...]]


def _generation_blocks(tree: Tree) -> dict[int, tuple[str, ...]]:
    out: dict[int, list[str]] = {}
    for v, _count in tree.branching_vertices():
        out.setdefault(tree.depth_of(v), []).append(v)
    return {n: tuple(vs) for n, vs in out.items()}


def build_graded_unitary(tree1: Tree, tree2: Tree, q: int, horizon: int) -> GradedUnitary:
    """Construct the canonical graded unitary for an equivalent pair.

    Blocks are ordered by (generation, breadth-first vertex order) and
    each generation gets the identity matrix in Helmert coordinates; any
    choice of unitaries works, the identity is the deterministic one.
    """
    verdict = decide_equivalence(tree1, tree2, q, horizon)
    if verdict.result == NOT_EQUIVALENT:
        raise NotEquivalentError(f"shifts differ (witness generation {verdict.witness})")
    if not verdict.profile1.same_as(verdict.profile2):
        # only reachable at q = 1, where equal totals do not force equal
        # profiles; the generation-by-generation construction needs them
        raise ValueError("graded construction needs matching depth profiles")
    blocks1 = _generation_blocks(tree1)
    blocks2 = _generation_blocks(tree2)
    generations = {
        n: np.eye(verdict.profile1.entry(n)) for n in sorted(verdict.profile1.entries)
    }
    return GradedUnitary(
        q=q,
        root_map=1.0,
        generations=generations,
        blocks1={n: blocks1.get(n, ()) for n in generations},
        blocks2={n: blocks2.get(n, ()) for n in generations},
    )


# -- lifting to the truncated coordinate spaces ---------------------------------


@dataclass(frozen=True)
class LiftedUnitary:
    """Matched orthonormal columns of the lifted map between the two truncations.

    The lift sends ``source[:, i]`` to ``target[:, i]``, so it acts on a
    coordinate array f as ``target @ (source.T @ f)``.  ``domain`` holds
    the column indices whose image under one more application of the
    shift stays inside the truncation; ``shifts`` are the two truncated
    shifts the columns were pushed forward by.
    """

    source: np.ndarray
    target: np.ndarray
    domain: tuple[int, ...]
    shifts: tuple[ShiftOperator, ShiftOperator]


def _lift_pairs(
    shift1: ShiftOperator,
    shift2: ShiftOperator,
    pairs: Sequence[tuple[np.ndarray, np.ndarray, int]],
    check_norms: bool,
) -> LiftedUnitary:
    cols1, cols2, domain = [], [], []
    for a1, a2, max_power in pairs:
        for power in range(max_power + 1):
            if power:
                a1, a2 = shift1.act(a1), shift2.act(a2)
            n1, n2 = np.linalg.norm(a1), np.linalg.norm(a2)
            if check_norms and abs(n1 - n2) > _NORM_MATCH_TOL * max(n1, n2):
                raise AssertionError(
                    f"moment mismatch at power {power}: {n1} vs {n2}"
                )
            if power < max_power:
                domain.append(len(cols1))
            cols1.append(a1 / n1)
            cols2.append(a2 / n2)
    return LiftedUnitary(
        source=np.column_stack(cols1),
        target=np.column_stack(cols2),
        domain=tuple(domain),
        shifts=(shift1, shift2),
    )


def lift_graded_unitary(
    tree1: Tree, tree2: Tree, q: int, unitary: GradedUnitary, depth: int
) -> LiftedUnitary:
    """Extend the cokernel unitary to the depth-``depth`` truncations.

    A kernel vector at support depth d is paired with its image and both
    are pushed forward by powers of the respective shifts; matching
    moments make the columns orthonormal on both sides, so the resulting
    map is a genuine unitary between the truncated spaces.
    """
    shift1 = make_shift(tree1, q, DIRICHLET, depth)
    shift2 = make_shift(tree2, q, DIRICHLET, depth)
    basis1 = {b.vertex: b for b in shift1.kernel_basis().blocks}
    basis2 = {b.vertex: b for b in shift2.kernel_basis().blocks}

    pairs = [
        (
            shift1.to_array({tree1.root: 1.0}),
            shift2.to_array({tree2.root: unitary.root_map}),
            depth,
        )
    ]
    for n in sorted(unitary.generations):
        if n + 2 > depth:
            raise TruncationLoss(
                f"generation {n} blocks need depth at least {n + 2}, got {depth}"
            )
        flat1 = [v for vertex in unitary.blocks1[n] for v in basis1[vertex].vectors]
        flat2 = [v for vertex in unitary.blocks2[n] for v in basis2[vertex].vectors]
        images = np.column_stack([shift2.to_array(v) for v in flat2]) @ unitary.generations[n]
        for i, vec1 in enumerate(flat1):
            pairs.append((shift1.to_array(vec1), images[:, i], depth - (n + 1)))
    return _lift_pairs(shift1, shift2, pairs, check_norms=True)


def _residual(lift: LiftedUnitary, trials: int, seed: int) -> float:
    """Largest relative defect |U S1 f - S2 U f| / |f| over random f in the domain."""
    shift1, shift2 = lift.shifts
    rng = np.random.default_rng(seed)
    coefficients = np.zeros((lift.source.shape[1], trials))
    coefficients[list(lift.domain)] = rng.standard_normal((trials, len(lift.domain))).T
    f = lift.source @ coefficients

    def lifted(a: np.ndarray) -> np.ndarray:
        return lift.target @ (lift.source.T @ a)

    gap = lifted(shift1.act(f)) - shift2.act(lifted(f))
    return float(np.max(np.linalg.norm(gap, axis=0) / np.linalg.norm(f, axis=0), initial=0.0))


def verify_intertwining(
    tree1: Tree,
    tree2: Tree,
    q: int,
    unitary: GradedUnitary,
    depth: int,
    trials: int = 16,
    seed: int = 42,
) -> float:
    """Largest relative intertwining defect of the lifted unitary over
    random test vectors supported strictly inside the truncation."""
    return _residual(lift_graded_unitary(tree1, tree2, q, unitary, depth), trials, seed)
