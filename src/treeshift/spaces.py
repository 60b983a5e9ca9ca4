"""Reproducing-kernel coefficient blocks and norms for the function spaces
carried by a tree shift.

Both spaces decompose over the same blocks: the root line plus one block
per branching vertex.  Indexing each block by l (0 for the root line,
branch depth + 1 otherwise), the power-series kernel coefficients are

    holomorphic Dirichlet side:  (l+1)_n / (l+q)_n
    Bergman side:                (l+q)_n / (l+1)_n

and the corresponding squared-norm weights are the reciprocals.  All
coefficient and norm computations are exact rationals; floating point
enters only through kernel evaluation at points of the disc and the
matrix oracle.  Consecutive coefficients differ by one rational factor,
so a series or norm through order N takes O(N) exact steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import OutsideDisc, TruncationLoss, UnknownVertex, WrongQ
from .numerics import pochhammer_ratios, radial_integral, radial_integral_quadrature
from .shifts import DUAL, ShiftOperator, helmert_columns, require_q
from .trees import Tree

DIRICHLET_SPACE = "dirichlet"
BERGMAN_SPACE = "bergman"


def block_weight_index(branch_depth: int | None) -> int:
    """Radial-weight index l of a block: 0 for the root line, depth+1 else."""
    return 0 if branch_depth is None else branch_depth + 1


def _block_coefficients(q: int | Fraction, l: int, order: int, space: str) -> Iterator[Fraction]:
    """Kernel coefficients of block ``l`` for n = 0..order; Bergman swaps the Dirichlet pair."""
    require_q(q)
    if space == DIRICHLET_SPACE:
        return pochhammer_ratios(l + 1, l + q, order)
    if space == BERGMAN_SPACE:
        return pochhammer_ratios(l + q, l + 1, order)
    raise ValueError(f"unknown space {space!r}")


def dirichlet_coefficient(q: int | Fraction, branch_depth: int | None, n: int) -> Fraction:
    """Kernel power-series coefficient of the Dirichlet-side space.

    ``branch_depth`` is None for the root-line block and the depth of the
    branching vertex otherwise.
    """
    *_, value = _block_coefficients(q, block_weight_index(branch_depth), n, DIRICHLET_SPACE)
    return value


def bergman_coefficient(q: int | Fraction, branch_depth: int | None, n: int) -> Fraction:
    """Kernel power-series coefficient of the Bergman-side space."""
    return 1 / dirichlet_coefficient(q, branch_depth, n)


@dataclass(frozen=True)
class KernelBlockSpec:
    """Block layout of the cokernel: (block id, radial-weight index) pairs.

    Block id None is the root line; otherwise the branching vertex.
    """

    blocks: tuple[tuple[str | None, int], ...]


def kernel_block_spec(tree: Tree) -> KernelBlockSpec:
    blocks: list[tuple[str | None, int]] = [(None, 0)]
    for v, _count in tree.branching_vertices():
        blocks.append((v, tree.depth_of(v) + 1))
    return KernelBlockSpec(blocks=tuple(blocks))


def kernel_block_series(
    q: int | Fraction, branch_depth: int | None, x: complex, order: int, space: str
) -> complex:
    """Partial sum through ``order`` of the block's kernel series at x = z conj(w)."""
    total, power = 0j, 1 + 0j
    for coefficient in _block_coefficients(q, block_weight_index(branch_depth), order, space):
        total += float(coefficient) * power
        power *= x
    return total


def kernel_series_order(
    q: int, space: str, radius: float, tol: float = 1e-12
) -> int:
    """Smallest truncation order whose remainder bound stays below ``tol``.

    Dirichlet-side coefficients are bounded by 1, giving the geometric
    tail bound r^(N+1)/(1-r); Bergman-side coefficients grow like
    (n+q)^(q-1), which multiplies the bound.
    """
    if not 0.0 <= radius < 1.0:
        raise OutsideDisc(f"radius {radius}")
    if radius == 0.0:
        return 0
    n = 0
    while True:
        bound = radius ** (n + 1) / (1.0 - radius)
        if space == BERGMAN_SPACE:
            bound *= float(n + q) ** (q - 1)
        if bound < tol:
            return n
        n += 1


def kernel_apply(
    spec: KernelBlockSpec,
    q: int | Fraction,
    space: str,
    z: complex,
    w: complex,
    g: Mapping[str | None, Sequence[complex]],
    order: int,
) -> dict[str | None, tuple[complex, ...]]:
    """Apply the truncated kernel at (z, w) to block coordinates ``g``.

    Each block of the kernel acts as the scalar partial sum of its series,
    so coordinates scale blockwise.  Blocks missing from ``g`` are zero.
    """
    if abs(z) >= 1 or abs(w) >= 1:
        raise OutsideDisc(f"|z|={abs(z)}, |w|={abs(w)}")
    x = complex(z) * complex(w).conjugate()
    weight_index = dict(spec.blocks)
    out: dict[str | None, tuple[complex, ...]] = {}
    for block_id, coords in g.items():
        if block_id not in weight_index:
            raise UnknownVertex(f"no block {block_id!r}")
        l = weight_index[block_id]
        branch_depth = None if l == 0 else l - 1
        factor = kernel_block_series(q, branch_depth, x, order, space)
        out[block_id] = tuple(factor * c for c in coords)
    return out


# -- graded functions and their norms ------------------------------------------


def _sq(x) -> Fraction | float:
    """Squared modulus, exact for rational input."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x) ** 2
    return abs(x) ** 2


@dataclass(frozen=True)
class GradedLayer:
    """Coefficient of one power of z: a root coordinate plus, per branching
    vertex, coordinates in that block's Helmert basis."""

    root: complex | Fraction
    blocks: Mapping[str, tuple[complex | Fraction, ...]]

    def block_square(self, v: str) -> Fraction | float:
        return sum((_sq(c) for c in self.blocks.get(v, ())), start=Fraction(0))


@dataclass(frozen=True)
class GradedFunction:
    """Finitely supported power series with cokernel-valued coefficients."""

    block_depths: Mapping[str, int]
    layers: tuple[GradedLayer, ...]


def graded_function(
    tree: Tree, layers: Sequence[tuple[complex | Fraction, Mapping[str, Sequence]]]
) -> GradedFunction:
    """Build a graded function over the blocks of ``tree``.

    ``layers[n]`` is a pair (root coordinate, {branching vertex: Helmert
    coordinates}).  Coordinate tuples may be shorter than the block
    dimension; missing entries are zero.
    """
    branching = dict(tree.branching_vertices())
    depths = {v: tree.depth_of(v) for v in branching}
    built = []
    for root_coeff, blocks in layers:
        for v, coords in blocks.items():
            if v not in branching:
                raise UnknownVertex(f"{v!r} is not a branching vertex")
            if len(coords) > branching[v] - 1:
                raise ValueError(f"block {v!r} has dimension {branching[v] - 1}")
        built.append(
            GradedLayer(root=root_coeff, blocks={v: tuple(c) for v, c in blocks.items()})
        )
    return GradedFunction(block_depths=depths, layers=tuple(built))


def _graded_norm(f: GradedFunction, q: int | Fraction, dual: str) -> Fraction | float:
    """Squared norm whose layer weights are the kernel coefficients of the
    ``dual`` space, built once per distinct block depth (None: root line)."""
    order = len(f.layers) - 1
    depths = {None, *f.block_depths.values()}
    weights = {d: list(_block_coefficients(q, block_weight_index(d), order, dual)) for d in depths}
    total = Fraction(0)
    for n, layer in enumerate(f.layers):
        total = total + _sq(layer.root) * weights[None][n]
        for v, d in f.block_depths.items():
            square = layer.block_square(v)
            if square:
                total = total + square * weights[d][n]
    return total


def dirichlet_norm(f: GradedFunction, q: int | Fraction) -> Fraction | float:
    """Squared norm in the Dirichlet-side space (exact for rational input)."""
    return _graded_norm(f, q, BERGMAN_SPACE)


def bergman_norm(f: GradedFunction, q: int | Fraction) -> Fraction | float:
    """Squared norm in the Bergman-side space (reciprocal layer weights)."""
    return _graded_norm(f, q, DIRICHLET_SPACE)


def h2_norm_via_measure_decomposition(f: GradedFunction, q: int = 2) -> Fraction | float:
    """Squared q=2 norm split as Hardy energy plus weighted Dirichlet energy.

    The density of the boundary measure is 1 on the root line and
    1/(depth+2) on the block of each branching vertex, so the energy term
    of layer n carries the factor n.  Agrees with :func:`dirichlet_norm`
    at q = 2 exactly.
    """
    if q != 2:
        raise WrongQ("measure decomposition is specific to q = 2")
    total = Fraction(0)
    for n, layer in enumerate(f.layers):
        hardy = _sq(layer.root) + sum(
            (layer.block_square(v) for v in f.block_depths), start=Fraction(0)
        )
        energy = _sq(layer.root) + sum(
            (layer.block_square(v) / (d + 2) for v, d in f.block_depths.items()),
            start=Fraction(0),
        )
        total = total + hardy + n * energy
    return total


def dirichlet_measure_weights(tree: Tree) -> dict[str | None, Fraction]:
    """Blockwise density of the boundary measure representing the q=2 norm."""
    weights: dict[str | None, Fraction] = {None: Fraction(1)}
    for v, _count in tree.branching_vertices():
        weights[v] = Fraction(1, tree.depth_of(v) + 2)
    return weights


# -- matrix oracle ---------------------------------------------------------------


def _kernel_blocks(shift: ShiftOperator) -> list[tuple[str, int]]:
    """(branching vertex, depth) of each Helmert block of ``kernel_basis``, in its order."""
    depths = ((v, shift.tree.depth_of(v)) for v, _count in shift.tree.branching_vertices())
    return [(v, depth) for v, depth in depths if depth < shift.horizon]


def kernel_matrix_oracle(shift: ShiftOperator, j: int, k: int) -> np.ndarray:
    """Compress S*^j S^k of the Cauchy-dual shift to the cokernel.

    Computed numerically by the array action of the truncated shift on the
    columns of ``kernel_basis``, built as one array; the result should
    vanish for j != k and be block-diagonal with the Dirichlet-side kernel
    coefficients on the diagonal for j = k.
    """
    if shift.kind != DUAL:
        raise ValueError("kernel oracle is defined through the Cauchy-dual shift")
    blocks = _kernel_blocks(shift)
    deepest = max((depth + 1 for _v, depth in blocks), default=0)
    if deepest + max(j, k) > shift.horizon:
        raise TruncationLoss(
            f"powers ({j}, {k}) from depth {deepest} leave horizon {shift.horizon}"
        )
    size = len(shift.trunc.vertices)
    groups = [shift.tree.children[v] for v, _depth in blocks]
    # the root line, then the Helmert blocks
    columns = np.hstack([np.eye(size, 1), helmert_columns(shift.trunc, groups, 0, size)])
    image = columns
    for _ in range(k):
        image = shift.act(image)
    for _ in range(j):
        image = shift.act_adjoint(image)
    return columns.T @ image


def kernel_oracle_expected(shift: ShiftOperator, n: int) -> np.ndarray:
    """Exact diagonal the oracle must reproduce at j = k = n."""
    blocks = [(None, 1)]  # (branch depth, dimension), the root line first
    blocks += [(depth, len(shift.tree.children[v]) - 1) for v, depth in _kernel_blocks(shift)]
    values = [float(dirichlet_coefficient(shift.q, depth, n)) for depth, _dim in blocks]
    return np.diag(np.repeat(values, [dim for _depth, dim in blocks]))


# -- radial weights of the Bergman measure ----------------------------------------


@dataclass(frozen=True)
class RadialWeightFamily:
    """Polynomial-in-|z|^2 density w_l attached to a block of index l.

    ``coefficients`` maps the exponent j of |z|^(2j) to its exact
    coefficient.
    """

    q: int
    l: int
    coefficients: Mapping[int, Fraction]

    def __call__(self, t: float) -> float:
        return float(sum(float(c) * t**j for j, c in self.coefficients.items()))


def radial_weight(q: int, l: int) -> RadialWeightFamily:
    """Exact coefficients of w_l for integer q >= 2 and l >= 0."""
    if q < 2:
        raise WrongQ("radial weights require integer q >= 2")
    if l < 0:
        raise ValueError("l must be nonnegative")
    prefactor = Fraction(math.prod(l + i for i in range(1, q)))
    coefficients: dict[int, Fraction] = {}
    for i in range(1, q):
        denominator = (-1) ** (i - 1) * math.factorial(i - 1) * math.factorial(q - 1 - i)
        coefficients[i + l - 1] = prefactor / denominator
    return RadialWeightFamily(q=q, l=l, coefficients=coefficients)


def bergman_weight_moment(q: int, l: int, n: int) -> tuple[Fraction, float]:
    """Disc integral of |z|^(2n) w_l(z): exact value and quadrature value.

    The exact value equals the Bergman-side squared-norm weight
    (l+1)_n/(l+q)_n of the block with radial index l.
    """
    family = radial_weight(q, l)
    shifted = {j + n: c for j, c in family.coefficients.items()}
    exact = radial_integral(shifted)
    quad = radial_integral_quadrature(lambda t: t**n * family(t))
    return exact, quad


# -- complete Pick certification ----------------------------------------------------


@dataclass(frozen=True)
class PickReport:
    passed: bool
    checked_through: int
    witness: int | None = None


def log_convexity_check(k: int, l: int, bound: int) -> PickReport:
    """Exact check that c_n = (k)_n/(l)_n is log-convex for 1 <= n <= bound.

    Log-convexity of the kernel coefficients is the sufficient condition
    for the complete Pick property used here; it reduces to
    (l+n)(k+n-1) <= (l+n-1)(k+n), which holds exactly when l >= k.
    """
    if k < 1 or l < 1:
        raise ValueError("bases must be at least 1")
    for n in range(1, bound + 1):
        if (l + n) * (k + n - 1) > (l + n - 1) * (k + n):
            return PickReport(passed=False, checked_through=bound, witness=n)
    return PickReport(passed=True, checked_through=bound)


def pick_property_check(q: int, branch_depth: int | None, bound: int) -> PickReport:
    """Log-convexity of a Dirichlet-side block's kernel coefficients."""
    require_q(q)
    l_param = block_weight_index(branch_depth)
    return log_convexity_check(l_param + 1, l_param + q, bound)
