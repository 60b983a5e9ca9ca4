"""Reproducing-kernel coefficient blocks and norms for the function spaces
carried by a tree shift.

Both spaces decompose over the same blocks: the root line plus one block
per branching vertex.  Indexing each block by l (0 for the root line,
depth(v) + 1 for a branching vertex v), the kernel coefficients of block l
are the moments at depth l (``shifts.moment_bases``) of one of the shifts:

    holomorphic Dirichlet side:  (l+1)_n / (l+q)_n   (Cauchy dual)
    Bergman side:                (l+q)_n / (l+1)_n   (Dirichlet shift)

and the corresponding squared-norm weights are the reciprocals.  All
coefficient and norm computations are exact rationals; floating point
enters only through kernel evaluation at points of the disc and the
matrix oracle.  For integer q the coefficients telescope:

    (l+1)_n / (l+q)_n = prod_(i=1..q-1) (l+i) / (l+n+i),

a fixed integer over one of q - 1 factors that is a closed form at every n
(``numerics.pochhammer_ratio_terms``), so a series through order N takes
O(N) steps on integers below (l+N+q)^(q-1).  Every block's coefficients read
off one sequence c(k) = (q)_k / k!: (l+1)_n / (l+q)_n = c(l) / c(l+n).  So a
norm weighs block l at layer n by c(l+n) / c(l) on the Dirichlet side and by
its reciprocal on the Bergman side, from one table of c over the stored
k = l + n and l (``numerics.binomial_table``): binomial coefficients at
integer q, one ``Fraction`` walk up to the largest k at other q.  It costs
O(layers + stored entries) plus that table.  A series coefficient or a
float norm term's weight is an integer quotient u / v, which Python rounds
correctly: the same double as ``float`` of the exact rational.

On the Bergman side the coefficients C(n+l+q-1, q-1) / C(l+q-1, q-1) are
polynomials in n, so at integer q a block's partial sum is a polynomial in
1/(1-x) plus x^(N+1) times another: O(q) work at any order.
``kernel_block_series`` takes that closed form whenever the remainder bound
at |x| is below ``SERIES_TAIL_TOL``, and then adds only roundoff below 1e-14
times the sum of the series' |terms|; above it, at small N with |x| near 1,
the two parts cancel, and the series runs term by term.  On the Dirichlet
side the coefficients split into q - 1 partial fractions A_j / (n+l+j), so at
integer q a block's whole sum is a combination of -log(1-x) and its own
partial sums: O(q + l) work at any order.  It is taken where the remainder
bound of the order is below the tolerance and a rounding bound, which grows
with q and l and as |x| falls, is below ``CLOSED_FORM_RTOL``: the stated
error, relative to the sum of |terms|, on top of the remainder bound.
Elsewhere (small |x|, large q l) the series runs term by term, as it does on
both sides at non-integer q.  Norms visit only the blocks each layer stores.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import OutsideDisc, TruncationLoss, UnknownVertex, WrongQ
from .numerics import (
    binomial_table, pochhammer_ratio, pochhammer_ratio_terms, radial_integral, radial_integral_quadrature
)
from .shifts import (
    DIRICHLET, DUAL, ShiftOperator, depth_moments, kernel_births, kernel_columns, moment_bases, require_q
)
from .trees import Tree

DIRICHLET_SPACE = "dirichlet"
BERGMAN_SPACE = "bergman"

# the shift whose depth-l moments are a space's kernel coefficients of block l
_KERNEL_KIND = {DIRICHLET_SPACE: DUAL, BERGMAN_SPACE: DIRICHLET}


def dirichlet_coefficient(q: int | Fraction, l: int, n: int) -> Fraction:
    """Kernel power-series coefficient of the Dirichlet-side space on
    block ``l``: the n-th Cauchy-dual moment at depth l."""
    return pochhammer_ratio(*moment_bases(q, DUAL, l), n)


def bergman_coefficient(q: int | Fraction, l: int, n: int) -> Fraction:
    """Kernel power-series coefficient of the Bergman-side space."""
    return 1 / dirichlet_coefficient(q, l, n)


@dataclass(frozen=True)
class KernelBlockSpec:
    """Block layout of the cokernel: (block id, radial-weight index) pairs.

    Block id None is the root line; otherwise the branching vertex.
    """

    blocks: tuple[tuple[str | None, int], ...]


def kernel_block_spec(tree: Tree) -> KernelBlockSpec:
    depth = tree.depth  # read entry by entry: a fancy-indexed copy costs more than it saves on a few blocks
    ids = tree._branch_ids.tolist()
    blocks = ((v, depth.item(i) + 1) for (v, _count), i in zip(tree.branching_vertices(), ids))
    return KernelBlockSpec(blocks=((None, 0), *blocks))


def kernel_block_series(q: int | Fraction, l: int, x: complex, order: int, space: str) -> complex:
    """Block ``l``'s kernel series at x = z conj(w), through ``order`` or whole.

    At integer q a block whose remainder bound at |x| (``_tail_bound``) is below
    ``SERIES_TAIL_TOL`` is summed in closed form: a Bergman block's partial sum
    through ``order`` (``_bergman_block``), and, where its rounding bound
    (``_dirichlet_rounding_ok``) is below ``CLOSED_FORM_RTOL``, a Dirichlet
    block's whole sum (``_dirichlet_block``), which lies within that remainder
    bound of the partial sum.  Every other block is the partial sum of its
    series, one term per power of x.
    """
    kind = _kernel_kind(q, space, order)
    if q.denominator == 1 and _tail_below_tol(int(q), space, abs(x), order):
        m = int(q) - 1
        if space == BERGMAN_SPACE:
            return _bergman_block(m, l, complex(x), order)
        if _dirichlet_rounding_ok(m, l, abs(x)):
            return _dirichlet_block(m, l, complex(x))
    total, power = 0j, 1 + 0j
    for u, v in pochhammer_ratio_terms(*moment_bases(q, kind, l), order):
        total += (u / v) * power
        power *= x
    return total


def _kernel_kind(q: int | Fraction, space: str, order: int) -> str:
    """The shift whose moments are ``space``'s kernel coefficients; rejects an
    unknown space, a q outside q >= 1 and a negative order."""
    if space not in _KERNEL_KIND:
        raise ValueError(f"unknown space {space!r}")
    require_q(q)
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    return _KERNEL_KIND[space]


def _bergman_block(m: int, l: int, x: complex, order: int) -> complex:
    """The Bergman block's partial sum through ``order`` at q = m + 1, in O(q).

    Its coefficients C(n+l+m, m) / C(l+m, m) are polynomials in n, and with
    y = 1/(1-x) Vandermonde's identity sums them to

        sum_(j=0..m) (C(l+m-1-j, m-j) - x^(N+1) C(l+N+m-j, m-j)) y^(j+1) / C(l+m, m),

    C(-1, 0) = 1.  The x^(N+1) part is the series' remainder, so it is as small
    as the remainder bound; each of its coefficients is taken times x^(N+1)
    before any power of y, so that a coefficient above a float's range meets a
    power that has underflowed.  Taken only below the tolerance: at small N
    and |x| near 1 the two parts cancel.
    """
    y, power = 1 / (1 - x), x ** (order + 1)
    scale = math.comb(l + m, m)
    head = tail = 0j
    for j in range(m, -1, -1):  # Horner in y
        head = (head + (math.comb(l + m - 1 - j, m - j) if l + m > j else 1) / scale) * y
        tail = (tail + power * (math.comb(l + order + m - j, m - j) / scale)) * y
    return head - tail


def _dirichlet_block(m: int, l: int, x: complex) -> complex:
    """The Dirichlet block's whole sum 2F1(1, l+1; l+m+1; x) at q = m + 1, in O(q + l).

    Its coefficients (l+1)_m / (l+n+1)_m split into partial fractions
    sum_(j=1..m) A_j / (n+l+j), A_j = (-1)^(j-1) m C(m-1, j-1) C(l+m, m), and
    sum_n x^n / (n+a) = x^(-a) (-log(1-x) - S_(a-1)), S_a = sum_(k=1..a) x^k / k, so

        sum_(j=1..m) A_j (-log(1-x) - S_(l+j-1)) / x^(l+j),

    one running S for the m terms; 1/(1-x) at m = 0.  The A_j alternate in sign
    and the differences cancel, so it is taken only where
    ``_dirichlet_rounding_ok`` bounds the roundoff.
    """
    if m == 0:
        return 1 / (1 - x)
    log = -cmath.log(1 - x)
    partial, power = 0j, 1 + 0j
    for k in range(1, l + 1):
        power *= x
        partial += power / k
    scale, total = m * math.comb(l + m, m), 0j
    for j in range(1, m + 1):
        power *= x
        total += (-1) ** (j - 1) * scale * math.comb(m - 1, j - 1) * ((log - partial) / power)
        partial += power / (l + j)
    return total


# remainder bound that ``kernel_series_order`` keeps a truncated series below;
# the closed form of a Bergman block adds only roundoff, below 1e-14 times the
# sum of the series' |terms| (the sum at |x|)
SERIES_TAIL_TOL = 1e-12
# relative error of a Dirichlet block in closed form, against the sum of the
# series' |terms|, on top of the remainder bound: its rounding bound stays below it
CLOSED_FORM_RTOL = 1e-13


def _tail_below_tol(q: int, space: str, radius: float, order: int) -> bool:
    """Whether the remainder bound of the order-``order`` sum at ``radius`` is
    below ``SERIES_TAIL_TOL``; a bound past a float's range is not."""
    try:
        return radius < 1.0 and _tail_bound(q, space, radius, order) < SERIES_TAIL_TOL
    except OverflowError:
        return False


def _dirichlet_rounding_ok(m: int, l: int, radius: float) -> bool:
    """Whether the rounding bound eps sum_j |A_j| (1 + |log(1-r)|) / r^(l+m) of
    ``_dirichlet_block`` at q = m + 1 is below ``CLOSED_FORM_RTOL``, with
    sum_j |A_j| = m 2^(m-1) C(l+m, m).  Compared times r^(l+m), so that no small
    r divides; a bound past a float's range is not below."""
    if m == 0:  # 1/(1-x)
        return True
    try:
        weight = float(m * 2 ** (m - 1) * math.comb(l + m, m))
        rounding = sys.float_info.epsilon * weight * (1.0 - math.log1p(-radius))
        return rounding < CLOSED_FORM_RTOL * radius ** (l + m)
    except OverflowError:
        return False


def _tail_bound(q: int, space: str, radius: float, n: int) -> float:
    """The remainder bound of the order-n partial sum: r^(n+1)/(1-r), times
    (n+q)^(q-1) on the Bergman side."""
    bound = radius ** (n + 1) / (1.0 - radius)
    if space == BERGMAN_SPACE:
        bound *= float(n + q) ** (q - 1)
    return bound


def kernel_series_order(q: int, space: str, radius: float) -> int:
    """Smallest truncation order whose remainder bound stays below
    ``SERIES_TAIL_TOL``.

    Dirichlet-side coefficients are bounded by 1, giving the geometric
    tail bound r^(N+1)/(1-r); Bergman-side coefficients grow like
    (n+q)^(q-1), which multiplies the bound.  The search starts where the
    logarithm of the bound crosses that of the tolerance: in closed form on
    the Dirichlet side, by Newton steps on the Bergman side, where the
    logarithm is concave and the first crossing lies on its decreasing
    branch.  It then steps with ``_tail_bound`` itself, so the order is the
    first n of the walk n = 0, 1, 2, ... whose bound is below the tolerance.
    """
    q = require_q(q)
    if space not in _KERNEL_KIND:
        raise ValueError(f"unknown space {space!r}")
    if not 0.0 <= radius < 1.0:
        raise OutsideDisc(f"radius {radius}")
    if _tail_bound(q, space, radius, 0) < SERIES_TAIL_TOL:
        return 0
    log_r = math.log(radius)
    target = math.log(SERIES_TAIL_TOL * (1.0 - radius))
    n = target / log_r - 1
    if space == BERGMAN_SPACE:
        # g(n) = (n+1) ln r + (q-1) ln(n+q) - target, from the right of its peak:
        # a concave g makes every Newton step land right of the root
        n = max(n, (q - 1) / -log_r - q) + 1
        for _ in range(64):
            step = ((n + 1) * log_r + (q - 1) * math.log(n + q) - target) / (log_r + (q - 1) / (n + q))
            n -= step
            if abs(step) < 0.5:
                break
    n = max(math.floor(n), 0)
    # the start lies within a step or two of the first order below the tolerance
    while n > 0 and _tail_bound(q, space, radius, n - 1) < SERIES_TAIL_TOL:
        n -= 1
    while _tail_bound(q, space, radius, n) >= SERIES_TAIL_TOL:
        n += 1
    return n


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

    Each block of the kernel acts as the scalar ``kernel_block_series``: the
    partial sum through ``order`` of its series or, for a Dirichlet block in
    closed form, its whole sum, within the remainder bound of that partial sum.
    So coordinates scale blockwise; the series is summed once per distinct
    block index l among the blocks of ``g``.  Blocks missing from ``g`` are zero.
    """
    _kernel_kind(q, space, order)
    if abs(z) >= 1 or abs(w) >= 1:
        raise OutsideDisc(f"|z|={abs(z)}, |w|={abs(w)}")
    x = complex(z) * complex(w).conjugate()
    weight_index = dict(spec.blocks)
    for block_id in g:
        if block_id not in weight_index:
            raise UnknownVertex(f"no block {block_id!r}")
    factors = {l: kernel_block_series(q, l, x, order, space) for l in dict.fromkeys(weight_index[b] for b in g)}
    return {block_id: tuple(factors[weight_index[block_id]] * c for c in coords) for block_id, coords in g.items()}


# -- graded functions and their norms ------------------------------------------


def _rational_or_abs(c: complex) -> int | Fraction | float:
    """c as an int or ``Fraction`` if it is rational (numpy integers too, whose squares would overflow), else |c|."""
    return (int(c) if isinstance(c, numbers.Integral) else Fraction(c)) if isinstance(c, numbers.Rational) else abs(c)


def _square(coords: Sequence) -> Fraction | float:
    """Squared norm of a coordinate tuple, exact for rational input."""
    return sum(c * c if isinstance(c, (int, Fraction)) else _rational_or_abs(c) ** 2 for c in coords)


@dataclass(frozen=True)
class GradedFunction:
    """Finitely supported power series with cokernel-valued coefficients.

    ``blocks`` maps each block id to its index l in the tree's block order
    (``kernel_block_spec``: the root line None with l = 0 first).
    ``layers[n]`` is the coefficient of z^n: block id -> coordinates in that
    block's basis, the root line's as a 1-tuple; absent blocks are zero.
    """

    blocks: Mapping[str | None, int]
    layers: tuple[Mapping[str | None, tuple], ...]


def graded_function(
    tree: Tree, layers: Sequence[tuple[complex | Fraction, Mapping[str, Sequence]]]
) -> GradedFunction:
    """Build a graded function over the blocks of ``tree``.

    ``layers[n]`` is a pair (root coordinate, {branching vertex: Helmert
    coordinates}).  Coordinate tuples may be shorter than the block
    dimension; missing entries are zero.
    """
    branching = dict(tree.branching_vertices())
    built = []
    for root_coeff, blocks in layers:
        layer = {None: (root_coeff,)}
        for v, coords in blocks.items():
            count = branching.get(v)
            if count is None:
                raise UnknownVertex(f"{v!r} is not a branching vertex")
            if len(coords) > count - 1:
                raise ValueError(f"block {v!r} has dimension {count - 1}")
            layer[v] = tuple(coords)
        built.append(layer)
    return GradedFunction(blocks=dict(kernel_block_spec(tree).blocks), layers=tuple(built))


def _graded_sum(
    f: GradedFunction, table: Callable[[set[int]], Mapping[int, int]], reciprocal: bool
) -> Fraction | float:
    """Sum over layers n and the blocks each layer stores, of index l, of the block's
    squared coordinates s times c(l+n) / c(l), or its reciprocal, with c the positive
    integers that ``table`` returns for the set of every stored k = l + n and l.

    Exact s are summed per (l, k) and then per l, and the sum is one ``Fraction``:
    sum_l (E // c(l)) sum_k s c(k) / E with E the lcm of the c(l), or, reciprocal,
    sum_l c(l) sum_k s (D // c(k)) / D with D the lcm of the c(k), shared by every
    index.  Float s add s * (c(k) / c(l)), the double of s times the exact weight, in
    (layer, block-table) order."""
    blocks = f.blocks
    rows: dict[int, dict[int, int | Fraction]] = {}  # l -> {k: the exact s at k summed, 0 if only float s}
    inexact: list[tuple[int, int, int, float]] = []  # (n, table position, l, s)
    position: dict | None = None
    for n, layer in enumerate(f.layers):
        for b, coords in layer.items():
            l = blocks.get(b)
            if l is None:  # not a block of the table
                continue
            s = 0
            for c in coords:  # Python ints and Fractions square here, anything else in _square
                if type(c) is int or type(c) is Fraction:
                    s += c * c
                else:
                    s = _square(coords)
                    break
            if not s:
                continue
            row = rows.get(l)
            if row is None:
                row = rows[l] = {}
            if isinstance(s, (int, Fraction)):
                row[l + n] = row.get(l + n, 0) + s
            else:
                row.setdefault(l + n, 0)
                if position is None:
                    position = {block: i for i, block in enumerate(blocks)}
                inexact.append((n, position[b], l, s))
    ks = set().union(*rows.values())
    coeff = table(ks.union(rows))
    if reciprocal:
        den = math.lcm(*map(coeff.__getitem__, ks))
        inner, outer = {k: den // coeff[k] for k in ks}, coeff
    else:
        den = math.lcm(*map(coeff.__getitem__, rows))
        inner, outer = coeff, {l: den // coeff[l] for l in rows}
    products = (outer[l] * sum(map(operator.mul, row.values(), map(inner.__getitem__, row))) for l, row in rows.items())
    total = Fraction(sum(products), den)
    if not inexact:
        return total
    inexact.sort(key=lambda entry: entry[:2])
    value = 0.0
    for n, _position, l, s in inexact:
        value += s * (coeff[l] / coeff[l + n] if reciprocal else coeff[l + n] / coeff[l])
    return total + value


def _graded_norm(f: GradedFunction, q: int | Fraction, reciprocal: bool) -> Fraction | float:
    """Squared norm whose weight at block l and layer n is c(l+n) / c(l), c(k) = (q)_k / k!
    (``binomial_table``), or its reciprocal."""
    q = require_q(q)  # checked also for a function with no entries
    return _graded_sum(f, lambda ks: binomial_table(q, ks), reciprocal)


def dirichlet_norm(f: GradedFunction, q: int | Fraction) -> Fraction | float:
    """Squared norm in the Dirichlet-side space (exact for rational input)."""
    return _graded_norm(f, q, False)


def bergman_norm(f: GradedFunction, q: int | Fraction) -> Fraction | float:
    """Squared norm in the Bergman-side space (reciprocal layer weights)."""
    return _graded_norm(f, q, True)


def h2_norm_via_measure_decomposition(f: GradedFunction) -> Fraction | float:
    """Squared q=2 norm split as Hardy energy plus weighted Dirichlet energy.

    The density of the boundary measure is 1/(l+1) on the block of index l,
    so the energy term of layer n carries the factor n: the weight (l+1+n)/(l+1).
    Agrees with :func:`dirichlet_norm` at q = 2 exactly; the weight is written
    out, not read off the moments, so that the two routes stay independent.
    """
    return _graded_sum(f, lambda ks: {k: k + 1 for k in ks}, False)


def dirichlet_measure_weights(tree: Tree) -> dict[str | None, Fraction]:
    """Blockwise density of the boundary measure representing the q=2 norm."""
    return {b: Fraction(1, l + 1) for b, l in kernel_block_spec(tree).blocks}


# -- matrix oracle ---------------------------------------------------------------


def _births_in_reach(shift: ShiftOperator, power: int) -> list[int]:
    """``kernel_births`` of a Cauchy-dual shift whose truncation holds ``power``
    pushes of every column born inside it; else ``TruncationLoss`` names the
    smallest horizon that does, which may take in deeper births."""
    if shift.kind != DUAL:
        raise ValueError("kernel oracle is defined through the Cauchy-dual shift")
    births = [l for _block, l in kernel_block_spec(shift.tree).blocks]
    needed = next(h for h in itertools.count(shift.horizon) if max(g for g in births if g <= h) + power <= h)
    if needed > shift.horizon:
        raise TruncationLoss(f"powers up to {power} leave horizon {shift.horizon}; needs horizon {needed}")
    return kernel_births(shift.trunc)


def kernel_matrix_oracle(shift: ShiftOperator, j: int, k: int) -> np.ndarray:
    """Compress S*^j S^k of the Cauchy-dual shift to the cokernel.

    Computed numerically by the array action of the truncated shift on the
    cokernel columns of every generation, placed on that generation's rows
    of one array; the result should vanish for j != k and be block-diagonal
    with the Dirichlet-side kernel coefficients on the diagonal for j = k.
    """
    born = _births_in_reach(shift, max(j, k))
    trunc = shift.trunc
    columns = np.zeros((len(shift.weights), sum(born)))
    col = 0
    for g, count in enumerate(born):
        start, end = trunc.span(g)
        columns[start:end, col : col + count] = kernel_columns(trunc, g)
        col += count
    image = columns
    for _ in range(k):
        image = shift.act(image)
    for _ in range(j):
        image = shift.act_adjoint(image)
    return columns.T @ image


def kernel_compression_maxima(shift: ShiftOperator, nmax: int) -> tuple[float, float]:
    """The two maxima of ``kernel_matrix_oracle`` over all j, k <= nmax, in closed form.

    Returns (largest |entry| of the j != k compressions, largest |entry -
    expected| of the j = k ones, whose diagonal carries the Dirichlet
    coefficient of index g at power j on the columns born on generation g), each
    entry read as <S^j a, S^k b> for cokernel columns a, b.  The S^p e_u of one
    generation have disjoint supports, so every entry is fixed by d_p(u) =
    ||S^p e_u||^2, one ``np.bincount`` over ``parent_index`` per power.  A group
    of m siblings c_i, with d_i = d_p(c_i) and S_k = sum_(i<k) d_i, carries the
    Helmert columns h_k (k = 1..m-1) born on their generation g:

    - <S^p h_k, S^p h_k> = (S_k + k^2 d_k)/(k(k+1)), against the coefficient
      of index g at power p; columns of other groups are disjoint from h_k;
    - <S^p h_j, S^p h_k> = (S_j - j d_j)/sqrt(j(j+1)k(k+1)) for j < k, largest
      at k = j + 1;
    - a column born t + 1 generations above g equals x w_i on c_i, x its value
      at the group's parent P after t pushes, so its overlap with S^p h_k is
      |x| |sum_(i<k) w_i d_i - k w_k d_k| / sqrt(k(k+1)).  The largest |x| is
      A_t(P): A_0 is the largest |Helmert entry| at a position (1 at the
      root) and A_t = |w| A_(t-1)(parent), taken over t <= nmax - p - 1.

    Sums run over d_i - d_0 inside each group, so roundoff scales with the
    deviation from depth-only values, not with the group width.
    """
    born = _births_in_reach(shift, nmax)
    parent, w = shift.trunc.parent_index, shift.weights
    d = np.ones((nmax + 1, len(parent)))
    for p in range(1, nmax + 1):
        d[p] = np.bincount(parent, w * w * d[p - 1], minlength=len(parent))
    children = np.bincount(parent[1:], minlength=len(parent))
    first = np.cumsum(children) - children + 1  # the position of each vertex's first child
    owners = np.flatnonzero(children >= 2)  # the vertices whose children branch, in truncation order
    firsts, sizes = first[owners], children[owners]
    place = np.arange(len(parent)) - first[parent]  # index among siblings
    del first  # n entries, freed before the nmax x n `reach` array is made
    # entries -sqrt(i/(i+1)) of h_i and 1/sqrt((i+1)(i+2)) of h_(i+1) at child i, 1/sqrt(2) at child 0
    helmert = np.sqrt(np.maximum(place, 0.5) / np.maximum(place + 1, 1))
    reach = np.empty((nmax, len(parent)))  # row t: A_t; sliced below, as nmax 0 leaves no row
    reach[:1] = np.where(children[parent] < 2, 0.0, helmert)
    reach[:1, 0] = 1.0  # the root line
    for t in range(1, nmax):
        np.multiply(np.abs(w), reach[t - 1][parent], out=reach[t])
    reach = np.maximum.accumulate(reach, axis=0, out=reach)[::-1]  # row p: the largest A_t over t <= nmax - p - 1
    last = int(np.flatnonzero(born)[-1])  # the deepest birth
    coefficients = np.array([[u / v for u, v in depth_moments(shift.q, DUAL, g, nmax)] for g in range(last + 1)])
    diag_worst = float(np.max(np.abs(d[:, 0] - coefficients[0])))
    off_worst = 0.0
    generation = np.searchsorted(shift.trunc.offsets, firsts, side="right") - 1
    for m in np.unique(sizes).tolist():
        picked = sizes == m
        kids = firsts[picked][:, None] + np.arange(m)
        k = np.arange(1.0, m)
        dk = d[:, kids]  # (power, group, child)
        dev = dk - dk[..., :1]
        prefix = np.cumsum(dev[..., :-1], axis=-1)
        expected = coefficients[generation[picked]].T[..., None]
        diagonal = dk[..., :1] - expected + (prefix + k * k * dev[..., 1:]) / (k * (k + 1))
        same = np.abs(prefix - k * dev[..., 1:])[..., :-1] / np.sqrt(k * (k + 1) * (k + 1) * (k + 2))[:-1]
        diag_worst = max(diag_worst, float(np.max(np.abs(diagonal))), float(np.max(same, initial=0.0)))
        moved = w[kids] * dk[:-1]
        moved -= moved[..., :1]
        overlap = np.abs(np.cumsum(moved[..., :-1], axis=-1) - k * moved[..., 1:]) / np.sqrt(k * (k + 1))
        off_worst = max(off_worst, float(np.max(overlap * reach[:, parent[kids[:, 0]], None], initial=0.0)))
    return off_worst, diag_worst


# -- radial weights of the Bergman measure ----------------------------------------


def radial_weight(q: int, l: int) -> dict[int, Fraction]:
    """Exact coefficients {j: c} of |z|^(2j) in the polynomial density w_l
    of the block of index l, for integer q >= 2 and l >= 0."""
    require_q(q)
    if not isinstance(q, numbers.Integral) or q < 2:
        raise WrongQ(f"radial weights require integer q >= 2, got {q!r}")
    if l < 0:
        raise ValueError("l must be nonnegative")
    prefactor = Fraction(math.prod(l + i for i in range(1, q)))
    coefficients: dict[int, Fraction] = {}
    for i in range(1, q):
        denominator = (-1) ** (i - 1) * math.factorial(i - 1) * math.factorial(q - 1 - i)
        coefficients[i + l - 1] = prefactor / denominator
    return coefficients


def bergman_weight_moment(q: int, l: int, n: int) -> tuple[Fraction, float]:
    """Disc integral of |z|^(2n) w_l(z): exact value and quadrature value.

    The exact value equals the Bergman-side squared-norm weight
    (l+1)_n/(l+q)_n of the block with radial index l.
    """
    weight = radial_weight(q, l)
    exact = radial_integral({j + n: c for j, c in weight.items()})
    quad = radial_integral_quadrature(lambda t: t**n * sum(float(c) * t**j for j, c in weight.items()))
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
    (l+n)(k+n-1) <= (l+n-1)(k+n), whose right side minus its left is
    l - k at every n; so it holds for every n exactly when l >= k.
    """
    if k < 1 or l < 1:
        raise ValueError("bases must be at least 1")
    passed = l >= k or bound < 1
    return PickReport(passed=passed, checked_through=bound, witness=None if passed else 1)


def pick_property_check(q: int, branch_depth: int | None, bound: int) -> PickReport:
    """Log-convexity of a Dirichlet-side block's kernel coefficients.

    ``branch_depth`` is None for the root line and the depth of the
    branching vertex otherwise; the block's index is l = branch_depth + 1.
    """
    l = 0 if branch_depth is None else branch_depth + 1
    return log_convexity_check(*moment_bases(q, DUAL, l), bound)
