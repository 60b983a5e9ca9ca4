import ast
import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from corpus import (
    CORPUS,
    DOUBLE01,
    FORK2,
    FORK3,
    LINE,
    Reads,
    complete_binary,
    dict_apply,
    dict_apply_adjoint,
    dict_apply_adjoint_power,
    dict_apply_power,
    dict_defect_operator_apply,
    fan,
    named_horizon,
    per_vertex_commutator_diagonal,
    per_vertex_partial_trace,
    prefix_trees,
    pushed_moment_columns,
    pushed_moment_sequence,
    reference_kernel_basis,
    squared_weight_formula,
    to_array,
    vec_norm,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treeshift
from treeshift import DIRICHLET, DUAL, cokernel_dimension, make_shift, tree_from_json
from treeshift.errors import InvalidQ, TruncationLoss, UnknownVertex
from treeshift.numerics import hausdorff_check
from treeshift.shifts import depth_moments, helmert_adjoint, helmert_apply, helmert_runs, kernel_columns


def vec_inner(f, g):
    """l2 pairing of two sparse vectors, conjugate-linear in the second."""
    return sum((x * complex(g[v]).conjugate() for v, x in f.items() if v in g), 0j)


def _weight(shift, v):
    return shift.weights[shift.trunc.position(v)]


def test_line_tree_weights_q2():
    dirichlet = make_shift(LINE, 2, DIRICHLET, 6)
    dual = make_shift(LINE, 2, DUAL, 6)
    for n in range(1, 6):
        assert _weight(dirichlet, f"r~{n}") == math.sqrt(Fraction(n + 1, n))
        assert _weight(dual, f"r~{n}") == math.sqrt(Fraction(n, n + 1))


def test_fork_weights_q3():
    shift = make_shift(FORK2, 3, DIRICHLET, 4)
    assert _weight(shift, "a") == _weight(shift, "b") == math.sqrt(Fraction(3, 2))


def test_invalid_q():
    with pytest.raises(InvalidQ):
        make_shift(LINE, Fraction(1, 2), DIRICHLET, 4)


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("q", [1, 2, 3, Fraction(3, 2)])
def test_child_weight_sums_are_exact(name, q):
    tree = CORPUS[name]
    shift = make_shift(tree, q, DIRICHLET, 6)
    for n, gen in enumerate(shift.trunc.generations[:-1]):
        for v in gen:
            total = sum(
                (squared_weight_formula(tree, q, DIRICHLET, u) for u in tree.children_of(v)),
                start=Fraction(0),
            )
            assert total == _row_sum(q, n) == Fraction(n + q) / (n + 1)


def _row_sum(q, n):
    """The sum of the Dirichlet squared weights into the children of a depth-n vertex: rho(n),
    the k = 1 moment at depth n."""
    _one, (u, v) = depth_moments(q, DIRICHLET, n, 1)
    return Fraction(u, v)


def test_row_sum_range():
    assert _row_sum(4, 0) == 4
    values = [_row_sum(4, n) for n in range(50)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(value > 1 for value in values)
    assert _row_sum(4, 10**6) - 1 == Fraction(3, 10**6 + 1)


def test_apply_examples():
    fork = make_shift(FORK2, 2, DIRICHLET, 4)
    image = fork.apply({"r": 1.0})
    assert image == {"a": 1.0, "b": 1.0}  # squared weights are exactly 1
    assert fork.apply({}) == {}
    line = make_shift(LINE, 1, DIRICHLET, 4)
    assert line.apply({"r~1": 1.0}) == {"r~2": 1.0}


def test_numpy_complex_coordinates_keep_their_imaginary_part():
    # np.complex64 is not a subclass of complex, unlike np.complex128
    fork = make_shift(FORK2, 2, DIRICHLET, 4)
    x = np.complex64(0.5 - 1.25j)
    assert fork.apply({"r": x}) == {"a": 0.5 - 1.25j, "b": 0.5 - 1.25j}
    for method in (fork.apply, fork.apply_adjoint, lambda g: fork.apply_power(g, 2)):
        for vertex in ("r", "a"):
            assert method({vertex: x}) == method({vertex: complex(x)})


def test_apply_flags_truncation_loss():
    shift = make_shift(LINE, 2, DIRICHLET, 3)
    with pytest.raises(TruncationLoss):
        shift.apply({"r~3": 1.0})


def test_adjoint_examples():
    fork = make_shift(FORK2, 2, DIRICHLET, 4)
    assert fork.apply_adjoint({"r": 1.0}) == {}
    cancel = fork.apply_adjoint({"a": 1.0, "b": -1.0})
    assert abs(cancel.get("r", 0.0)) < 1e-15
    line = make_shift(LINE, 1, DIRICHLET, 4)
    vec = {"r": 0.3, "r~1": -1.2, "r~4": 0.5}
    with pytest.raises(TruncationLoss):
        line.apply(vec)  # touches the horizon
    roundtrip = line.apply_adjoint(line.apply({"r": 0.3, "r~1": -1.2}))
    assert roundtrip == pytest.approx({"r": 0.3, "r~1": -1.2})


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_adjoint_consistency(name):
    tree = CORPUS[name]
    shift = make_shift(tree, 3, DIRICHLET, 6)
    rng = np.random.default_rng(7)
    inside = [v for gen in shift.trunc.generations[:-1] for v in gen]
    for _ in range(5):
        f = {v: rng.standard_normal() for v in inside}
        g = {v: rng.standard_normal() for v in shift.trunc.vertices}
        lhs = vec_inner(shift.apply(f), g)
        rhs = vec_inner(f, shift.apply_adjoint(g))
        assert abs(lhs - rhs) < 1e-12


def test_star_times_shift_is_diagonal():
    shift = make_shift(DOUBLE01, 3, DIRICHLET, 6)
    for n, gen in enumerate(shift.trunc.generations[:-1]):
        for v in gen:
            image = shift.apply_adjoint(shift.apply({v: 1.0}))
            assert set(image) == {v}
            assert image[v] == pytest.approx(float(Fraction(n + 3, n + 1)), abs=1e-13)


@pytest.mark.parametrize("q", [2, 3])
def test_dual_is_shift_times_inverse_gram(q):
    tree = DOUBLE01
    dirichlet = make_shift(tree, q, DIRICHLET, 7)
    dual = make_shift(tree, q, DUAL, 7)
    gram_inverse = np.diag(
        [1.0 / float(_row_sum(q, tree.depth_of(v))) for v in dirichlet.trunc.vertices]
    )
    assert np.max(np.abs(dual.matrix() - dirichlet.matrix() @ gram_inverse)) < 1e-10


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("kind", [DIRICHLET, DUAL])
def test_array_action_equals_dense_matrix(name, kind):
    shift = make_shift(CORPUS[name], 3, kind, 6)
    mat = shift.matrix()
    rng = np.random.default_rng(11)
    n = len(shift.trunc.vertices)
    for a in (rng.standard_normal(n), rng.standard_normal((n, 4))):
        # mass at the horizon drops in both forms
        assert np.array_equal(shift.act(a), mat @ a)
        assert np.allclose(shift.act_adjoint(a), mat.T @ a, rtol=0, atol=1e-14)


_KINDS = st.sampled_from([DIRICHLET, DUAL])
_QS = st.sampled_from([1, 2, 3, 4, Fraction(5, 2)])


@settings(max_examples=60, deadline=None)
@given(
    tree=prefix_trees(),
    q=st.one_of(st.integers(1, 8), st.just(Fraction(5, 2))),
    kind=_KINDS,
    horizon=st.integers(1, 6),
)
def test_weights_factor_as_depth_scalar_times_isometry(tree, q, kind, horizon):
    shift = make_shift(tree, q, kind, horizon)
    assert shift.weights[0] == squared_weight_formula(tree, q, kind, tree.root) == 0
    # A, the weights 1/sqrt(sibling count), from the tree alone
    isometry = np.array([0.0] + [1 / math.sqrt(tree.sibling_count(v)) for v in shift.trunc.vertices[1:]])
    for i, v in enumerate(shift.trunc.vertices[1:], 1):
        n = tree.depth_of(v) - 1
        rho = Fraction(n + q, n + 1) if kind == DIRICHLET else Fraction(n + 1, n + q)
        assert shift.weights[i] == math.sqrt(rho) * isometry[i]
        exact = math.sqrt(squared_weight_formula(tree, q, kind, v))
        assert abs(shift.weights[i] - exact) <= 2 * math.ulp(exact)
    # A*A = I: the squares of A over the children of each vertex above the horizon sum to 1
    sums = np.bincount(shift.trunc.parent_index[1:], weights=isometry[1:] ** 2)
    assert len(sums) == shift.trunc.span(horizon)[0]
    assert np.all(np.abs(sums - 1) <= 4 * math.ulp(1.0))


@pytest.mark.parametrize("q", [1, 2, 3, 6, Fraction(5, 2), Fraction(7, 3), np.int64(3)], ids=str)
@pytest.mark.parametrize("kind", [DIRICHLET, DUAL])
def test_weights_are_the_rounded_row_sums_bit_for_bit(q, kind):
    # sqrt((n+q)/(n+1)) into generation n + 1, or the root of its reciprocal, times 1/sqrt(s)
    for tree in CORPUS.values():
        shift = make_shift(tree, q, kind, 70)
        counts = np.bincount(shift.trunc.parent_index[1:])
        for n, (start, end) in enumerate(zip(shift.trunc.offsets[1:-1].tolist(), shift.trunc.offsets[2:].tolist())):
            a, b = n + int(q) if q.denominator == 1 else n + q, n + 1
            rho = math.sqrt(a / b if kind == DIRICHLET else b / a)
            expected = [(rho * (1.0 / math.sqrt(s))).hex() for s in counts[shift.trunc.parent_index[start:end]].tolist()]
            assert [w.hex() for w in shift.weights[start:end].tolist()] == expected


def test_make_shift_keeps_under_20_bytes_per_vertex():
    # a shift keeps its weights and its truncation's parent map, 16 B per vertex; A and
    # a ray step per vertex, stored too, would add 16 more
    tree = tree_from_json(fan(2000))
    tree.preorder  # the tree's own cache, built once per tree
    tracemalloc.start()
    try:
        shift = make_shift(tree, 2, DIRICHLET, 30)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 20 * len(shift.weights)


@settings(max_examples=60, deadline=None)
@given(tree=prefix_trees(), q=_QS, kind=_KINDS, horizon=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_array_action_equals_dict_action(tree, q, kind, horizon, seed):
    shift = make_shift(tree, q, kind, horizon)
    rng = np.random.default_rng(seed)
    inside = sum(map(len, shift.trunc.generations[:-1]))
    for limit in (inside, len(shift.trunc.vertices)):
        # random values on a random subset of the first ``limit`` vertices
        support = shift.trunc.vertices[:limit]
        f = {v: x for v, x in zip(support, rng.standard_normal(limit)) if rng.random() < 0.6}
        a = to_array(shift, f)
        if limit == inside:  # the dict shift needs room below the support
            assert np.array_equal(shift.act(a), to_array(shift, dict_apply(shift, f)))
        expected = to_array(shift, dict_apply_adjoint(shift, f))
        assert np.allclose(shift.act_adjoint(a), expected, rtol=1e-14, atol=1e-14)


def _outcome(method, f):
    """The image of ``f``, or the type of the package error raised instead."""
    try:
        return method(f)
    except (TruncationLoss, UnknownVertex) as exc:
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(
    tree=prefix_trees(),
    q=_QS,
    kind=_KINDS,
    horizon=st.integers(1, 6),
    k=st.integers(0, 3),
    complex_values=st.booleans(),
    offender=st.sampled_from([None, "unknown", "deep"]),
    seed=st.integers(0, 2**16),
)
def test_vertex_keyed_adapters_equal_per_vertex_references(
    tree, q, kind, horizon, k, complex_values, offender, seed
):
    shift = make_shift(tree, q, kind, horizon)
    rng = np.random.default_rng(seed)
    vertices = shift.trunc.vertices
    values = rng.standard_normal(len(vertices))
    if complex_values:
        values = values + 1j * rng.standard_normal(len(vertices))
    f = {v: x for v, x in zip(vertices, values.tolist()) if rng.random() < 0.6}
    cases = [
        (shift.apply, lambda g: dict_apply(shift, g), 1),
        (shift.apply_adjoint, lambda g: dict_apply_adjoint(shift, g), 0),
        (lambda g: shift.apply_power(g, k), lambda g: dict_apply_power(shift, g, k), k),
        (lambda g: shift.apply_adjoint_power(g, k), lambda g: dict_apply_adjoint_power(shift, g, k), 0),
    ]
    for method, reference, margin in cases:
        # the admissible support, plus one offender at a random place
        items = [(v, x) for v, x in f.items() if tree.depth_of(v) <= horizon - margin]
        if offender == "unknown":
            items.insert(int(rng.integers(len(items) + 1)), ("nowhere", 1.0))
        elif offender == "deep" and margin > 0:
            items.insert(int(rng.integers(len(items) + 1)), (vertices[-1], 1.0))
        got, expected = _outcome(method, dict(items)), _outcome(reference, dict(items))
        if isinstance(got, type) or isinstance(expected, type):
            assert got is expected
            continue
        # the adapters return the nonzero coordinates only
        assert set(got) <= set(expected)
        scale = 1 + max(map(abs, expected.values()), default=0)
        for v, x in expected.items():
            assert abs(got.get(v, 0) - x) <= 1e-12 * scale


_ADAPTERS = {"apply", "apply_adjoint", "apply_power", "apply_adjoint_power"}


def test_only_shifts_uses_the_vertex_keyed_adapters():
    # the package computes on arrays; a new dict path outside shifts.py is a fork
    found = []
    for path in sorted(Path(treeshift.__file__).parent.glob("*.py")):
        if path.name != "shifts.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr in _ADAPTERS:
                    found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert not found


@settings(max_examples=40, deadline=None)
@given(tree=prefix_trees(), horizon=st.integers(1, 5))
def test_kernel_columns_equal_kernel_basis_vectors(tree, horizon):
    shift = make_shift(tree, 2, DIRICHLET, horizon)
    reference = reference_kernel_basis(shift)
    assert shift.kernel_basis() == reference
    blocks = reference.blocks
    for g in range(horizon + 1):
        start, end = shift.trunc.span(g)
        columns = kernel_columns(shift.trunc, g)
        # the root line on generation 0, else the blocks of the depth-(g - 1) vertices in order
        born = [block for block in blocks if block.l == g]
        expected = [to_array(shift, vec)[start:end] for block in born for vec in block.vectors]
        assert columns.shape == (end - start, len(expected))
        for column, vec in zip(columns.T, expected):
            assert np.array_equal(column, vec)


# DOUBLE01 has a run of two siblings and a single child on generation 2, and no
# branching below it
@settings(max_examples=40, deadline=None)
@given(tree=prefix_trees(), horizon=st.integers(1, 5), seed=st.integers(0, 2**16), width=st.integers(1, 3))
@example(tree=DOUBLE01, horizon=4, seed=0, width=2)
def test_helmert_prefix_sums_equal_kernel_columns(tree, horizon, seed, width):
    trunc = tree.truncate(horizon)
    rng = np.random.default_rng(seed)
    for g in range(1, horizon + 1):
        runs = helmert_runs(trunc, g)
        columns = kernel_columns(trunc, g)
        c = rng.standard_normal((columns.shape[1], width))
        z = rng.standard_normal((columns.shape[0], width))
        assert np.max(np.abs(helmert_apply(runs, c) - columns @ c), initial=0.0) < 1e-14
        assert np.max(np.abs(helmert_adjoint(runs, z) - columns.T @ z), initial=0.0) < 1e-14


def _kernel_column_counts(tree, horizon):
    trunc = tree.truncate(horizon)
    counts = [kernel_columns(trunc, g).shape[1] for g in range(horizon + 1)]
    profile = tree.depth_profile(horizon)
    assert counts[0] == 1
    assert counts[1:] == [profile.entries.get(g - 1, 0) for g in range(1, horizon + 1)]
    if horizon > tree.branching_index():
        assert sum(counts) == cokernel_dimension(tree)


@settings(max_examples=40, deadline=None)
@given(tree=prefix_trees(), horizon=st.integers(1, 8))
def test_kernel_column_counts_follow_depth_profile(tree, horizon):
    _kernel_column_counts(tree, horizon)


@pytest.mark.parametrize(
    "tree,horizon",
    [(tree_from_json(complete_binary(d)), h) for d, h in ((3, 2), (3, 5), (6, 8))]
    + [(tree_from_json(fan(m)), h) for m, h in ((2, 1), (50, 1), (50, 4))],
    ids=["binary3-h2", "binary3-h5", "binary6-h8", "fan2-h1", "fan50-h1", "fan50-h4"],
)
def test_kernel_column_counts_on_binary_and_fan_trees(tree, horizon):
    _kernel_column_counts(tree, horizon)


def test_moment_examples():
    line = make_shift(LINE, 1, DIRICHLET, 6)
    assert line.moment_sequence("r~2", 5) == [1] * 6
    fork = make_shift(FORK2, 2, DIRICHLET, 6)
    assert fork.moment_sequence("r", 3)[3] == 4
    dual = make_shift(FORK2, 2, DUAL, 6)
    assert dual.moment_sequence("a", 2)[2] == Fraction(1, 2)
    assert fork.moment_sequence("a", 4)[0] == 1


@pytest.mark.parametrize("kind", [DIRICHLET, DUAL])
@pytest.mark.parametrize(
    "name,q,kmax",
    [("line", 2, 10), ("double01", 3, 8), ("fork3", 1, 6), ("deep13", 4, 6)],
)
def test_moment_matrix_oracle_agreement(name, q, kmax, kind):
    tree = CORPUS[name]
    shift = make_shift(tree, q, kind, 12)
    for v in shift.trunc.vertices:
        depth = tree.depth_of(v)
        for k in range(kmax + 1):
            if depth + k > shift.horizon:
                continue
            exact = float(shift.moment_sequence(v, k)[k])
            oracle = shift.moment_via_matrix(v, k)
            assert abs(oracle - exact) / exact < 1e-10


def test_moment_via_matrix_needs_room():
    shift = make_shift(LINE, 2, DIRICHLET, 4)
    with pytest.raises(TruncationLoss):
        shift.moment_via_matrix("r", 5)


@pytest.mark.parametrize("name", ["line", "double01", "deep13"])
@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("kind", [DIRICHLET, DUAL])
def test_pushed_moment_oracle_is_the_matrix_oracle(name, q, kind):
    tree = CORPUS[name]
    shift = make_shift(tree, q, kind, 9)
    for v in tree.truncate(4).vertices:
        sequence = shift.moment_sequence_via_matrix(v, 5)
        assert sequence == [shift.moment_via_matrix(v, k) for k in range(6)]
        exact = shift.moment_sequence(v, 5)
        assert all(abs(x - float(m)) / float(m) < 1e-10 for x, m in zip(sequence, exact))


def _assert_oracle_is_the_pushed_reference(shift, v, kmax):
    """Each row of ``_pushes`` bit-identical to its part of the pushed generation, which is
    zero elsewhere; the sequence within 1e-15 relative of the pushed reference's."""
    columns = pushed_moment_columns(shift, v, kmax)
    rows = [(start + j * stride, row) for start, stride, block in shift._pushes(v, kmax) for j, row in enumerate(block)]
    assert len(rows) == kmax + 1
    for k, (column, (position, row)) in enumerate(zip(columns, rows)):
        at = position - shift.trunc.span(shift.tree.depth_of(v) + k)[0]
        assert column[at : at + len(row)].tobytes() == row.tobytes()
        assert not np.any(np.delete(column, np.arange(at, at + len(row))))
    sequence = shift.moment_sequence_via_matrix(v, kmax)
    assert all(abs(x - y) <= 1e-15 * y for x, y in zip(sequence, pushed_moment_sequence(shift, v, kmax), strict=True))


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("q", [1, 2, 5])
@pytest.mark.parametrize("kind", [DIRICHLET, DUAL])
def test_descendant_oracle_is_the_per_generation_push(name, q, kind):
    shift = make_shift(CORPUS[name], q, kind, 9)
    for v in shift.trunc.vertices:
        for kmax in range(shift.horizon - CORPUS[name].depth_of(v) + 1):
            _assert_oracle_is_the_pushed_reference(shift, v, kmax)


@settings(max_examples=60, deadline=None)
@given(prefix_trees(), st.integers(1, 4), st.sampled_from([DIRICHLET, DUAL]), st.integers(0, 9))
def test_descendant_oracle_is_the_per_generation_push_on_random_trees(tree, q, kind, kmax):
    shift = make_shift(tree, q, kind, 10)
    for v in shift.trunc.vertices:
        if tree.depth_of(v) + kmax <= shift.horizon:
            _assert_oracle_is_the_pushed_reference(shift, v, kmax)


def _oracle_reads(width, kmax):
    shift = make_shift(tree_from_json(fan(width)), 2, DIRICHLET, 1 + kmax)
    trunc = dataclasses.replace(shift.trunc, parent_index=shift.trunc.parent_index.view(Reads))
    shift = dataclasses.replace(shift, trunc=trunc, weights=shift.weights.view(Reads))
    Reads.count = 0
    sequence = shift.moment_sequence_via_matrix("c0", kmax)
    assert all(abs(x - float(m)) <= 1e-12 * float(m) for x, m in zip(sequence, shift.moment_sequence("c0", kmax)))
    return Reads.count


def test_descendant_oracle_reads_do_not_grow_with_the_width():
    # the ray below c0 is one vertex per generation, whether it has 1 or 1,999 siblings
    reads = _oracle_reads(2000, 500)
    assert reads == _oracle_reads(2, 500) <= 501


def test_pushed_moment_oracle_refuses_as_the_vertex_keyed_methods():
    shift = make_shift(DOUBLE01, 2, DIRICHLET, 5)
    for v in ("nope", "b~0", "a~1"):
        with pytest.raises(UnknownVertex) as excinfo:
            shift.moment_sequence_via_matrix(v, 1)
        assert str(excinfo.value) == v
    messages = {
        ("r", 6): "support at depth 0 exceeds -1 (horizon 5, margin 6); needs horizon 6",
        ("c~1", 3): "support at depth 3 exceeds 2 (horizon 5, margin 3); needs horizon 6",
        ("b~7", 0): "support at depth 8 exceeds 5 (horizon 5, margin 0); needs horizon 8",
    }
    for (v, kmax), message in messages.items():
        with pytest.raises(TruncationLoss) as excinfo:
            shift.moment_sequence_via_matrix(v, kmax)
        assert str(excinfo.value) == message
        assert named_horizon(excinfo.value) == DOUBLE01.depth_of(v) + kmax
        with pytest.raises(TruncationLoss, match=re.escape(message)):
            shift.apply_power({v: 1.0}, kmax)


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("q", range(1, 7))
def test_q_isometry_defect(name, q):
    tree = CORPUS[name]
    shift = make_shift(tree, q, DIRICHLET, 8)
    for v in shift.trunc.vertices:
        assert shift.q_isometry_defect(v, q) == 0
        if q >= 2:
            assert shift.q_isometry_defect(v, q - 1) != 0


def test_kernel_basis_line():
    basis = make_shift(LINE, 2, DIRICHLET, 5).kernel_basis()
    assert basis.dimension == 1
    assert basis.blocks[0].vertex is None
    assert basis.blocks[0].vectors == ({"r": 1.0},)


def test_kernel_basis_fork2():
    basis = make_shift(FORK2, 2, DIRICHLET, 5).kernel_basis()
    assert basis.dimension == 2
    (vec,) = basis.blocks[1].vectors
    assert vec["a"] == pytest.approx(1 / math.sqrt(2))
    assert vec["b"] == pytest.approx(-1 / math.sqrt(2))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_kernel_basis_structure(name):
    tree = CORPUS[name]
    shift = make_shift(tree, 3, DIRICHLET, 8)
    basis = shift.kernel_basis()
    expected_dim = 1 + sum(
        count - 1 for v, count in tree.branching_vertices() if tree.depth_of(v) < 8
    )
    assert basis.dimension == expected_dim
    vectors = [vec for block in basis.blocks for vec in block.vectors]
    for i, vec in enumerate(vectors):
        assert vec_norm(vec) == pytest.approx(1.0, abs=1e-14)
        assert abs(vec_inner(vec, vec)) == pytest.approx(1.0, abs=1e-14)
        for other in vectors[i + 1 :]:
            assert abs(vec_inner(vec, other)) < 1e-14
    for block in basis.blocks[1:]:
        for vec in block.vectors:
            assert abs(sum(vec.values())) < 1e-14
            assert vec_norm(shift.apply_adjoint(vec)) < 1e-12


@pytest.mark.parametrize("q", [1, 2, 3])
def test_powers_of_kernel_vectors_stay_orthogonal(q):
    shift = make_shift(DOUBLE01, q, DIRICHLET, 8)
    columns = []
    for block in shift.kernel_basis().blocks:
        for vec in block.vectors:
            current = dict(vec)
            for power in range(shift.horizon - block.l + 1):
                if power:
                    current = shift.apply(current)
                columns.append({v: x / vec_norm(current) for v, x in current.items()})
    gram = np.array([[vec_inner(a, b).real for b in columns] for a in columns])
    assert np.max(np.abs(gram - np.eye(len(columns)))) < 1e-10


@pytest.mark.parametrize("q,factor", [(1, 0), (2, Fraction(-1, 2)), (3, Fraction(-4, 5)), (4, -1)])
def test_defect_operator_eigenvalue_on_branching_configuration(q, factor):
    # branching vertex 'a' at depth 1 in DOUBLE01; children c, d are ray
    # leaves, so their single children carry the zero-sum test function.
    dual = make_shift(DOUBLE01, q, DUAL, 10)
    f = {"c~1": 1.0, "d~1": -1.0}
    image = dict_defect_operator_apply(dual, f)
    expected = 1 - Fraction(q) * (1 + 2) / (1 + q + 1)
    assert expected == factor
    for v, x in f.items():
        assert image.get(v, 0.0) == pytest.approx(float(expected) * x, abs=1e-10)
    assert vec_norm(image) == pytest.approx(abs(float(expected)) * vec_norm(f), abs=1e-10)


def test_defect_operator_q1_acts_as_identity_on_kernel():
    dual = make_shift(FORK3, 1, DUAL, 6)
    for block in dual.kernel_basis().blocks:
        for vec in block.vectors:
            image = dict_defect_operator_apply(dual, vec)
            for v, x in vec.items():
                assert image.get(v, 0.0) == pytest.approx(x, abs=1e-14)


def test_support_check_edges():
    shift = make_shift(FORK2, 2, DIRICHLET, 4)
    for vertex in ("nope", "a~0"):
        with pytest.raises(UnknownVertex):
            shift.apply({vertex: 1.0})
        with pytest.raises(UnknownVertex):
            shift.apply_adjoint({vertex: 1.0})
    # a tree vertex below the horizon is too deep, not unknown: depth 5 plus the margin
    for method, needed in (("apply", 6), ("apply_adjoint", 5)):
        with pytest.raises(TruncationLoss) as excinfo:
            getattr(shift, method)({"a~4": 1.0})
        assert named_horizon(excinfo.value) == needed
        assert getattr(make_shift(FORK2, 2, DIRICHLET, needed), method)({"a~4": 1.0})
    assert set(shift.apply({"a~2": 1.0, "b~2": 1.0})) == {"a~3", "b~3"}
    with pytest.raises(TruncationLoss):
        shift.apply({"a~2": 1.0, "b~3": 1.0})
    assert set(shift.apply_adjoint({"a~3": 1.0})) == {"a~2"}


def test_defect_operator_on_root_of_line():
    dual = make_shift(LINE, 2, DUAL, 6)
    assert dict_defect_operator_apply(dual, {"r": 1.0}) == pytest.approx({"r": 1.0})


def _float_partial_trace(shift, depth_cap):
    """The partial trace of [S*, S] through ``depth_cap`` < horizon from the float
    weights: per vertex, the squared weights into its children less the one into it."""
    squares = shift.weights**2
    diagonal = np.bincount(shift.trunc.parent_index[1:], squares[1:], minlength=len(squares)) - squares
    return float(np.sum(diagonal[: shift.trunc.span(depth_cap)[1]]))


def test_self_commutator_line_isometry():
    shift = make_shift(LINE, 1, DIRICHLET, 10)
    assert per_vertex_partial_trace(shift, 8) == 1
    assert _float_partial_trace(shift, 8) == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_self_commutator_q1_trace_is_kernel_dimension(name):
    tree = CORPUS[name]
    shift = make_shift(tree, 1, DIRICHLET, 8)
    kernel_dim = shift.kernel_basis().dimension
    assert per_vertex_partial_trace(shift, 7) == kernel_dim
    assert _float_partial_trace(shift, 7) == pytest.approx(kernel_dim)


def test_self_commutator_line_q2_telescopes():
    shift = make_shift(LINE, 2, DIRICHLET, 1001)
    assert per_vertex_commutator_diagonal(shift, "r") == 2
    for n in (1, 2, 5, 40):
        assert per_vertex_commutator_diagonal(shift, f"r~{n}") == Fraction(-1, n * (n + 1))
    # exact partial sums telescope to 1 + 1/(cap+1)
    for cap in (100, 200, 500, 1000):
        assert per_vertex_partial_trace(shift, cap) == 1 + Fraction(1, cap + 1)
        assert _float_partial_trace(shift, cap) == pytest.approx(1 + 1 / (cap + 1), abs=1e-14)
    tail = abs(per_vertex_partial_trace(shift, 1000) - per_vertex_partial_trace(shift, 500))
    assert tail == Fraction(1, 501) - Fraction(1, 1001)
    assert tail < 1e-3


def test_push_past_the_horizon_names_the_horizon_it_needs():
    block = np.ones((3, 1))  # generation 3 of DOUBLE01: c~1, d~1, b~2
    with pytest.raises(TruncationLoss) as excinfo:
        make_shift(DOUBLE01, 2, DUAL, 2).push(block, 4)
    needed = named_horizon(excinfo.value)
    assert make_shift(DOUBLE01, 2, DUAL, needed).push(block, 4).shape == (3, 1)
    with pytest.raises(TruncationLoss):
        make_shift(DOUBLE01, 2, DUAL, needed - 1).push(block, 4)


def test_push_refuses_a_block_with_another_row_count():
    shift = make_shift(DOUBLE01, 2, DUAL, 4)
    assert shift.push(np.ones((3, 1)), 4).shape == (3, 1)  # generation 3 has 3 vertices
    for rows in (2, 4):
        with pytest.raises(ValueError, match=f"needs 3 rows, got {rows}"):
            shift.push(np.ones((rows, 1)), 4)


def test_push_refuses_generations_without_a_parent_generation():
    # generation 4 of DOUBLE01 has 3 vertices; a 1-row block once read it as generation -1
    shift = make_shift(DOUBLE01, 2, DUAL, 4)
    for generation in (0, -1):
        for rows in (1, 3):
            with pytest.raises(ValueError, match="generation 0 has no parent generation"):
                shift.push(np.ones((rows, 1)), generation)


@settings(max_examples=60, deadline=None)
@given(tree=prefix_trees(), k=st.integers(1, 3), horizon=st.integers(1, 6), data=st.data())
def test_support_past_the_horizon_names_the_smallest_horizon_that_holds_it(tree, k, horizon, data):
    shift = make_shift(tree, 2, DIRICHLET, horizon)
    support = data.draw(st.lists(st.sampled_from(shift.trunc.vertices), min_size=1, max_size=5, unique=True))
    f = {v: 1.0 for v in support}
    try:
        shift.apply_power(f, k)
        return
    except TruncationLoss as exc:
        needed = named_horizon(exc)
    make_shift(tree, 2, DIRICHLET, needed).apply_power(f, k)
    with pytest.raises(TruncationLoss):
        make_shift(tree, 2, DIRICHLET, needed - 1).apply_power(f, k)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_dual_moment_sequences_are_completely_monotone(q):
    shift = make_shift(DOUBLE01, q, DUAL, 11)
    for v in (v for gen in shift.trunc.generations[:11] for v in gen):
        assert hausdorff_check(shift.moment_sequence(v, 26), 12).passed


@pytest.mark.parametrize("q", [2, 3])
def test_dirichlet_moment_sequences_are_not_monotone(q):
    shift = make_shift(FORK2, q, DIRICHLET, 4)
    report = hausdorff_check(shift.moment_sequence("r", 8), 1)
    assert not report.passed
    assert report.violation[0] == 1
