import math
from fractions import Fraction

import numpy as np
import pytest
from corpus import CORPUS, DOUBLE01, FORK2, FORK3, LINE, prefix_trees, to_array
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import DIRICHLET, DUAL, make_shift, vec_inner, vec_norm
from treeshift.errors import InvalidQ, TruncationLoss, UnknownVertex, WrongQ
from treeshift.numerics import hausdorff_check
from treeshift.shifts import helmert_columns


def test_line_tree_weights_q2():
    dirichlet = make_shift(LINE, 2, DIRICHLET, 6)
    dual = make_shift(LINE, 2, DUAL, 6)
    for n in range(1, 6):
        assert dirichlet.squared_weights[f"r~{n}"] == Fraction(n + 1, n)
        assert dual.squared_weights[f"r~{n}"] == Fraction(n, n + 1)


def test_fork_weights_q3():
    shift = make_shift(FORK2, 3, DIRICHLET, 4)
    assert shift.squared_weights["a"] == Fraction(3, 2)
    assert shift.squared_weights["b"] == Fraction(3, 2)


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
                (shift.squared_weights[u] for u in tree.children_of(v)),
                start=Fraction(0),
            )
            assert total == Fraction(n + q) / (n + 1)


def test_row_sum_range():
    shift = make_shift(LINE, 4, DIRICHLET, 4)
    assert shift.row_sum(0) == 4
    values = [shift.row_sum(n) for n in range(50)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(value > 1 for value in values)
    assert shift.row_sum(10**6) - 1 == Fraction(3, 10**6 + 1)


def test_apply_examples():
    fork = make_shift(FORK2, 2, DIRICHLET, 4)
    image = fork.apply({"r": 1.0})
    assert image == {"a": 1.0, "b": 1.0}  # squared weights are exactly 1
    assert fork.apply({}) == {}
    line = make_shift(LINE, 1, DIRICHLET, 4)
    assert line.apply({"r~1": 1.0}) == {"r~2": 1.0}


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
        [1.0 / float(dirichlet.row_sum(tree.depth_of(v))) for v in dirichlet.trunc.vertices]
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
@given(tree=prefix_trees(), q=_QS, kind=_KINDS, horizon=st.integers(1, 6))
def test_weight_table_matches_per_vertex_formula(tree, q, kind, horizon):
    shift = make_shift(tree, q, kind, horizon)
    assert set(shift.squared_weights) == set(shift.trunc.vertices[1:])
    assert shift.weights[0] == 0
    for i, v in enumerate(shift.trunc.vertices[1:], 1):
        n, s = tree.depth_of(v), tree.sibling_count(v)
        if kind == DIRICHLET:
            expected = Fraction(n + q - 1) / (n * s)
        else:
            expected = n / (Fraction(n + q - 1) * s)
        assert shift.squared_weights[v] == expected
        assert shift.weights[i] == math.sqrt(expected)


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
            assert np.array_equal(shift.act(a), to_array(shift, shift.apply(f)))
        expected = to_array(shift, shift.apply_adjoint(f))
        assert np.allclose(shift.act_adjoint(a), expected, rtol=1e-14, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(tree=prefix_trees(), horizon=st.integers(1, 5))
def test_helmert_columns_equal_kernel_basis_vectors(tree, horizon):
    shift = make_shift(tree, 2, DIRICHLET, horizon)
    blocks = shift.kernel_basis().blocks[1:]  # the Helmert blocks, after the root line
    groups = [tree.children[block.vertex] for block in blocks]
    columns = helmert_columns(shift.trunc, groups, 0, len(shift.weights))
    expected = [to_array(shift, vec) for block in blocks for vec in block.vectors]
    assert columns.shape == (len(shift.weights), len(expected))
    for column, vec in zip(columns.T, expected):
        assert np.array_equal(column, vec)


def test_moment_examples():
    line = make_shift(LINE, 1, DIRICHLET, 6)
    assert all(line.moment("r~2", k) == 1 for k in range(6))
    fork = make_shift(FORK2, 2, DIRICHLET, 6)
    assert fork.moment("r", 3) == 4
    dual = make_shift(FORK2, 2, DUAL, 6)
    assert dual.moment("a", 2) == Fraction(1, 2)
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
            exact = float(shift.moment(v, k))
            oracle = shift.moment_via_matrix(v, k)
            assert abs(oracle - exact) / exact < 1e-10


def test_moment_via_matrix_needs_room():
    shift = make_shift(LINE, 2, DIRICHLET, 4)
    with pytest.raises(TruncationLoss):
        shift.moment_via_matrix("r", 5)


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
    vectors = [vec for _b, vec in basis.all_vectors()]
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
    for block, vec in shift.kernel_basis().all_vectors():
        current = dict(vec)
        for power in range(shift.horizon - block.support_depth + 1):
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
    image = dual.defect_operator_apply(f)
    expected = 1 - Fraction(q) * (1 + 2) / (1 + q + 1)
    assert expected == factor
    for v, x in f.items():
        assert image.get(v, 0.0) == pytest.approx(float(expected) * x, abs=1e-10)
    assert vec_norm(image) == pytest.approx(abs(float(expected)) * vec_norm(f), abs=1e-10)


def test_defect_operator_q1_acts_as_identity_on_kernel():
    dual = make_shift(FORK3, 1, DUAL, 6)
    for _block, vec in dual.kernel_basis().all_vectors():
        image = dual.defect_operator_apply(vec)
        for v, x in vec.items():
            assert image.get(v, 0.0) == pytest.approx(x, abs=1e-14)


def test_support_check_edges():
    shift = make_shift(FORK2, 2, DIRICHLET, 4)
    for vertex in ("nope", "a~4", "a~0"):
        with pytest.raises(UnknownVertex):
            shift.apply({vertex: 1.0})
        with pytest.raises(UnknownVertex):
            shift.apply_adjoint({vertex: 1.0})
    assert set(shift.apply({"a~2": 1.0, "b~2": 1.0})) == {"a~3", "b~3"}
    with pytest.raises(TruncationLoss):
        shift.apply({"a~2": 1.0, "b~3": 1.0})
    assert set(shift.apply_adjoint({"a~3": 1.0})) == {"a~2"}
    # a margin beyond the horizon leaves no admissible support at all
    with pytest.raises(TruncationLoss):
        make_shift(LINE, 6, DUAL, 4).defect_operator_apply({"r": 1.0})


def test_defect_operator_on_root_of_line():
    dual = make_shift(LINE, 2, DUAL, 6)
    assert dual.defect_operator_apply({"r": 1.0}) == pytest.approx({"r": 1.0})


def test_defect_operator_guards():
    dual = make_shift(LINE, 2, DUAL, 4)
    with pytest.raises(TruncationLoss):
        dual.defect_operator_apply({"r~3": 1.0})
    fractional = make_shift(LINE, Fraction(3, 2), DUAL, 4)
    with pytest.raises(WrongQ):
        fractional.defect_operator_apply({"r": 1.0})


def test_self_commutator_line_isometry():
    shift = make_shift(LINE, 1, DIRICHLET, 10)
    assert shift.self_commutator_partial_trace(8) == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_self_commutator_q1_trace_is_kernel_dimension(name):
    tree = CORPUS[name]
    shift = make_shift(tree, 1, DIRICHLET, 8)
    kernel_dim = shift.kernel_basis().dimension
    assert shift.self_commutator_partial_trace(7) == pytest.approx(kernel_dim)


def test_self_commutator_line_q2_telescopes():
    shift = make_shift(LINE, 2, DIRICHLET, 1001)
    assert shift.self_commutator_diagonal("r") == 2
    for n in (1, 2, 5, 40):
        assert shift.self_commutator_diagonal(f"r~{n}") == Fraction(-1, n * (n + 1))
    # exact partial sums telescope to 1 + 1/(cap+1)
    for cap in (100, 200):
        assert shift.self_commutator_partial_trace(cap) == pytest.approx(
            1 + 1 / (cap + 1), abs=1e-14
        )
    tail = abs(
        shift.self_commutator_partial_trace(1000) - shift.self_commutator_partial_trace(500)
    )
    assert tail == pytest.approx(1 / 501 - 1 / 1001, abs=1e-12)
    assert tail < 1e-3
    with pytest.raises(TruncationLoss):
        shift.self_commutator_partial_trace(1001)


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
