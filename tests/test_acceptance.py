"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
enforces the stated tolerance; identity claims are checked in exact
rational arithmetic, matrix oracles in floating point.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from corpus import (
    CORPUS,
    DEEP13,
    DOUBLE01,
    FORK2,
    FORK3,
    PROFILE_PAIR,
    TOTALS_PAIR,
    dict_defect_operator_apply,
    expected_oracle_diagonal,
    recursive_canonical_form,
)

from treeshift import (
    DIRICHLET,
    DUAL,
    EQUIVALENT,
    NOT_EQUIVALENT,
    bergman_weight_moment,
    build_graded_unitary,
    decide_equivalence,
    dirichlet_norm,
    graded_function,
    h2_norm_via_measure_decomposition,
    hausdorff_check,
    kernel_matrix_oracle,
    log_convexity_check,
    make_shift,
    pick_property_check,
    pochhammer_ratio,
    sibling_chain_identity_sum,
    verify_intertwining,
)


def _conclude(number: int, name: str, failures: list, started: float, budget: float):
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s)")
    assert not failures, f"{name}: {failures[:5]}"
    assert elapsed < budget, f"{name}: took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_moment_identity():
    started = time.monotonic()
    failures = []
    for name, tree in CORPUS.items():
        shift_cache = {q: make_shift(tree, q, DIRICHLET, 13) for q in (1, 2, 3, 4)}
        vertices = [v for v in tree.truncate(6).vertices]
        for q, shift in shift_cache.items():
            for v in vertices:
                for k in range(7):
                    exact = float(shift.moment_sequence(v, k)[k])
                    oracle = shift.moment_via_matrix(v, k)
                    if abs(oracle - exact) / exact >= 1e-10:
                        failures.append((name, q, v, k))
    _conclude(1, "moment identity vs matrix oracle", failures, started, 10.0)


def test_criterion_2_q_isometry_defect():
    started = time.monotonic()
    failures = []
    for name, tree in CORPUS.items():
        for q in range(1, 7):
            shift = make_shift(tree, q, DIRICHLET, 7)
            for v in shift.trunc.vertices:
                if shift.q_isometry_defect(v, q) != 0:
                    failures.append((name, q, v, "defect not zero"))
                if q >= 2 and shift.q_isometry_defect(v, q - 1) == 0:
                    failures.append((name, q, v, "lower defect vanished"))
    _conclude(2, "q-isometry defect identities", failures, started, 1.0)


def test_criterion_3_subnormality_moment_criterion():
    started = time.monotonic()
    failures = []
    for name, tree in CORPUS.items():
        for q in (2, 3, 4):
            dual = make_shift(tree, q, DUAL, 11)
            for v in (v for gen in dual.trunc.generations[:11] for v in gen):
                if not hausdorff_check(dual.moment_sequence(v, 26), 12).passed:
                    failures.append((name, q, v, "dual sequence rejected"))
            dirichlet = make_shift(tree, q, DIRICHLET, 3)
            control = hausdorff_check(dirichlet.moment_sequence(tree.root, 8), 1)
            if control.passed or control.violation[0] != 1:
                failures.append((name, q, "negative control passed"))
    _conclude(3, "complete monotonicity of dual moments", failures, started, 1.0)


def test_criterion_4_kernel_structure():
    started = time.monotonic()
    failures = []
    for name, tree in CORPUS.items():
        shift = make_shift(tree, 2, DUAL, 10)
        for j in range(6):
            for k in range(6):
                block = kernel_matrix_oracle(shift, j, k)
                if j == k:
                    err = np.max(np.abs(block - expected_oracle_diagonal(shift, k)))
                else:
                    err = np.max(np.abs(block))
                if err >= 1e-10:
                    failures.append((name, j, k, float(err)))
        for v in tree.vertices:
            for k in range(1, 6):
                if sibling_chain_identity_sum(tree, v, k) != 1:
                    failures.append((name, v, k, "chain sum not 1"))
    _conclude(4, "cokernel compression and chain identity", failures, started, 30.0)


def _random_rational_function(tree, rng, layers=5):
    blocks = dict(tree.branching_vertices())
    built = []
    for _ in range(layers):
        coords = {
            v: tuple(Fraction(int(rng.integers(-6, 7)), 3) for _ in range(c - 1))
            for v, c in blocks.items()
        }
        built.append((Fraction(int(rng.integers(-6, 7)), 2), coords))
    return graded_function(tree, built)


def test_criterion_5_norm_identities():
    started = time.monotonic()
    failures = []
    rng = np.random.default_rng(42)
    for name, tree in CORPUS.items():
        blocks = dict(tree.branching_vertices())
        for q in (1, 2, 3, 4):
            shift = make_shift(tree, q, DIRICHLET, 8)
            for trial in range(5):
                f = _random_rational_function(tree, rng)
                aggregated = Fraction(0)
                for n, layer in enumerate(f.layers):
                    (root,) = layer[None]
                    aggregated += Fraction(root) ** 2 * shift.moment_sequence(tree.root, n)[n]
                    for v in blocks:
                        child = tree.children_of(v)[0]
                        aggregated += sum(Fraction(c) ** 2 for c in layer.get(v, ())) * shift.moment_sequence(child, n)[n]
                if dirichlet_norm(f, q) != aggregated:
                    failures.append((name, q, trial, "norm != moment aggregation"))
    count = 0
    while count < 100:
        for tree in CORPUS.values():
            f = _random_rational_function(tree, rng)
            if h2_norm_via_measure_decomposition(f) != dirichlet_norm(f, 2):
                failures.append(("h2 decomposition mismatch", count))
            for q in (2, 3, 5):
                if dirichlet_norm(f, q) < dirichlet_norm(f, 1):
                    failures.append(("domination failed", q, count))
            count += 1
    _conclude(5, "norm identities and domination", failures, started, 30.0)


def test_criterion_6_bergman_measure_moments():
    started = time.monotonic()
    failures = []
    for q in range(2, 6):
        for l in range(7):
            for n in range(11):
                exact, quad = bergman_weight_moment(q, l, n)
                if exact != pochhammer_ratio(l + 1, l + q, n):
                    failures.append((q, l, n, "exact moment mismatch"))
                if abs(float(exact) - quad) >= 1e-10:
                    failures.append((q, l, n, "quadrature mismatch"))
    _conclude(6, "radial weight moments", failures, started, 30.0)


def test_criterion_7_complete_pick():
    started = time.monotonic()
    failures = []
    for q in range(1, 7):
        for depth in [None] + list(range(11)):
            report = pick_property_check(q, depth, 100)
            if not report.passed:
                failures.append((q, depth, report.witness))
    control = log_convexity_check(2, 1, 100)
    if control.passed or control.witness != 1:
        failures.append(("reversed parameters not rejected",))
    _conclude(7, "complete Pick log-convexity", failures, started, 30.0)


def test_criterion_8_classification():
    started = time.monotonic()
    failures = []
    tree1, tree2 = TOTALS_PAIR
    if decide_equivalence(tree1, tree2, 1).result != EQUIVALENT:
        failures.append("totals pair not equivalent at q=1")
    verdict = decide_equivalence(tree1, tree2, 2)
    if verdict.result != NOT_EQUIVALENT or verdict.witness != 0:
        failures.append("totals pair not separated at q=2")
    wide, split = PROFILE_PAIR
    if recursive_canonical_form(wide, 10) == recursive_canonical_form(split, 10):
        failures.append("witness pair is isomorphic")
    for q in range(1, 7):
        if decide_equivalence(wide, split, q).result != EQUIVALENT:
            failures.append(f"profile pair not equivalent at q={q}")
    for q in (1, 2, 3, 4):
        unitary = build_graded_unitary(decide_equivalence(wide, split, q))
        residual = verify_intertwining(wide, split, q, unitary, 12)
        if residual >= 1e-8:
            failures.append((q, residual))
    _conclude(8, "depth-profile classification", failures, started, 30.0)


def test_criterion_9_defect_operator_eigenvalue():
    started = time.monotonic()
    failures = []
    configurations = [
        ("fork2", FORK2, "r", 0, ("a~1", "b~1")),
        ("fork3", FORK3, "r", 0, ("a~1", "b~1", "c~1")),
        ("double01", DOUBLE01, "a", 1, ("c~1", "d~1")),
        ("deep13", DEEP13, "a", 1, ("d", "c~1")),
        ("deep13", DEEP13, "d", 3, ("e~1", "f~1")),
    ]
    for name, tree, vertex, depth, grandchildren in configurations:
        assert tree.depth_of(vertex) == depth
        for q in (1, 2, 3, 4):
            dual = make_shift(tree, q, DUAL, 10)
            f = {w: 1.0 for w in grandchildren[:-1]}
            f[grandchildren[-1]] = -float(len(grandchildren) - 1)
            image = dict_defect_operator_apply(dual, f)
            factor = 1 - Fraction(q * (depth + 2), depth + q + 1)
            if (factor == 0) != (q == 1):
                failures.append((name, vertex, q, "dichotomy broken"))
            support = set(f) | set(image)
            for w in support:
                expected = float(factor) * f.get(w, 0.0)
                if abs(image.get(w, 0.0) - expected) >= 1e-10:
                    failures.append((name, vertex, q, w))
    _conclude(9, "defect operator eigenvalue", failures, started, 30.0)
