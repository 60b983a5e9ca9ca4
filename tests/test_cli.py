import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from corpus import DEEP13, DEEP13_WIDER, SPLIT, WIDE, comb, complete_binary, fan, prefix_trees, sibling_chain_identity_sums
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeshift import DIRICHLET, DUAL, Tree, classify, cli, decide_equivalence, make_shift, tree_from_json, tree_to_json
from treeshift import shifts, spaces
from treeshift.cli import (
    _HOLE,
    _SUITES,
    _build_parser,
    _emit,
    _rational,
    _suite_cardid,
    _suite_defect,
    _suite_hausdorff,
    _suite_pick,
    main,
)
from treeshift.numerics import hausdorff_check
from treeshift.shifts import ShiftOperator
from treeshift.spaces import kernel_block_spec, kernel_compression_maxima, pick_property_check

LINE = {"root": "r", "children": {}, "ray_leaves": ["r"]}
FORK3 = {"root": "r", "children": {"r": ["a", "b", "c"]}, "ray_leaves": ["a", "b", "c"]}
DOUBLE01 = {
    "root": "r",
    "children": {"r": ["a", "b"], "a": ["c", "d"]},
    "ray_leaves": ["b", "c", "d"],
}


@pytest.fixture
def tree_file(tmp_path):
    def write(obj, name="tree.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def _run(capsys, argv):
    code = main(argv)
    output = capsys.readouterr().out
    return code, output


def test_validate_reports_structure(tree_file, capsys):
    code, out = _run(capsys, ["validate", tree_file(FORK3)])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["results"]["branching_index"] == 1
    assert report["results"]["branching_vertices"] == [["r", 3]]
    assert report["results"]["cokernel_dimension"] == 3


def test_validate_exit_codes(tree_file, capsys):
    circuit = {"root": "r", "children": {"r": ["a"], "a": ["r"]}, "ray_leaves": []}
    assert main(["validate", tree_file(circuit, "c.json")]) == 3
    capsys.readouterr()
    unknown_key = {**LINE, "comment": "nope"}
    assert main(["validate", tree_file(unknown_key, "k.json")]) == 2
    capsys.readouterr()
    bad = tree_file(LINE, "bad.json")
    with open(bad, "w") as handle:
        handle.write("{not json")
    assert main(["validate", bad]) == 2


def test_profile_reports(tree_file, capsys):
    code, out = _run(capsys, ["profile", tree_file(FORK3), "--horizon", "5"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["profile"] == {"0": 2}
    assert results["cokernel_dim"] == 3
    assert results["exact"] is True

    code, out = _run(capsys, ["profile", tree_file(LINE, "line.json"), "--horizon", "3"])
    results = json.loads(out)["results"]
    assert results["profile"] == {} and results["cokernel_dim"] == 1


def test_profile_csv(tree_file, capsys):
    code, out = _run(
        capsys, ["profile", tree_file(DOUBLE01), "--horizon", "4", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines() == ["generation,defect", "0,1", "1,1"]


def test_profile_csv_rows_follow_the_generations(tree_file, capsys):
    # defects 2, 1 and 3 on generations 0, 2 and 10: neither the counts nor the
    # generations as strings sort into generation order
    children = {"r": ["a", "x", "y"], "a": ["b"], "b": ["c", "z"]}
    children.update({f"c{k}" if k else "c": [f"c{k + 1}"] for k in range(7)})
    children["c7"] = ["d", "e", "f", "g"]
    tree = {"root": "r", "children": children, "ray_leaves": ["x", "y", "z", "d", "e", "f", "g"]}
    code, out = _run(capsys, ["profile", tree_file(tree), "--horizon", "12", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["generation,defect", "0,2", "2,1", "10,3"]


def test_equiv_exit_codes_and_witness(tree_file, capsys):
    f1, f2 = tree_file(FORK3, "t1.json"), tree_file(DOUBLE01, "t2.json")
    code, out = _run(capsys, ["equiv", f1, f2, "--q", "1", "--horizon", "6"])
    assert code == 0
    assert json.loads(out)["results"]["verdict"] == "equivalent"

    code, out = _run(capsys, ["equiv", f1, f2, "--q", "2", "--horizon", "6"])
    assert code == 1
    results = json.loads(out)["results"]
    assert results["verdict"] == "not_equivalent"
    assert results["witness_generation"] == 0


def test_equiv_verdict_does_not_read_the_horizon(tree_file, capsys):
    # the profiles first differ at generation 3, deeper than horizons 0 to 2
    f1, f2 = tree_file(tree_to_json(DEEP13), "t1.json"), tree_file(tree_to_json(DEEP13_WIDER), "t2.json")
    outputs = []
    for horizon in ("0", "1", "2", "3", "6"):
        code, out = _run(capsys, ["equiv", f1, f2, "--q", "2", "--horizon", horizon])
        assert code == 1
        report = json.loads(out)
        assert report["inputs"]["horizon"] == int(horizon)
        assert report["results"]["witness_generation"] == 3
        outputs.append(json.dumps(report["results"], sort_keys=True))
    assert len(set(outputs)) == 1


@pytest.mark.parametrize("verify", [[], ["--verify-depth", "12"]], ids=["plain", "verify"])
def test_equiv_echoes_the_horizon_only_when_given(tree_file, capsys, verify):
    f1, f2 = tree_file(tree_to_json(DEEP13), "t1.json"), tree_file(tree_to_json(DEEP13), "t2.json")
    code, without = _run(capsys, ["equiv", f1, f2, "--q", "2", *verify])
    assert code == 0
    code, given = _run(capsys, ["equiv", f1, f2, "--q", "2", "--horizon", "6", *verify])
    assert code == 0
    without, given = json.loads(without), json.loads(given)
    assert "horizon" not in without["inputs"] and given["inputs"].pop("horizon") == 6
    assert without == given


def test_equiv_verify_residual(tree_file, capsys):
    f1 = tree_file(DOUBLE01, "t1.json")
    f2 = tree_file(DOUBLE01, "t2.json")
    code, out = _run(
        capsys,
        ["equiv", f1, f2, "--q", "2", "--horizon", "6", "--verify-depth", "12"],
    )
    assert code == 0
    intertwining = json.loads(out)["results"]["intertwining"]
    assert float(intertwining["residual"]) < 1e-12
    assert intertwining["seed"] == 42


@pytest.mark.parametrize("scale", [1.5, 1.0], ids=["one-weight-off", "exact"])
def test_equiv_verify_residual_at_or_above_its_bound_exits_3(tree_file, capsys, monkeypatch, scale):
    # one weight of the first shift scaled: the lift still reads the profiles equivalent, but
    # the residual shows the shifts do not intertwine, which is an invariant violated
    path = tree_file(tree_to_json(WIDE))
    argv = ["equiv", path, path, "--q", "2", "--verify-depth", "10"]
    exact_code, exact_out = _run(capsys, argv)
    built = []

    def perturbed(*args):
        shift = make_shift(*args)
        if not built:
            shift.weights[3] *= scale
        built.append(shift)
        return shift

    monkeypatch.setattr(classify, "make_shift", perturbed)
    code = main(argv)
    captured = capsys.readouterr()
    if scale == 1.0:  # a passing run keeps its bytes
        assert (code, captured.out, captured.err) == (exact_code, exact_out, "") == (0, exact_out, "")
        return
    assert code == cli.EXIT_INVARIANT == 3 and captured.out == ""
    (line,) = captured.err.splitlines()
    residual = float(line.split()[3])
    assert residual >= cli.VERIFY_RESIDUAL_BOUND == 1e-8 and residual > 0.05
    assert line == f"error: intertwining residual {cli._float(residual)} is not below 1e-08"


def test_equiv_verify_decides_equivalence_once(tree_file, capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return decide_equivalence(*args)

    monkeypatch.setattr(cli, "decide_equivalence", counted)
    monkeypatch.setattr(classify, "decide_equivalence", counted)
    f1, f2 = tree_file(tree_to_json(WIDE), "wide.json"), tree_file(tree_to_json(SPLIT), "split.json")
    code, _out = _run(capsys, ["equiv", f1, f2, "--q", "2", "--horizon", "6", "--verify-depth", "12"])
    assert code == 0
    assert len(calls) == 1


def test_equiv_verify_q1_without_matching_profiles(tree_file, capsys):
    f1, f2 = tree_file(FORK3, "t1.json"), tree_file(DOUBLE01, "t2.json")
    code, out = _run(
        capsys,
        ["equiv", f1, f2, "--q", "1", "--horizon", "6", "--verify-depth", "10"],
    )
    assert code == 0
    intertwining = json.loads(out)["results"]["intertwining"]
    assert "skipped" in intertwining


def test_moments_reports(tree_file, capsys):
    path = tree_file(LINE)
    code, out = _run(
        capsys, ["moments", path, "--q", "2", "--vertex", "r", "--kmax", "3"]
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["moments"] == ["1", "2", "3", "4"]
    assert results["matrix_check"]["ran"] is True
    assert results["matrix_check"]["passed"] is True

    code, out = _run(
        capsys, ["moments", path, "--q", "1", "--vertex", "r~2", "--kmax", "4"]
    )
    assert json.loads(out)["results"]["moments"] == ["1"] * 5

    code, out = _run(
        capsys,
        ["moments", path, "--q", "2", "--vertex", "r", "--kmax", "2", "--kind", "dual"],
    )
    assert json.loads(out)["results"]["moments"] == ["1", "1/2", "1/3"]


def test_moments_below_depth_plus_kmax_skips_the_matrix_check(tree_file, capsys):
    # c has depth 2, so powers up to 4 leave a horizon of 3
    code, out = _run(capsys, ["moments", tree_file(DOUBLE01), "--q", "2", "--vertex", "c", "--kmax", "4", "--horizon", "3"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["matrix_check"] == {"ran": False, "horizon": 3}
    assert results["moments"] == ["1", "4/3", "5/3", "2", "7/3"]


def test_moments_csv_and_unknown_vertex(tree_file, capsys):
    path = tree_file(LINE)
    code, out = _run(
        capsys,
        ["moments", path, "--q", "2", "--vertex", "r", "--kmax", "2", "--format", "csv"],
    )
    assert out.splitlines() == ["k,moment", "0,1", "1,2", "2,3"]
    assert main(["moments", path, "--q", "2", "--vertex", "zz", "--kmax", "2"]) == 2


@pytest.mark.parametrize("vertex", ["b~01", "b~+1", "b~ 1", "b~1_0", "b~0", "b~-1", "a~1", "a~b"])
@pytest.mark.parametrize("kmax", ["0", "2"])
def test_moments_refuses_ray_names_that_are_not_vertices(tree_file, vertex, kmax):
    # a ray vertex has one name, <leaf>~<k> with k >= 1 written in canonical decimal
    argv = ["moments", tree_file(DOUBLE01), "--q", "2", f"--vertex={vertex}", "--kmax", kmax]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 2


@pytest.mark.parametrize("suite", ["defect", "hausdorff", "pick", "cardid", "kernel"])
def test_checks_suites_pass(tree_file, capsys, suite):
    code, out = _run(
        capsys,
        ["checks", tree_file(DOUBLE01), "--q", "2", "--suite", suite, "--horizon", "6"],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["all_passed"] is True
    assert results["total"] >= 1


@pytest.mark.parametrize("suite", ["kernel", "all"])
@pytest.mark.parametrize("depth", [6, 7])
def test_checks_pass_on_trees_branching_deeper_than_five(tree_file, capsys, suite, depth):
    code, out = _run(
        capsys, ["checks", tree_file(complete_binary(depth)), "--q", "3", "--suite", suite]
    )
    assert code == 0
    assert json.loads(out)["results"]["all_passed"] is True


def test_hausdorff_suite_at_a_deep_horizon_truncates_at_depth_ten(tree_file, capsys, monkeypatch):
    path = tree_file(fan(2000))
    argv = ["checks", path, "--q", "2", "--suite", "hausdorff", "--horizon"]
    _code, shallow = _run(capsys, argv + ["10"])
    horizons = []
    truncate = Tree.truncate

    def recording_truncate(self, horizon):
        horizons.append(horizon)
        return truncate(self, horizon)

    monkeypatch.setattr(Tree, "truncate", recording_truncate)
    code, deep = _run(capsys, argv + ["1000"])
    assert code == 0
    assert json.loads(deep)["results"] == json.loads(shallow)["results"]
    # one truncation, at depth ten: a fan of 2,000 at horizon 1,000 would hold 2,000,001 vertices
    assert horizons == [10]


def _refuse(*_args, **_kwargs):
    raise AssertionError("the closed-form kernel suite builds no kernel column block or dense matrix")


@pytest.mark.parametrize(
    "tree", [fan(20000), complete_binary(13), fan(2000)], ids=["fan20000", "binary13", "fan2000"]
)
def test_kernel_suite_on_wide_trees_passes_in_closed_form(tree_file, capsys, monkeypatch, tree):
    # 20,000 Helmert columns plus the root line on 20,000 rows would be 3.2 GB as one dense block
    for module in (shifts, spaces):
        monkeypatch.setattr(module, "kernel_columns", _refuse)
    monkeypatch.setattr(spaces, "kernel_matrix_oracle", _refuse)
    monkeypatch.setattr(ShiftOperator, "matrix", _refuse)
    code, out = _run(capsys, ["checks", tree_file(tree), "--q", "2", "--suite", "kernel"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["all_passed"] is True
    if tree["root"] == "v0":  # binary 13: both maxima far below the tolerance
        off, diag = results["assertions"][:2]
        assert float(off["max_abs"]) < 1e-12 and float(diag["max_abs_error"]) < 1e-12


def test_equiv_verify_on_a_fan_of_20000_stores_no_helmert_block(tree_file, capsys):
    # the identity graded unitary carries no matrix, and the 19,999 Helmert columns of
    # generation 1, pushed by no later generation, are applied by prefix sums: one dense
    # 19,999 x 19,999 block would be 3.2 GB
    path = tree_file(fan(20000))
    tracemalloc.start()
    try:
        code, out = _run(capsys, ["equiv", path, path, "--q", "2", "--horizon", "6", "--verify-depth", "5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert float(json.loads(out)["results"]["intertwining"]["residual"]) < 1e-8
    assert peak < 400 * 2**20


def test_moments_refuses_a_truncation_over_the_vertex_limit(tree_file, capsys):
    # the root's own subtree is the fan, so kmax 1,000 asks for 20,001 + 20,000 x 999 vertices,
    # refused before anything is allocated: one int64 array over the refused positions is 160 MB
    path = tree_file(fan(20000))
    tracemalloc.start()
    try:
        code = main(["moments", path, "--q", "2", "--vertex", "r", "--kmax", "1000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: truncation at horizon 1000 would hold 20000001 vertices, over the limit of 8388608"
    ]
    assert peak < 64 * 2**20


def test_moments_follows_the_vertex_subtree_alone(tree_file, capsys):
    # c0's lineage is the root and c0's ray, so the fan's other 19,999 rays are not laid out:
    # 1,002 vertices instead of 20,020,001, and the report of the same vertex on the fan of 2
    path, small = tree_file(fan(20000), "fan20000.json"), tree_file(fan(2), "fan2.json")
    tracemalloc.start()
    try:
        code, out = _run(capsys, ["moments", path, "--q", "2", "--vertex", "c0", "--kmax", "1000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    report = json.loads(out)
    assert report["results"]["matrix_check"]["passed"] is True
    _code, expected = _run(capsys, ["moments", small, "--q", "2", "--vertex", "c0", "--kmax", "1000"])
    assert report["results"] == json.loads(expected)["results"]
    assert peak < 64 * 2**20


def test_reports_are_deterministic(tree_file, capsys):
    path = tree_file(DOUBLE01)
    argv = ["checks", path, "--q", "3", "--suite", "all", "--horizon", "5"]
    _code, first = _run(capsys, argv)
    _code, second = _run(capsys, argv)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["checks", "{tree}", "--q", "0", "--suite", "pick"],
        ["checks", "{tree}", "--q", "0"],
        ["moments", "{tree}", "--q", "0", "--vertex", "r", "--kmax", "2"],
    ],
    ids=["checks-pick", "checks-all", "moments"],
)
def test_q_below_one_exits_3(tree_file, capsys, argv):
    path = tree_file(DOUBLE01)
    assert main([arg.format(tree=path) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: q must be at least 1, got 0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "{tree}", "--horizon", "-1"],
        ["checks", "{tree}", "--q", "2", "--horizon", "0"],
        ["validate", "{missing}"],
        ["moments", "{tree}", "--q", "2", "--vertex", "r", "--kmax", "-1"],
        # the generation-0 block is lifted from depth 2 on
        ["equiv", "{tree}", "{tree}", "--q", "2", "--horizon", "0", "--verify-depth", "1"],
    ],
    ids=["profile-negative-horizon", "checks-zero-horizon", "missing-file", "negative-kmax", "shallow-verify-depth"],
)
def test_bad_arguments_exit_2(tree_file, tmp_path, capsys, argv):
    path, missing = tree_file(DOUBLE01), str(tmp_path / "missing.json")
    try:
        code = main([arg.format(tree=path, missing=missing) for arg in argv])
    except SystemExit as exc:  # argparse rejects the value before any command runs
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    # one error line, after argparse's usage lines when argparse rejected the value
    *usage, last = captured.err.splitlines()
    assert "error: " in last
    assert not usage or usage[0].startswith("usage: ")
    if "--verify-depth" in argv:
        assert captured.err.splitlines() == ["error: generation 0 blocks need depth at least 2, got 1"]


@pytest.mark.parametrize("suite", ["defect", "hausdorff", "pick", "cardid", "kernel", "all"])
@pytest.mark.parametrize(
    "flags,code,error",
    [
        (["--q", "2", "--horizon", "-5"], 2, "error: horizon must be at least 1"),
        (["--q", "2", "--horizon", "0"], 2, "error: horizon must be at least 1"),
        (["--q", "0"], 3, "error: q must be at least 1, got 0"),
        (["--q", "0", "--horizon", "-5"], 3, "error: q must be at least 1, got 0"),
    ],
    ids=["negative-horizon", "zero-horizon", "zero-q", "both"],
)
def test_checks_reject_bad_arguments_in_every_suite(tree_file, capsys, suite, flags, code, error):
    # also the suites that never read q or the horizon
    assert main(["checks", tree_file(DOUBLE01), "--suite", suite, *flags]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [error]


@pytest.mark.parametrize("suite", ["defect", "hausdorff", "pick", "cardid", "kernel", "all"])
def test_checks_run_from_horizon_one(tree_file, capsys, suite):
    # 1 is the smallest horizon: the checks run and pass, and 0 is refused
    code, out = _run(capsys, ["checks", tree_file(DOUBLE01), "--q", "2", "--suite", suite, "--horizon", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["horizon"] == 1 and report["results"]["all_passed"] is True
    assert main(["checks", tree_file(DOUBLE01), "--q", "2", "--suite", suite, "--horizon", "0"]) == 2


@pytest.mark.parametrize("depth", ["0", "-1"])
@pytest.mark.parametrize("pair", ["equivalent", "inequivalent"])
def test_equiv_rejects_verify_depth_below_one(tree_file, capsys, depth, pair):
    other = DOUBLE01 if pair == "equivalent" else FORK3
    f1, f2 = tree_file(DOUBLE01, "t1.json"), tree_file(other, "t2.json")
    argv = ["equiv", f1, f2, "--q", "2", "--horizon", "6", "--verify-depth", depth]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --verify-depth must be at least 1"]


@pytest.mark.parametrize("verify", [[], ["--verify-depth", "4"]], ids=["plain", "verify"])
@pytest.mark.parametrize("q", ["1", "2"])
def test_equiv_rejects_a_negative_horizon_for_every_q(tree_file, capsys, q, verify):
    # no verdict reads the horizon, but the report echoes it, so it is checked at every q
    path = tree_file(DOUBLE01)
    assert main(["equiv", path, path, "--q", q, "--horizon", "-5", *verify]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: horizon must be nonnegative"]


def test_duplicate_ray_leaves_exit_2(tree_file, capsys):
    tree = {"root": "r", "children": {"r": ["a", "b"]}, "ray_leaves": ["a", "b", "b"]}
    code = main(["validate", tree_file(tree)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: duplicate ray leaves: ['b']"]


def test_a_child_listed_twice_by_its_parent_exits_2(tree_file, capsys):
    tree = {"root": "r", "children": {"r": ["a", "b", "a", "b", "c"]}, "ray_leaves": ["a", "b", "c"]}
    code = main(["validate", tree_file(tree)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: duplicate children of 'r': ['a', 'b']"]


def _expand(groups):
    """The assertions that suite groups (rows, names) stand for, vertex-major."""
    return [
        {**body, "name": prefix if v is None else f"{prefix}[{v}]"}
        for rows, names in groups
        for v in names
        for prefix, body in rows
    ]


def _defect_per_vertex(tree, q, horizon):
    """Reference: the defect suite computed separately at every vertex."""
    shift = make_shift(tree, q, DIRICHLET, horizon)
    assertions = []
    for v in shift.trunc.vertices:
        defect = shift.q_isometry_defect(v, q)
        assertions.append({"name": f"defect_zero[{v}]", "passed": defect == 0, "value": _rational(defect)})
        if q >= 2:
            lower = shift.q_isometry_defect(v, q - 1)
            assertions.append(
                {"name": f"defect_nonzero_order_{q - 1}[{v}]", "passed": lower != 0, "value": _rational(lower)}
            )
    return assertions


def _hausdorff_per_vertex(tree, q, horizon, order=12):
    """Reference: the Hausdorff suite computed separately at every vertex."""
    shift = make_shift(tree, q, DUAL, horizon)
    assertions = []
    for v in shift.trunc.vertices:
        if tree.depth_of(v) > min(horizon, 10):
            continue
        outcome = hausdorff_check(shift.moment_sequence(v, 2 * order + 2), order)
        violation = list(map(str, outcome.violation)) if outcome.violation else None
        assertions.append({"name": f"hausdorff_order_{order}[{v}]", "passed": outcome.passed, "violation": violation})
    return assertions


@settings(max_examples=25, deadline=None)
@given(prefix_trees(max_vertices=6), st.integers(1, 4), st.integers(1, 5))
def test_per_generation_suites_equal_per_vertex_reference(tree, q, horizon):
    assert _expand(_suite_defect(tree, q, horizon)) == _defect_per_vertex(tree, q, horizon)
    assert _expand(_suite_hausdorff(tree, q, horizon)) == _hausdorff_per_vertex(tree, q, horizon)


def _cardid_reference(tree, kmax=5):
    """Reference: the cardid suite from one push below every explicit vertex."""
    assertions = []
    for v in tree.vertices:
        sums = sibling_chain_identity_sums(tree, v, kmax)
        passed, values = all(s == 1 for s in sums), [_rational(s) for s in sums]
        assertions.append({"name": f"sibling_chain_sum_one[{v}]", "passed": passed, "values": values})
    return assertions


@settings(max_examples=40, deadline=None)
@given(prefix_trees(), st.integers(1, 5))
def test_cardid_suite_equals_the_per_vertex_sums(tree, kmax):
    groups = _suite_cardid(tree, kmax)
    assert _expand(groups) == _cardid_reference(tree, kmax)
    assert len(groups) == 1  # the identity holds, so every vertex shares one body


def test_cardid_suite_takes_one_group_per_run_of_equal_sums(monkeypatch):
    # sums that a valid tree never has: c1 and c2 read 1/2 and c4 reads 2
    rows = [[2, 2], [3, 3], [2, 1], [4, 2], [1, 1], [1, 2], [5, 5]]
    monkeypatch.setattr(cli, "sibling_chain_sums", lambda tree, kmax: rows)
    tree = tree_from_json(fan(6))
    groups = _suite_cardid(tree, 1)
    assert [names for _rows, names in groups] == [["r", "c0"], ["c1", "c2"], ["c3"], ["c4"], ["c5"]]
    expected = [(v, n == n0, ["1" if n == n0 else str(Fraction(n, n0))]) for v, (n0, n) in zip(tree.vertices, rows)]
    assert [(a["name"], a["passed"], a["values"]) for a in _expand(groups)] == [
        (f"sibling_chain_sum_one[{v}]", passed, values) for v, passed, values in expected
    ]


def _pick_reference(tree, q, bound=100):
    """Reference: the pick suite checked separately on every block."""
    assertions = []
    for block_id, l in kernel_block_spec(tree).blocks:
        report = pick_property_check(q, None if l == 0 else l - 1, bound)
        name = "root" if block_id is None else block_id
        assertions.append({"name": f"pick_log_convexity[{name}]", "passed": report.passed, "witness": report.witness})
    return assertions


@settings(max_examples=40, deadline=None)
@given(prefix_trees(), st.integers(1, 5))
def test_pick_suite_equals_the_per_block_checks(tree, q):
    *blocks, control = _expand(_suite_pick(tree, q))
    assert blocks == _pick_reference(tree, q)
    assert control == {"name": "pick_reversed_parameters_fail", "passed": True, "witness": 1}


def test_pick_suite_checks_each_block_index_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return pick_property_check(*args)

    monkeypatch.setattr(cli, "pick_property_check", counted)
    tree = tree_from_json(complete_binary(13))
    groups = _suite_pick(tree, 2)
    # 8,191 branching blocks and the root line, on 14 distinct block indices
    assert len(_expand(groups)) == 8_193
    assert calls == [(2, None, 100)] + [(2, depth, 100) for depth in range(13)]


@pytest.mark.parametrize("suite", ["defect", "hausdorff"])
def test_depth_only_suites_build_no_shift(tree_file, capsys, monkeypatch, suite):
    def refused(*args):
        raise AssertionError("make_shift called")

    monkeypatch.setattr(cli, "make_shift", refused)
    path = tree_file(DOUBLE01)
    code, out = _run(capsys, ["checks", path, "--q", "3", "--suite", suite, "--horizon", "7"])
    assert code == 0
    assert json.loads(out)["results"]["all_passed"]


def test_cardid_stays_exact_past_2_to_the_63():
    # the chain products of the depth-66 comb reach 2**66 on its deepest ray leaf
    tree = comb(66)
    found = _expand(_suite_cardid(tree))
    assert found == _cardid_reference(tree)
    assert len(found) == 133 and all(a["passed"] and a["values"] == ["1"] * 5 for a in found)


def test_cardid_reaches_kmax_below_each_ray_leaf_only(tree_file, capsys):
    # 1,000 ray leaves at depth 1 beside an explicit spine down to depth 10,001: truncating every
    # ray to the spine's depth + 5 would take 10,016,007 vertices
    spine = {f"s{i}": [f"s{i + 1}"] for i in range(10000)}
    leaves = [f"x{j}" for j in range(1000)]
    obj = {"root": "r", "children": {"r": leaves + ["s0"], **spine}, "ray_leaves": leaves + ["s10000"]}
    assert _expand(_suite_cardid(tree_from_json(obj))) == _cardid_reference(tree_from_json(obj))
    code, out = _run(capsys, ["checks", tree_file(obj), "--q", "2", "--suite", "cardid"])
    assert code == 0
    assertions = json.loads(out)["results"]["assertions"]
    assert len(assertions) == 11002 and all(a["values"] == ["1"] * 5 for a in assertions)


def test_array_paths_build_no_vertex_names(tree_file, capsys, monkeypatch):
    # only the defect and hausdorff suites name every vertex; these paths read arrays
    built = []
    truncate = Tree.truncate

    def recording(tree, horizon):
        built.append(truncate(tree, horizon))
        return built[-1]

    monkeypatch.setattr(Tree, "truncate", recording)
    assert max(kernel_compression_maxima(make_shift(tree_from_json(fan(20000)), 2, DUAL, 10), 5)) < 1e-10
    checks = ["checks", tree_file(fan(300), "fan300.json"), "--q", "2", "--suite"]
    for argv in (
        checks + ["kernel"],
        checks + ["cardid"],  # runs on the explicit vertices, with no truncation
        ["moments", tree_file(fan(1000)), "--q", "2", "--vertex", "c0", "--kmax", "400"],
    ):
        assert main(argv) == 0
    capsys.readouterr()
    assert len(built) == 3
    for trunc in built:
        assert not {"generations", "vertices", "index"} & vars(trunc).keys()


def test_parser_is_built_once_per_process():
    assert _build_parser() is _build_parser()


# -- fuzzed tree files: every input ends in a documented exit code -----------------

# a small id pool makes duplicates, cycles and two-parent vertices likely; the
# last four entries are not valid ids
_ids = st.sampled_from(["r", "a", "b", "c", "d"] * 3 + ["r~1", "", 0, None])
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_well_typed = st.fixed_dictionaries(
    {
        "root": _ids,
        "children": st.dictionaries(
            st.sampled_from(["r", "a", "b", "c", "d", "a~2"]), st.lists(_ids, max_size=3), max_size=4
        ),
        "ray_leaves": st.lists(_ids, max_size=5),
    }
)
_wrong_types = st.fixed_dictionaries(
    {},
    optional={"root": _json_values, "children": _json_values, "ray_leaves": _json_values, "extra": _json_values},
)
_tree_texts = st.one_of(
    _well_typed.map(json.dumps),
    _well_typed.map(json.dumps),
    _wrong_types.map(json.dumps),
    st.text(max_size=20),
    st.integers(500, 5000).map(lambda n: "[" * n + "]" * n),  # nesting deeper than the parser's limit
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "tree.json"


# vertex names for ``moments --vertex``: explicit and unknown ids, '~' inside
# explicit ids, and ray positions on ray leaves (b, c) and elsewhere: valid
# ones of bounded depth, 0, -1 and non-canonical spellings
_ray_tails = st.one_of(
    st.integers(-1, 8).map(str), st.sampled_from(["", "~", "x", "1~2", "01", "+1", " 1", "1_0"])
)
_vertex_names = st.one_of(
    st.sampled_from(["r", "a", "b", "zz", "~", "a~b~1"]),
    st.builds(lambda v, t: f"{v}~{t}", st.sampled_from(["r", "b", "c", "zz"]), _ray_tails),
    st.text(max_size=4),
)


@settings(max_examples=100, deadline=None)
@given(
    text=_tree_texts,
    vertex=_vertex_names,
    kmax=st.integers(0, 4),
    horizon=st.sampled_from([None, "0", "1", "3", "12"]),
)
def test_fuzzed_tree_files_exit_with_a_documented_code(fuzz_path, text, vertex, kmax, horizon):
    # lone surrogates become bytes that are not UTF-8
    fuzz_path.write_text(text, encoding="utf-8", errors="surrogatepass")
    valid_path = fuzz_path.with_name("double01.json")
    valid_path.write_text(json.dumps(DOUBLE01))
    moments = ["--q", "2", f"--vertex={vertex}", "--kmax", str(kmax)]
    moments += [] if horizon is None else ["--horizon", horizon]
    cases = [
        (["validate", str(fuzz_path)], (0, 1, 2, 3)),
        (["profile", str(fuzz_path), "--horizon", "3"], (0, 1, 2, 3)),
        (["checks", str(fuzz_path), "--q", "2", "--suite", "pick"], (0, 1, 2, 3)),
        (["moments", str(fuzz_path), *moments], (0, 1, 2, 3)),
        # on a valid tree a vertex name is either reported on or refused as input
        (["moments", str(valid_path), *moments], (0, 2)),
    ]
    for argv, codes in cases:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in codes


# escape-needing, non-ASCII and placeholder-like vertex names
_ODD_NAMES = ['"', "\\", "\n", "\x00", "é", "☃", "\U0001f600", "\ud800", _HOLE]
_odd_ids = st.lists(st.sampled_from(["a", "b", *_ODD_NAMES]), min_size=1, max_size=3).map("".join)


@pytest.mark.parametrize("suite", [*_SUITES, "all"])
@pytest.mark.parametrize("q", ["1", "2", "3"])
def test_reports_are_the_stdlib_rendering_of_their_json(tree_file, capsys, suite, q):
    tree = {"root": "r", "children": {"r": _ODD_NAMES, _HOLE: ["c", "d"]}, "ray_leaves": ["c", "d", *_ODD_NAMES[:-1]]}
    code, out = _run(capsys, ["checks", tree_file(tree), "--q", q, "--suite", suite, "--horizon", "4"])
    assert code in (0, 1)
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert any(_HOLE in a["name"] for a in json.loads(out)["results"]["assertions"]) == (suite != "kernel")


def _emitted(report):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(report)
    return out.getvalue()


# few distinct scalars, so that bodies repeat and differ only by True, 1 and 1.0
_body_values = st.recursive(
    st.sampled_from([True, False, 1, 0, 1.0, 0.0, -0.0, None, "0", "1/2", _HOLE]) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["name", "x"]), inner, max_size=2),
    max_leaves=4,
)
_body_fields = st.sampled_from(["max_abs", "name", "passed", "suite", "value", "values", "violation", "witness"])
_odd_texts = st.one_of(_odd_ids, st.sampled_from(_ODD_NAMES), st.text(max_size=4))
# groups (rows, names): each name, None for the bare prefix, stands for every row
_group_lists = st.lists(
    st.tuples(
        st.lists(st.tuples(_odd_texts, st.dictionaries(_body_fields, _body_values, max_size=3)), max_size=3),
        st.lists(st.none() | _odd_texts, max_size=4),
    ),
    max_size=6,
)


@st.composite
def _reports(draw):
    groups = draw(_group_lists)
    assertions = _expand(groups)
    failed = [a["name"] for a in assertions if not a.get("passed")] + draw(st.lists(st.sampled_from(_ODD_NAMES)))
    results = {"assertions": groups, "total": len(assertions), "failed": failed, "all_passed": not failed}
    if draw(st.booleans()):
        results = draw(st.dictionaries(st.sampled_from(["all_passed", "profile", "verdict"]), _body_values))
    inputs = draw(st.dictionaries(st.sampled_from(["assertions", "q", "tree"]), _body_values, max_size=3))
    return {"command": "checks", "inputs": inputs, "results": results, "schema": 1, "tool": "treeshift"}


def _stdlib(report):
    """``json.dumps`` of ``report`` with its assertion groups expanded."""
    results = report["results"]
    if "assertions" in results:
        report = {**report, "results": {**results, "assertions": _expand(results["assertions"])}}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@settings(max_examples=80, deadline=None)
@given(_reports())
@example({"command": "checks", "inputs": {}, "results": {"assertions": [], "failed": []}})
@example({"inputs": {}, "results": {"assertions": [([("a", {})], []), ([], ["b"])]}})
@example({"inputs": {"assertions": _HOLE}, "results": {"assertions": [([(_HOLE, {})], [None, _HOLE])], "failed": [_HOLE]}})
@example({"inputs": {}, "results": {"assertions": [([("v", {"value": v}) for v in [True, 1, 1.0, True]], ["a", None])]}})
@example({"inputs": {}, "results": {"assertions": [([(n, {"v": v}) for n, v in zip("abc", [None, [], [[]]])], [None])]}})
@example({"inputs": {}, "results": {"assertions": [([("p", {"name": "shadowed", "x": 1})], ["v"])]}})
def test_emit_is_the_stdlib_rendering(report):
    assert _emitted(report) == _stdlib(report)


def test_emit_writes_the_report_group_by_group(tree_file, monkeypatch):
    # an allocation guard, not a clock: the fan-2,000 report of every suite is about 7 MB,
    # and a report built whole before it is written holds several copies of it at once
    reports = []
    monkeypatch.setattr(cli, "_emit", reports.append)
    assert main(["checks", tree_file(fan(2000)), "--q", "2", "--suite", "all", "--horizon", "8"]) == 0
    monkeypatch.undo()
    writes = []

    class Sink:
        def write(self, text):
            writes.append(len(text))

        def flush(self):
            pass

    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Sink()):
            _emit(reports[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    groups = reports[0]["results"]["assertions"]
    assert sum(writes) == len(_stdlib(reports[0])) > 7 * 10**6
    assert peak < sum(writes) / 2
    # no write is longer than one group's text, here framed as a report of that group alone
    assert max(writes) <= max(len(_stdlib({"results": {"assertions": [group]}})) for group in groups)


def test_a_reader_that_closes_stdout_early_is_not_an_error(tree_file):
    # the report is about 7 MB, far more than a pipe holds, so the command is still
    # writing when the reader closes its end after 10 bytes
    path = tree_file(fan(2000))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, "-m", "treeshift.cli", "checks", path, "--q", "2", "--suite", "all"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == 0


def _named_dicts(obj):
    """The number of dicts with a "name" key in ``obj``: assertions, in a report."""
    if isinstance(obj, dict):
        return ("name" in obj) + sum(map(_named_dicts, obj.values()))
    return sum(map(_named_dicts, obj)) if isinstance(obj, list) else 0


def test_emit_renders_each_distinct_assertion_body_once(tree_file, capsys, monkeypatch):
    rendered = []
    iterencode = json.JSONEncoder.iterencode

    def counting_iterencode(self, obj, *args, **kwargs):
        rendered.append(_named_dicts(obj) if self.indent is not None else 0)
        return iterencode(self, obj, *args, **kwargs)

    path = tree_file(fan(300))
    monkeypatch.setattr(json.JSONEncoder, "iterencode", counting_iterencode)
    code, out = _run(capsys, ["checks", path, "--q", "2", "--suite", "defect"])
    monkeypatch.undo()
    assert code == 0
    assertions = json.loads(out)["results"]["assertions"]
    bodies = {json.dumps({**a, "name": None}, sort_keys=True) for a in assertions}
    assert len(assertions) == 2 * (1 + 300 * 8) and len(bodies) < 20
    # the stdlib renders all 4,802 assertions, one indented render each
    assert sum(rendered) <= len(bodies) + 1


# tree files whose vertex ids need escaping: a random valid prefix, renamed
@st.composite
def _odd_tree_texts(draw):
    tree = draw(prefix_trees(max_vertices=5))
    names = dict(zip(tree.vertices, draw(st.lists(_odd_ids, min_size=len(tree.vertices), unique=True))))
    children = {names[v]: [names[c] for c in kids] for v, kids in tree_to_json(tree)["children"].items()}
    return json.dumps({"root": names[tree.root], "children": children, "ray_leaves": [names[v] for v in tree.ray_leaves]})


_int_flags = st.sampled_from(["1", "2", "3", "1", "2", "3", "7", "0", "-1", "x"])  # mostly valid


@settings(max_examples=40, deadline=None)
@given(
    # two odd trees to one malformed text in the first file
    texts=st.tuples(st.integers(0, 2).flatmap(lambda i: _odd_tree_texts() if i else _tree_texts), _odd_tree_texts()),
    suite=st.sampled_from([*_SUITES, "all"]),
    q=_int_flags,
    horizon=_int_flags,
    verify=st.one_of(st.none(), _int_flags),
    kind=st.sampled_from(["dirichlet", "dual", "dirichlet", "dual", "bergman", ""]),
    kmax=_int_flags,
    data=st.data(),
)
def test_fuzzed_checks_and_equiv_reports_are_stdlib_json(fuzz_path, texts, suite, q, horizon, verify, kind, kmax, data):
    # a vertex of the second (valid) tree, a ray position below one, or a name of any shape
    tree = json.loads(texts[1])
    names = st.sampled_from([tree["root"], *(v for kids in tree["children"].values() for v in kids)])
    vertex = data.draw(st.one_of(names, st.builds(lambda v, t: f"{v}~{t}", names, _ray_tails), _vertex_names))
    paths = [fuzz_path.with_name(f"tree{i}.json") for i in range(2)]
    for path, text in zip(paths, texts):
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
    verify_flags = [] if verify is None else ["--verify-depth", verify]
    moments = ["--q", q, f"--vertex={vertex}", "--kmax", kmax, f"--kind={kind}"]
    for argv in (
        ["checks", str(paths[0]), "--suite", suite, "--q", q, "--horizon", horizon],
        ["equiv", *map(str, paths), "--q", q, "--horizon", horizon, *verify_flags],
        ["equiv", str(paths[1]), str(paths[1]), "--q", q, "--horizon", horizon, *verify_flags],
        ["moments", str(paths[0]), *moments],
        ["moments", str(paths[1]), *moments, "--horizon", horizon],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a value that is not an integer
                code = exc.code
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code in (0, 1):
            assert out.getvalue() == json.dumps(json.loads(out.getvalue()), indent=2, sort_keys=True) + "\n"
