import json

import pytest
from corpus import complete_binary, prefix_trees
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import DIRICHLET, DUAL, make_shift
from treeshift.cli import _rational, _suite_defect, _suite_hausdorff, main
from treeshift.numerics import hausdorff_check

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


def test_moments_csv_and_unknown_vertex(tree_file, capsys):
    path = tree_file(LINE)
    code, out = _run(
        capsys,
        ["moments", path, "--q", "2", "--vertex", "r", "--kmax", "2", "--format", "csv"],
    )
    assert out.splitlines() == ["k,moment", "0,1", "1,2", "2,3"]
    assert main(["moments", path, "--q", "2", "--vertex", "zz", "--kmax", "2"]) == 2


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
    ],
    ids=["profile-negative-horizon", "checks-zero-horizon", "missing-file", "negative-kmax"],
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
    assert _suite_defect(tree, q, horizon) == _defect_per_vertex(tree, q, horizon)
    assert _suite_hausdorff(tree, q, horizon) == _hausdorff_per_vertex(tree, q, horizon)
