import contextlib
import io
import json
import time

import pytest
from corpus import complete_binary, fan, prefix_trees
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


def test_kernel_suite_on_fan_2000_is_fast(tree_file, capsys):
    path = tree_file(fan(2000))
    started = time.perf_counter()
    code, out = _run(capsys, ["checks", path, "--q", "2", "--suite", "kernel"])
    elapsed = time.perf_counter() - started
    assert code == 0
    assert json.loads(out)["results"]["all_passed"] is True
    assert elapsed < 5.0


def test_hausdorff_suite_at_a_deep_horizon_truncates_at_depth_ten(tree_file, capsys):
    path = tree_file(fan(2000))
    argv = ["checks", path, "--q", "2", "--suite", "hausdorff", "--horizon"]
    _code, shallow = _run(capsys, argv + ["10"])
    started = time.perf_counter()
    code, deep = _run(capsys, argv + ["1000"])
    elapsed = time.perf_counter() - started
    assert code == 0
    assert json.loads(deep)["results"] == json.loads(shallow)["results"]
    assert elapsed < 2.0


def test_kernel_suite_refuses_blocks_over_the_size_limit(tree_file, capsys):
    # 20,000 Helmert columns plus the root line on 20,000 rows: 3.2 GB per block
    code = main(["checks", tree_file(fan(20000)), "--q", "2", "--suite", "kernel"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: kernel check needs a 20000 x 20000 column block on generation 1, "
        "over the limit of 33554432 float64 entries per block"
    ]


def test_moments_refuses_a_truncation_over_the_vertex_limit(tree_file, capsys):
    # c0 sits at depth 1, so kmax 1,000 asks for 20,001 + 20,000 x 1,000 vertices
    path = tree_file(fan(20000))
    started = time.perf_counter()
    code = main(["moments", path, "--q", "2", "--vertex", "c0", "--kmax", "1000"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: truncation at horizon 1001 would hold 20020001 vertices, over the limit of 8388608"
    ]
    assert elapsed < 1.0


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


def test_duplicate_ray_leaves_exit_2(tree_file, capsys):
    tree = {"root": "r", "children": {"r": ["a", "b"]}, "ray_leaves": ["a", "b", "b"]}
    code = main(["validate", tree_file(tree)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: duplicate ray leaves: ['b']"]


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
