"""Golden CLI reports on the acceptance corpus and the WIDE/SPLIT pair.

Each case runs ``treeshift.cli.main`` on tree files written with fixed
bytes and compares exit code and stdout with ``tests/golden/<case>.txt``.
Every field matches byte for byte, except the float oracle fields below:
refactors may change the summation order and with it the last bits, so
those are compared within the tolerance their check states.

Regenerate the files with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from corpus import CORPUS, PROFILE_PAIR, SPLIT, TOTALS_PAIR, WIDE

from treeshift import tree_to_json
from treeshift.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

TREES = {**CORPUS, "wide": WIDE, "split": SPLIT}

# float field -> tolerance stated by the check that reports it
FLOAT_TOLERANCE = {
    "residual": 1e-8,
    "max_abs": 1e-10,
    "max_abs_error": 1e-10,
    "max_relative_error": 1e-10,
}
# assertions whose tolerance is tighter than their field's default
ASSERTION_TOLERANCE = {"adjoint_consistency": 1e-12}

_FLOAT_FIELD = re.compile(r'("(?:%s)": )"[^"]*"' % "|".join(FLOAT_TOLERANCE))


def _name(tree):
    return next(name for name, t in TREES.items() if t is tree)


def _cases():
    cases = {}
    for name, tree in TREES.items():
        cases[f"validate-{name}"] = ["validate", f"@{name}"]
        cases[f"profile-{name}"] = ["profile", f"@{name}", "--horizon", "6"]
        cases[f"moments-{name}-root-q2"] = ["moments", f"@{name}", "--q", "2", "--vertex", tree.root, "--kmax", "6"]
        deepest = tree.vertices[-1]
        cases[f"moments-{name}-{deepest}-q3-dual"] = [
            "moments", f"@{name}", "--q", "3", "--vertex", deepest, "--kmax", "5", "--kind", "dual",
        ]
        for suite in ("defect", "hausdorff", "pick", "cardid", "kernel"):
            cases[f"checks-{name}-{suite}-q2"] = ["checks", f"@{name}", "--q", "2", "--suite", suite, "--horizon", "6"]
        cases[f"checks-{name}-all-q3"] = ["checks", f"@{name}", "--q", "3", "--suite", "all", "--horizon", "5"]
        cases[f"equiv-{name}-self-q2-verify"] = [
            "equiv", f"@{name}", f"@{name}", "--q", "2", "--horizon", "6", "--verify-depth", "10",
        ]
    pairs = [(PROFILE_PAIR, q) for q in (1, 2, 3)] + [(TOTALS_PAIR, q) for q in (1, 2)]
    pairs.append(((CORPUS["deep13"], CORPUS["double01"]), 2))
    for (tree1, tree2), q in pairs:
        stem = f"equiv-{_name(tree1)}-{_name(tree2)}-q{q}"
        argv = ["equiv", f"@{_name(tree1)}", f"@{_name(tree2)}", "--q", str(q), "--horizon", "6"]
        cases[stem] = argv
        cases[f"{stem}-verify"] = argv + ["--verify-depth", "12"]
    return cases


CASES = _cases()


def _run(argv, directory: Path) -> str:
    """Exit code line plus stdout of one CLI call; ``@name`` is a tree file."""
    resolved = []
    for arg in argv:
        if arg.startswith("@"):
            path = directory / f"{arg[1:]}.json"
            path.write_text(json.dumps(tree_to_json(TREES[arg[1:]]), sort_keys=True))
            arg = str(path)
        resolved.append(arg)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(resolved)
    return f"exit {code}\n" + out.getvalue()


def _float_fields(node, tolerance=None):
    """Yield (path, value, tolerance) for every float oracle field."""
    if isinstance(node, dict):
        tolerance = ASSERTION_TOLERANCE.get(node.get("name"), tolerance)
        for key in sorted(node):
            if key in FLOAT_TOLERANCE:
                yield key, float(node[key]), tolerance or FLOAT_TOLERANCE[key]
            else:
                for path, value, tol in _float_fields(node[key], tolerance):
                    yield f"{key}.{path}", value, tol
    elif isinstance(node, list):
        for i, item in enumerate(node):
            for path, value, tol in _float_fields(item, tolerance):
                yield f"{i}.{path}", value, tol


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, tmp_path):
    expected = (GOLDEN / f"{case}.txt").read_text()
    actual = _run(CASES[case], tmp_path)
    if actual == expected:
        return
    # everything but the float oracle fields must still match byte for byte
    assert _FLOAT_FIELD.sub(r"\1*", actual) == _FLOAT_FIELD.sub(r"\1*", expected)
    old = list(_float_fields(json.loads(expected.partition("\n")[2])))
    new = list(_float_fields(json.loads(actual.partition("\n")[2])))
    for (path, before, tol), (_path, after, _tol) in zip(old, new):
        assert abs(after - before) <= tol, (path, before, after, tol)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case, argv in sorted(CASES.items()):
            (GOLDEN / f"{case}.txt").write_text(_run(argv, Path(scratch)))
