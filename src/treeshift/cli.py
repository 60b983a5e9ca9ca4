"""Command line front end: parse tree files, run analyses, emit reports.

Reports are JSON objects with sorted keys (byte-identical across runs on
identical inputs); rationals are rendered as ``p/q`` strings and floats
with 17 significant digits.  A ``checks`` report is written to stdout one
assertion group at a time, never built whole.  Exit codes: 0 success /
equivalent, 1 failed assertion or not equivalent, 2 malformed input or
arguments, 3 invariant violated.  A reader that closes stdout before the
report ends leaves the exit code as it was: every check has run by then.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .classify import (
    build_graded_unitary,
    cokernel_dimension,
    decide_equivalence,
    verify_intertwining,
)
from .errors import TreeFormatError, TreeshiftError, TruncationLoss, UnknownVertex
from .numerics import alternating_binomial_sum_terms, hausdorff_check_terms
from .shifts import DIRICHLET, DUAL, depth_moments, make_shift, require_q
from .spaces import (
    kernel_block_spec,
    kernel_compression_maxima,
    log_convexity_check,
    pick_property_check,
)
from .trees import Tree, load_tree, sibling_chain_sums

SCHEMA_VERSION = 1
DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_FORMAT = 2
EXIT_INVARIANT = 3

# a verified intertwining residual at or above this exits 3, the bound the acceptance gate and golden tolerance hold
VERIFY_RESIDUAL_BOUND = 1e-8


def _rational(x: Fraction) -> str:
    return str(x)


def _float(x: float) -> str:
    return format(float(x), ".17g")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def _seed() -> int:
    return int(os.environ.get("TREESHIFT_SEED", DEFAULT_SEED))


def _nonnegative(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return int(text)


def _report(command: str, inputs: dict, results: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool": "treeshift",
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "results": results,
    }


_HOLE = "\x00treeshift-hole\x00"  # a cut-out value, found by its key and indentation
_HOLE_TEXT = json.dumps(_HOLE)
_ITEM = "\n      "  # an assertion, one level below the "assertions" key of "results"
_NEXT = "," + _ITEM


def _cut(text: str, key: str, start: int = 0) -> tuple[str, str]:
    """``text`` split around the hole that is the value of the first ``key`` past ``start``."""
    cut = text.index(key + _HOLE_TEXT, start) + len(key)
    return text[:cut], text[cut + len(_HOLE_TEXT) :]


def _write(pieces: Iterable[str]) -> None:
    """Write ``pieces`` to stdout.  A reader that closes it before the end is not an error: the
    rest is dropped, and the exit code, which every command knows before it writes, stands."""
    try:
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout at exit; a devnull below it keeps that flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(report: dict) -> None:
    """Print ``json.dumps(report, indent=2, sort_keys=True)`` piece by piece, as ``_render`` makes it."""
    _write(_render(report))


def _render(report: dict) -> Iterator[str]:
    """``json.dumps(report, indent=2, sort_keys=True)`` and a newline in pieces, with the
    assertion groups of its results expanded: a group (rows, names) stands for {**body, "name":
    f"{prefix}[{v}]"} for each name v, then each row (prefix, body); a name None stands for the
    bare prefix.  The head up to the assertions is one piece, each group one, the tail one, so
    no string the size of the report is built.  Each distinct row body is rendered once, and
    each name escaped once per group by the C escaper of ``ensure_ascii``."""
    groups = report["results"].get("assertions")
    if groups is None:
        yield json.dumps(report, indent=2, sort_keys=True) + "\n"
        return
    text = json.dumps({**report, "results": {**report["results"], "assertions": _HOLE}}, indent=2, sort_keys=True)
    head, tail = _cut(text, '\n    "assertions": ', text.index('\n  "results": '))  # past "results", not in "inputs"
    yield head
    templates, lead = {}, "[" + _ITEM
    for rows, names in groups:
        if not (rows and names):
            continue
        parts = []
        for prefix, body in rows:
            key = repr(body)  # tells True, 1 and 1.0 apart, and None from [], as JSON does
            if key not in templates:
                rendered = json.dumps({**body, "name": _HOLE}, indent=2, sort_keys=True).replace("\n", _ITEM)
                templates[key] = _cut(rendered, _ITEM + '  "name": ')
            before, after = templates[key]
            parts.append((before + encode_basestring_ascii(prefix)[:-1], after))
        # the group is its names, each once per row, with the glue between row i's name and
        # row i + 1's: what follows the one, "," and the item indentation, what precedes the other
        glues = [after + _NEXT + before for (_b, after), (before, _a) in zip(parts, parts[1:] + parts[:1])]
        names = ['"' if v is None else "[" + encode_basestring_ascii(v)[1:-1] + ']"' for v in names]
        if len(parts) > 1:  # one name's rows, with the glue of the last row left for the join
            names = list(map(str.join, names, itertools.repeat(["", *glues[:-1], ""])))
        names[0] = lead + parts[0][0] + names[0]
        names[-1] += parts[-1][1]
        yield glues[-1].join(names)
        lead = _NEXT
    yield ("\n    ]" if lead == _NEXT else "[]") + tail + "\n"


def _profile_payload(tree: Tree, horizon: int) -> dict:
    profile = tree.depth_profile(horizon)
    return {
        "profile": {str(n): profile.entries[n] for n in sorted(profile.entries)},
        "horizon": horizon,
        "exact": profile.exact_beyond_horizon,
        "cokernel_dim": cokernel_dimension(tree),
    }


# -- commands ---------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    results = {
        "explicit_vertex_count": len(tree.vertices),
        "ray_leaf_count": len(tree.ray_leaves),
        "branching_vertices": [[v, c] for v, c in tree.branching_vertices()],
        "branching_index": tree.branching_index(),
        "cokernel_dimension": cokernel_dimension(tree),
        "leafless": True,
        "locally_finite": True,
    }
    _emit(_report("validate", {"tree": _sha256(args.tree)}, results))
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    payload = _profile_payload(tree, args.horizon)
    if args.format == "csv":
        rows = sorted(payload["profile"].items(), key=lambda kv: int(kv[0]))
        _write(["generation,defect\n", *(f"{n},{value}\n" for n, value in rows)])
        return EXIT_OK
    _emit(_report("profile", {"tree": _sha256(args.tree), "horizon": args.horizon}, payload))
    return EXIT_OK


def _cmd_equiv(args: argparse.Namespace) -> int:
    if args.verify_depth is not None and args.verify_depth < 1:
        raise ValueError("--verify-depth must be at least 1")
    tree1, tree2 = load_tree(args.tree1), load_tree(args.tree2)
    verdict = decide_equivalence(tree1, tree2, args.q)
    # no verdict reads the horizon; one given is validated and echoed in the report
    if args.horizon is not None and args.horizon < 0:
        raise ValueError("horizon must be nonnegative")
    results = {
        "verdict": verdict.result,
        "certainty": "exact",
        "witness_generation": verdict.witness,
        "cokernel_dims": [cokernel_dimension(tree1), cokernel_dimension(tree2)],
        "profiles": [
            {str(n): c for n, c in sorted(verdict.profile1.entries.items())},
            {str(n): c for n, c in sorted(verdict.profile2.entries.items())},
        ],
    }
    if args.verify_depth is not None and verdict.equivalent:
        if verdict.profile1.entries == verdict.profile2.entries:
            unitary = build_graded_unitary(verdict)
            residual = verify_intertwining(
                tree1, tree2, args.q, unitary, args.verify_depth, seed=_seed()
            )
            if not residual < VERIFY_RESIDUAL_BOUND:  # a NaN fails too
                bound = f"{VERIFY_RESIDUAL_BOUND:g}"
                print(f"error: intertwining residual {_float(residual)} is not below {bound}", file=sys.stderr)
                return EXIT_INVARIANT
            results["intertwining"] = {
                "depth": args.verify_depth,
                "residual": _float(residual),
                "seed": _seed(),
            }
        else:
            # equal cokernel totals at q = 1 without matching profiles:
            # equivalent, but no graded unitary to lift
            results["intertwining"] = {
                "depth": args.verify_depth,
                "skipped": "depth profiles differ; no graded unitary",
            }
    inputs = {"tree1": _sha256(args.tree1), "tree2": _sha256(args.tree2), "q": args.q}
    if args.horizon is not None:
        inputs["horizon"] = args.horizon
    _emit(_report("equiv", inputs, results))
    return EXIT_OK if verdict.equivalent else EXIT_FAILED


def _cmd_moments(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    depth = tree.depth_of(args.vertex)
    horizon = args.horizon if args.horizon is not None else max(1, depth + args.kmax)
    # the moments read the depth alone and the oracle the vertex's descendants, whose
    # sibling counts the lineage keeps, so the shift needs no other branch of the tree
    shift = make_shift(tree.lineage(args.vertex), args.q, args.kind, horizon)
    exact = shift.moment_sequence(args.vertex, args.kmax)
    check = {"ran": False, "horizon": horizon}
    if depth + args.kmax <= horizon:
        oracle = shift.moment_sequence_via_matrix(args.vertex, args.kmax)
        worst = max(abs(x - float(m)) / float(m) for x, m in zip(oracle, exact))
        check = {
            "ran": True,
            "horizon": horizon,
            "max_relative_error": _float(worst),
            "passed": worst < 1e-10,
        }
    if args.format == "csv":
        _write(["k,moment\n", *(f"{k},{_rational(value)}\n" for k, value in enumerate(exact))])
        return EXIT_OK
    results = {
        "vertex": args.vertex,
        "depth": depth,
        "kind": args.kind,
        "moments": [_rational(value) for value in exact],
        "matrix_check": check,
    }
    inputs = {"tree": _sha256(args.tree), "q": args.q, "kmax": args.kmax}
    _emit(_report("moments", inputs, results))
    return EXIT_OK


# -- check suites -------------------------------------------------------------------


# a suite returns assertion groups (rows, names), expanded as ``_emit`` says: the defect and
# hausdorff suites one per generation, as defects and moments depend on depth alone, the pick
# suite one per run of equal block index l, which the check reads alone, the cardid suite one
# per run of vertices with equal sums, the kernel suite one per assertion

def _suite_defect(tree: Tree, q: int, horizon: int) -> list[tuple]:
    groups = []
    for n, gen in enumerate(tree.truncate(horizon).generations):
        moments = list(depth_moments(q, DIRICHLET, n, q))
        defect = alternating_binomial_sum_terms(moments, q)
        rows = [("defect_zero", {"passed": defect == 0, "value": _rational(defect)})]
        if q >= 2:
            lower = alternating_binomial_sum_terms(moments, q - 1)
            rows.append((f"defect_nonzero_order_{q - 1}", {"passed": lower != 0, "value": _rational(lower)}))
        groups.append((rows, gen))
    return groups


def _suite_hausdorff(tree: Tree, q: int, horizon: int, order: int = 12) -> list[tuple]:
    # only depths 0..10 are checked, so no deeper truncation is built
    groups = []
    for n, gen in enumerate(tree.truncate(min(horizon, 10)).generations):
        outcome = hausdorff_check_terms(list(depth_moments(q, DUAL, n, 2 * order + 2)), order)
        violation = list(map(str, outcome.violation)) if outcome.violation else None
        groups.append(([(f"hausdorff_order_{order}", {"passed": outcome.passed, "violation": violation})], gen))
    return groups


def _suite_pick(tree: Tree, q: int, bound: int = 100) -> list[tuple]:
    # the check reads l alone, and breadth-first blocks come in runs of equal l: one check and group per run
    groups = []
    for l, run in itertools.groupby(kernel_block_spec(tree).blocks, key=lambda block: block[1]):
        report = pick_property_check(q, None if l == 0 else l - 1, bound)
        body = {"passed": report.passed, "witness": report.witness}
        groups.append(([("pick_log_convexity", body)], ["root" if block_id is None else block_id for block_id, _l in run]))
    control = log_convexity_check(2, 1, bound)
    body = {"passed": not control.passed and control.witness == 1, "witness": control.witness}
    return groups + [([("pick_reversed_parameters_fail", body)], [None])]


def _suite_cardid(tree: Tree, kmax: int = 5) -> list[tuple]:
    rows = sibling_chain_sums(tree, kmax)
    values = [None if row.count(n0) == len(row) else [_rational(Fraction(n, n0)) for n in row] for n0, *row in rows]
    return [  # one group per run of vertices with equal values, None where every sum is 1
        ([("sibling_chain_sum_one", {"passed": key is None, "values": key or ["1"] * kmax})], [v for v, _key in run])
        for key, run in itertools.groupby(zip(tree.vertices, values), key=lambda pair: pair[1])
    ]


def _suite_kernel(tree: Tree, q: int, seed: int, nmax: int = 5) -> list[tuple]:
    # the deepest block sits at depth branching_index(); its powers up to nmax must fit
    depth = max(10, tree.branching_index() + nmax)
    shift = make_shift(tree, q, DUAL, depth)
    off_worst, diag_worst = kernel_compression_maxima(shift, nmax)
    rng = np.random.default_rng(seed)
    inner_worst = 0.0
    # random coordinates below the horizon generation, zeros on it
    inside, _ = shift.trunc.span(shift.horizon)
    f, g = np.zeros((2, len(shift.weights)))
    for _ in range(8):
        f[:inside] = rng.standard_normal(inside)
        g[:inside] = rng.standard_normal(inside)
        # exactly rounded sums: a BLAS dot's roundoff grows with the length and varies with its thread count
        sides = math.fsum((shift.act(f) * g).tolist()), math.fsum((f * shift.act_adjoint(g)).tolist())
        inner_worst = max(inner_worst, abs(sides[0] - sides[1]))
    return [
        ([("kernel_offdiagonal_zero", {"passed": off_worst < 1e-10, "max_abs": _float(off_worst)})], [None]),
        ([("kernel_diagonal_matches", {"passed": diag_worst < 1e-10, "max_abs_error": _float(diag_worst)})], [None]),
        ([("adjoint_consistency", {"passed": inner_worst < 1e-12, "max_abs_error": _float(inner_worst)})], [None]),
    ]


_SUITES = ("defect", "hausdorff", "pick", "cardid", "kernel")


def _cmd_checks(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    # every suite gets the same checks, whether or not it reads q and the horizon
    require_q(args.q)
    if args.horizon < 1:
        raise ValueError("horizon must be at least 1")
    run = {
        "defect": lambda: _suite_defect(tree, args.q, args.horizon),
        "hausdorff": lambda: _suite_hausdorff(tree, args.q, args.horizon),
        "pick": lambda: _suite_pick(tree, args.q),
        "cardid": lambda: _suite_cardid(tree),
        "kernel": lambda: _suite_kernel(tree, args.q, _seed()),
    }
    groups: list[tuple] = []
    for suite in _SUITES if args.suite == "all" else (args.suite,):
        found = run[suite]()
        for rows, _names in found:
            for _prefix, body in rows:
                body["suite"] = suite
        groups.extend(found)
    failed = []
    for rows, names in groups:
        if bad := [prefix for prefix, body in rows if not body["passed"]]:
            failed.extend(prefix if v is None else f"{prefix}[{v}]" for v in names for prefix in bad)
    results = {
        "assertions": groups,
        "total": sum(len(rows) * len(names) for rows, names in groups),
        "failed": failed,
        "all_passed": not failed,
    }
    inputs = {"tree": _sha256(args.tree), "q": args.q, "horizon": args.horizon}
    _emit(_report("checks", inputs, results))
    return EXIT_OK if not failed else EXIT_FAILED


# -- parser -------------------------------------------------------------------------


@functools.cache  # one parser per process, shared by in-process callers of ``main``
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeshift",
        description="Dirichlet shifts on rooted directed trees: validation, "
        "profiles, moments, identity checks and equivalence decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a tree file")
    p.add_argument("tree")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("profile", help="depth profile and cokernel dimension")
    p.add_argument("tree")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("equiv", help="decide unitary equivalence of two shifts")
    p.add_argument("tree1")
    p.add_argument("tree2")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None, help="echoed in the report; no verdict reads it")
    p.add_argument("--verify-depth", type=int, default=None)
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("moments", help="exact moments of a shift at a vertex")
    p.add_argument("tree")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--vertex", required=True)
    p.add_argument("--kmax", type=_nonnegative, required=True)
    p.add_argument("--kind", choices=(DIRICHLET, DUAL), default=DIRICHLET)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("checks", help="run an identity-check suite")
    p.add_argument("tree")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--suite", choices=_SUITES + ("all",), default="all")
    horizon_help = "defect suite depth; hausdorff reads min(horizon, 10), kernel max(10, branching index + 5), "
    p.add_argument("--horizon", type=int, default=8, help=horizon_help + "pick and cardid no depth")
    p.set_defaults(handler=_cmd_checks)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (TreeFormatError, TruncationLoss, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except UnknownVertex as exc:
        print(f"error: unknown vertex {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except TreeshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
