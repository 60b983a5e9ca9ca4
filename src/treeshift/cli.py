"""Command line front end: parse tree files, run analyses, emit reports.

Reports are JSON objects with sorted keys (byte-identical across runs on
identical inputs); rationals are rendered as ``p/q`` strings and floats
with 17 significant digits.  Exit codes: 0 success / equivalent, 1 failed
assertion or not equivalent, 2 malformed input or arguments, 3 invariant violated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .classify import (
    build_graded_unitary,
    cokernel_dimension,
    decide_equivalence,
    verify_intertwining,
)
from .errors import TreeFormatError, TreeshiftError, UnknownVertex
from .numerics import hausdorff_check
from .shifts import DIRICHLET, DUAL, make_shift, vec_norm
from .spaces import (
    kernel_block_spec,
    kernel_matrix_oracle,
    kernel_oracle_expected,
    log_convexity_check,
    pick_property_check,
)
from .trees import Tree, load_tree, sibling_chain_identity_sum

SCHEMA_VERSION = 1
DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_FORMAT = 2
EXIT_INVARIANT = 3


def _rational(x: Fraction) -> str:
    return str(Fraction(x))


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


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


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
        print("generation,defect")
        for n, value in sorted(payload["profile"].items(), key=lambda kv: int(kv[0])):
            print(f"{n},{value}")
        return EXIT_OK
    _emit(_report("profile", {"tree": _sha256(args.tree), "horizon": args.horizon}, payload))
    return EXIT_OK


def _cmd_equiv(args: argparse.Namespace) -> int:
    tree1, tree2 = load_tree(args.tree1), load_tree(args.tree2)
    verdict = decide_equivalence(tree1, tree2, args.q, args.horizon)
    results = {
        "verdict": verdict.result,
        "certainty": verdict.certainty,
        "witness_generation": verdict.witness,
        "cokernel_dims": [cokernel_dimension(tree1), cokernel_dimension(tree2)],
        "profiles": [
            {str(n): c for n, c in sorted(verdict.profile1.entries.items())},
            {str(n): c for n, c in sorted(verdict.profile2.entries.items())},
        ],
    }
    if args.verify_depth is not None and verdict.equivalent:
        if verdict.profile1.same_as(verdict.profile2):
            unitary = build_graded_unitary(tree1, tree2, args.q, args.horizon)
            residual = verify_intertwining(
                tree1, tree2, args.q, unitary, args.verify_depth, seed=_seed()
            )
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
    inputs = {
        "tree1": _sha256(args.tree1),
        "tree2": _sha256(args.tree2),
        "q": args.q,
        "horizon": args.horizon,
    }
    _emit(_report("equiv", inputs, results))
    return EXIT_OK if verdict.equivalent else EXIT_FAILED


def _cmd_moments(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    if not tree.contains(args.vertex):
        raise UnknownVertex(args.vertex)
    depth = tree.depth_of(args.vertex)
    horizon = args.horizon if args.horizon is not None else max(1, depth + args.kmax)
    shift = make_shift(tree, args.q, args.kind, horizon)
    exact = shift.moment_sequence(args.vertex, args.kmax)
    check = {"ran": False, "horizon": horizon}
    if depth + args.kmax <= horizon:
        worst = 0.0
        vec = {args.vertex: 1.0}  # S^k e_v, one application of S per k
        for k in range(args.kmax + 1):
            if k:
                vec = shift.apply(vec)
            oracle = vec_norm(vec) ** 2
            worst = max(worst, abs(oracle - float(exact[k])) / float(exact[k]))
        check = {
            "ran": True,
            "horizon": horizon,
            "max_relative_error": _float(worst),
            "passed": worst < 1e-10,
        }
    if args.format == "csv":
        print("k,moment")
        for k, value in enumerate(exact):
            print(f"{k},{_rational(value)}")
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


# the defect and hausdorff suites compute once per generation: defects and
# moments depend on depth alone
def _suite_defect(tree: Tree, q: int, horizon: int) -> list[dict]:
    shift = make_shift(tree, q, DIRICHLET, horizon)
    assertions = []
    for gen in shift.trunc.generations:
        defect = shift.q_isometry_defect(gen[0], q)
        lower = shift.q_isometry_defect(gen[0], q - 1) if q >= 2 else None
        for v in gen:
            assertions.append(
                {"name": f"defect_zero[{v}]", "passed": defect == 0, "value": _rational(defect)}
            )
            if lower is not None:
                assertions.append(
                    {
                        "name": f"defect_nonzero_order_{q - 1}[{v}]",
                        "passed": lower != 0,
                        "value": _rational(lower),
                    }
                )
    return assertions


def _suite_hausdorff(tree: Tree, q: int, horizon: int, order: int = 12) -> list[dict]:
    depth_cap = min(horizon, 10)
    shift = make_shift(tree, q, DUAL, horizon)
    assertions = []
    for gen in shift.trunc.generations[: depth_cap + 1]:
        outcome = hausdorff_check(shift.moment_sequence(gen[0], 2 * order + 2), order)
        violation = list(map(str, outcome.violation)) if outcome.violation else None
        for v in gen:
            assertions.append(
                {"name": f"hausdorff_order_{order}[{v}]", "passed": outcome.passed, "violation": violation}
            )
    return assertions


def _suite_pick(tree: Tree, q: int, bound: int = 100) -> list[dict]:
    assertions = []
    for block_id, l_param in kernel_block_spec(tree).blocks:
        branch_depth = None if l_param == 0 else l_param - 1
        report = pick_property_check(q, branch_depth, bound)
        name = "root" if block_id is None else block_id
        assertions.append(
            {"name": f"pick_log_convexity[{name}]", "passed": report.passed, "witness": report.witness}
        )
    control = log_convexity_check(2, 1, bound)
    assertions.append(
        {
            "name": "pick_reversed_parameters_fail",
            "passed": not control.passed and control.witness == 1,
            "witness": control.witness,
        }
    )
    return assertions


def _suite_cardid(tree: Tree, horizon: int, kmax: int = 5) -> list[dict]:
    assertions = []
    for v in tree.vertices:
        sums = [sibling_chain_identity_sum(tree, v, k) for k in range(1, kmax + 1)]
        assertions.append(
            {
                "name": f"sibling_chain_sum_one[{v}]",
                "passed": all(s == 1 for s in sums),
                "values": [_rational(s) for s in sums],
            }
        )
    return assertions


def _suite_kernel(tree: Tree, q: int, seed: int, nmax: int = 5) -> list[dict]:
    # the deepest block sits at depth branching_index(); its powers up to nmax must fit
    depth = max(10, tree.branching_index() + nmax)
    shift = make_shift(tree, q, DUAL, depth)
    off_worst = 0.0
    diag_worst = 0.0
    for j in range(nmax + 1):
        for k in range(nmax + 1):
            block = kernel_matrix_oracle(shift, j, k)
            if j == k:
                diag_worst = max(diag_worst, float(np.max(np.abs(block - kernel_oracle_expected(shift, k)))))
            else:
                off_worst = max(off_worst, float(np.max(np.abs(block))))
    rng = np.random.default_rng(seed)
    inner_worst = 0.0
    # random coordinates below the horizon generation, zeros on it
    inside = sum(map(len, shift.trunc.generations[:-1]))
    f, g = np.zeros((2, len(shift.trunc.vertices)))
    for _ in range(8):
        f[:inside] = rng.standard_normal(inside)
        g[:inside] = rng.standard_normal(inside)
        inner_worst = max(inner_worst, float(abs(shift.act(f) @ g - f @ shift.act_adjoint(g))))
    return [
        {"name": "kernel_offdiagonal_zero", "passed": off_worst < 1e-10, "max_abs": _float(off_worst)},
        {"name": "kernel_diagonal_matches", "passed": diag_worst < 1e-10, "max_abs_error": _float(diag_worst)},
        {"name": "adjoint_consistency", "passed": inner_worst < 1e-12, "max_abs_error": _float(inner_worst)},
    ]


_SUITES = ("defect", "hausdorff", "pick", "cardid", "kernel")


def _cmd_checks(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    suites = _SUITES if args.suite == "all" else (args.suite,)
    assertions: list[dict] = []
    for suite in suites:
        if suite == "defect":
            found = _suite_defect(tree, args.q, args.horizon)
        elif suite == "hausdorff":
            found = _suite_hausdorff(tree, args.q, args.horizon)
        elif suite == "pick":
            found = _suite_pick(tree, args.q)
        elif suite == "cardid":
            found = _suite_cardid(tree, args.horizon)
        else:
            found = _suite_kernel(tree, args.q, _seed())
        for item in found:
            item["suite"] = suite
        assertions.extend(found)
    failed = [a["name"] for a in assertions if not a["passed"]]
    results = {
        "assertions": assertions,
        "total": len(assertions),
        "failed": failed,
        "all_passed": not failed,
    }
    inputs = {"tree": _sha256(args.tree), "q": args.q, "horizon": args.horizon}
    _emit(_report("checks", inputs, results))
    return EXIT_OK if not failed else EXIT_FAILED


# -- parser -------------------------------------------------------------------------


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
    p.add_argument("--horizon", type=int, required=True)
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
    p.add_argument("--horizon", type=int, default=8)
    p.set_defaults(handler=_cmd_checks)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (TreeFormatError, ValueError, OSError) as exc:
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
