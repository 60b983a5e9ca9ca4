"""Correctness gate: check every report against oracles the benchmark computes.

Exact fields are compared with values computed here in ``Fraction``
arithmetic from the tree descriptions the generator built, never from the
program's own functions: moments are (n+q)_k/(n+1)_k (or the reciprocal
for the Cauchy dual), q-isometry defects are 0 at order q, sibling-chain
sums are 1, and verdicts and witnesses follow from how each pair was
built.  Float fields are held to the package's stated tolerances.  Kernel
series values are compared with the float recurrence
c_{n+1} = c_n (l+1+n)/(l+q+n) (and its reciprocal ratio on the Bergman
side) evaluated here.

Each ``check_*`` function returns None when the op's output is correct
and otherwise a one-line cause.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

from workloads import HAUSDORFF_DEPTH_CAP, GenTree, Op, series_order

RESIDUAL_TOL = 1e-8  # intertwining residual tolerance of the package
MATRIX_TOL = 1e-10  # moment and kernel-oracle tolerances of the package
ADJOINT_TOL = 1e-12
SERIES_RTOL = 1e-10  # series value vs. recurrence, relative to the sum of |terms|
HAUSDORFF_ORDER = 12
PICK_BOUND = 100
CARDID_KMAX = 5

_SUITES = ("defect", "hausdorff", "pick", "cardid", "kernel")


# -- exact oracles ------------------------------------------------------------------


@lru_cache(maxsize=None)
def moments(a: int, b: int, kmax: int) -> tuple[Fraction, ...]:
    """(a)_k/(b)_k for k = 0..kmax, each product built from scratch."""
    out = []
    for k in range(kmax + 1):
        num = den = 1
        for i in range(k):
            num *= a + i
            den *= b + i
        out.append(Fraction(num, den))
    return tuple(out)


def dirichlet_moments(n: int, q: int, kmax: int) -> tuple[Fraction, ...]:
    return moments(n + q, n + 1, kmax)


def dual_moments(n: int, q: int, kmax: int) -> tuple[Fraction, ...]:
    return moments(n + 1, n + q, kmax)


@lru_cache(maxsize=None)
def defect_value(n: int, q: int, order: int) -> Fraction:
    """sum_k (-1)^k C(order, k) m_k at depth n for the Dirichlet shift."""
    m = dirichlet_moments(n, q, order)
    return sum((Fraction((-1) ** k * math.comb(order, k)) * m[k] for k in range(order + 1)), Fraction(0))


@lru_cache(maxsize=None)
def completely_monotone(n: int, q: int, order: int) -> bool:
    """Exact sign check of the first ``order`` differences of the dual moments."""
    seq = list(dual_moments(n, q, 2 * order + 2))
    for m in range(order + 1):
        if any((-1) ** m * x < 0 for x in seq):
            return False
        seq = [b - a for a, b in zip(seq, seq[1:])]
    return True


def log_convex(k: int, l: int, bound: int) -> int | None:
    """First n <= bound where (k)_n/(l)_n fails log-convexity, else None."""
    for n in range(1, bound + 1):
        # c_n^2 <= c_{n-1} c_{n+1}  <=>  (l+n)(k+n-1) <= (l+n-1)(k+n)
        if (l + n) * (k + n - 1) > (l + n - 1) * (k + n):
            return n
    return None


def sibling_chain_sum(tree: GenTree, v: str, k: int) -> Fraction:
    """Push products of reciprocal sibling counts down k generations."""

    def kids(u: str) -> list[str]:
        if u in tree.children:
            return tree.children[u]
        return [f"{u}~1"] if "~" not in u else [f"{u.rpartition('~')[0]}~{int(u.rpartition('~')[2]) + 1}"]

    level = {v: Fraction(1)}
    for _ in range(k):
        nxt: dict[str, Fraction] = {}
        for u, weight in level.items():
            children = kids(u)
            for c in children:
                nxt[c] = weight / len(children)
        level = nxt
    return sum(level.values(), Fraction(0))


# -- report checks ---------------------------------------------------------------------


def _common(report: dict, command: str, inputs: dict) -> str | None:
    if report.get("command") != command or report.get("tool") != "treeshift":
        return f"report command {report.get('command')!r}, expected {command!r}"
    if report.get("inputs") != inputs:
        return f"inputs {report.get('inputs')} differ from {inputs}"
    return None


def check_equiv(op: Op, report: dict, digests: dict[str, str], seed: int) -> str | None:
    e = op.expect
    _cmd, f1, f2, *_ = op.argv
    q = int(op.argv[op.argv.index("--q") + 1])
    cause = _common(report, "equiv", {"tree1": digests[f1], "tree2": digests[f2], "q": q, "horizon": e["horizon"]})
    if cause:
        return cause
    res = report["results"]
    for key, want in (
        ("verdict", e["verdict"]),
        ("certainty", e["certainty"]),
        ("witness_generation", e["witness"]),
        ("cokernel_dims", e["cokernel_dims"]),
        ("profiles", e["profiles"]),
    ):
        if res.get(key) != want:
            return f"{key} {res.get(key)!r}, expected {want!r}"
    inter = res.get("intertwining")
    if e["intertwining"] is None:
        return None if inter is None else "unexpected intertwining block"
    if inter is None or inter.get("depth") != e["verify_depth"]:
        return f"intertwining block {inter!r} missing or at wrong depth"
    if e["intertwining"] == "skipped":
        if inter.get("skipped") != "depth profiles differ; no graded unitary":
            return f"intertwining not skipped: {inter!r}"
        return None
    if inter.get("seed") != seed:
        return f"intertwining seed {inter.get('seed')}, expected {seed}"
    residual = float(inter["residual"])
    if not residual < RESIDUAL_TOL:
        return f"intertwining residual {residual:.3e} >= {RESIDUAL_TOL:g}"
    return None


def _check_suite(suite: str, items: list[dict], tree: GenTree, q: int, horizon: int) -> str | None:
    if suite == "defect":
        want = {}
        for v, n in tree.truncated(horizon).items():
            want[f"defect_zero[{v}]"] = str(defect_value(n, q, q))
            if q >= 2:
                want[f"defect_nonzero_order_{q - 1}[{v}]"] = str(defect_value(n, q, q - 1))
        got = {a["name"]: a.get("value") for a in items}
    elif suite == "hausdorff":
        cap = min(horizon, HAUSDORFF_DEPTH_CAP)
        want = {
            f"hausdorff_order_{HAUSDORFF_ORDER}[{v}]": (completely_monotone(n, q, HAUSDORFF_ORDER), None)
            for v, n in tree.truncated(cap).items()
        }
        got = {a["name"]: (a.get("passed"), a.get("violation")) for a in items}
    elif suite == "pick":
        blocks = [("root", 0)] + [(v, tree.depth[v] + 1) for v, _c in tree.branching()]
        want = {f"pick_log_convexity[{name}]": log_convex(l + 1, l + q, PICK_BOUND) for name, l in blocks}
        want["pick_reversed_parameters_fail"] = log_convex(2, 1, PICK_BOUND)
        got = {a["name"]: a.get("witness") for a in items}
    elif suite == "cardid":
        want = {
            f"sibling_chain_sum_one[{v}]": [str(sibling_chain_sum(tree, v, k)) for k in range(1, CARDID_KMAX + 1)]
            for v in tree.order
        }
        got = {a["name"]: a.get("values") for a in items}
    else:
        limits = {
            "kernel_offdiagonal_zero": ("max_abs", MATRIX_TOL),
            "kernel_diagonal_matches": ("max_abs_error", MATRIX_TOL),
            "adjoint_consistency": ("max_abs_error", ADJOINT_TOL),
        }
        if sorted(a["name"] for a in items) != sorted(limits):
            return f"kernel suite assertions {[a['name'] for a in items]}"
        for a in items:
            key, tol = limits[a["name"]]
            if not float(a[key]) < tol:
                return f"{a['name']} {a[key]} >= {tol:g}"
        want = got = None
    if want != got:
        if want is None or got is None or set(want) != set(got):
            return f"{suite} suite names differ ({len(got or ())} reported, {len(want or ())} expected)"
        bad = next(name for name in want if want[name] != got[name])
        return f"{suite} {bad}: {got[bad]!r}, expected {want[bad]!r}"
    if len(items) != len({a['name'] for a in items}):
        return f"{suite} suite repeats an assertion"
    return None


def check_checks(op: Op, report: dict, tree: GenTree, digest: str) -> str | None:
    e = op.expect
    q, horizon = e["q"], e["horizon"]
    cause = _common(report, "checks", {"tree": digest, "q": q, "horizon": horizon})
    if cause:
        return cause
    res = report["results"]
    assertions = res["assertions"]
    suites = _SUITES if e["suite"] == "all" else (e["suite"],)
    if [a["suite"] for a in assertions] != sorted((a["suite"] for a in assertions), key=suites.index):
        return "assertions are not grouped by suite"
    for suite in suites:
        cause = _check_suite(suite, [a for a in assertions if a["suite"] == suite], tree, q, horizon)
        if cause:
            return cause
    if not all(a["passed"] is True for a in assertions):
        return f"assertion failed: {next(a['name'] for a in assertions if a['passed'] is not True)}"
    if res["total"] != len(assertions) or res["failed"] != [] or res["all_passed"] is not True:
        return f"summary total={res['total']} failed={res['failed'][:3]} all_passed={res['all_passed']}"
    return None


def check_moments(op: Op, report: dict, digest: str) -> str | None:
    e = op.expect
    q, kmax, n = e["q"], e["kmax"], e["depth"]
    cause = _common(report, "moments", {"tree": digest, "q": q, "kmax": kmax})
    if cause:
        return cause
    res = report["results"]
    exact = dirichlet_moments(n, q, kmax) if e["kind"] == "dirichlet" else dual_moments(n, q, kmax)
    want = {"vertex": e["vertex"], "depth": n, "kind": e["kind"], "moments": [str(x) for x in exact]}
    for key, value in want.items():
        if res.get(key) != value:
            bad = value if key != "moments" else next(
                (f"k={k}: {a!r} != {b!r}" for k, (a, b) in enumerate(zip(res.get(key) or [], value)) if a != b),
                "length differs",
            )
            return f"{key} differs: {bad}"
    check = res.get("matrix_check", {})
    if check.get("ran") is not True or check.get("horizon") != max(1, n + kmax) or check.get("passed") is not True:
        return f"matrix_check {check!r}"
    if not float(check["max_relative_error"]) < MATRIX_TOL:
        return f"moment oracle error {check['max_relative_error']} >= {MATRIX_TOL:g}"
    return None


def check_cli(op: Op, code: int | None, out: str, err: str, trees: dict[str, GenTree],
              digests: dict[str, str], seed: int) -> str | None:
    """Cause of failure of a CLI op, or None when its report is correct."""
    if code is None:
        return f"traceback: {err.strip().splitlines()[-1] if err.strip() else '?'}"
    if code != op.expect["exit"]:
        detail = err.strip().splitlines()[0] if err.strip() else "no message"
        return f"exit {code}, expected {op.expect['exit']} ({detail})"
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"unparseable report: {exc}"
    command = op.argv[0]
    if command == "equiv":
        return check_equiv(op, report, digests, seed)
    fname = op.argv[1]
    if command == "checks":
        return check_checks(op, report, trees[fname], digests[fname])
    return check_moments(op, report, digests[fname])


# -- library call checks ----------------------------------------------------------------


def series_value(l: int, q: int, space: str, x: complex, order: int) -> tuple[complex, float]:
    """Partial sum through ``order`` by the one-step recurrence, and sum |terms|."""
    c, power, total, scale = 1.0, 1 + 0j, 0j, 0.0
    for n in range(order + 1):
        total += c * power
        scale += c * abs(power)
        if space == "dirichlet":
            c *= (l + 1 + n) / (l + q + n)
        else:
            c *= (l + q + n) / (l + 1 + n)
        power *= x
    return total, scale


def check_series(op: Op, result: dict) -> str | None:
    call = op.call
    q, radius = call["q"], call["radius"]
    blocks = {str(bid): l for bid, l in result["spec"]}
    if blocks != op.expect["blocks"]:
        return f"kernel_block_spec {blocks}, expected {op.expect['blocks']}"
    z, w = complex(*call["z"]), complex(*call["w"])
    x = z * w.conjugate()
    for space in ("dirichlet", "bergman"):
        order = result["order"][space]
        want_order = series_order(q, space, radius)
        if order != want_order:
            return f"{space} series order {order}, expected {want_order}"
        out = result["apply"][space]
        if set(map(str, out)) != {str(bid) for bid, _c in call["g"]}:
            return f"{space} kernel_apply blocks {sorted(map(str, out))}"
        for bid, coords in call["g"]:
            total, scale = series_value(blocks[str(bid)], q, space, x, order)
            got = out[bid]
            for (re, im), value in zip(coords, got):
                want = total * complex(re, im)
                if abs(value - want) > SERIES_RTOL * scale * abs(complex(re, im)):
                    return f"{space} block {bid}: {value!r}, expected {want!r}"
            if len(got) != len(coords):
                return f"{space} block {bid}: {len(got)} coordinates, expected {len(coords)}"
    return None


def norm_oracle(op: Op) -> Fraction:
    call = op.call
    q, space = call["q"], call["space"]
    depths = op.expect["block_depths"]
    num_den = {None: (q, 1)} | {v: (d + q + 1, d + 2) for v, d in depths.items()}
    weights = {}
    for key, (a, b) in num_den.items():
        weights[key] = moments(a, b, len(call["layers"])) if space == "dirichlet" else moments(b, a, len(call["layers"]))
    total = Fraction(0)
    for n, (root, blocks) in enumerate(call["layers"]):
        total += root * root * weights[None][n]
        for v, coords in blocks.items():
            total += sum(c * c for c in coords) * weights[v][n]
    return total


def check_norm(op: Op, result, expected: Fraction) -> str | None:
    if not isinstance(result, Fraction) or result != expected:
        return f"{op.call['space']} norm {result}, expected {expected}"
    return None


def check_pick(op: Op, result: list) -> str | None:
    bound, q = op.call["bound"], op.call["q"]
    for l, report in result:
        witness = log_convex(l + 1, l + q, bound)
        if report.passed != (witness is None) or report.witness != witness or report.checked_through != bound:
            return f"pick block l={l}: {report}, expected witness {witness}"
    return None
