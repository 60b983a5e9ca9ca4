"""treeshift benchmark: time seeded workloads end to end and per layer.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload equiv_verify --seed 1 --seconds 30 --trace 0

Workloads are ``equiv_verify``, ``checks_exact`` and ``kernel_series``
(see ``workloads.py``).  The package is imported from ``src/`` of the
checkout; there is nothing to build.  CLI commands run in-process through
``treeshift.cli.main``; kernel calls go through the public ``treeshift``
API.  The load is a closed loop: one client, one op at a time, no extra
threads.  Every report is checked by ``oracles.py`` outside the timed
region.

Passes over the op list repeat until ``--seconds`` have passed, at least
three passes ran and at least ten op samples lie above the 90th
percentile.  With ``--trace 0`` the last line is a JSON object with the
end-to-end metrics: ``pass_s`` (time of one pass, each op taken at its
median over the passes), ``op_s_p50`` and ``op_s_p90`` (nearest-rank
percentiles of single-op times pooled over the passes), ``setup_s``
(median of nine cold set-ups, each in a fresh interpreter: import
treeshift and numpy, generate the inputs, write them as JSON, load each
once), ``peak_rss_mb`` (peak resident memory of the process once every op
has run once) and ``ok_ratio`` (ops whose output passed its
check, over ops attempted; ``failed_ratio`` is printed beside it).  With
``--trace 1`` untraced and traced passes alternate, and the last line
holds the per-layer metrics of the traced passes (each the median over
traced passes of that pass's total) plus ``classify.residual_margin`` and
``trace_overhead_ratio``.  Spans are written to
``.bench_build/treeshift-bench/spans-<workload>.jsonl.gz``, replacing
those of the previous traced run of the workload.

The end-to-end times are scaled to a reference host speed.  The host this
was written on (2 vCPUs) changes speed by up to 50% between regimes that
last tens of seconds, in CPU time as in wall time.  So a fixed gauge, a
small loop of ``Fraction`` arithmetic, runs before every op and around
every set-up, and each pass's times are multiplied by
``(GAUGE_REF_S / median gauge time of the pass) ** SENSITIVITY[workload]``.
The scaled times read as seconds on a host of the reference speed and
vary far less between runs than raw wall times; the raw wall pass totals
and set-up times are printed beside the metrics.  Per-layer times are raw.

Inputs and spans are written under ``.bench_build/`` in the checkout; the
input directories are removed at exit.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Workload, generate  # noqa: E402

SETUP_REPEATS = 9  # cold set-ups, each in a fresh interpreter
MIN_PASSES = 3
MIN_TAIL = 10  # samples that must lie above the reported p90
HARD_LIMIT_S = 150.0  # stop adding passes past this, whatever else holds
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h


# -- environment ------------------------------------------------------------------------


def _openblas_threads() -> int | None:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "treeshift").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": _openblas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": _commit(root),
        "src_sha256": digest.hexdigest()[:16],
    }


# -- set-up --------------------------------------------------------------------------------


def _fresh_import():
    for name in [n for n in sys.modules if n == "treeshift" or n.startswith("treeshift.")]:
        del sys.modules[name]
    ts = importlib.import_module("treeshift")
    importlib.import_module("treeshift.cli")
    return ts


def setup_once(name: str, seed: int, directory: Path):
    """Import treeshift, generate the inputs, write them, load each once."""
    ts = _fresh_import()
    workload = generate(name, seed)
    directory.mkdir(parents=True)
    for fname, text in workload.files().items():
        (directory / fname).write_text(text, encoding="utf-8")
    loaded = {fname: ts.load_tree(str(directory / fname)) for fname in workload.trees}
    return ts, workload, loaded


def cold_setup(name: str, seed: int, directory: Path) -> tuple[float, float]:
    """Raw seconds of one ``setup_once`` in a fresh interpreter, numpy import
    included, and the speed factor measured beside it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold_setup.py"), name, str(seed), str(directory)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold set-up failed: {proc.stderr.strip()}")
    seconds, factor = proc.stdout.split()
    return float(seconds), float(factor)


# -- host speed ----------------------------------------------------------------------------


def gauge() -> float:
    """Seconds for a fixed loop of small ``Fraction`` arithmetic."""
    start = perf_counter()
    for k in range(1, 300):
        Fraction(k, k + 1) * Fraction(k + 1, k + 2) + Fraction(1, k)
    return perf_counter() - start


GAUGE_REF_S = 0.002  # gauge() at the reference speed: the slow regime of a 2-vCPU host, CPython 3.11

# How strongly each workload's time follows the gauge: the log-log slope of
# pass time on median gauge time over about forty passes of one seed (24-s
# windows of single ops for kernel_series).  Exact Fraction work follows it
# closely; equiv_verify's dense numpy products, on 2 OpenBLAS threads, much
# less.  Scaling by the gauge at these exponents cut the passes' coefficient
# of variation from 0.082 to 0.040 (checks_exact) and from 0.068 to 0.038
# (equiv_verify); at exponent 1 equiv_verify's rose to 0.11.  A 300 x 300
# matrix product as equiv_verify's gauge tracked its passes within one
# process but not between processes.  Set-ups import, generate and parse
# in pure Python and use exponent 1.
SENSITIVITY = {"equiv_verify": 0.4, "checks_exact": 0.8, "kernel_series": 0.9}


def speed_factor(times: list[float], exponent: float = 1.0) -> float:
    """(Reference gauge time over the median measured one) ** exponent."""
    return (GAUGE_REF_S / statistics.median(times)) ** exponent


# -- ops --------------------------------------------------------------------------------------


class Runner:
    """Runs ops against one imported treeshift and checks their outputs."""

    def __init__(self, ts, workload: Workload, loaded: dict, directory: Path, seed: int):
        self.ts = ts
        self.workload = workload
        self.loaded = loaded
        self.directory = directory
        self.seed = seed
        os.environ["TREESHIFT_SEED"] = str(seed)  # the program's seed for its random test vectors
        self.digests = {
            fname: hashlib.sha256((directory / fname).read_bytes()).hexdigest() for fname in workload.trees
        }
        self._verified: dict[tuple, str | None] = {}
        self._norms: dict[str, Fraction] = {}
        # Returning freed heap to the system between ops keeps one op's garbage
        # from raising the next op's peak, so peak RSS tracks the largest op.
        self._malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
        self.residuals: list[float] = []

    def _cli(self, op: Op):
        argv = [str(self.directory / a) if a in self.workload.trees else a for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.ts.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is an op failure, not a benchmark failure
                traceback.print_exc()
                code = None
        return code, out.getvalue(), err.getvalue()

    def _call(self, op: Op):
        ts, call = self.ts, op.call
        tree = self.loaded[call["tree"]]
        q = call["q"]
        if call["fn"] == "series":
            spec = ts.kernel_block_spec(tree)
            z, w = complex(*call["z"]), complex(*call["w"])
            g = {bid: tuple(complex(re, im) for re, im in coords) for bid, coords in call["g"]}
            result = {"spec": spec.blocks, "order": {}, "apply": {}}
            for space in ("dirichlet", "bergman"):
                order = ts.kernel_series_order(q, space, call["radius"])
                result["order"][space] = order
                result["apply"][space] = ts.kernel_apply(spec, q, space, z, w, g, order)
            return result
        if call["fn"] == "norm":
            f = ts.graded_function(tree, call["layers"])
            norm = ts.dirichlet_norm if call["space"] == "dirichlet" else ts.bergman_norm
            return norm(f, q)
        out = []
        for _bid, l in ts.kernel_block_spec(tree).blocks:
            out.append((l, ts.pick_property_check(q, None if l == 0 else l - 1, call["bound"])))
        return out

    def run(self, op: Op, tracer: Tracer | None = None, op_id: int = -1) -> tuple[float, str | None]:
        """Time one op; return (seconds, failure cause or None)."""
        body = (lambda: self._cli(op)) if op.argv else (lambda: self._call(op))
        gc.collect()
        if self._malloc_trim is not None:
            self._malloc_trim(0)
        error = None
        start = perf_counter()
        try:
            result = tracer.run_op(op_id, body) if tracer else body()
        except Exception as exc:  # a library traceback is an op failure
            result, error = None, f"traceback: {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if error:
            return seconds, error
        if op.argv:
            code, out, err = result
            if tracer:
                tracer.op = op_id
                tracer.add("cli.main", "report_bytes", len(out.encode()))
                tracer.op = -1
            return seconds, self._check_cli(op, code, out, err)
        return seconds, self._check_call(op, result)

    def _check_cli(self, op: Op, code, out: str, err: str) -> str | None:
        key = (op.name, code, hashlib.sha256(out.encode()).digest(), err)
        if key not in self._verified:
            try:
                cause = oracles.check_cli(op, code, out, err, self.workload.trees, self.digests, self.seed)
            except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
                cause = f"malformed report: {type(exc).__name__}: {exc}"
            if cause is None and op.argv[0] == "equiv" and "--verify-depth" in op.argv:
                inter = json.loads(out)["results"].get("intertwining", {})
                if "residual" in inter:
                    self.residuals.append(float(inter["residual"]))
            self._verified[key] = cause
        return self._verified[key]

    def _check_call(self, op: Op, result) -> str | None:
        fn = op.call["fn"]
        try:
            if fn == "series":
                return oracles.check_series(op, result)
            if fn == "norm":
                if op.name not in self._norms:
                    self._norms[op.name] = oracles.norm_oracle(op)
                return oracles.check_norm(op, result, self._norms[op.name])
            return oracles.check_pick(op, result)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            return f"malformed result: {type(exc).__name__}: {exc}"


# -- measurement ---------------------------------------------------------------------------------


class Tally:
    """Op outcomes of the timed passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[tuple[str, str], int] = {}

    def record(self, op: Op, cause: str | None) -> None:
        self.attempted += 1
        if cause is None:
            return
        self.failures[(op.name, cause)] = self.failures.get((op.name, cause), 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def unexpected(self, ops: dict[str, Op]) -> list[tuple[str, str]]:
        """Failures that are not the documented defect the op is marked with."""
        out = []
        for name, cause in self.failures:
            op = ops[name]
            if not (op.known_defect and cause.startswith("exit 3,") and "leave horizon" in cause):
                out.append((name, cause))
        return out


def run_pass(runner: Runner, ops: list[Op], tally: Tally | None, tracer: Tracer | None = None,
             first_id: int = 0) -> tuple[list[float], float]:
    """Run every op once; return the raw op times and the pass's speed factor."""
    times, gauges = [], []
    for i, op in enumerate(ops):
        gauges.append(gauge())
        seconds, cause = runner.run(op, tracer, first_id + i)
        times.append(seconds)
        if tally is not None:
            tally.record(op, cause)
    return times, speed_factor(gauges, SENSITIVITY[runner.workload.name])


def median_pass(passes: list[list[float]]) -> float:
    """Time of one pass, each op taken at its median over the passes.

    Less sensitive than the median of pass totals to a slow spell of the
    host that covers part of one pass.
    """
    return sum(statistics.median(op_times) for op_times in zip(*passes))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_count(values: list[float], p: float) -> int:
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


PER_LAYER = {
    # layer: (stat, unit) pairs reported for it
    "shifts.matrix": (("calls", "count"), ("s", "s"), ("bytes", "bytes"), ("nonzero_ratio", "1")),
    "classify.lift_graded_unitary": (("calls", "count"), ("self_s", "s"), ("columns", "count")),
    "classify.verify_intertwining": (("calls", "count"), ("self_s", "s")),
    "shifts.kernel_basis": (("calls", "count"), ("s", "s"), ("entries", "count")),
    "trees.truncate": (("calls", "count"), ("self_s", "s"), ("vertices", "count")),
    "shifts.make_shift": (("calls", "count"), ("self_s", "s"), ("vertices", "count")),
    "trees.load_tree": (("calls", "count"), ("s", "s"), ("errors", "count")),
    "numerics.hausdorff_check": (("calls", "count"), ("s", "s")),
    "numerics.alternating_binomial_sum": (("calls", "count"), ("s", "s")),
    "shifts.moment_sequence": (("calls", "count"), ("self_s", "s")),
    "shifts.q_isometry_defect": (("calls", "count"), ("self_s", "s")),
    "trees.sibling_chain_identity_sum": (("calls", "count"), ("self_s", "s")),
    "shifts.apply": (("calls", "count"), ("self_s", "s")),
    "spaces.kernel_matrix_oracle": (("calls", "count"), ("self_s", "s"), ("errors", "count")),
    "spaces.kernel_block_series": (("calls", "count"), ("s", "s"), ("terms", "count")),
    "spaces.kernel_apply": (("calls", "count"), ("s", "s")),
    "spaces.norm": (("calls", "count"), ("s", "s")),
    "spaces.pick_property_check": (("calls", "count"), ("s", "s")),
    "numerics.pochhammer": (("calls", "count"),),
    "classify.decide_equivalence": (("calls", "count"), ("s", "s")),
    "classify.build_graded_unitary": (("calls", "count"), ("self_s", "s")),
    "cli.main": (("calls", "count"), ("self_s", "s"), ("report_bytes", "bytes")),
}


def layer_metrics(tracer: Tracer, traced_passes: list[range]) -> tuple[dict, list[str]]:
    """Median over traced passes of each per-layer total, and notes on bases."""
    per_pass = [tracer.layer_stats(ids) for ids in traced_passes]
    metrics, notes = {}, []
    for layer, stats in PER_LAYER.items():
        for stat, unit in stats:
            values = []
            for rows in per_pass:
                row = rows.get(layer, {})
                if stat == "nonzero_ratio":
                    values.append(row.get("nonzero", 0) / row["entries"] if row.get("entries") else 0.0)
                else:
                    values.append(float(row.get(stat, 0.0)))
            metrics[f"{layer}.{stat}"] = _metric(statistics.median(values), unit)
    matrix = per_pass[-1].get("shifts.matrix", {})
    if matrix.get("calls"):
        notes.append(
            f"shifts.matrix base: {int(matrix['calls'])} dense matrices per pass, largest n={int(matrix['max_n'])}, "
            f"bytes = sum n^2*8 = {int(matrix['bytes'])}, nonzero_ratio = sum(n-1)/sum(n^2) "
            f"= {int(matrix['nonzero'])}/{int(matrix['entries'])}"
        )
    return metrics, notes


def _fix_mmap_threshold() -> None:
    """Give every block of 128 KiB or more its own mapping, returned when freed.

    glibc raises its mmap threshold after such a block is freed, and later
    large blocks (numpy arrays) then stay in the heap, where whichever op's
    blocks it happened to hold set the peak: peak RSS of the same op list
    differed by 10 MB between seeds.  The program's own allocations are
    unchanged; only where glibc places them.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    _fix_mmap_threshold()
    env = environment(root)
    work = root / ".bench_build" / "treeshift-bench"
    run_dir = work / f"{name}-{seed}-{os.getpid()}"
    try:
        setup_raw, setup_times = [], []
        for k in range(SETUP_REPEATS):
            raw, factor = cold_setup(name, seed, run_dir / f"setup{k}")
            setup_raw.append(raw)
            setup_times.append(raw * factor)
        ts, workload, loaded = setup_once(name, seed, run_dir / "inputs")
        runner = Runner(ts, workload, loaded, run_dir / "inputs", seed)
        ops = workload.ops
        dense_n = workload.largest_dense()
        print(f"# env {json.dumps(env, sort_keys=True)}")
        print(
            f"# workload {name} seed {seed}: {len(ops)} ops per pass, {len(workload.trees)} tree files; "
            f"largest dense matrix n={dense_n}, {8 * dense_n * dense_n} bytes computed as n^2*8"
        )
        for op in ops:
            print(f"# op {op.name} {json.dumps(op.sizes, sort_keys=True)}")
        print(
            f"# setup {SETUP_REPEATS} cold set-ups, raw wall: " + " ".join(f"{t:.4f}" for t in setup_raw) + " s"
        )

        tally = Tally()
        tracer = Tracer() if trace else None
        plain_passes: list[list[float]] = []  # scaled op times of each untraced pass
        plain_raw: list[float] = []  # raw wall time of each untraced pass
        factors: list[float] = []
        traced_passes: list[float] = []  # scaled time of each traced pass
        traced_ids: list[range] = []
        samples: list[float] = []
        start = perf_counter()
        next_id = 0
        while True:
            times, factor = run_pass(runner, ops, tally)
            plain_passes.append([t * factor for t in times])
            plain_raw.append(sum(times))
            factors.append(factor)
            samples.extend(plain_passes[-1])
            if len(plain_passes) == 1:
                # every op has run once; later passes repeat them and only add allocator drift
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                tracer.install()
                try:
                    times, factor = run_pass(runner, ops, tally, tracer, next_id)
                finally:
                    tracer.uninstall()
                traced_ids.append(range(next_id, next_id + len(ops)))
                next_id += len(ops)
                traced_passes.append(sum(times) * factor)
            elapsed = perf_counter() - start
            enough = (
                elapsed >= seconds
                and len(plain_passes) >= MIN_PASSES
                and tail_count(samples, 90) >= MIN_TAIL
            )
            if enough or elapsed >= HARD_LIMIT_S:
                break

        by_name = {op.name: op for op in ops}
        unexpected = tally.unexpected(by_name)
        pass_s = median_pass(plain_passes)
        for (op_name, cause), count in sorted(tally.failures.items()):
            kind = "known defect" if (op_name, cause) not in unexpected else "UNEXPECTED"
            print(f"FAIL {op_name}: {cause} [{kind}: {by_name[op_name].known_defect or 'no known cause'}] x{count}")
        print(
            f"# speed factor (GAUGE_REF_S / median gauge time) ** {SENSITIVITY[name]} per untraced pass: "
            + " ".join(f"{f:.3f}" for f in factors)
        )

        if tracer is not None:
            metrics, notes = layer_metrics(tracer, traced_ids)
            residual_margin = max(runner.residuals, default=0.0) / oracles.RESIDUAL_TOL
            metrics["classify.residual_margin"] = _metric(residual_margin, "1")
            untraced = statistics.median(map(sum, plain_passes))
            ratio = statistics.median(traced_passes) / untraced
            metrics["trace_overhead_ratio"] = _metric(ratio, "1")
            notes.append(
                f"trace_overhead_ratio = traced pass_s {statistics.median(traced_passes):.4f} s / "
                f"untraced pass_s {untraced:.4f} s "
                f"({len(traced_passes)} traced, {len(plain_passes)} untraced passes; both scaled)"
            )
            notes.append(
                f"classify.residual_margin = largest residual {max(runner.residuals, default=0.0):.3e} "
                f"/ tolerance {oracles.RESIDUAL_TOL:g}"
            )
            notes.append("per-layer times are raw wall seconds of the traced passes")
            spans_path = work / f"spans-{name}.jsonl.gz"  # the latest traced run of each workload
            tracer.write(spans_path, {i: ops[i % len(ops)].name for i in range(next_id)})
            notes.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(root)}")
            for note in notes:
                print(f"# {note}")
            for key, metric in metrics.items():
                print(f"{key} {metric['value']:.6g} {metric['unit']}")
        else:
            failed_ratio = tally.failed / tally.attempted
            metrics = {
                "pass_s": _metric(pass_s, "s"),
                "op_s_p50": _metric(percentile(samples, 50), "s"),
                "op_s_p90": _metric(percentile(samples, 90), "s"),
                "setup_s": _metric(statistics.median(setup_times), "s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
                "ok_ratio": _metric((tally.attempted - tally.failed) / tally.attempted, "1"),
            }
            print(
                f"pass_s {pass_s:.4f} s (sum over {len(ops)} ops of each op's median over "
                f"{len(plain_passes)} passes; raw wall pass totals " + " ".join(f"{t:.3f}" for t in plain_raw) + ")"
            )
            print(f"op_s_p50 {metrics['op_s_p50']['value']:.5f} s ({len(samples)} samples)")
            print(
                f"op_s_p90 {metrics['op_s_p90']['value']:.5f} s ({len(samples)} samples, "
                f"{tail_count(samples, 90)} above)"
            )
            print(f"setup_s {metrics['setup_s']['value']:.4f} s (median of {SETUP_REPEATS} cold set-ups)")
            print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
            print(f"failed_ratio {failed_ratio:.4f} 1 ({tally.failed} failed / {tally.attempted} attempted)")
            print(f"ok_ratio {metrics['ok_ratio']['value']:.4f} 1")
        result = {
            "correct": not unexpected,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
        print(json.dumps(result, sort_keys=True))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = HERE.parent
    package = root / "src" / "treeshift" / "__init__.py"
    if not package.is_file():
        print(f"error: no treeshift sources at {package.relative_to(root)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    return measure(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
