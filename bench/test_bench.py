"""Self-tests of the benchmark.  Run with ``python -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def checks_runner(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ck") / "checks"
    ts, workload, loaded = run.setup_once("checks_exact", SEED, directory)
    return run.Runner(ts, workload, loaded, directory, SEED)


@pytest.fixture(scope="module")
def equiv_runner(tmp_path_factory):
    directory = tmp_path_factory.mktemp("eq") / "equiv"
    ts, workload, loaded = run.setup_once("equiv_verify", SEED, directory)
    return run.Runner(ts, workload, loaded, directory, SEED)


def _op(runner, name):
    return next(op for op in runner.workload.ops if op.name == name)


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic(name):
    first, second = generate(name, SEED), generate(name, SEED)
    assert first.files() == second.files()
    assert [op.to_json() for op in first.ops] == [op.to_json() for op in second.ops]
    other = generate(name, SEED + 1)
    assert other.files() != first.files()
    assert sorted(op.name for op in other.ops) == sorted(op.name for op in first.ops)


def test_corrupted_exact_field_counts_as_failed(checks_runner):
    runner = checks_runner
    op = _op(runner, "moments/line/dirichlet/q3/k300")
    code, out, err = runner._cli(op)
    assert runner._check_cli(op, code, out, err) is None
    report = json.loads(out)
    report["results"]["moments"][17] = "1/3"
    corrupted = json.dumps(report, indent=2, sort_keys=True)
    cause = runner._check_cli(op, code, corrupted, err)
    assert cause is not None and "k=17" in cause

    op = _op(runner, "checks/binary3/all/q2/h8")
    code, out, err = runner._cli(op)
    assert runner._check_cli(op, code, out, err) is None
    report = json.loads(out)
    item = next(a for a in report["results"]["assertions"] if a["name"].startswith("defect_nonzero"))
    item["value"] = "-1/7"
    tally = run.Tally()
    tally.record(op, runner._check_cli(op, code, json.dumps(report), err))
    assert tally.failed == 1 and tally.attempted == 1


def test_known_defect_is_counted_but_expected(checks_runner):
    runner = checks_runner
    op = _op(runner, "checks/binary6/kernel/q3/h8")
    assert op.known_defect
    tally = run.Tally()
    seconds, cause = runner.run(op)
    tally.record(op, cause)
    assert cause.startswith("exit 3,") and tally.failed == 1
    assert tally.unexpected({op.name: op}) == []


def test_traced_self_time_within_op_wall_time(equiv_runner):
    runner = equiv_runner
    ops = [_op(runner, n) for n in ("equiv/binary6-0/q2", "equiv/perturb0/q2", "equiv/fan100-0/q3", "equiv/totals0/q1")]
    main = runner.ts.cli.main
    matrix = runner.ts.ShiftOperator.matrix
    plain = [runner.run(op)[1] for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        assert runner.ts.cli.main is not main
        traced = [runner.run(op, tracer, i)[1] for i, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    assert runner.ts.cli.main is main and runner.ts.ShiftOperator.matrix is matrix
    assert traced == plain == [None] * len(ops)
    for i in range(len(ops)):
        wall, layered = tracer.op_self_times(i)
        assert 0 < layered <= wall + 1e-9
    stats = tracer.layer_stats(range(len(ops)))
    assert stats["cli.main"]["calls"] == len(ops)
    assert stats["classify.verify_intertwining"]["calls"] == 2
    assert stats["shifts.matrix"]["bytes"] > 0


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel_series", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_cold_setup_imports_numpy_inside_the_timed_region(tmp_path):
    # cold_setup.py exits non-zero if numpy or treeshift was imported before timing
    seconds, factor = run.cold_setup("kernel_series", SEED, tmp_path / "cold")
    assert seconds > 0 and factor > 0
    assert sorted(p.name for p in (tmp_path / "cold").iterdir()) == sorted(generate("kernel_series", SEED).trees)


def test_series_oracle_matches_closed_form():
    # c_n = (l+1)_n/(l+q)_n; with l = 0, q = 2 this is 1/(n+1), the log series
    total, _scale = oracles.series_value(0, 2, "dirichlet", 0.5, 200)
    assert abs(total - 2 * 0.6931471805599453) < 1e-12


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = {f"{layer}.{stat}" for layer, stats in run.PER_LAYER.items() for stat, _unit in stats}
    produced |= {"classify.residual_margin", "trace_overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert [m["name"] for m in spec["end_to_end"]] == [
        "pass_s", "op_s_p50", "op_s_p90", "setup_s", "peak_rss_mb", "ok_ratio"
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    mapped = json.loads((HERE / "layers.json").read_text())
    for row in mapped["layer_map"]:
        assert set(row["layers"]) <= produced
