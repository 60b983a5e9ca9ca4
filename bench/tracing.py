"""Per-layer tracing from outside the package.

The tracer wraps the public functions of each treeshift module at every
place they are bound (the defining module, ``treeshift`` itself and every
module that imported the name, such as ``cli``, ``classify`` and
``spaces``), and the public methods of ``Tree`` and ``ShiftOperator`` on
their classes.  Nothing under ``src/`` changes; ``uninstall`` puts the
original objects back, so untraced passes run the unmodified program.

Each call records a span (layer, start, end, parent span, op id, error)
in memory; ``write`` dumps them as gzipped JSON lines at the end of a
run.  Layer names are ``<module>.<function>``; several functions can
share one layer
(``shifts.apply`` covers the shift, its adjoint, their powers and the
matrix moment oracle; ``spaces.norm`` covers both space norms).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, NamedTuple

OP_LAYER = "op"


def _matrix_work(args, kwargs, result):
    n = result.shape[0]
    return {"bytes": 8 * n * n, "nonzero": n - 1, "entries": n * n, "max_n": n}


def _kernel_basis_work(args, kwargs, result):
    return {"entries": sum(len(vec) for block in result.blocks for vec in block.vectors)}


def _vertices_work(args, kwargs, result):
    return {"vertices": len(result.vertices)}


def _shift_vertices_work(args, kwargs, result):
    return {"vertices": len(result.trunc.vertices)}


def _columns_work(args, kwargs, result):
    return {"columns": result.source.shape[1]}


def _terms_work(args, kwargs, result):
    order = kwargs["order"] if "order" in kwargs else args[3]
    return {"terms": order + 1}


# (layer, defining module, attribute, work counter); "Class.method" attributes
# are patched on the class.
SPAN_SITES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.main", "cli", "main", None),
    ("trees.load_tree", "trees", "load_tree", None),
    ("trees.truncate", "trees", "Tree.truncate", _vertices_work),
    ("trees.sibling_chain_identity_sum", "trees", "sibling_chain_identity_sum", None),
    ("shifts.make_shift", "shifts", "make_shift", _shift_vertices_work),
    ("shifts.matrix", "shifts", "ShiftOperator.matrix", _matrix_work),
    ("shifts.kernel_basis", "shifts", "ShiftOperator.kernel_basis", _kernel_basis_work),
    ("shifts.moment_sequence", "shifts", "ShiftOperator.moment_sequence", None),
    ("shifts.q_isometry_defect", "shifts", "ShiftOperator.q_isometry_defect", None),
    ("shifts.apply", "shifts", "ShiftOperator.apply", None),
    ("shifts.apply", "shifts", "ShiftOperator.apply_adjoint", None),
    ("shifts.apply", "shifts", "ShiftOperator.apply_power", None),
    ("shifts.apply", "shifts", "ShiftOperator.apply_adjoint_power", None),
    ("shifts.apply", "shifts", "ShiftOperator.moment_via_matrix", None),
    ("numerics.hausdorff_check", "numerics", "hausdorff_check", None),
    ("numerics.alternating_binomial_sum", "numerics", "alternating_binomial_sum", None),
    ("classify.decide_equivalence", "classify", "decide_equivalence", None),
    ("classify.build_graded_unitary", "classify", "build_graded_unitary", None),
    ("classify.lift_graded_unitary", "classify", "lift_graded_unitary", _columns_work),
    ("classify.verify_intertwining", "classify", "verify_intertwining", None),
    ("spaces.kernel_matrix_oracle", "spaces", "kernel_matrix_oracle", None),
    ("spaces.kernel_block_series", "spaces", "kernel_block_series", _terms_work),
    ("spaces.kernel_apply", "spaces", "kernel_apply", None),
    ("spaces.norm", "spaces", "dirichlet_norm", None),
    ("spaces.norm", "spaces", "bergman_norm", None),
    ("spaces.pick_property_check", "spaces", "pick_property_check", None),
)

# called too often for a span each; only counted
COUNT_SITES: tuple[tuple[str, str, str], ...] = (("numerics.pochhammer", "numerics", "pochhammer"),)


class Span(NamedTuple):
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for an op's root span
    op: int
    error: bool
    outer: bool  # no enclosing span of the same layer


class Tracer:
    """In-memory span recorder that patches and unpatches treeshift."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.work: dict[tuple[int, str, str], float] = defaultdict(float)
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable, work: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            outer = not tracer._active[layer]
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracer._active[layer] += 1
            error = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = perf_counter()
                tracer._active[layer] -= 1
                tracer._stack.pop()
                tracer.spans[index] = Span(layer, start, end, parent, tracer.op, error, outer)
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    tracer.add(layer, key, value)
            return result

        return traced

    def counter(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[(tracer.op, layer)] += 1
            return fn(*args, **kwargs)

        return counted

    def add(self, layer: str, key: str, value: float) -> None:
        slot = (self.op, layer, key)
        if key.startswith("max_"):
            self.work[slot] = max(self.work[slot], value)
        else:
            self.work[slot] += value

    def run_op(self, op_id: int, fn: Callable):
        """Run ``fn`` as op ``op_id`` under a root span."""
        self.op = op_id
        try:
            return self.wrap(OP_LAYER, fn)()
        finally:
            self.op = -1

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "treeshift" or name.startswith("treeshift.")]
        for layer, module_name, attr, work in SPAN_SITES:
            self._patch_everywhere(modules, f"treeshift.{module_name}", attr, lambda fn: self.wrap(layer, fn, work))
        for layer, module_name, attr in COUNT_SITES:
            self._patch_everywhere(modules, f"treeshift.{module_name}", attr, lambda fn: self.counter(layer, fn))

    def _patch_everywhere(self, modules, module_name: str, attr: str, make: Callable) -> None:
        home = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[method]
            self._set(cls, method, original, make(original))
            return
        original = getattr(home, attr)
        replacement = make(original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, original, replacement)

    def _set(self, owner, name: str, original, replacement) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- summaries -----------------------------------------------------------------

    def layer_stats(self, ops: Iterable[int]) -> dict[str, dict[str, float]]:
        """Per-layer calls, s (inclusive), self_s, errors and work over ``ops``."""
        wanted = set(ops)
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.op in wanted and span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, span in enumerate(self.spans):
            if span.op not in wanted:
                continue
            row = stats[span.layer]
            duration = span.end - span.start
            row["self_s"] += duration - child_time[index]
            row["errors"] += span.error
            if span.outer:
                row["calls"] += 1
                row["s"] += duration
        for (op, layer, key), value in self.work.items():
            if op in wanted:
                row = stats[layer]
                row[key] = max(row[key], value) if key.startswith("max_") else row[key] + value
        for (op, layer), count in self.counts.items():
            if op in wanted:
                stats[layer]["calls"] += count
        return stats

    def op_self_times(self, op: int) -> tuple[float, float]:
        """(wall time of the op's root span, summed self time of its layer spans)."""
        child_time: dict[int, float] = defaultdict(float)
        spans = [(i, s) for i, s in enumerate(self.spans) if s.op == op]
        for _i, span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        wall = sum(s.end - s.start for _i, s in spans if s.layer == OP_LAYER)
        layered = sum(s.end - s.start - child_time[i] for i, s in spans if s.layer != OP_LAYER)
        return wall, layered

    def write(self, path, op_names: dict[int, str]) -> None:
        """Write every span as one JSON line to the gzip file ``path``."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = span._asdict() | {"id": index, "op_name": op_names.get(span.op)}
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
