"""Every site the benchmark tracer patches still exists in the package,
and every work counter it attaches reads a real result of its site.

``bench/tracing.py`` wraps package functions and methods by name and
reads sizes off their results; a rename or a changed result type would
make ``run.py --trace 1`` fail.  The tracer source is executed from its
text, so nothing is written under ``bench/``.
"""

import importlib
from pathlib import Path

import pytest
from corpus import DOUBLE01, PROFILE_PAIR

from treeshift import DIRICHLET, DUAL, build_graded_unitary, decide_equivalence, make_shift

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_namespace():
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


_NAMESPACE = _tracing_namespace()
SITES = _NAMESPACE["SPAN_SITES"] + _NAMESPACE["COUNT_SITES"]


def _resolve(module_name, attr):
    """The object the tracer patches, or None when it is gone."""
    module = importlib.import_module(f"treeshift.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        return vars(getattr(module, cls_name)).get(method)
    return getattr(module, attr, None)


@pytest.mark.parametrize("module_name,attr", [s[1:3] for s in SITES], ids=[f"{s[0]}:{s[2]}" for s in SITES])
def test_traced_site_resolves(module_name, attr):
    assert callable(_resolve(module_name, attr))


_SHIFT = make_shift(DOUBLE01, 2, DUAL, 6)
_UNITARY = build_graded_unitary(decide_equivalence(*PROFILE_PAIR, 2))

# positional and keyword arguments of one real call per counted site
COUNTED_CALLS = {
    "trees.truncate": [((DOUBLE01, 5), {})],
    "shifts.make_shift": [((DOUBLE01, 2, DIRICHLET, 5), {})],
    "shifts.matrix": [((_SHIFT,), {})],
    "shifts.kernel_basis": [((_SHIFT,), {})],
    "classify.lift_graded_unitary": [((*PROFILE_PAIR, 2, _UNITARY, 6), {})],
    "spaces.kernel_block_series": [
        ((2, 0, 0.25, 12, "dirichlet"), {}),
        ((2, 2, 0.25), {"order": 12, "space": "bergman"}),
    ],
}
COUNTED = [s for s in _NAMESPACE["SPAN_SITES"] if s[3] is not None]


@pytest.mark.parametrize("site", COUNTED, ids=[s[0] for s in COUNTED])
def test_work_counter_reads_a_real_result(site):
    layer, module_name, attr, work = site
    assert layer in COUNTED_CALLS, f"no sample call for the counter of {layer}"
    for args, kwargs in COUNTED_CALLS[layer]:
        counts = work(args, kwargs, _resolve(module_name, attr)(*args, **kwargs))
        assert counts
        assert all(isinstance(value, int) and value > 0 for value in counts.values())
