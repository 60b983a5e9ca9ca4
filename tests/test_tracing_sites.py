"""Every site the benchmark tracer patches still exists in the package.

``bench/tracing.py`` wraps package functions and methods by name; a
rename would make ``run.py --trace 1`` fail.  The tracer source is
executed from its text, so nothing is written under ``bench/``.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_namespace():
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


_NAMESPACE = _tracing_namespace()
SITES = _NAMESPACE["SPAN_SITES"] + _NAMESPACE["COUNT_SITES"]


@pytest.mark.parametrize("module_name,attr", [s[1:3] for s in SITES], ids=[f"{s[0]}:{s[2]}" for s in SITES])
def test_traced_site_resolves(module_name, attr):
    module = importlib.import_module(f"treeshift.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(method))
    else:
        assert callable(getattr(module, attr, None))
