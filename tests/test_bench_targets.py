"""Every span target of the benchmark still resolves on the package.

callbench/spans.py wraps layer entry points by module and attribute name,
so a rename in src/ would otherwise surface only when a traced benchmark
run (`callbench/run.py --trace 1`) fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "callbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("callbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module_name, attr", [t[:2] for t in spans._TARGETS])
def test_span_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.mark.parametrize("module_name, cls_name, attr", [t[:3] for t in spans._METHOD_TARGETS])
def test_span_method_target_resolves(module_name, cls_name, attr):
    cls = getattr(importlib.import_module(module_name), cls_name, None)
    assert callable(getattr(cls, attr, None))
