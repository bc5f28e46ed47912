"""Every span target of the benchmark still resolves on the package.

callbench/spans.py wraps layer entry points by module and attribute name
and reads counts from some of their results, so a rename in src/ or a
deleted result field would otherwise surface only when a traced
benchmark run (`callbench/run.py --trace 1`) fails.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from callselect import generate_reduct, ingest_corpus, train

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


def test_span_counts_read_real_results(tmp_path, golden_table):
    # The counts callbacks read fields of the results (ParseSummary.total_lines,
    # Reduct.steps, TreeEnsemble.trees_count); a deleted field would otherwise
    # fail only in a traced run.
    log = tmp_path / "a.log"
    log.write_text("open(1) = 3\n+++ exited with 0 +++\nnoise\n")
    manifest = [(str(log), "M", "a")]
    X = np.array([[0.1], [0.9], [0.2], [0.8]])
    y = np.array([0, 1, 0, 1])
    calls = {  # span name -> (args, result) of a small real call
        "ingest.ingest_corpus": ((manifest,), ingest_corpus(manifest)),
        "roughset.generate_reduct": ((golden_table,), generate_reduct(golden_table)),
        "forest.train": ((X, y), train(X, y, seed=0, trees_count=3)),
    }
    counted = {name: counts for _, _, name, counts in spans._TARGETS if counts}
    assert set(counted) == set(calls)
    assert {name: counts(*calls[name]) for name, counts in counted.items()} == {
        "ingest.ingest_corpus": {"lines": 3},
        "roughset.generate_reduct": {"candidates": 5},
        "forest.train": {"trees": 3},
    }
