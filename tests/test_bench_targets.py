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


def test_cli_operations_record_their_span_names(tmp_path, monkeypatch, capsys):
    # Each operation must keep reaching its layers through the attributes
    # spans.py wraps; a call that bypasses one drops that layer's span.
    for module_name, attr, _, _ in spans._TARGETS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    for module_name, cls_name, attr, _ in spans._METHOD_TARGETS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        monkeypatch.setattr(cls, attr, getattr(cls, attr))
    tracer = spans.Tracer()
    spans.install(tracer)
    from callselect.cli import main

    log = tmp_path / "a.log"
    log.write_text("open(1) = 3\nread(3) = 1\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"path,label,sample_id\n{log},M,a\n")
    records = str(tmp_path / "records.jsonl")
    selection = str(tmp_path / "sel.json")
    runs = {
        "ingest": ["ingest", "--manifest", str(manifest), "--out-dir", str(tmp_path / "ing")],
        "synth": ["synth", "--samples-per-class", "20", "--vocabulary-size", "8",
                  "--out-dir", str(tmp_path)],
        "featurize": ["featurize", "--records", records, "--out-dir", str(tmp_path)],
        "select ig": ["select", "--records", records, "--method", "ig", "--out", selection],
        "select rsst": ["select", "--records", records, "--method", "rsst", "--out", selection],
        "eval": ["eval", "--records", records, "--selection", selection, "--lengths", "2",
                 "--folds", "2", "--trees", "2", "--out", str(tmp_path / "eval.json")],
    }
    recorded = {}
    for name, argv in runs.items():
        tracer.spans.clear()
        assert main(argv) == 0, argv
        recorded[name] = {span["name"] for span in tracer.spans}
    capsys.readouterr()
    # forest.predict is wrapped but no operation reaches it: eval scores
    # folds with predict_scores.
    assert recorded == {
        "ingest": {"ingest.ingest_corpus", "ingest.write_records_jsonl"},
        "synth": {"synth.generate", "ingest.write_records_jsonl"},
        "featurize": {"ingest.read_records_jsonl", "featurize.build_fvt",
                      "featurize.fvt_to_csv", "featurize.discretize",
                      "featurize.decision_to_csv"},
        "select ig": {"ingest.read_records_jsonl", "featurize.build_fvt", "baselines.rank"},
        "select rsst": {"ingest.read_records_jsonl", "featurize.build_fvt",
                        "featurize.discretize", "roughset.generate_reduct",
                        "ztest.filter_calls"},
        "eval": {"ingest.read_records_jsonl", "featurize.build_fvt", "evaluate.sweep",
                 "forest.train", "forest.predict_scores"},
    }
