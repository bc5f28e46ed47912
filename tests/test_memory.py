"""Memory guards: the peak that tracemalloc sees in the synth generator,
the record reader, build_fvt, class_stats and the table-build writers, as
a multiple of what each one returns, reads or writes from, and the CLI
letting the corpus go before it selects or writes.
The digests cannot see a memory regression; these can."""

import tracemalloc
import weakref

import numpy as np
import pytest

from callselect import (
    FeatureVectorTable,
    build_fvt,
    class_stats,
    cli,
    evaluate,
    read_records_jsonl,
    write_records_jsonl,
)
from callselect.synth import default_spec, generate
from callselect.ztest import _STATS_BLOCK


def _peak(fn):
    """fn's result and the most memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def records_file(tmp_path_factory):
    """A 1,000 x 120 synth records file."""
    corpus, _ = generate(default_spec(samples_per_class=500, vocabulary_size=120))
    path = tmp_path_factory.mktemp("memory") / "records.jsonl"
    write_records_jsonl(corpus, path)
    return path


def test_generate_peak_is_a_few_count_matrices():
    # One record dict per sample held 5.5x the samples x calls int64 matrix.
    spec = default_spec(samples_per_class=500, vocabulary_size=120)
    (corpus, _), peak = _peak(lambda: generate(spec))
    matrix = 2 * spec.samples_per_class * spec.vocabulary_size * 8
    assert len(corpus.sample_ids) == 1000
    assert peak <= 4 * matrix, peak / matrix


def test_reader_peak_is_below_twice_the_file(records_file):
    # Whole-text decoding holds the bytes and the text at once (2.13x).
    corpus, peak = _peak(lambda: read_records_jsonl(records_file))
    assert len(corpus.sample_ids) == 1000
    assert peak <= 1.75 * records_file.stat().st_size, peak / records_file.stat().st_size


def test_build_fvt_peak_is_one_weight_matrix(records_file):
    # tf * idf and a min-max into a new matrix held 4.4x the weights.
    corpus = read_records_jsonl(records_file)
    fvt, peak = _peak(lambda: build_fvt(corpus))
    assert fvt.weights.shape == (1000, 120)
    assert peak <= 1.5 * fvt.weights.nbytes, peak / fvt.weights.nbytes


def test_class_stats_peak_is_a_few_blocks():
    # A transposed copy of each whole class held 1.5x the weights.
    n, width = 1000, 4 * _STATS_BLOCK + 3
    weights = np.random.default_rng(0).random((n, width))
    fvt = FeatureVectorTable(tuple(f"s{i}" for i in range(n)),
                             tuple(f"c{j:03d}" for j in range(width)),
                             weights, ("M", "B") * (n // 2))
    stats, peak = _peak(lambda: class_stats(fvt, fvt.calls))
    assert len(stats) == width
    assert peak <= 0.75 * weights.nbytes, peak / weights.nbytes


@pytest.fixture(scope="module")
def table_build_corpus():
    """The table-build workload's 6,000 x 300 synth corpus and its weights."""
    corpus, _ = generate(default_spec(samples_per_class=3000, vocabulary_size=300, seed=29))
    return corpus, build_fvt(corpus)


@pytest.mark.parametrize("writer", ["fvt-csv", "records-jsonl"])
def test_table_build_writers_peak_below_a_quarter_of_the_weights(
        tmp_path, table_build_corpus, writer):
    # The writers encode a block of rows at a time; any whole-matrix
    # temporary of a byte per cell or more is already 1/8 of the weights.
    corpus, fvt = table_build_corpus
    write = {"fvt-csv": lambda: fvt.to_csv(tmp_path / "fvt.csv"),
             "records-jsonl": lambda: write_records_jsonl(corpus, tmp_path / "r.jsonl")}
    _, peak = _peak(write[writer])
    assert peak < 0.25 * fvt.weights.nbytes, peak / fvt.weights.nbytes


@pytest.mark.parametrize("argv, stage", [
    (["select", "--method", "rsst"], (cli, "select_report")),
    (["select", "--method", "rsst", "--z-weights", "relfreq"], (cli, "select_report")),
    (["select", "--method", "ig"], (cli, "select_report")),
    (["featurize"], (cli, "discretize")),
    (["eval", "--lengths", "3", "--folds", "2", "--trees", "2"], (evaluate, "sweep")),
], ids=["select-rsst", "select-relfreq", "select-ig", "featurize", "eval"])
def test_cli_lets_the_corpus_go_before_the_next_stage(
        tmp_path, monkeypatch, capsys, records_file, argv, stage):
    """When the stage after the tables starts, no Corpus is alive."""
    corpora = []
    read = cli.read_records_jsonl

    def reading(path):
        corpus = read(path)
        corpora.append(weakref.ref(corpus))
        return corpus

    module, name = stage
    inner = getattr(module, name)

    def checked(*args, **kwargs):
        assert corpora and all(ref() is None for ref in corpora), "a Corpus is alive"
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, "read_records_jsonl", reading)
    monkeypatch.setattr(module, name, checked)
    selection = tmp_path / "sel.json"
    selection.write_text('{"method": "ig", "ranking": ["c000", "c001", "c002"]}')
    extra = {"select": ["--out", str(tmp_path / "out.json")],
             "featurize": ["--out-dir", str(tmp_path / "out")],
             "eval": ["--selection", str(selection), "--out", str(tmp_path / "eval.json")]}
    code = cli.main([argv[0], "--records", str(records_file), *argv[1:], *extra[argv[0]]])
    assert code == 0, capsys.readouterr().err
