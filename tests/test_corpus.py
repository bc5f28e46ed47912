"""The columnar corpus: the records JSONL reader against Corpus.from_records,
tf tables from a Corpus and from records against the per-count reference,
and the reader's memory."""

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from callselect import (
    ConfigError,
    Corpus,
    build_fvt,
    minmax_columns,
    read_records_jsonl,
    relative_frequency_table,
    write_records_jsonl,
)
from callselect.oracles import reference_term_frequencies
from callselect.synth import default_spec, generate

from conftest import assert_same_corpus
from test_featurize import _random_corpus, _rec  # unsorted keys, empty rows, rare calls


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_round_trip(records, path, min_df):
    """Written then read, the records give the Corpus that from_records packs
    (write_records_jsonl sorts each record's keys), and both inputs give
    the reference tf and tf-idf tables bit for bit."""
    write_records_jsonl(records, path)
    corpus = read_records_jsonl(path)
    as_written = [_rec(r.sample_id, r.label, dict(sorted(r.counts.items()))) for r in records]
    assert_same_corpus(corpus, Corpus.from_records(as_written))
    vocab, df, tf = reference_term_frequencies(records, min_df)
    if not vocab:
        for source in (corpus, records):
            with pytest.raises(ConfigError, match="empty vocabulary"):
                build_fvt(source, min_df=min_df)
        return
    idf = np.array([math.log(len(records) / df[c]) for c in vocab])
    for build, want in ((build_fvt, minmax_columns(tf * idf)), (relative_frequency_table, tf)):
        for source in (corpus, records):
            table = build(source, min_df=min_df)
            assert table.calls == tuple(vocab)
            assert table.sample_ids == tuple(r.sample_id for r in records)
            assert table.labels == tuple(r.label for r in records)
            assert _same_bits(table.weights, want)


def test_round_trip_on_seeded_corpora(tmp_path):
    for case in range(120):
        rng = np.random.default_rng(case)
        _check_round_trip(_random_corpus(rng), tmp_path / "r.jsonl", int(rng.integers(1, 4)))
    for seed in range(3):
        records, _ = generate(default_spec(samples_per_class=20, vocabulary_size=30,
                                           noise_std=4.0, seed=seed))
        for min_df in (1, 25):
            _check_round_trip(records, tmp_path / "r.jsonl", min_df)


_NAMES = st.text(alphabet=st.sampled_from('ab"\\\u2028\x85\ré'), max_size=4)


@given(
    st.lists(st.dictionaries(_NAMES, st.integers(1, 10**6), max_size=6), min_size=2, max_size=12),
    st.integers(1, 3),
)
def test_round_trip_on_hypothesis_corpora(rows, min_df):
    records = [_rec(f"s\u2028{i}\"\x85", "MB"[i % 2], counts) for i, counts in enumerate(rows)]
    with tempfile.TemporaryDirectory() as tmp:
        _check_round_trip(records, Path(tmp) / "r.jsonl", min_df)


@pytest.mark.parametrize("min_df", [1, 2, 3])
def test_round_trip_hand_cases(tmp_path, min_df):
    records = [
        _rec("m\u2028\"one\x85", "M", {"write": 3, "read": 2**40}),
        _rec("b-empty", "B", {}),
        _rec("b\"two", "B", {"close": 1, "read": 7, "q\"\u2028\x85": 2}),
        _rec("m-three", "M", {"write": 1, "close": 4}),
        _rec("b-empty-2", "B", {}),
        _rec("m-last", "M", {"aaa-last": 5, "write": 2}),  # first seen in the last record
    ]
    _check_round_trip(records, tmp_path / "r.jsonl", min_df)


def test_duplicated_key_keeps_the_last(tmp_path):
    p = tmp_path / "records.jsonl"
    p.write_text('{"sample_id": "a", "label": "M", "counts": {"open": 5, "open": 2}, "total": 2}\n'
                 '{"sample_id": "b", "label": "B", "counts": {}, "total": 0}\n')
    assert_same_corpus(read_records_jsonl(p),
                       Corpus.from_records([_rec("a", "M", {"open": 2}), _rec("b", "B", {})]))


def test_reader_memory_is_a_small_multiple_of_the_file(tmp_path):
    records, _ = generate(default_spec(samples_per_class=500, vocabulary_size=120))
    path = tmp_path / "records.jsonl"
    write_records_jsonl(records, path)
    del records
    size = path.stat().st_size
    tracemalloc.start()
    try:
        corpus = read_records_jsonl(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus.sample_ids) == 1000
    assert peak <= 3.5 * size, peak / size
    assert held <= 2.5 * size, held / size
