"""The columnar corpus: the records JSONL reader against Corpus.from_records
and against the whole-text reader it replaced, each producer's Corpus
against the Corpus of the file it writes, tf tables from a Corpus against
the per-count reference, and the reader's memory."""

import hashlib
import json
import math
import tempfile
import tracemalloc
from array import array
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from callselect import (
    ConfigError,
    Corpus,
    build_fvt,
    build_fvt_and_relative_frequencies,
    ingest_corpus,
    minmax_columns,
    read_records_jsonl,
    write_records_jsonl,
)
from callselect.ingest import LABELS, read_input
from callselect.oracles import reference_term_frequencies
from callselect.synth import default_spec, generate

from conftest import assert_same_corpus, written_rows
# _random_rows: unsorted keys, empty rows, rare calls
from test_featurize import _corpus, _random_rows, _rec, _same_bits


def _check_round_trip(rows, path, min_df):
    """Packed, written and read, the rows give the Corpus that from_records
    packs from them with sorted keys (write_records_jsonl sorts each row's
    keys), and both corpora give the reference tf and tf-idf tables bit for
    bit."""
    packed = _corpus(rows)
    write_records_jsonl(packed, path)
    corpus = read_records_jsonl(path)
    as_written = [_rec(r["sample_id"], r["label"], dict(sorted(r["counts"].items()))) for r in rows]
    assert_same_corpus(corpus, _corpus(as_written))
    vocab, df, tf = reference_term_frequencies(rows, min_df)
    if not vocab:
        for source in (corpus, packed):
            with pytest.raises(ConfigError, match="empty vocabulary"):
                build_fvt(source, min_df=min_df)
        return
    idf = np.array([math.log(len(rows) / df[c]) for c in vocab])
    weights = minmax_columns(tf * idf)
    for source in (corpus, packed):
        tables = (build_fvt(source, min_df=min_df),
                  *build_fvt_and_relative_frequencies(source, min_df=min_df))
        for table, want in zip(tables, (weights, weights, tf)):
            assert table.calls == tuple(vocab)
            assert table.sample_ids == tuple(r["sample_id"] for r in rows)
            assert table.labels == tuple(r["label"] for r in rows)
            assert _same_bits(table.weights, want)


def test_round_trip_on_seeded_corpora(tmp_path):
    for case in range(120):
        rng = np.random.default_rng(case)
        _check_round_trip(_random_rows(rng), tmp_path / "r.jsonl", int(rng.integers(1, 4)))
    for seed in range(3):
        corpus, _ = generate(default_spec(samples_per_class=20, vocabulary_size=30,
                                          noise_std=4.0, seed=seed))
        rows = written_rows(corpus, tmp_path / "synth.jsonl")
        for min_df in (1, 25):
            _check_round_trip(rows, tmp_path / "r.jsonl", min_df)


def _check_corpus_of_its_file(corpus, path):
    """The producer's Corpus equals the Corpus read from the file it writes,
    and the two give build_fvt weights with the same bits."""
    write_records_jsonl(corpus, path)
    back = read_records_jsonl(path)
    assert_same_corpus(corpus, back)
    assert _same_bits(build_fvt(corpus).weights, build_fvt(back).weights)


# SHA-256 of each spec's records.jsonl as the record-dict generator wrote it.
@pytest.mark.parametrize("spec, digest", [
    (default_spec(), "d49fb6e39b8491bf9a950bdb5779379db472e76725598c9e56769f9d7933317b"),
    (default_spec(vocabulary_size=1200),
     "43c8b452148691c2993ab090905e2e1aa47573b7f717e55e3b53f0c9b49eef4c"),
    (default_spec(samples_per_class=1, vocabulary_size=8, planted_malware=3, planted_benign=2,
                  effect_size=0.0, noise_std=2.0, seed=2),
     "05c950c067b2811c711c7c761391311e20de7d1c96eb7bfabbebc939c5502a72"),
], ids=["default", "1200-calls", "absent-calls"])
def test_synth_corpus_is_the_corpus_of_its_file(tmp_path, spec, digest):
    corpus, _ = generate(spec)
    _check_corpus_of_its_file(corpus, tmp_path / "records.jsonl")
    assert hashlib.sha256((tmp_path / "records.jsonl").read_bytes()).hexdigest() == digest
    if spec.vocabulary_size == 1200:  # sorted as strings
        j = corpus.calls.index("c100")
        assert corpus.calls[j:j + 3] == ("c100", "c1000", "c1001")
        assert corpus.calls.index("c101") == j + 11
    if spec.seed == 2:  # only calls that occur are columns
        assert "c001" not in corpus.calls and "c003" not in corpus.calls
        assert len(corpus.calls) == 6


def test_ingest_corpus_is_the_corpus_of_its_file(tmp_path):
    logs = {
        "m1": 'openat(AT_FDCWD, "/x", O_RDONLY) = 3\nread(3, "", 1) = 0\nread(3, "", 1) = 0\n',
        "b1": "",  # no calls at all
        "b2": "zz_last(1) = 0\n--- SIGCHLD {} ---\nclose(3) = 0\n",  # first seen here
        "m2": "1234  close(3) = 0\nread(0, \"\", 1 <unfinished ...>\n+++ exited with 0 +++\n",
    }
    manifest = []
    for sample_id, text in logs.items():
        (tmp_path / f"{sample_id}.log").write_text(text)
        manifest.append((str(tmp_path / f"{sample_id}.log"), sample_id[0].upper(), sample_id))
    corpus = ingest_corpus(manifest).corpus
    assert corpus.sample_ids == tuple(logs)
    assert corpus.calls == ("close", "openat", "read", "zz_last")
    _check_corpus_of_its_file(corpus, tmp_path / "records.jsonl")


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
                       _corpus([_rec("a", "M", {"open": 2}), _rec("b", "B", {})]))


def test_reader_memory_is_a_small_multiple_of_the_file(tmp_path):
    corpus, _ = generate(default_spec(samples_per_class=500, vocabulary_size=120))
    path = tmp_path / "records.jsonl"
    write_records_jsonl(corpus, path)
    del corpus
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


def _line(sample_id, label, counts, total=None, **dumps):
    total = sum(counts.values()) if total is None else total
    return json.dumps({"sample_id": sample_id, "label": label, "counts": counts,
                       "total": total}, **dumps)


_PLAIN = "\n".join([_line("m1", "M", {"open": 2, "read": 1}), _line("b1", "B", {}),
                    _line("b2", "B", {"close": 3, "open": 1})]) + "\n"
_LONG = _line("wide", "M", {f"call_{j:05d}": j + 1 for j in range(900)})  # about 17 KB


def _edge_files():
    """(name, bytes) for line-end, blank-line, long-line and chunk-edge inputs."""
    yield "lf", _PLAIN.encode()
    yield "crlf", _PLAIN.replace("\n", "\r\n").encode()
    yield "crlf-no-final", _PLAIN.replace("\n", "\r\n").rstrip("\n").encode()
    yield "no-final-newline", _PLAIN.rstrip("\n").encode()
    yield "empty", b""
    yield "only-newlines", b"\n\n\r\n \t\n"
    yield "blank-lines", ("\n \n" + _PLAIN.replace("\n", "\n\t\n\n") + "   ").encode()
    yield "cr-between-tokens", _PLAIN.replace(", ", ",\r ").encode()
    yield "cr-in-string", (_PLAIN + _line("b|x", "B", {}).replace("|", "\r")).encode()  # raw
    yield "cr-only-line-ends", _PLAIN.replace("\n", "\r").encode()
    yield "separators-in-strings", (_PLAIN + _line("m\u2028\x85\u2029", "M", {
        "op\x85en": 1, "re\u2028ad": 2}, ensure_ascii=False) + "\n").encode()
    yield "long-line", ("\n".join([_LONG, _LONG.replace('"wide"', '"wide2"')]) + "\n").encode()
    yield "long-line-bad-total", (_PLAIN + _line("w", "M", {f"c{j}": 1 for j in range(2000)},
                                                  total=1) + "\n").encode()
    for char in ("\u00e9", "\u20ac", "\U0001f600"):  # 2, 3 and 4 UTF-8 bytes
        width = len(char.encode())
        for before in range(1, width + 1):  # bytes of char that land before the edge
            pad = 8192 - before - (_line("", "M", {}).index('""') + 1)
            first = _line("x" * pad + char, "M", {"open": 1}, ensure_ascii=False)
            assert first.encode().index(char.encode()) == 8192 - before
            yield f"edge-{width}-bytes-{before}-before", (first + "\n" + _PLAIN).encode()


@pytest.mark.parametrize("content", [pytest.param(c, id=n) for n, c in _edge_files()])
def test_reader_matches_the_whole_text_reader(tmp_path, content):
    """The same Corpus, or a ConfigError with the same message."""
    path = tmp_path / "records.jsonl"
    path.write_bytes(content)
    try:
        want = whole_text_read_records_jsonl(path)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as got:
            read_records_jsonl(path)
        assert str(got.value) == str(exc)
    else:
        assert_same_corpus(read_records_jsonl(path), want)


def test_undecodable_byte_names_its_line(tmp_path):
    path = tmp_path / "records.jsonl"
    bad = _line("caf\xe9", "M", {}, ensure_ascii=False).encode("latin-1")
    path.write_bytes((_LONG + "\n\n").encode() + bad + b"\n")
    with pytest.raises(ConfigError) as got:
        read_records_jsonl(path)
    assert str(got.value) == (
        f"cannot read record file {str(path)!r}: 'utf-8' codec can't decode byte 0xe9 "
        "in position 18: invalid continuation byte (line 3, position counted from its start)")
    whole_text_position = len(_LONG) + 2 + 18
    with pytest.raises(ConfigError, match=f"in position {whole_text_position}:"):
        whole_text_read_records_jsonl(path)


def test_bad_line_before_an_undecodable_byte_wins(tmp_path):
    # The whole-text reader decoded everything before parsing any line.
    path = tmp_path / "records.jsonl"
    path.write_bytes(b"not json\n" + _LONG.encode() + b"\n\xe9\n")
    with pytest.raises(ConfigError, match="bad record on line 1"):
        read_records_jsonl(path)
    with pytest.raises(ConfigError, match="can't decode byte 0xe9"):
        whole_text_read_records_jsonl(path)


def test_unreadable_record_file(tmp_path):
    for path in (tmp_path / "missing.jsonl", tmp_path):
        with pytest.raises(ConfigError) as got:
            read_records_jsonl(path)
        with pytest.raises(ConfigError) as want:
            whole_text_read_records_jsonl(path)
        assert str(got.value) == str(want.value)


# ---- the layout a Corpus checks when it is built ----


def _hand_corpus(**change):
    fields = dict(
        sample_ids=("a", "b", "c"),
        labels=("M", "B", "M"),
        calls=("open", "read", "write"),
        indptr=np.array([0, 2, 2, 4], dtype=np.int64),
        indices=np.array([0, 2, 1, 2], dtype=np.int32),
        counts=np.array([1, 3, 2, 5], dtype=np.int64),
    )
    fields.update(change)
    return Corpus(**fields)


def test_hand_corpus_is_valid():
    assert build_fvt(_hand_corpus()).calls == ("open", "read", "write")
    # An empty corpus is a legal layout.
    _hand_corpus(sample_ids=(), labels=(), indptr=np.zeros(1, dtype=np.int64),
                 indices=np.zeros(0, dtype=np.int32), counts=np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("change, message", [
    (dict(labels=("M", "B")), "sample ids, labels and indptr must align"),
    (dict(indptr=np.array([0, 2, 4], dtype=np.int64)), "sample ids, labels and indptr must align"),
    (dict(indptr=np.array([1, 2, 2, 4], dtype=np.int64)), "indptr must rise"),
    (dict(indptr=np.array([0, 2, 2, 3], dtype=np.int64)), "indptr must rise"),
    (dict(indptr=np.array([0, 3, 2, 4], dtype=np.int64)), "indptr must rise"),
    (dict(counts=np.array([1, 3, 2, 5, 1], dtype=np.int64)), "indptr must rise"),
    (dict(indices=np.array([0, 2, 1, 3], dtype=np.int32)), "column ids must lie in"),
    (dict(indices=np.array([0, -1, 1, 2], dtype=np.int32)), "column ids must lie in"),
    (dict(counts=np.array([1, 0, 2, 5], dtype=np.int64)), "counts must be >= 1"),
    (dict(counts=np.array([1, 3, -3, 5], dtype=np.int64)), "counts must be >= 1"),
    (dict(calls=("read", "open", "write")), "calls must be strictly ascending"),
    (dict(calls=("open", "open", "write")), "calls must be strictly ascending"),
], ids=["labels-short", "indptr-short", "indptr-start", "indptr-end", "indptr-falls",
        "counts-long", "column-above", "column-negative", "count-zero", "count-negative",
        "calls-unsorted", "calls-repeated"])
def test_corpus_refuses_a_broken_layout(change, message):
    with pytest.raises(ConfigError, match=message):
        _hand_corpus(**change)


def test_from_records_refuses_a_zero_count():
    with pytest.raises(ConfigError, match="counts must be >= 1"):
        _corpus([_rec("m", "M", {"open": 2}), _rec("b", "B", {"open": 1, "read": 0})])


# ---- the whole-text reader this module's reader replaced, kept verbatim as its judge ----


def _split_lines(text: str) -> Iterator[str]:
    """The pieces of text.split("\\n"), one at a time, so they are never
    all held at once."""
    start = 0
    while (end := text.find("\n", start)) >= 0:
        yield text[start:end]
        start = end + 1
    yield text[start:]


def whole_text_read_records_jsonl(path: str | Path) -> Corpus:
    """Read the write_records_jsonl layout; a bad line is a ConfigError naming it.

    sample_id must be a string, counts a JSON object of JSON integers, each
    at least 1 and below 2**63, and total their sum: a count of 1.5, "3" or
    true is an error, not 1 or 3. total is checked, not stored.
    """
    sample_ids: list[str] = []
    labels: list[str] = []
    index: dict[str, int] = {}  # call name -> column id, in first-seen order
    indptr = array("q", [0])
    indices = array("i")  # C int: np.int32
    counts = array("q")
    # Split at "\n" only (JSON skips a "\r"): strings may hold U+2028 etc.
    lines = _split_lines(read_input(path, "record file"))
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            sample_id, label, row, total = (
                obj["sample_id"], obj["label"], obj["counts"], obj["total"])
            if not (type(sample_id) is str and type(row) is dict
                    and type(total) is int
                    and set(map(type, row.values())) <= {int}):
                raise ConfigError(
                    "sample_id must be a string, counts an object of integers "
                    "and total an integer"
                )
            if label not in LABELS:
                raise ConfigError(f"label must be one of {LABELS}, got {label!r}")
            n = len(row)
            try:
                ids = np.fromiter(map(index.__getitem__, row), np.int32, n)
            except KeyError:  # the line brings a call no earlier line had
                for name in row:
                    index.setdefault(name, len(index))
                ids = np.fromiter(map(index.__getitem__, row), np.int32, n)
            values = np.fromiter(row.values(), np.int64, n)
            if n and values.min() < 1:
                name = next(name for name, v in row.items() if v < 1)
                raise ConfigError(f"count for {name!r} must be >= 1, got {row[name]}")
            if total != sum(row.values()):
                raise ConfigError("total_calls does not equal the sum of counts")
        except (json.JSONDecodeError, KeyError, TypeError, OverflowError,
                ConfigError) as exc:
            raise ConfigError(
                f"bad record on line {lineno} of {str(path)!r}: {exc}"
            ) from exc
        sample_ids.append(sample_id)
        labels.append(label)
        indices.frombytes(ids.tobytes())
        counts.frombytes(values.tobytes())
        indptr.append(len(counts))
    # Column ids become positions in the sorted vocabulary.
    calls = sorted(index)
    remap = np.empty(len(calls), dtype=np.int32)
    remap[[index[name] for name in calls]] = np.arange(len(calls))
    return Corpus(
        sample_ids=tuple(sample_ids),
        labels=tuple(labels),
        calls=tuple(calls),
        indptr=np.frombuffer(indptr, dtype=np.int64),
        indices=remap[np.frombuffer(indices, dtype=np.int32)],
        counts=np.frombuffer(counts, dtype=np.int64),
    )
