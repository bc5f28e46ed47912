"""Feature tables: tf-idf weighting, normalization, binning, table invariants."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from callselect import (
    BIN_LABELS,
    CallCountRecord,
    ConfigError,
    Corpus,
    DecisionTable,
    FeatureVectorTable,
    InvariantError,
    build_fvt,
    build_fvt_and_relative_frequencies,
    discretize,
    label_codes,
    midpoint_table,
    minmax_columns,
    read_decision_table_csv,
)

from callselect import featurize
from callselect.featurize import _BLOCK_ROWS, _minmax_in_place, _weight_cells
from callselect.oracles import random_decision_table, reference_term_frequencies

from conftest import GOLDEN_BINS, GOLDEN_CALLS, GOLDEN_IDS, GOLDEN_LABELS


def _rec(sample_id, label, counts):
    """One row in the records.jsonl layout."""
    return {"sample_id": sample_id, "label": label, "counts": counts,
            "total": sum(counts.values())}


def _corpus(rows):
    """The rows packed in order, each keeping its key order."""
    return Corpus.from_records([CallCountRecord(r["sample_id"], r["label"], r["counts"], r["total"])
                                for r in rows])


@pytest.fixture
def tiny_corpus():
    return _corpus([
        _rec("r1", "M", {"open": 2, "read": 2}),
        _rec("r2", "B", {"read": 5}),
        _rec("r3", "M", {"open": 1, "write": 1}),
    ])


def test_tfidf_worked_column(tiny_corpus):
    # open appears in 2 of 3 records with tf 0.5, 0, 0.5
    fvt = build_fvt(tiny_corpus)
    np.testing.assert_allclose(fvt.column("open"), [1.0, 0.0, 1.0], atol=1e-15)
    # and before normalization the raw weight is tf * ln(3/2)
    raw = 0.5 * math.log(1.5)
    assert raw == pytest.approx(0.2027325540540822)


def test_tfidf_other_columns(tiny_corpus):
    fvt = build_fvt(tiny_corpus)
    assert fvt.calls == ("open", "read", "write")
    # read: tf (0.5, 1.0, 0) scaled by the shared idf, so minmax keeps ratios
    np.testing.assert_allclose(fvt.column("read"), [0.5, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(fvt.column("write"), [0.0, 0.0, 1.0], atol=1e-15)
    assert fvt.labels == ("M", "B", "M")


def test_full_presence_call_zeroes_out():
    # df == r makes idf = ln(1) = 0, so the column is constant and maps to 0
    recs = _corpus([
        _rec("a", "M", {"mmap": 3, "open": 1}),
        _rec("b", "B", {"mmap": 1}),
    ])
    fvt = build_fvt(recs)
    np.testing.assert_array_equal(fvt.column("mmap"), [0.0, 0.0])
    np.testing.assert_allclose(fvt.column("open"), [1.0, 0.0])


def test_min_df_prunes_rare_calls(tiny_corpus):
    fvt = build_fvt(tiny_corpus, min_df=2)
    assert fvt.calls == ("open", "read")
    with pytest.raises(ConfigError, match="empty vocabulary"):
        build_fvt(tiny_corpus, min_df=4)


def test_corpus_validation():
    with pytest.raises(ConfigError):
        build_fvt(_corpus([_rec("a", "M", {"x": 1})]))  # single record
    with pytest.raises(ConfigError):
        build_fvt(_corpus([_rec("a", "M", {"x": 1}), _rec("b", "M", {"x": 2})]))  # one class
    with pytest.raises(ConfigError, match="dup"):
        build_fvt(
            _corpus([_rec("dup", "M", {"x": 1}), _rec("dup", "B", {"x": 2})])
        )


def test_relative_frequency_rows_sum_to_one(tiny_corpus):
    fvt = build_fvt_and_relative_frequencies(tiny_corpus)[1]
    np.testing.assert_allclose(fvt.weights.sum(axis=1), [1.0, 1.0, 1.0])
    assert fvt.column("read")[1] == 1.0


def test_bin_ranges():
    fvt = FeatureVectorTable(
        sample_ids=("a", "b"),
        calls=("u", "v"),
        weights=np.array([[0.1, 0.3], [0.6, 0.9]]),
        labels=("M", "B"),
    )
    table = discretize(fvt)
    assert BIN_LABELS == ("B1", "B2", "B3", "B4")
    np.testing.assert_array_equal(table.bins, [[1, 2], [3, 4]])


def test_bin_boundaries_right_closed():
    w = np.array([[0.0], [0.25], [0.250001], [0.5], [0.75], [0.750001], [1.0]])
    fvt = FeatureVectorTable(
        sample_ids=tuple(f"s{i}" for i in range(7)),
        calls=("c",),
        weights=w,
        labels=("M", "B", "M", "B", "M", "B", "M"),
    )
    got = discretize(fvt).bins[:, 0]
    np.testing.assert_array_equal(got, [1, 1, 2, 2, 3, 4, 4])


def test_discretize_rejects_out_of_range():
    fvt = FeatureVectorTable(
        sample_ids=("a", "b"),
        calls=("c",),
        weights=np.array([[0.2], [1.2]]),
        labels=("M", "B"),
    )
    with pytest.raises(InvariantError):
        discretize(fvt)


def _fvt_of_column(w):
    n = len(w)
    return FeatureVectorTable(
        sample_ids=tuple(f"s{i}" for i in range(n)),
        calls=("c",),
        weights=np.asarray(w, dtype=np.float64).reshape(n, 1),
        labels=tuple("MB"[i % 2] for i in range(n)),
    )


def test_discretize_matches_digitize_at_every_edge():
    # The edges themselves, the adjacent doubles on each side of them, the
    # ends of [0, 1] and random weights: all binned as np.digitize bins them.
    edges = np.array([0.25, 0.5, 0.75])
    near = [0.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), 1.0]
    for e in edges:
        near += [np.nextafter(e, 0.0), e, np.nextafter(e, 1.0)]
    w = np.concatenate([near, np.random.default_rng(5).random(500)])
    bins = discretize(_fvt_of_column(w)).bins
    assert bins.dtype == np.int8
    want = (np.digitize(w, edges, right=True) + 1).astype(np.int8)
    np.testing.assert_array_equal(bins[:, 0], want)


def test_midpoints_discretize_to_their_own_bins():
    rng = np.random.default_rng(18)
    for case in range(200):
        table = random_decision_table(rng, int(rng.integers(2, 40)), int(rng.integers(1, 12)))
        back = discretize(midpoint_table(table))
        assert np.array_equal(back.bins, table.bins), case
        assert (back.sample_ids, back.calls, back.labels) == (
            table.sample_ids, table.calls, table.labels), case


def test_discretize_rejects_nan_weights():
    # NaN compares false with everything, so a plain range test lets it
    # through; binning would then place it silently.
    for w in ([np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]):
        with pytest.raises(InvariantError):
            discretize(_fvt_of_column(w))


def test_fvt_csv_roundtrip(tmp_path, tiny_corpus):
    fvt = build_fvt(tiny_corpus)
    p = tmp_path / "fvt.csv"
    fvt.to_csv(p)
    header = p.read_text().splitlines()[0]
    assert header == "sample_id,open,read,write,label"


def test_decision_table_csv_fixture_matches_golden(tmp_path):
    import pathlib

    fixture = pathlib.Path(__file__).parent / "data" / "toy_decision_table.csv"
    table = read_decision_table_csv(fixture)
    assert table.sample_ids == GOLDEN_IDS
    assert table.calls == GOLDEN_CALLS
    assert table.labels == GOLDEN_LABELS
    np.testing.assert_array_equal(table.bins, GOLDEN_BINS)
    # and writing it back produces the same file
    out = tmp_path / "again.csv"
    table.to_csv(out)
    assert out.read_text() == fixture.read_text()


def test_decision_table_csv_rejects_bad_bin(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("sample_id,s1,label\nx1,B5,M\n")
    with pytest.raises(ConfigError):
        read_decision_table_csv(p)


def test_decision_table_csv_header_only_is_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("sample_id,a,b,label\n")
    table = read_decision_table_csv(p)
    assert table.bins.shape == (0, 2)
    assert table.calls == ("a", "b")
    assert table.n_samples == 0


@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_minmax_idempotent(values):
    col = np.array(values, dtype=np.float64).reshape(-1, 1)
    once = minmax_columns(col)
    twice = minmax_columns(once)
    assert once.min() >= 0.0 and once.max() <= 1.0
    np.testing.assert_array_equal(once, twice)


def test_label_codes():
    codes = label_codes(["M", "B", "M"])
    assert codes.dtype == np.int8
    np.testing.assert_array_equal(codes, [1, 0, 1])
    assert label_codes(()).size == 0
    with pytest.raises(ConfigError, match="'x'"):
        label_codes(["M", "x"])


def test_tables_carry_label_codes_and_lookup(tiny_corpus):
    fvt = build_fvt(tiny_corpus)
    table = discretize(fvt)
    np.testing.assert_array_equal(fvt.y, label_codes(fvt.labels))
    np.testing.assert_array_equal(table.y, fvt.y)
    j = fvt.calls.index("write")
    assert fvt.column_index("write") == table.column_index("write") == j
    np.testing.assert_array_equal(table.column("write"), table.bins[:, j])
    with pytest.raises(ConfigError, match="nope"):
        table.column("nope")


_GOOD = dict(
    sample_ids=("a", "b"),
    calls=("u", "v"),
    bins=np.array([[1, 2], [3, 4]], dtype=np.int8),
    labels=("M", "B"),
)


@pytest.mark.parametrize(
    "change, match",
    [
        # base-5 block keys collide on 0 or 5: ids*5+5 == (ids+1)*5+0
        ({"bins": np.array([[0, 2], [3, 4]], dtype=np.int8)}, "1..4"),
        ({"bins": np.array([[1, 2], [3, 5]], dtype=np.int8)}, "1..4"),
        ({"bins": np.array([[1.0, 2.0], [3.0, 4.0]])}, "1..4"),
        ({"bins": np.array([1, 2, 3, 4], dtype=np.int8)}, "shape"),
        ({"bins": np.array([[1, 2, 3], [1, 2, 3]], dtype=np.int8)}, "shape"),
        ({"sample_ids": ("a", "b", "c")}, "shape"),
        ({"labels": ("M",)}, "labels"),
        ({"labels": ("M", "X")}, "M or B"),
        ({"calls": ("u", "u")}, "duplicate call: 'u'"),
    ],
)
def test_decision_table_checks_invariants(change, match):
    with pytest.raises(ConfigError, match=match):
        DecisionTable(**{**_GOOD, **change})


@pytest.mark.parametrize(
    "change, match",
    [
        ({"weights": np.zeros(4)}, "shape"),
        ({"weights": np.zeros((3, 2))}, "shape"),
        ({"labels": ("M", "B", "B")}, "labels"),
        ({"labels": ("M", "benign")}, "M or B"),
        ({"calls": ("v", "v")}, "duplicate call: 'v'"),
    ],
)
def test_feature_table_checks_invariants(change, match):
    good = dict(sample_ids=("a", "b"), calls=("u", "v"), weights=np.zeros((2, 2)), labels=("M", "B"))
    with pytest.raises(ConfigError, match=match):
        FeatureVectorTable(**{**good, **change})


def test_one_label_and_empty_tables_stay_legal():
    DecisionTable(**{**_GOOD, "labels": ("M", "M")})
    empty = DecisionTable(sample_ids=(), calls=("u",), bins=np.zeros((0, 1), dtype=np.int8), labels=())
    assert empty.n_samples == 0 and empty.y.size == 0


def test_decision_table_csv_rejects_bad_label(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("sample_id,s1,label\nx1,B2,Q\n")
    with pytest.raises(ConfigError, match="M or B"):
        read_decision_table_csv(p)


def _random_rows(rng):
    """Rows with unsorted count keys, some empty, and rare calls."""
    names = [f"k{j}" for j in range(int(rng.integers(1, 12)))]
    records = []
    for i in range(int(rng.integers(2, 30))):
        chosen = [str(c) for c in rng.choice(names, size=int(rng.integers(0, len(names) + 1)),
                                             replace=False)]
        if rng.integers(0, 4) == 0:
            chosen.append(f"rare{i}")  # in this record only
        counts = {c: int(rng.integers(1, 60)) for c in chosen}
        records.append(_rec(f"s{i}", "MB"[i % 2], counts))
    return records


def test_tf_fill_matches_per_count_reference():
    for case in range(150):
        rng = np.random.default_rng(case)
        records = _random_rows(rng)
        min_df = int(rng.integers(1, 4))
        vocab, df, tf = reference_term_frequencies(records, min_df)
        if not vocab:
            with pytest.raises(ConfigError, match="empty vocabulary"):
                build_fvt(_corpus(records), min_df=min_df)
            continue
        idf = np.array([math.log(len(records) / df[c]) for c in vocab])
        fvt = build_fvt(_corpus(records), min_df=min_df)
        pair_fvt, rel = build_fvt_and_relative_frequencies(_corpus(records), min_df=min_df)
        assert fvt.calls == pair_fvt.calls == rel.calls == tuple(vocab), case
        assert _same_bits(fvt.weights, minmax_columns(tf * idf)), case
        assert _same_bits(pair_fvt.weights, fvt.weights), case
        assert _same_bits(rel.weights, tf), case


@pytest.mark.parametrize("block", [1, 4, 37, featurize._TF_BLOCK])
def test_tf_blocks_match_per_count_reference(monkeypatch, block):
    # Blocks of one row (block 1, or a row longer than the block), blocks
    # that end on an empty row, and pruned columns inside a block.
    monkeypatch.setattr(featurize, "_TF_BLOCK", block)
    for case in range(40):
        rng = np.random.default_rng(1000 + case)
        records = _random_rows(rng) * int(rng.integers(1, 40))
        if case % 4 == 0:  # one row holding more entries than the block
            records[0] = _rec("wide", "M", {f"w{j}": j + 1 for j in range(block + 3)})
        min_df = int(rng.integers(1, 4))
        want_vocab, df, want_tf = reference_term_frequencies(records, min_df)
        if not want_vocab:
            continue
        vocab, idf, tf = featurize._term_frequencies(_corpus(records), min_df)
        assert vocab == tuple(want_vocab), case
        assert _same_bits(tf, want_tf), case
        assert idf.tolist() == [math.log(len(records) / df[c]) for c in vocab], case


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("min_df", [1, 2])
def test_in_place_weights_match_the_minmax_oracle(min_df):
    # "half" is half of every sample's calls (constant non-zero tf, idf 0),
    # "all" is in every sample with varying tf (idf 0), "once" is pruned
    # at min_df 2 and "some" varies.
    records = [
        _rec("a", "M", {"half": 3, "all": 1, "some": 2}),
        _rec("b", "B", {"half": 5, "all": 4, "once": 1}),
        _rec("c", "M", {"half": 2, "all": 2}),
        _rec("d", "B", {"half": 4, "all": 1, "some": 3}),
    ]
    vocab, df, tf = reference_term_frequencies(records, min_df)
    assert ("once" in vocab) == (min_df == 1) and np.all(tf[:, vocab.index("half")] == 0.5)
    idf = np.array([math.log(len(records) / df[c]) for c in vocab])
    fvt = build_fvt(_corpus(records), min_df=min_df)
    assert _same_bits(fvt.weights, minmax_columns(tf * idf))
    for call in ("half", "all"):  # constant columns are +0.0
        assert not np.signbit(fvt.column(call)).any() and not fvt.column(call).any()


@given(st.lists(st.lists(st.floats(0, 1e6), min_size=4, max_size=4), min_size=1, max_size=12),
       st.floats(1e-9, 1e6))
def test_minmax_in_place_is_the_oracle_bit_for_bit(rows, constant):
    m = np.array(rows, dtype=np.float64) + 0.0  # no -0.0, as in tf-idf
    m[:, 1] = constant  # a constant non-zero column
    m[:, 2] = 0.0
    want = minmax_columns(m)
    _minmax_in_place(m)
    assert _same_bits(m, want)


def test_min_df_leaves_every_kept_column_bit_for_bit():
    # tf divides by total_calls and idf reads df and the record count, none
    # of which depends on the vocabulary, so min_df only drops columns.
    pruned_cases = 0
    for case in range(100):
        corpus = _corpus(_random_rows(np.random.default_rng(case)))
        full = build_fvt(corpus)
        for min_df in (2, 3):
            try:
                kept = build_fvt(corpus, min_df=min_df)
            except ConfigError as exc:
                assert "empty vocabulary" in str(exc), case
                continue
            for call in kept.calls:
                assert np.array_equal(kept.column(call), full.column(call)), (case, call)
            dropped = set(full.calls) - set(kept.calls)
            pruned_cases += bool(dropped)
            for call in dropped:
                with pytest.raises(ConfigError, match="unknown call"):
                    kept.column(call)
    assert pruned_cases > 50


def _reference_csv(path, table):
    """The writer as it was: every cell formatted, every row through csv.writer."""
    if isinstance(table, FeatureVectorTable):
        matrix, cell = table.weights, lambda w: f"{w:.6f}"
    else:
        matrix, cell = table.bins, lambda b: BIN_LABELS[b - 1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", *table.calls, "label"])
        for sid, row, label in zip(table.sample_ids, matrix, table.labels):
            writer.writerow([sid, *(cell(v) for v in row), label])


_AWKWARD_IDS = ("a,b", 'say "hi"', "cr\rhere", "nl\nhere", "crlf\r\n", " lead", "naïve-日本",
                "x", '"', "", "line\u2028sep", "nel\x85")
_ROUNDING_EDGES = (0.0000005, 0.9999995, 1.0, 0.0, 0.0000015, 0.5000005, 0.1234565, 2.5e-7)


def _writer_cases():
    rng = np.random.default_rng(0)
    n = len(_AWKWARD_IDS)
    calls = ("c,1", 'q"c', "nl\ncall", " sp", "ü", "plain")
    edges = np.resize(np.array(_ROUNDING_EDGES), (n, len(calls)))
    mixed = np.where(rng.integers(0, 2, edges.shape), edges, rng.uniform(0, 1, edges.shape))
    yield pytest.param(_AWKWARD_IDS, calls, mixed, id="awkward")
    yield pytest.param(("r1", "r2"), ("a", "b", "c", "d"),
                       np.array([_ROUNDING_EDGES[:4], _ROUNDING_EDGES[4:]]), id="edges")
    yield pytest.param((), ("a", "b"), np.zeros((0, 2)), id="no-rows")
    yield pytest.param(("r1", "r2", "r3"), ("only",), np.array([[0.0000005], [1.0], [0.3]]),
                       id="one-column")


@pytest.mark.parametrize("ids, calls, weights", _writer_cases())
def test_writers_match_csv_writer(tmp_path, ids, calls, weights):
    labels = tuple("MB"[i % 2] for i in range(len(ids)))
    fvt = FeatureVectorTable(sample_ids=ids, calls=calls, weights=weights, labels=labels)
    table = discretize(fvt)
    for t in (fvt, table):
        _reference_csv(tmp_path / "want.csv", t)
        t.to_csv(tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    back = read_decision_table_csv(tmp_path / "got.csv")
    assert back.sample_ids == ids
    assert (back.calls, back.labels) == (table.calls, table.labels)
    assert back.bins.dtype == table.bins.dtype
    np.testing.assert_array_equal(back.bins, table.bins)


def _near_ties():
    """Weights at and beside six-decimal ties: (k + 0.5) / 10**6 and both
    neighbouring doubles, for the first and last thousand k, every k whose
    tie is an exact double (2k + 1 a multiple of 5**6) and random k; then
    0, 1 and the ties at either end."""
    rng = np.random.default_rng(7)
    k = np.concatenate([np.arange(1000), np.arange(999_000, 1_000_000),
                        (15625 * np.arange(1, 128, 2) - 1) // 2,
                        rng.integers(0, 1_000_000, 20_000)])
    ties = (k + 0.5) / 1e6
    return np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, 1.0),
                           [0.0, 1.0, 5e-7, 1 - 5e-7]])


def test_weight_cells_match_percent_format_near_ties():
    values = _near_ties()
    values = values[: len(values) // 8 * 8].reshape(-1, 8)
    assert values.min() >= 0.0 and values.max() <= 1.0  # every cell takes the block encoder
    got = _weight_cells(values)
    assert len(got) == len(values)
    for row, text in zip(values.tolist(), got):
        assert text == "".join("%.6f," % x for x in row), row


@pytest.mark.parametrize("odd", [-0.0, -1e-300, 1.0000001, math.nan, math.inf],
                         ids=["negative-zero", "tiny-negative", "above-one", "nan", "inf"])
def test_fvt_csv_formats_an_odd_block_cell_by_cell(tmp_path, odd):
    """A table of three and a bit blocks whose second block alone holds a
    weight outside [0, 1] (or -0.0): that block is formatted by %, the
    others are encoded, and the file is the reference's."""
    rng = np.random.default_rng(3)
    n = 3 * _BLOCK_ROWS + 5
    weights = rng.uniform(0, 1, (n, 7))
    weights[::5, 2] = 0.0
    weights[1::7, 4] = 1.0
    weights[:, 6] = np.resize(_near_ties(), n)
    weights[_BLOCK_ROWS + 3, 1] = odd
    fvt = FeatureVectorTable(tuple(f"s{i}" for i in range(n)), tuple("abcdefg"), weights,
                             tuple("MB"[i % 2] for i in range(n)))
    _reference_csv(tmp_path / "want.csv", fvt)
    fvt.to_csv(tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_decision_table_csv_spans_blocks(tmp_path):
    n = 2 * _BLOCK_ROWS + 1
    bins = np.random.default_rng(4).integers(1, 5, (n, 5)).astype(np.int8)
    table = DecisionTable(tuple(f"s{i}" for i in range(n)), tuple("abcde"), bins,
                          tuple("MB"[i % 2] for i in range(n)))
    _reference_csv(tmp_path / "want.csv", table)
    table.to_csv(tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
