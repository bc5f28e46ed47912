"""Build feature tables from call-count records.

Weighting follows the usual tf-idf recipe: term frequency is a call's
count divided by the sample's total call count, inverse document
frequency is ln(r / df), and each column is then min-max normalized into
[0, 1] so one scale serves every call. Discretization maps the weights
onto four contiguous bins for the rough-set stage.
"""
from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, InvariantError
from .ingest import Corpus, read_input

BIN_LABELS = ("B1", "B2", "B3", "B4")
DEFAULT_MIN_DF = 1

_LABEL_CODES = {"M": 1, "B": 0}


def label_codes(labels: Sequence[str]) -> np.ndarray:
    """Malware 1, benign 0, as int8; any other label is a ConfigError."""
    try:
        return np.fromiter((_LABEL_CODES[lab] for lab in labels), dtype=np.int8,
                           count=len(labels))
    except KeyError as exc:
        raise ConfigError(f"labels must be M or B, got {exc.args[0]!r}") from None


class _Table:
    """What both tables share, checked when the table is built: distinct ids
    and labels aligned with the matrix rows, distinct calls aligned with its
    columns, the 0/1 label codes ``y`` and the name-to-column lookup."""

    sample_ids: tuple[str, ...]
    calls: tuple[str, ...]
    labels: tuple[str, ...]
    y: np.ndarray  # label_codes(labels), int8

    def _check(self, matrix: np.ndarray, what: str) -> None:
        expected = (len(self.sample_ids), len(self.calls))
        if not isinstance(matrix, np.ndarray) or matrix.shape != expected:
            raise ConfigError(
                f"{what} must be an array of shape {expected} "
                f"(sample ids x calls), got {np.shape(matrix)}"
            )
        if len(self.labels) != expected[0]:
            raise ConfigError(
                f"{len(self.labels)} labels for {expected[0]} sample ids"
            )
        index = {c: j for j, c in enumerate(self.calls)}
        if len(index) != len(self.calls):
            dup = next(c for j, c in enumerate(self.calls) if index[c] != j)
            raise ConfigError(f"duplicate call: {dup!r}")
        if len(set(self.sample_ids)) != len(self.sample_ids):
            dup = next(s for s, n in Counter(self.sample_ids).items() if n > 1)
            raise ConfigError(f"duplicate sample_id: {dup!r}")
        object.__setattr__(self, "y", label_codes(self.labels))
        object.__setattr__(self, "_index", index)

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    def column_index(self, call: str) -> int:
        try:
            return self._index[call]
        except KeyError:
            raise ConfigError(f"unknown call: {call!r}") from None


@dataclass(frozen=True)
class FeatureVectorTable(_Table):
    """Samples x calls weight matrix with aligned ids and labels."""

    sample_ids: tuple[str, ...]
    calls: tuple[str, ...]
    weights: np.ndarray  # shape (len(sample_ids), len(calls)), float64 in [0, 1]
    labels: tuple[str, ...]
    binned: bool = False  # weights are bin midpoints (midpoint_table): call presence is lost

    def __post_init__(self) -> None:
        self._check(self.weights, "weights")

    def column(self, call: str) -> np.ndarray:
        return self.weights[:, self.column_index(call)]

    def to_csv(self, path: str | Path) -> None:
        _write_table_csv(path, self.sample_ids, self.calls, self.labels,
                         _block_rows(self.weights, _weight_cells))


@dataclass(frozen=True)
class DecisionTable(_Table):
    """Discretized table: conditional attributes are calls, decision is the label."""

    sample_ids: tuple[str, ...]
    calls: tuple[str, ...]
    bins: np.ndarray  # shape (samples, calls), int8 values 1..4
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        self._check(self.bins, "bins")
        # The partition kernel keys rows in base 5, so a 0 or a 5 would
        # collide with a neighbouring key.
        bins = self.bins
        if not np.issubdtype(bins.dtype, np.integer) or (
            bins.size and not 1 <= bins.min() <= bins.max() <= 4
        ):
            raise ConfigError("bins must be integers in 1..4")

    def column(self, call: str) -> np.ndarray:
        return self.bins[:, self.column_index(call)]

    def to_csv(self, path: str | Path) -> None:
        _write_table_csv(path, self.sample_ids, self.calls, self.labels,
                         _block_rows(self.bins, _bin_cells))


# Rows per block of the CSV writers: a block's temporaries stay near 1 MB
# at a few hundred calls, never a whole-matrix copy.
_BLOCK_ROWS = 256


def _block_rows(matrix: np.ndarray, encode) -> Iterator[str]:
    """Each row's cells as one string, encode(block) giving a block's rows."""
    for start in range(0, len(matrix), _BLOCK_ROWS):
        yield from encode(matrix[start:start + _BLOCK_ROWS])


def _ascii_rows(cells: np.ndarray) -> list[str]:
    """(rows, calls, width) ASCII codes as one string per row."""
    return [str(row.data, "ascii") for row in cells.reshape(len(cells), cells[0].size)]


def _bin_cells(bins: np.ndarray) -> list[str]:
    """Rows of "B<bin>," cells."""
    cells = np.empty((*bins.shape, 3), dtype=np.uint8)
    cells[..., 0] = ord("B")
    cells[..., 1] = bins + ord("0")
    cells[..., 2] = ord(",")
    return _ascii_rows(cells)


def _weight_cells(w: np.ndarray) -> list[str]:
    """Rows of "%.6f," cells. Weights in [0, 1] (no -0.0, no NaN) are
    encoded from k = rint(w * 1e6), the six-decimal digits: the product is
    within about 1.1e-10 of the exact w * 10**6, so k is %.6f's rounding
    unless that lies within 1e-6 of a half, and those cells are rounded by
    %.6f itself. A cell's nine bytes are k's integer digit, ".", its six
    decimals and ",". Any other block is formatted cell by cell."""
    if not (w.size and (w >= 0.0).all() and (w <= 1.0).all() and not np.signbit(w).any()):
        fmt = "%.6f," * w.shape[1]
        return [fmt % tuple(row) for row in w.tolist()]
    scaled = w.astype(np.float64, copy=False) * 1e6
    k = np.rint(scaled)
    near = np.abs(np.subtract(scaled, k, out=scaled), out=scaled) > 0.5 - 1e-6
    k = k.astype(np.uint32)
    if near.any():
        k[near] = [int(("%.6f" % x).replace(".", "")) for x in w[near].tolist()]
    cells = np.empty((*w.shape, 9), dtype=np.uint8)
    cells[..., 1] = ord(".")
    cells[..., 8] = ord(",")
    for digit in (7, 6, 5, 4, 3, 2, 0):  # uint32 // and * run several times faster than int64 %
        rest = k // 10
        cells[..., digit] = k - rest * 10 + ord("0")
        k = rest
    return _ascii_rows(cells)


# What csv.writer (QUOTE_MINIMAL) quotes a field for.
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    """text as csv.writer writes it in a row of two or more fields."""
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_table_csv(path, sample_ids, calls, labels, cell_rows) -> None:
    """Header through csv.writer, then one line per row: the sample id,
    the row's cells (each already followed by a comma) and the label,
    which the table has checked is M or B."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["sample_id", *calls, "label"])
        fh.writelines(f"{_csv_field(sid)},{cells}{label}\r\n"
                      for sid, cells, label in zip(sample_ids, cell_rows, labels))


def read_decision_table_csv(path: str | Path) -> DecisionTable:
    """Read a decision table in the to_csv layout (sample_id first, label last)."""
    # Split at "\n" only, so a quoted field may hold a line break and an
    # unquoted one any other line separator (U+2028, U+0085, ...).
    rows = list(csv.reader(io.StringIO(read_input(path, "decision table"), newline="\n")))
    if not rows or len(rows[0]) < 3 or rows[0][0] != "sample_id" or rows[0][-1] != "label":
        raise ConfigError("decision table header must be sample_id,<calls...>,label")
    calls = tuple(rows[0][1:-1])
    sample_ids, labels, bin_rows = [], [], []
    for row in rows[1:]:
        if len(row) != len(rows[0]):
            raise ConfigError(f"ragged decision table row: {row!r}")
        sample_ids.append(row[0])
        labels.append(row[-1])
        try:
            bin_rows.append([BIN_LABELS.index(cell) + 1 for cell in row[1:-1]])
        except ValueError:
            raise ConfigError(f"bin values must be one of {BIN_LABELS}: {row!r}") from None
    return DecisionTable(
        sample_ids=tuple(sample_ids),
        calls=calls,
        bins=np.array(bin_rows, dtype=np.int8).reshape(len(bin_rows), len(calls)),
        labels=tuple(labels),
    )


def check_min_df(min_df: int) -> None:
    """The document-frequency floors the tables accept: 1 and above."""
    if min_df < 1:
        raise ConfigError(f"min_df must be >= 1, got {min_df}")


def _term_frequencies(
    corpus: Corpus, min_df: int
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The vocabulary (calls in at least min_df samples, sorted), its idf
    ln(r / df) and the tf matrix: count / the sample's total per
    (sample, vocabulary call). Rows are filled one slice at a time; an
    index array over every count would cost 8-16 bytes per count."""
    check_min_df(min_df)
    if set(corpus.labels) != {"M", "B"}:
        raise ConfigError("corpus must contain both labels M and B")
    df = np.bincount(corpus.indices, minlength=len(corpus.calls))
    kept = df >= min_df
    vocab = tuple(compress(corpus.calls, kept.tolist()))
    if not vocab:
        raise ConfigError("empty vocabulary after min_df filtering")
    col = None  # the identity unless min_df prunes
    if len(vocab) < len(corpus.calls):
        col = np.where(kept, np.cumsum(kept) - 1, -1)
    tf = np.zeros((len(corpus.sample_ids), len(vocab)), dtype=np.float64)
    bounds = corpus.indptr.tolist()
    for row, a, b in zip(tf, bounds, bounds[1:]):
        if a == b:
            continue
        counts = corpus.counts[a:b]
        values = counts / counts.sum()
        idx = corpus.indices[a:b]
        if col is not None:
            idx = col[idx]
            keep = idx >= 0
            idx, values = idx[keep], values[keep]
        row[idx] = values
    return vocab, np.array([math.log(len(tf) / d) for d in df[kept].tolist()]), tf


def _minmax_in_place(m: np.ndarray) -> None:
    """oracles.minmax_columns(m) written into m, bit for bit when m holds no
    -0.0 (tf-idf holds none): a constant column becomes x - x = +0.0."""
    lo = m.min(axis=0)
    span = m.max(axis=0) - lo
    m -= lo
    m /= np.where(span > 0, span, 1.0)


def build_fvt(corpus: Corpus, min_df: int = DEFAULT_MIN_DF) -> FeatureVectorTable:
    """tf-idf weighted feature table, one row per sample, columns sorted by call name."""
    vocab, idf, tf = _term_frequencies(corpus, min_df)
    tf *= idf  # the weights, in the tf buffer
    _minmax_in_place(tf)
    return FeatureVectorTable(corpus.sample_ids, vocab, tf, corpus.labels)


def build_fvt_and_relative_frequencies(
    corpus: Corpus, min_df: int = DEFAULT_MIN_DF
) -> tuple[FeatureVectorTable, FeatureVectorTable]:
    """build_fvt's table and the plain term-frequency table (no idf, no
    normalization; values already in [0, 1]) from one tf matrix: the
    weights are tf * idf, a new matrix, min-max normalized in place."""
    vocab, idf, tf = _term_frequencies(corpus, min_df)
    weights = tf * idf
    _minmax_in_place(weights)
    return (FeatureVectorTable(corpus.sample_ids, vocab, weights, corpus.labels),
            FeatureVectorTable(corpus.sample_ids, vocab, tf, corpus.labels))


def discretize(fvt: FeatureVectorTable) -> DecisionTable:
    """Map weights onto the four right-closed bins B1=[0,.25], B2=(.25,.5],
    B3=(.5,.75], B4=(.75,1]. Weights outside [0, 1], NaN included, are a bug
    upstream."""
    w = fvt.weights
    if w.size and not (w.min() >= 0.0 and w.max() <= 1.0):
        raise InvariantError("feature weights must lie in [0, 1] before discretization")
    # A bin is 1 plus the number of edges the weight lies above.
    bins = (w > .25).view(np.int8) + (w > .5).view(np.int8) + (w > .75).view(np.int8) + 1
    return DecisionTable(
        sample_ids=fvt.sample_ids,
        calls=fvt.calls,
        bins=bins,
        labels=fvt.labels,
    )


def midpoint_table(table: DecisionTable) -> FeatureVectorTable:
    """Each bin's midpoint as the weight (B1 .125, B2 .375, B3 .625, B4
    .875), which discretize maps back to the same bin."""
    return FeatureVectorTable(table.sample_ids, table.calls,
                              table.bins.astype(np.float64) * 0.25 - 0.125, table.labels,
                              binned=True)
