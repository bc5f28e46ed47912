"""The whole-table scorers against the per-call scorers they replaced.

information_gain, symmetric_uncertainty, chi_square and class_stats each
used to score one call at a time. The per-call versions are kept below,
verbatim, as the reference: every whole-table score must equal its
per-call score bit for bit (the sign of a zero included), on seeded
tables with all-zero, constant, all-present, single-bin and tied
columns, one-column tables, and 4 to 400 rows.
"""

import struct
from dataclasses import astuple
from typing import Sequence

import numpy as np
import pytest

from callselect import ConfigError, DecisionTable, FeatureVectorTable, discretize
from callselect.baselines import (
    chi_square,
    entropy_bits,
    information_gain,
    symmetric_uncertainty,
)
from callselect.ztest import _STATS_BLOCK, ClassStats, class_stats


# --- reference: the per-call scorers, verbatim -----------------------------

def ref_entropy_bits(counts: Sequence[int] | np.ndarray) -> float:
    arr = np.asarray(counts, dtype=np.float64)
    total = arr.sum()
    if total <= 0:
        return 0.0
    p = arr[arr > 0] / total
    return float(-(p * np.log2(p)).sum())


def ref_information_gain(table: DecisionTable, call: str) -> float:
    """H(labels) - H(labels | bins of call), in bits."""
    bins = table.column(call)
    y = table.y
    n = len(y)
    if n == 0:
        raise ConfigError("cannot score an empty table")
    h_labels = ref_entropy_bits(np.bincount(y, minlength=2))
    h_cond = 0.0
    for b in np.unique(bins):
        mask = bins == b
        weight = mask.sum() / n
        h_cond += weight * ref_entropy_bits(np.bincount(y[mask], minlength=2))
    return h_labels - h_cond


def ref_chi_square(fvt: FeatureVectorTable, call: str) -> float:
    """2x2 presence/absence chi-square statistic; zero marginals score 0."""
    present = fvt.column(call) > 0
    y = fvt.y
    a = int(np.sum(present & (y == 1)))  # malware containing the call
    b = int(np.sum(present & (y == 0)))  # benign containing the call
    c = int(np.sum(~present & (y == 1)))
    d = int(np.sum(~present & (y == 0)))
    n = a + b + c + d
    denom = (a + c) * (b + d) * (a + b) * (c + d)
    if denom == 0:
        return 0.0
    return n * (a * d - c * b) ** 2 / denom


def ref_symmetric_uncertainty(table: DecisionTable, call: str) -> float:
    """2*IG / (H(bins) + H(labels)); 0 when both entropies vanish."""
    bins = table.column(call)
    y = table.y
    h_bins = ref_entropy_bits(np.bincount(bins, minlength=5))
    h_labels = ref_entropy_bits(np.bincount(y, minlength=2))
    denom = h_bins + h_labels
    if denom == 0.0:
        return 0.0
    return 2.0 * ref_information_gain(table, call) / denom


def ref_class_stats(fvt: FeatureVectorTable, call: str) -> ClassStats:
    column = fvt.column(call)
    m_vals = column[fvt.y == 1]
    b_vals = column[fvt.y == 0]
    for name, vals in (("M", m_vals), ("B", b_vals)):
        if vals.size < 2:
            raise ConfigError(
                f"class {name} has {vals.size} samples; need at least 2 for a z test"
            )
    return ClassStats(
        call=call,
        mean_m=float(m_vals.mean()),
        mean_b=float(b_vals.mean()),
        var_m=float(m_vals.var()),
        var_b=float(b_vals.var()),
        n_m=int(m_vals.size),
        n_b=int(b_vals.size),
    )


# --- seeded tables ----------------------------------------------------------

def _bits(values) -> list:
    """Floats as their IEEE bit patterns, so 0.0 and -0.0 differ."""
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in values]


def _column(rng, n, kind, previous):
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, rng.uniform(0.05, 1.0))
    if kind == "present":
        return rng.uniform(0.01, 1.0, n)
    if kind == "single_bin":
        return rng.uniform(0.26, 0.5, n)
    if kind == "sparse":
        return np.where(rng.random(n) < 0.7, 0.0, rng.uniform(0.0, 1.0, n))
    if kind == "tied" and previous:
        return previous[int(rng.integers(len(previous)))].copy()
    return rng.uniform(0.0, 1.0, n)


KINDS = ("zero", "constant", "present", "single_bin", "sparse", "tied", "uniform")


def _fvt(rng, n, k):
    columns: list = []
    for _ in range(k):
        columns.append(_column(rng, n, KINDS[int(rng.integers(len(KINDS)))], columns))
    codes = rng.integers(0, 2, n)
    codes[:4] = (1, 1, 0, 0)  # at least two per class, for the z test
    return FeatureVectorTable(
        sample_ids=tuple(f"s{i}" for i in range(n)),
        calls=tuple(f"c{j}" for j in range(k)),
        weights=np.column_stack(columns),
        labels=tuple("M" if c else "B" for c in codes),
    )


def _tables():
    rng = np.random.default_rng(20181)
    for t in range(300):
        n = int(rng.integers(4, 401))
        k = 1 if t % 5 == 0 else int(rng.integers(2, 9))
        yield _fvt(rng, n, k)


def test_whole_table_scores_equal_per_call_scores_bitwise():
    for fvt in _tables():
        table = discretize(fvt)
        calls = fvt.calls
        assert _bits(information_gain(table)) == _bits(
            [float(ref_information_gain(table, c)) for c in calls])
        assert _bits(symmetric_uncertainty(table)) == _bits(
            [float(ref_symmetric_uncertainty(table, c)) for c in calls])
        assert _bits(chi_square(fvt)) == _bits(
            [float(ref_chi_square(fvt, c)) for c in calls])
        stats = class_stats(fvt, calls)
        assert [_bits(astuple(s)) for s in stats] == [
            _bits(astuple(ref_class_stats(fvt, c))) for c in calls]


def test_large_tables_bitwise():
    # numpy sums a long axis in blocks, and the transposed copy must block
    # alike. Chi's N*(AD-CB)^2 passes int64 near 10,800 rows, and for the
    # near-pure columns here it passes 2**53, where float rounding differs.
    rng = np.random.default_rng(3)
    half = 10000
    w = rng.uniform(0.0, 1.0, (2 * half, 12)) * (rng.random((2 * half, 12)) < 0.4)
    for j, (m_absent, b_present) in enumerate([(3, 8), (8, 3), (0, 9), (9, 10)]):
        w[:, j] = 0.0
        w[m_absent:half, j] = 0.5
        w[half:half + b_present, j] = 0.5
    fvt = FeatureVectorTable(tuple(f"s{i}" for i in range(2 * half)),
                             tuple(f"c{j:02d}" for j in range(12)),
                             w, ("M",) * half + ("B",) * half)
    assert _bits(chi_square(fvt)) == _bits([float(ref_chi_square(fvt, c)) for c in fvt.calls])
    reversed_calls = list(reversed(fvt.calls))
    assert [_bits(astuple(s)) for s in class_stats(fvt, reversed_calls)] == [
        _bits(astuple(ref_class_stats(fvt, c))) for c in reversed_calls]


def test_class_stats_across_blocks_bitwise():
    # Calls in a shuffled order over several column blocks, the last one short.
    rng = np.random.default_rng(16)
    fvt = _fvt(rng, 301, 3 * _STATS_BLOCK + 5)
    calls = [str(c) for c in rng.permutation(fvt.calls)]
    assert [_bits(astuple(s)) for s in class_stats(fvt, calls)] == [
        _bits(astuple(ref_class_stats(fvt, c))) for c in calls]


@pytest.mark.parametrize("counts", [[5, 5], [7], [0, 4], [0, 0], [1, 1, 1, 1],
                                    [0, 3, 0, 1, 2], [0, 0, 9, 0, 0]])
def test_entropy_rows_match_per_vector_entropy(counts):
    rows = np.array([counts, counts[::-1]])
    got = _bits(entropy_bits(rows).tolist())
    assert got == _bits([ref_entropy_bits(counts), ref_entropy_bits(counts[::-1])])
    assert _bits([float(entropy_bits(counts))]) == _bits([ref_entropy_bits(counts)])


def test_class_stats_keeps_the_two_per_class_rule():
    fvt = _fvt(np.random.default_rng(5), 6, 2)
    one_m = FeatureVectorTable(fvt.sample_ids, fvt.calls, fvt.weights, ("M",) + ("B",) * 5)
    with pytest.raises(ConfigError) as got:
        class_stats(one_m, one_m.calls)
    with pytest.raises(ConfigError) as ref:
        ref_class_stats(one_m, "c0")
    assert str(got.value) == str(ref.value) == (
        "class M has 1 samples; need at least 2 for a z test")
    assert class_stats(one_m, []) == []  # no call, no check, as before
