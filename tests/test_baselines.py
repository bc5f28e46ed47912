"""Reference selectors: information gain, chi-square, symmetric uncertainty."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from callselect import (
    ConfigError,
    DecisionTable,
    FeatureVectorTable,
    chi_square,
    discretize,
    entropy_bits,
    information_gain,
    midpoint_table,
    rank,
    symmetric_uncertainty,
)
from callselect.cli import select_report


def _table(bins, labels, calls=None):
    b = np.asarray(bins, dtype=np.int8)
    calls = tuple(calls or (f"c{j}" for j in range(b.shape[1])))
    return DecisionTable(
        sample_ids=tuple(f"s{i}" for i in range(b.shape[0])),
        calls=calls,
        bins=b,
        labels=tuple(labels),
    )


def _fvt(weights, labels):
    w = np.asarray(weights, dtype=np.float64)
    return FeatureVectorTable(
        sample_ids=tuple(f"s{i}" for i in range(w.shape[0])),
        calls=tuple(f"c{j}" for j in range(w.shape[1])),
        weights=w,
        labels=tuple(labels),
    )


def _entropy_oracle(freqs):
    total = sum(freqs)
    return -sum(f / total * math.log2(f / total) for f in freqs if f)


def test_entropy_bits():
    assert entropy_bits([5, 5]) == 1.0
    assert entropy_bits([7]) == 0.0
    assert entropy_bits([0, 4]) == 0.0  # the 0 log 0 = 0 convention
    assert entropy_bits([1, 1, 1, 1]) == 2.0


def test_information_gain_extremes():
    perfect = _table([[1], [1], [2], [2]], ["M", "M", "B", "B"])
    assert information_gain(perfect)[0] == pytest.approx(1.0)
    useless = _table([[1], [2], [1], [2]], ["M", "M", "B", "B"])
    assert information_gain(useless)[0] == pytest.approx(0.0, abs=1e-12)


def test_information_gain_golden_column(golden_table):
    # s3 bins (1,2,2,1,4,3,3) against labels (B,M,M,B,M,B,M):
    # pure blocks except bin 3, which holds one of each
    h_labels = _entropy_oracle([3, 4])
    h_cond = (2 / 7) * _entropy_oracle([1, 1])
    ig = information_gain(golden_table)[golden_table.column_index("s3")]
    assert ig == pytest.approx(h_labels - h_cond, rel=1e-12)


def test_chi_square_perfect_association():
    # presence exactly tracks the class: chi equals n
    w = np.array([[0.4]] * 10 + [[0.0]] * 10)
    fvt = _fvt(w, ["M"] * 10 + ["B"] * 10)
    assert chi_square(fvt)[0] == pytest.approx(20.0)


def test_chi_square_hand_value():
    # 2x2 table a=8 (M,present) b=2 (M,absent) c=3 (B,present) d=7 (B,absent)
    w = np.array([[0.5]] * 8 + [[0.0]] * 2 + [[0.5]] * 3 + [[0.0]] * 7)
    fvt = _fvt(w, ["M"] * 10 + ["B"] * 10)
    n, a, b, c, d = 20, 8, 2, 3, 7
    expected = n * (a * d - c * b) ** 2 / ((a + b) * (c + d) * (a + c) * (b + d))
    assert chi_square(fvt)[0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(5.05050505050505, rel=1e-9)


def test_chi_square_zero_marginal():
    # present everywhere: no contrast, score 0 by convention
    fvt = _fvt([[0.3], [0.6], [0.2], [0.9]], ["M", "M", "B", "B"])
    assert chi_square(fvt)[0] == 0.0
    # absent everywhere behaves the same
    fvt0 = _fvt([[0.0], [0.0], [0.0], [0.0]], ["M", "M", "B", "B"])
    assert chi_square(fvt0)[0] == 0.0


def test_chi_square_refuses_a_midpoint_table():
    # Every bin midpoint is above 0: scored, every call would be present everywhere.
    table = _table([[1, 4], [2, 1], [1, 1], [3, 2]], ["M", "M", "B", "B"])
    fvt = midpoint_table(table)
    assert fvt.binned
    message = "chi reads call presence, which a pre-binned table does not keep"
    for score in (chi_square, lambda t: rank(t, "chi"),
                  lambda t: select_report(t, {"method": "chi", "top_k": None,
                                              "z_candidates": "reduct", "alpha": 0.05,
                                              "z_crit": None, "sigma_as_stddev": False})):
        with pytest.raises(ConfigError, match=message):
            score(fvt)
    # The same weights in a table that does not say it is binned are scored.
    plain = FeatureVectorTable(fvt.sample_ids, fvt.calls, fvt.weights, fvt.labels)
    assert chi_square(plain) == [0.0, 0.0] and not plain.binned
    assert [f.call for f in rank(plain, "IG")] == [f.call for f in rank(fvt, "IG")]


def test_symmetric_uncertainty_perfect_and_useless():
    perfect = _table([[1], [1], [2], [2]], ["M", "M", "B", "B"])
    assert symmetric_uncertainty(perfect)[0] == pytest.approx(1.0)
    useless = _table([[1], [2], [1], [2]], ["M", "M", "B", "B"])
    assert symmetric_uncertainty(useless)[0] == pytest.approx(0.0, abs=1e-12)


def test_symmetric_uncertainty_oracle(golden_table):
    ig = information_gain(golden_table)[golden_table.column_index("s1")]
    h_bins = _entropy_oracle([2, 3, 2])  # s1 bins 1,2,3 with counts 2,3,2
    h_labels = _entropy_oracle([3, 4])
    expected = 2.0 * ig / (h_bins + h_labels)
    su = symmetric_uncertainty(golden_table)[golden_table.column_index("s1")]
    assert su == pytest.approx(expected, rel=1e-12)


def test_symmetric_uncertainty_constant_column():
    t = _table([[2], [2], [2], [2]], ["M", "M", "B", "B"])
    assert symmetric_uncertainty(t)[0] == 0.0


def test_rank_orders_and_breaks_ties():
    rng = np.random.default_rng(13)
    n = 100
    # c0, c2: informative, and absent from most benign rows so presence
    # carries contrast too; c1: featureless noise, present everywhere
    c0 = np.r_[rng.uniform(0.5, 1.0, n), np.zeros(80), rng.uniform(0.1, 0.3, 20)]
    c2 = np.r_[rng.uniform(0.4, 0.9, n), np.zeros(60), rng.uniform(0.1, 0.4, 40)]
    c1 = rng.uniform(0.4, 0.6, 2 * n)
    w = np.column_stack([c0, c1, c2])
    fvt = _fvt(w, ["M"] * n + ["B"] * n)
    for method in ("IG", "CHI", "SU"):
        ranked = rank(fvt, method)
        assert len(ranked) == 3
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)
        assert ranked[-1].call == "c1"  # the noise column scores lowest
    top2 = rank(fvt, "IG", k=2)
    assert len(top2) == 2
    assert rank(fvt, "IG", k=99) == rank(fvt, "IG")


def test_rank_tie_break_is_lexicographic():
    # duplicate columns score identically, so names decide the order
    w = np.array([[0.9, 0.9], [0.8, 0.8], [0.1, 0.1], [0.2, 0.2]])
    fvt = FeatureVectorTable(
        sample_ids=("a", "b", "c", "d"),
        calls=("zz", "aa"),
        weights=w,
        labels=("M", "M", "B", "B"),
    )
    for method in ("IG", "CHI", "SU"):
        assert [r.call for r in rank(fvt, method)] == ["aa", "zz"]


def test_rank_rejects_unknown_method():
    fvt = _fvt([[0.1], [0.9]], ["B", "M"])
    with pytest.raises(ConfigError, match="method"):
        rank(fvt, "gini")


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_scores_within_bounds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15)) * 2
    w = rng.uniform(0.0, 1.0, size=(n, 3))
    fvt = _fvt(w, ["M"] * (n // 2) + ["B"] * (n // 2))
    table = discretize(fvt)
    for ig, su, chi in zip(information_gain(table), symmetric_uncertainty(table),
                           chi_square(fvt)):
        assert -1e-12 <= ig <= 1.0 + 1e-12  # binary labels cap H at 1 bit
        assert -1e-12 <= su <= 1.0 + 1e-12
        assert chi >= 0.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rank_is_a_permutation(seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, size=(12, 4))
    fvt = _fvt(w, ["M"] * 6 + ["B"] * 6)
    for method in ("IG", "CHI", "SU"):
        names = [r.call for r in rank(fvt, method)]
        assert sorted(names) == sorted(fvt.calls)
