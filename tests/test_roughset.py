"""Rough set core: partitions, positive regions, significance, greedy reduct."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from callselect import (
    ConfigError,
    DecisionTable,
    generate_reduct,
    naive_positive_region,
    partition,
    positive_region,
    significance,
)
from callselect.oracles import random_decision_table
from callselect.roughset import _refine

SEVEN = 7


def test_partition_blocks_by_first_index(golden_table):
    p = partition(golden_table, ["s1"])
    assert p == ((0, 5), (1, 2, 3), (4, 6))
    p2 = partition(golden_table, ["s1", "s3"])
    assert p2 == ((0,), (1, 2), (3,), (4,), (5,), (6,))


def test_partition_empty_attrs_is_single_block(golden_table):
    p = partition(golden_table, [])
    assert p == (tuple(range(SEVEN)),)


def test_refine_ids_match_unique_inverse():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(0, 60))
        ids = rng.integers(0, int(rng.integers(1, 30)), n)
        column = rng.integers(1, 5, n).astype(np.int8)
        want = np.unique(ids * 5 + column, return_inverse=True)[1]
        assert np.array_equal(_refine(ids, column), want)


def test_partition_unknown_attr(golden_table):
    with pytest.raises(ConfigError, match="s9"):
        partition(golden_table, ["s9"])


def test_positive_region_golden(golden_table):
    assert sorted(positive_region(golden_table, ["s1"])) == [0, 4, 5, 6]
    assert sorted(positive_region(golden_table, ["s2"])) == [0, 1, 2]
    assert sorted(positive_region(golden_table, ["s3"])) == [0, 1, 2, 3, 4]


def test_significance_golden(golden_table):
    # psi(s1) is 4/7 by the positive-region rule; see notes in the table fixture
    assert significance(golden_table, ["s1"]) == pytest.approx(4 / 7, abs=0)
    assert significance(golden_table, ["s2"]) == pytest.approx(3 / 7, abs=0)
    assert significance(golden_table, ["s3"]) == pytest.approx(5 / 7, abs=0)
    assert significance(golden_table, ["s1", "s3"]) == 1.0
    assert significance(golden_table, ["s2", "s3"]) == pytest.approx(5 / 7, abs=0)
    assert significance(golden_table, ["s1", "s2"]) == 1.0
    assert significance(golden_table, ["s1", "s2", "s3"]) == 1.0


def test_most_significant_breaks_ties_lexicographically():
    t = DecisionTable(
        sample_ids=("q1", "q2"),
        calls=("zz", "aa"),
        bins=np.array([[1, 1], [2, 2]], dtype=np.int8),
        labels=("B", "M"),
    )
    # both calls separate everything; the first greedy pick takes the smaller name
    r = generate_reduct(t)
    assert [s.call for s in r.steps] == ["aa"]


def test_reduct_golden(golden_table):
    r = generate_reduct(golden_table)
    assert [(s.call, s.significance) for s in r.steps] == [
        ("s3", pytest.approx(5 / 7)),
        ("s1", 1.0),
    ]
    assert r.removed_in_backward_pass == ()
    assert r.final_significance == 1.0
    assert r.calls == ("s3", "s1")


def test_reduct_json_shape(golden_table):
    d = generate_reduct(golden_table).to_json_dict()
    assert d["final_significance"] == 1.0
    assert d["steps"][0] == {"call": "s3", "significance": 5 / 7}
    assert d["removed_in_backward_pass"] == []


def test_reduct_stall_escape_on_xor_labels():
    # no single attribute separates anything, the pair separates everything
    t = DecisionTable(
        sample_ids=("p1", "p2", "p3", "p4"),
        calls=("a", "b"),
        bins=np.array([[1, 1], [1, 2], [2, 1], [2, 2]], dtype=np.int8),
        labels=("B", "M", "M", "B"),
    )
    r = generate_reduct(t)
    assert [(s.call, s.significance) for s in r.steps] == [("a", 0.0), ("b", 1.0)]
    assert r.calls == ("a", "b")


def test_reduct_backward_pass_removes_redundant_attr():
    # frozen random table where the first greedy pick becomes redundant later
    bins = np.array(
        [
            [4, 2, 3, 4],
            [1, 4, 2, 1],
            [4, 1, 4, 1],
            [3, 1, 4, 3],
            [4, 4, 3, 4],
            [3, 1, 1, 3],
            [2, 4, 3, 1],
            [4, 4, 2, 2],
        ],
        dtype=np.int8,
    )
    t = DecisionTable(
        sample_ids=tuple(f"r{i}" for i in range(8)),
        calls=("a00", "a01", "a02", "a03"),
        bins=bins,
        labels=("B", "M", "B", "B", "M", "B", "B", "M"),
    )
    r = generate_reduct(t)
    assert [s.call for s in r.steps] == ["a02", "a00", "a01"]
    assert r.removed_in_backward_pass == ("a02",)
    assert r.calls == ("a00", "a01")
    assert significance(t, r.calls) == r.final_significance == 1.0


def test_reduct_requires_both_labels():
    t = DecisionTable(
        sample_ids=("a", "b"),
        calls=("c",),
        bins=np.array([[1], [2]], dtype=np.int8),
        labels=("M", "M"),
    )
    with pytest.raises(ConfigError):
        generate_reduct(t)


@st.composite
def tables(draw, max_samples=20, max_attrs=6):
    n = draw(st.integers(min_value=2, max_value=max_samples))
    a = draw(st.integers(min_value=1, max_value=max_attrs))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_decision_table(np.random.default_rng(seed), n, a)


@given(tables())
def test_partition_is_a_partition(table):
    for attrs in ([], list(table.calls[:1]), list(table.calls)):
        p = partition(table, attrs)
        seen = [i for b in p for i in b]
        assert sorted(seen) == list(range(table.n_samples))
        assert len(seen) == len(set(seen))


@given(tables())
def test_partition_blocks_match_pairwise_equality(table):
    # two rows share a block exactly when they agree on every chosen attribute
    attrs = list(table.calls[: len(table.calls) // 2 + 1])
    cols = [table.calls.index(a) for a in attrs]
    block_of = {i: b for b, block in enumerate(partition(table, attrs)) for i in block}
    for i in range(table.n_samples):
        for j in range(table.n_samples):
            same = all(table.bins[i, c] == table.bins[j, c] for c in cols)
            assert (block_of[i] == block_of[j]) == same


@given(tables())
def test_significance_monotone_in_attrs(table):
    calls = list(table.calls)
    for cut in range(len(calls) + 1):
        s_small = significance(table, calls[:cut])
        s_big = significance(table, calls)
        assert s_small <= s_big + 1e-15


@given(tables(max_samples=14, max_attrs=4))
def test_positive_region_matches_naive(table):
    for cut in range(len(table.calls) + 1):
        attrs = list(table.calls[:cut])
        assert positive_region(table, attrs) == naive_positive_region(table, attrs)


@given(tables(max_samples=16, max_attrs=5))
@settings(max_examples=60)
def test_reduct_invariants(table):
    if len(set(table.labels)) < 2:
        return
    r = generate_reduct(table)
    full = significance(table, table.calls)
    assert r.final_significance == full
    assert significance(table, r.calls) == full
    # minimality: dropping any kept attribute strictly hurts
    kept = list(r.calls)
    for drop in kept:
        rest = [c for c in kept if c != drop]
        assert significance(table, rest) < full or full == 0.0
