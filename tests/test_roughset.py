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
from callselect.roughset import Reduct, ReductStep, _block_ids, _pos_size, _refine

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


# The judge of generate_reduct: the same greedy rule without the positive
# approximation, renumbering every candidate and scoring it on all rows.
def reference_generate_reduct(table: DecisionTable) -> Reduct:
    """Greedy forward selection with one backward minimality pass.

    Each round adds the attribute maximizing the resulting significance
    (ties lexicographic). When no strict improvement exists but the full
    attribute set scores higher, the tie-broken argmax is added anyway, so
    the loop cannot stall below the attainable significance. The backward
    pass walks the additions in reverse and drops any attribute whose
    removal leaves significance unchanged.
    """
    if not table.calls:
        raise ConfigError("table has no attributes")
    if table.n_samples == 0:
        raise ConfigError("cannot reduce an empty table")
    if len(set(table.labels)) < 2:
        raise ConfigError("reduct needs both labels present")

    y = table.y
    n = table.n_samples
    target = _pos_size(_block_ids(table, table.calls), y)

    chosen: list[str] = []
    steps: list[ReductStep] = []
    remaining = sorted(table.calls)
    ids = np.zeros(n, dtype=np.int64)
    current = _pos_size(ids, y)
    while remaining:
        best_name, best_size, best_ids = None, -1, None
        for name in remaining:
            cand = _refine(ids, table.column(name))
            size = _pos_size(cand, y)
            if size > best_size:
                best_name, best_size, best_ids = name, size, cand
        chosen.append(best_name)
        remaining.remove(best_name)
        ids, current = best_ids, best_size
        steps.append(ReductStep(call=best_name, significance=best_size / n))
        if current >= target:
            break

    kept = list(chosen)
    removed: list[str] = []
    for name in reversed(chosen):
        trial = [c for c in kept if c != name]
        if _pos_size(_block_ids(table, trial), y) == current:
            kept = trial
            removed.append(name)

    return Reduct(
        steps=tuple(steps),
        removed_in_backward_pass=tuple(removed),
        final_significance=steps[-1].significance,
    )


def _assert_same_reduct(table):
    r = generate_reduct(table)
    assert r == reference_generate_reduct(table)
    chosen = [s.call for s in r.steps]
    for i, step in enumerate(r.steps):
        assert step.significance == significance(table, chosen[: i + 1])
    return r


@given(tables(max_samples=40, max_attrs=8))
@settings(max_examples=300)
def test_reduct_matches_reference(table):
    if len(set(table.labels)) < 2:
        return
    _assert_same_reduct(table)


def _planted_pure_table(rng, n, v):
    # Six calls each put 60% of one label's rows in bin 4, which no row of
    # the other label reaches there, so most rows join the positive region
    # (and leave the working set) in the first rounds.
    y = rng.integers(0, 2, n)
    bins = rng.integers(1, 4, size=(n, v))
    for k in range(6):
        bins[(rng.random(n) < 0.6) & (y == k % 2), k] = 4
    names = [f"k{j:02d}" for j in range(v)]
    rng.shuffle(names)
    return names, y, bins


def _twins(rng, groups, v):
    # Rows come in fours that agree on every call but the first two, which
    # take (a, b), (a+1, b), (a, b+1), (a+1, b+1); the label is the parity
    # of their sum. Any block lacking either call holds a twin of the other
    # label, so no row is pure until both calls are in.
    base = np.repeat(rng.integers(1, 4, size=(groups, v)), 4, axis=0)
    base[:, 0] += np.tile([0, 1, 0, 1], groups)
    base[:, 1] += np.tile([0, 0, 1, 1], groups)
    return (base[:, 0] + base[:, 1]) % 2, base


def _xor_table(rng, n, v):
    y, bins = _twins(rng, n // 4, v)
    names = [f"k{j:02d}" for j in range(v)]
    rng.shuffle(names)
    return names, y, bins


def _tied_table(rng, n, v):
    # A twin block as above, plus malware rows that c0 (and its copy
    # c0_copy, which ties with it) makes pure: c0 is 4 on those rows only.
    # Once they leave, every candidate ties until both twin calls are in,
    # and the constant call, first by name, wins the first such round.
    groups = n // 8
    y_twin, twin = _twins(rng, groups, v - 3)
    rest = n - len(y_twin)
    c0 = np.concatenate([np.repeat(rng.integers(1, 4, groups), 4), np.full(rest, 4)])
    other = np.concatenate([twin, rng.integers(1, 5, size=(rest, v - 3))])
    bins = np.column_stack([other, c0, c0, np.ones(n, dtype=int)])
    names = ["x_a", "x_b", *(f"n{j:02d}" for j in range(v - 5)), "c0", "c0_copy", "a_const"]
    return names, np.concatenate([y_twin, np.ones(rest, dtype=int)]), bins


def _larger_table(shape, seed):
    rng = np.random.default_rng(1000 * seed + 7)
    n, v = int(rng.integers(200, 2001)), int(rng.integers(30, 61))
    names, y, bins = shape(rng, n, v)
    return DecisionTable(
        sample_ids=tuple(f"r{i}" for i in range(len(y))),
        calls=tuple(names),
        bins=bins.astype(np.int8),
        labels=tuple("MB"[1 - int(c)] for c in y),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reduct_matches_reference_when_rows_leave_early(seed):
    r = _assert_same_reduct(_larger_table(_planted_pure_table, seed))
    assert r.steps[2].significance > 0.5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reduct_matches_reference_when_no_row_leaves_until_the_end(seed):
    r = _assert_same_reduct(_larger_table(_xor_table, seed))
    assert len(r.steps) >= 3
    assert [s.significance for s in r.steps[:-1]] == [0.0] * (len(r.steps) - 1)
    assert r.steps[-1].significance == 1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reduct_matches_reference_on_ties_and_stalls(seed):
    r = _assert_same_reduct(_larger_table(_tied_table, seed))
    calls = [s.call for s in r.steps]
    assert calls[:3] == ["c0", "a_const", "c0_copy"]
    assert r.steps[0].significance == r.steps[1].significance < 1.0
    assert r.steps[-1].significance == 1.0
