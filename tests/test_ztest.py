"""Two-sample z filter: statistics, verdicts, list assembly, ranking."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from callselect import (
    ConfigError,
    FeatureVectorTable,
    build_fvt_and_relative_frequencies,
    class_stats,
    critical_value,
    default_spec,
    eval_ranking,
    filter_calls,
    generate,
    z_score,
)
from callselect.ztest import ClassStats

from conftest import written_rows


def _fvt(weights, labels, calls=None):
    w = np.asarray(weights, dtype=np.float64)
    calls = tuple(calls or (f"c{j}" for j in range(w.shape[1])))
    return FeatureVectorTable(
        sample_ids=tuple(f"s{i}" for i in range(w.shape[0])),
        calls=calls,
        weights=w,
        labels=tuple(labels),
    )


def test_class_stats_worked_example():
    fvt = _fvt([[0.2], [0.4], [0.1], [0.3]], ["M", "M", "B", "B"], calls=("open",))
    st_ = class_stats(fvt, ["open"])[0]
    assert st_.mean_m == pytest.approx(0.3, abs=1e-15)
    assert st_.mean_b == pytest.approx(0.2, abs=1e-15)
    # population variance, not the n-1 sample form
    assert st_.var_m == pytest.approx(0.01, abs=1e-15)
    assert st_.var_b == pytest.approx(0.01, abs=1e-15)
    assert (st_.n_m, st_.n_b) == (2, 2)


def test_class_stats_needs_two_per_class():
    fvt = _fvt([[0.2], [0.1], [0.3]], ["M", "B", "B"])
    with pytest.raises(ConfigError, match="M"):
        class_stats(fvt, ["c0"])


def test_z_worked_example():
    st_ = ClassStats(call="c", mean_m=0.6, mean_b=0.4, var_m=0.04, var_b=0.04, n_m=100, n_b=100)
    oracle = 0.2 / math.sqrt(0.04 / 100 + 0.04 / 100)
    z = z_score(st_)
    assert z == pytest.approx(oracle, rel=1e-12)
    assert z == pytest.approx(7.0710678118654755, rel=1e-12)


def test_sigma_as_stddev_variant():
    st_ = ClassStats(call="c", mean_m=0.6, mean_b=0.4, var_m=0.04, var_b=0.04, n_m=100, n_b=100)
    # the variant reads the variance slots as standard deviations
    se = math.sqrt(0.2 / 100 + 0.2 / 100)
    assert z_score(st_, sigma_as_stddev=True) == pytest.approx(0.2 / se, rel=1e-12)


def test_z_zero_standard_error_is_an_error():
    st_ = ClassStats(call="c", mean_m=0.5, mean_b=0.5, var_m=0.0, var_b=0.0, n_m=10, n_b=10)
    with pytest.raises(ConfigError):
        z_score(st_)


def test_critical_value_defaults_and_alpha():
    assert critical_value() == 1.96
    assert critical_value(alpha=0.05) == 1.96
    assert critical_value(z_crit=2.5) == 2.5
    # two-sided 1% point from the normal quantile
    assert critical_value(alpha=0.01) == pytest.approx(2.5758293035489004, rel=1e-12)


def test_critical_value_non_default_alpha_is_pinned():
    # Inverse normal CDFs can disagree in the last ulp (scipy gives
    # 1.6448536269514722 here); z_crit lands in selection reports, so the
    # standard library's value is the pinned one.
    assert critical_value(alpha=0.1) == NormalDist().inv_cdf(0.95) == 1.6448536269514715


@pytest.mark.parametrize(
    "alpha, z_crit, message",
    [
        (0.05, math.nan, "z_crit must be finite and positive, got nan"),
        (0.05, math.inf, "z_crit must be finite and positive, got inf"),
        (0.05, 0.0, "z_crit must be finite and positive, got 0.0"),
        (math.nan, 2.0, "alpha must lie in (0, 1), got nan"),
        (7.0, 2.0, "alpha must lie in (0, 1), got 7.0"),
        (math.nan, None, "alpha must lie in (0, 1), got nan"),
    ],
)
def test_critical_value_rejects_bad_options(alpha, z_crit, message):
    # alpha is checked even when an explicit z_crit overrides it
    with pytest.raises(ConfigError) as exc:
        critical_value(alpha=alpha, z_crit=z_crit)
    assert str(exc.value) == message


def test_verdict_degenerate_column_is_none():
    fvt = _fvt([[0.5], [0.5], [0.5], [0.5]], ["M", "M", "B", "B"])
    (v,) = filter_calls(fvt, ["c0"]).rejected
    assert v.z is None
    assert v.dominant == "none"


def test_filter_lists_and_signs():
    # c0 heavier in malware, c1 heavier in benign, c2 indistinct
    rng = np.random.default_rng(11)
    n = 200
    w = np.clip(
        np.column_stack(
            [
                np.r_[rng.normal(0.8, 0.05, n), rng.normal(0.5, 0.05, n)],
                np.r_[rng.normal(0.2, 0.05, n), rng.normal(0.5, 0.05, n)],
                rng.normal(0.5, 0.05, 2 * n),
            ]
        ),
        0.0,
        1.0,
    )
    fvt = _fvt(w, ["M"] * n + ["B"] * n)
    res = filter_calls(fvt, fvt.calls)
    assert [v.call for v in res.malware] == ["c0"]
    assert [v.call for v in res.benign] == ["c1"]
    assert [v.call for v in res.rejected] == ["c2"]
    assert res.malware[0].z > 1.96
    assert res.benign[0].z < -1.96
    assert res.malware[0].dominant == "M"
    assert res.benign[0].dominant == "B"


def test_filter_boundary_is_strict():
    rng = np.random.default_rng(3)
    w = np.clip(
        np.column_stack([np.r_[rng.normal(0.6, 0.1, 50), rng.normal(0.4, 0.1, 50)]]),
        0.0,
        1.0,
    )
    fvt = _fvt(w, ["M"] * 50 + ["B"] * 50)
    z = z_score(class_stats(fvt, ["c0"])[0])
    # pin the threshold exactly at |z|: strict comparison must reject
    at = filter_calls(fvt, ["c0"], z_crit=abs(z))
    assert [v.call for v in at.rejected] == ["c0"]
    below = filter_calls(fvt, ["c0"], z_crit=abs(z) * 0.999999)
    assert not below.rejected


def test_filter_candidates_validated():
    fvt = _fvt([[0.1], [0.9], [0.2], [0.8]], ["M", "M", "B", "B"])
    with pytest.raises(ConfigError, match="ghost"):
        filter_calls(fvt, ["ghost"])


def _z_by_call(result):
    return {v.call: v.z for v in result.malware + result.benign + result.rejected}


@pytest.mark.parametrize("seed", [3, 51, 7])
def test_relfreq_and_tfidf_give_one_z_where_idf_is_positive(seed, tmp_path):
    # With idf > 0, min-max of tf * idf is a positive affine map of a tf
    # column, which the variance form of z does not see. A call present in
    # every record has idf 0, so its tf-idf column is constant and z is None.
    corpus, _ = generate(default_spec(samples_per_class=40, vocabulary_size=60, seed=seed))
    tfidf, rel = build_fvt_and_relative_frequencies(corpus)
    z_tfidf = _z_by_call(filter_calls(tfidf, tfidf.calls))
    z_rel = _z_by_call(filter_calls(rel, rel.calls))
    records = written_rows(corpus, tmp_path / "records.jsonl")
    everywhere = {c for c in tfidf.calls if all(c in r["counts"] for r in records)}
    assert 0 < len(everywhere) < len(tfidf.calls)
    for call in tfidf.calls:
        if call in everywhere:
            assert z_tfidf[call] is None and z_rel[call] is not None, call
        else:
            assert z_tfidf[call] == pytest.approx(z_rel[call], rel=1e-9, abs=1e-12), call


def test_filter_partitions_candidates():
    rng = np.random.default_rng(5)
    w = np.clip(rng.normal(0.5, 0.2, size=(60, 8)), 0.0, 1.0)
    w[:30, 0] += 0.2  # push one call toward malware
    w = np.clip(w, 0.0, 1.0)
    fvt = _fvt(w, ["M"] * 30 + ["B"] * 30)
    res = filter_calls(fvt, fvt.calls)
    names = (
        [v.call for v in res.malware]
        + [v.call for v in res.benign]
        + [v.call for v in res.rejected]
    )
    assert sorted(names) == sorted(fvt.calls)


def test_list_ordering_by_z():
    rng = np.random.default_rng(9)
    n = 300
    cols = []
    # malware-shifted with growing effect, then benign-shifted with growing effect
    for shift in (0.1, 0.2, 0.3):
        cols.append(np.r_[rng.normal(0.4 + shift, 0.05, n), rng.normal(0.4, 0.05, n)])
    for shift in (0.1, 0.2):
        cols.append(np.r_[rng.normal(0.4, 0.05, n), rng.normal(0.4 + shift, 0.05, n)])
    w = np.clip(np.column_stack(cols), 0.0, 1.0)
    fvt = _fvt(w, ["M"] * n + ["B"] * n)
    res = filter_calls(fvt, fvt.calls)
    m_z = [v.z for v in res.malware]
    b_z = [v.z for v in res.benign]
    assert m_z == sorted(m_z, reverse=True)  # malware list: z descending
    assert b_z == sorted(b_z)  # benign list: most negative first
    assert [v.call for v in res.malware] == ["c2", "c1", "c0"]
    assert [v.call for v in res.benign] == ["c4", "c3"]


def test_eval_ranking_orders_all_candidates():
    rng = np.random.default_rng(21)
    n = 200
    w = np.clip(
        np.column_stack(
            [
                np.r_[rng.normal(0.7, 0.05, n), rng.normal(0.3, 0.05, n)],
                np.r_[rng.normal(0.35, 0.05, n), rng.normal(0.45, 0.05, n)],
                rng.normal(0.5, 0.05, 2 * n),
                np.full(2 * n, 0.25),
            ]
        ),
        0.0,
        1.0,
    )
    fvt = _fvt(w, ["M"] * n + ["B"] * n)
    res = filter_calls(fvt, fvt.calls)
    order = eval_ranking(res)
    assert sorted(order) == sorted(fvt.calls)
    assert order[0] == "c0"  # strongest survivor first
    assert order[-1] == "c3"  # degenerate column last
    # survivors precede every rejected call
    survivors = {v.call for v in res.malware} | {v.call for v in res.benign}
    cut = len(survivors)
    assert set(order[:cut]) == survivors


def test_z_antisymmetric_under_label_swap():
    rng = np.random.default_rng(17)
    w = np.clip(rng.normal(0.5, 0.15, size=(40, 1)), 0.0, 1.0)
    labels = ["M"] * 20 + ["B"] * 20
    swapped = ["B" if y == "M" else "M" for y in labels]
    z1 = z_score(class_stats(_fvt(w, labels), ["c0"])[0])
    z2 = z_score(class_stats(_fvt(w, swapped), ["c0"])[0])
    assert z1 == -z2  # exact, not approximate


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.05, max_value=3.0),
)
def test_z_invariant_under_positive_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0, size=(30, 1))
    labels = ["M"] * 15 + ["B"] * 15
    base = class_stats(_fvt(w, labels), ["c0"])[0]
    scaled = class_stats(_fvt(w * scale, labels), ["c0"])[0]
    try:
        z0 = z_score(base)
    except ConfigError:
        return
    assert z_score(scaled) == pytest.approx(z0, rel=1e-9)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_z_invariant_under_shift(seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0, size=(24, 1))
    labels = ["M"] * 12 + ["B"] * 12
    try:
        z0 = z_score(class_stats(_fvt(w, labels), ["c0"])[0])
    except ConfigError:
        return
    z1 = z_score(class_stats(_fvt(w + 5.0, labels), ["c0"])[0])
    assert z1 == pytest.approx(z0, rel=1e-9)
