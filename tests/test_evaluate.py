"""Evaluation harness: folds, the bagged-tree classifier, metrics, sweeps."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from callselect import (
    ConfigError,
    ConfusionMatrix,
    FeatureVectorTable,
    metrics,
    pairwise_roc_auc,
    predict,
    predict_scores,
    roc_auc,
    stratified_folds,
    sweep,
    sweep_folds,
    train,
)
from callselect.evaluate import _confusion, _fold_seed
from callselect.forest import TreeEnsemble


def _fvt(weights, labels, calls=None):
    w = np.asarray(weights, dtype=np.float64)
    calls = tuple(calls or (f"c{j}" for j in range(w.shape[1])))
    return FeatureVectorTable(
        sample_ids=tuple(f"s{i}" for i in range(w.shape[0])),
        calls=calls,
        weights=w,
        labels=tuple(labels),
    )


def _separable(n_per_class, noise=0.05, seed=4, extra_noise_cols=1):
    rng = np.random.default_rng(seed)
    good = np.r_[
        rng.normal(0.8, noise, n_per_class), rng.normal(0.2, noise, n_per_class)
    ]
    cols = [good] + [rng.uniform(0, 1, 2 * n_per_class) for _ in range(extra_noise_cols)]
    w = np.clip(np.column_stack(cols), 0.0, 1.0)
    return _fvt(w, ["M"] * n_per_class + ["B"] * n_per_class)


# ---- stratified folds ----


def test_folds_keep_class_proportions():
    labels = ["M"] * 35 + ["B"] * 15
    folds = stratified_folds(labels, k=5, seed=0)
    assert len(folds) == 5
    for f in folds:
        ys = [labels[i] for i in f]
        assert ys.count("M") == 7
        assert ys.count("B") == 3


def test_folds_partition_everything():
    labels = ["M"] * 20 + ["B"] * 20
    folds = stratified_folds(labels, k=10, seed=1)
    seen = sorted(i for f in folds for i in f)
    assert seen == list(range(40))
    assert all(len(f) == 4 for f in folds)


def test_folds_uneven_within_one():
    labels = ["M"] * 13 + ["B"] * 9
    folds = stratified_folds(labels, k=4, seed=2)
    m_sizes = sorted(sum(1 for i in f if labels[i] == "M") for f in folds)
    b_sizes = sorted(sum(1 for i in f if labels[i] == "B") for f in folds)
    assert max(m_sizes) - min(m_sizes) <= 1
    assert max(b_sizes) - min(b_sizes) <= 1


def test_folds_class_smaller_than_k():
    labels = ["M"] * 12 + ["B"] * 3
    with pytest.raises(ConfigError, match="B"):
        stratified_folds(labels, k=5, seed=0)


def test_folds_k_bounds():
    with pytest.raises(ConfigError):
        stratified_folds(["M", "B"], k=1, seed=0)


def test_folds_refuse_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        stratified_folds(["M", "B"] * 2, k=2, seed=-1)


def test_folds_deterministic_per_seed():
    labels = ["M"] * 12 + ["B"] * 12
    a = stratified_folds(labels, k=4, seed=7)
    b = stratified_folds(labels, k=4, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = stratified_folds(labels, k=4, seed=8)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


# ---- forest ----


def test_train_learns_separable_data():
    fvt = _separable(40)
    model = train(fvt.weights, fvt.y, seed=0, trees_count=20, max_depth=8)
    got = predict(model, fvt.weights)
    assert got.dtype == np.int8
    agree = int((got == fvt.y).sum())
    assert agree >= 78  # 97.5 percent training accuracy on clean data


def test_train_deterministic():
    fvt = _separable(30, extra_noise_cols=3)
    a = train(fvt.weights, fvt.y, seed=5, trees_count=15)
    b = train(fvt.weights, fvt.y, seed=5, trees_count=15)
    X = fvt.weights
    assert predict_scores(a, X).tolist() == predict_scores(b, X).tolist()
    c = train(fvt.weights, fvt.y, seed=6, trees_count=15)
    assert predict_scores(a, X).tolist() != predict_scores(c, X).tolist()


def test_predict_tie_goes_benign():
    # two one-leaf trees: node 0 votes M, node 1 votes B
    model = TreeEnsemble(
        feature=np.array([0, 0]),
        threshold=np.array([0.0, 0.0]),
        left=np.array([0, 1]),
        right=np.array([0, 1]),
        label=np.array([1, 0]),
        roots=np.array([0, 1]),
        n_features=2,
        trees_count=2,
        max_depth=1,
    )
    X = np.array([[0.4, 0.6]])
    assert predict_scores(model, X).tolist() == [0.5]
    assert predict(model, X).tolist() == [0]


def _walk(model, row):
    """Reference descent of one row through every tree; returns (score, longest path)."""
    votes, longest = 0, 0
    for node in model.roots:
        steps = 0
        while model.left[node] != node:
            go_left = row[model.feature[node]] <= model.threshold[node]
            node = model.left[node] if go_left else model.right[node]
            steps += 1
        votes += model.label[node]
        longest = max(longest, steps)
    return votes / model.trees_count, longest


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30)
def test_predict_scores_match_per_row_walk(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(6, 40)), int(rng.integers(1, 6))
    X = rng.uniform(0, 1, (n, d))
    if rng.integers(0, 2):
        X = np.round(X, 1)  # tied values between rows
    y = rng.integers(0, 2, n).astype(np.int8)
    y[:2] = [1, 0]
    model = train(X, y, seed=seed, trees_count=int(rng.integers(1, 8)),
                  max_depth=int(rng.integers(1, 7)))

    ids = np.arange(model.label.size)
    leaf = model.left == ids
    assert (model.right[leaf] == ids[leaf]).all()  # leaves loop on themselves
    assert (model.left[~leaf] > ids[~leaf]).all()  # children come after their split
    assert (model.right[~leaf] > ids[~leaf]).all()
    assert set(model.label[leaf].tolist()) <= {0, 1}
    assert ((model.feature >= 0) & (model.feature < d)).all()

    # training rows, fresh rows, and one row sitting exactly on each split's threshold
    probes = [X, rng.uniform(0, 1, (5, d))]
    for f, t in zip(model.feature[~leaf], model.threshold[~leaf]):
        row = rng.uniform(0, 1, (1, d))
        row[0, f] = t
        probes.append(row)
    P = np.vstack(probes)
    for row, score in zip(P, predict_scores(model, P)):
        want, longest = _walk(model, row)
        assert score == want
        assert longest <= model.max_depth


def test_train_input_validation():
    X = np.zeros((4, 2))
    with pytest.raises(ConfigError):
        train(X, np.array([1, 1, 1, 1]), seed=0)  # one class only
    with pytest.raises(ConfigError):
        train(X, np.array([1, 0]), seed=0)  # label count mismatch
    with pytest.raises(ConfigError):
        train(np.zeros(4), np.array([1, 0, 1, 0]), seed=0)  # not a matrix
    with pytest.raises(ConfigError):
        train(X, np.array([[1, 0, 1, 0]]), seed=0)  # codes not one per row
    with pytest.raises(ConfigError):
        train(X, np.array([1, 0, 2, 0]), seed=0)  # a code other than 0 or 1
    with pytest.raises(ConfigError):
        train(X, ["M", "B", "M", "B"], seed=0)  # strings, not codes


def test_predict_arity_checked():
    fvt = _separable(10)
    model = train(fvt.weights, fvt.y, seed=0, trees_count=3)
    with pytest.raises(ConfigError):
        predict(model, np.zeros((2, 5)))


def test_forest_stable_under_duplicated_rows():
    # duplicating the corpus must not flip clean-region predictions
    fvt = _separable(25, noise=0.03)
    X2 = np.vstack([fvt.weights, fvt.weights])
    y2 = np.concatenate([fvt.y, fvt.y])
    model = train(X2, y2, seed=3, trees_count=50, max_depth=8)
    probe = np.array([[0.8, 0.5], [0.2, 0.5]])
    assert predict(model, probe).tolist() == [1, 0]


# ---- metrics ----


def test_metrics_worked_matrix():
    m = metrics(ConfusionMatrix(tp=50, tn=40, fp=10, fn=0))
    assert m.acc == pytest.approx(0.9, abs=1e-12)
    assert m.fpr == pytest.approx(0.2, abs=1e-12)
    assert m.paper_auc == pytest.approx(49 / 60, rel=1e-12)
    assert m.f1 == pytest.approx(10 / 11, rel=1e-12)
    # five-decimal prints used in reports
    assert round(m.paper_auc, 5) == 0.81667
    assert round(m.f1, 5) == 0.90909


def test_metrics_empty_and_degenerate():
    z = metrics(ConfusionMatrix(tp=0, tn=0, fp=0, fn=0))
    assert (z.acc, z.fpr, z.paper_auc, z.f1) == (0.0, 0.0, 0.0, 0.0)
    no_neg = metrics(ConfusionMatrix(tp=5, tn=0, fp=0, fn=0))
    assert no_neg.fpr == 0.0  # 0/0 reads as 0
    assert no_neg.acc == 1.0


def test_confusion_add_and_total():
    a = ConfusionMatrix(tp=1, tn=2, fp=3, fn=4)
    assert a.total == 10
    assert a.as_dict() == {"tp": 1, "tn": 2, "fp": 3, "fn": 4}


def test_confusion_counts_codes():
    actual = np.array([1, 1, 0, 0, 1, 0], dtype=np.int8)
    predicted = np.array([True, False, True, False, True, False])
    cm = _confusion(actual, predicted)
    assert cm.as_dict() == {"tp": 2, "tn": 2, "fp": 1, "fn": 1}
    assert all(type(v) is int for v in cm.as_dict().values())  # JSON-serializable


def test_roc_extremes():
    assert roc_auc([0.9, 0.8, 0.2, 0.1], ["M", "M", "B", "B"]) == 1.0
    assert roc_auc([0.1, 0.2, 0.8, 0.9], ["M", "M", "B", "B"]) == 0.0
    assert roc_auc([0.5, 0.5, 0.5, 0.5], ["M", "M", "B", "B"]) == 0.5


def test_roc_equals_pairwise_oracle_exactly_on_ties():
    # U is a sum of half-integers, so counting per distinct score must give
    # the pair count's bits, not merely a close value.
    rng = np.random.default_rng(25)
    levels = np.array([-0.0, 0.0, 1e-300, 0.1, 1 / 3, 0.5, 0.7, 1.0])
    for case in range(300):
        n = int(rng.integers(2, 120))
        if case % 3 == 0:
            scores = rng.choice(levels, n)
        elif case % 3 == 1:
            scores = rng.integers(0, 11, n) / 10
        else:
            scores = rng.uniform(0, 1, n)
        labels = ["M" if m else "B" for m in rng.integers(0, 2, n)]
        labels[0], labels[-1] = "M", "B"
        got = roc_auc(scores, labels)
        assert type(got) is float
        assert got == pairwise_roc_auc(scores.tolist(), labels), case


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_roc_refuses_non_finite_scores(bad):
    with pytest.raises(ConfigError, match="scores must be finite"):
        roc_auc([0.2, bad, 0.7, 0.1], ["M", "M", "B", "B"])


def test_roc_requires_both_classes():
    with pytest.raises(ConfigError):
        roc_auc([0.4, 0.6], ["M", "M"])


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_roc_matches_pairwise_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    scores = rng.uniform(0, 1, n)
    if rng.integers(0, 2):
        scores = np.round(scores, 1)  # force ties sometimes
    labels = ["M" if rng.integers(0, 2) else "B" for _ in range(n)]
    if "M" not in labels:
        labels[0] = "M"
    if "B" not in labels:
        labels[-1] = "B"
    fast = roc_auc(scores.tolist(), labels)
    slow = pairwise_roc_auc(scores.tolist(), labels)
    assert fast == pytest.approx(slow, abs=1e-12)


# ---- sweep ----


def test_sweep_separable_high_accuracy():
    fvt = _separable(50)
    rep = sweep(fvt, list(fvt.calls), lengths=[1, 2], folds=5, trees_count=20)
    assert [r.length for r in rep.rows] == [1, 2]
    assert rep.rows[0].acc >= 0.95
    assert rep.rows[0].roc_auc >= 0.98
    for row in rep.rows:
        assert sum(cm.total for cm in row.folds) == 100


def test_sweep_deterministic_json():
    fvt = _separable(20, extra_noise_cols=2)
    a = sweep(fvt, list(fvt.calls), lengths=[1, 3], folds=4, trees_count=10, seed=42)
    b = sweep(fvt, list(fvt.calls), lengths=[1, 3], folds=4, trees_count=10, seed=42)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )
    # timing stays out of the canonical form
    assert "train_seconds" not in json.dumps(a.to_json_dict())


def test_sweep_length_validation():
    fvt = _separable(10)
    with pytest.raises(ConfigError, match="requested 10 of 2"):
        sweep(fvt, list(fvt.calls), lengths=[10], folds=2, trees_count=2)
    with pytest.raises(ConfigError):
        sweep(fvt, list(fvt.calls), lengths=[0], folds=2, trees_count=2)


def test_sweep_ranking_must_exist_in_table():
    fvt = _separable(10)
    with pytest.raises(ConfigError):
        sweep(fvt, ["ghost"], lengths=[1], folds=2, trees_count=2)


def test_sweep_rejects_repeated_call():
    # a length-3 prefix of ["c0", "c0", "c0"] would train on one feature
    fvt = _separable(10)
    with pytest.raises(ConfigError, match="repeated call 'c0'"):
        sweep(fvt, ["c0", "c0", "c0"], lengths=[3], folds=2, trees_count=3)
    with pytest.raises(ConfigError, match="repeated call 'c0'"):
        sweep(fvt, ["c0", "c1", "c0"], lengths=[1], folds=2, trees_count=3)


def test_sweep_rejects_repeated_length():
    fvt = _separable(10)
    with pytest.raises(ConfigError, match="repeated length 1"):
        sweep(fvt, list(fvt.calls), lengths=[1, 2, 1], folds=2, trees_count=3)


@pytest.mark.parametrize("entry", [["c0"], 3, None])
def test_sweep_ranking_entries_are_names(entry):
    fvt = _separable(10)
    with pytest.raises(ConfigError, match="call names"):
        sweep(fvt, ["c1", entry], lengths=[1], folds=2, trees_count=3)


def test_sweep_averages_rows():
    fvt = _separable(25, extra_noise_cols=2)
    rep = sweep(fvt, list(fvt.calls), lengths=[1, 2, 3], folds=5, trees_count=10)
    d = rep.to_json_dict()
    accs = [row["acc"] for row in d["rows"]]
    assert d["average"]["acc"] == pytest.approx(float(np.mean(accs)), rel=1e-12)
    assert d["std_dev"]["acc"] == pytest.approx(float(np.std(accs)), rel=1e-12)


def test_report_csv_layout(tmp_path):
    fvt = _separable(15)
    rep = sweep(fvt, list(fvt.calls), lengths=[1, 2], folds=3, trees_count=5)
    p = tmp_path / "report.csv"
    rep.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "length,acc,fpr,paper_auc,roc_auc,f1"
    assert len(lines) == 5  # header, two rows, average, std_dev
    assert lines[3].startswith("average,")
    assert lines[4].startswith("std_dev,")


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15)
def test_sweep_folds_match_direct_training(seed):
    # every fold's confusion must be what the forest trained on the other folds
    # predicts for that fold, and every row's metrics those of the summed folds
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    n_m, n_b = int(rng.integers(k, 15)), int(rng.integers(k, 15))
    n, d = n_m + n_b, int(rng.integers(1, 5))
    X = np.round(rng.uniform(0, 1, (n, d)), 1)
    labels = ["M"] * n_m + ["B"] * n_b
    order = rng.permutation(n)
    fvt = _fvt(X[order], [labels[i] for i in order])
    ranking = [str(c) for c in rng.permutation(fvt.calls)]
    lengths = sorted({1, d})
    trees, depth = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    rep = sweep(fvt, ranking, lengths, folds=k, seed=seed, trees_count=trees, max_depth=depth)

    fold_indices = stratified_folds(fvt.labels, k, seed)
    y = np.array([lab == "M" for lab in fvt.labels], dtype=np.int8)
    assert [r.length for r in rep.rows] == lengths
    for row in rep.rows:
        Xl = np.column_stack([fvt.column(c) for c in ranking[:row.length]])
        assert len(row.folds) == k
        for i, test in enumerate(fold_indices):
            rest = np.setdiff1d(np.arange(n), test)
            model = train(Xl[rest], y[rest], seed=_fold_seed(seed, row.length, i),
                          trees_count=trees, max_depth=depth)
            got, want = predict(model, Xl[test]), y[test]
            assert row.folds[i].as_dict() == {
                "tp": int(((want == 1) & (got == 1)).sum()),
                "tn": int(((want == 0) & (got == 0)).sum()),
                "fp": int(((want == 0) & (got == 1)).sum()),
                "fn": int(((want == 1) & (got == 0)).sum()),
            }
        summed = ConfusionMatrix(
            **{key: sum(cm.as_dict()[key] for cm in row.folds) for key in ("tp", "tn", "fp", "fn")}
        )
        ms = metrics(summed)
        assert (row.acc, row.fpr, row.paper_auc, row.f1) == (ms.acc, ms.fpr, ms.paper_auc, ms.f1)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15)
def test_sweep_folds_with_a_ranking_per_fold_match_direct_training(seed):
    # fold i trains on the prefix of its own ranking; the out-of-fold
    # scores are predict_scores of those models, and each row is derived
    # from them
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    n_m, n_b = int(rng.integers(k, 15)), int(rng.integers(k, 15))
    n, d = n_m + n_b, int(rng.integers(2, 6))
    labels = ["M"] * n_m + ["B"] * n_b
    order = rng.permutation(n)
    fvt = _fvt(np.round(rng.uniform(0, 1, (n, d)), 1), [labels[i] for i in order])
    base = [str(c) for c in rng.permutation(fvt.calls)]
    rankings = [base[i % d:] + base[:i % d] for i in range(k)]  # folds 0 and 1 differ
    lengths = [int(x) for x in rng.permutation(np.arange(1, d + 1))[:int(rng.integers(1, d + 1))]]
    trees, depth = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    got = sweep_folds(fvt, rankings, lengths, seed=seed, trees_count=trees, max_depth=depth)

    fold_indices = stratified_folds(fvt.labels, k, seed)
    assert len(got) == len(lengths)
    for length, (row, oof) in zip(lengths, got):
        want = np.zeros(n)
        for i, test in enumerate(fold_indices):
            Xl = np.column_stack([fvt.column(c) for c in rankings[i][:length]])
            rest = np.setdiff1d(np.arange(n), test)
            model = train(Xl[rest], fvt.y[rest], seed=_fold_seed(seed, length, i),
                          trees_count=trees, max_depth=depth)
            want[test] = predict_scores(model, Xl[test])
        assert np.array_equal(oof, want)
        malware = want > 0.5
        assert row == metrics(
            _confusion(fvt.y, malware), length=length, roc_auc=roc_auc(want, fvt.labels),
            folds=tuple(_confusion(fvt.y[f], malware[f]) for f in fold_indices))


def test_sweep_folds_checks_every_fold_ranking():
    fvt = _separable(10, extra_noise_cols=2)
    calls = list(fvt.calls)
    with pytest.raises(ConfigError, match="requested 3 of 2 ranked features"):
        sweep_folds(fvt, [calls, calls[:2]], lengths=[3], trees_count=2)
    with pytest.raises(ConfigError, match="repeated call"):
        sweep_folds(fvt, [calls, [calls[0]] * 3], lengths=[1], trees_count=2)
    with pytest.raises(ConfigError, match="fold count must be >= 2"):
        sweep_folds(fvt, [calls], lengths=[1], trees_count=2)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25)
def test_fold_assembly_counts_every_sample(seed):
    rng = np.random.default_rng(seed)
    n_m = int(rng.integers(4, 30))
    n_b = int(rng.integers(4, 30))
    k = int(rng.integers(2, min(n_m, n_b) + 1))
    labels = ["M"] * n_m + ["B"] * n_b
    folds = stratified_folds(labels, k=k, seed=seed)
    seen = sorted(i for f in folds for i in f)
    assert seen == list(range(n_m + n_b))
