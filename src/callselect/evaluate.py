"""Cross-validated evaluation of ranked feature lists.

The sweep trains the bagged-tree classifier on growing prefixes of a
feature ranking under stratified k-fold cross validation, reports the
confusion-derived metrics per length, and closes with average and
standard deviation rows across lengths. Cross validation yields one
out-of-fold malware score per row; every fold's confusion, the pooled
confusion and roc_auc are all derived from those scores.

paper_auc is the confusion-matrix expression 0.5*(TP/(TP+FP) +
TN/(TN+FP)), kept verbatim and named apart from roc_auc, the usual
rank-based probability that a malware sample outranks a benign one.
"""
from __future__ import annotations

import csv
import math
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .featurize import FeatureVectorTable, label_codes
# predict is unused here, but callbench/spans.py wraps evaluate.predict by name.
from .forest import (  # noqa: F401
    DEFAULT_MAX_DEPTH, DEFAULT_TREES, check_sizes, predict, predict_scores, train)

METRIC_NAMES = ("acc", "fpr", "paper_auc", "roc_auc", "f1")
DEFAULT_FOLDS = 10
DEFAULT_SEED = 42


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def as_dict(self) -> dict:
        return {"tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn}


@dataclass(frozen=True, kw_only=True)
class LengthResult:
    """The metrics of one ranking prefix. metrics() fills the confusion
    metrics; sweep also gives the length, roc_auc from the out-of-fold
    scores, each fold's confusion and the training time."""

    acc: float
    fpr: float
    paper_auc: float
    f1: float
    length: int = 0
    roc_auc: float = math.nan
    folds: tuple[ConfusionMatrix, ...] = ()
    train_seconds: float = 0.0

    def metric_dict(self) -> dict:
        return {m: getattr(self, m) for m in METRIC_NAMES}


def _ratio(num: float, den: float) -> float:
    return num / den if den != 0 else 0.0


def metrics(cm: ConfusionMatrix, **rest) -> LengthResult:
    """Confusion-matrix metrics with every 0/0 term defined as 0; rest gives
    the other LengthResult fields."""
    acc = _ratio(cm.tp + cm.tn, cm.total)
    fpr = _ratio(cm.fp, cm.fp + cm.tn)
    paper_auc = 0.5 * (_ratio(cm.tp, cm.tp + cm.fp) + _ratio(cm.tn, cm.tn + cm.fp))
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    return LengthResult(acc=acc, fpr=fpr, paper_auc=paper_auc, f1=f1, **rest)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts_group = np.r_[True, ordered[1:] != ordered[:-1]]
    starts = np.flatnonzero(starts_group)
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = ((starts + 1 + ends) / 2.0)[np.cumsum(starts_group) - 1]
    return ranks


def roc_auc(scores: Sequence[float], labels: Sequence[str]) -> float:
    """Probability a random malware score outranks a random benign one; ties count half."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size != len(labels):
        raise ConfigError("scores and labels must have equal length")
    y = label_codes(labels)
    n1 = int(y.sum())
    n0 = y.size - n1
    if n1 == 0 or n0 == 0:
        raise ConfigError("roc_auc needs both labels present")
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n1 * (n1 + 1) / 2.0) / (n1 * n0)


def _check_fold_count(k: int) -> None:
    if k < 2:
        raise ConfigError(f"fold count must be >= 2, got {k}")


def stratified_folds(labels: Sequence[str], k: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified split into k folds of test indices.

    Each class's shuffled indices are dealt out in k near-equal chunks, so
    per-fold class counts stay within one sample of n_class/k.
    """
    _check_fold_count(k)
    labels = list(labels)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in sorted(set(labels)):
        idx = np.array([i for i, lab in enumerate(labels) if lab == cls])
        if idx.size < k:
            raise ConfigError(
                f"class {cls} has {idx.size} samples, fewer than {k} folds"
            )
        rng.shuffle(idx)
        for fold, chunk in zip(folds, np.array_split(idx, k)):
            fold.extend(chunk.tolist())
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def _fold_seed(seed: int, length: int, fold: int) -> int:
    return int(np.random.SeedSequence((seed, length, fold)).generate_state(1)[0])


def _confusion(actual: np.ndarray, predicted: np.ndarray) -> ConfusionMatrix:
    """Counts from 0/1 label codes and boolean malware predictions."""
    tn, fp, fn, tp = np.bincount(2 * actual + predicted, minlength=4).tolist()
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[LengthResult, ...]
    average: dict[str, float]
    std_dev: dict[str, float]

    def to_json_dict(self) -> dict:
        # Timing is deliberately left out of the canonical report so reruns
        # with the same seed produce identical bytes.
        rows = [
            {"length": r.length, **r.metric_dict(), "folds": [cm.as_dict() for cm in r.folds]}
            for r in self.rows
        ]
        return {"rows": rows, "average": self.average, "std_dev": self.std_dev}

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["length", *METRIC_NAMES])
            for r in self.rows:
                writer.writerow([r.length] + [f"{r.metric_dict()[m]:.6f}" for m in METRIC_NAMES])
            writer.writerow(["average"] + [f"{self.average[m]:.6f}" for m in METRIC_NAMES])
            writer.writerow(["std_dev"] + [f"{self.std_dev[m]:.6f}" for m in METRIC_NAMES])


def check_sweep(
    ranking: Sequence[str], lengths: Sequence[int], folds: int, trees_count: int, max_depth: int
) -> None:
    """sweep's checks that need no table, so a caller can make them before
    it reads one: the ranking and lengths, the fold count and the forest
    sizes."""
    if not lengths:
        raise ConfigError("lengths must not be empty")
    if not all(isinstance(call, str) for call in ranking):
        raise ConfigError("ranking entries must be call names")
    for what, items in (("call", ranking), ("length", lengths)):
        repeated = [x for x, n in Counter(items).items() if n > 1]
        if repeated:
            raise ConfigError(f"repeated {what} {repeated[0]!r}; each may appear once")
    for length in lengths:
        if not 1 <= length <= len(ranking):
            raise ConfigError(
                f"requested {length} of {len(ranking)} ranked features"
            )
    _check_fold_count(folds)
    check_sizes(trees_count, max_depth)


def sweep(
    fvt: FeatureVectorTable,
    ranking: Sequence[str],
    lengths: Sequence[int],
    folds: int = DEFAULT_FOLDS,
    seed: int = DEFAULT_SEED,
    trees_count: int = DEFAULT_TREES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> EvalReport:
    """Evaluate ranking prefixes of the given lengths under k-fold CV."""
    ranking = list(ranking)
    check_sweep(ranking, lengths, folds, trees_count, max_depth)
    fold_indices = stratified_folds(fvt.labels, folds, seed)
    n = fvt.n_samples
    rows: list[LengthResult] = []
    for length in lengths:
        X = fvt.weights[:, [fvt.column_index(c) for c in ranking[:length]]]
        # Each fold's rows are scored by a model trained on all other rows,
        # giving one out-of-fold malware score per row.
        oof = np.zeros(n, dtype=np.float64)
        spent = 0.0
        for i, test_idx in enumerate(fold_indices):
            train_idx = np.delete(np.arange(n), test_idx)
            t0 = time.perf_counter()
            model = train(X[train_idx], fvt.y[train_idx], seed=_fold_seed(seed, length, i),
                          trees_count=trees_count, max_depth=max_depth)
            spent += time.perf_counter() - t0
            oof[test_idx] = predict_scores(model, X[test_idx])
        malware = oof > 0.5  # the rule predict uses
        rows.append(metrics(
            _confusion(fvt.y, malware),
            length=length,
            roc_auc=roc_auc(oof, fvt.labels),
            folds=tuple(_confusion(fvt.y[f], malware[f]) for f in fold_indices),
            train_seconds=spent,
        ))
    average = {
        m: float(np.mean([r.metric_dict()[m] for r in rows])) for m in METRIC_NAMES
    }
    std_dev = {
        m: float(np.std([r.metric_dict()[m] for r in rows])) for m in METRIC_NAMES
    }
    return EvalReport(rows=tuple(rows), average=average, std_dev=std_dev)
