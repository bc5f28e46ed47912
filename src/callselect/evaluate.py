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
    metrics; sweep_folds also gives the length, roc_auc from the
    out-of-fold scores and each fold's confusion."""

    acc: float
    fpr: float
    paper_auc: float
    f1: float
    length: int = 0
    roc_auc: float = math.nan
    folds: tuple[ConfusionMatrix, ...] = ()

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


def roc_auc(scores: Sequence[float], labels: Sequence[str]) -> float:
    """Probability a random malware score outranks a random benign one; ties
    count half. U (Mann-Whitney) is counted per distinct score: each malware
    score beats the benign below it and half those tied, exact in float64."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size != len(labels):
        raise ConfigError("scores and labels must have equal length")
    if not np.isfinite(scores).all():
        raise ConfigError("scores must be finite")
    y = label_codes(labels)
    n1 = int(y.sum())
    n0 = y.size - n1
    if n1 == 0 or n0 == 0:
        raise ConfigError("roc_auc needs both labels present")
    distinct, level = np.unique(scores, return_inverse=True)
    benign, malware = np.bincount(2 * level + y, minlength=2 * distinct.size).reshape(-1, 2).T
    return float(malware @ (np.cumsum(benign) - benign / 2)) / (n1 * n0)


def _check_fold_count(k: int) -> None:
    if k < 2:
        raise ConfigError(f"fold count must be >= 2, got {k}")


def stratified_folds(labels: Sequence[str], k: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified split into k folds of test indices.

    Each class's shuffled indices are dealt out in k near-equal chunks, so
    per-fold class counts stay within one sample of n_class/k.
    """
    _check_fold_count(k)
    if seed < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"seed must be >= 0, got {seed}")
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


def sweep_folds(
    fvt: FeatureVectorTable,
    rankings: Sequence[Sequence[str]],
    lengths: Sequence[int],
    seed: int = DEFAULT_SEED,
    trees_count: int = DEFAULT_TREES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[tuple[LengthResult, np.ndarray]]:
    """Cross-validate ranking prefixes with one ranking per fold: the folds
    are stratified_folds(fvt.labels, len(rankings), seed), and fold i's
    model at each length trains on the first length calls of rankings[i].
    Per length, its LengthResult and the out-of-fold malware score of
    every row. Each (length, fold) fit is seeded by _fold_seed alone and
    reads no other fit, so forked.map_jobs may share the fits between two
    processes without changing any result."""
    for ranking in rankings:
        check_sweep(ranking, lengths, len(rankings), trees_count, max_depth)
    fold_indices = stratified_folds(fvt.labels, len(rankings), seed)
    n, k = fvt.n_samples, len(fold_indices)

    def fit(job: int) -> np.ndarray:
        # Fold i's rows are scored by a model trained on all other rows.
        length, i = lengths[job // k], job % k
        X = fvt.weights[:, [fvt.column_index(c) for c in rankings[i][:length]]]
        test_idx = fold_indices[i]
        train_idx = np.delete(np.arange(n), test_idx)
        model = train(X[train_idx], fvt.y[train_idx], seed=_fold_seed(seed, length, i),
                      trees_count=trees_count, max_depth=max_depth)
        return predict_scores(model, X[test_idx])

    from .forked import map_jobs

    scores = map_jobs(fit, len(lengths) * k)
    results = []
    for start, length in zip(range(0, len(scores), k), lengths):
        oof = np.zeros(n, dtype=np.float64)
        for test_idx, fold_scores in zip(fold_indices, scores[start:start + k]):
            oof[test_idx] = fold_scores
        malware = oof > 0.5  # the rule predict uses
        results.append((metrics(
            _confusion(fvt.y, malware),
            length=length,
            roc_auc=roc_auc(oof, fvt.labels),
            folds=tuple(_confusion(fvt.y[f], malware[f]) for f in fold_indices),
        ), oof))
    return results


def sweep(
    fvt: FeatureVectorTable,
    ranking: Sequence[str],
    lengths: Sequence[int],
    folds: int = DEFAULT_FOLDS,
    seed: int = DEFAULT_SEED,
    trees_count: int = DEFAULT_TREES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> EvalReport:
    """Evaluate ranking prefixes of the given lengths under k-fold CV:
    sweep_folds with the same ranking for every fold."""
    ranking = list(ranking)
    check_sweep(ranking, lengths, folds, trees_count, max_depth)
    rows = [row for row, _ in sweep_folds(fvt, [ranking] * folds, lengths, seed,
                                          trees_count, max_depth)]
    average = {
        m: float(np.mean([r.metric_dict()[m] for r in rows])) for m in METRIC_NAMES
    }
    std_dev = {
        m: float(np.std([r.metric_dict()[m] for r in rows])) for m in METRIC_NAMES
    }
    return EvalReport(rows=tuple(rows), average=average, std_dev=std_dev)
