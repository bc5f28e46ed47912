"""Bagged decision trees with hard majority voting.

Each tree trains on a bootstrap resample and considers floor(sqrt(d))
randomly drawn features per split, picking the threshold with the best
Gini impurity decrease. Prediction is one vote per tree; an exact tie
goes to benign. Per-tree randomness comes from spawning the master seed,
so a run is fully reproducible from (data, seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError
from .featurize import label_codes

DEFAULT_TREES = 100
DEFAULT_MAX_DEPTH = 16


@dataclass(frozen=True)
class Leaf:
    label: int  # 0 = B, 1 = M


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    left: "Node"
    right: "Node"


Node = Union[Leaf, Split]


@dataclass(frozen=True)
class TreeEnsemble:
    trees: tuple[Node, ...]
    n_features: int
    trees_count: int
    max_depth: int
    features_per_split: int
    seed: int


def _gini(p1: np.ndarray) -> np.ndarray:
    return 1.0 - p1 ** 2 - (1.0 - p1) ** 2


def _majority(ones: int, total: int) -> int:
    # Ties go to benign, matching the ensemble vote rule.
    return 1 if 2 * ones > total else 0


def _best_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray, features: np.ndarray):
    n = idx.size
    ones_total = int(y[idx].sum())
    parent = float(_gini(np.array(ones_total / n)))
    best = (0.0, -1, 0.0)  # (decrease, feature, threshold)
    sizes_left = np.arange(1, n, dtype=np.float64)
    sizes_right = n - sizes_left
    for f in features:
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        if sv[0] == sv[-1]:
            continue
        sy = y[idx][order]
        ones_left = np.cumsum(sy)[:-1].astype(np.float64)
        p_left = ones_left / sizes_left
        p_right = (ones_total - ones_left) / sizes_right
        child = (sizes_left * _gini(p_left) + sizes_right * _gini(p_right)) / n
        decrease = parent - child
        decrease[sv[:-1] == sv[1:]] = -np.inf  # cannot split between equal values
        pos = int(np.argmax(decrease))
        if decrease[pos] > best[0]:
            threshold = (float(sv[pos]) + float(sv[pos + 1])) / 2.0
            best = (float(decrease[pos]), int(f), threshold)
    return best


def _build(X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int,
           max_depth: int, mtry: int, rng: np.random.Generator) -> Node:
    n = idx.size
    ones = int(y[idx].sum())
    if ones == 0:
        return Leaf(0)
    if ones == n:
        return Leaf(1)
    if depth >= max_depth or n < 2:
        return Leaf(_majority(ones, n))
    features = rng.choice(X.shape[1], size=mtry, replace=False)
    decrease, feature, threshold = _best_split(X, y, idx, features)
    if feature < 0 or decrease <= 0.0:
        return Leaf(_majority(ones, n))
    mask = X[idx, feature] <= threshold
    left = _build(X, y, idx[mask], depth + 1, max_depth, mtry, rng)
    right = _build(X, y, idx[~mask], depth + 1, max_depth, mtry, rng)
    return Split(feature=feature, threshold=threshold, left=left, right=right)


def train(
    X: np.ndarray,
    labels: Sequence[str],
    seed: int,
    trees_count: int = DEFAULT_TREES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> TreeEnsemble:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ConfigError("X must be a 2-d matrix")
    if X.shape[0] != len(labels):
        raise ConfigError(
            f"row count {X.shape[0]} does not match label count {len(labels)}"
        )
    if trees_count < 1:
        raise ConfigError(f"trees_count must be >= 1, got {trees_count}")
    if max_depth < 1:
        raise ConfigError(f"max_depth must be >= 1, got {max_depth}")
    y = label_codes(labels)
    if len(np.unique(y)) < 2:
        raise ConfigError("training data must contain both labels")
    n, d = X.shape
    mtry = max(1, math.isqrt(d))
    trees = []
    for child_seed in np.random.SeedSequence(seed).spawn(trees_count):
        rng = np.random.default_rng(child_seed)
        boot = rng.integers(0, n, size=n)
        trees.append(_build(X, y, boot, 0, max_depth, mtry, rng))
    return TreeEnsemble(
        trees=tuple(trees),
        n_features=d,
        trees_count=trees_count,
        max_depth=max_depth,
        features_per_split=mtry,
        seed=seed,
    )


def _tree_predict(node: Node, X: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    if rows.size == 0:
        return
    if isinstance(node, Leaf):
        out[rows] = node.label
        return
    mask = X[rows, node.feature] <= node.threshold
    _tree_predict(node.left, X, rows[mask], out)
    _tree_predict(node.right, X, rows[~mask], out)


def predict_scores(model: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    """Fraction of trees voting malware, per row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ConfigError(
            f"feature arity mismatch: model expects {model.n_features}, "
            f"got {X.shape[1] if X.ndim == 2 else 'non-matrix input'}"
        )
    votes = np.zeros(X.shape[0], dtype=np.float64)
    rows = np.arange(X.shape[0])
    scratch = np.zeros(X.shape[0], dtype=np.int64)
    for tree in model.trees:
        scratch[:] = 0
        _tree_predict(tree, X, rows, scratch)
        votes += scratch
    return votes / model.trees_count


def predict(model: TreeEnsemble, X: np.ndarray) -> list[str]:
    """Majority vote per row; an exact tie returns benign."""
    scores = predict_scores(model, X)
    return ["M" if s > 0.5 else "B" for s in scores]
