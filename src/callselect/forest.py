"""Bagged decision trees with hard majority voting.

The forest takes label codes in and gives codes out: ``train`` reads
``y`` as 0/1 per row (1 = malware, 0 = benign, as in a table's ``y``) and
``predict`` returns int8 codes in the same encoding.

Each tree trains on a bootstrap resample and considers floor(sqrt(d))
randomly drawn features per split, picking the threshold with the best
Gini impurity decrease. Prediction is one vote per tree; an exact tie
goes to benign. Per-tree randomness comes from spawning the master seed,
so a run is fully reproducible from (data, seed).

An ensemble is stored as flat node arrays shared by all its trees:
feature, threshold, left, right and label, indexed by node id, plus the
root id of each tree. Trees are laid out depth first, so a split's
children always come after it. A row goes left when its value of the
split feature is <= the threshold. A leaf is its own left and right
child, so a row that reaches a leaf stays there; prediction therefore
steps every (tree, row) pair down at once, max_depth times, and reads the
labels where they end up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DEFAULT_TREES = 100
DEFAULT_MAX_DEPTH = 16


@dataclass(frozen=True)
class TreeEnsemble:
    feature: np.ndarray  # split column per node (0 at leaves)
    threshold: np.ndarray  # go left when value <= threshold (0.0 at leaves)
    left: np.ndarray  # child node ids; a leaf points to itself
    right: np.ndarray
    label: np.ndarray  # leaf vote, 0 = B, 1 = M (0 at splits)
    roots: np.ndarray  # root node id per tree
    n_features: int
    trees_count: int
    max_depth: int


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
           max_depth: int, mtry: int, rng: np.random.Generator,
           nodes: list[tuple]) -> int:
    """Append the subtree over rows idx to nodes, depth first; return its root id."""
    n = idx.size
    ones = int(y[idx].sum())
    node = len(nodes)
    nodes.append((0, 0.0, node, node, _majority(ones, n)))  # a leaf unless split below
    if ones == 0 or ones == n or depth >= max_depth:
        return node
    features = rng.choice(X.shape[1], size=mtry, replace=False)
    decrease, feature, threshold = _best_split(X, y, idx, features)
    if feature < 0 or decrease <= 0.0:
        return node
    mask = X[idx, feature] <= threshold
    left = _build(X, y, idx[mask], depth + 1, max_depth, mtry, rng, nodes)
    right = _build(X, y, idx[~mask], depth + 1, max_depth, mtry, rng, nodes)
    nodes[node] = (feature, threshold, left, right, 0)
    return node


def train(
    X: np.ndarray,
    y: np.ndarray,
    seed: int,
    trees_count: int = DEFAULT_TREES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> TreeEnsemble:
    """Fit trees_count trees to rows X with 0/1 label codes y."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ConfigError("X must be a 2-d matrix")
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ConfigError(
            f"label codes must have shape ({X.shape[0]},), got {y.shape}"
        )
    if trees_count < 1:
        raise ConfigError(f"trees_count must be >= 1, got {trees_count}")
    if max_depth < 1:
        raise ConfigError(f"max_depth must be >= 1, got {max_depth}")
    if set(np.unique(y).tolist()) != {0, 1}:
        raise ConfigError("label codes must be 0 and 1, with both present")
    n, d = X.shape
    mtry = max(1, math.isqrt(d))
    nodes: list[tuple] = []
    roots = []
    for child_seed in np.random.SeedSequence(seed).spawn(trees_count):
        rng = np.random.default_rng(child_seed)
        boot = rng.integers(0, n, size=n)
        roots.append(_build(X, y, boot, 0, max_depth, mtry, rng, nodes))
    feature, threshold, left, right, label = (np.array(col) for col in zip(*nodes))
    return TreeEnsemble(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        label=label,
        roots=np.array(roots),
        n_features=d,
        trees_count=trees_count,
        max_depth=max_depth,
    )


def predict_scores(model: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    """Fraction of trees voting malware, per row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ConfigError(
            f"feature arity mismatch: model expects {model.n_features}, "
            f"got {X.shape[1] if X.ndim == 2 else 'non-matrix input'}"
        )
    rows = np.arange(X.shape[0])
    node = np.broadcast_to(model.roots[:, None], (model.roots.size, rows.size))
    for _ in range(model.max_depth):  # no tree is deeper than max_depth
        go_left = X[rows, model.feature[node]] <= model.threshold[node]
        node = np.where(go_left, model.left[node], model.right[node])
    return model.label[node].sum(axis=0) / model.trees_count


def predict(model: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    """Majority vote per row as int8 codes, 1 = malware; an exact tie gives 0."""
    return (predict_scores(model, X) > 0.5).astype(np.int8)
