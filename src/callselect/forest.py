"""Bagged decision trees with hard majority voting.

The forest takes label codes in and gives codes out: ``train`` reads
``y`` as 0/1 per row (1 = malware, 0 = benign, as in a table's ``y``) and
``predict`` returns int8 codes in the same encoding.

Each tree trains on a bootstrap resample and considers floor(sqrt(d))
randomly drawn features per split, picking the threshold with the best
Gini impurity decrease. Prediction is one vote per tree; an exact tie
goes to benign.

Trees grow level by level. A tree's bootstrap becomes per-row
multiplicities, and the live items of a level are (tree, row, weight)
triples tagged with the open node they sit in. One level then costs a
fixed number of numpy calls, whatever its node count: per drawn feature
slot, one argsort of (node, dense value rank) orders every node's items,
and cumulative sums give the Gini decrease at each boundary between two
distinct values. A slot wins only with a strictly greater decrease than
the slots before it, the decrease must be above 0, the lowest threshold
wins within a slot, and the threshold is the midpoint of the two values
(the lower value where the midpoint is not below the upper one).

Randomness is laid out so that growth order does not matter. The fit
seed spawns one bootstrap generator, drawn once per tree in tree order,
then one generator per depth. Each splittable node (impure, above
max_depth) at depth k takes the next row of d uniform keys from the
depth-k generator, in (tree, path) order, and considers the features of
its mtry smallest keys. A left-first depth-first builder meets the
depth-k nodes in that same order, so ``oracles.reference_forest``
replays every draw and must grow the same trees. To bound memory, the
trees of one fit grow in blocks of at most ``_TREE_ROW_SLOTS`` (tree,
row) pairs; the generators carry across blocks, so the block size never
shows in the result. A run is fully reproducible from (data, seed).

An ensemble is stored as flat node arrays shared by all its trees:
feature, threshold, left, right and label, indexed by node id, plus the
root id of each tree. Nodes stay in grow order: block by block, level by
level, (tree, path) within a level, so a split's children always come
after it. A row goes left when its value of the split feature is <= the
threshold. A leaf is its own left and right child, so a row that reaches
a leaf stays there; prediction therefore steps every (tree, row) pair
down at once, max_depth times, and reads the labels where they end up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DEFAULT_TREES = 100
DEFAULT_MAX_DEPTH = 16

# Most (tree, row) pairs grown at once, and most feature keys drawn at
# once; this sets the size of the working set.
_TREE_ROW_SLOTS = 1 << 15


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


class _Draws:
    """One fit's random streams: bootstrap rows per tree, feature keys per depth."""

    def __init__(self, seed: int, n: int, d: int) -> None:
        self._seq = np.random.SeedSequence(seed)
        self._boot = np.random.default_rng(self._seq.spawn(1)[0])
        self._depth: list[np.random.Generator] = []
        self.n, self.d = n, d

    def bootstrap(self, trees: int) -> np.ndarray:
        """The next trees' bootstraps, shape (trees, n): row indices drawn
        with replacement; one (trees, n) draw equals `trees` draws of n."""
        return self._boot.integers(0, self.n, size=(trees, self.n))

    def features(self, depth: int, nodes: int, mtry: int) -> np.ndarray:
        """Drawn columns of the next `nodes` nodes at this depth, shape (nodes, mtry).

        A node's columns are those of its mtry smallest keys, in key order,
        among a row of d uniform keys. Keys are drawn in chunks of rows,
        which leaves the stream as one (nodes, d) draw would.
        """
        while len(self._depth) <= depth:  # spawned in depth order, on first use
            self._depth.append(np.random.default_rng(self._seq.spawn(1)[0]))
        rng = self._depth[depth]
        drawn = np.empty((nodes, mtry), dtype=np.int32)
        chunk = max(1, _TREE_ROW_SLOTS // self.d)
        for first in range(0, nodes, chunk):
            keys = rng.random((min(chunk, nodes - first), self.d))
            drawn[first:first + chunk] = np.argsort(keys, axis=1, kind="stable")[:, :mtry]
        return drawn


def _mtry(d: int) -> int:
    return max(1, math.isqrt(d))


def check_sizes(trees_count: int, max_depth: int) -> None:
    """The forest sizes train accepts: at least one tree, depth at least 1."""
    if trees_count < 1:
        raise ConfigError(f"trees_count must be >= 1, got {trees_count}")
    if max_depth < 1:
        raise ConfigError(f"max_depth must be >= 1, got {max_depth}")


def _check_fit(X, y, trees_count: int, max_depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate train's inputs; return X as float64 and y as given."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ConfigError("X must be a 2-d matrix")
    if not np.isfinite(X).all():
        raise ConfigError("X must be finite")
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ConfigError(
            f"label codes must have shape ({X.shape[0]},), got {y.shape}"
        )
    check_sizes(trees_count, max_depth)
    if set(np.unique(y).tolist()) != {0, 1}:
        raise ConfigError("label codes must be 0 and 1, with both present")
    return X, y


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Per column, each value's rank among the column's distinct values."""
    order = np.argsort(X, axis=0, kind="stable")
    ordered = np.take_along_axis(X, order, axis=0)
    steps = np.zeros(X.shape, dtype=np.int32)
    steps[1:] = ordered[1:] != ordered[:-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=0, dtype=np.int32), axis=0)
    return ranks


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal ids begins."""
    first = np.empty(ids.size, dtype=bool)
    first[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    return first


def _slot_cuts(X, ranks, seg, row, w, wy, W, M, slot):
    """Each open node's best cut on its column slot[node].

    Returns (node, decrease, threshold) for the nodes whose column is not
    constant on them, in node order. Among equal decreases the lowest
    threshold wins.
    """
    n = X.shape[0]
    rank = ranks[row, slot[seg]]
    order = seg.astype(np.int64)
    order *= n  # ranks are below n
    order += rank
    order = np.argsort(order)
    s_seg, rank = seg[order], rank[order]
    cut = np.flatnonzero((s_seg[1:] == s_seg[:-1]) & (rank[1:] != rank[:-1]))
    node = s_seg[cut]
    del s_seg, rank  # freed before the per-cut arrays, where memory peaks
    if cut.size == 0:  # the column is constant on every node
        return node, np.zeros(0), np.zeros(0)
    wl = np.cumsum(w[order])[cut] - (np.cumsum(W) - W)[node]
    ml = np.cumsum(wy[order])[cut] - (np.cumsum(M) - M)[node]
    # Formed in place to keep the per-cut working set small.
    decrease = wl * _gini(ml / wl)
    wr = np.subtract(W[node], wl, out=wl)
    mr = np.subtract(M[node], ml, out=ml)
    decrease += wr * _gini(mr / wr)
    decrease /= W[node]
    np.subtract(_gini(M / W)[node], decrease, out=decrease)
    # Cuts are grouped by node in ascending threshold order: keep the
    # first cut reaching its node's maximum.
    first = _run_starts(node)
    peak = np.maximum.reduceat(decrease, np.flatnonzero(first))
    hit = np.flatnonzero(decrease == peak[np.cumsum(first) - 1])
    hit = hit[_run_starts(node[hit])]
    lo = X[row[order[cut[hit]]], slot[node[hit]]]
    hi = X[row[order[cut[hit] + 1]], slot[node[hit]]]
    # The midpoint of adjacent doubles rounds up to hi, and that of huge
    # values overflows; lo then keeps lo <= threshold < hi.
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    return node[hit], decrease[hit], np.where((lo <= mid) & (mid < hi), mid, lo)


def _best_splits(X, ranks, seg, row, w, wy, W, M, features):
    """Best (feature, threshold) per open node over its drawn features.

    seg numbers each item's open node 0..P-1; W and M are each node's
    weight and malware weight, and features its (P, mtry) drawn columns.
    A slot replaces the best so far only with a strictly greater
    decrease, and the decrease must be above 0; feature -1 means no split.
    """
    best = np.zeros(W.size)
    best_feature = np.full(W.size, -1, dtype=np.intp)
    best_threshold = np.zeros(W.size)
    for slot in features.T:
        node, decrease, threshold = _slot_cuts(X, ranks, seg, row, w, wy, W, M, slot)
        won = decrease > best[node]
        node = node[won]
        best[node] = decrease[won]
        best_feature[node] = slot[node]
        best_threshold[node] = threshold[won]
    return best_feature, best_threshold


def _grow_block(X, ranks, y, trees, mtry, max_depth, draws):
    """Grow the next `trees` trees level by level; node arrays in grow order."""
    n = X.shape[0]
    boots = draws.bootstrap(trees)
    boots += np.arange(0, trees * n, n)[:, None]
    counts = np.bincount(boots.ravel(), minlength=trees * n).reshape(trees, n)
    seg, row = (a.astype(np.int32) for a in np.nonzero(counts))  # seg = tree
    w = counts[seg, row].astype(np.int32)
    del boots, counts
    S = trees  # nodes at this depth, in (tree, path) order
    levels = []  # (feature, threshold, label, split) per node, per depth
    for depth in range(max_depth + 1):
        wy = w * y[row]
        W = np.bincount(seg, weights=w, minlength=S)
        M = np.bincount(seg, weights=wy, minlength=S)
        feature = np.zeros(S, dtype=np.intp)
        threshold = np.zeros(S)
        split = np.zeros(S, dtype=bool)
        open_ = (M > 0) & (M < W) & (depth < max_depth)
        P = int(open_.sum())
        if P:
            opened = np.flatnonzero(open_)
            keep = open_[seg]
            seg = (np.cumsum(open_, dtype=np.int32) - 1)[seg[keep]]
            row, w, wy = row[keep], w[keep], wy[keep]
            f, t = _best_splits(X, ranks, seg, row, w, wy, W[opened], M[opened],
                                draws.features(depth, P, mtry))
            splits = f >= 0
            feature[opened[splits]] = f[splits]
            threshold[opened[splits]] = t[splits]
            split[opened] = splits
            # Children of the k-th splitting node are 2k (left) and 2k + 1.
            child = 2 * np.cumsum(splits, dtype=np.int32) - 2
            keep = splits[seg]
            seg, row, w = seg[keep], row[keep], w[keep]
            seg = child[seg] + (X[row, f[seg]] > t[seg])
        label = ((2 * M > W) & ~split).astype(np.int8)  # ties go to benign
        levels.append((feature, threshold, label, split))
        S = 2 * int(split.sum())
        if not S:
            break
    feature, threshold, label, split = (np.concatenate(c) for c in zip(*levels))
    # Each level holds the children of the level before it in pairs, so the
    # non-root nodes are the child pairs of the splits in order.
    ids = np.arange(label.size)
    left, right = ids.copy(), ids.copy()
    left[split], right[split] = ids[trees::2], ids[trees + 1::2]
    return feature, threshold, left, right, label, ids[:trees]


def train(
    X: np.ndarray,
    y: np.ndarray,
    seed: int,
    trees_count: int = DEFAULT_TREES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> TreeEnsemble:
    """Fit trees_count trees to rows X with 0/1 label codes y."""
    X, y = _check_fit(X, y, trees_count, max_depth)
    n, d = X.shape
    ranks = _dense_ranks(X)
    draws = _Draws(seed, n, d)
    blocks = -(-trees_count * n // _TREE_ROW_SLOTS)
    per_block = -(-trees_count // blocks)
    parts = []
    offset = 0
    for first in range(0, trees_count, per_block):
        feature, threshold, left, right, label, roots = _grow_block(
            X, ranks, y, min(per_block, trees_count - first), _mtry(d), max_depth, draws
        )
        parts.append((feature, threshold, left + offset, right + offset, label, roots + offset))
        offset += label.size
    feature, threshold, left, right, label, roots = (np.concatenate(c) for c in zip(*parts))
    return TreeEnsemble(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        label=label,
        roots=roots,
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
