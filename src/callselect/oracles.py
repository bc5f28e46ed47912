"""Brute-force reference implementations used to cross-check the fast paths.

These deliberately take the slow, literal route: the positive region via
pairwise comparison of every sample pair, the best reduct via full subset
enumeration, roc_auc via explicit pair counting, the forest by growing
each tree depth first, one node at a time, term frequencies one count
at a time, min-max weights into a fresh matrix, and each trace line one
test at a time. They exist so the production implementations can be
verified against an independent formulation, and they refuse inputs
large enough to make that painful.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .featurize import DecisionTable
from .forest import TreeEnsemble, _check_fit, _Draws, _gini, _mtry
from .ingest import TraceLine

EXHAUSTIVE_ATTR_LIMIT = 15
REFERENCE_FOREST_LIMIT = 20_000  # trees x rows


def naive_positive_region(table: DecisionTable, attrs: Iterable[str]) -> frozenset[int]:
    """A sample is positive iff no differently labeled sample matches it on attrs."""
    cols = [table.column_index(name) for name in sorted(set(attrs))]
    rows = [tuple(int(table.bins[i, j]) for j in cols) for i in range(table.n_samples)]
    pos = set()
    for i in range(table.n_samples):
        clash = any(
            rows[i] == rows[j] and table.labels[i] != table.labels[j]
            for j in range(table.n_samples)
        )
        if not clash:
            pos.add(i)
    return frozenset(pos)


@dataclass(frozen=True)
class ExhaustiveResult:
    best_significance: float
    minimal_witnesses: tuple[tuple[str, ...], ...]


def _subset_positive_size(table: DecisionTable, cols: Sequence[int]) -> int:
    groups: dict[tuple[int, ...], list[str]] = {}
    for i in range(table.n_samples):
        key = tuple(int(table.bins[i, j]) for j in cols)
        groups.setdefault(key, []).append(table.labels[i])
    return sum(len(labs) for labs in groups.values() if len(set(labs)) == 1)


def exhaustive_reduct(table: DecisionTable) -> ExhaustiveResult:
    """Best achievable significance over all attribute subsets, plus the
    smallest subsets achieving it."""
    n_attrs = len(table.calls)
    if n_attrs > EXHAUSTIVE_ATTR_LIMIT:
        raise ConfigError(
            f"refusing exhaustive search over {n_attrs} attributes (limit {EXHAUSTIVE_ATTR_LIMIT})"
        )
    if table.n_samples == 0:
        raise ConfigError("cannot reduce an empty table")
    names = list(table.calls)
    best_size = -1
    by_cardinality: dict[int, list[tuple[str, ...]]] = {}
    for k in range(n_attrs + 1):
        for combo in itertools.combinations(range(n_attrs), k):
            size = _subset_positive_size(table, combo)
            if size > best_size:
                best_size = size
                by_cardinality = {k: [tuple(names[j] for j in combo)]}
            elif size == best_size:
                by_cardinality.setdefault(k, []).append(tuple(names[j] for j in combo))
    min_k = min(by_cardinality)
    return ExhaustiveResult(
        best_significance=best_size / table.n_samples,
        minimal_witnesses=tuple(sorted(by_cardinality[min_k])),
    )


def pairwise_roc_auc(scores: Sequence[float], labels: Sequence[str]) -> float:
    """O(n^2) pair counting: wins count 1, ties 0.5."""
    scores = list(scores)
    mal = [s for s, lab in zip(scores, labels) if lab == "M"]
    ben = [s for s, lab in zip(scores, labels) if lab == "B"]
    if not mal or not ben:
        raise ConfigError("roc_auc needs both labels present")
    credit = 0.0
    for m in mal:
        for b in ben:
            if m > b:
                credit += 1.0
            elif m == b:
                credit += 0.5
    return credit / (len(mal) * len(ben))


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
            lo, hi = float(sv[pos]), float(sv[pos + 1])
            threshold = (lo + hi) / 2.0
            if not lo <= threshold < hi:  # rounded up to hi, or overflowed
                threshold = lo
            best = (float(decrease[pos]), int(f), threshold)
    return best


def _build(X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int,
           max_depth: int, mtry: int, draws: _Draws, nodes: list[tuple]) -> int:
    """Append the subtree over rows idx to nodes, depth first; return its root id."""
    n = idx.size
    ones = int(y[idx].sum())
    node = len(nodes)
    nodes.append((0, 0.0, node, node, 1 if 2 * ones > n else 0))  # a leaf unless split
    if ones == 0 or ones == n or depth >= max_depth:
        return node
    features = draws.features(depth, 1, mtry)[0]
    decrease, feature, threshold = _best_split(X, y, idx, features)
    if feature < 0 or decrease <= 0.0:
        return node
    mask = X[idx, feature] <= threshold
    left = _build(X, y, idx[mask], depth + 1, max_depth, mtry, draws, nodes)
    right = _build(X, y, idx[~mask], depth + 1, max_depth, mtry, draws, nodes)
    nodes[node] = (feature, threshold, left, right, 0)
    return node


def reference_forest(
    X: np.ndarray,
    y: np.ndarray,
    seed: int,
    trees_count: int,
    max_depth: int,
) -> TreeEnsemble:
    """forest.train grown the literal way: each tree recursively, left child
    first, from the bootstrap rows with their repeats. It consumes the same
    bootstrap and per-depth feature draws, so it must grow the same trees;
    its nodes are numbered depth first rather than in level order."""
    X, y = _check_fit(X, y, trees_count, max_depth)
    n, d = X.shape
    if trees_count * n > REFERENCE_FOREST_LIMIT:
        raise ConfigError(
            f"refusing a reference forest of {trees_count} trees x {n} rows "
            f"(limit {REFERENCE_FOREST_LIMIT})"
        )
    draws = _Draws(seed, n, d)
    nodes: list[tuple] = []
    roots = [
        _build(X, y, draws.bootstrap(1)[0], 0, max_depth, _mtry(d), draws, nodes)
        for _ in range(trees_count)
    ]
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


def minmax_columns(matrix: np.ndarray) -> np.ndarray:
    """Min-max normalize each column into [0, 1]; constant columns become 0.
    A new matrix, varying columns only; build_fvt normalizes in place."""
    lo = matrix.min(axis=0)
    hi = matrix.max(axis=0)
    span = hi - lo
    out = np.zeros_like(matrix, dtype=np.float64)
    varying = span > 0
    out[:, varying] = (matrix[:, varying] - lo[varying]) / span[varying]
    return out


def reference_term_frequencies(
    rows: Sequence[dict], min_df: int
) -> tuple[list[str], dict[str, int], np.ndarray]:
    """The vocabulary (calls in at least min_df rows, sorted), each call's df and
    the tf matrix, walked one count at a time over records.jsonl rows (dicts)."""
    df: dict[str, int] = {}
    for row in rows:
        for name in row["counts"]:
            df[name] = df.get(name, 0) + 1
    vocab = sorted(name for name, d in df.items() if d >= min_df)
    col = {name: j for j, name in enumerate(vocab)}
    tf = np.zeros((len(rows), len(vocab)), dtype=np.float64)
    for i, row in enumerate(rows):
        if row["total"] == 0:
            continue
        for name, n in row["counts"].items():
            j = col.get(name)
            if j is not None:
                tf[i, j] = n / row["total"]
    return vocab, df, tf


# The pid column and timestamp, then the call head and the resumed head,
# each matched on its own (ingest._LINE is these as one grammar).
_REF_PREFIX = re.compile(
    r"(?:(?:\[pid\s+\d+\]|\d+)\s+)?"
    r"(?:(?:\d{1,2}:\d{2}:\d{2}(?:\.\d+)?|\d+\.\d+)\s+)?"
)
_REF_CALL_HEAD = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\(")
_REF_RESUMED = re.compile(r"^<\.\.\. ([A-Za-z_][A-Za-z0-9_]*) resumed")


def reference_parse_line(line: str) -> TraceLine:
    """Classify one log line step by step: strip, skip the prefix, then
    test exit, signal, resumed and call in turn."""
    text = line.strip()
    text = text[_REF_PREFIX.match(text).end():]  # every part is optional, so it always matches
    if not text:
        return TraceLine("garbage")
    if text.startswith("+++") and text.endswith("+++"):
        return TraceLine("exit")
    if text.startswith("---") and text.endswith("---") and len(text) > 6:
        return TraceLine("signal")
    m = _REF_RESUMED.match(text)
    if m:
        return TraceLine("resumed", m.group(1))
    m = _REF_CALL_HEAD.match(text)
    if m:
        rest = text[m.end():]
        if "<unfinished" in rest:
            return TraceLine("unfinished", m.group(1))
        return TraceLine("call", m.group(1))
    return TraceLine("garbage")


def random_decision_table(
    rng: np.random.Generator, n_samples: int, n_attrs: int
) -> DecisionTable:
    """Uniform random bins and labels, with both labels forced present."""
    if n_samples < 2 or n_attrs < 1:
        raise ConfigError("need at least 2 samples and 1 attribute")
    bins = rng.integers(1, 5, size=(n_samples, n_attrs)).astype(np.int8)
    labels = ["M" if x else "B" for x in rng.integers(0, 2, size=n_samples)]
    if len(set(labels)) == 1:
        flip = int(rng.integers(0, n_samples))
        labels[flip] = "B" if labels[flip] == "M" else "M"
    return DecisionTable(
        sample_ids=tuple(f"r{i:03d}" for i in range(n_samples)),
        calls=tuple(f"a{j:02d}" for j in range(n_attrs)),
        bins=bins,
        labels=tuple(labels),
    )
