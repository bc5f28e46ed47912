"""Brute-force reference implementations used to cross-check the fast paths.

These deliberately take the slow, literal route: the positive region via
pairwise comparison of every sample pair, the best reduct via full subset
enumeration, and roc_auc via explicit pair counting. They exist so the
production implementations can be verified against an independent
formulation, and they refuse inputs large enough to make that painful.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .featurize import DecisionTable

EXHAUSTIVE_ATTR_LIMIT = 15


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


def exhaustive_reduct(table: DecisionTable, max_attrs: int = EXHAUSTIVE_ATTR_LIMIT) -> ExhaustiveResult:
    """Best achievable significance over all attribute subsets, plus the
    smallest subsets achieving it."""
    n_attrs = len(table.calls)
    if n_attrs > max_attrs:
        raise ConfigError(
            f"refusing exhaustive search over {n_attrs} attributes (limit {max_attrs})"
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
