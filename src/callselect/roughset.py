"""Rough-set machinery over discretized decision tables.

Samples are indiscernible under an attribute set when they agree on every
attribute in it. The positive region is the union of indiscernibility
blocks whose members all share one label, and significance is the
fraction of samples inside the positive region. The greedy reduct adds
the attribute with the best significance gain each round and then prunes
attributes whose removal leaves significance unchanged.

Every question here is answered by one numpy kernel: rows start in one
block and each attribute refines the block ids (id * 5 + bin, renumbered
in key order through a presence mask), so the work grows as attributes
x samples rather than with pairwise comparison. Label purity of the
blocks then comes from two bincounts of the block ids: one counts rows,
one sums the 0/1 label codes, and a block is pure when its sum is 0 or
its size. Only partition turns the ids into blocks of row indices, a
plain tuple of tuples for display and tests; the reduct never builds
them.

The reduct scores a candidate on its raw keys (id * 5 + bin; the purity
count needs no renumbering) and renumbers only each round's winner. It
also works on a shrinking set of rows, the positive approximation of
Qian, Liang, Pedrycz & Dang ("Positive approximation: an accelerator for
attribute reduction in rough set theory", Artificial Intelligence 174,
2010): a row in a label-pure block stays in one under any finer
partition, so once in the positive region it leaves the working set, and
a candidate scores the rows already gone plus the pure rows among those
left. The same shrinking set serves the positive region of all
attributes, the reduct's target, and of each trial subset of the
backward pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError
from .featurize import DecisionTable


@dataclass(frozen=True)
class ReductStep:
    call: str
    significance: float


@dataclass(frozen=True)
class Reduct:
    steps: tuple[ReductStep, ...]
    removed_in_backward_pass: tuple[str, ...]
    final_significance: float

    @property
    def calls(self) -> tuple[str, ...]:
        """Surviving attributes, in addition order."""
        removed = set(self.removed_in_backward_pass)
        return tuple(s.call for s in self.steps if s.call not in removed)

    def to_json_dict(self) -> dict:
        return {
            "steps": [
                {"call": s.call, "significance": s.significance} for s in self.steps
            ],
            "final_significance": self.final_significance,
            "removed_in_backward_pass": list(self.removed_in_backward_pass),
        }


def _refine(ids: np.ndarray, column: np.ndarray) -> np.ndarray:
    # Bin values are 1..4 (the table checks this), so base 5 keeps keys
    # collision free and below 5 * (ids.max() + 1). Renumbering the keys
    # that occur, in key order, keeps ids small across rounds; it gives the
    # ids np.unique(..., return_inverse=True) would, without a sort.
    combined = ids * 5 + column
    present = np.zeros(5 * (int(ids.max()) + 1) if ids.size else 0, dtype=bool)
    present[combined] = True
    return (np.cumsum(present) - 1)[combined]


def _block_ids(table: DecisionTable, attrs: Iterable[str]) -> np.ndarray:
    """Indiscernibility block id per row under the named attributes."""
    ids = np.zeros(table.n_samples, dtype=np.int64)
    for name in attrs:
        ids = _refine(ids, table.column(name))
    return ids


def _pure_blocks(ids: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per block id: whether all its rows share one label, and its size."""
    k = int(ids.max()) + 1 if ids.size else 0
    sizes = np.bincount(ids, minlength=k)
    ones = np.bincount(ids, weights=y, minlength=k)
    return (ones == 0) | (ones == sizes), sizes


def _pos_size(ids: np.ndarray, y: np.ndarray) -> int:
    pure, sizes = _pure_blocks(ids, y)
    return int(sizes[pure].sum())


def partition(table: DecisionTable, attrs: Iterable[str]) -> tuple[tuple[int, ...], ...]:
    """Row-index blocks of rows that agree on attrs, ordered by first member;
    no attrs means one block."""
    ids = _block_ids(table, attrs)
    order = np.argsort(ids, kind="stable")
    cuts = np.flatnonzero(np.diff(ids[order])) + 1
    blocks = [tuple(b.tolist()) for b in np.split(order, cuts)] if ids.size else []
    return tuple(sorted(blocks, key=lambda block: block[0]))


def positive_region(table: DecisionTable, attrs: Iterable[str]) -> frozenset[int]:
    """Rows in label-pure indiscernibility blocks."""
    ids = _block_ids(table, attrs)
    pure, _ = _pure_blocks(ids, table.y)
    return frozenset(np.flatnonzero(pure[ids]).tolist())


def significance(table: DecisionTable, attrs: Iterable[str]) -> float:
    if table.n_samples == 0:
        raise ConfigError("cannot score an empty table")
    return _pos_size(_block_ids(table, attrs), table.y) / table.n_samples


def _impure_rows(ids: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mask of the rows outside label-pure blocks."""
    pure, _ = _pure_blocks(ids, y)
    return ~pure[ids]


def _full_pos_size(cols: np.ndarray, y: np.ndarray) -> int:
    """Positive region size under every attribute (one row of cols each)."""
    rows = np.arange(y.size)
    ids = np.zeros(y.size, dtype=np.int64)
    for col in cols:
        if not rows.size:
            break
        ids = _refine(ids, col[rows])
        stay = _impure_rows(ids, y[rows])
        rows, ids = rows[stay], ids[stay]
    return y.size - rows.size


def generate_reduct(table: DecisionTable) -> Reduct:
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
    # The working set holds the rows not yet in the positive region: their
    # block ids, label codes and bins (one contiguous row per call).
    cols = all_cols = np.ascontiguousarray(table.bins.T)
    target = _full_pos_size(cols, y)

    chosen: list[str] = []
    steps: list[ReductStep] = []
    remaining = sorted(table.calls)
    ids, y_left = np.zeros(n, dtype=np.int64), y
    current = 0  # rows in the positive region, all gone from the working set
    while remaining:
        # Raw keys id * 5 + bin: purity counts need no renumbering.
        keys = ids * 5
        best_name, best_size = None, -1
        for name in remaining:
            size = _pos_size(keys + cols[table.column_index(name)], y_left)
            if size > best_size:
                best_name, best_size = name, size
        chosen.append(best_name)
        remaining.remove(best_name)
        current += best_size
        steps.append(ReductStep(call=best_name, significance=current / n))
        if current >= target:
            break
        ids = _refine(ids, cols[table.column_index(best_name)])
        stay = _impure_rows(ids, y_left)
        ids, y_left, cols = ids[stay], y_left[stay], cols[:, stay]

    kept = list(chosen)
    removed: list[str] = []
    for name in reversed(chosen):
        trial = [c for c in kept if c != name]
        if _full_pos_size(all_cols[[table.column_index(c) for c in trial]], y) == current:
            kept = trial
            removed.append(name)

    return Reduct(
        steps=tuple(steps),
        removed_in_backward_pass=tuple(removed),
        final_significance=steps[-1].significance,
    )
