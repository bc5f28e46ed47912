"""Single-feature baseline scorers: information gain, chi-square, symmetric uncertainty.

Information gain and symmetric uncertainty score the four-bin discretized
weights against the labels (entropies in bits, 0*log0 taken as 0).
Chi-square scores plain presence/absence of a call in a sample through
the 2x2 contingency N*(AD-CB)^2 / ((A+C)(B+D)(A+B)(C+D)); any zero
marginal yields 0 rather than a division error.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .featurize import DecisionTable, FeatureVectorTable, discretize

METHODS = ("IG", "CHI", "SU")


@dataclass(frozen=True)
class RankedFeature:
    call: str
    score: float


def entropy_bits(counts: Sequence[int] | np.ndarray) -> np.ndarray:
    """Entropy in bits of each row along the last axis; an all-zero row is 0."""
    arr = np.asarray(counts, dtype=np.float64)
    total = arr.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = arr / total
        h = -np.where(arr > 0, p * np.log2(p), 0.0).sum(axis=-1)
    return np.where(total[..., 0] > 0, h, 0.0)


def _information(table: DecisionTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every call's IG and H(bins), and H(labels), from one (call, bin,
    label) bincount keyed (j*5 + bin)*2 + y."""
    n, k = table.bins.shape
    if n == 0:
        raise ConfigError("cannot score an empty table")
    keys = (np.arange(k) * 5 + table.bins) * 2 + table.y[:, None]
    counts = np.bincount(keys.ravel(), minlength=k * 10).reshape(k, 5, 2)
    per_bin = counts.sum(axis=2)
    weight, h_bin = per_bin / n, entropy_bits(counts)
    h_labels = entropy_bits(np.bincount(table.y, minlength=2))
    h_cond = 0.0  # bins 1..4 in order; an absent bin adds an exact 0.0
    for b in range(1, 5):
        h_cond = h_cond + weight[:, b] * h_bin[:, b]
    return h_labels - h_cond, entropy_bits(per_bin), h_labels


def information_gain(table: DecisionTable) -> list[float]:
    """H(labels) - H(labels | bins of call) in bits, per call in table order."""
    return _information(table)[0].tolist()


def chi_square(fvt: FeatureVectorTable) -> list[float]:
    """2x2 presence/absence chi-square per call; zero marginals score 0.

    The statistic stays in Python ints: N*(AD-CB)^2 overflows int64."""
    present, is_m = fvt.weights > 0, fvt.y == 1
    n, n_m = len(is_m), int(is_m.sum())
    scores = []
    for a, b in zip(present[is_m].sum(axis=0).tolist(), present[~is_m].sum(axis=0).tolist()):
        c, d = n_m - a, n - n_m - b  # a, b: malware and benign containing the call
        denom = n_m * (n - n_m) * (a + b) * (c + d)
        scores.append(n * (a * d - c * b) ** 2 / denom if denom else 0.0)
    return scores


def symmetric_uncertainty(table: DecisionTable) -> list[float]:
    """2*IG / (H(bins) + H(labels)) per call; 0 when both entropies vanish."""
    ig, h_bins, h_labels = _information(table)
    denom = h_bins + h_labels
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom == 0.0, 0.0, 2.0 * ig / denom).tolist()


def rank(fvt: FeatureVectorTable, method: str, k: int | None = None) -> list[RankedFeature]:
    """Top-k calls by the chosen score, ties broken by call name.

    k beyond the vocabulary (or None) returns the full ranking.
    """
    name = method.upper()
    if name not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    if k is not None and k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    scorer = {"IG": information_gain, "SU": symmetric_uncertainty}.get(name)
    scores = scorer(discretize(fvt)) if scorer else chi_square(fvt)
    scored = [RankedFeature(call=c, score=s) for c, s in zip(fvt.calls, scores)]
    scored.sort(key=lambda f: (-f.score, f.call))
    if k is None or k >= len(scored):
        return scored
    return scored[:k]
