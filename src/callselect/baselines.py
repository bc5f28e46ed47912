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
    method: str


def entropy_bits(counts: Sequence[int] | np.ndarray) -> float:
    arr = np.asarray(counts, dtype=np.float64)
    total = arr.sum()
    if total <= 0:
        return 0.0
    p = arr[arr > 0] / total
    return float(-(p * np.log2(p)).sum())


def information_gain(table: DecisionTable, call: str) -> float:
    """H(labels) - H(labels | bins of call), in bits."""
    bins = table.column(call)
    y = table.y
    n = len(y)
    if n == 0:
        raise ConfigError("cannot score an empty table")
    h_labels = entropy_bits(np.bincount(y, minlength=2))
    h_cond = 0.0
    for b in np.unique(bins):
        mask = bins == b
        weight = mask.sum() / n
        h_cond += weight * entropy_bits(np.bincount(y[mask], minlength=2))
    return h_labels - h_cond


def chi_square(fvt: FeatureVectorTable, call: str) -> float:
    """2x2 presence/absence chi-square statistic; zero marginals score 0."""
    present = fvt.column(call) > 0
    y = fvt.y
    a = int(np.sum(present & (y == 1)))  # malware containing the call
    b = int(np.sum(present & (y == 0)))  # benign containing the call
    c = int(np.sum(~present & (y == 1)))
    d = int(np.sum(~present & (y == 0)))
    n = a + b + c + d
    denom = (a + c) * (b + d) * (a + b) * (c + d)
    if denom == 0:
        return 0.0
    return n * (a * d - c * b) ** 2 / denom


def symmetric_uncertainty(table: DecisionTable, call: str) -> float:
    """2*IG / (H(bins) + H(labels)); 0 when both entropies vanish."""
    bins = table.column(call)
    y = table.y
    h_bins = entropy_bits(np.bincount(bins, minlength=5))
    h_labels = entropy_bits(np.bincount(y, minlength=2))
    denom = h_bins + h_labels
    if denom == 0.0:
        return 0.0
    return 2.0 * information_gain(table, call) / denom


def rank(fvt: FeatureVectorTable, method: str, k: int | None = None) -> list[RankedFeature]:
    """Top-k calls by the chosen score, ties broken by call name.

    k beyond the vocabulary (or None) returns the full ranking.
    """
    name = method.upper()
    if name not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    if k is not None and k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    table = discretize(fvt) if name in ("IG", "SU") else None
    scored: list[RankedFeature] = []
    for call in fvt.calls:
        if name == "IG":
            score = information_gain(table, call)
        elif name == "SU":
            score = symmetric_uncertainty(table, call)
        else:
            score = chi_square(fvt, call)
        scored.append(RankedFeature(call=call, score=float(score), method=name))
    scored.sort(key=lambda f: (-f.score, f.call))
    if k is None or k >= len(scored):
        return scored
    return scored[:k]
