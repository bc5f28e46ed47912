"""Second-stage filter: two-sample large-population z test per call.

For each candidate call the two class means of its feature weights are
compared with z = (mean_M - mean_B) / sqrt(var_M/n_M + var_B/n_B), using
population variances. Calls pass only when |z| strictly exceeds the
critical value (1.96 at the default alpha of 0.05); survivors are split
into a malware-leaning list (z > 0) and a benign-leaning list (z < 0).
z_score is the one place the pooled standard error is formed; when it is
zero, filter_calls records the call as rejected with z None.

A compatibility switch replaces the variances with standard deviations
inside the square root for callers that need that exact variant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .featurize import FeatureVectorTable

DEFAULT_ALPHA = 0.05
DEFAULT_Z_CRIT = 1.96
_STATS_BLOCK = 32  # columns class_stats copies at a time


@dataclass(frozen=True)
class ClassStats:
    """Per-class mean and population variance of one call's weights."""

    call: str
    mean_m: float
    mean_b: float
    var_m: float
    var_b: float
    n_m: int
    n_b: int


@dataclass(frozen=True)
class ZVerdict:
    call: str
    z: float | None  # None when the pooled standard error is zero
    dominant: str  # "M" or "B" where the null is rejected, else "none"


@dataclass(frozen=True)
class StatFilterResult:
    malware: tuple[ZVerdict, ...]  # z > 0, sorted by z descending
    benign: tuple[ZVerdict, ...]  # z < 0, sorted by |z| descending
    rejected: tuple[ZVerdict, ...]
    alpha: float
    z_crit: float

    def to_json_dict(self) -> dict:
        def row(v: ZVerdict) -> dict:
            return {"call": v.call, "z": v.z, "dominant": v.dominant}

        return {
            "alpha": self.alpha,
            "z_crit": self.z_crit,
            "malware_list": [row(v) for v in self.malware],
            "benign_list": [row(v) for v in self.benign],
            "rejected": [row(v) for v in self.rejected],
        }


def class_stats(fvt: FeatureVectorTable, calls: Sequence[str]) -> list[ClassStats]:
    """ClassStats per call, in order. Each class's columns are copied
    transposed and contiguous, _STATS_BLOCK at a time, so each row reduces
    as the 1-D column would and no copy of the whole class is made."""
    cols = [fvt.column_index(c) for c in calls]
    per_class = []
    for name, code in (("M", 1), ("B", 0)):
        rows = np.flatnonzero(fvt.y == code)
        if cols and rows.size < 2:
            raise ConfigError(
                f"class {name} has {rows.size} samples; need at least 2 for a z test"
            )
        means, variances = [], []
        for start in range(0, len(cols), _STATS_BLOCK):
            vals = np.ascontiguousarray(
                fvt.weights[np.ix_(rows, cols[start:start + _STATS_BLOCK])].T)
            means += vals.mean(axis=1).tolist()
            variances += vals.var(axis=1).tolist()
        per_class.append((means, variances, rows.size))
    (mean_m, var_m, n_m), (mean_b, var_b, n_b) = per_class
    return [ClassStats(*row, n_m, n_b) for row in zip(calls, mean_m, mean_b, var_m, var_b)]


def z_score(stats: ClassStats, sigma_as_stddev: bool = False) -> float:
    """(mean_M - mean_B) over the pooled standard error; a zero error is a ConfigError."""
    if sigma_as_stddev:
        inner = math.sqrt(stats.var_m) / stats.n_m + math.sqrt(stats.var_b) / stats.n_b
    else:
        inner = stats.var_m / stats.n_m + stats.var_b / stats.n_b
    se = math.sqrt(inner)
    if se == 0.0:
        raise ConfigError(
            f"zero pooled standard error for {stats.call!r}; z is undefined"
        )
    return (stats.mean_m - stats.mean_b) / se


def critical_value(alpha: float = DEFAULT_ALPHA, z_crit: float | None = None) -> float:
    """Explicit z_crit wins; the default alpha keeps the conventional 1.96.
    alpha is checked either way, and neither may be NaN or infinite."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    if z_crit is not None:
        if not 0.0 < z_crit < math.inf:
            raise ConfigError(f"z_crit must be finite and positive, got {z_crit}")
        return z_crit
    if alpha == DEFAULT_ALPHA:
        return DEFAULT_Z_CRIT
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def filter_calls(
    fvt: FeatureVectorTable,
    candidates: Iterable[str],
    alpha: float = DEFAULT_ALPHA,
    z_crit: float | None = None,
    sigma_as_stddev: bool = False,
) -> StatFilterResult:
    """Split candidates into malware/benign survivor lists plus the rejects."""
    crit = critical_value(alpha, z_crit)
    verdicts = []
    # class_stats raises for an unknown call or too few samples per class.
    for stats in class_stats(fvt, sorted(set(candidates))):
        try:
            z = z_score(stats, sigma_as_stddev)
        except ConfigError:  # zero pooled standard error
            z = None
        reject = z is not None and abs(z) > crit
        dominant = ("M" if z > 0 else "B") if reject else "none"
        verdicts.append(ZVerdict(call=stats.call, z=z, dominant=dominant))
    malware = sorted(
        (v for v in verdicts if v.dominant == "M"),
        key=lambda v: (-v.z, v.call),
    )
    benign = sorted(
        (v for v in verdicts if v.dominant == "B"),
        key=lambda v: (v.z, v.call),
    )
    rejected = [v for v in verdicts if v.dominant == "none"]
    return StatFilterResult(
        malware=tuple(malware),
        benign=tuple(benign),
        rejected=tuple(rejected),
        alpha=alpha,
        z_crit=crit,
    )


def eval_ranking(result: StatFilterResult) -> list[str]:
    """Permutation of the candidates for length sweeps.

    Survivors come first ordered by |z| descending, then rejected calls by
    |z| descending (degenerate verdicts last, alphabetical).
    """

    def sort_key(v: ZVerdict) -> tuple:
        mag = -abs(v.z) if v.z is not None else math.inf
        return (mag, v.call)

    survivors = sorted(list(result.malware) + list(result.benign), key=sort_key)
    rejected = sorted(result.rejected, key=sort_key)
    return [v.call for v in survivors + rejected]
