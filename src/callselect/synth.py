"""Synthetic call-count corpora with a planted answer key.

Counts are rounded truncated normals (never negative). Every call gets a
base mean shared by both classes; planted calls additionally receive an
effect_size shift inside their own class. Base means are drawn from
U(2, 10) for unplanted calls and U(1, 2) for planted ones; the low
planted base keeps the call absent from part of the off-class samples,
so presence as well as magnitude carries the signal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import ConfigError
from .ingest import Corpus

_NULL_MEAN_RANGE = (2.0, 10.0)
_PLANTED_MEAN_RANGE = (1.0, 2.0)


@dataclass(frozen=True)
class SynthSpec:
    samples_per_class: int
    vocabulary_size: int
    planted_malware_calls: tuple[str, ...]
    planted_benign_calls: tuple[str, ...]
    effect_size: float
    noise_std: float
    seed: int

    def validate(self) -> None:
        if self.samples_per_class < 1:
            raise ConfigError("samples_per_class must be >= 1")
        if self.vocabulary_size < 1:
            raise ConfigError("vocabulary_size must be >= 1")
        # NaN fails both comparisons; inf would draw counts no table accepts.
        if not 0 <= self.effect_size < math.inf:
            raise ConfigError(f"effect_size must be finite and >= 0, got {self.effect_size}")
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        vocab = set(vocabulary(self))
        mal = set(self.planted_malware_calls)
        ben = set(self.planted_benign_calls)
        if mal & ben:
            raise ConfigError("planted call lists must be disjoint")
        unknown = (mal | ben) - vocab
        if unknown:
            raise ConfigError(
                f"planted call {sorted(unknown)[0]!r} is outside the vocabulary"
            )


def _call_names(size: int) -> list[str]:
    return [f"c{i:03d}" for i in range(size)]


def vocabulary(spec: SynthSpec) -> list[str]:
    return _call_names(spec.vocabulary_size)


def default_spec(
    samples_per_class: int = 200,
    vocabulary_size: int = 50,
    planted_malware: int = 3,
    planted_benign: int = 2,
    effect_size: float = 4.0,
    noise_std: float = 2.0,
    seed: int = 42,
) -> SynthSpec:
    """Convenience constructor naming planted calls off the vocabulary head."""
    if min(planted_malware, planted_benign) < 0:
        raise ConfigError(f"planted counts must be >= 0, got {planted_malware=}, {planted_benign=}")
    if planted_malware + planted_benign > vocabulary_size:
        raise ConfigError("more planted calls than vocabulary entries")
    names = _call_names(vocabulary_size)
    spec = SynthSpec(
        samples_per_class=samples_per_class,
        vocabulary_size=vocabulary_size,
        planted_malware_calls=tuple(names[:planted_malware]),
        planted_benign_calls=tuple(names[planted_malware:planted_malware + planted_benign]),
        effect_size=effect_size,
        noise_std=noise_std,
        seed=seed,
    )
    spec.validate()
    return spec


def generate(spec: SynthSpec) -> tuple[Corpus, SynthSpec]:
    """Deterministically draw the corpus; sample order is all M then all B.
    The spec comes back as the answer key: it names the planted calls."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    vocab = vocabulary(spec)
    planted = set(spec.planted_malware_calls) | set(spec.planted_benign_calls)
    base = np.empty(len(vocab), dtype=np.float64)
    for j, name in enumerate(vocab):
        lo, hi = _PLANTED_MEAN_RANGE if name in planted else _NULL_MEAN_RANGE
        base[j] = rng.uniform(lo, hi)
    mal_mask = np.array([name in spec.planted_malware_calls for name in vocab])
    ben_mask = np.array([name in spec.planted_benign_calls for name in vocab])
    mean_m = base + spec.effect_size * mal_mask
    mean_b = base + spec.effect_size * ben_mask

    # Sorted-name columns ("c1000" before "c101"): row ids ascend, as when read back.
    order = sorted(range(len(vocab)), key=vocab.__getitem__)
    columns = np.arange(len(vocab), dtype=np.int32)
    occurs = np.zeros(len(vocab), dtype=bool)
    row_sizes, indices, counts = [], [], []
    for mean in (mean_m, mean_b):  # one class at a time
        raw = rng.normal(loc=mean, scale=spec.noise_std,
                         size=(spec.samples_per_class, len(vocab)))
        drawn = np.clip(np.rint(raw, out=raw), 0, None, out=raw).astype(np.int64)
        if order != sorted(order):
            drawn = drawn[:, order]
        present = drawn > 0
        occurs |= present.any(axis=0)
        row_sizes.append(present.sum(axis=1))
        indices.append(np.broadcast_to(columns, drawn.shape)[present])
        counts.append(drawn[present])
        del raw, drawn, present  # before the next class is drawn
    indices = np.concatenate(indices)
    if not occurs.all():  # only calls that occur in some sample are columns
        indices = (np.cumsum(occurs, dtype=np.int32) - 1)[indices]
    n = spec.samples_per_class
    return Corpus(
        sample_ids=tuple(f"{label}{i:04d}" for label in "MB" for i in range(n)),
        labels=("M",) * n + ("B",) * n,
        calls=tuple(compress(sorted(vocab), occurs.tolist())),
        indptr=np.concatenate([[0], *row_sizes]).cumsum(dtype=np.int64),
        indices=indices,
        counts=np.concatenate(counts),
    ), spec
