"""In-memory span recorder and the wrappers that time each layer.

A span is (id, name, start, end, parent, round) plus the high-water RSS
before and after it and any counts its wrapper takes from the result.
Wrappers are installed on the attributes through which the program calls
each layer's public functions, so tracing changes no file of the program.
"""
from __future__ import annotations

import functools
import importlib
import resource
import time
from typing import Any, Callable


def _candidates_scored(args: tuple, reduct: Any) -> dict:
    # Greedy round i scores every call not yet chosen: V - i candidates.
    vocab, steps = len(args[0].calls), len(reduct.steps)
    return {"candidates": steps * vocab - steps * (steps - 1) // 2}


# (module whose attribute is replaced, attribute, span name, counts from the call)
# The attribute is patched where the caller looks it up: cli imported most
# functions by name, evaluate imported the forest functions by name.
_TARGETS: tuple[tuple[str, str, str, Callable[[tuple, Any], dict] | None], ...] = (
    ("callselect.cli", "ingest_corpus", "ingest.ingest_corpus",
     lambda args, r: {"lines": sum(s.total_lines() for s in r.summaries)}),
    ("callselect.cli", "write_records_jsonl", "ingest.write_records_jsonl", None),
    ("callselect.cli", "read_records_jsonl", "ingest.read_records_jsonl", None),
    ("callselect.cli", "generate", "synth.generate", None),
    ("callselect.cli", "build_fvt", "featurize.build_fvt", None),
    ("callselect.cli", "discretize", "featurize.discretize", None),
    ("callselect.cli", "generate_reduct", "roughset.generate_reduct", _candidates_scored),
    ("callselect.ztest", "filter_calls", "ztest.filter_calls", None),
    ("callselect.baselines", "rank", "baselines.rank", None),
    ("callselect.evaluate", "sweep", "evaluate.sweep", None),
    ("callselect.evaluate", "train", "forest.train", lambda args, m: {"trees": m.trees_count}),
    ("callselect.evaluate", "predict", "forest.predict", None),
    ("callselect.evaluate", "predict_scores", "forest.predict_scores", None),
)
# Table writers are methods, patched on their classes.
_METHOD_TARGETS = (
    ("callselect.featurize", "FeatureVectorTable", "to_csv", "featurize.fvt_to_csv"),
    ("callselect.featurize", "DecisionTable", "to_csv", "featurize.decision_to_csv"),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans in memory; nothing is written until the caller dumps them."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.round = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "round": self.round,
            "rss_before_mb": _maxrss_mb(),
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict, **counts: float) -> None:
        span["end"] = time.perf_counter()
        span["rss_after_mb"] = _maxrss_mb()
        span.update(counts)
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, counts: Callable[[tuple, Any], dict] | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(span, failed=1)
                raise
            self.end(span, **(counts(args, result) if counts else {}))
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Replace each layer entry point with a span-recording wrapper."""
    for module_name, attr, span_name, counts in _TARGETS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(span_name, getattr(module, attr), counts))
    for module_name, cls_name, attr, span_name in _METHOD_TARGETS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, tracer.wrap(span_name, getattr(cls, attr)))
