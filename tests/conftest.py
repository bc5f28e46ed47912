"""Shared fixtures: the seven-sample golden decision table, a corpus
comparison, a corpus's written rows, a second running thread, the check
that no test leaves a child process behind and the hypothesis profile."""

import contextlib
import json
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from callselect import Corpus, DecisionTable, write_records_jsonl

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def assert_same_corpus(got: Corpus, want: Corpus) -> None:
    """Equal field by field, array dtypes included."""
    assert got.sample_ids == want.sample_ids
    assert got.labels == want.labels
    assert got.calls == want.calls
    for name, dtype in (("indptr", np.int64), ("indices", np.int32), ("counts", np.int64)):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == dtype, name
        assert np.array_equal(a, b), name


def written_rows(corpus: Corpus, path) -> list[dict]:
    """The corpus's rows as write_records_jsonl writes them to path, parsed
    back with json.loads: plain dicts, read without the CSR arrays."""
    write_records_jsonl(corpus, path)
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test, also one that forks only through eval's sweep, ends with
    each child it made reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def another_thread():
    """A second Python thread runs inside the block, so no fork may be made."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=30)
        assert not thread.is_alive()


# Three calls, seven samples. Known by hand:
#   psi(s1)=4/7, psi(s2)=3/7, psi(s3)=5/7,
#   psi({s1,s3})=psi({s1,s2})=1, psi({s2,s3})=5/7,
#   greedy reduct adds s3 then s1 and removes nothing.
GOLDEN_BINS = np.array(
    [
        [1, 4, 1],
        [2, 1, 2],
        [2, 1, 2],
        [2, 2, 1],
        [3, 2, 4],
        [1, 2, 3],
        [3, 2, 3],
    ],
    dtype=np.int8,
)
GOLDEN_LABELS = ("B", "M", "M", "B", "M", "B", "M")
GOLDEN_CALLS = ("s1", "s2", "s3")
GOLDEN_IDS = tuple(f"x{i}" for i in range(1, 8))


@pytest.fixture
def golden_table() -> DecisionTable:
    return DecisionTable(
        sample_ids=GOLDEN_IDS,
        calls=GOLDEN_CALLS,
        bins=GOLDEN_BINS.copy(),
        labels=GOLDEN_LABELS,
    )
