"""Read a large records file on two processes: a child made with os.fork
parses the lines that start in the second half while the caller parses
the first, and sends its rows back through a pipe (forked.run_forked).
Imported by ingest.read_records_jsonl only for a file of at least
ingest.SPLIT_BYTES, so importing the CLI never loads it."""
from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np

from . import ingest
from .errors import ConfigError
from .forked import can_fork, run_forked


def _fill(pipe, out: np.ndarray) -> None:
    """Read out's bytes from pipe; EOFError if the pipe ends first."""
    if pipe.readinto(memoryview(out).cast("B")) != out.nbytes:
        raise EOFError("the pipe ended early")


def _join(first: tuple, pipe) -> ingest.Corpus:
    """The Corpus of first, ingest._read_span's result for the first half,
    and of the second half that the child wrote to pipe: its message when
    it found a bad line, else (sample ids, labels, names, number of counts)
    pickled, then its indptr, indices and counts. The arrays are allocated
    at their final size; the child's are read straight into them, and
    first's are copied and let go one at a time."""
    head = pickle.load(pipe)
    if isinstance(head, str):
        raise ConfigError(head)
    ids2, labels2, names2, nnz2 = head
    ids1, labels1, names1, ptr1, idx1, cnt1 = first
    del first
    calls, (remap1, remap2) = ingest._vocabulary(names1, names2)
    n1, nnz1 = len(ids1), len(cnt1)
    indptr = np.empty(n1 + len(ids2) + 1, dtype=np.int64)
    indptr[:n1] = np.frombuffer(ptr1, dtype=np.int64)[:-1]
    del ptr1
    _fill(pipe, indptr[n1:])  # the child's starts at 0
    indptr[n1:] += nnz1
    indices = np.empty(nnz1 + nnz2, dtype=np.int32)
    np.take(remap1, np.frombuffer(idx1, dtype=np.int32), out=indices[:nnz1])
    del idx1
    _fill(pipe, indices[nnz1:])
    np.take(remap2, indices[nnz1:], out=indices[nnz1:])
    counts = np.empty(nnz1 + nnz2, dtype=np.int64)
    counts[:nnz1] = np.frombuffer(cnt1, dtype=np.int64)
    del cnt1
    _fill(pipe, counts[nnz1:])
    return ingest.Corpus(sample_ids=(*ids1, *ids2), labels=(*labels1, *labels2), calls=calls,
                         indptr=indptr, indices=indices, counts=counts)


def _split_point(path: str | Path) -> int | None:
    """Where the child starts reading path (ingest.second_half_start), or
    None when forked.can_fork says no, the file is unreadable or no line
    starts in its second half."""
    if not can_fork():
        return None
    try:
        return ingest.second_half_start(path)
    except OSError:
        return None


def _write_span(path: str | Path, start: int, pipe) -> None:
    """The child's half for _join: the lines of path from start on, or the
    message of their first bad line."""
    try:
        span = ingest._read_span(path, start, None)
    except ConfigError as exc:
        pickle.dump(str(exc), pipe)
    else:
        pickle.dump((*span[:3], len(span[5])), pipe)
        for buffer in span[3:]:
            pipe.write(buffer)


def read_split(path: str | Path) -> ingest.Corpus | None:
    """The Corpus of path read on two processes, or None when the caller
    should read it alone: _split_point finds no cut, os.fork fails, or the
    child ends without its result. A bad line raises the one-process
    read's ConfigError; the child is reaped before this returns or raises."""
    mid = _split_point(path)
    if mid is None:
        return None
    return run_forked(lambda pipe: _write_span(path, mid, pipe),
                      lambda pipe: _join(ingest._read_span(path, 0, mid), pipe))
