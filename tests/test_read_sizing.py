"""The records reader's arrays: a counting pass sizes the column ids and
counts once, the split read fills the caller's arrays in place, and a
bound that falls short (the file grew after it was counted) grows them
and the read goes on.

Every read is checked against the independent judge of test_split_read
(json.loads per line, packed by Corpus.from_records), with the split
forced and with it off, and no read may leave a child behind."""

import json
import os
import signal

import numpy as np
import pytest

from callselect import forked, ingest, read_records_jsonl

from conftest import assert_same_corpus
from test_split_read import SERIAL, SPLIT, _judge, _no_child_left


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Let the split read fork on a one-CPU machine too."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _read(path, monkeypatch, split):
    """read_records_jsonl's Corpus; split, the two-process read must give
    it, not a read here after the child's result was lost."""
    monkeypatch.setattr(ingest, "SPLIT_BYTES", SPLIT if split else SERIAL)
    run_forked = forked.run_forked

    def whole(child, caller):
        corpus = run_forked(child, caller)
        assert corpus is not None, "the split read fell back to one process"
        return corpus

    monkeypatch.setattr(forked, "run_forked", whole)
    try:
        return read_records_jsonl(path)
    finally:
        _no_child_left()


_NAMES = ["open", 'we"ird', "a:b", "::", 'q":"x', "back\\slash", "tab\there", "read"]


def _line(rng, sample_id, width, compact):
    """One records line of up to width calls (none at times), with
    json.dumps's spacing or none."""
    names = [str(n) for n in rng.choice(_NAMES + [f"c{j}" for j in range(width)],
                                        size=int(rng.integers(0, width + 1)), replace=False)]
    counts = {name: int(rng.integers(1, 1 << 40)) for name in names}
    obj = {"counts": counts, "label": "MB"[int(rng.integers(0, 2))], "sample_id": sample_id,
           "total": sum(counts.values())}
    return json.dumps(obj, separators=(",", ":") if compact else None).encode()


def _random_file(rng, path):
    """Lines of long sample ids and few calls, then about as many bytes of
    lines with many calls, so the second half holds many more entries;
    blank lines among them and both spacings."""
    lines, size, i = [], [0, 0], 0
    while size[1] <= size[0]:
        second = i >= 8
        sample_id = f's:{i}"' if second else 'p":' * 40 + str(i)
        line = _line(rng, sample_id, 60 if second else 3, compact=bool(rng.integers(0, 2)))
        if rng.integers(0, 5) == 0:
            line += b"\n" + (b"" if rng.integers(0, 2) else b" \t")
        lines.append(line)
        size[second] += len(line) + 1
        i += 1
    path.write_bytes(b"\n".join(lines) + b"\n" * int(rng.integers(0, 2)))


@pytest.mark.parametrize("split", [False, True], ids=["in-process", "split"])
@pytest.mark.parametrize("block", [3, ingest._BLOCK])  # remap and count blocks
@pytest.mark.parametrize("seed", range(8))
def test_reads_equal_the_judge_on_random_files(tmp_path, monkeypatch, seed, block, split):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    path = tmp_path / "records.jsonl"
    _random_file(np.random.default_rng(seed), path)
    if split:
        assert ingest.second_half_start(path) is not None
    corpus = _read(path, monkeypatch, split)
    assert_same_corpus(corpus, _judge(path))
    assert (corpus.indptr.dtype, corpus.indices.dtype, corpus.counts.dtype) == (
        np.int64, np.int32, np.int64)


@pytest.mark.parametrize("split", [False, True], ids=["in-process", "split"])
@pytest.mark.parametrize("bound", [0, 1, 7])
def test_bound_too_small_grows_the_arrays_and_gives_the_same_corpus(
        tmp_path, monkeypatch, split, bound):
    path = tmp_path / "records.jsonl"
    _random_file(np.random.default_rng(99), path)
    monkeypatch.setattr(ingest, "_entry_bound", lambda path, start: bound)
    assert_same_corpus(_read(path, monkeypatch, split), _judge(path))


def test_file_grown_after_the_count_is_read_whole(tmp_path, monkeypatch):
    path = tmp_path / "records.jsonl"
    _random_file(np.random.default_rng(5), path)
    entry_bound = ingest._entry_bound

    def counted_then_grown(path, start):
        bound = entry_bound(path, start)
        counts = {f"new{j}": 1 for j in range(bound + 1)}  # more than the bound
        with open(path, "a") as fh:
            fh.write("\n" + json.dumps({"counts": counts, "label": "M", "sample_id": "grown",
                                        "total": len(counts)}))
        return bound

    monkeypatch.setattr(ingest, "_entry_bound", counted_then_grown)
    allocated = _allocations(monkeypatch)
    assert_same_corpus(_read(path, monkeypatch, split=False), _judge(path))
    assert len(allocated) == 2  # the counted size, then one growth


def _allocations(monkeypatch):
    """The (indices, counts) pairs ingest._entry_arrays returns in this process."""
    allocated = []
    entry_arrays = ingest._entry_arrays

    def recorded(size):
        arrays = entry_arrays(size)
        allocated.append(arrays)
        return arrays

    monkeypatch.setattr(ingest, "_entry_arrays", recorded)
    return allocated


@pytest.mark.parametrize("split", [False, True], ids=["in-process", "split"])
def test_each_read_allocates_its_arrays_once(tmp_path, monkeypatch, split):
    # Split, the caller's arrays are sized for the whole file and take the
    # child's half; the child allocates its own in its own process.
    path = tmp_path / "records.jsonl"
    _random_file(np.random.default_rng(3), path)
    allocated = _allocations(monkeypatch)
    corpus = _read(path, monkeypatch, split)
    assert len(allocated) == 1
    (indices, counts), = allocated
    assert np.shares_memory(corpus.indices, indices)
    assert np.shares_memory(corpus.counts, counts)
    assert indices.size == counts.size == path.read_bytes().count(b":")


@pytest.mark.parametrize("start", [0, 10])
def test_bound_counts_every_colon_from_start(tmp_path, monkeypatch, start):
    monkeypatch.setattr(ingest, "_BLOCK", 7)  # a colon on every side of a block edge
    data = b'{"a:b": 1, "c": 2}\n::x:\n' * 5
    path = tmp_path / "records.jsonl"
    path.write_bytes(data)
    assert ingest._entry_bound(path, start) == data[start:].count(b":")


def test_bound_of_what_is_not_a_regular_file_is_zero(tmp_path):
    assert ingest._entry_bound(tmp_path / "missing.jsonl", 0) == 0
    assert ingest._entry_bound(tmp_path, 0) == 0


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_bound_of_a_fifo_neither_waits_nor_reads(tmp_path):
    fifo = tmp_path / "records.fifo"
    os.mkfifo(fifo)
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the count waited"))
    signal.alarm(10)
    try:
        assert ingest._entry_bound(fifo, 0) == 0  # no writer: a blocking open would wait
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        writer = os.open(fifo, os.O_WRONLY)
        os.write(writer, b'{"a": 1}\n')
        assert ingest._entry_bound(fifo, 0) == 0
        assert os.read(reader, 100) == b'{"a": 1}\n'  # still in the pipe
        os.close(writer)
        os.close(reader)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
