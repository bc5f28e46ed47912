"""The two-process records read: a forked child parses the lines that
start in the second half of the file while this process parses the first.

The split read is checked against the one-process read and against an
independent judge (json.loads per line, packed by Corpus.from_records),
field by field, with lines of every awkward kind at the cut; every error
must carry the one-process message, and no read may leave a child
behind."""

import io
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import callselect
from callselect import (
    CallCountRecord,
    ConfigError,
    Corpus,
    ingest,
    read_records_jsonl,
    write_records_jsonl,
)
from callselect.synth import default_spec, generate

from conftest import assert_same_corpus
from test_featurize import _corpus, _random_rows

SERIAL, SPLIT = 1 << 62, 0  # SPLIT_BYTES that never and always splits


@pytest.fixture(autouse=True)
def always_split(monkeypatch):
    """Split every file, on a one-CPU machine too: fork needs no second CPU."""
    monkeypatch.setattr(ingest, "SPLIT_BYTES", SPLIT)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _read(path, monkeypatch, split_bytes):
    """The Corpus read_records_jsonl gives with SPLIT_BYTES at split_bytes,
    or its ConfigError's message."""
    monkeypatch.setattr(ingest, "SPLIT_BYTES", split_bytes)
    try:
        return read_records_jsonl(path)
    except ConfigError as exc:
        return str(exc)
    finally:
        _no_child_left()


def _judge(path) -> Corpus:
    """Each nonblank line through json.loads, packed in file order."""
    records = []
    for line in path.read_bytes().split(b"\n"):
        if line.strip():
            obj = json.loads(line)
            records.append(CallCountRecord(obj["sample_id"], obj["label"], obj["counts"],
                                           obj["total"]))
    return Corpus.from_records(records)


def _assert_split_is_serial(path, monkeypatch, splits=True):
    """Split and one-process reads agree; the returned result is the split's."""
    assert (ingest.second_half_start(path) is not None) == splits
    serial = _read(path, monkeypatch, SERIAL)
    split = _read(path, monkeypatch, SPLIT)
    if isinstance(serial, str):
        assert split == serial
    else:
        assert_same_corpus(split, serial)
    return split


@pytest.mark.parametrize("seed", range(6))
def test_split_read_equals_serial_and_judge_on_random_files(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    if seed % 2:
        corpus = _corpus(_random_rows(rng))  # unsorted keys, empty rows, rare calls
    else:
        corpus, _ = generate(default_spec(samples_per_class=int(rng.integers(1, 40)),
                                          vocabulary_size=int(rng.integers(10, 60)), seed=seed))
    path = tmp_path / "records.jsonl"
    write_records_jsonl(corpus, path)
    data = path.read_bytes()
    cut = data.find(b"\n", len(data) // 2) + 1  # 0 when there is none
    got = _assert_split_is_serial(path, monkeypatch, splits=0 < cut < len(data))
    assert_same_corpus(got, _judge(path))


def _row(sample_id, counts, label="M"):
    return json.dumps({"sample_id": sample_id, "label": label, "counts": counts,
                       "total": sum(counts.values())}, ensure_ascii=False)


_COMMON = {"open": 3, "read": 1}
# (id, line bytes): each is put as the first half's last line and as the second half's first.
_AT_CUT = [
    ("empty", b"\n"),
    ("whitespace", b" \t \n"),
    ("crlf", _row("crlf", _COMMON).encode() + b"\r\n"),
    ("quote-backslash-u2028", _row('q"b\\\u2028', {'we"ird': 2, "back\\slash": 1,
                                                    "line\u2028sep": 4}).encode() + b"\n"),
    ("call-in-one-half", _row("lonely", {"only_here": 7, "open": 1}).encode() + b"\n"),
]


@pytest.mark.parametrize("line", [pytest.param(b, id=n) for n, b in _AT_CUT])
def test_line_ending_the_first_half(tmp_path, monkeypatch, line):
    # Halves of equal length around it: half the size falls inside the line,
    # so the cut is the line's own "\n".
    half = b"".join(_row(f"a{i}", _COMMON).encode() + b"\n" for i in range(3))
    rest = half.replace(b'"a', b'"b')
    path = tmp_path / "records.jsonl"
    path.write_bytes(half + line + rest)
    assert ingest.second_half_start(path) == len(half) + len(line)
    assert_same_corpus(_assert_split_is_serial(path, monkeypatch), _judge(path))


@pytest.mark.parametrize("line", [pytest.param(b, id=n) for n, b in _AT_CUT])
@pytest.mark.parametrize("final_newline", [True, False], ids=["lf", "no-final-lf"])
def test_line_starting_the_second_half(tmp_path, monkeypatch, line, final_newline):
    # One first line longer than all after it holds half the size.
    pad = _row("pad" * 200, _COMMON).encode() + b"\n"
    tail = line + _row("z", _COMMON).encode() + (b"\n" if final_newline else b"")
    path = tmp_path / "records.jsonl"
    path.write_bytes(pad + tail)
    assert ingest.second_half_start(path) == len(pad)
    assert_same_corpus(_assert_split_is_serial(path, monkeypatch), _judge(path))


def test_last_line_without_newline_alone_in_the_second_half(tmp_path, monkeypatch):
    pad = _row("pad" * 200, _COMMON).encode() + b"\n"
    path = tmp_path / "records.jsonl"
    path.write_bytes(pad + _row("last", {"exit": 1}).encode())
    assert ingest.second_half_start(path) == len(pad)
    assert_same_corpus(_assert_split_is_serial(path, monkeypatch), _judge(path))


@pytest.mark.parametrize("content", [_row("one", _COMMON).encode() + b"\n",
                                     _row("one", _COMMON).encode(), b"", b"\n\n"],
                         ids=["one-line", "one-line-no-lf", "empty", "blank"])
def test_file_with_no_line_in_its_second_half_is_read_here(tmp_path, monkeypatch, content):
    path = tmp_path / "records.jsonl"
    path.write_bytes(content)
    _assert_split_is_serial(path, monkeypatch, splits=False)


_GOOD = _row("g", _COMMON).encode() + b"\n"
_PAD = _row("pad" * 200, _COMMON).encode() + b"\n"


@pytest.mark.parametrize("content, message", [
    (_PAD + _GOOD + b"not json\n" + _GOOD, "bad record on line 3 of "),
    (_GOOD + b"[1]\n" + _PAD + _GOOD + b"not json\n", "bad record on line 2 of "),
    (_PAD + _GOOD + _row("caf\xe9", {}).encode("latin-1") + b"\n",
     "'utf-8' codec can't decode byte 0xe9 in position 18: invalid continuation byte "
     "(line 3, position counted from its start)"),
    (_PAD + b"\n" + _GOOD.replace(b"3", b"0"), "bad record on line 3 of "),
], ids=["bad-in-second-half", "bad-in-both-halves", "undecodable-in-second-half",
        "zero-count-after-blank-line"])
def test_split_error_is_the_serial_error(tmp_path, monkeypatch, capfd, content, message):
    path = tmp_path / "records.jsonl"
    path.write_bytes(content)
    got = _assert_split_is_serial(path, monkeypatch)
    assert isinstance(got, str) and message in got, got
    assert capfd.readouterr() == ("", "")  # the child wrote nothing


def test_child_error_is_raised_without_a_second_read_here(tmp_path, monkeypatch):
    # The first half is read here, the second in the child; neither again.
    path = tmp_path / "records.jsonl"
    path.write_bytes(_PAD + _GOOD + b"not json\n" + _GOOD)
    spans = []
    read_span = ingest._read_span

    def recorded(path, start, stop):
        spans.append((start, stop))
        return read_span(path, start, stop)

    monkeypatch.setattr(ingest, "_read_span", recorded)
    with pytest.raises(ConfigError, match="bad record on line 3 of "):
        read_records_jsonl(path)
    _no_child_left()
    assert spans == [(0, len(_PAD))]


def _spans_patched(monkeypatch, child):
    """_read_span with child(path, start) run first in the child (start > 0)."""
    read_span = ingest._read_span

    def patched(path, start, stop):
        if start > 0:
            child(path, start)
        return read_span(path, start, stop)

    monkeypatch.setattr(ingest, "_read_span", patched)


def test_child_that_ends_without_its_result_leaves_the_read_here(tmp_path, monkeypatch):
    path = tmp_path / "records.jsonl"
    write_records_jsonl(generate(default_spec(samples_per_class=20, vocabulary_size=9))[0], path)
    _spans_patched(monkeypatch, lambda path, start: os._exit(3))
    assert_same_corpus(_read(path, monkeypatch, SPLIT), _judge(path))


@pytest.mark.parametrize("keep", [0, 0.5, 0.99])
def test_child_that_ends_inside_its_arrays_leaves_the_read_here(tmp_path, monkeypatch, keep):
    # The child sends its head and the first keep of its array bytes, then
    # ends: the arrays' short read must not pass for the child's rows.
    path = tmp_path / "records.jsonl"
    write_records_jsonl(generate(default_spec(samples_per_class=20, vocabulary_size=9))[0], path)
    write_span = ingest._write_span

    def cut_short(path, start, pipe):
        sent = io.BytesIO()
        write_span(path, start, sent)
        sent.seek(0)
        pickle.load(sent)
        head, data = sent.tell(), sent.getvalue()
        pipe.write(data[:head + int(keep * (len(data) - head))])
        pipe.flush()
        os._exit(3)

    monkeypatch.setattr(ingest, "_write_span", cut_short)
    assert_same_corpus(_read(path, monkeypatch, SPLIT), _judge(path))


def test_failed_fork_leaves_the_read_here(tmp_path, monkeypatch):
    path = tmp_path / "records.jsonl"
    write_records_jsonl(generate(default_spec(samples_per_class=20, vocabulary_size=9))[0], path)

    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    assert_same_corpus(_read(path, monkeypatch, SPLIT), _judge(path))


def test_interrupted_read_kills_and_reaps_the_child(tmp_path, monkeypatch):
    path = tmp_path / "records.jsonl"
    write_records_jsonl(generate(default_spec(samples_per_class=20, vocabulary_size=9))[0], path)
    _spans_patched(monkeypatch, lambda path, start: time.sleep(60))

    def interrupted(first, pipe):
        raise KeyboardInterrupt

    monkeypatch.setattr(ingest, "_join", interrupted)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        read_records_jsonl(path)
    assert time.perf_counter() - t0 < 30
    _no_child_left()


# ---- where the read forks ----

@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes that called os.fork during the test."""
    callers = []
    fork = os.fork

    def counted():
        callers.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return callers


@pytest.mark.parametrize("below", [0, 1], ids=["exactly", "one-byte-below"])
def test_file_of_split_bytes_forks_once_and_one_byte_less_never(tmp_path, monkeypatch, forks,
                                                                  below):
    path = tmp_path / "records.jsonl"
    write_records_jsonl(generate(default_spec(samples_per_class=20, vocabulary_size=9))[0], path)
    assert ingest.second_half_start(path) is not None
    size = path.stat().st_size
    assert_same_corpus(_read(path, monkeypatch, size + below), _judge(path))
    assert forks == [os.getpid()] * (1 - below)


@pytest.mark.parametrize("split_bytes, loaded", [(ingest.SPLIT_BYTES, False), (0, True)],
                         ids=["small", "cut"])
def test_only_a_cut_read_loads_the_fork_helper(tmp_path, split_bytes, loaded):
    # A fresh interpreter: this one may have loaded callselect.forked already.
    path = tmp_path / "records.jsonl"
    write_records_jsonl(generate(default_spec(samples_per_class=20, vocabulary_size=9))[0], path)
    src = str(Path(callselect.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import callselect.cli; "
            f"from callselect import ingest; ingest.SPLIT_BYTES = {split_bytes}; "
            f"ingest.read_records_jsonl({str(path)!r}); print('callselect.forked' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(loaded)
