"""The two-process trace-log parse: a forked child parses every other
piece of the manifest's logs, where a large log is two pieces cut just
after a b"\\n", while this process parses the rest.

The split parse is checked against the one-process parse and against an
independent judge (the whole file decoded, split into lines and each
classified by oracles.reference_parse_line), with every awkward line
break, undecodable bytes and a call's two lines at the cut; every error
must carry the one-process message, and no parse may leave a child
behind."""

import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import callselect
from callselect import ConfigError, ingest, ingest_corpus
from callselect.cli import main
from callselect.ingest import LINE_KINDS
from callselect.oracles import reference_parse_line

from conftest import another_thread, assert_same_corpus
from test_ingest import _BODIES, _LINE_ENDS, _PINNED_INGEST, _PREFIXES, _write_strace_corpus

SERIAL, SPLIT = 1 << 62, 0  # SPLIT_BYTES that never and always splits


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Let the parse fork on a one-CPU machine too: fork needs no second CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children os.fork makes during the test."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def cuts(monkeypatch):
    """{path: where it was cut} for every log second_half_start cut."""
    found = {}
    cut = ingest.second_half_start

    def recorded(path):
        mid = cut(path)
        if mid is not None:
            found[str(path)] = mid
        return mid

    monkeypatch.setattr(ingest, "second_half_start", recorded)
    return found


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _ingest(manifest, monkeypatch, split_bytes):
    """ingest_corpus's (corpus, summaries) with SPLIT_BYTES at split_bytes,
    or its ConfigError's message."""
    monkeypatch.setattr(ingest, "SPLIT_BYTES", split_bytes)
    try:
        result = ingest_corpus(manifest)
        return result.corpus, result.summaries
    except ConfigError as exc:
        return str(exc)
    finally:
        _no_child_left()


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_corpus(got[0], want[0])
        assert got[1] == want[1]


def _assert_split_is_serial(manifest, monkeypatch):
    """Split and one-process parses agree; the returned result is the split's."""
    serial = _ingest(manifest, monkeypatch, SERIAL)
    split = _ingest(manifest, monkeypatch, SPLIT)
    _assert_same(split, serial)
    return split


def _assert_judged(manifest, result):
    """Each log's counts and kind tallies are those of its lines, each
    classified by reference_parse_line."""
    corpus, summaries = result
    for k, (path, _, sample_id) in enumerate(manifest):
        lines = Path(path).read_bytes().decode("utf-8", errors="replace").splitlines()
        ref = [reference_parse_line(line) for line in lines]
        want = Counter(t.call_name for t in ref if t.kind in ("call", "unfinished"))
        a, b = corpus.indptr[k], corpus.indptr[k + 1]
        got = dict(zip((corpus.calls[j] for j in corpus.indices[a:b]), corpus.counts[a:b].tolist()))
        assert got == want, sample_id
        assert summaries[k].by_kind == {kind: sum(t.kind == kind for t in ref)
                                         for kind in LINE_KINDS}, sample_id


def _random_lines(rng, n):
    """n random log lines of every kind, prefix and line break."""
    return b"".join(rng.choice(_PREFIXES).encode() + rng.choice(_BODIES[rng.choice(LINE_KINDS)])
                    + rng.choice(_LINE_ENDS) for _ in range(n))


@pytest.mark.parametrize("seed", range(6))
def test_split_parse_equals_serial_and_judge_on_random_logs(tmp_path, monkeypatch, cuts, seed):
    rng = random.Random(seed)
    manifest = []
    for i in range(rng.randrange(1, 8)):
        path = tmp_path / f"log{i}.log"
        path.write_bytes(_random_lines(rng, rng.choice([0, 1, 2, rng.randrange(3, 200)])))
        manifest.append((str(path), rng.choice("MB"), f"s{i}"))
    got = _assert_split_is_serial(manifest, monkeypatch)
    _assert_judged(manifest, got)
    for path, _, _ in manifest:
        data = Path(path).read_bytes()
        cut = data.find(b"\n", len(data) // 2) + 1  # 0 when there is none
        assert cuts.get(path) == (cut if 0 < cut < len(data) else None)


# (id, bytes): each is put just before the "\n" that ends the first half,
# and at the start of the second half.
_AT_CUT = [
    ("crlf", b"\r"),  # with the "\n" after it
    ("cr", b"\rclose(3) = 0"),
    ("vt", b"\x0b"),
    ("ff", b"\x0c"),
    ("fs", b"\x1c"),
    ("u2028", "\u2028".encode()),
    ("nel", b"\xc2\x85"),
    ("lone-x85", b"\x85"),
    ("invalid-utf8", b"op\xffen(3) = 0"),
    ("truncated-utf8", b"close(3) = 0 \xe2\x82"),
    ("truncated-utf8-alone", b"\xf0\x9f\x98"),
]
_UNFINISHED = b"1234  read(5,  <unfinished ...>"
_RESUMED = b'1234  <... read resumed> "x", 1) = 1'


def _halves(rng):
    """Two runs of random lines of equal length, each ending in "\\n"."""
    first = _random_lines(rng, rng.randrange(1, 30)) + b"\n"
    second = _random_lines(rng, rng.randrange(1, 30)) + b"\n"
    pad = b"x" * abs(len(first) - len(second))
    return (pad + first, second) if len(first) < len(second) else (first, pad + second)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("special", [pytest.param(b, id=n) for n, b in _AT_CUT])
def test_break_ending_the_first_half(tmp_path, monkeypatch, cuts, special, seed):
    # Halves of equal length around it: half the size falls inside its
    # line, so the cut is that line's own "\n".
    head, tail = _halves(random.Random(seed))
    line = b"1234  open(x) = 3" + special + b"\n"
    path = tmp_path / "a.log"
    path.write_bytes(head + line + tail)
    manifest = [(str(path), "M", "a")]
    _assert_judged(manifest, _assert_split_is_serial(manifest, monkeypatch))
    assert cuts[str(path)] == len(head) + len(line)


@pytest.mark.parametrize("final_newline", [True, False], ids=["lf", "no-final-lf"])
@pytest.mark.parametrize("special", [pytest.param(b, id=n) for n, b in _AT_CUT])
def test_break_starting_the_second_half(tmp_path, monkeypatch, cuts, special, final_newline):
    # One first line longer than all after it holds half the size.
    pad = b"write(1, " + b"y" * 300 + b") = 300\n"
    tail = special + b"\nclose(4) = 0" + (b"\n" if final_newline else b"")
    path = tmp_path / "a.log"
    path.write_bytes(pad + tail)
    manifest = [(str(path), "B", "a")]
    _assert_judged(manifest, _assert_split_is_serial(manifest, monkeypatch))
    assert cuts[str(path)] == len(pad)


def test_unfinished_call_in_one_half_resumed_in_the_other(tmp_path, monkeypatch, cuts):
    head, tail = _halves(random.Random(7))
    second = _RESUMED + b"\n" + tail
    # Ten bytes longer than the second half: half the size falls in the
    # unfinished head's line.
    first = head + _UNFINISHED + b"\n"
    first = b"x" * (len(second) + 10 - len(first)) + first
    path = tmp_path / "a.log"
    path.write_bytes(first + second)
    manifest = [(str(path), "M", "a")]
    got = _assert_split_is_serial(manifest, monkeypatch)
    _assert_judged(manifest, got)
    assert cuts[str(path)] == len(first)
    assert got[1][0].by_kind["unfinished"] >= 1 and got[1][0].by_kind["resumed"] >= 1


@pytest.mark.parametrize("content", [b"close(3) = 0\n", b"close(3) = 0", b"", b"\n",
                                     b"open(x) = 3\r\nclose(3) = 0\r"],
                         ids=["one-line", "one-line-no-lf", "empty", "blank", "cr-only-after"])
def test_log_with_no_line_in_its_second_half_is_one_piece(tmp_path, monkeypatch, forks, cuts,
                                                          content):
    path = tmp_path / "a.log"
    path.write_bytes(content)
    other = tmp_path / "b.log"
    other.write_bytes(b"read(3) = 1\n" * 5)
    manifest = [(str(path), "M", "a"), (str(other), "B", "b")]
    _assert_judged(manifest, _assert_split_is_serial(manifest, monkeypatch))
    assert str(path) not in cuts and str(other) in cuts
    assert len(forks) == 1


def test_log_of_exactly_split_bytes_is_cut(tmp_path, monkeypatch, forks, cuts):
    line = b"1234  close(3) = 0\n"
    exact, short = tmp_path / "exact.log", tmp_path / "short.log"
    exact.write_bytes(line * 64)
    short.write_bytes(line * 64)
    short.write_bytes(short.read_bytes()[:-1])
    size = exact.stat().st_size
    monkeypatch.setattr(ingest, "SPLIT_BYTES", size)
    result = ingest_corpus([(str(exact), "M", "a"), (str(short), "B", "b")])
    _no_child_left()
    assert cuts == {str(exact): size // 2 + len(line)}  # half the size starts a line
    assert len(forks) == 1
    monkeypatch.setattr(ingest, "SPLIT_BYTES", SERIAL)
    serial = ingest_corpus([(str(exact), "M", "a"), (str(short), "B", "b")])
    _assert_same((result.corpus, result.summaries), (serial.corpus, serial.summaries))


# ---- errors in serial order ----

def _logs(tmp_path, n, lines=20):
    """n logs of random lines, each line followed by a "\\n"."""
    paths = []
    for i in range(n):
        rng = random.Random(i)
        path = tmp_path / f"log{i}.log"
        path.write_bytes(b"".join(_random_lines(rng, 1) + b"\n" for _ in range(lines)))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("where", ["before-duplicate", "after-duplicate"])
@pytest.mark.parametrize("unreadable", ["missing", "directory"])
def test_unreadable_log_and_duplicate_raise_the_serial_error(tmp_path, monkeypatch, where,
                                                             unreadable):
    paths = _logs(tmp_path, 5)
    bad = str(tmp_path / "nope.log") if unreadable == "missing" else str(tmp_path)
    rows = [(p, "MB"[i % 2], f"s{i}") for i, p in enumerate(paths)]
    rows.insert(3, (paths[0], "M", "s0"))  # the duplicate
    rows.insert(2 if where == "before-duplicate" else 5, (bad, "X", "bad"))  # read error first
    got = _assert_split_is_serial(rows, monkeypatch)
    assert got.startswith("cannot read trace log" if where == "before-duplicate" else
                          "duplicate sample_id")


def test_bad_label_in_a_cut_log_raises_the_serial_error(tmp_path, monkeypatch, forks, cuts):
    paths = _logs(tmp_path, 6)
    rows = [(p, "MB"[i % 2], f"s{i}") for i, p in enumerate(paths)]
    # Every log is cut, so row i's halves are jobs 2i and 2i + 1 and the
    # bad label raises in both processes; a later unreadable log and a
    # later bad label must not win.
    rows[2] = (rows[2][0], "X", rows[2][2])
    rows[4] = (str(tmp_path / "missing.log"), "Y", "s4")
    got = _assert_split_is_serial(rows, monkeypatch)
    assert got == "label must be one of ('M', 'B'), got 'X'"
    assert len(cuts) == 5 and len(forks) == 1


@pytest.mark.parametrize("k", [3, 2], ids=["child-job", "caller-job"])
def test_bad_label_in_one_process_raises_the_serial_error(tmp_path, monkeypatch, forks, k):
    # No log is cut: job i is row i, the child parses the odd ones. Row 4,
    # the caller's, is unreadable and badly labelled too, and row 5 is
    # badly labelled in the child; only row k's error is the serial one.
    monkeypatch.setattr(ingest, "second_half_start", lambda path: None)
    paths = _logs(tmp_path, 6)
    rows = [(p, "MB"[i % 2], f"s{i}") for i, p in enumerate(paths)]
    rows[k] = (rows[k][0], "", rows[k][2])
    rows[4] = (str(tmp_path / "missing.log"), "Y", "s4")
    rows[5] = (rows[5][0], "Z", rows[5][2])
    assert _assert_split_is_serial(rows, monkeypatch) == "label must be one of ('M', 'B'), got ''"
    assert len(forks) == 1


# ---- pinned bytes on the split path ----

@pytest.mark.parametrize("seed", sorted(_PINNED_INGEST))
def test_ingest_outputs_pinned_with_every_log_cut(tmp_path, monkeypatch, forks, cuts, seed):
    _write_strace_corpus(tmp_path, seed)
    monkeypatch.chdir(tmp_path)  # summary.json names logs by the manifest's relative paths
    monkeypatch.setattr(ingest, "SPLIT_BYTES", 1)
    assert main(["ingest", "--manifest", "manifest.csv", "--out-dir", "out"]) == 0
    _no_child_left()
    assert sorted(Path(p).name for p in cuts) == [f"s{i}.log" for i in range(6)]
    assert len(forks) == 1
    for name, digest in _PINNED_INGEST[seed].items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name


# ---- fallbacks ----

def test_failed_fork_gives_the_serial_result(tmp_path, monkeypatch):
    def no_fork():
        raise OSError("no process to spare")

    paths = _logs(tmp_path, 4)
    rows = [(p, "MB"[i % 2], f"s{i}") for i, p in enumerate(paths)]
    serial = _ingest(rows, monkeypatch, SERIAL)
    monkeypatch.setattr(os, "fork", no_fork)
    _assert_same(_ingest(rows, monkeypatch, SPLIT), serial)


@pytest.mark.parametrize("after", [0, 2], ids=["at-once", "after-two-pieces"])
def test_child_exiting_early_gives_the_serial_result(tmp_path, monkeypatch, forks, after):
    paths = _logs(tmp_path, 4)
    rows = [(p, "MB"[i % 2], f"s{i}") for i, p in enumerate(paths)]
    serial = _ingest(rows, monkeypatch, SERIAL)
    parent, tally, done = os.getpid(), ingest._tally, []

    def dying_tally(lines, label):
        if os.getpid() != parent:
            if len(done) == after:
                os._exit(3)
            done.append(1)
        return tally(lines, label)

    monkeypatch.setattr(ingest, "_tally", dying_tally)
    _assert_same(_ingest(rows, monkeypatch, SPLIT), serial)
    assert len(forks) == 1


@pytest.mark.parametrize("closed_by", ["one-cpu", "another-thread"])
def test_cut_logs_are_parsed_here_when_no_child_may_be_forked(tmp_path, monkeypatch, forks,
                                                                cuts, closed_by):
    paths = _logs(tmp_path, 4)
    rows = [(p, "MB"[i % 2], f"s{i}") for i, p in enumerate(paths)]
    serial = _ingest(rows, monkeypatch, SERIAL)
    if closed_by == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        got = _ingest(rows, monkeypatch, SPLIT)
    else:
        with another_thread():
            got = _ingest(rows, monkeypatch, SPLIT)
    assert sorted(cuts) == sorted(paths) and forks == []
    _assert_same(got, serial)


def test_small_manifest_never_forks(tmp_path, monkeypatch, cuts):
    def no_fork():
        raise AssertionError("a manifest below SPLIT_BYTES forked")

    monkeypatch.setattr(os, "fork", no_fork)
    paths = _logs(tmp_path, 6, lines=200)
    rows = [(p, "MB"[i % 2], f"s{i}") for i, p in enumerate(paths)]
    total = sum(Path(p).stat().st_size for p in paths)
    assert total < ingest.SPLIT_BYTES
    want = ingest_corpus(rows).summaries
    monkeypatch.setattr(ingest, "SPLIT_BYTES", total + 1)
    assert ingest_corpus(rows).summaries == want
    assert cuts == {}
    _no_child_left()


def test_small_logs_holding_split_bytes_in_all_fork_uncut(tmp_path, monkeypatch, forks, cuts):
    paths = _logs(tmp_path, 5)
    rows = [(p, "MB"[i % 2], f"s{i}") for i, p in enumerate(paths)]
    serial = _ingest(rows, monkeypatch, SERIAL)
    total = sum(Path(p).stat().st_size for p in paths)
    _assert_same(_ingest(rows, monkeypatch, total), serial)
    assert cuts == {} and len(forks) == 1


def test_small_ingest_loads_no_fork_helper(tmp_path):
    paths = _logs(tmp_path, 3)
    rows = [(p, "M", f"s{i}") for i, p in enumerate(paths)]
    src = str(Path(callselect.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import callselect.cli as cli; "
            f"cli.ingest_corpus({rows!r}); print('callselect.forked' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
