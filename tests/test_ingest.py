"""Trace parsing: line grammar, log counting, manifests, and totality."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from callselect import (
    CallCountRecord,
    ConfigError,
    ingest_corpus,
    parse_line,
    parse_log,
    parse_log_detailed,
    read_manifest,
    read_records_jsonl,
    write_records_jsonl,
)
from callselect.ingest import LINE_KINDS

DATA = Path(__file__).parent / "data"


def test_call_line():
    t = parse_line('open("/data/f", O_RDONLY) = 3')
    assert t.kind == "call"
    assert t.call_name == "open"


def test_unfinished_line():
    t = parse_line("read(5,  <unfinished ...>")
    assert t.kind == "unfinished"
    assert t.call_name == "read"


def test_resumed_line():
    t = parse_line('<... read resumed> "x", 832) = 832')
    assert t.kind == "resumed"
    assert t.call_name == "read"


def test_signal_line():
    t = parse_line("--- SIGSEGV {si_signo=SIGSEGV} ---")
    assert t.kind == "signal"
    assert t.call_name is None


def test_exit_line():
    assert parse_line("+++ exited with 0 +++").kind == "exit"
    assert parse_line("+++ killed by SIGKILL +++").kind == "exit"


def test_pid_prefix_stripped():
    t = parse_line("1234  close(3) = 0")
    assert t.kind == "call"
    assert t.call_name == "close"
    # the pid token must be an entire leading integer word, not a digit prefix
    assert parse_line("12ab close(3)").kind == "garbage"


@pytest.mark.parametrize(
    "line, kind, name",
    [
        # strace -f on a terminal writes "[pid N]" instead of the bare column
        ("[pid  1234] close(3) = 0", "call", "close"),
        ("[pid 7] read(3, <unfinished ...>", "unfinished", "read"),
        ("[pid  1234] <... read resumed> ) = 1", "resumed", "read"),
        ("[pid  1234] --- SIGCHLD {si_signo=SIGCHLD} ---", "signal", None),
        ("[pid  1234] +++ exited with 0 +++", "exit", None),
        # strace -t, -tt and -ttt timestamps, alone and after either pid form
        ("10:00:01 close(3) = 0", "call", "close"),
        ("10:00:01.123456 close(3) = 0", "call", "close"),
        ("1697623201.123456 close(3) = 0", "call", "close"),
        ("1234  10:00:01.123456 close(3) = 0", "call", "close"),
        ("[pid  1234] 10:00:01 close(3) = 0", "call", "close"),
        ('[pid  1234] 1697623201.123456 write(1, "x", 1) = 1', "call", "write"),
        ("10:00:01.123456 read(3, <unfinished ...>", "unfinished", "read"),
        ("10:00:01 --- SIGCHLD {} ---", "signal", None),
        # look-alikes stay garbage
        ("[ Process PID=1234 runs in 32 bit mode. ]", "garbage", None),
        ("strace: Process 1236 attached", "garbage", None),
        ("[pid] close(3) = 0", "garbage", None),
        ("[pid  1234]close(3) = 0", "garbage", None),
        ("[pid  1234]", "garbage", None),
        ("10:00 close(3) = 0", "garbage", None),
        ("1234 5678 close(3) = 0", "garbage", None),
    ],
)
def test_pid_and_timestamp_prefixes(line, kind, name):
    t = parse_line(line)
    assert (t.kind, t.call_name) == (kind, name)


def test_garbage_lines():
    for line in ("", "   ", "= 99", "whatever text", "<incomplete", "(3) = 0"):
        assert parse_line(line).kind == "garbage"


def test_unfinished_marker_must_follow_open_paren():
    # "<unfinished ...>" belongs to the argument tail, not the call name
    t = parse_line("poll([{fd=4}], 1, -1 <unfinished ...>")
    assert t.kind == "unfinished"
    assert t.call_name == "poll"


def test_counting_rule_three_line_example():
    lines = [
        'open("/etc/passwd", O_RDONLY) = 3',
        "read(3, <unfinished ...>",
        '<... read resumed> "root", 100) = 100',
    ]
    rec = parse_log(lines, sample_id="a", label="M")
    assert rec.counts == {"open": 1, "read": 1}
    assert rec.total_calls == 2


def test_empty_log_yields_empty_record():
    rec = parse_log([], sample_id="e", label="B")
    assert rec.counts == {}
    assert rec.total_calls == 0


def _oracle_tally(lines):
    """Independent count: a line contributes iff it opens a call that is not
    a resumption, judged with plain string checks rather than the module regexes."""
    counts = {}
    for raw in lines:
        s = raw.strip()
        m = re.match(r"\d+\s+", s)
        if m:
            s = s[m.end():]
        if s.startswith("<...") or s.startswith("---") or s.startswith("+++"):
            continue
        head = s.split("(", 1)[0]
        if "(" in s and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", head):
            counts[head] = counts.get(head, 0) + 1
    return counts


def test_hand_tally_fixture():
    lines = (DATA / "hand_tally.log").read_text().splitlines()
    rec, summary = parse_log_detailed(lines, sample_id="fix", label="B")
    expected = {
        "execve": 1,
        "brk": 1,
        "open": 2,
        "read": 2,
        "close": 1,
        "write": 1,
        "ioctl": 1,
        "futex": 1,
        "mmap": 2,
        "restart_syscall": 1,
    }
    assert rec.counts == expected
    assert rec.total_calls == 13
    assert summary.by_kind == {
        "call": 11,
        "unfinished": 2,
        "resumed": 2,
        "signal": 1,
        "exit": 2,
        "garbage": 3,
    }
    assert rec.counts == _oracle_tally(lines)


def test_manifest_roundtrip(tmp_path):
    (tmp_path / "one.log").write_text('open("x") = 3\nopen("y") = 4\n')
    (tmp_path / "two.log").write_text("close(3) = 0\n")
    man = tmp_path / "manifest.csv"
    man.write_text(
        "path,label,sample_id\n"
        "one.log,M,s-one\n"
        "two.log,B,s-two\n"
    )
    entries = read_manifest(man)
    result = ingest_corpus(entries)
    assert [r.sample_id for r in result.records] == ["s-one", "s-two"]
    assert result.records[0].counts == {"open": 2}
    assert result.records[1].label == "B"


def test_manifest_bad_header(tmp_path):
    man = tmp_path / "m.csv"
    man.write_text("file,label,sample_id\na.log,M,s1\n")
    with pytest.raises(ConfigError):
        read_manifest(man)


def test_manifest_bad_label(tmp_path):
    man = tmp_path / "m.csv"
    man.write_text("path,label,sample_id\na.log,X,s1\n")
    with pytest.raises(ConfigError, match="label"):
        read_manifest(man)


def test_duplicate_sample_id_rejected(tmp_path):
    (tmp_path / "a.log").write_text("open() = 1\n")
    with pytest.raises(ConfigError, match="dup"):
        ingest_corpus(
            [
                (str(tmp_path / "a.log"), "M", "dup"),
                (str(tmp_path / "a.log"), "B", "dup"),
            ]
        )


def test_unreadable_path_rejected(tmp_path):
    missing = tmp_path / "no_such.log"
    with pytest.raises(ConfigError, match="no_such"):
        ingest_corpus([(str(missing), "M", "s1")])


def test_lossy_decode_of_binary_log(tmp_path):
    p = tmp_path / "bin.log"
    p.write_bytes(b'open("\xff\xfe\x00garbled") = 3\nclose(3) = 0\n')
    result = ingest_corpus([(str(p), "B", "s1")])
    assert result.records[0].counts == {"open": 1, "close": 1}


def test_records_jsonl_roundtrip(tmp_path):
    recs = [
        CallCountRecord(sample_id="a", label="M", counts={"open": 2, "read": 1}, total_calls=3),
        CallCountRecord(sample_id="b", label="B", counts={}, total_calls=0),
    ]
    p = tmp_path / "records.jsonl"
    write_records_jsonl(recs, p)
    back = read_records_jsonl(p)
    assert back == recs
    # the serialized form stays plain JSON-per-line
    first = json.loads(p.read_text().splitlines()[0])
    assert set(first) == {"sample_id", "label", "counts", "total"}


@pytest.mark.parametrize(
    "bad",
    [
        "not json",
        '{"sample_id": "b", "label": "M", "counts": [], "total": 0}',
        '{"sample_id": "b", "label": "M", "counts": {"open": 1.5}, "total": 1}',
        '{"sample_id": "b", "label": "M", "counts": {"open": "3"}, "total": 3}',
        '{"sample_id": "b", "label": "M", "counts": {"open": true}, "total": 1}',
        '{"sample_id": "b", "label": "M", "counts": {"open": 1}, "total": 1.0}',
        '{"sample_id": 7, "label": "M", "counts": {}, "total": 0}',
        '{"sample_id": "b", "label": "M", "counts": {"open": 0}, "total": 0}',
        '{"sample_id": "b", "label": "M", "counts": {"open": 2}, "total": 3}',
        '{"sample_id": "b", "label": "X", "counts": {}, "total": 0}',
        '{"sample_id": "b", "label": "M", "counts": {}}',
        '["b", "M", {}, 0]',
    ],
    ids=["not-json", "counts-list", "float-count", "string-count", "bool-count",
         "float-total", "int-sample_id", "zero-count", "total-mismatch", "bad-label",
         "no-total", "array"],
)
def test_records_jsonl_bad_line_named(tmp_path, bad):
    p = tmp_path / "records.jsonl"
    p.write_text('{"sample_id": "a", "label": "M", "counts": {}, "total": 0}\n' + bad + "\n")
    with pytest.raises(ConfigError, match="line 2"):
        read_records_jsonl(p)


@given(st.text())
def test_parse_line_total_on_text(line):
    t = parse_line(line)
    assert t.kind in LINE_KINDS
    if t.kind in ("call", "unfinished", "resumed"):
        assert t.call_name


@given(st.binary(max_size=200))
def test_parse_line_total_on_bytes(raw):
    # file readers decode lossily before hitting the grammar
    t = parse_line(raw.decode("utf-8", errors="replace"))
    assert t.kind in LINE_KINDS


@given(
    st.lists(
        st.sampled_from(
            [
                "open() = 1",
                "read(3) = 0",
                "--- SIGX {} ---",
                "junk",
                "write(1, <unfinished ...>",
                "<... write resumed> ) = 5",
            ]
        ),
        max_size=40,
    )
)
def test_counts_invariant_under_permutation(lines):
    rec = parse_log(lines, sample_id="p", label="M")
    rev = parse_log(list(reversed(lines)), sample_id="p", label="M")
    assert rec.counts == rev.counts
    assert rec.total_calls == sum(rec.counts.values())
