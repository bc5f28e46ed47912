"""Trace parsing: line grammar, log counting, manifests, and totality."""

import hashlib
import json
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from callselect import (
    CallCountRecord,
    ConfigError,
    Corpus,
    ingest_corpus,
    parse_line,
    parse_log_detailed,
    read_manifest,
    read_records_jsonl,
    reference_parse_line,
    write_records_jsonl,
)
from callselect.cli import main
from callselect.ingest import LINE_KINDS
from callselect.synth import default_spec, generate
from conftest import assert_same_corpus

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
    rec = parse_log_detailed(lines, sample_id="a", label="M")[0]
    assert rec.counts == {"open": 1, "read": 1}
    assert rec.total_calls == 2


def test_empty_log_yields_empty_record():
    rec = parse_log_detailed([], sample_id="e", label="B")[0]
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
    assert result.corpus.sample_ids == ("s-one", "s-two")
    assert_same_corpus(result.corpus, Corpus.from_records([
        CallCountRecord(sample_id="s-one", label="M", counts={"open": 2}, total_calls=2),
        CallCountRecord(sample_id="s-two", label="B", counts={"close": 1}, total_calls=1),
    ]))
    assert result.corpus.labels[1] == "B"


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
    assert_same_corpus(result.corpus, Corpus.from_records([
        CallCountRecord(sample_id="s1", label="B", counts={"close": 1, "open": 1}, total_calls=2),
    ]))


def test_records_jsonl_roundtrip(tmp_path):
    recs = [
        CallCountRecord(sample_id="a", label="M", counts={"open": 2, "read": 1}, total_calls=3),
        CallCountRecord(sample_id="b", label="B", counts={}, total_calls=0),
    ]
    p = tmp_path / "records.jsonl"
    write_records_jsonl(Corpus.from_records(recs), p)
    back = read_records_jsonl(p)
    assert_same_corpus(back, Corpus.from_records(recs))
    # the serialized form stays plain JSON-per-line
    first = json.loads(p.read_text().splitlines()[0])
    assert set(first) == {"sample_id", "label", "counts", "total"}


def _reference_records_jsonl(corpus, path):
    """The writer as it was: a dict per row through json.dumps(sort_keys=True)."""
    bounds = corpus.indptr.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sample_id, label, a, b in zip(corpus.sample_ids, corpus.labels, bounds, bounds[1:]):
            counts = corpus.counts[a:b].tolist()
            names = map(corpus.calls.__getitem__, corpus.indices[a:b].tolist())
            obj = {"sample_id": sample_id, "label": label,
                   "counts": dict(zip(names, counts)), "total": sum(counts)}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _assert_writer_matches_reference(corpus, tmp_path):
    _reference_records_jsonl(corpus, tmp_path / "want.jsonl")
    write_records_jsonl(corpus, tmp_path / "got.jsonl")
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("per_class, calls", [(40, 30), (3, 300), (1, 8)])
def test_records_writer_matches_reference_on_synth(tmp_path, seed, per_class, calls):
    spec = default_spec(samples_per_class=per_class, vocabulary_size=calls, seed=seed)
    _assert_writer_matches_reference(generate(spec)[0], tmp_path)


def test_records_writer_matches_reference_on_awkward_rows(tmp_path):
    """Names JSON escapes, rows out of key order, an empty row, a one-call row."""
    awkward = ['q"uote', "back\\slash", "\u00fc", "line\u2028sep", "ctl\x01", "plain"]
    recs = [
        CallCountRecord("s\"1", "M", {name: i + 1 for i, name in enumerate(awkward)}, 21),
        CallCountRecord("s2", "B", {"zeta": 3, "alpha": 1, "plain": 2**40, "mid": 5}, 2**40 + 9),
        CallCountRecord("\u00e9t\u00e9", "B", {}, 0),
        CallCountRecord("s4", "M", {"ctl\x01": 7}, 7),
        CallCountRecord("s5", "M", dict(reversed([(name, 2) for name in awkward])), 12),
    ]
    corpus = Corpus.from_records(recs)
    a, b, c = corpus.indptr[1:4]
    assert (np.diff(corpus.indices[a:b]) < 0).any() and b == c  # unsorted, then empty
    _assert_writer_matches_reference(corpus, tmp_path)


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


@pytest.mark.parametrize(
    "counts, message",
    [
        # "read" is new on this line, so its column ids are looked up twice
        ('{"open": -1, "read": 3}', "count for 'open' must be >= 1, got -1"),
        ('{"open": 1, "close": 0}', "count for 'close' must be >= 1, got 0"),
        ('{"open": 9223372036854775808}', ".*too large"),
    ],
    ids=["new-call", "second-key", "past-int64"],
)
def test_records_jsonl_bad_count_named(tmp_path, counts, message):
    p = tmp_path / "records.jsonl"
    total = sum(json.loads(counts).values())
    p.write_text('{"sample_id": "a", "label": "M", "counts": {"open": 2}, "total": 2}\n'
                 f'{{"sample_id": "b", "label": "B", "counts": {counts}, "total": {total}}}\n')
    with pytest.raises(ConfigError, match=r"bad record on line 2 of '.*': " + message):
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
    rec = parse_log_detailed(lines, sample_id="p", label="M")[0]
    rev = parse_log_detailed(list(reversed(lines)), sample_id="p", label="M")[0]
    assert rec.counts == rev.counts
    assert rec.total_calls == sum(rec.counts.values())


# ---- the one-grammar classifier against the step-by-step reference ----

def _digits(min_size=1, max_size=4):
    return st.text(st.sampled_from("0123456789\u0661\u0662"), min_size=min_size, max_size=max_size)


def _prefix(sep):
    """A pid column then a timestamp, each optional, each followed by sep."""
    pid = st.just("") | st.builds("[pid{}{}]{}".format, sep, _digits(), sep) \
        | st.builds("{}{}".format, _digits(), sep)
    stamp = st.just("") \
        | st.builds("{}:{}:{}{}{}".format, _digits(1, 2), _digits(2, 2), _digits(2, 2),
                    st.sampled_from(["", ".5", ".123456"]), sep) \
        | st.builds("{}.{}{}".format, _digits(), _digits(), sep)
    return st.builds("{}{}".format, pid, stamp)


_GAP = st.text(st.sampled_from(" \t\xa0\u2003"), max_size=2)
_SEP = st.sampled_from([" ", "  ", "\t", "\xa0", "\u2003 "])
_TEXT = st.text(st.sampled_from("az (),=<>.+-_\n\xa0\u0661"), max_size=6)
_MARK = st.sampled_from(["", "<unfinished ...>", " <unfinished", "resumed>", "<... ", "+++", "---"])
_FILL = st.builds("{}{}{}".format, _TEXT, _MARK, _TEXT)
_NAME = st.builds("{}{}".format, st.sampled_from("arZ_"),
                  st.text(st.sampled_from("az_Z09"), max_size=5))


def _run(mark):
    return st.integers(3, 7).map(lambda n: mark * n)


# Well-formed heads, each maybe followed by look-alike text.
_BODY = st.one_of(
    st.builds("{}{}{}".format, _run("+"), st.just("") | _FILL, st.just("") | _run("+")),
    st.builds("{}{}{}".format, _run("-"), st.just("") | _FILL, st.just("") | _run("-")),
    st.builds("<... {} resumed{}".format, _NAME, _FILL),
    st.builds("{}({}".format, _NAME, _FILL),
    st.builds("{}({}<unfinished ...>{}".format, _NAME, _FILL, _GAP),
)
# Broken pieces: a separator missing or a "." with no fraction, a leading
# digit, "(" or "[pid] " before the head, names that are not identifiers,
# bare filler text.
_BAD_NAME = st.text(st.sampled_from("a9\xe9_ "), max_size=3)
_ROUGH_BODY = st.builds(
    "{}{}".format,
    st.sampled_from(["", "(", "12", "\u0661", "[pid] "]),
    _BODY | _FILL | st.builds("<... {} resumed{}".format, _BAD_NAME, _FILL)
    | st.builds("{}({}".format, _BAD_NAME, _FILL),
)
_TRACE_LINE = st.one_of(
    st.builds("{}{}{}{}".format, _GAP, _prefix(_SEP), _BODY, _GAP),
    st.builds("{}{}{}{}".format, _GAP, _prefix(_SEP | st.just("")),
              _ROUGH_BODY | st.builds("{}.{}".format, _digits(), _BODY), _GAP),
)


@settings(max_examples=300)
@given(_TRACE_LINE)
def test_parse_line_matches_reference(line):
    assert parse_line(line) == reference_parse_line(line)


@settings(max_examples=100)
@given(st.lists(_TRACE_LINE, max_size=20))
def test_parse_log_detailed_matches_reference_tally(lines):
    ref = [reference_parse_line(line) for line in lines]
    counts = Counter(t.call_name for t in ref if t.kind in ("call", "unfinished"))
    record, summary = parse_log_detailed(lines, sample_id="x", label="M")
    assert list(record.counts.items()) == sorted(counts.items())
    assert record.total_calls == sum(counts.values())
    assert list(summary.by_kind.items()) == [
        (kind, sum(t.kind == kind for t in ref)) for kind in LINE_KINDS
    ]


# ---- pinned ingest output ----

_PREFIXES = ("", "1234  ", "[pid  77] ", "[pid 9] 10:00:01.5 ", "10:00:01 ",
             "10:00:01.123456 ", "1697623201.123456 ", "42 1697623201.5 ")
_BODIES = {
    "call": (b'open("/data/f", O_RDONLY) = 3', b'read(3, "\\177ELF", 832) = 832',
             b"close(3) = 0", b'write(1, "\xff\xfe\x00", 3) = 3', b"mmap(NULL, 4096) = 0x7f00"),
    "unfinished": (b"read(5,  <unfinished ...>",
                   b"futex(0x7f1, FUTEX_WAIT_PRIVATE, 0, NULL <unfinished ...>"),
    "resumed": (b'<... read resumed> "x", 1) = 1', b"<... futex resumed> ) = 0"),
    "signal": (b"--- SIGCHLD {si_signo=SIGCHLD} ---", b"--- SIGSEGV {si_addr=0} ---"),
    "exit": (b"+++ exited with 0 +++", b"+++ killed by SIGKILL +++", b"+++"),
    "garbage": (b"", b"   ", b"strace: Process 1236 attached", b"(3) = 0", b"12ab close(3)",
                b"op\xffen(3) = 0", b"\xc3\x28 junk <unfinished ...>", b"------"),
}
_LINE_ENDS = (b"\n", b"\r\n", b"\r", "\u2028".encode(), "\x85".encode(), b"\x0c")


def _write_strace_corpus(root: Path, seed: int) -> None:
    """Seeded strace logs mixing every line kind, prefix and line end, plus a manifest."""
    rng = random.Random(seed)
    rows = ["path,label,sample_id"]
    for i in range(6):
        chunks = []
        for _ in range(rng.randrange(20, 60)):
            body = rng.choice(_BODIES[rng.choice(LINE_KINDS)])
            chunks.append(rng.choice(_PREFIXES).encode() + body + rng.choice(_LINE_ENDS))
        (root / f"s{i}.log").write_bytes(b"".join(chunks))
        rows.append(f"s{i}.log,{'MB'[i % 2]},sample-{i}")
    (root / "manifest.csv").write_text("\n".join(rows) + "\n")


# SHA-256 of ingest's records.jsonl and summary.json on the seeded corpus
# above, recorded from the step-by-step classifier and the universal-newline
# file reader.
_PINNED_INGEST = {
    1: {
        "records.jsonl": "1b28756e222cc73b5709701669ffdf8788a4cff5fdca6a75ab901f2507b95c27",
        "summary.json": "fb60105e9842cf28ce0f4555260487d20eb5067306c6146fe8684c5ecfde3091",
    },
    2: {
        "records.jsonl": "ef46642985645c6c9931df72b5e6d54bf6d45665595a977cebe18f80121c5c4c",
        "summary.json": "d455142317f2f8ca712688d4274b089ab09ff475606c9682589eb8970310e5fe",
    },
}


@pytest.mark.parametrize("seed", sorted(_PINNED_INGEST))
def test_ingest_outputs_pinned(tmp_path, monkeypatch, seed):
    _write_strace_corpus(tmp_path, seed)
    monkeypatch.chdir(tmp_path)  # summary.json names logs by the manifest's relative paths
    assert main(["ingest", "--manifest", "manifest.csv", "--out-dir", "out"]) == 0
    for name, digest in _PINNED_INGEST[seed].items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name
