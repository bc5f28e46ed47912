"""Parse strace-style trace logs into per-sample system-call counts.

Parsing is total: every line is classified into exactly one kind and
nothing raises on malformed input. Unparseable lines become "garbage",
which is a classification, not an error. Only completed calls and
unfinished call heads are counted; "resumed" continuations are skipped so
an interrupted call is counted exactly once.
"""
from __future__ import annotations

import csv
import io
import json
import os
import pickle
import re
import stat
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError

LINE_KINDS = ("call", "unfinished", "resumed", "signal", "exit", "garbage")

LABELS = ("M", "B")

# The line grammar, matched against the stripped line. An optional pid
# column emitted by strace -f, then an optional timestamp from strace -t,
# -tt or -ttt, then exactly one of:
#   exit      "+++ exited with 0 +++"  (starts and ends with "+++")
#   signal    "--- SIGCHLD {si_signo=SIGCHLD} ---"  (longer than "------")
#   resumed   '<... read resumed> "\\x7fELF", 832) = 832'
#   call      'openat(AT_FDCWD, "/etc/ld.so.cache", O_RDONLY) = 3', the
#             maximal identifier prefix immediately followed by "("
# Prefix examples: "1234  close(3) = 0" (log file), "[pid  1234] close(3) = 0"
# (terminal), "10:00:01.123456 close(3) = 0", "1697623201.123456 close(3) = 0".
# No shorter prefix can start an alternative (each starts with "+", "-",
# "<" or a letter or "_"), so backtracking never finds a different match.
# DOTALL because a caller of parse_line may pass a string holding "\n".
_LINE = re.compile(
    r"(?:(?:\[pid\s+\d+\]|\d+)\s+)?"
    r"(?:(?:\d{1,2}:\d{2}:\d{2}(?:\.\d+)?|\d+\.\d+)\s+)?"
    r"(?:(?P<exit>\+\+\+(?:.*\+\+\+|\+{0,2})\Z)"
    r"|(?P<signal>---.+---\Z)"
    r"|<\.\.\. (?P<resumed>[A-Za-z_][A-Za-z0-9_]*) resumed"
    r"|(?P<call>[A-Za-z_][A-Za-z0-9_]*)\()",
    re.DOTALL,
)


@dataclass(frozen=True)
class TraceLine:
    """One classified log line."""

    kind: str
    call_name: str | None = None


@dataclass(frozen=True)
class CallCountRecord:
    """One log's call counts from parse_log_detailed; ingest_corpus packs them into a Corpus."""

    sample_id: str
    label: str
    counts: dict[str, int]
    total_calls: int


@dataclass(frozen=True, eq=False)
class Corpus:
    """Call counts of many samples in compressed sparse rows: sample i made
    counts[k] calls of calls[indices[k]] for k in indptr[i]:indptr[i+1].
    A sample's total is the sum of its counts."""

    sample_ids: tuple[str, ...]
    labels: tuple[str, ...]
    calls: tuple[str, ...]  # sorted, distinct
    indptr: np.ndarray  # int64, len(sample_ids) + 1
    indices: np.ndarray  # int32 column ids into calls
    counts: np.ndarray  # int64, each >= 1

    def __post_init__(self) -> None:
        """Check the layout above; a call repeated within a row is not checked (a sort per row)."""
        ptr, ids, n = self.indptr, self.indices, len(self.sample_ids)
        if len(self.labels) != n or ptr.shape != (n + 1,):
            raise ConfigError("sample ids, labels and indptr must align")
        if ptr[0] != 0 or not ptr[-1] == ids.size == self.counts.size or (np.diff(ptr) < 0).any():
            raise ConfigError("indptr must rise from 0 to the number of counts")
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.calls) or self.counts.min() < 1):
            raise ConfigError("column ids must lie in [0, len(calls)), counts must be >= 1")
        if any(a >= b for a, b in zip(self.calls, self.calls[1:])):
            raise ConfigError("calls must be strictly ascending")

    @classmethod
    def from_records(cls, records: list[CallCountRecord]) -> Corpus:
        """Pack records in order; each row keeps its record's key order."""
        calls = sorted({name for r in records for name in r.counts})
        col = {name: j for j, name in enumerate(calls)}
        indptr = np.cumsum([0, *(len(r.counts) for r in records)], dtype=np.int64)
        nnz = int(indptr[-1])
        return cls(
            sample_ids=tuple(r.sample_id for r in records),
            labels=tuple(r.label for r in records),
            calls=tuple(calls),
            indptr=indptr,
            indices=np.fromiter(map(col.__getitem__, chain.from_iterable(
                r.counts for r in records)), np.int32, nnz),
            counts=np.fromiter(chain.from_iterable(
                r.counts.values() for r in records), np.int64, nnz),
        )


@dataclass(frozen=True)
class ParseSummary:
    """Per-file tally of line kinds."""

    sample_id: str
    path: str
    by_kind: dict[str, int] = field(default_factory=dict)

    def total_lines(self) -> int:
        return sum(self.by_kind.values())


@dataclass(frozen=True)
class IngestResult:
    corpus: Corpus
    summaries: list[ParseSummary]


def read_input(path: str | Path, what: str, errors: str = "strict",
               start: int = 0, stop: int | None = None) -> str:
    """The UTF-8 text of the file's bytes [start, stop), the whole file by
    default, with its line ends as written; an unreadable or undecodable
    one is a ConfigError."""
    try:
        with open(Path(path), "rb") as fh:
            if start:
                fh.seek(start)
            data = fh.read() if stop is None else fh.read(stop - start)
        return data.decode("utf-8", errors=errors)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {str(path)!r}: {exc}") from exc


def parse_line(line: str) -> TraceLine:
    """Classify one log line. Never raises."""
    text = line.strip()
    m = _LINE.match(text)
    if m is None:
        return TraceLine("garbage")
    kind = m.lastgroup
    if kind == "call" and "<unfinished" in text:  # neither prefix nor "name(" holds "<"
        kind = "unfinished"
    return TraceLine(kind, m["call"] or m["resumed"])


def _tally(lines: Iterable[str], label: str) -> tuple[dict[str, int], dict[str, int]]:
    """(completed calls and unfinished heads counted by name, lines counted
    by kind); a label not in LABELS is a ConfigError."""
    if label not in LABELS:
        raise ConfigError(f"label must be one of {LABELS}, got {label!r}")
    # parse_line inlined, without a TraceLine per line; defaultdict(int)
    # counts about 3x faster than Counter.
    counts: defaultdict[str, int] = defaultdict(int)
    kinds = {k: 0 for k in LINE_KINDS}
    match = _LINE.match
    for line in lines:
        text = line.strip()
        m = match(text)
        if m is None:
            kinds["garbage"] += 1
            continue
        kind = m.lastgroup
        if kind == "call":
            if "<unfinished" in text:
                kind = "unfinished"
            counts[m["call"]] += 1
        kinds[kind] += 1
    return counts, kinds


def _summed(
    sample_id: str, label: str, path: str, tallies: list[tuple[dict[str, int], dict[str, int]]]
) -> tuple[CallCountRecord, ParseSummary]:
    """The record and summary of a log whose pieces gave tallies."""
    counts: defaultdict[str, int] = defaultdict(int)
    kinds = {k: 0 for k in LINE_KINDS}
    for piece_counts, piece_kinds in tallies:
        for name, n in piece_counts.items():
            counts[name] += n
        for kind, n in piece_kinds.items():
            kinds[kind] += n
    record = CallCountRecord(
        sample_id=sample_id,
        label=label,
        counts=dict(sorted(counts.items())),
        total_calls=sum(counts.values()),
    )
    return record, ParseSummary(sample_id=sample_id, path=path, by_kind=kinds)


def parse_log_detailed(
    lines: Iterable[str], sample_id: str, label: str, path: str = ""
) -> tuple[CallCountRecord, ParseSummary]:
    return _summed(sample_id, label, path, [_tally(lines, label)])


# Records files and trace logs of at least this many bytes are cut in two
# (second_half_start) and parsed by two processes at once where os.fork
# may (forked.can_fork); ingest_corpus also forks for a manifest whose logs
# hold this many bytes in all. Measured on 2 cores in a 100 MB process
# (median of 15, one process against two): records files 128 KiB 3.8
# against 7.6 ms, 512 KiB 14.4 against 14.9 ms, 1 MiB 37.5 against
# 32.4 ms; one trace log 128 KiB 6.2 against 9.1 ms, 512 KiB 12.0 against
# 12.1 ms, 1 MiB 22.5 against 20.0 ms, 2 MiB 48.8 against 36.3 ms; 20
# trace logs holding 512 KiB 12.0 against 17.1 ms, 1 MiB 37.2 against
# 28.9 ms.
SPLIT_BYTES = 1 << 20


def second_half_start(path: str | Path) -> int | None:
    """Where a second process starts reading path: just after the first
    b"\\n" at or after half its size. None when no line starts in the
    second half; an unreadable path raises its OSError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        fh.seek(size // 2)
        mid = size // 2 + len(fh.readline())
    return mid if mid < size else None


def _cut(path: str | Path) -> tuple[int, int | None]:
    """(path's size, where a second process starts reading it): the cut is
    second_half_start for a size of at least SPLIT_BYTES, else None. The
    size is read first, so a FIFO (size 0) is never opened. (0, None) when
    path cannot be sized or cut; its read names the error."""
    try:
        size = os.stat(path).st_size
        return size, second_half_start(path) if size >= SPLIT_BYTES else None
    except OSError:
        return 0, None


def ingest_corpus(manifest: Iterable[tuple[str, str, str]]) -> IngestResult:
    """Parse every log named by (path, label, sample_id) rows, in order.
    The error is the first one met row by row: a sample_id seen before,
    then an unreadable log, then a label not in LABELS.

    A log of at least SPLIT_BYTES is two pieces, cut at second_half_start;
    any other, or one that cannot be sized or cut, is one. A line's kind
    depends on that line alone and a resumed line is never counted, so a
    log's tallies are the sums of its pieces'; a cut just after b"\\n"
    splits no line break and no UTF-8 sequence. When the logs hold at
    least SPLIT_BYTES in all, forked.map_jobs parses the pieces on two
    processes, a cut log's halves one on each, with the same result."""
    rows: list[tuple[str, str, str]] = []
    seen: set[str] = set()
    duplicate = None
    for path, label, sample_id in manifest:
        if sample_id in seen:
            duplicate = sample_id
            break
        seen.add(sample_id)
        rows.append((path, label, sample_id))
    pieces: list[tuple[int, int, int | None]] = []  # (row, start, stop)
    size = 0
    for i, (path, _, _) in enumerate(rows):
        n, mid = _cut(path)
        size += n
        pieces += [(i, 0, None)] if mid is None else [(i, 0, mid), (i, mid, None)]

    def parse(j: int) -> tuple[dict[str, int], dict[str, int]]:
        i, start, stop = pieces[j]
        path, label, _ = rows[i]
        # Trace logs are byte streams of uncertain encoding; decode lossily.
        text = read_input(path, "trace log", errors="replace", start=start, stop=stop)
        return _tally(text.splitlines(), label)

    if size >= SPLIT_BYTES:
        from .forked import map_jobs

        tallies = map_jobs(parse, len(pieces))
    else:
        tallies = [parse(j) for j in range(len(pieces))]
    if duplicate is not None:
        raise ConfigError(f"duplicate sample_id: {duplicate!r}")
    by_row: list[list] = [[] for _ in rows]
    for (i, _, _), tally in zip(pieces, tallies):
        by_row[i].append(tally)
    parsed = [_summed(sample_id, label, str(path), row_tallies)
              for (path, label, sample_id), row_tallies in zip(rows, by_row)]
    return IngestResult(corpus=Corpus.from_records([record for record, _ in parsed]),
                        summaries=[summary for _, summary in parsed])


def read_manifest(path: str | Path) -> list[tuple[str, str, str]]:
    """Read a manifest CSV with header path,label,sample_id.

    Every row must have exactly those three fields. Relative log paths are
    resolved against the manifest's directory.
    """
    manifest_path = Path(path)
    # csv splits the lines, so a quoted path may hold U+2028, U+0085, ...
    reader = csv.DictReader(io.StringIO(read_input(path, "manifest"), newline=""))
    expected = ["path", "label", "sample_id"]
    if reader.fieldnames != expected:
        raise ConfigError(
            f"manifest header must be {','.join(expected)}, got "
            f"{','.join(reader.fieldnames or ['<empty>'])}"
        )
    rows: list[tuple[str, str, str]] = []
    for row in reader:
        # DictReader fills a short row with None and files extra fields under None.
        if None in row or None in row.values():
            raise ConfigError(
                f"manifest line {reader.line_num} of {str(path)!r} must have "
                f"{len(expected)} fields ({','.join(expected)})"
            )
        label = row["label"]
        if label not in LABELS:
            raise ConfigError(
                f"manifest label for {row['sample_id']!r} must be M or B, got {label!r}"
            )
        log_path = Path(row["path"])
        if not log_path.is_absolute():
            log_path = manifest_path.parent / log_path
        rows.append((str(log_path), label, row["sample_id"]))
    return rows


def write_records_jsonl(corpus: Corpus, path: str | Path) -> None:
    """One JSON object per sample, keys sorted; total is the sum of its counts.

    The bytes of json.dumps(obj, sort_keys=True) without building obj: each
    call's key is encoded once, and since calls are sorted, a row whose
    column ids ascend is already in key order; any other row is sorted.
    Each cell '"name": n' with n below a cap is built once and looked up by
    n * len(calls) + column id; the cap keeps the cells no more than the
    counts, and a row holding a count at or above it builds its cells."""
    heads = [json.dumps(name) + ": " for name in corpus.calls]
    ids, counts = corpus.indices, corpus.counts
    width = len(heads)
    cap = min(int(counts.max()) + 1, counts.size // width) if counts.size else 0
    cells = [head + str(n) for n in range(cap) for head in heads]
    # Rows holding an id not above the one before it in the same row.
    steps = np.flatnonzero(ids[1:] <= ids[:-1]) + 1
    rows = np.searchsorted(corpus.indptr, steps, side="right") - 1
    unsorted = set(rows[corpus.indptr[rows] != steps].tolist())
    # Rows holding a count at or above cap, reduced over the nonempty rows.
    filled = np.flatnonzero(np.diff(corpus.indptr))
    big = set(filled[np.logical_or.reduceat(counts >= cap, corpus.indptr[filled])].tolist())
    bounds = corpus.indptr.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, (sample_id, label, a, b) in enumerate(
                zip(corpus.sample_ids, corpus.labels, bounds, bounds[1:])):
            row_ids, row_counts = ids[a:b], counts[a:b]
            if i in unsorted:
                order = np.argsort(row_ids, kind="stable")
                row_ids, row_counts = row_ids[order], row_counts[order]
            if i not in big:  # every count is below cap: no int64 sum overflows
                body = ", ".join(map(cells.__getitem__, (row_counts * width + row_ids).tolist()))
                total = int(row_counts.sum())
            else:
                values = row_counts.tolist()
                body = ", ".join([heads[j] + str(n) for j, n in zip(row_ids.tolist(), values)])
                total = sum(values)
            fh.write(f'{{"counts": {{{body}}}, "label": {json.dumps(label)}, '
                     f'"sample_id": {json.dumps(sample_id)}, "total": {total}}}\n')


def _lines_before(path: str | Path, start: int) -> int:
    """How many lines end before byte start; only an error message needs it."""
    with open(path, "rb") as fh:
        return fh.read(start).count(b"\n")


def _numbered_lines(path: str | Path, start: int, stop: int | None) -> Iterator[tuple[int, str]]:
    """(number from 1 within the span, text) of each line whose first byte
    lies in [start, stop), or from start to the end when stop is None;
    start is 0 or a line's first byte. Lines are cut at b"\\n" and decoded
    alone as UTF-8, which no UTF-8 sequence holds: the pieces of the decoded
    text's split("\\n") without its final empty one, and the file is never
    held whole. An unreadable file or an undecodable line is a ConfigError
    that numbers the line in the whole file."""
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            at = start
            for k, raw in enumerate(fh, start=1):
                if stop is not None and at >= stop:
                    return
                at += len(raw)
                try:
                    yield k, raw.removesuffix(b"\n").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ConfigError(
                        f"cannot read record file {str(path)!r}: {exc} "
                        f"(line {k + _lines_before(path, start)}, "
                        "position counted from its start)"
                    ) from exc
    except OSError as exc:
        raise ConfigError(f"cannot read record file {str(path)!r}: {exc}") from exc


# Bytes _entry_bound reads, or column ids _remap_in_place maps, at a time:
# small beside a records file, so neither shows in the reader's peak.
_BLOCK = 1 << 16


def _entry_bound(path: str | Path, start: int) -> int:
    """How many b":" lie from byte start to the end of path: at least the
    count entries of the valid lines there, since each member of a JSON
    object has one ":" outside its strings. Counted through one _BLOCK
    buffer. 0 when path is not a regular file that opens and seeks (the
    open never waits on a FIFO), so the read names the error."""
    try:
        with open(path, "rb", buffering=0, opener=lambda name, flags: os.open(
                name, flags | getattr(os, "O_NONBLOCK", 0))) as fh:
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                return 0
            fh.seek(start)
            buf = bytearray(_BLOCK)
            view = np.frombuffer(buf, dtype=np.uint8)
            colons = 0
            while n := fh.readinto(buf):
                colons += int(np.count_nonzero(view[:n] == ord(":")))
            return colons
    except OSError:
        return 0


def _entry_arrays(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Room for size count entries: column ids (int32) and counts (int64).
    The records reader allocates these arrays nowhere else."""
    return np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int64)


def _grown(indices: np.ndarray, counts: np.ndarray, used: int,
           size: int) -> tuple[np.ndarray, np.ndarray]:
    """New _entry_arrays(size) holding the first used entries of these."""
    more_indices, more_counts = _entry_arrays(size)
    more_indices[:used] = indices[:used]
    more_counts[:used] = counts[:used]
    return more_indices, more_counts


def _remap_in_place(ids: np.ndarray, remap: np.ndarray) -> None:
    """ids[k] = remap[ids[k]], _BLOCK entries at a time: remap[ids] over the
    whole array would hold an intp copy of ids and a second result array."""
    for a in range(0, ids.size, _BLOCK):
        block = ids[a:a + _BLOCK]
        block[:] = remap[block]


def _read_span(path: str | Path, start: int, stop: int | None) -> tuple:
    """Parse and check the lines _numbered_lines(path, start, stop) gives:
    (sample ids, labels, call names in first-seen order, indptr from 0 as
    an array buffer, column ids into those names, counts). The last two are
    _entry_arrays sized by _entry_bound(path, start), which counts to the
    end of the file, so a split read's caller has room for the child's
    half; their first indptr[-1] entries are filled. A line that does not
    fit (the file grew after it was counted) grows them once, at least
    twofold. A bad line is a ConfigError naming its number in the whole
    file."""
    sample_ids: list[str] = []
    labels: list[str] = []
    index: dict[str, int] = {}  # call name -> column id, in first-seen order
    indptr = array("q", [0])
    indices, counts = _entry_arrays(_entry_bound(path, start))
    nnz = 0
    # Split at "\n" only (JSON skips a "\r"): strings may hold U+2028 etc.
    for k, line in _numbered_lines(path, start, stop):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            sample_id, label, row, total = (
                obj["sample_id"], obj["label"], obj["counts"], obj["total"])
            if not (type(sample_id) is str and type(row) is dict
                    and type(total) is int
                    and set(map(type, row.values())) <= {int}):
                raise ConfigError(
                    "sample_id must be a string, counts an object of integers "
                    "and total an integer"
                )
            if label not in LABELS:
                raise ConfigError(f"label must be one of {LABELS}, got {label!r}")
            n = len(row)
            try:
                ids = np.fromiter(map(index.__getitem__, row), np.int32, n)
            except KeyError:  # the line brings a call no earlier line had
                for name in row:
                    index.setdefault(name, len(index))
                ids = np.fromiter(map(index.__getitem__, row), np.int32, n)
            values = np.fromiter(row.values(), np.int64, n)
            if n and values.min() < 1:
                name = next(name for name, v in row.items() if v < 1)
                raise ConfigError(f"count for {name!r} must be >= 1, got {row[name]}")
            if total != sum(row.values()):
                raise ConfigError("total_calls does not equal the sum of counts")
        except (json.JSONDecodeError, KeyError, TypeError, OverflowError,
                ConfigError) as exc:
            raise ConfigError(
                f"bad record on line {k + _lines_before(path, start)} of {str(path)!r}: {exc}"
            ) from exc
        if nnz + n > indices.size:
            indices, counts = _grown(indices, counts, nnz, 2 * indices.size + n)
        sample_ids.append(sample_id)
        labels.append(label)
        indices[nnz:nnz + n] = ids
        counts[nnz:nnz + n] = values
        nnz += n
        indptr.append(nnz)
    return sample_ids, labels, list(index), indptr, indices, counts


def _vocabulary(*names: list[str]) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """The sorted union of the name lists, and for each list the position
    of each of its names in that union."""
    calls = sorted(set().union(*names))
    col = {name: j for j, name in enumerate(calls)}
    return tuple(calls), [np.fromiter(map(col.__getitem__, n), np.int32, len(n)) for n in names]


def _fill(pipe, out: np.ndarray) -> None:
    """Read out's bytes from pipe; EOFError if the pipe ends first."""
    if pipe.readinto(memoryview(out).cast("B")) != out.nbytes:
        raise EOFError("the pipe ended early")


def _write_span(path: str | Path, start: int, pipe) -> None:
    """The child's half for _join: the lines of path from start on, or the
    message of their first bad line."""
    try:
        span = _read_span(path, start, None)
    except ConfigError as exc:
        pickle.dump(str(exc), pipe)
    else:
        indptr, indices, counts = span[3:]
        nnz = indptr[-1]
        pickle.dump((*span[:3], nnz), pipe)
        for buffer in (indptr, indices[:nnz], counts[:nnz]):
            pipe.write(buffer)


def _join(first: tuple, pipe) -> Corpus:
    """The Corpus of first, _read_span's result for the first half, and of
    the second half that the child wrote to pipe (_write_span): its message
    when it found a bad line, else (sample ids, labels, names, number of
    counts) pickled, then its indptr, indices and counts. first's arrays
    have room for the whole file, so the child's entries are read straight
    into them after the first half's; they grow once only if the file grew
    after it was counted. Column ids are remapped in place."""
    head = pickle.load(pipe)
    if isinstance(head, str):
        raise ConfigError(head)
    ids2, labels2, names2, nnz2 = head
    ids1, labels1, names1, ptr1, indices, counts = first
    calls, (remap1, remap2) = _vocabulary(names1, names2)
    n1, nnz1 = len(ids1), ptr1[-1]
    nnz = nnz1 + nnz2
    if nnz > indices.size:
        indices, counts = _grown(indices, counts, nnz1, nnz)
    indptr = np.empty(n1 + len(ids2) + 1, dtype=np.int64)
    indptr[:n1] = np.frombuffer(ptr1, dtype=np.int64)[:-1]
    _fill(pipe, indptr[n1:])  # the child's starts at 0
    indptr[n1:] += nnz1
    _fill(pipe, indices[nnz1:nnz])
    _fill(pipe, counts[nnz1:nnz])
    _remap_in_place(indices[:nnz1], remap1)
    _remap_in_place(indices[nnz1:nnz], remap2)
    return Corpus(sample_ids=(*ids1, *ids2), labels=(*labels1, *labels2), calls=calls,
                  indptr=indptr, indices=indices[:nnz], counts=counts[:nnz])


def read_records_jsonl(path: str | Path) -> Corpus:
    """Read the write_records_jsonl layout; a bad line is a ConfigError naming it.

    sample_id must be a string, counts a JSON object of JSON integers, each
    at least 1 and below 2**63, and total their sum: a count of 1.5, "3" or
    true is an error, not 1 or 3. total is checked, not stored.

    A file of at least SPLIT_BYTES is cut in two after the first b"\\n" at
    or after half its size (_cut), and a child made with os.fork parses
    the lines that start in the second half while this process parses the
    first; forked.run_forked carries the child's rows back through a pipe
    to _join. The child's memory is its own, outside this process's RSS.
    The Corpus and the error are those of the one-process read: the first
    bad line in file order wins, named by its line number in the whole
    file. A smaller file, or a platform without os.fork, a second CPU or a
    lone thread (forked.can_fork), is read here by the same line parser;
    so is the whole file if the child ends without its result. The child
    is reaped before this returns or raises. callselect.forked is imported
    only for a file that is cut, so importing the CLI never loads it.

    Each process allocates its column ids and counts once (_entry_arrays),
    sized by a count of b":" from where it starts reading to the end of the
    file, and remaps the column ids in place; a split read's caller reads
    the child's half straight into its own arrays.
    """
    _, mid = _cut(path)
    if mid is not None:
        from .forked import can_fork, run_forked

        if can_fork():
            corpus = run_forked(lambda pipe: _write_span(path, mid, pipe),
                                lambda pipe: _join(_read_span(path, 0, mid), pipe))
            if corpus is not None:
                return corpus
    sample_ids, labels, names, indptr, indices, counts = _read_span(path, 0, None)
    calls, (remap,) = _vocabulary(names)
    nnz = indptr[-1]
    _remap_in_place(indices[:nnz], remap)
    return Corpus(
        sample_ids=tuple(sample_ids),
        labels=tuple(labels),
        calls=calls,
        indptr=np.frombuffer(indptr, dtype=np.int64),
        indices=indices[:nnz],
        counts=counts[:nnz],
    )
