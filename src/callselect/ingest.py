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
import re
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


def read_input(path: str | Path, what: str, errors: str = "strict") -> str:
    """The whole UTF-8 file with its line ends as written; an unreadable
    or undecodable one is a ConfigError."""
    try:
        return Path(path).read_bytes().decode("utf-8", errors=errors)
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


def parse_log_detailed(
    lines: Iterable[str], sample_id: str, label: str, path: str = ""
) -> tuple[CallCountRecord, ParseSummary]:
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
    record = CallCountRecord(
        sample_id=sample_id,
        label=label,
        counts=dict(sorted(counts.items())),
        total_calls=sum(counts.values()),
    )
    return record, ParseSummary(sample_id=sample_id, path=path, by_kind=kinds)


def ingest_corpus(manifest: Iterable[tuple[str, str, str]]) -> IngestResult:
    """Parse every log named by (path, label, sample_id) rows, in order."""
    records: list[CallCountRecord] = []
    summaries: list[ParseSummary] = []
    seen: set[str] = set()
    for path, label, sample_id in manifest:
        if sample_id in seen:
            raise ConfigError(f"duplicate sample_id: {sample_id!r}")
        seen.add(sample_id)
        # Trace logs are byte streams of uncertain encoding; decode lossily.
        text = read_input(path, "trace log", errors="replace")
        record, summary = parse_log_detailed(
            text.splitlines(), sample_id, label, path=str(path)
        )
        records.append(record)
        summaries.append(summary)
    return IngestResult(corpus=Corpus.from_records(records), summaries=summaries)


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
    column ids ascend is already in key order; any other row is sorted."""
    heads = [json.dumps(name) + ": " for name in corpus.calls]
    ids, counts = corpus.indices, corpus.counts
    # Rows holding an id not above the one before it in the same row.
    steps = np.flatnonzero(ids[1:] <= ids[:-1]) + 1
    rows = np.searchsorted(corpus.indptr, steps, side="right") - 1
    unsorted = set(rows[corpus.indptr[rows] != steps].tolist())
    bounds = corpus.indptr.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, (sample_id, label, a, b) in enumerate(
                zip(corpus.sample_ids, corpus.labels, bounds, bounds[1:])):
            row_ids, row_counts = ids[a:b], counts[a:b]
            if i in unsorted:
                order = np.argsort(row_ids, kind="stable")
                row_ids, row_counts = row_ids[order], row_counts[order]
            values = row_counts.tolist()
            body = ", ".join([heads[j] + str(n) for j, n in zip(row_ids.tolist(), values)])
            fh.write(f'{{"counts": {{{body}}}, "label": {json.dumps(label)}, '
                     f'"sample_id": {json.dumps(sample_id)}, "total": {sum(values)}}}\n')


def _numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(number from 1, text) of each line, cut at b"\\n" and decoded alone as
    UTF-8, which no UTF-8 sequence holds: the pieces of the decoded text's
    split("\\n") without its final empty one, and the file is never held
    whole. An unreadable file or an undecodable line is a ConfigError."""
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    yield lineno, raw.removesuffix(b"\n").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ConfigError(
                        f"cannot read record file {str(path)!r}: {exc} "
                        f"(line {lineno}, position counted from its start)"
                    ) from exc
    except OSError as exc:
        raise ConfigError(f"cannot read record file {str(path)!r}: {exc}") from exc


def read_records_jsonl(path: str | Path) -> Corpus:
    """Read the write_records_jsonl layout; a bad line is a ConfigError naming it.

    sample_id must be a string, counts a JSON object of JSON integers, each
    at least 1 and below 2**63, and total their sum: a count of 1.5, "3" or
    true is an error, not 1 or 3. total is checked, not stored.
    """
    sample_ids: list[str] = []
    labels: list[str] = []
    index: dict[str, int] = {}  # call name -> column id, in first-seen order
    indptr = array("q", [0])
    indices = array("i")  # C int: np.int32
    counts = array("q")
    # Split at "\n" only (JSON skips a "\r"): strings may hold U+2028 etc.
    for lineno, line in _numbered_lines(path):
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
                f"bad record on line {lineno} of {str(path)!r}: {exc}"
            ) from exc
        sample_ids.append(sample_id)
        labels.append(label)
        indices.frombytes(ids.tobytes())
        counts.frombytes(values.tobytes())
        indptr.append(len(counts))
    # Column ids become positions in the sorted vocabulary.
    calls = sorted(index)
    remap = np.empty(len(calls), dtype=np.int32)
    remap[[index[name] for name in calls]] = np.arange(len(calls))
    return Corpus(
        sample_ids=tuple(sample_ids),
        labels=tuple(labels),
        calls=tuple(calls),
        indptr=np.frombuffer(indptr, dtype=np.int64),
        indices=remap[np.frombuffer(indices, dtype=np.int32)],
        counts=np.frombuffer(counts, dtype=np.int64),
    )
