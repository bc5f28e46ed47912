"""Output checks, one per workload.

Each check compares the program's files with a computation made here,
from the generator's truth or from the records file, or with a property
the method must have. A check returns a list of problems, each naming the
output file at fault, so the runner can charge the operation that wrote it.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from gen import StraceCorpus, WideCorpus

Problem = tuple[Path, str]

EDGES = (0.25, 0.5, 0.75)
EDGE_SLACK = 1e-9  # weights this close to a bin edge may round either way
PRINTED = 5e-7 + 1e-12  # six printed decimals
Z_CRIT = 1.96


def tfidf(counts: np.ndarray) -> np.ndarray:
    """tf = count / row total, idf = ln(r / df), then min-max per column.

    Columns must be calls present in at least one row; constant columns map to 0.
    """
    r = counts.shape[0]
    tf = counts / counts.sum(axis=1)[:, None]
    idf = np.array([math.log(r / d) for d in (counts > 0).sum(axis=0)])
    w = tf * idf
    lo, span = w.min(axis=0), np.ptp(w, axis=0)
    out = np.zeros_like(w)
    varying = span > 0
    out[:, varying] = (w[:, varying] - lo[varying]) / span[varying]
    return out


def bins_of(weights: np.ndarray) -> np.ndarray:
    """Right-closed four-bin index: [0,.25] -> 1, (.25,.5] -> 2, (.5,.75] -> 3, (.75,1] -> 4."""
    return 1 + sum((weights > e).astype(np.int64) for e in EDGES)


def positive_count(bins: np.ndarray, is_m: np.ndarray, cols: list[int]) -> int:
    """Rows in label-pure groups of rows that agree on the given columns."""
    if not cols:
        groups = np.zeros(len(is_m), dtype=np.int64)
    else:
        _, groups = np.unique(bins[:, cols], axis=0, return_inverse=True)
        groups = groups.ravel()
    m = np.bincount(groups, weights=is_m.astype(np.float64))
    size = np.bincount(groups)
    pure = (m == 0) | (m == size)
    return int(size[pure].sum())


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_tables(out: Path, sample_ids, labels, calls, counts: np.ndarray) -> list[Problem]:
    """fvt.csv and decision_table.csv against tf-idf computed here from the counts."""
    problems: list[Problem] = []
    order = np.argsort(np.array(calls))
    calls = [calls[j] for j in order]
    counts = counts[:, order]
    keep = counts.sum(axis=0) > 0
    calls = [c for c, k in zip(calls, keep) if k]
    weights = tfidf(counts[:, keep])
    header = ["sample_id", *calls, "label"]
    for name in ("fvt.csv", "decision_table.csv"):
        path = out / name
        if not path.exists():
            problems.append((path, "missing"))
            continue
        head, rows = _read_csv(path)
        if head != header:
            problems.append((path, "header differs from sample_id,<sorted calls>,label"))
            continue
        if [r[0] for r in rows] != list(sample_ids) or [r[-1] for r in rows] != list(labels):
            problems.append((path, "sample ids or labels differ from the records"))
            continue
        if any(len(r) != len(header) for r in rows):
            problems.append((path, "ragged rows"))
            continue
        cells = [r[1:-1] for r in rows]
        if name == "fvt.csv":
            got = np.array(cells, dtype=np.float64)
            worst = float(np.abs(got - weights).max())
            if worst > PRINTED:
                problems.append((path, f"weights differ from tf-idf by up to {worst:.3g}"))
        else:
            got = np.array(cells)
            want = np.char.add("B", bins_of(weights).astype(str))
            near_edge = np.zeros(weights.shape, dtype=bool)
            for e in EDGES:
                near_edge |= np.abs(weights - e) <= EDGE_SLACK
            bad = int(((got != want) & ~near_edge).sum())
            if bad:
                problems.append((path, f"{bad} cells outside their right-closed bin"))
    return problems


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def check_trace_ingest(out: Path, corpus: StraceCorpus) -> list[Problem]:
    problems: list[Problem] = []
    samples = corpus.samples
    records_path, summary_path = out / "records.jsonl", out / "summary.json"
    for path in (records_path, summary_path):
        if not path.exists():
            problems.append((path, "missing"))
    if problems:
        return problems
    records = _read_jsonl(records_path)
    if len(records) != len(samples):
        problems.append((records_path, f"{len(records)} records for {len(samples)} logs"))
    for rec, s in zip(records, samples):
        if (rec["sample_id"], rec["label"]) != (s.sample_id, s.label):
            problems.append((records_path, f"record {rec['sample_id']} out of manifest order"))
        elif rec["counts"] != s.counts:
            diff = sorted(set(rec["counts"].items()) ^ set(s.counts.items()))
            problems.append((records_path, f"{s.sample_id} counts differ: {diff[:4]}"))
        elif rec["total"] != sum(s.counts.values()):
            problems.append((records_path, f"{s.sample_id} total differs"))
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    totals: dict[str, int] = {}
    for s in samples:
        for kind, n in s.kinds.items():
            totals[kind] = totals.get(kind, 0) + n
    if summary.get("totals") != totals:
        problems.append((summary_path, f"kind totals {summary.get('totals')} != {totals}"))
    files = summary.get("files", [])
    if [(f["sample_id"], f["lines"]) for f in files] != [(s.sample_id, s.kinds) for s in samples]:
        problems.append((summary_path, "per-file kind tallies differ"))
    if summary.get("records") != len(samples):
        problems.append((summary_path, "record count differs"))
    calls = sorted({c for s in samples for c in s.counts})
    counts = np.array([[s.counts.get(c, 0) for c in calls] for s in samples], dtype=np.int64)
    problems += check_tables(out, [s.sample_id for s in samples],
                             [s.label for s in samples], calls, counts)
    return problems


def z_scores(weights: np.ndarray, is_m: np.ndarray) -> list[float | None]:
    """Two-sample z with population variances; None where the standard error is 0."""
    m, b = weights[is_m], weights[~is_m]
    se = np.sqrt(m.var(axis=0) / len(m) + b.var(axis=0) / len(b))
    diff = m.mean(axis=0) - b.mean(axis=0)
    return [None if s == 0 else float(d / s) for d, s in zip(diff, se)]


def check_wide_select(sel_path: Path, corpus: WideCorpus) -> list[Problem]:
    if not sel_path.exists():
        return [(sel_path, "missing")]
    problems: list[Problem] = []
    report = json.loads(sel_path.read_text(encoding="utf-8"))
    zf, reduct = report["z_filter"], report["reduct"]
    keep = corpus.counts.sum(axis=0) > 0
    calls = [c for c, k in zip(corpus.calls, keep) if k]
    weights = tfidf(corpus.counts[:, keep])
    is_m = np.array(corpus.labels) == "M"

    lists = {k: [row["call"] for row in zf[k]] for k in ("malware_list", "benign_list", "rejected")}
    if not set(corpus.planted_malware) <= set(lists["malware_list"]):
        problems.append((sel_path, "a planted malware call is missing from malware_list"))
    if not set(corpus.planted_benign) <= set(lists["benign_list"]):
        problems.append((sel_path, "a planted benign call is missing from benign_list"))
    listed = [c for k in lists.values() for c in k]
    if len(listed) != len(set(listed)) or set(listed) != set(calls):
        problems.append((sel_path, "the three z lists do not partition the vocabulary"))

    want = dict(zip(calls, z_scores(weights, is_m)))
    for key, rows in ((k, zf[k]) for k in lists):
        for row in rows:
            z, ref = row["z"], want.get(row["call"])
            if (z is None) != (ref is None) or (
                    z is not None and abs(z - ref) > 1e-9 * max(1.0, abs(ref))):
                problems.append((sel_path, f"z for {row['call']} is {z}, expected {ref}"))
                continue
            side = ("malware_list" if z is not None and z > Z_CRIT else
                    "benign_list" if z is not None and z < -Z_CRIT else "rejected")
            if side != key:
                problems.append((sel_path, f"{row['call']} with z={z} listed in {key}"))

    bins = bins_of(weights)
    col = {c: j for j, c in enumerate(calls)}
    n = len(is_m)
    full = positive_count(bins, is_m, list(range(len(calls))))
    if reduct["final_significance"] != full / n:
        problems.append((sel_path, f"final significance {reduct['final_significance']} "
                                   f"!= full-set {full / n}"))
    removed = set(reduct["removed_in_backward_pass"])
    kept = [s["call"] for s in reduct["steps"] if s["call"] not in removed]
    if positive_count(bins, is_m, [col[c] for c in kept]) != full:
        problems.append((sel_path, "the kept calls do not reach the full-set significance"))
    for c in kept:
        if positive_count(bins, is_m, [col[k] for k in kept if k != c]) >= full:
            problems.append((sel_path, f"dropping kept call {c} does not lower significance"))
    return problems


def check_table_build(out: Path, samples_per_class: int, planted: tuple[int, int],
                      effect: float) -> list[Problem]:
    records_path, key_path = out / "records.jsonl", out / "answer_key.json"
    for path in (records_path, key_path):
        if not path.exists():
            return [(path, "missing")]
    problems: list[Problem] = []
    records = _read_jsonl(records_path)
    if len(records) != 2 * samples_per_class:
        problems.append((records_path, f"{len(records)} records, expected {2 * samples_per_class}"))
    for rec in records:
        if any(n <= 0 for n in rec["counts"].values()):
            problems.append((records_path, f"{rec['sample_id']} has a zero count"))
        if rec["total"] != sum(rec["counts"].values()):
            problems.append((records_path, f"{rec['sample_id']} total != sum of counts"))
    if problems:
        return problems
    calls = sorted({c for rec in records for c in rec["counts"]})
    col = {c: j for j, c in enumerate(calls)}
    counts = np.zeros((len(records), len(calls)), dtype=np.int64)
    for i, rec in enumerate(records):
        for c, n in rec["counts"].items():
            counts[i, col[c]] = n
    is_m = np.array([rec["label"] for rec in records]) == "M"
    key = json.loads(key_path.read_text(encoding="utf-8"))
    mal, ben = key["planted_malware_calls"], key["planted_benign_calls"]
    if (len(mal), len(ben)) != planted:
        problems.append((key_path, f"answer key plants {len(mal)}+{len(ben)} calls, asked {planted}"))
    for calls_of, own in ((mal, is_m), (ben, ~is_m)):
        for c in calls_of:
            j = col.get(c)
            diff = counts[own, j].mean() - counts[~own, j].mean() if j is not None else 0.0
            if abs(diff - effect) > 0.25 * effect:
                problems.append((records_path, f"planted {c}: class-mean gap {diff:.3f}, "
                                               f"effect {effect}"))
    problems += check_tables(out, [rec["sample_id"] for rec in records],
                             [rec["label"] for rec in records], calls, counts)
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def check_selection(sel_path: Path, vocabulary: list[str]) -> list[Problem]:
    if not sel_path.exists():
        return [(sel_path, "missing")]
    ranking = json.loads(sel_path.read_text(encoding="utf-8")).get("ranking")
    if sorted(ranking or []) != sorted(vocabulary):
        return [(sel_path, "ranking is not a permutation of the vocabulary")]
    return []


def check_eval(eval_path: Path, labels: list[str], folds: int, min_acc: float,
               min_auc: float, at_length: int) -> list[Problem]:
    if not eval_path.exists():
        return [(eval_path, "missing")]
    problems: list[Problem] = []
    report = json.loads(eval_path.read_text(encoding="utf-8"))
    n_m, n_b = labels.count("M"), labels.count("B")
    seen = False
    for row in report["rows"]:
        fs = row["folds"]
        if len(fs) != folds:
            problems.append((eval_path, f"length {row['length']}: {len(fs)} folds"))
            continue
        tot = {k: sum(f[k] for f in fs) for k in ("tp", "tn", "fp", "fn")}
        if sum(tot.values()) != len(labels):
            problems.append((eval_path, f"length {row['length']}: folds cover "
                                        f"{sum(tot.values())} of {len(labels)} samples"))
        for f in fs:
            if abs(f["tp"] + f["fn"] - n_m / folds) >= 1 or abs(f["tn"] + f["fp"] - n_b / folds) >= 1:
                problems.append((eval_path, f"length {row['length']}: unbalanced fold {f}"))
                break
        tp, tn, fp, fn = tot["tp"], tot["tn"], tot["fp"], tot["fn"]
        precision, recall = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
        want = {
            "acc": _ratio(tp + tn, tp + tn + fp + fn),
            "fpr": _ratio(fp, fp + tn),
            "f1": _ratio(2 * precision * recall, precision + recall),
            "paper_auc": 0.5 * (precision + _ratio(tn, tn + fp)),
        }
        for k, v in want.items():
            if abs(row[k] - v) > 1e-12:
                problems.append((eval_path, f"length {row['length']}: {k} {row[k]} != {v}"))
        if row["length"] == at_length:
            seen = True
            if row["acc"] < min_acc or row["roc_auc"] < min_auc:
                problems.append((eval_path, f"length {at_length}: acc {row['acc']}, "
                                            f"roc_auc {row['roc_auc']} below the floor"))
    if not seen:
        problems.append((eval_path, f"no row for length {at_length}"))
    return problems
