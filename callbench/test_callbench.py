"""Tests of the benchmark itself: seeded generators and output checks.

Run with: python3 -m pytest callbench -q

Each check must pass on the program's real output (at small sizes) and
reject a deliberately corrupted copy of it.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from callselect.cli import main as cli_main  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def _cli(*argv) -> None:
    assert cli_main([str(a) for a in argv]) == 0


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _small_strace(d: Path, seed: int) -> gen.StraceCorpus:
    return gen.write_strace_corpus(d, seed, small_logs=8, small_lines=(60, 120), large_lines=2000)


def _edit_jsonl(path: Path, index: int, edit) -> None:
    rows = [json.loads(x) for x in path.read_text().splitlines()]
    edit(rows[index])
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))


def _edit_csv_cell(path: Path, row: int, col: int, value: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _files(problems) -> set[str]:
    return {p.name for p, _ in problems}


# --- generators -------------------------------------------------------------

def test_strace_generator_is_byte_identical_per_seed(tmp_path):
    _small_strace(tmp_path / "a", 5)
    _small_strace(tmp_path / "b", 5)
    _small_strace(tmp_path / "c", 6)
    a, b, c = (_tree_bytes(tmp_path / x) for x in "abc")
    assert a == b
    assert a != c


def test_strace_generator_covers_every_line_kind(tmp_path):
    corpus = _small_strace(tmp_path, 1)
    big = corpus.samples[-1]
    assert all(n > 0 for n in big.kinds.values())
    assert sum(big.kinds.values()) == 2000
    text = (tmp_path / big.path).read_bytes()
    assert b"\n1" in text  # pid-prefixed lines
    assert b"\xff" in text  # bytes that are not UTF-8


def test_wide_generator_is_byte_identical_per_seed(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        gen.write_records(gen.wide_corpus(seed, 30, 12, 2, 2, 4.0), tmp_path / f"{name}.jsonl")
    a, b, c = ((tmp_path / f"{x}.jsonl").read_bytes() for x in "abc")
    assert a == b
    assert a != c


# --- trace-ingest -------------------------------------------------------------

@pytest.fixture
def ingested(tmp_path):
    corpus = _small_strace(tmp_path / "in", 2)
    out = tmp_path / "out"
    _cli("ingest", "--manifest", tmp_path / "in" / "manifest.csv", "--out-dir", out)
    _cli("featurize", "--records", out / "records.jsonl", "--out-dir", out)
    assert checks.check_trace_ingest(out, corpus) == []
    return out, corpus


def test_trace_check_rejects_a_dropped_call_count(ingested):
    out, corpus = ingested

    def drop(rec):
        name = next(iter(rec["counts"]))
        rec["total"] -= rec["counts"].pop(name)

    _edit_jsonl(out / "records.jsonl", 3, drop)
    assert "records.jsonl" in _files(checks.check_trace_ingest(out, corpus))


def test_trace_check_rejects_a_wrong_kind_total(ingested):
    out, corpus = ingested
    summary = json.loads((out / "summary.json").read_text())
    summary["totals"]["garbage"] -= 1
    (out / "summary.json").write_text(json.dumps(summary))
    assert _files(checks.check_trace_ingest(out, corpus)) == {"summary.json"}


def test_trace_check_rejects_a_wrong_weight_and_bin(ingested):
    out, corpus = ingested
    head = (out / "fvt.csv").read_text().splitlines()[1].split(",")
    weight = float(head[1])
    _edit_csv_cell(out / "fvt.csv", 1, 1, f"{weight + 0.01 if weight < 0.5 else weight - 0.01:.6f}")
    cell = (out / "decision_table.csv").read_text().splitlines()[2].split(",")[2]
    _edit_csv_cell(out / "decision_table.csv", 2, 2, "B4" if cell != "B4" else "B1")
    assert _files(checks.check_trace_ingest(out, corpus)) == {"fvt.csv", "decision_table.csv"}


# --- wide-select ---------------------------------------------------------------

@pytest.fixture
def selected(tmp_path):
    corpus = gen.wide_corpus(9, 150, 20, 3, 3, 4.0)
    gen.write_records(corpus, tmp_path / "records.jsonl")
    sel = tmp_path / "sel.json"
    _cli("select", "--records", tmp_path / "records.jsonl", "--method", "rsst",
         "--z-candidates", "all", "--out", sel)
    assert checks.check_wide_select(sel, corpus) == []
    return sel, corpus


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def test_select_check_rejects_swapped_lists(selected):
    sel, corpus = selected

    def swap(r):
        zf = r["z_filter"]
        zf["malware_list"], zf["benign_list"] = zf["benign_list"], zf["malware_list"]

    _edit_json(sel, swap)
    assert checks.check_wide_select(sel, corpus)


def test_select_check_rejects_an_altered_z(selected):
    sel, corpus = selected
    _edit_json(sel, lambda r: r["z_filter"]["rejected"][0].update(z=0.5))
    assert checks.check_wide_select(sel, corpus)


def test_select_check_rejects_a_redundant_kept_call(selected):
    sel, corpus = selected

    def pad(r):
        steps = r["reduct"]["steps"]
        spare = next(c for c in corpus.calls if c not in {s["call"] for s in steps})
        steps.append({"call": spare, "significance": steps[-1]["significance"]})

    _edit_json(sel, pad)
    problems = checks.check_wide_select(sel, corpus)
    assert any("does not lower" in msg for _, msg in problems)


def test_select_check_rejects_a_wrong_final_significance(selected):
    sel, corpus = selected
    _edit_json(sel, lambda r: r["reduct"].update(final_significance=0.5))
    assert checks.check_wide_select(sel, corpus)


# --- table-build ---------------------------------------------------------------

@pytest.fixture
def built(tmp_path):
    _cli("synth", "--samples-per-class", 400, "--vocabulary-size", 20, "--seed", 4,
         "--out-dir", tmp_path)
    _cli("featurize", "--records", tmp_path / "records.jsonl", "--out-dir", tmp_path)
    assert checks.check_table_build(tmp_path, 400, (3, 2), 4.0) == []
    return tmp_path


def test_table_check_rejects_a_zero_count(built):
    _edit_jsonl(built / "records.jsonl", 0, lambda r: r["counts"].update(c010=0))
    assert "records.jsonl" in _files(checks.check_table_build(built, 400, (3, 2), 4.0))


def test_table_check_rejects_a_wrong_total(built):
    _edit_jsonl(built / "records.jsonl", 5, lambda r: r.update(total=r["total"] + 1))
    assert "records.jsonl" in _files(checks.check_table_build(built, 400, (3, 2), 4.0))


def test_table_check_rejects_a_missing_effect(built):
    assert "records.jsonl" in _files(checks.check_table_build(built, 400, (3, 2), 8.0))


def test_table_check_rejects_a_wrong_weight(built):
    _edit_csv_cell(built / "fvt.csv", 7, 3, "0.999999")
    assert _files(checks.check_table_build(built, 400, (3, 2), 4.0)) == {"fvt.csv"}


# --- cv-sweep ------------------------------------------------------------------

@pytest.fixture
def evaluated(tmp_path):
    corpus = gen.wide_corpus(2, 60, 12, 3, 2, 8.0)
    records = tmp_path / "records.jsonl"
    gen.write_records(corpus, records)
    _cli("select", "--records", records, "--method", "chi", "--out", tmp_path / "sel.json")
    _cli("eval", "--records", records, "--selection", tmp_path / "sel.json", "--lengths", "3,5",
         "--folds", 10, "--trees", 9, "--out", tmp_path / "eval.json")
    labels = list(corpus.labels)
    assert checks.check_eval(tmp_path / "eval.json", labels, 10, 0.95, 0.98, 5) == []
    assert checks.check_selection(tmp_path / "sel.json", list(corpus.calls)) == []
    return tmp_path, labels, corpus


def test_eval_check_rejects_an_altered_fold_count(evaluated):
    d, labels, _ = evaluated
    _edit_json(d / "eval.json", lambda r: r["rows"][0]["folds"][4].update(
        tp=r["rows"][0]["folds"][4]["tp"] + 1))
    assert checks.check_eval(d / "eval.json", labels, 10, 0.95, 0.98, 5)


def test_eval_check_rejects_a_moved_fold_count(evaluated):
    d, labels, _ = evaluated

    def move(r):
        fold = r["rows"][1]["folds"][2]
        fold["tn"] -= 1
        fold["fp"] += 1

    _edit_json(d / "eval.json", move)
    assert checks.check_eval(d / "eval.json", labels, 10, 0.95, 0.98, 5)


def test_eval_check_applies_the_accuracy_floor(evaluated):
    d, labels, _ = evaluated
    assert checks.check_eval(d / "eval.json", labels, 10, 1.01, 0.98, 5)


def test_selection_check_rejects_a_short_ranking(evaluated):
    d, _, corpus = evaluated
    _edit_json(d / "sel.json", lambda r: r["ranking"].pop())
    assert checks.check_selection(d / "sel.json", list(corpus.calls))


# --- runner bookkeeping ----------------------------------------------------------

def test_failures_are_charged_to_the_operation_that_wrote_the_file(tmp_path):
    ops = [run.Op(["a"], [tmp_path / "x"]), run.Op(["b"], [tmp_path / "y"])]
    ok = {"rc": 0, "digest": "d", "stderr": ""}
    rounds = [{"ops": [ok, ok]}, {"ops": [ok, {"rc": 2, "digest": None, "stderr": "boom"}]},
              {"ops": [ok, ok]}]
    failed, correct, _ = run.count_failures(ops, rounds, [(tmp_path / "x", "bad")])
    assert failed == 3 + 1  # op a in every round, op b once
    assert not correct
    failed, correct, _ = run.count_failures(ops, rounds, [])
    assert (failed, correct) == (1, True)  # a nonzero exit is a failure, not a wrong output


def test_self_time_subtracts_child_spans():
    spans = [
        {"id": 0, "name": "evaluate.sweep", "parent": None, "round": 0, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "forest.train", "parent": 0, "round": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "name": "forest.predict", "parent": 0, "round": 0, "start": 5.0, "end": 6.0},
    ]
    values = run.layer_metrics(spans, [10.0], 1.0, 0.5)
    assert set(values) == {name for name, _ in run.PER_LAYER}
    assert values["evaluate.sweep_s"] == 10.0
    assert values["evaluate.self_s"] == 7.0
    assert values["forest.train_s"] == 2.0


def test_metric_lists_match_benchmark_json():
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
