"""Command line round trips, each subcommand exercised end to end in process."""

import argparse
import dataclasses
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import callselect
from callselect import cli, evaluate, featurize, forest, ztest
from callselect.cli import METHODS, build_parser, main, select_report

DATA = Path(__file__).parent / "data"


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def corpus(tmp_path):
    # six tiny logs, malware heavy on ptrace/socket, benign heavy on write
    mal = 'ptrace(PTRACE_TRACEME) = 0\nsocket(AF_INET, SOCK_STREAM, 0) = 3\nptrace(PTRACE_PEEKDATA) = 0\n'
    ben = 'write(1, "x", 1) = 1\nwrite(1, "y", 1) = 1\nread(0, "", 1) = 0\n'
    rows = ["path,label,sample_id"]
    for i in range(3):
        p = tmp_path / f"m{i}.log"
        p.write_text(mal + f'getpid() = {i}\n' * i)
        rows.append(f"m{i}.log,M,mal-{i}")
    for i in range(3):
        p = tmp_path / f"b{i}.log"
        p.write_text(ben + f'brk(NULL) = {i}\n' * i)
        rows.append(f"b{i}.log,B,ben-{i}")
    man = tmp_path / "manifest.csv"
    man.write_text("\n".join(rows) + "\n")
    return tmp_path, man


def test_ingest_writes_records_and_summary(capsys, corpus, tmp_path):
    root, man = corpus
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "ingest", "--manifest", str(man), "--out-dir", str(out_dir))
    assert code == 0
    written = json.loads(out)["written"]
    assert len(written) == 2
    recs = [json.loads(l) for l in (out_dir / "records.jsonl").read_text().splitlines()]
    assert [r["sample_id"] for r in recs] == [
        "mal-0", "mal-1", "mal-2", "ben-0", "ben-1", "ben-2",
    ]
    assert recs[0]["counts"] == {"ptrace": 2, "socket": 1}
    summary = json.loads((out_dir / "summary.json").read_text())
    assert len(summary["files"]) == 6
    assert summary["records"] == 6
    assert summary["totals"]["call"] == sum(r["total"] for r in recs)


def test_ingest_missing_log_exits_2(capsys, tmp_path):
    man = tmp_path / "manifest.csv"
    man.write_text("path,label,sample_id\nghost.log,M,s1\n")
    code, out, err = _run(capsys, "ingest", "--manifest", str(man), "--out-dir", str(tmp_path))
    assert code == 2
    obj = json.loads(err)
    assert obj["error"] == "ConfigError"
    assert "ghost.log" in obj["message"]


@pytest.mark.parametrize("row", ["a.log,M", "b.log,B,s2,extra"], ids=["missing", "extra"])
def test_ingest_manifest_field_count_exits_2(capsys, tmp_path, row):
    (tmp_path / "a.log").write_text("close(3) = 0\n")
    (tmp_path / "b.log").write_text("close(3) = 0\n")
    man = tmp_path / "manifest.csv"
    man.write_text(f"path,label,sample_id\na.log,M,s1\n{row}\n")
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "ingest", "--manifest", str(man), "--out-dir", str(out_dir))
    assert code == 2
    obj = json.loads(err)
    assert obj["error"] == "ConfigError"
    assert "manifest line 3" in obj["message"]
    assert not (out_dir / "records.jsonl").exists()


@pytest.mark.parametrize("sep", ["\u2028", "\x85"], ids=["U+2028", "NEL"])
def test_ingest_manifest_path_holds_a_line_separator(capsys, tmp_path, sep):
    # str.splitlines() would cut the quoted path at sep
    (tmp_path / f"a{sep}b.log").write_text("close(3) = 0\n", encoding="utf-8")
    (tmp_path / "c.log").write_text("read(0) = 0\n")
    man = tmp_path / "manifest.csv"
    man.write_text(f'path,label,sample_id\n"a{sep}b.log",M,s1\nc.log,B,s2\n', encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "ingest", "--manifest", str(man), "--out-dir", str(out_dir))
    assert code == 0, err
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["files"][0]["path"] == str(tmp_path / f"a{sep}b.log")
    assert summary["totals"]["call"] == 2


def test_records_strings_hold_line_separators(capsys, tmp_path):
    # JSON strings may hold these raw; only "\n" (after an optional "\r") ends a line
    rows = [
        {"sample_id": "m\u2028one", "label": "M", "counts": {"open\u2028at": 2, "read": 1}},
        {"sample_id": "m\u2029two", "label": "M", "counts": {"open\u2028at": 1}},
        {"sample_id": "b\x85one", "label": "B", "counts": {"read": 3, "wr\x85ite": 1}},
        {"sample_id": "b\x85two", "label": "B", "counts": {"wr\x85ite": 2}},
    ]
    text = "".join(json.dumps({**r, "total": sum(r["counts"].values())}, ensure_ascii=False)
                   + "\n" for r in rows)
    tables = []
    for name, content in (("lf", text), ("crlf", text.replace("\n", "\r\n"))):
        records = tmp_path / f"{name}.jsonl"
        records.write_bytes(content.encode("utf-8"))
        assert list(callselect.read_records_jsonl(records).sample_ids) == [
            r["sample_id"] for r in rows]
        out_dir = tmp_path / name
        code, out, err = _run(capsys, "featurize", "--records", str(records),
                              "--out-dir", str(out_dir))
        assert code == 0, err
        tables.append((out_dir / "fvt.csv").read_bytes())
    assert tables[0] == tables[1]
    assert "open\u2028at" in tables[0].decode("utf-8")


@pytest.mark.parametrize("option", ["--planted-malware", "--planted-benign"])
def test_synth_rejects_negative_planted_counts(capsys, tmp_path, option):
    code, out, err = _run(capsys, "synth", option, "-1", "--out-dir", str(tmp_path))
    assert code == 2
    obj = json.loads(err)
    assert obj["error"] == "ConfigError"
    assert f"{option[2:].replace('-', '_')}=-1" in obj["message"]
    assert not (tmp_path / "records.jsonl").exists()


def test_synth_passes_default_spec_only_the_options_given(capsys, tmp_path, monkeypatch):
    given = []

    def recorder(**options):
        given.append(options)
        return callselect.default_spec(**options)

    monkeypatch.setattr(cli, "default_spec", recorder)
    assert _run(capsys, "synth", "--out-dir", str(tmp_path / "a"))[0] == 0
    assert _run(capsys, "synth", "--seed", "7", "--out-dir", str(tmp_path / "b"))[0] == 0
    assert given == [{}, {"seed": 7}]


def test_parser_defaults_are_the_library_defaults():
    parse = build_parser().parse_args
    ev = parse(["eval", "--records", "r", "--selection", "s", "--lengths", "1", "--out", "o"])
    assert (ev.seed, ev.folds, ev.trees, ev.max_depth, ev.min_df) == (
        evaluate.DEFAULT_SEED, evaluate.DEFAULT_FOLDS, forest.DEFAULT_TREES,
        forest.DEFAULT_MAX_DEPTH, featurize.DEFAULT_MIN_DF)
    sel = parse(["select", "--records", "r", "--method", "rsst", "--out", "o"])
    assert (sel.alpha, sel.min_df) == (ztest.DEFAULT_ALPHA, featurize.DEFAULT_MIN_DF)
    assert parse(["featurize", "--records", "r", "--out-dir", "o"]).min_df == featurize.DEFAULT_MIN_DF
    # The library signatures name the same constants.
    sweep = inspect.signature(evaluate.sweep).parameters
    assert (sweep["folds"].default, sweep["seed"].default) == (ev.folds, ev.seed)
    for build in (featurize.build_fvt, featurize.build_fvt_and_relative_frequencies):
        assert inspect.signature(build).parameters["min_df"].default == featurize.DEFAULT_MIN_DF


def test_featurize_outputs_both_tables(capsys, corpus, tmp_path):
    root, man = corpus
    out_dir = tmp_path / "out"
    _run(capsys, "ingest", "--manifest", str(man), "--out-dir", str(out_dir))
    code, out, err = _run(
        capsys, "featurize", "--records", str(out_dir / "records.jsonl"), "--out-dir", str(out_dir)
    )
    assert code == 0
    fvt_lines = (out_dir / "fvt.csv").read_text().splitlines()
    dt_lines = (out_dir / "decision_table.csv").read_text().splitlines()
    assert fvt_lines[0] == dt_lines[0]  # same header: sample_id, calls..., label
    assert len(fvt_lines) == 7
    assert dt_lines[1].split(",")[1] in {"B1", "B2", "B3", "B4"}


def test_select_rsst_report_shape(capsys, corpus, tmp_path):
    root, man = corpus
    out_dir = tmp_path / "out"
    _run(capsys, "ingest", "--manifest", str(man), "--out-dir", str(out_dir))
    sel = out_dir / "sel.json"
    code, out, err = _run(
        capsys,
        "select",
        "--records", str(out_dir / "records.jsonl"),
        "--method", "rsst",
        "--z-candidates", "all",
        "--out", str(sel),
    )
    assert code == 0
    report = json.loads(sel.read_text())
    assert report["method"] == "rsst"
    assert report["ranking_order"] == "abs_z_desc_then_rejected"
    assert set(report["z_filter"]) == {"malware_list", "benign_list", "rejected", "alpha", "z_crit"}
    assert report["config"]["seed"] == 42
    assert "steps" in report["reduct"]
    # candidates=all makes the ranking a permutation of the vocabulary
    recs = [json.loads(l) for l in (out_dir / "records.jsonl").read_text().splitlines()]
    vocab = sorted({call for r in recs for call in r["counts"]})
    assert sorted(report["ranking"]) == vocab


def test_select_on_golden_decision_table(capsys, tmp_path):
    sel = tmp_path / "sel.json"
    code, out, err = _run(
        capsys,
        "select",
        "--decision-table", str(DATA / "toy_decision_table.csv"),
        "--method", "roughset",
        "--out", str(sel),
    )
    assert code == 0
    report = json.loads(sel.read_text())
    steps = [(s["call"], s["significance"]) for s in report["reduct"]["steps"]]
    assert steps == [("s3", 5 / 7), ("s1", 1.0)]
    assert report["ranking"] == ["s3", "s1"]
    assert report["ranking_order"] == "significance_step_order"


def test_select_on_header_only_decision_table(capsys, tmp_path):
    table = tmp_path / "empty.csv"
    table.write_text("sample_id,a,b,label\n")
    code, out, err = _run(
        capsys, "select", "--decision-table", str(table), "--method", "roughset",
        "--out", str(tmp_path / "sel.json"),
    )
    assert code == 2
    assert json.loads(err)["message"] == "cannot reduce an empty table"


def test_select_on_duplicate_call_decision_table(capsys, tmp_path):
    # the second "a" alone decides the labels; it must not stand in for the first
    table = tmp_path / "dup.csv"
    table.write_text("sample_id,a,a,label\nr1,B1,B4,M\nr2,B1,B1,B\nr3,B2,B4,M\n")
    code, out, err = _run(
        capsys, "select", "--decision-table", str(table), "--method", "roughset",
        "--out", str(tmp_path / "sel.json"),
    )
    assert code == 2
    assert json.loads(err)["message"] == "duplicate call: 'a'"


def test_select_on_duplicate_sample_id_decision_table(capsys, tmp_path):
    table = tmp_path / "dup.csv"
    table.write_text("sample_id,a,b,label\nx,B1,B4,M\nx,B1,B1,B\ny,B2,B4,M\n")
    code, out, err = _run(
        capsys, "select", "--decision-table", str(table), "--method", "roughset",
        "--out", str(tmp_path / "sel.json"),
    )
    assert code == 2
    assert json.loads(err)["message"] == "duplicate sample_id: 'x'"
    assert not (tmp_path / "sel.json").exists()


@pytest.mark.parametrize(
    "options, message",
    [
        (["--z-crit", "nan"], "z_crit must be finite and positive, got nan"),
        (["--z-crit", "inf"], "z_crit must be finite and positive, got inf"),
        (["--alpha", "nan", "--z-crit", "2"], "alpha must lie in (0, 1), got nan"),
        (["--alpha", "7", "--z-crit", "2"], "alpha must lie in (0, 1), got 7.0"),
    ],
)
def test_select_rejects_bad_z_options(capsys, tmp_path, options, message):
    # NaN and Infinity are not JSON; the report must never record them
    code, out, err = _run(
        capsys, "select", "--decision-table", str(DATA / "toy_decision_table.csv"),
        "--method", "rsst", *options, "--out", str(tmp_path / "sel.json"),
    )
    assert code == 2
    assert json.loads(err) == {"error": "ConfigError", "message": message}
    assert not (tmp_path / "sel.json").exists()


def test_featurize_bad_record_exits_2(capsys, tmp_path):
    records = tmp_path / "records.jsonl"
    records.write_text('{"sample_id": "a", "label": "M", "counts": [], "total": 0}\n')
    code, out, err = _run(
        capsys, "featurize", "--records", str(records), "--out-dir", str(tmp_path / "out")
    )
    assert code == 2
    assert "line 1" in json.loads(err)["message"]


def test_select_requires_exactly_one_input(capsys, tmp_path):
    code, out, err = _run(
        capsys, "select", "--method", "ig", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"
    code2, _, err2 = _run(
        capsys,
        "select",
        "--records", "a.jsonl",
        "--decision-table", "b.csv",
        "--method", "ig",
        "--out", str(tmp_path / "x.json"),
    )
    assert code2 == 2


@pytest.fixture
def synth_records(tmp_path):
    path = tmp_path / "records.jsonl"
    corpus, _ = callselect.generate(callselect.default_spec(samples_per_class=8, vocabulary_size=8))
    callselect.write_records_jsonl(corpus, path)
    return path


@pytest.mark.parametrize("options", [
    ["--method", "rsst", "--z-weights", "relfreq"],
    ["--method", "rsst", "--z-weights", "relfreq", "--z-candidates", "all", "--min-df", "2"],
    ["--method", "rsst"],
    ["--method", "ig"],
], ids=["rsst-relfreq", "rsst-relfreq-all-min-df-2", "rsst", "ig"])
def test_select_builds_the_tf_matrix_once(capsys, tmp_path, monkeypatch, synth_records, options):
    # The relfreq z stage reads the tf matrix that the tf-idf weights are built from.
    built = []
    term_frequencies = featurize._term_frequencies

    def counted(*args):
        built.append(args)
        return term_frequencies(*args)

    monkeypatch.setattr(featurize, "_term_frequencies", counted)
    code, out, err = _run(capsys, "select", "--records", str(synth_records), *options,
                          "--out", str(tmp_path / "sel.json"))
    assert code == 0, err
    assert len(built) == 1


@pytest.mark.parametrize("kind", ["--records", "--decision-table"], ids=["records", "table"])
@pytest.mark.parametrize(
    "method, options, message",
    [
        ("ig", ["--z-crit", "nan"], "z_crit must be finite and positive, got nan"),
        ("chi", ["--z-crit", "inf"], "z_crit must be finite and positive, got inf"),
        ("roughset", ["--alpha", "7"], "alpha must lie in (0, 1), got 7.0"),
        ("su", ["--min-df", "0"], None),
        ("rsst", ["--top-k", "0"], "k must be >= 1, got 0"),
    ],
    ids=["ig-z-crit-nan", "chi-z-crit-inf", "roughset-alpha-7", "su-min-df-0", "rsst-top-k-0"],
)
def test_select_checks_every_recorded_option(
    capsys, tmp_path, synth_records, kind, method, options, message
):
    # Every option lands in the report's config, so each is checked
    # whichever method runs and whatever the input.
    if message is None:
        message = ("min_df must be >= 1, got 0" if kind == "--records"
                   else "--min-df does not apply to a pre-binned table")
    source = synth_records if kind == "--records" else DATA / "toy_decision_table.csv"
    code, out, err = _run(
        capsys, "select", kind, str(source), "--method", method, *options,
        "--out", str(tmp_path / "sel.json"),
    )
    assert code == 2
    assert json.loads(err) == {"error": "ConfigError", "message": message}
    assert not (tmp_path / "sel.json").exists()


@pytest.mark.parametrize(
    "kind, options, message",
    [
        ("--records", ["--alpha", "2"], "alpha must lie in (0, 1), got 2.0"),
        ("--decision-table", ["--z-weights", "relfreq"],
         "relative frequencies are unavailable for a pre-binned table"),
        ("--decision-table", ["--min-df", "2"], "--min-df does not apply to a pre-binned table"),
    ],
    ids=["alpha", "relfreq", "min-df"],
)
def test_select_checks_options_before_reading_input(capsys, tmp_path, kind, options, message):
    code, out, err = _run(
        capsys, "select", kind, str(tmp_path / "missing"), "--method", "rsst", *options,
        "--out", str(tmp_path / "sel.json"),
    )
    assert code == 2
    assert json.loads(err) == {"error": "ConfigError", "message": message}


def test_report_config_is_every_option_but_the_paths(capsys, corpus, tmp_path):
    # A new parser option lands in the report's config unless it names a file.
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    out = tmp_path / "out"
    records, sel = str(out / "records.jsonl"), str(out / "sel.json")
    runs = [
        ("ingest", "summary.json", ["--manifest", str(corpus[1]), "--out-dir", str(out)]),
        ("select", "sel.json", ["--records", records, "--method", "ig", "--out", sel]),
        ("eval", "eval.json", ["--records", records, "--selection", sel, "--lengths", "1",
                               "--folds", "3", "--trees", "3", "--out", str(out / "eval.json")]),
    ]
    for command, report, argv in runs:
        code, _, err = _run(capsys, command, *argv)
        assert code == 0, err
        options = {a.dest for a in subparsers.choices[command]._actions if a.dest != "help"}
        expected = options - set(cli._PATHS) | {"command"}
        if command == "eval":
            expected.add("selection_method")
        assert set(json.loads((out / report).read_text())["config"]) == expected, command


def test_select_report_checks_its_options_for_every_method():
    fvt = callselect.midpoint_table(callselect.read_decision_table_csv(DATA / "toy_decision_table.csv"))
    good = {"top_k": None, "z_candidates": "reduct", "alpha": 0.05, "z_crit": None,
            "sigma_as_stddev": False}
    bad = [({"z_crit": float("nan")}, "z_crit"), ({"alpha": 7.0}, "alpha"),
           ({"top_k": 0}, "k must be >= 1")]
    for method in METHODS:
        assert select_report(fvt, {**good, "method": method})["ranking"]
        for change, match in bad:
            with pytest.raises(callselect.ConfigError, match=match):
                select_report(fvt, {**good, "method": method, **change})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_reports_are_strict_json(capsys, tmp_path, monkeypatch, value):
    monkeypatch.setattr(
        "callselect.cli.select_report",
        lambda fvt, config, z_table=None: {"config": config, "score": value},
    )
    code, out, err = _run(
        capsys, "select", "--decision-table", str(DATA / "toy_decision_table.csv"),
        "--method", "ig", "--out", str(tmp_path / "sel.json"),
    )
    assert code == 2
    assert json.loads(err)["error"] == "InvariantError"
    assert not (tmp_path / "sel.json").exists()


def test_select_relfreq_needs_raw_records(capsys, tmp_path):
    code, out, err = _run(
        capsys,
        "select",
        "--decision-table", str(DATA / "toy_decision_table.csv"),
        "--method", "rsst",
        "--z-weights", "relfreq",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "pre-binned" in json.loads(err)["message"]


def test_select_baseline_table(capsys, corpus, tmp_path):
    root, man = corpus
    out_dir = tmp_path / "out"
    _run(capsys, "ingest", "--manifest", str(man), "--out-dir", str(out_dir))
    sel = out_dir / "sel_ig.json"
    code, _, _ = _run(
        capsys,
        "select",
        "--records", str(out_dir / "records.jsonl"),
        "--method", "ig",
        "--top-k", "3",
        "--out", str(sel),
    )
    assert code == 0
    report = json.loads(sel.read_text())
    assert report["ranking_order"] == "score_desc"
    assert len(report["ranking"]) == 3
    scores = [row["score"] for row in report["ranking_table"]]
    assert scores == sorted(scores, reverse=True)


def test_eval_requested_length_too_long(capsys, corpus, tmp_path):
    root, man = corpus
    out_dir = tmp_path / "out"
    _run(capsys, "ingest", "--manifest", str(man), "--out-dir", str(out_dir))
    sel = out_dir / "sel.json"
    _run(
        capsys,
        "select",
        "--records", str(out_dir / "records.jsonl"),
        "--method", "su",
        "--out", str(sel),
    )
    code, out, err = _run(
        capsys,
        "eval",
        "--records", str(out_dir / "records.jsonl"),
        "--selection", str(sel),
        "--lengths", "99",
        "--folds", "3",
        "--trees", "3",
        "--out", str(out_dir / "eval.json"),
    )
    assert code == 2
    assert "99" in json.loads(err)["message"]


@pytest.fixture
def records(capsys, corpus, tmp_path):
    root, man = corpus
    _run(capsys, "ingest", "--manifest", str(man), "--out-dir", str(tmp_path / "out"))
    return tmp_path / "out" / "records.jsonl"


@pytest.mark.parametrize(
    "selection, lengths, message",
    [
        ('["write", "ptrace"]', "1", "selection report must be a JSON object"),
        ('{"ranking": [["write"]]}', "1", "ranking entries must be call names"),
        ('{"ranking": ["write", "ptrace", "write"]}', "2", "repeated call 'write'"),
        ('{"ranking": ["write", "ptrace"]}', "1,1", "repeated length 1"),
    ],
    ids=["list", "nested-entry", "repeated-call", "repeated-length"],
)
def test_eval_malformed_selection_exits_2(capsys, records, tmp_path, selection, lengths, message):
    sel = tmp_path / "sel.json"
    sel.write_text(selection)
    code, out, err = _run(
        capsys, "eval", "--records", str(records), "--selection", str(sel),
        "--lengths", lengths, "--folds", "3", "--trees", "3", "--out", str(tmp_path / "e.json"),
    )
    assert code == 2
    obj = json.loads(err)
    assert obj["error"] == "ConfigError"
    assert message in obj["message"]


@pytest.mark.parametrize(
    "selection, lengths, message",
    [
        ('{"ranking": ["write"]}', "1,x", "bad length 'x' in --lengths"),
        ('{"ranking": ["write"]}', ",", "--lengths must name at least one integer"),
        ('{"method": "rsst"}', "1", "selection report carries no ranking"),
    ],
    ids=["bad-length", "no-length", "no-ranking"],
)
def test_eval_checks_lengths_and_selection_before_records(capsys, tmp_path, selection, lengths,
                                                          message):
    sel = tmp_path / "sel.json"
    sel.write_text(selection)
    code, out, err = _run(
        capsys, "eval", "--records", str(tmp_path / "missing.jsonl"), "--selection", str(sel),
        "--lengths", lengths, "--out", str(tmp_path / "e.json"),
    )
    assert code == 2
    assert json.loads(err) == {"error": "ConfigError", "message": message}


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--folds", "1", "fold count must be >= 2, got 1"),
        ("--trees", "0", "trees_count must be >= 1, got 0"),
        ("--max-depth", "0", "max_depth must be >= 1, got 0"),
    ],
    ids=["folds", "trees", "max-depth"],
)
def test_eval_checks_sizes_before_records(capsys, tmp_path, option, value, message):
    """A bad fold count or forest size fails before the records are read:
    the missing records file goes unnamed."""
    sel = tmp_path / "sel.json"
    sel.write_text('{"ranking": ["write"]}')
    code, out, err = _run(
        capsys, "eval", "--records", str(tmp_path / "missing.jsonl"), "--selection", str(sel),
        "--lengths", "1", option, value, "--out", str(tmp_path / "e.json"),
    )
    assert code == 2
    assert json.loads(err) == {"error": "ConfigError", "message": message}


# Latin-1 bytes in each UTF-8 input, with the argv that reads it.
_UNDECODABLE = {
    "manifest": (
        b"path,label,sample_id\ncaf\xe9.log,M,s1\n",
        lambda bad, rec, out: ["ingest", "--manifest", bad, "--out-dir", out],
    ),
    "record file": (
        b'{"sample_id": "caf\xe9", "label": "M", "counts": {}, "total": 0}\n',
        lambda bad, rec, out: ["featurize", "--records", bad, "--out-dir", out],
    ),
    "decision table": (
        b"sample_id,a,label\ncaf\xe9,B1,M\n",
        lambda bad, rec, out: ["select", "--decision-table", bad, "--method", "roughset",
                               "--out", out + "/sel.json"],
    ),
    "selection report": (
        b'{"ranking": ["caf\xe9"]}\n',
        lambda bad, rec, out: ["eval", "--records", rec, "--selection", bad, "--lengths", "1",
                               "--out", out + "/eval.json"],
    ),
}


@pytest.mark.parametrize("what", list(_UNDECODABLE))
def test_undecodable_input_exits_2(capsys, records, tmp_path, what):
    content, argv = _UNDECODABLE[what]
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(content)
    code, out, err = _run(capsys, *argv(str(bad), str(records), str(tmp_path / "o")))
    assert code == 2
    obj = json.loads(err)
    assert obj["error"] == "ConfigError"
    assert obj["message"].startswith(
        f"cannot read {what} {str(bad)!r}: 'utf-8' codec can't decode byte 0xe9"
    )


def test_synth_select_eval_pipeline(capsys, tmp_path):
    run = tmp_path / "run"
    code, out, _ = _run(
        capsys,
        "synth",
        "--out-dir", str(run),
        "--samples-per-class", "40",
        "--vocabulary-size", "10",
        "--effect-size", "6",
        "--noise-std", "1",
    )
    assert code == 0
    key = json.loads((run / "answer_key.json").read_text())
    assert len(key["planted_malware_calls"]) == 3
    sel = run / "sel.json"
    _run(
        capsys,
        "select",
        "--records", str(run / "records.jsonl"),
        "--method", "rsst",
        "--z-candidates", "all",
        "--out", str(sel),
    )
    ev = run / "eval.json"
    code, out, err = _run(
        capsys,
        "eval",
        "--records", str(run / "records.jsonl"),
        "--selection", str(sel),
        "--lengths", "2,5",
        "--folds", "4",
        "--trees", "10",
        "--out", str(ev),
        "--csv", str(run / "eval.csv"),
    )
    assert code == 0
    report = json.loads(ev.read_text())
    assert [r["length"] for r in report["rows"]] == [2, 5]
    assert report["rows"][0]["acc"] >= 0.9  # strongly separable by design
    assert (run / "eval.csv").read_text().startswith("length,acc,fpr")
    # timing goes to stderr, never into the report
    assert "trained" in err
    assert "seconds" not in json.dumps(report)


def test_cli_reruns_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        _run(capsys, "synth", "--out-dir", str(d), "--samples-per-class", "25",
             "--vocabulary-size", "8")
        _run(capsys, "select", "--records", str(d / "records.jsonl"),
             "--method", "rsst", "--z-candidates", "all", "--out", str(d / "sel.json"))
        _run(capsys, "eval", "--records", str(d / "records.jsonl"),
             "--selection", str(d / "sel.json"), "--lengths", "2,4",
             "--folds", "3", "--trees", "8", "--out", str(d / "eval.json"))
    for name in ("records.jsonl", "answer_key.json", "sel.json", "eval.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_oracle_check_passes(capsys):
    code, out, err = _run(
        capsys, "oracle-check", "--tables", "5", "--subsets", "4", "--reduct-tables", "3"
    )
    assert code == 0
    result = json.loads(out)
    assert result["mismatches"] == []
    assert result["positive_region_checks"] == 20
    assert result["reduct_checks"] == 3


def test_oracle_check_reports_a_wrong_step(capsys, monkeypatch):
    # A reduct whose final answer is right but whose first step misreports
    # its significance is caught only by the per-step comparison.
    def first_step_off(table):
        r = callselect.generate_reduct(table)
        if len(r.steps) < 2:
            return r
        first = dataclasses.replace(r.steps[0], significance=r.steps[0].significance + 0.5)
        return dataclasses.replace(r, steps=(first, *r.steps[1:]))

    monkeypatch.setattr("callselect.cli.generate_reduct", first_step_off)
    code, out, err = _run(
        capsys, "oracle-check", "--tables", "1", "--subsets", "1", "--reduct-tables", "10"
    )
    kinds = {m["kind"] for m in json.loads(out)["mismatches"]}
    assert code == 1 and kinds == {"reduct_step"}


@pytest.mark.parametrize("option", ["--tables", "--subsets", "--reduct-tables"])
def test_oracle_check_rejects_negative_counts(capsys, option):
    # a negative count would run no check at all and still pass
    code, out, err = _run(capsys, "oracle-check", option, "-2")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ConfigError", "message": f"{option} must be >= 0, got -2"}


def test_unknown_method_is_usage_error(capsys, tmp_path):
    code, out, err = _run(
        capsys,
        "select",
        "--records", "r.jsonl",
        "--method", "pca",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


def test_help_exits_zero(capsys):
    code, out, err = _run(capsys, "--help")
    assert code == 0
    assert "subcommand" in out.lower() or "usage" in out.lower()


def test_cli_import_loads_no_scipy():
    # A fresh interpreter, since test plugins may have loaded scipy into this one.
    src = str(Path(callselect.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import callselect.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
