"""Benchmark for callselect: one workload per run, printed as one JSON line.

Usage (from the repository root):
    python3 callbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's inputs from the seed, measures set-up
(a fresh interpreter importing callselect.cli, median of several), then
runs the workload's CLI chain in one child process through
callselect.cli.main, round after round for S seconds, and checks the
outputs against computations made here. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
untraced, the per-layer metrics from spans when --trace 1.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# One process chain, no helper threads: numerical libraries stay
# single-threaded here and in every child, which inherits the environment.
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import checks  # noqa: E402  (imports numpy, which reads the settings above)
import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPEATS = 3
CHAIN_TIMEOUT_S = 150

# Input sizes. One round of a chain takes 2-9 s, so a 15 s run measures
# two or more rounds.
TRACE_SMALL_LOGS = 300
TRACE_LARGE_LINES = 400_000
WIDE_PER_CLASS, WIDE_CALLS, WIDE_PLANTED, WIDE_EFFECT = 4000, 300, (4, 4), 2.0
TABLE_PER_CLASS, TABLE_CALLS, TABLE_PLANTED, TABLE_EFFECT = 3000, 300, (3, 2), 4.0
CV_PER_CLASS, CV_CALLS, CV_PLANTED, CV_EFFECT = 200, 50, (3, 2), 5.0
CV_SELECTORS = ("rsst", "ig", "chi", "su")
CV_LENGTHS, CV_FOLDS, CV_TREES = "3,5", 10, 100

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.import_scipy_s", "s"),
    ("ingest.parse_s", "s"), ("ingest.lines_per_s", "lines/s"), ("ingest.parse_rss_mb", "MB"),
    ("ingest.write_jsonl_s", "s"), ("ingest.read_jsonl_s", "s"), ("ingest.read_jsonl_rss_mb", "MB"),
    ("synth.generate_s", "s"),
    ("featurize.build_fvt_s", "s"), ("featurize.discretize_s", "s"),
    ("featurize.csv_write_s", "s"), ("featurize.csv_write_rss_mb", "MB"),
    ("roughset.reduct_s", "s"), ("roughset.candidates_scored", "count"),
    ("roughset.us_per_candidate", "us"),
    ("ztest.filter_s", "s"), ("baselines.rank_s", "s"),
    ("forest.train_s", "s"), ("forest.trees_per_s", "trees/s"), ("forest.predict_s", "s"),
    ("evaluate.sweep_s", "s"), ("evaluate.self_s", "s"),
    ("trace.wall_s", "s"),
)


@dataclass(frozen=True)
class Op:
    argv: list[str]
    outputs: list[Path]


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[Path, int], Any]  # writes inputs under the dir, returns the truth
    ops: Callable[[Path, int], list[Op]]
    check: Callable[[Path, Any], list[checks.Problem]]


def _trace_ops(d: Path, seed: int) -> list[Op]:
    out = d / "out"
    return [
        Op(["ingest", "--manifest", str(d / "in" / "manifest.csv"), "--out-dir", str(out)],
           [out / "records.jsonl", out / "summary.json"]),
        Op(["featurize", "--records", str(out / "records.jsonl"), "--out-dir", str(out)],
           [out / "fvt.csv", out / "decision_table.csv"]),
    ]


def _wide_prepare(d: Path, seed: int) -> gen.WideCorpus:
    corpus = gen.wide_corpus(seed, WIDE_PER_CLASS, WIDE_CALLS, *WIDE_PLANTED, WIDE_EFFECT)
    gen.write_records(corpus, d / "in" / "records.jsonl")
    return corpus


def _wide_ops(d: Path, seed: int) -> list[Op]:
    sel = d / "out" / "sel.json"
    return [Op(["select", "--records", str(d / "in" / "records.jsonl"), "--method", "rsst",
                "--z-candidates", "all", "--seed", str(seed), "--out", str(sel)], [sel])]


def _table_ops(d: Path, seed: int) -> list[Op]:
    out = d / "out"
    return [
        Op(["synth", "--samples-per-class", str(TABLE_PER_CLASS),
            "--vocabulary-size", str(TABLE_CALLS), "--planted-malware", str(TABLE_PLANTED[0]),
            "--planted-benign", str(TABLE_PLANTED[1]), "--effect-size", str(TABLE_EFFECT),
            "--seed", str(seed), "--out-dir", str(out)],
           [out / "records.jsonl", out / "answer_key.json"]),
        Op(["featurize", "--records", str(out / "records.jsonl"), "--out-dir", str(out)],
           [out / "fvt.csv", out / "decision_table.csv"]),
    ]


def _cv_prepare(d: Path, seed: int) -> gen.WideCorpus:
    corpus = gen.wide_corpus(seed, CV_PER_CLASS, CV_CALLS, *CV_PLANTED, CV_EFFECT)
    gen.write_records(corpus, d / "in" / "records.jsonl")
    return corpus


def _cv_ops(d: Path, seed: int) -> list[Op]:
    records, out = str(d / "in" / "records.jsonl"), d / "out"
    ops = []
    for m in CV_SELECTORS:
        extra = ["--z-candidates", "all"] if m == "rsst" else []
        ops.append(Op(["select", "--records", records, "--method", m, *extra,
                       "--seed", str(seed), "--out", str(out / f"sel_{m}.json")],
                      [out / f"sel_{m}.json"]))
    for m in CV_SELECTORS:
        ops.append(Op(["eval", "--records", records, "--selection", str(out / f"sel_{m}.json"),
                       "--lengths", CV_LENGTHS, "--folds", str(CV_FOLDS), "--trees", str(CV_TREES),
                       "--seed", str(seed), "--out", str(out / f"eval_{m}.json")],
                      [out / f"eval_{m}.json"]))
    return ops


def _cv_check(d: Path, corpus: gen.WideCorpus) -> list[checks.Problem]:
    out = d / "out"
    vocab = [c for c, n in zip(corpus.calls, corpus.counts.sum(axis=0)) if n > 0]
    problems = []
    for m in CV_SELECTORS:
        problems += checks.check_selection(out / f"sel_{m}.json", vocab)
        problems += checks.check_eval(out / f"eval_{m}.json", list(corpus.labels), CV_FOLDS,
                                      min_acc=0.95, min_auc=0.98, at_length=5)
    return problems


WORKLOADS = {
    "trace-ingest": Workload(
        prepare=lambda d, seed: gen.write_strace_corpus(
            d / "in", seed, small_logs=TRACE_SMALL_LOGS, large_lines=TRACE_LARGE_LINES),
        ops=_trace_ops,
        check=lambda d, corpus: checks.check_trace_ingest(d / "out", corpus),
    ),
    "wide-select": Workload(
        prepare=_wide_prepare,
        ops=_wide_ops,
        check=lambda d, corpus: checks.check_wide_select(d / "out" / "sel.json", corpus),
    ),
    "table-build": Workload(
        prepare=lambda d, seed: None,
        ops=_table_ops,
        check=lambda d, _: checks.check_table_build(
            d / "out", TABLE_PER_CLASS, TABLE_PLANTED, TABLE_EFFECT),
    ),
    "cv-sweep": Workload(prepare=_cv_prepare, ops=_cv_ops, check=_cv_check),
}


_IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import callselect.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing callselect.cli."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CODE.format(src=str(SRC))],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"importing callselect.cli failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def scipy_import_seconds() -> float:
    """scipy's share of the callselect.cli import, from -X importtime.

    Sums the cumulative time of every scipy module whose importer is not
    itself a scipy module.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           _IMPORT_CODE.format(src=str(SRC))],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"importing callselect.cli failed:\n{proc.stderr[-2000:]}")
    entries = []
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    # Lines come in completion order; reversed, every importer precedes its imports.
    stack: list[str] = []
    total_us = 0
    for depth, name, cumulative in reversed(entries):
        del stack[depth:]
        parent = stack[-1] if stack else ""
        stack.append(name)
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total_us += cumulative
    return total_us / 1e6


def run_chain(workload: str, d: Path, ops: list[Op], seconds: float, trace: bool) -> dict:
    plan = {
        "src": str(SRC),
        "ops": [op.argv for op in ops],
        "seconds": seconds,
        "trace": trace,
        "result": str(d / "chain.json"),
        "trace_out": str(d / "spans.json"),
    }
    plan_path = d / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "chain.py"), str(plan_path)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHAIN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: chain process failed:\n{proc.stderr[-4000:]}")
    return json.loads((d / "chain.json").read_text(encoding="utf-8"))


def count_failures(ops: list[Op], rounds: list[dict],
                   problems: list[checks.Problem]) -> tuple[int, bool, list[str]]:
    """Count failed operations and say whether every output was right.

    An operation fails on a nonzero exit, on output that differs from the
    checked (last) round, or when a check finds a problem in a file it wrote.
    Outputs are wrong when a check finds a problem or a rerun differs.
    """
    bad_files = {p.resolve() for p, _ in problems}
    reference = [op["digest"] for op in rounds[-1]["ops"]]
    failed, correct, notes = 0, not problems, []
    for r, rnd in enumerate(rounds):
        for i, (op, res) in enumerate(zip(ops, rnd["ops"])):
            why = None
            if res["rc"] != 0:
                why = f"exit {res['rc']}: {res['stderr'].strip()[-300:]}"
            elif res["digest"] != reference[i]:
                why = "output differs between rounds"
                correct = False
            elif any(p.resolve() in bad_files for p in op.outputs):
                why = "output check failed"
            if why:
                failed += 1
                notes.append(f"round {r} op {i} ({op.argv[0]}): {why}")
    return failed, correct, notes


def layer_metrics(spans: list[dict], round_walls: list[float], import_s: float,
                  scipy_s: float) -> dict[str, float]:
    rounds = sorted({s["round"] for s in spans})

    def dur(s: dict) -> float:
        return s["end"] - s["start"]

    def per_round(names: tuple[str, ...], value: Callable[[dict], float] = dur) -> list[float]:
        return [sum(value(s) for s in spans if s["name"] in names and s["round"] == r)
                for r in rounds]

    def med(values: list[float]) -> float:
        return float(statistics.median(values)) if values else 0.0

    def ratio(nums: list[float], dens: list[float], scale: float = 1.0) -> float:
        return med([scale * n / d for n, d in zip(nums, dens) if d > 0])

    def growth(names: tuple[str, ...]) -> float:
        # High-water RSS only rises, so growth shows on the first round.
        return float(sum(s["rss_after_mb"] - s["rss_before_mb"]
                         for s in spans if s["name"] in names and s["round"] == rounds[0]))

    def self_time(s: dict) -> float:
        covered, edge = 0.0, s["start"]
        for c in sorted((c for c in spans if c["parent"] == s["id"]), key=lambda c: c["start"]):
            start, end = max(c["start"], edge), min(c["end"], s["end"])
            if end > start:
                covered += end - start
                edge = end
        return dur(s) - covered

    parse = per_round(("ingest.ingest_corpus",))
    lines = per_round(("ingest.ingest_corpus",), lambda s: s.get("lines", 0))
    reduct = per_round(("roughset.generate_reduct",))
    candidates = per_round(("roughset.generate_reduct",), lambda s: s.get("candidates", 0))
    train = per_round(("forest.train",))
    trees = per_round(("forest.train",), lambda s: s.get("trees", 0))
    csv_names = ("featurize.fvt_to_csv", "featurize.decision_to_csv")
    return {
        "cli.import_s": import_s,
        "cli.import_scipy_s": scipy_s,
        "ingest.parse_s": med(parse),
        "ingest.lines_per_s": ratio(lines, parse),
        "ingest.parse_rss_mb": growth(("ingest.ingest_corpus",)),
        "ingest.write_jsonl_s": med(per_round(("ingest.write_records_jsonl",))),
        "ingest.read_jsonl_s": med(per_round(("ingest.read_records_jsonl",))),
        "ingest.read_jsonl_rss_mb": growth(("ingest.read_records_jsonl",)),
        "synth.generate_s": med(per_round(("synth.generate",))),
        "featurize.build_fvt_s": med(per_round(("featurize.build_fvt",))),
        "featurize.discretize_s": med(per_round(("featurize.discretize",))),
        "featurize.csv_write_s": med(per_round(csv_names)),
        "featurize.csv_write_rss_mb": growth(csv_names),
        "roughset.reduct_s": med(reduct),
        "roughset.candidates_scored": med(candidates),
        "roughset.us_per_candidate": ratio(reduct, candidates, 1e6),
        "ztest.filter_s": med(per_round(("ztest.filter_calls",))),
        "baselines.rank_s": med(per_round(("baselines.rank",))),
        "forest.train_s": med(train),
        "forest.trees_per_s": ratio(trees, train),
        "forest.predict_s": med(per_round(("forest.predict", "forest.predict_scores"))),
        "evaluate.sweep_s": med(per_round(("evaluate.sweep",))),
        "evaluate.self_s": med(per_round(("evaluate.sweep",), self_time)),
        "trace.wall_s": med(round_walls),
    }


def _exit_on_term(signum, frame) -> None:
    # SystemExit unwinds through subprocess.run, which kills and reaps the child.
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_term)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "callselect" / "cli.py").is_file():
        raise SystemExit(f"no program to measure: {SRC / 'callselect'} is missing")
    workload = WORKLOADS[args.workload]

    d = WORK / args.workload
    shutil.rmtree(d, ignore_errors=True)
    (d / "in").mkdir(parents=True)
    (d / "out").mkdir()
    phases = {}
    t0 = time.perf_counter()
    truth = workload.prepare(d, args.seed)
    phases["generate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    scipy_s = (statistics.median(scipy_import_seconds() for _ in range(SETUP_REPEATS))
               if args.trace else 0.0)
    phases["setup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ops = workload.ops(d, args.seed)
    chain = run_chain(args.workload, d, ops, args.seconds, bool(args.trace))
    phases["chain"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rounds = chain["rounds"]
    walls = [r["seconds"] for r in rounds]
    problems = workload.check(d, truth)
    failed, correct, notes = count_failures(ops, rounds, problems)
    phases["check"] = time.perf_counter() - t0
    for p, msg in problems:
        print(f"[{args.workload}] check: {p.name}: {msg}", file=sys.stderr)
    for note in notes[:20]:
        print(f"[{args.workload}] failed: {note}", file=sys.stderr)
    print(f"[{args.workload}] {len(rounds)} rounds, round walls "
          f"{', '.join(f'{w:.3f}' for w in walls)}s; phases "
          f"{', '.join(f'{k} {v:.1f}s' for k, v in phases.items())}", file=sys.stderr)

    if args.trace:
        spans = json.loads((d / "spans.json").read_text(encoding="utf-8"))
        values = layer_metrics(spans, walls, statistics.median(imports), scipy_s)
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(imports),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": chain["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    result = {
        "correct": correct,
        "attempted": len(rounds) * len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
