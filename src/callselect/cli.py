"""Command line front end.

Subcommands: ingest, featurize, select, eval, synth, oracle-check.
Handled failures exit with code 2 and a JSON error object on stderr.
A report's config holds every option of its run but the file paths, so
identical runs write identical bytes wherever their files land.
Environment variables are never consulted.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import baselines, evaluate, ztest
from .errors import CallSelectError, ConfigError, InvariantError
from .featurize import (
    DEFAULT_MIN_DF,
    FeatureVectorTable,
    build_fvt,
    build_fvt_and_relative_frequencies,
    check_min_df,
    discretize,
    midpoint_table,
    read_decision_table_csv,
)
from .forest import DEFAULT_MAX_DEPTH, DEFAULT_TREES
from .ingest import (
    ingest_corpus,
    read_input,
    read_manifest,
    read_records_jsonl,
    write_records_jsonl,
)
from .oracles import exhaustive_reduct, naive_positive_region, random_decision_table
from .roughset import generate_reduct, positive_region, significance
from .synth import default_spec, generate

METHODS = ("rsst", "roughset", *(m.lower() for m in baselines.METHODS))

# Options that name files; reports leave them out, so identical runs write
# identical bytes wherever their files land.
_PATHS = ("manifest", "records", "decision_table", "selection", "out", "out_dir", "csv")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _dump_json(obj: dict, path: Path) -> None:
    """Write obj as strict JSON; a NaN or infinity is a bug and writes nothing."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InvariantError(f"{path.name} would not be strict JSON: {exc}") from None
    path.write_text(text + "\n", encoding="utf-8")


def _options(args: argparse.Namespace) -> dict:
    """The run's options for a report's config: every parsed value but the paths."""
    return {k: v for k, v in vars(args).items() if k not in _PATHS and k != "func"}


def _written(*paths: Path) -> int:
    print(json.dumps({"written": [str(p) for p in paths]}))
    return 0


def _parse_lengths(text: str) -> list[int]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(int(piece))
        except ValueError:
            raise ConfigError(f"bad length {piece!r} in --lengths") from None
    if not out:
        raise ConfigError("--lengths must name at least one integer")
    return out


def _seed(text: str) -> int:
    """--seed's type: numpy's generators take no negative seed."""
    if (seed := int(text)) < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    return seed


def _cmd_ingest(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = ingest_corpus(read_manifest(args.manifest))
    records_path = out_dir / "records.jsonl"
    write_records_jsonl(result.corpus, records_path)
    totals: dict[str, int] = {}
    files = []
    for s in result.summaries:
        files.append({"sample_id": s.sample_id, "path": s.path, "lines": s.by_kind})
        for kind, n in s.by_kind.items():
            totals[kind] = totals.get(kind, 0) + n
    summary_path = out_dir / "summary.json"
    _dump_json(
        {
            "config": _options(args),
            "files": files,
            "totals": totals,
            "records": len(result.corpus.sample_ids),
        },
        summary_path,
    )
    return _written(records_path, summary_path)


def _cmd_featurize(args) -> int:
    check_min_df(args.min_df)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The corpus goes as build_fvt returns; the writers hold one table each.
    fvt = build_fvt(read_records_jsonl(args.records), min_df=args.min_df)
    fvt_path = out_dir / "fvt.csv"
    fvt.to_csv(fvt_path)
    table_path = out_dir / "decision_table.csv"
    discretize(fvt).to_csv(table_path)
    return _written(fvt_path, table_path)


def _check_select(config: dict) -> None:
    """Check alpha, z_crit and top_k, which every method records."""
    ztest.critical_value(config["alpha"], config["z_crit"])
    if config["top_k"] is not None and config["top_k"] < 1:
        raise ConfigError(f"k must be >= 1, got {config['top_k']}")


def select_report(
    fvt: FeatureVectorTable, config: dict, z_table: FeatureVectorTable | None = None
) -> dict:
    """The selection report of config["method"] on fvt. Reads the config keys
    method, top_k, z_candidates, alpha, z_crit and sigma_as_stddev, and
    checks alpha, z_crit and top_k whichever method runs; rsst runs its z
    stage on z_table (relative frequencies) when one is given."""
    _check_select(config)
    method = config["method"]
    report: dict = {"config": config, "method": method}
    if method not in ("rsst", "roughset"):
        ranked = baselines.rank(fvt, method, k=config["top_k"])
        report["ranking_table"] = [{"call": f.call, "score": f.score} for f in ranked]
        report["ranking"] = [f.call for f in ranked]
        report["ranking_order"] = "score_desc"
        return report
    reduct = generate_reduct(discretize(fvt))
    report["reduct"] = reduct.to_json_dict()
    if method == "roughset":
        report["ranking"] = list(reduct.calls)
        report["ranking_order"] = "significance_step_order"
        return report
    if z_table is None:
        z_table = fvt
    result = ztest.filter_calls(
        z_table,
        reduct.calls if config["z_candidates"] == "reduct" else z_table.calls,
        alpha=config["alpha"],
        z_crit=config["z_crit"],
        sigma_as_stddev=config["sigma_as_stddev"],
    )
    report["z_filter"] = result.to_json_dict()
    report["ranking"] = ztest.eval_ranking(result)
    report["ranking_order"] = "abs_z_desc_then_rejected"
    return report


def _cmd_select(args) -> int:
    if bool(args.records) == bool(args.decision_table):
        raise ConfigError("pass exactly one of --records or --decision-table")
    config = _options(args)
    _check_select(config)  # options fail before any input is read
    if args.records:
        check_min_df(args.min_df)
    z_table = None
    if args.decision_table:
        if args.z_weights != "tfidf":
            raise ConfigError("relative frequencies are unavailable for a pre-binned table")
        if args.min_df != DEFAULT_MIN_DF:
            raise ConfigError("--min-df does not apply to a pre-binned table")
        if args.method == "chi":  # every bin midpoint is above 0, so every call is present
            raise ConfigError("chi reads call presence, which a pre-binned table does not keep")
        # Midpoints bin back to the bins read: the records path, z stage included.
        fvt = midpoint_table(read_decision_table_csv(args.decision_table))
    elif args.z_weights == "relfreq" and args.method == "rsst":
        fvt, z_table = build_fvt_and_relative_frequencies(
            read_records_jsonl(args.records), min_df=args.min_df)
    else:
        fvt = build_fvt(read_records_jsonl(args.records), min_df=args.min_df)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _dump_json(select_report(fvt, config, z_table), out)
    return _written(out)


def _cmd_eval(args) -> int:
    import time

    # The records are read last, so a bad selection or option fails fast.
    try:
        selection = json.loads(read_input(args.selection, "selection report"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"selection report is not valid JSON: {exc}") from exc
    if not isinstance(selection, dict):
        raise ConfigError("selection report must be a JSON object")
    ranking = selection.get("ranking")
    if not isinstance(ranking, list) or not ranking:
        raise ConfigError("selection report carries no ranking")
    evaluate.check_sweep(ranking, args.lengths, args.folds, args.trees, args.max_depth)
    check_min_df(args.min_df)
    fvt = build_fvt(read_records_jsonl(args.records), min_df=args.min_df)
    t0 = time.perf_counter()
    report = evaluate.sweep(
        fvt,
        ranking,
        args.lengths,
        folds=args.folds,
        seed=args.seed,
        trees_count=args.trees,
        max_depth=args.max_depth,
    )
    print(f"trained {args.folds} folds x {len(args.lengths)} lengths "
          f"in {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    config = {**_options(args), "selection_method": selection.get("method")}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _dump_json({"config": config, **report.to_json_dict()}, out)
    written = [out]
    if args.csv:
        csv_path = Path(args.csv)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        report.to_csv(csv_path)
        written.append(csv_path)
    return _written(*written)


def _cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The parser sets only the spec options given, so default_spec owns the rest.
    spec = default_spec(**{k: v for k, v in _options(args).items() if k != "command"})
    records_path = out_dir / "records.jsonl"
    write_records_jsonl(generate(spec)[0], records_path)
    key_path = out_dir / "answer_key.json"
    shared = {name: getattr(spec, name) for name in ("effect_size", "noise_std", "seed")}
    _dump_json(
        {
            "config": {"command": "synth", "samples_per_class": spec.samples_per_class,
                       "vocabulary_size": spec.vocabulary_size, **shared},
            "planted_malware_calls": list(spec.planted_malware_calls),
            "planted_benign_calls": list(spec.planted_benign_calls),
            **shared,
        },
        key_path,
    )
    return _written(records_path, key_path)


def _cmd_oracle_check(args) -> int:
    counts = {"--tables": args.tables, "--subsets": args.subsets,
              "--reduct-tables": args.reduct_tables}
    for option, count in counts.items():
        if count < 0:
            raise ConfigError(f"{option} must be >= 0, got {count}")
    rng = np.random.default_rng(args.seed)
    region_checks = 0
    reduct_checks = 0
    mismatches = []
    for _ in range(args.tables):
        table = random_decision_table(
            rng, int(rng.integers(5, 26)), int(rng.integers(2, 9))
        )
        for _ in range(args.subsets):
            k = int(rng.integers(0, len(table.calls) + 1))
            attrs = list(rng.choice(table.calls, size=k, replace=False))
            region_checks += 1
            if positive_region(table, attrs) != naive_positive_region(table, attrs):
                mismatches.append({"kind": "positive_region", "attrs": sorted(attrs)})
    for _ in range(args.reduct_tables):
        table = random_decision_table(
            rng, int(rng.integers(5, 21)), int(rng.integers(2, 8))
        )
        reduct_checks += 1
        greedy = generate_reduct(table)
        best = exhaustive_reduct(table)
        if abs(greedy.final_significance - best.best_significance) > 1e-12:
            mismatches.append({"kind": "reduct", "greedy": greedy.final_significance,
                               "exhaustive": best.best_significance})
        if abs(significance(table, greedy.calls) - best.best_significance) > 1e-12:
            mismatches.append({"kind": "reduct_calls", "calls": list(greedy.calls)})
        added = [s.call for s in greedy.steps]
        for i, step in enumerate(greedy.steps):
            if step.significance != significance(table, added[: i + 1]):
                mismatches.append({"kind": "reduct_step", "calls": added[: i + 1],
                                   "significance": step.significance})
    print(
        json.dumps(
            {
                "config": {"command": "oracle-check", "seed": args.seed},
                "positive_region_checks": region_checks,
                "reduct_checks": reduct_checks,
                "mismatches": mismatches,
            },
            sort_keys=True,
        )
    )
    return 0 if not mismatches else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="callselect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse trace logs named by a manifest CSV")
    p.add_argument("--manifest", required=True, help="CSV with header path,label,sample_id")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("featurize", help="build the weighted and binned feature tables")
    p.add_argument("--records", required=True, help="records.jsonl from ingest or synth")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-df", type=int, default=DEFAULT_MIN_DF)
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("select", help="rank calls with one of the selectors")
    p.add_argument("--records", help="records.jsonl input")
    p.add_argument(
        "--decision-table",
        help="pre-binned decision table CSV; the z stage runs on bin midpoints",
    )
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--out", required=True, help="selection report JSON path")
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--alpha", type=float, default=ztest.DEFAULT_ALPHA)
    p.add_argument("--z-crit", type=float)
    p.add_argument("--sigma-as-stddev", action="store_true",
                   help="use standard deviations instead of variances in the z denominator")
    p.add_argument("--z-candidates", choices=("reduct", "all"), default="reduct")
    p.add_argument("--z-weights", choices=("tfidf", "relfreq"), default="tfidf")
    p.add_argument("--min-df", type=int, default=DEFAULT_MIN_DF)
    p.add_argument("--top-k", type=int, help="ig, chi, su keep k calls; rsst, roughset record k")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("eval", help="cross-validated sweep over ranking prefixes")
    p.add_argument("--records", required=True)
    p.add_argument("--selection", required=True, help="selection report JSON")
    p.add_argument("--lengths", required=True, type=_parse_lengths,
                   help="comma separated prefix lengths")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="optional CSV mirror of the report")
    p.add_argument("--seed", type=_seed, default=evaluate.DEFAULT_SEED)
    p.add_argument("--folds", type=int, default=evaluate.DEFAULT_FOLDS)
    p.add_argument("--trees", type=int, default=DEFAULT_TREES)
    p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    p.add_argument("--min-df", type=int, default=DEFAULT_MIN_DF)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="draw a synthetic corpus with a planted answer key",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--samples-per-class", type=int)
    p.add_argument("--vocabulary-size", type=int)
    p.add_argument("--planted-malware", type=int)
    p.add_argument("--planted-benign", type=int)
    p.add_argument("--effect-size", type=float)
    p.add_argument("--noise-std", type=float)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("oracle-check", help="randomized equivalence battery against the brute-force oracles")
    p.add_argument("--tables", type=int, default=25)
    p.add_argument("--subsets", type=int, default=10)
    p.add_argument("--reduct-tables", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=42)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except CallSelectError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
