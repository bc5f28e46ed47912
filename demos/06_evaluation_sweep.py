"""Sweep ranking prefixes through the cross-validated bagged-tree harness.

A good ranking should hit full-set accuracy with a handful of calls.
The sweep trains one forest per fold per prefix length and reports
micro-averaged metrics per length.
"""

from callselect import build_fvt, eval_ranking, filter_calls, generate, sweep
from callselect.synth import default_spec


def main() -> None:
    spec = default_spec()
    corpus, _ = generate(spec)
    fvt = build_fvt(corpus)

    ranking = eval_ranking(filter_calls(fvt, fvt.calls))
    print(f"ranking head: {ranking[:8]}")

    report = sweep(
        fvt,
        ranking,
        lengths=[1, 2, 5, 10, 25, 50],
        folds=10,
        seed=42,
        trees_count=40,
        max_depth=12,
    )

    print(f"\n{'length':>6} {'acc':>7} {'fpr':>7} {'auc':>7} {'roc':>7} {'f1':>7}")
    for row in report.rows:
        print(
            f"{row.length:>6} {row.acc:>7.4f} {row.fpr:>7.4f}"
            f" {row.paper_auc:>7.4f} {row.roc_auc:>7.4f} {row.f1:>7.4f}"
        )
    avg = report.average
    print(f"{'mean':>6} " + " ".join(f"{avg[m]:>7.4f}" for m in ("acc", "fpr", "paper_auc", "roc_auc", "f1")))


if __name__ == "__main__":
    main()
