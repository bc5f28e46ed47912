"""Run the two-stage selector on a synthetic corpus with a known answer.

Stage one reduces the call set with the greedy rough-set reduct. Stage
two scores candidates with a two-sample z statistic and keeps only the
calls whose class means differ beyond the critical value, split into a
malware-leaning and a benign-leaning list.
"""

from callselect import build_fvt, filter_calls, generate, generate_reduct
from callselect.featurize import discretize
from callselect.synth import default_spec


def main() -> None:
    spec = default_spec()
    corpus, key = generate(spec)
    print(f"corpus: {len(corpus.sample_ids)} samples, {spec.vocabulary_size} calls")
    print(f"planted malware calls: {key.planted_malware_calls}")
    print(f"planted benign calls:  {key.planted_benign_calls}")

    fvt = build_fvt(corpus)
    reduct = generate_reduct(discretize(fvt))
    print(f"\nstage 1 reduct ({len(reduct.calls)} calls): {reduct.calls}")

    result = filter_calls(fvt, candidates=fvt.calls)
    print(f"\nstage 2 with |z| > {result.z_crit}:")
    print("  malware list (z descending):")
    for v in result.malware:
        print(f"    {v.call:<6} z = {v.z:+.2f}")
    print("  benign list (most negative first):")
    for v in result.benign:
        print(f"    {v.call:<6} z = {v.z:+.2f}")
    print(f"  rejected: {len(result.rejected)} calls")

    planted = set(key.planted_malware_calls) | set(key.planted_benign_calls)
    survivors = {v.call for v in result.malware} | {v.call for v in result.benign}
    print(f"\nplanted recovered: {sorted(planted & survivors)}")
    print(f"false survivors:   {sorted(survivors - planted) or 'none'}")


if __name__ == "__main__":
    main()
