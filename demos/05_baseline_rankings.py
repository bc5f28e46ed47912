"""Compare the reference selectors on the same synthetic corpus.

Information gain and symmetric uncertainty read the binned table;
chi-square reads presence against absence. All three should push the
planted calls to the front when the effect size is comfortable.
"""

from callselect import build_fvt, generate, rank
from callselect.synth import default_spec


def main() -> None:
    corpus, key = generate(default_spec())
    fvt = build_fvt(corpus)
    planted = set(key.planted_malware_calls) | set(key.planted_benign_calls)

    for method in ("IG", "CHI", "SU"):
        top = rank(fvt, method, k=10)
        hits = sum(1 for r in top if r.call in planted)
        print(f"{method}: planted in top 10 = {hits}/{len(planted)}")
        for r in top[:6]:
            mark = "*" if r.call in planted else " "
            print(f"   {mark} {r.call:<6} {r.score:.4f}")
        print()


if __name__ == "__main__":
    main()
