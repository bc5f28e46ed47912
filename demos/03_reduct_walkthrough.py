"""Walk the greedy reduct over a seven-sample example table.

The table is small enough to check by eye: blocks of samples that agree
on the chosen calls either stay label-pure (they land in the positive
region) or mix both labels. Significance is the purity fraction, and the
reduct grows greedily until it matches the full call set.
"""

import numpy as np

from callselect import (
    DecisionTable,
    generate_reduct,
    partition,
    positive_region,
    significance,
)


def main() -> None:
    table = DecisionTable(
        sample_ids=tuple(f"x{i}" for i in range(1, 8)),
        calls=("s1", "s2", "s3"),
        bins=np.array(
            [
                [1, 4, 1],
                [2, 1, 2],
                [2, 1, 2],
                [2, 2, 1],
                [3, 2, 4],
                [1, 2, 3],
                [3, 2, 3],
            ],
            dtype=np.int8,
        ),
        labels=("B", "M", "M", "B", "M", "B", "M"),
    )

    print("labels:", dict(zip(table.sample_ids, table.labels)))

    for call in table.calls:
        blocks = partition(table, [call])
        pos = sorted(positive_region(table, [call]))
        psi = significance(table, [call])
        names = [tuple(table.sample_ids[i] for i in b) for b in blocks]
        print(f"\n{call}: blocks {names}")
        print(f"    pure rows {[table.sample_ids[i] for i in pos]}  psi = {psi:.4f}")

    print("\npairs:")
    for pair in (("s1", "s2"), ("s1", "s3"), ("s2", "s3")):
        print(f"  psi{pair} = {significance(table, pair):.4f}")

    reduct = generate_reduct(table)
    print("\ngreedy steps:")
    for step in reduct.steps:
        print(f"  add {step.call}: significance -> {step.significance:.4f}")
    print(f"backward removals: {list(reduct.removed_in_backward_pass) or 'none'}")
    print(f"final reduct: {reduct.calls}")


if __name__ == "__main__":
    main()
