"""Turn call counts into the weighted feature table and its binned form.

Weights are tf-idf scaled to [0, 1] per column; a call present in every
sample gets idf 0 and the whole column collapses to zero. The binned
table maps each weight onto B1..B4 quarters.
"""

import numpy as np

from callselect import CallCountRecord, Corpus, build_fvt, discretize


def record(sample_id, label, **counts):
    return CallCountRecord(
        sample_id=sample_id,
        label=label,
        counts=dict(counts),
        total_calls=sum(counts.values()),
    )


def main() -> None:
    corpus = Corpus.from_records([
        record("mal-0", "M", ptrace=6, socket=3, read=2),
        record("mal-1", "M", ptrace=4, socket=1, read=4, write=1),
        record("ben-0", "B", read=8, write=5),
        record("ben-1", "B", read=3, write=6, stat=2),
    ])

    fvt = build_fvt(corpus)
    print("vocabulary:", fvt.calls)
    print("\nweights (rows follow the corpus order):")
    with np.printoptions(precision=3, suppress=True):
        print(fvt.weights)

    # read appears in all four samples, so its idf zeroes the column
    print("\nread column:", fvt.column("read"))

    table = discretize(fvt)
    print("\nbinned table:")
    for sid, row, label in zip(table.sample_ids, table.bins, table.labels):
        cells = " ".join(f"B{b}" for b in row)
        print(f"  {sid:<7} {cells}  -> {label}")


if __name__ == "__main__":
    main()
