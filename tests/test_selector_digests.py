"""Pinned SHA-256 digests of select reports on a hand-built corpus.

The seed-42 synth corpus of test_digests.py has no degenerate columns.
This corpus adds them on purpose, so the whole-table scorers meet every
edge the per-call ones did:

- ``always`` is in every record: its idf is 0, so its column is constant,
  chi is 0 and z is None;
- ``once`` is in a single record;
- ``mal_a`` and ``mal_b`` are in malware records only;
- ``tie_x`` and ``tie_y`` hold equal counts in every record;
- ``n0`` .. ``n5`` are random noise.
"""

import hashlib
import json

import numpy as np
import pytest

from callselect.cli import main

EXPECTED = {
    "chi": "ff6eb5deac43ed3696c88c0ded67a1ac1873ffdfe69e3c27009aa5c5017d49c9",
    "ig": "b1d070a37095d0fcf0330972855d56f59684c31b5993855bd6306bea893a9f85",
    "rsst": "87bc46c183f93d12bf1142fa378c51769b2d27d6479f54ff06d02515deb5ac82",
    "rsst_all": "2325cce51e22fbee4e7cd4ec3c4dff1a083141f38ae4b20e8840c8c95f1bbec7",
    "su": "d3eceb57253bf1f33335f7aab0edc31e28cccb89a97bde518d9ec637f846718a",
}

RUNS = {
    "chi": ["--method", "chi"],
    "ig": ["--method", "ig"],
    "rsst": ["--method", "rsst"],
    "rsst_all": ["--method", "rsst", "--z-candidates", "all"],
    "su": ["--method", "su"],
}


def _records(seed=7, per_class=18):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(2 * per_class):
        label = "M" if i < per_class else "B"
        counts = {"always": int(rng.integers(1, 6))}
        if i == 5:
            counts["once"] = 3
        if label == "M":
            for name in ("mal_a", "mal_b"):
                if rng.random() < 0.7:
                    counts[name] = int(rng.integers(1, 9))
        tie = int(rng.integers(0, 4))
        if tie:
            counts["tie_x"] = counts["tie_y"] = tie
        for j in range(6):
            if rng.random() < 0.6:
                counts[f"n{j}"] = int(rng.integers(1, 12))
        rows.append({"sample_id": f"s{i:02d}", "label": label,
                     "counts": dict(sorted(counts.items())),
                     "total": sum(counts.values())})
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    d = tmp_path_factory.mktemp("selector_digests")
    records = d / "records.jsonl"
    records.write_text(_records(), encoding="utf-8")
    for name, args in RUNS.items():
        argv = ["select", "--records", str(records), *args, "--out", str(d / f"{name}.json")]
        assert main(argv) == 0, argv
    return d


def test_corpus_has_the_degenerate_columns(reports):
    rsst = json.loads((reports / "rsst_all.json").read_text())
    rejected = {row["call"]: row["z"] for row in rsst["z_filter"]["rejected"]}
    assert rejected["always"] is None
    chi = json.loads((reports / "chi.json").read_text())
    scores = {row["call"]: row["score"] for row in chi["ranking_table"]}
    assert scores["always"] == 0.0
    assert scores["tie_x"] == scores["tie_y"]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_select_report_digest_pinned(reports, name):
    digest = hashlib.sha256((reports / f"{name}.json").read_bytes()).hexdigest()
    assert digest == EXPECTED[name]
