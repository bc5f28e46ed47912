"""Pinned SHA-256 digests of the seed-42 reports.

The chain synth -> featurize -> select (every method) -> eval runs once
through the CLI; each output file must match its recorded digest byte
for byte. A refactor that claims "no behaviour change" proves it here.
A change that alters output on purpose updates the digest it moves and
says so in CHANGES.md.
"""

import hashlib

import pytest

from callselect.cli import main

EXPECTED = {
    "answer_key.json": "9c1d7f48188fa9a30e9fe53f6927a81de53b8e00f7b33f55bd47ba3084ceb069",
    "decision_table.csv": "25d50b96843c4c72826a86b1e8a454ac6c912ccf729baa7047e2fe68f0b74c74",
    "eval_rsst.csv": "16afb6e08de76cf7fb308f9bd797c9902c28a87fd5d7bd8cd2501cfcda935996",
    "eval_rsst.json": "d22aa306178eeed6c6be44413599cde05a1010d304229ce60a64a5aecfcfd056",
    "fvt.csv": "77157ffd6f2d4eb966730a9f0893bdc5beef42081eef10b117c25a776019896b",
    "records.jsonl": "d49fb6e39b8491bf9a950bdb5779379db472e76725598c9e56769f9d7933317b",
    "sel_chi.json": "331d240508741cdb6c7700feb219a39d19c312cc5ec9f0a637150aa8e66cabbc",
    "sel_ig.json": "72abfc4bd6d1f7c74b37dac5c2fcaa3f35bda597d7e8250726140e4e91f59260",
    "sel_roughset.json": "50027113569a240ef978e7164c19e284c8a1f816a4aa95db3b0f527f6848a649",
    "sel_rsst.json": "2d9cf8f4e41442a9f85fcb26fa5f7ed652c84f3349d8869918d20737e4880f25",
    "sel_rsst_all.json": "de108e4adf286d12c3519ce4e1bcaeeb73d3400ca57eb1f7fae48e3252abada4",
    "sel_su.json": "ab8aded0c6861697a68225f32bb8c352b893a1f2a14acb185d1b1fbde09e2c49",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("digests")
    records = str(d / "records.jsonl")
    runs = [
        ["synth", "--seed", "42", "--out-dir", str(d)],
        ["featurize", "--records", records, "--out-dir", str(d)],
    ]
    for method in ("rsst", "roughset", "ig", "chi", "su"):
        runs.append(["select", "--records", records, "--method", method,
                     "--out", str(d / f"sel_{method}.json")])
    runs.append(["select", "--records", records, "--method", "rsst",
                 "--z-candidates", "all", "--out", str(d / "sel_rsst_all.json")])
    runs.append(["eval", "--records", records, "--selection", str(d / "sel_rsst.json"),
                 "--trees", "10", "--lengths", "3,5",
                 "--out", str(d / "eval_rsst.json"), "--csv", str(d / "eval_rsst.csv")])
    for argv in runs:
        assert main(argv) == 0, argv
    return d


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_report_digest_pinned(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == EXPECTED[name]
