"""Pinned SHA-256 digests of select reports along the less-used input paths.

test_digests.py and test_selector_digests.py pin select on records with
default options. These pins cover the rest of what select decides:

- a pre-binned ``--decision-table`` input, for every method, where the
  z stage runs on bin midpoints;
- records with ``--z-weights relfreq``, with ``--sigma-as-stddev`` and
  with ``--top-k 3``.
"""

import hashlib
from pathlib import Path

import pytest

from callselect.cli import main

TOY = Path(__file__).parent / "data" / "toy_decision_table.csv"

EXPECTED = {
    "table_ig": "fbea6a9801d764bce062a628d44fac64df0a7797d1ce3610599597ad615f9347",
    "table_roughset": "6c030f178070025972b89932b1847178b515ed8bbf4768289cdd15a6b4171dbc",
    "table_rsst": "51bc9883007196080feb1950e343784511ab316c36e654c278fb1842e6725dc5",
    "table_rsst_all": "bf4dc2d0f15e58b573d161536254c292aab823f9d9a731559dfc35d1daaa8625",
    "table_su": "7d6aa594bf48eab4e8893f53be28701ce5432520554e4efc9b6c4b0a8d59bf48",
    "records_chi_top3": "2e68f5da777e90e006c81529ea65e5ed5123189df47273b552ee3ac2b7914c52",
    "records_ig_top3": "fe4fb97b6ff693c56c759542e95ed666a3f9b909485080de16805df16a97309c",
    "records_rsst_relfreq": "0f3490cc01127a610510bf17e9921041ec13541ea696436484cad9a9a8604750",
    "records_rsst_relfreq_all_stddev": "57a11822fbfbc6564903f61465e78f1f7236c372d9db0112bf5165c865311bcb",
    "records_rsst_stddev": "6a9624a79485e16812f723b1ff46c5d745ac37302ac83a2831d96b16fe39d226",
    "records_su_top3": "5d6cf947fcabc33a2f8a479d3f4a9c9b08150020bbe7bdd2b73c1547013bbfbf",
}

TABLE_RUNS = {
    "table_ig": ["--method", "ig"],
    "table_roughset": ["--method", "roughset"],
    "table_rsst": ["--method", "rsst"],
    "table_rsst_all": ["--method", "rsst", "--z-candidates", "all"],
    "table_su": ["--method", "su"],
}

RECORDS_RUNS = {
    "records_chi_top3": ["--method", "chi", "--top-k", "3"],
    "records_ig_top3": ["--method", "ig", "--top-k", "3"],
    "records_rsst_relfreq": ["--method", "rsst", "--z-weights", "relfreq"],
    "records_rsst_relfreq_all_stddev": ["--method", "rsst", "--z-weights", "relfreq",
                                        "--z-candidates", "all", "--sigma-as-stddev"],
    "records_rsst_stddev": ["--method", "rsst", "--sigma-as-stddev"],
    "records_su_top3": ["--method", "su", "--top-k", "3"],
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    d = tmp_path_factory.mktemp("select_pins")
    synth = ["synth", "--samples-per-class", "40", "--vocabulary-size", "20",
             "--effect-size", "2", "--seed", "11", "--out-dir", str(d)]
    assert main(synth) == 0
    runs = [["--decision-table", str(TOY), *args, "--out", str(d / f"{name}.json")]
            for name, args in TABLE_RUNS.items()]
    runs += [["--records", str(d / "records.jsonl"), *args, "--out", str(d / f"{name}.json")]
             for name, args in RECORDS_RUNS.items()]
    for argv in runs:
        assert main(["select", *argv]) == 0, argv
    return d


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_select_report_digest_pinned(reports, name):
    digest = hashlib.sha256((reports / f"{name}.json").read_bytes()).hexdigest()
    assert digest == EXPECTED[name]
