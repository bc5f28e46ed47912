"""Synthetic corpora with known answers, plus the brute-force reference lab."""

import hashlib

import numpy as np
import pytest

from callselect import (
    ConfigError,
    exhaustive_reduct,
    generate,
    naive_positive_region,
    pairwise_roc_auc,
    random_decision_table,
    significance,
)
from callselect.cli import main
from callselect.synth import SynthSpec, default_spec, vocabulary
from conftest import assert_same_corpus, written_rows


def _spec(**kw):
    base = dict(
        samples_per_class=20,
        vocabulary_size=8,
        planted_malware_calls=("c000",),
        planted_benign_calls=("c001",),
        effect_size=3.0,
        noise_std=1.0,
        seed=0,
    )
    base.update(kw)
    return SynthSpec(**base)


def test_vocabulary_names():
    assert vocabulary(_spec(vocabulary_size=3)) == ["c000", "c001", "c002"]


def test_spec_validation():
    with pytest.raises(ConfigError):
        _spec(samples_per_class=0).validate()
    with pytest.raises(ConfigError):
        _spec(planted_malware_calls=("c000",), planted_benign_calls=("c000",)).validate()
    with pytest.raises(ConfigError):
        _spec(planted_malware_calls=("c999",)).validate()
    with pytest.raises(ConfigError):
        _spec(noise_std=-1.0).validate()


@pytest.mark.parametrize(
    "field, value",
    [("effect_size", float("nan")), ("effect_size", float("inf")),
     ("noise_std", float("nan")), ("noise_std", float("inf"))],
)
def test_spec_rejects_non_finite_effect_and_noise(field, value):
    # a NaN draw rounds to the smallest int64 count, which featurize rejects
    with pytest.raises(ConfigError, match=f"{field} must be finite and >= 0"):
        _spec(**{field: value}).validate()


def test_synth_non_finite_effect_size_writes_nothing(tmp_path, capsys):
    assert main(["synth", "--effect-size", "nan", "--out-dir", str(tmp_path)]) == 2
    assert "effect_size must be finite" in capsys.readouterr().err
    assert not (tmp_path / "records.jsonl").exists()


def test_generate_shape_and_labels(tmp_path):
    corpus, key = generate(_spec())
    recs = written_rows(corpus, tmp_path / "records.jsonl")
    assert len(recs) == 40
    assert [r["label"] for r in recs[:20]] == ["M"] * 20
    assert [r["label"] for r in recs[20:]] == ["B"] * 20
    assert all(r["total"] == sum(r["counts"].values()) for r in recs)
    # zero counts never appear; the call is simply absent
    assert all(all(n >= 1 for n in r["counts"].values()) for r in recs)
    assert corpus.counts.min() >= 1
    assert key.planted_malware_calls == ("c000",)
    assert key.planted_benign_calls == ("c001",)


def test_generate_deterministic():
    a, _ = generate(_spec(seed=9))
    b, _ = generate(_spec(seed=9))
    assert_same_corpus(a, b)
    c, _ = generate(_spec(seed=10))
    assert not np.array_equal(a.counts, c.counts)


def test_generate_unique_sample_ids():
    corpus, _ = generate(_spec())
    ids = corpus.sample_ids
    assert len(ids) == len(set(ids))


def test_default_spec_is_the_documented_corpus():
    spec = default_spec()
    assert spec.samples_per_class == 200
    assert spec.vocabulary_size == 50
    assert len(spec.planted_malware_calls) == 3
    assert len(spec.planted_benign_calls) == 2
    assert spec.seed == 42


def test_planted_calls_really_shift(tmp_path):
    spec = _spec(samples_per_class=150, effect_size=5.0, noise_std=1.0)
    recs = written_rows(generate(spec)[0], tmp_path / "records.jsonl")
    m_mean = np.mean([r["counts"].get("c000", 0) for r in recs if r["label"] == "M"])
    b_mean = np.mean([r["counts"].get("c000", 0) for r in recs if r["label"] == "B"])
    assert m_mean > b_mean + 3.0


# SHA-256 of synth's records.jsonl and featurize's fvt.csv and
# decision_table.csv at 60 per class x 120 calls, 4/4 planted calls,
# noise 3, recorded from the cell-by-cell generator and tf fill;
# tests/test_digests.py covers only the 200 x 50 default.
_PINNED_OTHER_SIZE = {
    1: {
        "records.jsonl": "922414defcb8a9de40988d0e17394b639196212bade380f44ea4b1bac5a93f9d",
        "fvt.csv": "b07d98f2c2b1ad158431fc2f4c91108400cdb6c04b0a922fd715344891a7c9f0",
        "decision_table.csv": "307218257c3c30f47c09de6a9b23eb4a9700bdf773e87c471a9afd68bc5b7d13",
    },
    2: {
        "records.jsonl": "32a8260e88d105ac5f2efc7dc89e48f782e8c5e951c34f68acedc58650e5ad3a",
        "fvt.csv": "fff5cac203b51eee86a11e1c51bf3345a1bf6f5ff7c5634c6bd92c48ce09e001",
        "decision_table.csv": "77834c075b27bc6377682cc884ba53b482a2e0cca947c573a788f9d2f433fa22",
    },
}


@pytest.mark.parametrize("seed", sorted(_PINNED_OTHER_SIZE))
def test_synth_and_tables_pinned_at_another_size(tmp_path, seed):
    assert main(["synth", "--samples-per-class", "60", "--vocabulary-size", "120",
                 "--planted-malware", "4", "--planted-benign", "4", "--noise-std", "3",
                 "--seed", str(seed), "--out-dir", str(tmp_path)]) == 0
    assert main(["featurize", "--records", str(tmp_path / "records.jsonl"),
                 "--out-dir", str(tmp_path)]) == 0
    for name, digest in _PINNED_OTHER_SIZE[seed].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# ---- brute-force oracles ----


def test_naive_positive_region_all_golden_subsets(golden_table):
    expected = {
        (): set(),
        ("s1",): {0, 4, 5, 6},
        ("s2",): {0, 1, 2},
        ("s3",): {0, 1, 2, 3, 4},
        ("s1", "s2"): {0, 1, 2, 3, 4, 5, 6},
        ("s1", "s3"): {0, 1, 2, 3, 4, 5, 6},
        ("s2", "s3"): {0, 1, 2, 3, 4},
        ("s1", "s2", "s3"): {0, 1, 2, 3, 4, 5, 6},
    }
    for attrs, want in expected.items():
        assert set(naive_positive_region(golden_table, attrs)) == want


def test_exhaustive_reduct_golden(golden_table):
    result = exhaustive_reduct(golden_table)
    assert result.best_significance == 1.0
    assert result.minimal_witnesses == (("s1", "s2"), ("s1", "s3"))


def test_exhaustive_reduct_refuses_large_tables():
    rng = np.random.default_rng(0)
    t = random_decision_table(rng, n_samples=4, n_attrs=16)
    with pytest.raises(ConfigError, match="15"):
        exhaustive_reduct(t)


def test_exhaustive_agrees_with_significance(golden_table):
    result = exhaustive_reduct(golden_table)
    for witness in result.minimal_witnesses:
        assert significance(golden_table, witness) == result.best_significance


def test_pairwise_roc_hand_cases():
    assert pairwise_roc_auc([0.9, 0.1], ["M", "B"]) == 1.0
    assert pairwise_roc_auc([0.1, 0.9], ["M", "B"]) == 0.0
    assert pairwise_roc_auc([0.5, 0.5], ["M", "B"]) == 0.5
    # 3 of 4 pairs ordered correctly, 1 tied: (3 + 0.5) / 4
    got = pairwise_roc_auc([0.9, 0.4, 0.1, 0.4], ["M", "M", "B", "B"])
    assert got == pytest.approx(3.5 / 4)


def test_random_decision_table_contract():
    rng = np.random.default_rng(33)
    for _ in range(20):
        t = random_decision_table(rng, n_samples=int(rng.integers(2, 12)), n_attrs=3)
        assert t.bins.min() >= 1 and t.bins.max() <= 4
        assert set(t.labels) == {"M", "B"}
        assert len(t.sample_ids) == t.n_samples
