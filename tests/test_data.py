"""Data pipeline: ADULT parsing/encoding on a small fixture, age bucketing,
the synthetic bias generator, partitioning, and batching."""

import numpy as np
import pytest

from fairvfl.data import (
    PartitionAssignment,
    SyntheticSpec,
    bucketize_age,
    default_partition,
    generate_synthetic,
    iterate_batches,
    load_adult,
    partition_vertical,
    write_shard_manifest,
)
from fairvfl.errors import ConfigError, DataError, ParseError
from fairvfl.evaluation import AttackConfig, attack_f1, train_attacker_ensemble

WORKCLASSES = ["State-gov", "Private", "Self-emp-not-inc", "Federal-gov", "?"]
EDUCATIONS = ["Bachelors", "HS-grad", "11th", "Masters", "Some-college"]
MARITALS = ["Never-married", "Married-civ-spouse", "Divorced"]
OCCUPATIONS = ["Adm-clerical", "Exec-managerial", "Sales", "Craft-repair", "?"]
RELATIONSHIPS = ["Not-in-family", "Husband", "Wife", "Own-child"]
RACES = ["White", "Black", "Asian-Pac-Islander"]
COUNTRIES = ["United-States", "Mexico", "?"]


def _adult_row(rng, label_dot=False, country=None):
    age = int(rng.integers(17, 91))
    label = "<=50K" if rng.random() < 0.7 else ">50K"
    if label_dot:
        label += "."
    cells = [
        str(age),
        rng.choice(WORKCLASSES),
        str(int(rng.integers(10_000, 1_000_000))),
        rng.choice(EDUCATIONS),
        str(int(rng.integers(1, 17))),
        rng.choice(MARITALS),
        rng.choice(OCCUPATIONS),
        rng.choice(RELATIONSHIPS),
        rng.choice(RACES),
        rng.choice(["Male", "Female"]),
        str(int(rng.integers(0, 5000))),
        str(int(rng.integers(0, 1000))),
        str(int(rng.integers(1, 99))),
        country or rng.choice(COUNTRIES),
        label,
    ]
    return ", ".join(cells)


@pytest.fixture()
def adult_dir(tmp_path):
    rng = np.random.default_rng(123)
    data_lines = [_adult_row(rng) for _ in range(60)]
    test_lines = ["|1x3 Cross validator"]
    test_lines += [_adult_row(rng, label_dot=True) for _ in range(28)]
    # a country never seen in the train file: must encode to UNK, not crash
    test_lines += [_adult_row(rng, label_dot=True, country="Holand-Netherlands")
                   for _ in range(2)]
    (tmp_path / "adult.data").write_text("\n".join(data_lines) + "\n", encoding="utf-8")
    (tmp_path / "adult.test").write_text("\n".join(test_lines) + "\n", encoding="utf-8")
    return tmp_path


class TestAdultLoader:
    def test_twelve_fields_two_sensitive(self, adult_dir):
        ds = load_adult(adult_dir, seed=0, n_trainval=40, n_test=20)
        assert len(ds.columns) == 12
        assert "sex" not in ds.columns and "age" not in ds.columns
        assert set(ds.sensitive) == {"gender", "age"}
        assert ds.sensitive["gender"].n_classes == 2
        assert ds.sensitive["age"].n_classes == 5
        assert len(ds) == 60
        assert ds.split_ids("train").shape[0] == 36
        assert ds.split_ids("val").shape[0] == 4
        assert ds.split_ids("test").shape[0] == 20

    def test_fixed_seed_reproduces_split_membership(self, adult_dir):
        a = load_adult(adult_dir, seed=3, n_trainval=40, n_test=20)
        b = load_adult(adult_dir, seed=3, n_trainval=40, n_test=20)
        assert np.array_equal(a.split, b.split)
        assert np.array_equal(a.task_labels, b.task_labels)
        c = load_adult(adult_dir, seed=4, n_trainval=40, n_test=20)
        assert not np.array_equal(a.task_labels, c.task_labels)

    def test_no_input_column_mirrors_gender(self, adult_dir):
        ds = load_adult(adult_dir, seed=0, n_trainval=40, n_test=20)
        g = ds.sensitive["gender"].values
        for name, col in ds.columns.items():
            same = col.values.shape == g.shape and np.array_equal(
                col.values.astype(np.float64), g.astype(np.float64))
            assert not same, f"column {name} mirrors the gender labels"

    def test_train_statistics_standardization(self, adult_dir):
        ds = load_adult(adult_dir, seed=0, n_trainval=40, n_test=20)
        train = ds.split == 0
        for name, col in ds.columns.items():
            if col.kind == "num":
                assert abs(col.values[train].mean()) < 1e-9
                assert abs(col.values[train].std() - 1.0) < 1e-9

    def test_unknown_category_maps_to_unk_off_train(self, adult_dir):
        ds = load_adult(adult_dir, seed=0, n_trainval=40, n_test=20)
        col = ds.columns["native-country"]
        assert "Holand-Netherlands" not in col.vocab
        unk = len(col.vocab)
        assert np.any(col.values == unk)
        assert col.embedding_rows == unk + 1

    def test_malformed_row_names_line(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = [_adult_row(rng) for _ in range(3)]
        lines.insert(1, "1, 2, 3")
        (tmp_path / "adult.data").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (tmp_path / "adult.test").write_text(_adult_row(rng) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2") as info:
            load_adult(tmp_path, n_trainval=2, n_test=1)
        assert str(tmp_path / "adult.data") in str(info.value)

    def test_unknown_income_label_names_line_and_file(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = [_adult_row(rng) for _ in range(8)]
        lines[4] = lines[4].rsplit(",", 1)[0] + ", maybe"
        path = tmp_path / "adult.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="unknown income label 'maybe'") as info:
            load_adult(path, n_trainval=3, n_test=1)
        assert info.value.line == 5
        assert str(path) in str(info.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_adult(tmp_path / "nope")

    def test_single_file_layout(self, adult_dir):
        ds = load_adult(adult_dir / "adult.data", seed=1, n_trainval=40, n_test=10)
        assert len(ds) == 50


class TestBucketizeAge:
    @pytest.mark.parametrize("age,bucket", [
        (17, 0), (30, 0), (31, 1), (44, 1), (45, 2), (58, 2),
        (59, 3), (72, 3), (73, 4), (89, 4), (90, 4),
        (16, 0), (95, 4),  # clamped ends within the validated range
    ])
    def test_boundaries(self, age, bucket):
        assert bucketize_age(age) == bucket

    def test_vectorized(self):
        ages = np.array([17, 31, 45, 59, 73])
        assert np.array_equal(bucketize_age(ages), np.arange(5))

    @pytest.mark.parametrize("age", [-1, 131, 1000])
    def test_out_of_range(self, age):
        with pytest.raises(DataError):
            bucketize_age(age)


class TestPartition:
    def test_union_and_disjointness(self, tiny_dataset):
        ds, pa = tiny_dataset
        shards, label_shards, task_shard = partition_vertical(ds, pa)
        seen = []
        for shard in shards:
            assert not set(seen) & set(shard.columns)
            seen += list(shard.columns)
        assert set(seen) == set(ds.columns)
        assert set(label_shards) == set(ds.sensitive)

    def test_sensitive_shard_has_only_its_label(self, tiny_dataset):
        ds, pa = tiny_dataset
        _, label_shards, _ = partition_vertical(ds, pa)
        shard = label_shards["attr"]
        assert not hasattr(shard, "columns")
        assert np.array_equal(shard.values, ds.sensitive["attr"].values)

    def test_unassigned_field_rejected(self, tiny_dataset):
        ds, _ = tiny_dataset
        bad = PartitionAssignment(2, {}, {"attr": 0})
        with pytest.raises(ConfigError, match="missing"):
            partition_vertical(ds, bad)

    def test_default_partition_near_equal(self, adult_dir):
        ds = load_adult(adult_dir, seed=0, n_trainval=40, n_test=20)
        pa = default_partition(ds, 3, seed=0)
        sizes = sorted(len(pa.fields_of(p)) for p in range(3))
        assert sizes == [4, 4, 4]
        pa2 = default_partition(ds, 3, seed=0)
        assert pa.field_to_platform == pa2.field_to_platform

    def test_manifest_written(self, tiny_dataset, tmp_path):
        import json

        ds, pa = tiny_dataset
        path = tmp_path / "manifest.json"
        write_shard_manifest(pa, ds, path)
        doc = json.loads(path.read_text())
        fields = [f for group in doc["insensitive_platforms"].values() for f in group]
        assert sorted(fields) == sorted(ds.columns)
        assert doc["sensitive_platforms"]["attr"]["classes"] == 2


def _plugin_mi(x, y):
    """Plug-in mutual information (nats) between two discrete columns."""
    xs, ys = np.unique(x), np.unique(y)
    n = x.shape[0]
    mi = 0.0
    for a in xs:
        px = np.mean(x == a)
        for b in ys:
            pxy = np.mean((x == a) & (y == b))
            py = np.mean(y == b)
            if pxy > 0:
                mi += pxy * np.log(pxy / (px * py))
    return mi


class TestSyntheticGenerator:
    def test_rho_one_copies_label(self):
        spec = SyntheticSpec(n_samples=500, rho=1.0, seed=1)
        ds = generate_synthetic(spec)
        assert np.array_equal(ds.columns["proxy_attr"].values,
                              ds.sensitive["attr"].values)

    def test_rho_zero_mutual_information_vanishes(self):
        spec = SyntheticSpec(n_samples=10_000, rho=0.0, seed=2)
        ds = generate_synthetic(spec)
        mi = _plugin_mi(ds.columns["proxy_attr"].values, ds.sensitive["attr"].values)
        assert mi < 0.01

    def test_task_rule_is_deterministic_up_to_noise(self):
        spec = SyntheticSpec(n_samples=2000, rho=0.5, label_noise=0.05, seed=3)
        ds = generate_synthetic(spec)
        rule = np.zeros(len(ds))
        for name, col in ds.columns.items():
            if col.kind == "num":
                rule += col.values
        clean = (rule > 0).astype(np.int64)
        agreement = float(np.mean(clean == ds.task_labels))
        assert 0.93 <= agreement <= 0.97  # 5% label noise

    def test_raw_proxy_attack_reaches_bayes_rate(self):
        spec = SyntheticSpec(n_samples=3000, rho=0.9, seed=4)
        ds = generate_synthetic(spec)
        proxy = ds.columns["proxy_attr"].values
        reps = np.eye(2)[proxy]
        train, test = ds.split_ids("train"), ds.split_ids("test")
        ens = train_attacker_ensemble(reps[train], ds.sensitive["attr"].values[train],
                                      AttackConfig(k=1, hidden=16, lr=1e-2, max_epochs=40),
                                      0, "raw-proxy")
        res = attack_f1(ens, reps[test], ds.sensitive["attr"].values[test])
        assert res.mean_f1 >= 0.85

    def test_attack_f1_monotone_in_rho(self):
        rhos = [0.0, 0.3, 0.6, 0.9]
        means = []
        for rho in rhos:
            scores = []
            for seed in range(5):
                spec = SyntheticSpec(n_samples=1500, rho=rho, seed=seed)
                ds = generate_synthetic(spec)
                reps = np.eye(2)[ds.columns["proxy_attr"].values]
                train, test = ds.split_ids("train"), ds.split_ids("test")
                ens = train_attacker_ensemble(
                    reps[train], ds.sensitive["attr"].values[train],
                    AttackConfig(k=1, hidden=8, lr=1e-2, max_epochs=20), seed, f"mono/{rho}")
                scores.append(attack_f1(ens, reps[test],
                                        ds.sensitive["attr"].values[test]).mean_f1)
            means.append(float(np.mean(scores)))
        assert all(b >= a - 1e-9 for a, b in zip(means, means[1:])), means

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(rho=1.5).validate()
        with pytest.raises(ConfigError):
            SyntheticSpec(label_noise=0.2).validate()
        with pytest.raises(ConfigError):
            SyntheticSpec(numeric_per_platform=0).validate()


class TestBatching:
    def test_same_seed_same_order(self, tiny_dataset):
        ds, _ = tiny_dataset
        a = iterate_batches(ds, "train", 16, seed=9)
        b = iterate_batches(ds, "train", 16, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = iterate_batches(ds, "train", 16, seed=10)
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_every_sample_once_per_epoch(self, tiny_dataset):
        ds, _ = tiny_dataset
        batches = iterate_batches(ds, "train", 16, seed=1)
        flat = np.concatenate(batches)
        expected = ds.split_ids("train")
        dropped = expected.shape[0] - flat.shape[0]
        assert dropped in (0, 1)  # only a singleton tail may be dropped
        assert len(set(flat.tolist())) == flat.shape[0]
        assert set(flat.tolist()) <= set(expected.tolist())

    def test_singleton_tail_dropped(self):
        spec = SyntheticSpec(n_samples=321, seed=0)  # 0.8 * 321 rounds to 257 = 16k + 1
        ds = generate_synthetic(spec)
        n_train = ds.split_ids("train").shape[0]
        assert n_train % 16 == 1
        batches = iterate_batches(ds, "train", 16, seed=0)
        assert all(b.shape[0] >= 2 for b in batches)
        assert sum(b.shape[0] for b in batches) == n_train - 1

    def test_empty_split_rejected(self):
        spec = SyntheticSpec(n_samples=100, seed=0, split_fractions=(0.9, 0.1, 0.0))
        ds = generate_synthetic(spec)
        with pytest.raises(ConfigError):
            iterate_batches(ds, "test", 8, seed=0)

    @pytest.mark.parametrize("fractions", [(0.8, 0.1, 0.1), (0.7, 0.2, 0.1),
                                           (0.333, 0.333, 0.334), (0.9, 0.1, 0.0)])
    def test_split_sizes_count_the_generated_splits(self, fractions):
        spec = SyntheticSpec(n_samples=321, seed=0, split_fractions=fractions)
        counts = np.bincount(generate_synthetic(spec).split, minlength=3)
        assert tuple(counts) == spec.split_sizes()
