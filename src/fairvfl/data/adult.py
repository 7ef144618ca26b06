"""ADULT census ingestion: sampling, sensitive-label extraction (gender class
and bucketized age), train-statistics standardization, and vocab encoding.

Accepts either a directory holding the standard ``adult.data``/``adult.test``
pair or a single comma-separated file in the same 15-column layout.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DataError, ParseError
from .dataset import Column, SensitiveColumn, VerticalDataset

# the documented 14 attributes, in file order, plus the income label
ADULT_FIELDS = [
    ("age", "num"),
    ("workclass", "cat"),
    ("fnlwgt", "num"),
    ("education", "cat"),
    ("education-num", "num"),
    ("marital-status", "cat"),
    ("occupation", "cat"),
    ("relationship", "cat"),
    ("race", "cat"),
    ("sex", "cat"),
    ("capital-gain", "num"),
    ("capital-loss", "num"),
    ("hours-per-week", "num"),
    ("native-country", "cat"),
]

SENSITIVE_FIELDS = ("sex", "age")
#: the sensitive features ``load_adult`` makes of ``SENSITIVE_FIELDS``, in order
SENSITIVE_FEATURES = ("gender", "age")

#: half-open age buckets; the final bucket is closed at 90 and absorbs older ages
AGE_BUCKET_EDGES = (17, 31, 45, 59, 73, 90)
N_AGE_BUCKETS = 5


def bucketize_age(age) -> np.ndarray | int:
    """Age in years -> bucket class 0..4 over [17, 31, 45, 59, 73, 90]."""
    scalar = np.ndim(age) == 0
    arr = np.atleast_1d(np.asarray(age, dtype=np.float64))
    if np.any(arr < 0) or np.any(arr > 130):
        bad = arr[(arr < 0) | (arr > 130)]
        raise DataError(f"age outside [0, 130]: {float(bad[0])}")
    buckets = np.clip((arr - 17) // 14, 0, N_AGE_BUCKETS - 1).astype(np.int64)
    buckets[arr >= 73] = N_AGE_BUCKETS - 1
    return int(buckets[0]) if scalar else buckets


@dataclass
class AdultSpec:
    """An ADULT config's dataset section: where the data is and the seed of
    its 20k/10k sample."""

    path: str = ""
    sample_seed: int = 0

    @property
    def sensitive_features(self) -> tuple[str, ...]:
        return SENSITIVE_FEATURES

    def validate(self) -> None:
        if not self.path:
            raise ConfigError("adult dataset requires a 'path'")
        if self.sample_seed < 0:
            raise ConfigError(f"dataset.sample_seed must be >= 0, got {self.sample_seed}")


#: the income label's classes; adult.test writes each with a trailing "."
INCOME_CLASSES = {"<=50K": 0, ">50K": 1}


def _parse_rows(path: Path) -> list[list[str]]:
    """The stripped data rows of one file, or ParseError naming the file and
    the line of a row with the wrong column count, a non-numeric value in a
    numeric field, or an unknown income label."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if raw[0].lstrip().startswith("|"):  # adult.test banner line
                continue
            row = [v.strip() for v in raw]
            if len(row) != len(ADULT_FIELDS) + 1:
                raise ParseError(f"expected {len(ADULT_FIELDS) + 1} columns, got {len(row)} "
                                 f"({path})", line=lineno)
            for (fname, kind), value in zip(ADULT_FIELDS, row):
                if kind == "num":
                    try:
                        float(value)
                    except ValueError:
                        raise ParseError(f"non-numeric value {value!r} in field {fname} "
                                         f"({path})", line=lineno) from None
            if row[-1].rstrip(".") not in INCOME_CLASSES:
                raise ParseError(f"unknown income label {row[-1]!r} ({path})", line=lineno)
            rows.append(row)
    return rows


def load_adult(path: str | Path, seed: int = 0, n_trainval: int = 20000,
               n_test: int = 10000) -> VerticalDataset:
    """Builds the vertical dataset: 12 input fields (gender and age removed
    and turned into sensitive labels), seeded 20k/10k sampling, an 18k/2k
    train/val split, train-only standardization and vocabularies."""
    path = Path(path)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xAD017]))

    if path.is_dir():
        train_pool = _parse_rows(path / "adult.data")
        test_pool = _parse_rows(path / "adult.test")
    elif path.is_file():
        pool = _parse_rows(path)
        if len(pool) < n_trainval + n_test:
            raise DataError(
                f"{path} has {len(pool)} usable rows, need {n_trainval + n_test}"
            )
        order = rng.permutation(len(pool))
        train_pool = [pool[i] for i in order[:n_trainval]]
        test_pool = [pool[i] for i in order[n_trainval:n_trainval + n_test]]
    else:
        raise DataError(f"no such file or directory: {path}")

    if len(train_pool) < n_trainval:
        raise DataError(f"train pool has {len(train_pool)} rows, need {n_trainval}")
    if len(test_pool) < n_test:
        raise DataError(f"test pool has {len(test_pool)} rows, need {n_test}")
    if path.is_dir():
        train_pool = [train_pool[i] for i in rng.permutation(len(train_pool))[:n_trainval]]
        test_pool = [test_pool[i] for i in rng.permutation(len(test_pool))[:n_test]]

    n_val = int(round(n_trainval * 0.1))
    n_train = n_trainval - n_val
    rows = train_pool + test_pool
    split = np.concatenate([
        np.zeros(n_train, dtype=np.int8),
        np.ones(n_val, dtype=np.int8),
        np.full(n_test, 2, dtype=np.int8),
    ])
    train_mask = split == 0

    col_idx = {name: i for i, (name, _) in enumerate(ADULT_FIELDS)}
    n = len(rows)

    task_labels = np.array([INCOME_CLASSES[r[-1].rstrip(".")] for r in rows],
                           dtype=np.int64)

    ages = np.array([float(r[col_idx["age"]]) for r in rows])
    sex_raw = [r[col_idx["sex"]] for r in rows]
    sex_vocab = sorted(set(sex_raw))
    sex_codes = np.array([sex_vocab.index(v) for v in sex_raw], dtype=np.int64)
    sensitive = dict(zip(SENSITIVE_FEATURES, (
        SensitiveColumn(sex_codes, len(sex_vocab)),
        SensitiveColumn(bucketize_age(ages), N_AGE_BUCKETS),
    )))

    columns: dict[str, Column] = {}
    for fname, kind in ADULT_FIELDS:
        if fname in SENSITIVE_FIELDS:
            continue
        raw = [r[col_idx[fname]] for r in rows]
        if kind == "num":
            vals = np.array([float(v) for v in raw])
            mean = vals[train_mask].mean()
            std = vals[train_mask].std()
            if std == 0.0:
                std = 1.0
            columns[fname] = Column("num", (vals - mean) / std)
        else:
            columns[fname] = Column("cat", *encode_categorical(raw, train_mask))

    return VerticalDataset(
        ids=np.arange(n, dtype=np.int64),
        columns=columns,
        task_labels=task_labels,
        n_task_classes=2,
        sensitive=sensitive,
        split=split,
    )


def encode_categorical(raw: list[str], train_mask: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Vocab from the train rows only; off-train unknowns map to the reserved
    UNK index."""
    vocab = sorted({v for v, m in zip(raw, train_mask) if m})
    index = {v: i for i, v in enumerate(vocab)}
    unk = len(vocab)
    return np.array([index.get(v, unk) for v in raw], dtype=np.int64), vocab
