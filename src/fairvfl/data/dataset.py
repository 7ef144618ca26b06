"""Vertically partitioned dataset containers and deterministic batching.

A ``VerticalDataset`` keeps every input field as an encoded column (vocab
indices for categoricals, standardized float64 for numerics), task labels,
and sensitive labels in a separate table that no feature shard can reach.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DataError, SampleLookupError
from ..models import PlatformSchema

SPLITS = ("train", "val", "test")


@dataclass
class Column:
    kind: str  # "cat" | "num"
    values: np.ndarray  # int64 codes or float64 values
    vocab: list[str] | None = None  # categorical only; UNK index == len(vocab)

    @property
    def embedding_rows(self) -> int:
        if self.kind != "cat":
            raise ConfigError("embedding_rows only defined for categorical columns")
        return len(self.vocab) + 1  # reserved UNK row


@dataclass
class SensitiveColumn:
    values: np.ndarray  # int64 class per sample
    n_classes: int


@dataclass
class VerticalDataset:
    ids: np.ndarray
    columns: dict[str, Column]
    task_labels: np.ndarray
    n_task_classes: int
    sensitive: dict[str, SensitiveColumn]
    split: np.ndarray  # 0 train / 1 val / 2 test

    def __post_init__(self):
        n = self.ids.shape[0]
        if len(set(self.ids.tolist())) != n:
            raise DataError("sample ids must be unique")
        for name, col in self.columns.items():
            if col.values.shape[0] != n:
                raise DataError(f"column {name} length {col.values.shape[0]} != {n}")
        for name, sc in self.sensitive.items():
            if name in self.columns:
                raise DataError(f"sensitive feature {name} must not be an input column")
            if sc.values.shape[0] != n:
                raise DataError(f"sensitive column {name} length mismatch")
        if self.task_labels.shape[0] != n or self.split.shape[0] != n:
            raise DataError("task labels / split tags length mismatch")

    def __len__(self) -> int:
        return self.ids.shape[0]

    def split_ids(self, name: str) -> np.ndarray:
        if name not in SPLITS:
            raise ConfigError(f"unknown split {name!r}")
        return self.ids[self.split == SPLITS.index(name)]


@dataclass
class PartitionAssignment:
    n_platforms: int
    field_to_platform: dict[str, int]
    sensitive_to_platform: dict[str, int]

    def validate(self, ds: VerticalDataset) -> None:
        assigned = set(self.field_to_platform)
        if assigned != set(ds.columns):
            missing = set(ds.columns) - assigned
            extra = assigned - set(ds.columns)
            raise ConfigError(f"partition mismatch: missing={sorted(missing)}, unknown={sorted(extra)}")
        bad = {f: p for f, p in self.field_to_platform.items()
               if not 0 <= p < self.n_platforms}
        if bad:
            raise ConfigError(f"fields assigned outside [0, {self.n_platforms}): {bad}")
        if set(self.sensitive_to_platform) != set(ds.sensitive):
            raise ConfigError("sensitive-feature assignment does not match the dataset")

    def fields_of(self, platform: int) -> list[str]:
        return [f for f, p in self.field_to_platform.items() if p == platform]


def default_partition(ds: VerticalDataset, n_platforms: int, seed: int) -> PartitionAssignment:
    """Seeded shuffle of the input fields into near-equal platform slices."""
    names = list(ds.columns)
    rng = np.random.default_rng(seed)
    order = [names[i] for i in rng.permutation(len(names))]
    mapping = {f: i % n_platforms for i, f in enumerate(order)}
    # preserve dataset column order inside the mapping for deterministic schemas
    mapping = {f: mapping[f] for f in names}
    sens = {name: i for i, name in enumerate(ds.sensitive)}
    return PartitionAssignment(n_platforms, mapping, sens)


def _check_ids(shard, ids: np.ndarray) -> None:
    """Raises ``SampleLookupError`` naming the shard if an id is outside it."""
    bad = ids[(ids < 0) | (ids >= shard.ids.shape[0])]
    if bad.size:
        raise SampleLookupError(f"{shard.name}: unknown sample id {int(bad[0])}")


@dataclass
class FeatureShard:
    """One insensitive platform's view: its feature columns only."""

    name: str
    ids: np.ndarray
    columns: dict[str, Column]

    def take(self, ids: np.ndarray) -> dict[str, np.ndarray]:
        _check_ids(self, ids)
        return {f: col.values[ids] for f, col in self.columns.items()}

    def schema(self) -> PlatformSchema:
        cats = [(f, col.embedding_rows) for f, col in self.columns.items() if col.kind == "cat"]
        nums = [f for f, col in self.columns.items() if col.kind == "num"]
        return PlatformSchema(cat_fields=cats, numeric_fields=nums)


@dataclass
class LabelShard:
    """One sensitive platform's view: its label column only."""

    name: str
    ids: np.ndarray
    values: np.ndarray

    def take(self, ids: np.ndarray) -> np.ndarray:
        _check_ids(self, ids)
        return self.values[ids]


@dataclass
class TaskShard:
    """The task platform's view: task labels only."""

    name: str
    ids: np.ndarray
    labels: np.ndarray

    def take(self, ids: np.ndarray) -> np.ndarray:
        _check_ids(self, ids)
        return self.labels[ids]


def partition_vertical(ds: VerticalDataset, pa: PartitionAssignment
                       ) -> tuple[list[FeatureShard], dict[str, LabelShard], TaskShard]:
    pa.validate(ds)
    feature_shards = []
    for p in range(pa.n_platforms):
        cols = {f: ds.columns[f] for f in ds.columns if pa.field_to_platform[f] == p}
        if not cols:
            raise ConfigError(f"platform {p} received no fields")
        feature_shards.append(FeatureShard(f"insensitive/{p}", ds.ids, cols))
    label_shards = {
        name: LabelShard(f"sensitive/{name}", ds.ids, col.values)
        for name, col in ds.sensitive.items()
    }
    task_shard = TaskShard("task", ds.ids, ds.task_labels)
    return feature_shards, label_shards, task_shard


def iterate_batches(ds: VerticalDataset, split: str, batch_size: int,
                    seed: int) -> list[np.ndarray]:
    """Seeded shuffle of one split into batches; a trailing singleton is
    dropped (contrastive machinery is undefined for batches of one)."""
    ids = ds.split_ids(split)
    if ids.size == 0:
        raise ConfigError(f"split {split!r} is empty")
    rng = np.random.default_rng(seed)
    perm = ids[rng.permutation(ids.shape[0])]
    batches = [perm[i:i + batch_size] for i in range(0, perm.shape[0], batch_size)]
    if batches and batches[-1].shape[0] < 2:
        batches.pop()
    return batches


def write_shard_manifest(pa: PartitionAssignment, ds: VerticalDataset,
                         path: str | Path) -> None:
    """Audit/reproducibility manifest: which platform holds which fields."""
    doc = {
        "insensitive_platforms": {
            str(p): pa.fields_of(p) for p in range(pa.n_platforms)
        },
        "sensitive_platforms": {
            name: {"platform": pa.sensitive_to_platform[name],
                   "classes": ds.sensitive[name].n_classes}
            for name in ds.sensitive
        },
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
