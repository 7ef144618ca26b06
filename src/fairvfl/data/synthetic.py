"""Synthetic biased-data generator: a controlled test bed where a designated
proxy field correlates with each sensitive label by a tunable strength, while
the task label follows a deterministic rule over the remaining fields."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from .dataset import Column, PartitionAssignment, SensitiveColumn, VerticalDataset


@dataclass
class SyntheticSpec:
    n_samples: int = 2000
    n_platforms: int = 2
    numeric_per_platform: int = 2
    categorical_per_platform: int = 1
    cat_vocab: int = 4
    sensitive_classes: dict[str, int] = field(default_factory=lambda: {"attr": 2})
    rho: float = 0.9  # P(proxy field copies the sensitive label)
    label_noise: float = 0.05
    seed: int = 0
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def validate(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must be in [0, 1], got {self.rho}")
        if not 0.0 <= self.label_noise <= 0.05:
            raise ConfigError(f"label noise must be <= 5%, got {self.label_noise}")
        if self.n_samples < 10 or self.n_platforms < 1:
            raise ConfigError("need >=10 samples and >=1 platform")
        if self.numeric_per_platform < 1:
            raise ConfigError("need at least one numeric field per platform for the task rule")
        if not self.sensitive_classes:
            raise ConfigError("need at least one sensitive feature")
        few = {f: k for f, k in self.sensitive_classes.items() if k < 2}
        if few:
            raise ConfigError(f"sensitive_classes needs >= 2 classes per feature, got {few}")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")

    def split_sizes(self) -> tuple[int, int, int]:
        """Train, validation and test row counts, rounded as ``generate_synthetic``
        splits; a zero or negative fraction can give a count below 1."""
        n = self.n_samples
        train = int(round(self.split_fractions[0] * n))
        val_end = int(round((self.split_fractions[0] + self.split_fractions[1]) * n))
        return train, val_end - train, n - val_end

    @property
    def sensitive_features(self) -> tuple[str, ...]:
        return tuple(self.sensitive_classes)

    def proxy_field(self, feature: str) -> str:
        return f"proxy_{feature}"

    def field_platform(self, name: str) -> int:
        """Platform owning a field, derivable from the field name."""
        if name.startswith("proxy_"):
            feats = list(self.sensitive_classes)
            return feats.index(name[len("proxy_"):]) % self.n_platforms
        return int(name.split("_")[0][3:])  # num{p}_{j} / cat{p}_{j}


def generate_synthetic(spec: SyntheticSpec) -> VerticalDataset:
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x5EED]))
    n = spec.n_samples

    sensitive: dict[str, SensitiveColumn] = {}
    for feature, k in spec.sensitive_classes.items():
        values = rng.integers(0, k, size=n)
        sensitive[feature] = SensitiveColumn(values.astype(np.int64), k)

    columns: dict[str, Column] = {}
    for feature, k in spec.sensitive_classes.items():
        copy_mask = rng.random(n) < spec.rho
        noise = rng.integers(0, k, size=n)
        proxy = np.where(copy_mask, sensitive[feature].values, noise)
        columns[spec.proxy_field(feature)] = Column(
            "cat", proxy.astype(np.int64), [str(c) for c in range(k)])

    rule_sum = np.zeros(n)
    for p in range(spec.n_platforms):
        for j in range(spec.numeric_per_platform):
            vals = rng.normal(size=n)
            columns[f"num{p}_{j}"] = Column("num", vals)
            rule_sum += vals
        for j in range(spec.categorical_per_platform):
            vals = rng.integers(0, spec.cat_vocab, size=n)
            columns[f"cat{p}_{j}"] = Column("cat", vals.astype(np.int64),
                                            [str(c) for c in range(spec.cat_vocab)])

    # task label: threshold rule on the non-proxy numeric fields, plus noise
    labels = (rule_sum > 0.0).astype(np.int64)
    flips = rng.random(n) < spec.label_noise
    labels = labels ^ flips

    n_train, n_val, _ = spec.split_sizes()
    split = np.full(n, 2, dtype=np.int8)
    order = rng.permutation(n)
    split[order[:n_train]] = 0
    split[order[n_train:n_train + n_val]] = 1

    return VerticalDataset(
        ids=np.arange(n, dtype=np.int64),
        columns=columns,
        task_labels=labels,
        n_task_classes=2,
        sensitive=sensitive,
        split=split,
    )


def synthetic_partition(spec: SyntheticSpec) -> PartitionAssignment:
    """The generator's natural assignment: field names encode their platform."""
    spec.validate()
    fields: dict[str, int] = {}
    for feature in spec.sensitive_classes:
        fields[spec.proxy_field(feature)] = spec.field_platform(spec.proxy_field(feature))
    for p in range(spec.n_platforms):
        for j in range(spec.numeric_per_platform):
            fields[f"num{p}_{j}"] = p
        for j in range(spec.categorical_per_platform):
            fields[f"cat{p}_{j}"] = p
    sens = {f: i for i, f in enumerate(spec.sensitive_classes)}
    return PartitionAssignment(spec.n_platforms, fields, sens)
