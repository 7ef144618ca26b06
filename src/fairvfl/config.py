"""Experiment configuration: validation, canonical serialization with a
digest fingerprint, and the maintained presets."""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .digest import digest_text
from .errors import ConfigError
from .evaluation import AttackConfig
from .models import OptimParams, RepWidths
from .protocol.ldp import LdpConfig
from .data.adult import AdultSpec
from .data.synthetic import SyntheticSpec


def _is_a(value, hint) -> bool:
    """Whether a JSON value fits a field annotation. ``float`` takes ints
    too, but neither ``int`` nor ``float`` takes a bool; ``dict[K, V]``,
    ``list[T]`` and fixed-length ``tuple[...]`` take lists or tuples and are
    checked item by item."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in (int, float) and isinstance(value, bool):
        return False
    if hint is float:
        return isinstance(value, (int, float))
    if origin is dict:
        return isinstance(value, dict) and all(
            _is_a(k, args[0]) and _is_a(v, args[1]) for k, v in value.items())
    if origin is list:
        return isinstance(value, (list, tuple)) and all(_is_a(v, args[0]) for v in value)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_is_a, value, args)))
    return isinstance(value, hint)


def _check_fields(obj, where: str) -> None:
    """ConfigError naming the first field of the dataclass ``obj`` whose
    value does not fit its annotation."""
    for name, hint in _HINTS[type(obj)].items():
        value = getattr(obj, name)
        if not _is_a(value, hint):
            kind = hint.__name__ if typing.get_origin(hint) is None else str(hint)
            raise ConfigError(f"{where}{name} must be {kind}, got {value!r}")


def _section(cls, obj: dict, where: str):
    """``cls(**obj)`` for the config section ``where``, or ConfigError
    naming an unknown key or a value of the wrong type."""
    unknown = set(obj) - set(_HINTS[cls])
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    view = cls(**obj)
    _check_fields(view, f"{where}.")
    return view


def read_config_object(path: str | Path) -> dict:
    """The JSON object in a config file, or ConfigError if the file cannot
    be read, is not UTF-8 JSON or holds something else."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: a config must be a JSON object, "
                          f"got {type(obj).__name__}")
    return obj


@dataclass
class ExperimentConfig:
    mode: str = "fairvfl"  # "fairvfl" | "vfl"
    dataset: dict = field(default_factory=dict)  # {"kind": "adult"|"synthetic", ...}
    # insensitive platforms of an ADULT run; a synthetic run has its
    # dataset's n_platforms (default 2) and does not read this one
    n_platforms: int = 3
    partition_seed: int = 0
    widths: dict = field(default_factory=dict)
    lam: dict[str, float] = field(default_factory=dict)  # per-feature adversarial weights
    gamma: dict[str, float] = field(default_factory=dict)  # per-feature contrastive weights
    ldp: dict = field(default_factory=dict)
    optim: dict = field(default_factory=dict)
    p_drop: float = 0.2
    batch_size: int = 32
    epochs: int = 10
    top_pool: int = 5
    seed: int = 0
    attack: dict = field(default_factory=dict)

    # -- typed views --------------------------------------------------------

    def rep_widths(self) -> RepWidths:
        return _section(RepWidths, self.widths, "widths")

    def ldp_config(self) -> LdpConfig:
        return _section(LdpConfig, self.ldp, "ldp")

    def optim_params(self) -> OptimParams:
        return _section(OptimParams, self.optim, "optim")

    def attack_config(self) -> AttackConfig:
        return _section(AttackConfig, self.attack, "attack")

    def dataset_spec(self) -> AdultSpec | SyntheticSpec:
        """The dataset section as the validated spec of its ``kind``, or
        ConfigError naming an unknown kind or key or a value of the wrong type."""
        kind = self.dataset.get("kind")
        if not (isinstance(kind, str) and kind in _DATASET_SPECS):
            raise ConfigError(f"dataset.kind must be 'adult' or 'synthetic', got {kind!r}")
        spec = _section(_DATASET_SPECS[kind],
                        {k: v for k, v in self.dataset.items() if k != "kind"}, "dataset")
        spec.validate()
        return spec

    # -- validation / serialization ----------------------------------------

    def validate(self) -> None:
        _check_fields(self, "")
        if self.mode not in ("fairvfl", "vfl"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        spec = self.dataset_spec()
        if isinstance(spec, SyntheticSpec):
            n_train, n_val, n_test = spec.split_sizes()
            if n_train < 2 or n_val < 1 or n_test < 1:
                raise ConfigError(f"dataset.split_fractions give {n_train} train, {n_val} val "
                                  f"and {n_test} test rows; need >= 2, >= 1 and >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch size must be >= 2 (contrastive requirement)")
        if self.epochs < 1 or self.n_platforms < 1 or self.top_pool < 1:
            raise ConfigError("epochs, n_platforms, and top_pool must be >= 1")
        if self.seed < 0 or self.partition_seed < 0:
            raise ConfigError("seeds must be non-negative")
        if not 0.0 <= self.p_drop < 1.0:
            raise ConfigError(f"p_drop must be in [0, 1), got {self.p_drop}")
        widths = self.rep_widths()
        widths.validate()
        features = set(widths.protected)
        sensitive = set(spec.sensitive_features)
        if sensitive != features:
            raise ConfigError(f"widths.protected {sorted(features)} must match the "
                              f"dataset's sensitive features {sorted(sensitive)}")
        if set(self.lam) != features or set(self.gamma) != features:
            raise ConfigError(
                f"lambda/gamma keys {sorted(set(self.lam) | set(self.gamma))} "
                f"must match protected widths {sorted(features)}"
            )
        for name, table in (("lambda", self.lam), ("gamma", self.gamma)):
            bad = {k: v for k, v in table.items() if v < 0}
            if bad:
                raise ConfigError(f"{name} weights must be >= 0, got {bad}")
        self.optim_params().validate()
        self.ldp_config().validate()
        self.attack_config().validate()

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        return f"0x{digest_text(self.canonical_json()):016x}"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)

    def with_overrides(self, **kw) -> "ExperimentConfig":
        obj = self.to_dict()
        obj.update(kw)
        return ExperimentConfig.from_dict(obj)


def _adult_base() -> dict:
    return {
        "dataset": {"kind": "adult", "path": "data/adult", "sample_seed": 0},
        "n_platforms": 3,
        "widths": {"rep": 400, "protected": {"gender": 32, "age": 64}},
        "optim": {"lr": 1e-4},
        "batch_size": 32,
        "epochs": 10,
        "top_pool": 5,
        "p_drop": 0.2,
    }


def preset(name: str) -> ExperimentConfig:
    if name == "adult-fairvfl":
        base = _adult_base()
        return ExperimentConfig(mode="fairvfl",
                                lam={"gender": 1e2, "age": 1e1},
                                gamma={"gender": 0.25, "age": 0.25}, **base)
    if name == "adult-vfl":
        base = _adult_base()
        return ExperimentConfig(mode="vfl",
                                lam={"gender": 0.0, "age": 0.0},
                                gamma={"gender": 0.0, "age": 0.0}, **base)
    if name == "synthetic-smoke":
        return ExperimentConfig(
            mode="fairvfl",
            dataset={"kind": "synthetic", "n_samples": 1500, "n_platforms": 2,
                     "numeric_per_platform": 2, "categorical_per_platform": 1,
                     "cat_vocab": 4, "sensitive_classes": {"attr": 2},
                     "rho": 0.9, "seed": 0},
            n_platforms=2,
            widths={"rep": 64, "protected": {"attr": 16}, "emb_dim": 8,
                    "encoder_hidden": 32, "attn_heads": 4, "pool_hidden": 32,
                    "head_hidden": 32, "mapper_hidden": 32, "cdisc_hidden": 32,
                    "bdisc_hidden": 16},
            lam={"attr": 10.0},
            gamma={"attr": 0.25},
            optim={"lr": 1e-3},
            batch_size=32,
            epochs=3,
            attack={"privacy_fields": ["cat0_0", "cat1_0"], "max_epochs": 40},
        )
    raise ConfigError(f"unknown preset {name!r}; "
                      f"available: adult-fairvfl, adult-vfl, synthetic-smoke")


PRESET_NAMES = ("adult-fairvfl", "adult-vfl", "synthetic-smoke")

_DATASET_SPECS = {"adult": AdultSpec, "synthetic": SyntheticSpec}

#: each config section's field annotations, resolved once at import
_HINTS = {cls: typing.get_type_hints(cls) for cls in (
    ExperimentConfig, AttackConfig, RepWidths, LdpConfig, OptimParams, AdultSpec, SyntheticSpec)}
