"""Attack-based evaluation: fairness probes on unified representations,
feature-inference privacy probes on protected representations, task metrics,
and the analytic random baselines they are compared against.

Attackers only ever see detached representation snapshots; nothing here can
reach back into the probed model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EvaluationError
from .models import TwoLayerMlp
from .nn import Adam, Array, rng_for, softmax_cross_entropy_grad


def accuracy(pred: Array, labels: Array) -> float:
    return float(np.mean(pred == labels))


def macro_f1(pred: Array, labels: Array, n_classes: int) -> float:
    """Macro-averaged F1 over all declared classes (absent classes score 0).
    A label or prediction outside the declared classes counts as a miss."""
    pred, labels = np.asarray(pred), np.asarray(labels)
    k = n_classes
    tp = np.bincount(labels[pred == labels], minlength=k)[:k].astype(np.float64)
    fp = np.bincount(pred, minlength=k)[:k] - tp
    fn = np.bincount(labels, minlength=k)[:k] - tp
    denom = 2 * tp + fp + fn
    with np.errstate(invalid="ignore", divide="ignore"):
        f1s = np.where(denom == 0, 0.0, 2 * tp / denom)
    return float(np.mean(f1s))


def task_metrics(pred: Array, labels: Array) -> tuple[float, float]:
    if pred.shape != labels.shape:
        raise EvaluationError(f"prediction/label length mismatch: {pred.shape} vs {labels.shape}")
    n_classes = int(max(pred.max(initial=0), labels.max(initial=0))) + 1
    return accuracy(pred, labels), macro_f1(pred, labels, n_classes)


def class_histogram(labels: Array, n_classes: int) -> Array:
    counts = np.bincount(labels, minlength=n_classes).astype(np.float64)
    return counts / counts.sum()


def shuffled_label_macro_f1(hist: Array) -> float:
    """Analytic macro-F1 of guessing uniformly at random against a class
    histogram: per class, F1 = 2 p (1/K) / (p + 1/K)."""
    hist = np.asarray(hist, dtype=np.float64)
    k = hist.shape[0]
    q = 1.0 / k
    with np.errstate(invalid="ignore"):
        f1 = np.where(hist + q > 0, 2 * hist * q / (hist + q), 0.0)
    return float(np.mean(f1))


def majority_macro_f1(hist: Array) -> float:
    """Analytic macro-F1 of always predicting the majority class."""
    hist = np.asarray(hist, dtype=np.float64)
    p = float(hist.max())
    return (2 * p / (1 + p)) / hist.shape[0]


def random_baselines(labels: Array, n_classes: int) -> dict[str, float]:
    """The shuffled-label and majority-class macro-F1 of a label column."""
    hist = class_histogram(labels, n_classes)
    return {"shuffled": shuffled_label_macro_f1(hist), "majority": majority_macro_f1(hist)}


class AttackerNet:
    """Two-layer MLP probe with its own Adam state."""

    def __init__(self, tag: str, in_width: int, n_classes: int, hidden: int,
                 lr: float, seed: int):
        self.net = TwoLayerMlp(tag, in_width, hidden, n_classes, seed)
        self.opt = Adam(self.net.blocks(), lr=lr)

    def train_step(self, x: Array, y: Array) -> None:
        logits, cache = self.net.forward(x)
        glogits = softmax_cross_entropy_grad(logits, y)  # nobody reads the loss
        self.net.backward(cache, glogits, inputs=False)  # inputs are data
        self.opt.step()

    def predict(self, x: Array, batch: int = 4096) -> Array:
        out = []
        for i in range(0, x.shape[0], batch):
            logits, _ = self.net.forward(x[i:i + batch])
            out.append(np.argmax(logits, axis=1))
        return np.concatenate(out)

    def snapshot(self) -> Array:
        return self.opt.params.copy()

    def restore(self, snap: Array) -> None:
        self.opt.params[...] = snap


@dataclass
class AttackerEnsemble:
    """k independently seeded probes over one representation/label pairing."""

    attackers: list[AttackerNet]
    n_classes: int
    in_width: int


def _train_one_attacker(net: AttackerNet, reps: Array, labels: Array,
                        rng: np.random.Generator, batch: int, max_epochs: int,
                        patience: int, holdout: float) -> None:
    n = reps.shape[0]
    n_val = max(1, int(round(n * holdout)))
    perm = rng.permutation(n)
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    val_reps, val_labels = reps[val_idx], labels[val_idx]
    n_classes = int(labels.max()) + 1
    best_f1, best_snap, stale = -1.0, None, 0
    for _ in range(max_epochs):
        order = tr_idx[rng.permutation(tr_idx.shape[0])]
        for i in range(0, order.shape[0], batch):
            sel = order[i:i + batch]
            net.train_step(reps[sel], labels[sel])
        val_f1 = macro_f1(net.predict(val_reps), val_labels, n_classes)
        if val_f1 > best_f1 + 1e-4:
            best_f1, best_snap, stale = val_f1, net.snapshot(), 0
        else:
            stale += 1
            if stale >= patience:
                break
    if best_snap is not None:
        net.restore(best_snap)


def train_attacker_ensemble(reps: Array, labels: Array, k: int = 5, seed: int = 0,
                            tag: str = "probe", hidden: int = 128, lr: float = 1e-3,
                            batch: int = 128, max_epochs: int = 100,
                            patience: int = 3, holdout: float = 0.1
                            ) -> AttackerEnsemble:
    """Trains k probes on frozen representations, each early-stopped on its
    own 10% holdout of the attack train set."""
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    if classes.shape[0] < 2:
        raise EvaluationError(f"degenerate labels for {tag}: single class {classes}")
    n_classes = int(labels.max()) + 1
    attackers = []
    for i in range(k):
        net = AttackerNet(f"attacker/{tag}/{i}", reps.shape[1], n_classes, hidden,
                          lr, seed=seed + i)
        _train_one_attacker(net, reps, labels, rng_for(seed, f"attacker/{tag}/{i}"),
                            batch, max_epochs, patience, holdout)
        attackers.append(net)
    return AttackerEnsemble(attackers, n_classes, reps.shape[1])


@dataclass
class AttackResult:
    mean_f1: float
    std_f1: float
    per_attacker: list[float]


def attack_f1(ens: AttackerEnsemble, reps: Array, labels: Array) -> AttackResult:
    if reps.shape[1] != ens.in_width:
        raise EvaluationError(f"rep width {reps.shape[1]} != ensemble width {ens.in_width}")
    labels = np.asarray(labels, dtype=np.int64)
    scores = [macro_f1(net.predict(reps), labels, ens.n_classes) for net in ens.attackers]
    return AttackResult(float(np.mean(scores)), float(np.std(scores)), scores)


def privacy_inference_attack(protected_train: dict[str, Array],
                             protected_test: dict[str, Array],
                             probe_train: dict[str, Array],
                             probe_test: dict[str, Array],
                             k: int = 5, seed: int = 0, **attacker_kw
                             ) -> dict[str, float]:
    """Per probed field: mean macro-F1 of inferring the field's value from
    each protected representation, averaged over reps and attackers."""
    out = {}
    for fname, tr_labels in probe_train.items():
        if not np.issubdtype(np.asarray(tr_labels).dtype, np.integer):
            raise EvaluationError(f"privacy probes are classification only; "
                                  f"field {fname!r} is not categorical")
        scores = []
        for feature, a_train in protected_train.items():
            ens = train_attacker_ensemble(a_train, tr_labels, k=k, seed=seed,
                                          tag=f"privacy/{fname}/{feature}", **attacker_kw)
            scores.append(attack_f1(ens, protected_test[feature], probe_test[fname]).mean_f1)
        out[fname] = float(np.mean(scores))
    return out


@dataclass
class MetricsReport:
    task_accuracy: float | None = None
    task_f1: float | None = None
    fairness_f1: dict[str, dict] = field(default_factory=dict)
    privacy_f1: dict[str, float] = field(default_factory=dict)
    baselines: dict[str, dict] = field(default_factory=dict)
    comm: dict[str, float] = field(default_factory=dict)
    config_fingerprint: str = ""

    def to_dict(self) -> dict:
        return {
            "task_accuracy": self.task_accuracy,
            "task_f1": self.task_f1,
            "fairness_f1": self.fairness_f1,
            "privacy_f1": self.privacy_f1,
            "baselines": self.baselines,
            "comm": self.comm,
            "config_fingerprint": self.config_fingerprint,
        }

    def write(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def from_file(cls, path: str | Path) -> "MetricsReport":
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(**obj)

    def flat_row(self) -> dict[str, str]:
        """One flat table row for aggregation across runs."""
        row = {
            "fingerprint": self.config_fingerprint,
            "task_acc": format_cell(self.task_accuracy),
            "task_f1": format_cell(self.task_f1),
        }
        for f, d in sorted(self.fairness_f1.items()):
            row[f"fair_f1/{f}"] = format_cell(d.get("mean"))
        for f, v in sorted(self.privacy_f1.items()):
            row[f"priv_f1/{f}"] = format_cell(v)
        for key, v in sorted(self.comm.items()):
            row[f"comm/{key}"] = format_cell(v)
        return row


def format_cell(v) -> str:
    """A table cell: empty for None, six significant digits for a float."""
    if v is None:
        return ""
    return f"{v:.6g}" if isinstance(v, float) else str(v)
