"""Attack-based evaluation: fairness probes on unified representations,
feature-inference privacy probes on protected representations, task metrics,
and the analytic random baselines they are compared against.

Attackers only ever see detached representation snapshots; nothing here can
reach back into the probed model.

An attacker ensemble is k two-layer MLP probes, each with its own seed, its
own holdout split and batch order, and its own early stop, all set by one
``AttackConfig``. The k probes train in lockstep as one stacked model
(``AttackerNet``): each step does every layer product as one ``np.matmul``
over a (k, b, d) stack of the probes' batches and one Adam step over all
their weights, and a probe that stops leaves the stack. Stacking changes no
arithmetic, so every probe ends on the weights it would reach trained alone,
bit for bit; it saves the per-probe call overhead, which at these widths is
most of a probe step.

An attack's ensembles (one per sensitive feature, one per privacy field and
protected rep) train concurrently, a thread per usable CPU
(``train_attacker_ensembles``). Each owns its streams and its buffers, so
every ensemble, and every reported F1, is the one it would be trained alone.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, EvaluationError, LabelError
from .models import TwoLayerMlp
from .nn import Adam, Array, rng_for


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


_PREDICT_ROWS = 4096  # input rows per forward pass when predicting
HOLDOUT = 0.1  # each probe's share of the attack train set held out for early stopping


def _probe_layers(rows: Array, in_width: int, hidden: int, n_classes: int
                  ) -> tuple[Array, Array, Array, Array]:
    """Every probe's fc1 weights and bias and fc2 weights and bias, as
    (k, d, h), (k, h), (k, h, c) and (k, c) views of ``rows``: one probe per
    row, laid out as an ``Adam`` over the probe's two ``Linear`` blocks.
    (Splitting the contiguous part of each row is always a view.)"""
    k, d, h, c = rows.shape[0], in_width, hidden, n_classes
    o1, o2, o3 = d * h, d * h + h, d * h + h + h * c
    return (rows[:, :o1].reshape(k, d, h), rows[:, o1:o2],
            rows[:, o2:o3].reshape(k, h, c), rows[:, o3:])


def _forward(layers: tuple[Array, ...], x: Array, h1: Array | None = None,
             logits: Array | None = None) -> tuple[Array, Array]:
    """fc1 -> ReLU -> fc2 of every probe, as ``TwoLayerMlp.forward`` computes
    it, into ``h1`` and ``logits`` if given. ``x`` is (k, n, d), a batch per
    probe, or (n, d), one batch every probe sees."""
    w1, b1, w2, b2 = layers
    h1 = np.matmul(x, w1, out=h1)
    h1 += b1[:, None]
    np.maximum(h1, 0.0, out=h1)
    logits = np.matmul(h1, w2, out=logits)
    logits += b2[:, None]
    return h1, logits


def _predict(layers: tuple[Array, ...], x: Array) -> Array:
    """(k, n) classes: each probe's prediction for its rows of ``x``."""
    return np.concatenate([np.argmax(_forward(layers, x[..., i:i + _PREDICT_ROWS, :])[1], axis=2)
                           for i in range(0, x.shape[-2], _PREDICT_ROWS)], axis=1)


_SLICED_CLASSES = 8  # numpy sums a last axis shorter than this left to right


def _softmax_(g: Array) -> Array:
    """Softmax over the last axis of ``g``, in place. With fewer than
    ``_SLICED_CLASSES`` classes the max and the sum run column by column,
    left to right: the bits of the axis reductions at a fraction of their
    cost on a short axis. From there numpy sums pairwise, and the axis
    reductions stay."""
    c = g.shape[-1]
    if c >= _SLICED_CLASSES:
        g -= g.max(axis=-1, keepdims=True)
        np.exp(g, out=g)
        g /= g.sum(axis=-1, keepdims=True)
        return g
    top = g[..., 0].copy()
    for j in range(1, c):
        np.maximum(top, g[..., j], out=top)
    g -= top[..., None]
    np.exp(g, out=g)
    total = g[..., 0].copy()
    for j in range(1, c):
        total += g[..., j]
    g /= total[..., None]
    return g


class AttackerNet:
    """The k probes of one attacker ensemble, trained in lockstep.

    Probe i is ``TwoLayerMlp(f"attacker/{tag}/{i}", d, h, c, seed + i)``, so
    it draws from its own ``init/attacker/{tag}/{i}/...`` streams. One
    ``Adam`` holds the probes' blocks, probe after probe: its store reads as a
    (k, P) matrix with one probe per row, and the layers are views of it
    (``_probe_layers``). Each layer product is one ``np.matmul`` over the
    stack, bit for bit the probe-by-probe products, and Adam is elementwise,
    so one step over the store is k probe steps.
    """

    def __init__(self, tag: str, k: int, in_width: int, hidden: int, n_classes: int,
                 lr: float, seed: int, batch: int):
        nets = [TwoLayerMlp(f"attacker/{tag}/{i}", in_width, hidden, n_classes, seed + i)
                for i in range(k)]
        self.opt = Adam([blk for net in nets for blk in net.blocks()], lr=lr)
        self.widths = (in_width, hidden, n_classes)
        # a step's activations, their gradients and its logits, viewed at the
        # current stack and batch size
        self._h1, self._gh1 = np.empty(k * batch * hidden), np.empty(k * batch * hidden)
        self._logits = np.empty(k * batch * n_classes)
        self._bind(k)

    def _bind(self, k: int) -> None:
        self.params = self.opt.params.reshape(k, -1)
        self.layers = _probe_layers(self.params, *self.widths)
        self.grads = _probe_layers(self.opt.grads.reshape(k, -1), *self.widths)

    def train_step(self, x: Array, y: Array) -> None:
        """One Adam step of every probe on its own batch: ``x`` (k, b, d),
        ``y`` (k, b). The loss gradient is ``nn.softmax_cross_entropy``'s."""
        k, b = y.shape
        _, h, c = self.widths
        h1, logits = _forward(self.layers, x, self._h1[:k * b * h].reshape(k, b, h),
                              self._logits[:k * b * c].reshape(k, b, c))
        g = _softmax_(logits)  # less one at the target, over the batch size
        g.reshape(-1, c)[np.arange(k * b), y.ravel()] -= 1.0
        g /= b
        gw1, gb1, gw2, gb2 = self.grads
        np.matmul(h1.transpose(0, 2, 1), g, out=gw2)
        np.sum(g, axis=1, out=gb2)
        gh1 = np.matmul(g, self.layers[2].transpose(0, 2, 1),
                        out=self._gh1[:k * b * h].reshape(k, b, h))
        gh1 *= h1 > 0.0
        np.matmul(x.transpose(0, 2, 1), gh1, out=gw1)
        np.sum(gh1, axis=1, out=gb1)
        self.opt.step()

    def retire(self, keep: Array) -> None:
        """Keeps only the probes the boolean mask ``keep`` selects: the
        others' weights, gradients and moments leave the store, and the step
        count stays. Adam's step reads only its flat buffers, so the blocks'
        stale views go unread."""
        k = keep.shape[0]
        for name in ("params", "grads", "m", "v"):
            buf = getattr(self.opt, name)
            if buf is not None:
                setattr(self.opt, name, buf.reshape(k, -1)[keep].ravel())
        self._bind(int(keep.sum()))


@dataclass
class AttackerEnsemble:
    """k independently seeded probes over one representation/label pairing,
    each on its best-validation weights: one row of ``params`` per probe,
    laid out as in ``AttackerNet``."""

    params: Array
    n_classes: int
    in_width: int
    hidden: int


@dataclass
class AttackConfig:
    """The config's ``attack`` section: every probe setting a run can vary."""

    k: int = 5
    hidden: int = 128
    lr: float = 1e-3
    batch: int = 128
    max_epochs: int = 100
    patience: int = 3
    privacy_fields: list[str] = field(default_factory=lambda: ["education", "relationship"])

    def validate(self) -> None:
        for name in ("k", "batch", "hidden", "max_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"attack.{name} must be >= 1, got {getattr(self, name)}")
        if not self.lr > 0.0:
            raise ConfigError(f"attack.lr must be > 0, got {self.lr}")


def train_attacker_ensemble(reps: Array, labels: Array, atk: AttackConfig, seed: int,
                            tag: str) -> AttackerEnsemble:
    """Trains ``atk.k`` probes on frozen representations, each early-stopped
    on its own ``HOLDOUT`` share of the attack train set.

    Probe i draws its holdout split and its epochs' batch orders from its own
    ``attacker/{tag}/{i}`` stream, and all k step in lockstep
    (``AttackerNet``). A probe whose holdout F1 has not risen for
    ``atk.patience`` epochs leaves the stack; every probe ends on the weights
    of its best holdout epoch."""
    if not np.issubdtype(np.asarray(labels).dtype, np.integer):
        raise EvaluationError(f"probes are classification only; labels for {tag} "
                              "are not categorical")
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    if classes.shape[0] < 2:
        raise EvaluationError(f"degenerate labels for {tag}: single class {classes}")
    if classes[0] < 0:
        raise LabelError(f"negative label for {tag}: {classes[0]}")
    n_classes = int(labels.max()) + 1
    n, in_width = reps.shape
    k, hidden, batch = atk.k, atk.hidden, atk.batch
    n_val = max(1, int(round(n * HOLDOUT)))
    rngs = [rng_for(seed, f"attacker/{tag}/{i}") for i in range(k)]
    perms = np.stack([rng.permutation(n) for rng in rngs])
    val_idx, tr_idx = perms[:, :n_val], perms[:, n_val:]
    val_reps, val_labels = reps[val_idx], labels[val_idx]
    n_tr = tr_idx.shape[1]
    net = AttackerNet(tag, k, in_width, hidden, n_classes, atk.lr, seed, max(1, min(batch, n_tr)))
    best, best_f1, stale = net.params.copy(), np.full(k, -1.0), np.zeros(k, dtype=np.int64)
    live = np.arange(k)  # the probes in the stack, in stack order
    for _ in range(atk.max_epochs):
        order = np.stack([tr_idx[i, rngs[i].permutation(n_tr)] for i in live])
        for lo in range(0, n_tr, batch):
            sel = order[:, lo:lo + batch]
            net.train_step(reps[sel], labels[sel])
        pred = _predict(net.layers, val_reps[live])
        val_f1 = np.array([macro_f1(p, val_labels[i], n_classes) for p, i in zip(pred, live)])
        gain = val_f1 > best_f1[live] + 1e-4
        best[live[gain]] = net.params[gain]
        best_f1[live[gain]] = val_f1[gain]
        stale[live] = np.where(gain, 0, stale[live] + 1)
        done = ~gain & (stale[live] >= atk.patience)
        if done.all():
            break
        if done.any():
            net.retire(~done)
            live = live[~done]
    return AttackerEnsemble(best, n_classes, in_width, hidden)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask off Linux
        return os.cpu_count() or 1


def train_attacker_ensembles(jobs: list[tuple[Array, Array, str]], atk: AttackConfig,
                             seed: int) -> list[AttackerEnsemble]:
    """``train_attacker_ensemble`` of each ``(reps, labels, tag)`` job, in
    job order, on a thread per CPU this process may use (at most one per
    job); with one, the jobs run here, one after another.

    Every ensemble is bit for bit the one trained alone: each job owns its
    ``attacker/{tag}/{i}`` streams, its ``AttackerNet`` and its buffers, and
    the OpenBLAS runs one thread per call (``runner.pin_blas_threads``). The
    threads overlap where numpy releases the GIL, in the matrix products and
    the large ufuncs. Results are collected in job order, so a failing job
    raises the error the first failing job of the serial loop raises, and
    the jobs not yet started are cancelled. No thread outlives the call."""
    def train(job):
        reps, labels, tag = job
        return train_attacker_ensemble(reps, labels, atk, seed, tag)

    workers = min(len(jobs), _usable_cpus())
    if workers <= 1:
        return [train(job) for job in jobs]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(train, jobs))


@dataclass
class AttackResult:
    mean_f1: float
    std_f1: float
    per_attacker: list[float]


def attack_f1(ens: AttackerEnsemble, reps: Array, labels: Array) -> AttackResult:
    if reps.shape[1] != ens.in_width:
        raise EvaluationError(f"rep width {reps.shape[1]} != ensemble width {ens.in_width}")
    labels = np.asarray(labels, dtype=np.int64)
    pred = _predict(_probe_layers(ens.params, ens.in_width, ens.hidden, ens.n_classes), reps)
    scores = [macro_f1(p, labels, ens.n_classes) for p in pred]
    return AttackResult(float(np.mean(scores)), float(np.std(scores)), scores)


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
        return asdict(self)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")

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
