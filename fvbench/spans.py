"""Spans and counters wrapped around fairvfl's layers from outside the package.

A span records the self time of each call: its duration minus the time of the
traced calls it makes. A counter only counts calls. Both are installed by
replacing names where their callers look them up: a class attribute for a
method, and every ``fairvfl`` module attribute bound to the function for a
function (``select_negatives`` is looked up in ``fairvfl.protocol.federation``,
not in ``fairvfl.adversarial``). ``uninstall`` puts the originals back, so an
untraced stretch of a run pays nothing.

Counts that should repeat exactly (``Tracer.in_round``) are only taken inside
``Federation.run_training_round``, so the attack phase's optimizer steps never
mix into a per-round count.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

ROUND_SPAN = "protocol.round"

# Span names whose inclusive time is reported as well as their self time. Each
# tuple is a group: a span's inclusive time is kept only when no caller of it
# is in the same group, so the groups' totals stay disjoint.
INCLUSIVE_GROUPS = (
    ("runner.predict_classes", "runner.representations"),
    ("evaluation.attacker_ensemble", "evaluation.privacy_attack"),
)


def _targets():
    """(owner, attribute, span or counter name, kind) for every wrapped name.

    kind is "span", "count" (count the calls), "digest" (a span that also sums
    the payload bytes) or "macro_f1" (a counter that also watches the value).
    """
    from fairvfl import adversarial, checkpoint, config, digest, evaluation, models, nn, runner
    from fairvfl.data import dataset
    from fairvfl.protocol import audit, federation, messages

    T = []

    def add(owner, attrs, name, kind="span"):
        for attr in attrs.split():
            T.append((owner, attr, name, kind))

    # protocol: message dispatch, record building, digests. The round span
    # itself is opened by the caller's round clock through ``span``.
    add(federation.Federation, "send", "protocol.send")
    for cls in (federation.TaskPlatform, federation.InsensitivePlatform,
                federation.SensitivePlatform, federation.ServerPlatform):
        add(cls, "handle", "protocol.handle")
    add(messages, "record_of", "protocol.record_of")
    add(digest, "digest_array", "protocol.digest", "digest")
    add(messages, "write_records", "protocol.transcript_write")
    add(messages.Transcript, "write", "protocol.transcript_write")
    add(messages.Transcript, "read", "protocol.transcript_read")
    add(audit, "audit_transcript per_round_fairness_cost", "protocol.audit")

    # nn: the optimizer, gradient zeroing, and the layers (counted only; their
    # time stays in the model component that calls them)
    add(nn.Adam, "step", "nn.adam_step")
    add(nn, "adam_update", "nn.adam_update", "count")
    add(nn.ParamBlock, "zero_grad", "nn.zero_grad")
    add(nn.ParamBlock, "zero_grad", "nn.zero_grad_block", "count")
    for cls in (nn.Adam, models.LocalEncoder, models.Aggregator, models.TaskHead,
                models.TwoLayerMlp, models.ContrastiveDiscriminator):
        add(cls, "zero_grad", "nn.zero_grad")
    for cls in (nn.Linear, nn.Embedding):
        add(cls, "forward backward", "nn.layer_call", "count")

    # models: one span per component and direction. Mapper and BiasDiscriminator
    # inherit TwoLayerMlp's methods, so the wrapper is set on the subclass.
    for cls, short in ((models.LocalEncoder, "encoder"),
                       (models.MultiHeadSelfAttention, "attention"),
                       (models.AttentionPool, "pool"),
                       (models.TaskHead, "task_head"),
                       (models.Mapper, "mapper"),
                       (models.ContrastiveDiscriminator, "cdisc"),
                       (models.BiasDiscriminator, "bdisc")):
        add(cls, "forward", f"models.{short}.fwd")
        add(cls, "backward", f"models.{short}.bwd")
    add(models.ModelBundle, "__init__", "models.bundle_build")

    # adversarial: negative sampling, the two games, the overall gradient
    add(adversarial, "select_negatives", "adversarial.select_negatives")
    add(adversarial, "combine_overall_grad", "adversarial.combine_overall_grad")
    add(adversarial, "contrastive_discriminator_step contrastive_adversarial_grad "
                     "cal_mapper_gradient", "adversarial.contrastive_game")
    add(adversarial, "bias_discriminator_step bias_loss_and_grad_frozen",
        "adversarial.bias_game")

    # data
    add(runner, "make_dataset", "data.make_dataset")
    add(dataset, "iterate_batches", "data.iterate_batches")
    for cls in (dataset.FeatureShard, dataset.LabelShard, dataset.TaskShard):
        add(cls, "take", "data.shard_take")

    # checkpoint
    add(checkpoint, "save_checkpoint", "checkpoint.save")
    add(checkpoint, "load_checkpoint", "checkpoint.load")

    # runner / cli: the commands, eval passes, snapshots, writers
    add(runner, "cmd_train cmd_attack cmd_audit", "runner.cmd")
    add(runner, "predict_classes", "runner.predict_classes")
    add(runner, "representations", "runner.representations")
    add(runner, "_snapshot_params", "runner.snapshot_params")
    add(runner, "_write_loss_curves _write_metrics_table _write_result_summary",
        "runner.writers")
    add(dataset, "write_shard_manifest", "runner.writers")
    add(evaluation.MetricsReport, "write", "runner.writers")
    add(config.ExperimentConfig, "write", "runner.writers")

    # evaluation: attacker ensembles, the privacy probe, their training steps
    add(evaluation, "train_attacker_ensemble", "evaluation.attacker_ensemble")
    add(evaluation, "privacy_inference_attack", "evaluation.privacy_attack")
    add(evaluation, "attack_f1", "evaluation.attack_f1")
    add(evaluation, "_train_one_attacker", "evaluation.train_one_attacker")
    add(evaluation.AttackerNet, "train_step", "evaluation.attacker_train_step", "count")
    add(evaluation, "macro_f1", "evaluation.macro_f1", "macro_f1")
    return T


class Tracer:
    """Self time, inclusive time and call counts per name, kept in memory."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.in_round: dict[str, int] = defaultdict(int)  # counts inside a round
        self.digest_bytes = 0
        self.digest_bytes_in_round = 0
        self.holdout_epochs = 0
        self.holdout_gains = 0
        self._best_f1: float | None = None
        self._stack: list[list] = []  # [name, child_ns] per open span
        self._round_depth = 0
        self._saved: list[tuple] = []
        self.missing: set[str] = set()  # targets this version of fairvfl lacks
        self._group_of = {n: g for g in INCLUSIVE_GROUPS for n in g}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fairvfl" or name.startswith("fairvfl."))]
        for owner, attr, name, kind in _targets():
            if not hasattr(owner, attr):
                self.missing.add(f"{owner.__name__}.{attr}")
                continue
            if isinstance(owner, type):
                raw = owner.__dict__.get(attr, getattr(owner, attr))
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = self._wrap(fn, name, kind)
                self._saved.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, classmethod(wrapped) if is_cm else wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, name, kind)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)  # the wrapper shadowed an inherited method
            else:
                setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, fn, name: str, kind: str):
        if kind == "count":
            return self._counter(fn, name)
        if kind == "macro_f1":
            return self._macro_f1(fn, name)
        return self._span(fn, name, kind == "digest")

    # -- wrappers -----------------------------------------------------------

    def span(self, fn, name: str):
        """A traced version of ``fn``, for callers that time it themselves."""
        return self._span(fn, name, False)

    def _count(self, name: str) -> None:
        self.calls[name] += 1
        if self._round_depth:
            self.in_round[name] += 1

    def _counter(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)
        return counted

    def _macro_f1(self, fn, name: str):
        """Counts attacker epochs (the holdout F1 computed once per epoch
        inside ``_train_one_attacker``) and the epochs that raised the best."""
        @functools.wraps(fn)
        def watched(*args, **kwargs):
            value = fn(*args, **kwargs)
            if self._stack and self._stack[-1][0] == "evaluation.train_one_attacker":
                self.holdout_epochs += 1
                if self._best_f1 is None or value > self._best_f1:
                    self._best_f1 = value
                    self.holdout_gains += 1
            return value
        return watched

    def _span(self, fn, name: str, digest: bool):
        stack = self._stack
        group = self._group_of.get(name)
        is_round = name == ROUND_SPAN
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if name == "evaluation.train_one_attacker":
                self._best_f1 = None
            if digest:
                nbytes = int(getattr(args[0], "nbytes", 0))
                self.digest_bytes += nbytes
                if self._round_depth:
                    self.digest_bytes_in_round += nbytes
            self._count(name)
            frame = [name, 0]
            outer_in_group = group is not None and any(
                self._group_of.get(f[0]) == group for f in stack)
            stack.append(frame)
            self._round_depth += is_round
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._round_depth -= is_round
                stack.pop()
                self.self_ns[name] += dt - frame[1]
                if group is not None and not outer_in_group:
                    self.incl_ns[name] += dt
                if stack:
                    stack[-1][1] += dt
        return spanned

    # -- reading ------------------------------------------------------------

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def incl_s(self, name: str) -> float:
        return self.incl_ns.get(name, 0) / 1e9
