"""The simulated federation: platform actors, the serving flow, and the full
training round.

Actors communicate only through ``Federation.send``, which takes a
message's fields as its arguments: the round, the sending and receiving
platforms themselves, the kind and the payload. It records the message in
the transcript, checks the edge the two platforms' roles make and that a
float payload is all finite, and returns the payload it delivers. The loss
weights come straight from the run's config: ``cfg.lam`` scales each
adversarial gradient in the overall gradient, ``cfg.gamma`` each mapper's
contrastive ascent. Each platform acts only on what ``send``
returned to it, one small method per step, so a round reads top to bottom in
the fixed protocol order, with its state in local variables: ids out and
local reps up, aggregation, the unified rep (LDP-perturbed where that
applies) to the task platform and the task gradient back, per-feature
fairness machinery, overall-gradient assembly, local updates. Each
component steps right after its only parameter backward, so a bundle's
components can share one gradient buffer (``models.ModelBundle``).

Training-round order per sensitive feature: contrastive-discriminator step,
mapper ascent on the contrastive-adversarial loss, protected-rep recompute and
upload, bias-discriminator step, mapper descent on the returned gradient,
second recompute and upload, frozen adversarial gradient back to the unified
rep. The bias discriminator's parameter and input gradients come from one
forward pass (the update lands after both are taken).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..adversarial import (
    bias_discriminator_step,
    bias_loss_and_grad_frozen,
    cal_mapper_gradient,
    combine_overall_grad,
    contrastive_adversarial_grad,
    contrastive_discriminator_step,
    select_negatives,
)
from ..data.dataset import FeatureShard, LabelShard, TaskShard, partition_vertical
from ..errors import NumericError, ProtocolError
from ..models import ModelBundle
from ..nn import Array, rng_for, softmax_cross_entropy
from .ldp import ldp_perturb
from .messages import Kind, LEGAL_EDGES, Role, Transcript, record_of

if TYPE_CHECKING:  # config imports this package
    from ..config import ExperimentConfig


@dataclass
class RoundLosses:
    task: float
    contrastive: dict[str, float]  # discrimination loss per feature
    contrastive_adv: dict[str, float]
    bias: dict[str, float]
    adversarial: dict[str, float]

    def flat(self) -> dict[str, float]:
        out = {"task": self.task}
        for label, table in (("Lp", self.contrastive), ("Lc", self.contrastive_adv),
                             ("Ld", self.bias), ("La", self.adversarial)):
            for f, v in table.items():
                out[f"{label}/{f}"] = v
        return out

    def all_finite(self) -> bool:
        return all(np.isfinite(v) for v in self.flat().values())


@dataclass
class RoundResult:
    round_id: int
    losses: RoundLosses
    records: list


class PlatformBase:
    def __init__(self, name: str, role: Role):
        self.name = name
        self.role = role


class TaskPlatform(PlatformBase):
    """Holds the task labels and the task head; never sees sensitive labels."""

    def __init__(self, shard: TaskShard, head, rng):
        super().__init__("task", Role.TASK)
        self.shard = shard
        self.head = head
        self.rng = rng

    def train_step(self, ids: Array, unified: Array) -> tuple[float, Array]:
        """One head step on the received unified rep: the task loss and its
        gradient at that upload, which stands for the gradient at the rep."""
        logits, cache = self.head.forward(unified, training=True, rng=self.rng)
        loss, glogits = softmax_cross_entropy(logits, self.shard.take(ids))
        grad_unified = self.head.backward(cache, glogits)
        self.head.opt.step()
        return loss, grad_unified


class InsensitivePlatform(PlatformBase):
    """Holds one feature slice and its local encoder."""

    def __init__(self, index: int, shard: FeatureShard, encoder, rng):
        super().__init__(shard.name, Role.INSENSITIVE)
        self.index = index
        self.shard = shard
        self.encoder = encoder
        self.rng = rng

    def encode(self, ids: Array, training: bool) -> tuple[Array, tuple]:
        """The local rep of the received ids' rows, and its cache for ``update``."""
        return self.encoder.forward(self.shard.take(ids), training,
                                    self.rng if training else None)

    def update(self, cache: tuple, grad: Array) -> None:
        """One encoder step on the received local-rep gradient."""
        self.encoder.backward(cache, grad)
        self.encoder.opt.step()


class SensitivePlatform(PlatformBase):
    """Holds one sensitive feature's labels and its bias discriminator."""

    def __init__(self, shard: LabelShard, bdisc):
        super().__init__(shard.name, Role.SENSITIVE)
        self.shard = shard
        self.bdisc = bdisc

    def bias_step(self, ids: Array, protected: Array) -> tuple[float, Array]:
        """One discriminator step on the received protected rep: its loss and
        gradient on that rep."""
        return bias_discriminator_step(self.bdisc, protected, self.shard.take(ids))

    def adversarial_grad(self, ids: Array, protected: Array) -> tuple[float, Array]:
        """The frozen discriminator's label loss on the received protected
        rep and its gradient on that rep."""
        return bias_loss_and_grad_frozen(self.bdisc, protected, self.shard.take(ids))


class ServerPlatform(PlatformBase):
    """The aggregation server: aggregator, mappers, contrastive discriminators."""

    def __init__(self, aggregator, mappers, cdiscs, neg_rngs, ldp_rng):
        super().__init__("server", Role.SERVER)
        self.aggregator = aggregator
        self.mappers = mappers
        self.cdiscs = cdiscs
        self.neg_rngs = neg_rngs
        self.ldp_rng = ldp_rng


class Federation:
    """A run's deterministically scheduled in-process federation, built from
    its config: the only place that partitions a run's dataset and builds its
    ``ModelBundle``, freshly drawn or, given a ``checkpoint`` path, with that
    file's weights. The mode fixes the features whose fairness machinery runs
    each round: all of them for fairvfl, none for vfl. ``payload_digests``
    hashes every payload into its transcript record (only an exported
    transcript reads them)."""

    def __init__(self, cfg: ExperimentConfig, dataset, partition, *,
                 payload_digests: bool = False, checkpoint=None):
        if cfg.mode not in ("fairvfl", "vfl"):
            raise ProtocolError(f"unknown mode {cfg.mode!r}")
        seed = cfg.seed
        feature_shards, label_shards, task_shard = partition_vertical(dataset, partition)
        sensitive_classes = {f: col.n_classes for f, col in dataset.sensitive.items()}
        self.bundle = bundle = ModelBundle(
            [shard.schema() for shard in feature_shards], cfg.rep_widths(),
            dataset.n_task_classes, sensitive_classes, seed, cfg.optim_params(),
            cfg.p_drop, checkpoint)
        self.lam, self.gamma = cfg.lam, cfg.gamma
        self.ldp = cfg.ldp_config()
        self.top_pool = cfg.top_pool
        self.payload_digests = payload_digests
        #: the features whose fairness machinery runs: none in a vfl round
        self.round_features = bundle.features if cfg.mode == "fairvfl" else []
        self.phase = "idle"
        self.transcript = Transcript()
        self._round_counter = 0

        self.task = TaskPlatform(task_shard, bundle.task_head, rng_for(seed, "dropout/task_head"))
        self.insensitive = [
            InsensitivePlatform(i, shard, bundle.encoders[i],
                                rng_for(seed, f"dropout/encoder/{i}"))
            for i, shard in enumerate(feature_shards)
        ]
        self.server = ServerPlatform(
            bundle.aggregator, bundle.mappers, bundle.cdiscs,
            {f: rng_for(seed, f"negatives/{f}") for f in bundle.features},
            rng_for(seed, "ldp/server"))
        self.sensitive = {f: SensitivePlatform(label_shards[f], bundle.bdiscs[f])
                          for f in bundle.features}

    # -- plumbing ---------------------------------------------------------

    def send(self, round_id: int, sender: PlatformBase, receiver: PlatformBase, kind: Kind,
             payload: Array, ldp_applied: bool | None = None) -> Array:
        """Records a ``kind`` message from the ``sender`` platform to the
        ``receiver`` platform, checks the edge their roles make and that a
        float payload is all finite, and returns the payload it delivers.
        ``ldp_applied`` flags a unified-rep upload's perturbation."""
        self.transcript.append(record_of(round_id, sender.name, receiver.name, kind, payload,
                                         ldp_applied, self.phase, self.payload_digests))
        if (sender.role, receiver.role) not in LEGAL_EDGES[kind]:
            raise ProtocolError(
                f"illegal edge for {kind.value}: {sender.name} -> {receiver.name}")
        if payload.dtype.kind == "f" and not np.isfinite(payload).all():
            raise NumericError(f"non-finite payload in round {round_id}: "
                               f"{kind.value} {sender.name} -> {receiver.name}")
        return payload

    def _local_reps(self, round_id: int, ids: Array, training: bool
                    ) -> tuple[list[Array], list[tuple]]:
        """Batch ids out to each insensitive platform and its local rep up: the
        reps the server receives, in platform order, and the encoders' caches."""
        reps, caches = [], []
        for p in self.insensitive:
            rep, cache = p.encode(self.send(round_id, self.task, p, Kind.SAMPLE_IDS, ids),
                                  training)
            reps.append(self.send(round_id, p, self.server, Kind.LOCAL_REP_UPLOAD, rep))
            caches.append(cache)
        return reps, caches

    def _upload_unified(self, round_id: int, unified: Array) -> Array:
        """The unified rep up to the task platform, perturbed when LDP applies
        to the phase; returns what the task platform receives."""
        cfg = self.ldp
        if cfg.enabled and (self.phase == "serve" or cfg.perturb_training):
            payload, flag = ldp_perturb(unified, cfg, self.server.ldp_rng), True
        else:
            payload, flag = unified, (False if cfg.enabled else None)
        return self.send(round_id, self.server, self.task, Kind.UNIFIED_REP_TO_TASK,
                         payload, flag)

    # -- serving ----------------------------------------------------------

    def serve(self, ids: np.ndarray) -> np.ndarray:
        """Federated serving: ids out, local reps up, aggregate, (LDP), predict."""
        ids = np.asarray(ids, dtype=np.int64)
        self.phase = "serve"
        round_id = self._round_counter
        self._round_counter += 1
        reps, _ = self._local_reps(round_id, ids, training=False)
        unified, _ = self.server.aggregator.forward(np.stack(reps, axis=1))
        predictions = self.task.head.predict(self._upload_unified(round_id, unified))
        self.phase = "idle"
        return predictions

    # -- training ---------------------------------------------------------

    def run_training_round(self, ids: np.ndarray) -> RoundResult:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] < 2:
            raise ProtocolError("contrastive learning requires >=2 samples per batch")
        self.phase = "train"
        round_id = self._round_counter
        self._round_counter += 1
        start_mark = len(self.transcript)
        task, server = self.task, self.server
        features = self.round_features

        # 1) batch ids out, local reps up; sensitive platforms only for the round's features
        reps, enc_caches = self._local_reps(round_id, ids, training=True)
        label_ids = {f: self.send(round_id, task, self.sensitive[f], Kind.SAMPLE_IDS, ids)
                     for f in features}

        # 2) aggregate into the unified rep
        agg = server.aggregator
        unified, agg_cache = agg.forward(np.stack(reps, axis=1))

        # 3) unified rep up, task head step, task gradient back
        task_loss, task_grad = task.train_step(ids, self._upload_unified(round_id, unified))
        task_grad = self.send(round_id, task, server, Kind.TASK_GRAD_DOWN, task_grad)

        # 4) per-feature fairness machinery
        lp, lc, ld, la, adv_grads = {}, {}, {}, {}, {}
        for f in features:
            lp[f], lc[f], ld[f], la[f], adv_grads[f] = self._fairness_steps(
                f, round_id, unified, label_ids[f])

        # 5) overall gradient on the unified rep
        grad_unified = (combine_overall_grad(task_grad, adv_grads, self.lam)
                        if features else task_grad)

        # 6) aggregator update
        grad_stacked = agg.backward(agg_cache, grad_unified)
        agg.opt.step()

        # 7) local-rep gradients down; each encoder steps on its own
        for p, cache in zip(self.insensitive, enc_caches):
            p.update(cache, self.send(round_id, server, p, Kind.LOCAL_REP_GRAD_DOWN,
                                      grad_stacked[:, p.index, :]))

        losses = RoundLosses(task_loss, lp, lc, ld, la)
        if not losses.all_finite():
            raise NumericError(f"non-finite loss in round {round_id}: {losses.flat()}")
        records = self.transcript.records[start_mark:]
        self.phase = "idle"
        return RoundResult(round_id, losses, records)

    def _fairness_steps(self, feature: str, round_id: int, unified: Array, ids: Array
                        ) -> tuple[float, float, float, float, Array]:
        """One feature's games on the ids its sensitive platform received: the
        four losses (Lp, Lc, Ld, La) and the adversarial gradient on the unified rep."""
        server, sensitive = self.server, self.sensitive[feature]
        mapper, cdisc = server.mappers[feature], server.cdiscs[feature]

        # contrastive discriminator: one descent step, representations fixed
        protected, mcache = mapper.forward(unified)
        neg_idx = select_negatives(protected, self.top_pool, server.neg_rngs[feature])
        lp = contrastive_discriminator_step(cdisc, protected, unified, neg_idx)

        # mapper ascent under the frozen, just-updated discriminator
        lc, grad_protected = contrastive_adversarial_grad(cdisc, protected, unified, neg_idx)
        cal_mapper_gradient(mapper, mcache, grad_protected, self.gamma[feature])
        mapper.opt.step()

        # the recomputed protected rep up, a bias-discriminator step, and the
        # mapper's descent on the returned gradient
        protected, mcache = mapper.forward(unified)
        ld, grad_protected = sensitive.bias_step(ids, self.send(
            round_id, server, sensitive, Kind.PROTECTED_REP_UPLOAD, protected))
        mapper.backward(mcache, self.send(
            round_id, sensitive, server, Kind.BIAS_DISC_GRAD_DOWN, grad_protected), inputs=False)
        mapper.opt.step()

        # the rep recomputed with the descended mapper up; the frozen
        # discriminator's gradient back through the frozen mapper
        protected, mcache = mapper.forward(unified)
        la, grad_protected = sensitive.adversarial_grad(ids, self.send(
            round_id, server, sensitive, Kind.PROTECTED_REP_UPLOAD, protected))
        grad_protected = self.send(round_id, sensitive, server, Kind.ADV_GRAD_DOWN,
                                   grad_protected)
        return lp, lc, ld, la, mapper.backward(mcache, grad_protected, params=False)
