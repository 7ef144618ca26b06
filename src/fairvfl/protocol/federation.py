"""The simulated federation: platform actors, the serving flow, and the full
training round.

Actors communicate only through ``Federation.send``: every message is
recorded in the transcript, edge-checked, then handed to the receiver, and
each reply is sent the same way before ``send`` returns. All scheduling is
deterministic; a round is driven in the fixed protocol order (local
encodings, aggregation, task gradient, per-feature fairness machinery,
overall-gradient assembly, local updates).

Training-round order per sensitive feature: contrastive-discriminator step,
mapper ascent on the contrastive-adversarial loss, protected-rep recompute and
upload, bias-discriminator step, mapper descent on the returned gradient,
second recompute and upload, frozen adversarial gradient back to the unified
rep. The bias discriminator's parameter and input gradients come from one
forward pass (the update lands after both are taken).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..adversarial import (
    ContrastiveContext,
    LossWeights,
    SignLedger,
    UpdateEvent,
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
from .messages import Kind, LEGAL_EDGES, Message, Role, Transcript, record_of

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
    ledger_max_dev: float | None = None


class PlatformBase:
    def __init__(self, name: str, role: Role):
        self.name = name
        self.role = role

    def handle(self, msg: Message, fed: "Federation") -> list[Message]:
        raise NotImplementedError


class TaskPlatform(PlatformBase):
    """Holds the task labels and the task head; never sees sensitive labels."""

    def __init__(self, shard: TaskShard, head, rng):
        super().__init__("task", Role.TASK)
        self.shard = shard
        self.head = head
        self.rng = rng
        self.round_ids: Array | None = None
        self.last_loss = float("nan")
        self.last_predictions: Array | None = None

    def handle(self, msg: Message, fed: "Federation") -> list[Message]:
        if msg.kind is not Kind.UNIFIED_REP_TO_TASK:
            raise ProtocolError(f"task platform cannot handle {msg.kind}")
        unified = msg.payload
        if fed.phase == "serve":
            self.last_predictions = self.head.predict(unified)
            return []
        logits, cache = self.head.forward(unified, training=True, rng=self.rng)
        labels = self.shard.take(self.round_ids)
        loss, glogits = softmax_cross_entropy(logits, labels)
        grad_unified = self.head.backward(cache, glogits)
        self.head.opt.step()
        fed.record_update(self.head, "task")
        self.last_loss = loss
        # gradient at the perturbed upload is treated as the gradient at s
        return [Message(msg.round_id, self.name, fed.server.name,
                        Kind.TASK_GRAD_DOWN, grad_unified)]


class InsensitivePlatform(PlatformBase):
    """Holds one feature slice and its local encoder."""

    def __init__(self, index: int, shard: FeatureShard, encoder, rng):
        super().__init__(shard.name, Role.INSENSITIVE)
        self.index = index
        self.shard = shard
        self.encoder = encoder
        self.rng = rng
        self.cache = None

    def handle(self, msg: Message, fed: "Federation") -> list[Message]:
        if msg.kind is Kind.SAMPLE_IDS:
            cols = self.shard.take(msg.payload)
            training = fed.phase == "train"
            rep, self.cache = self.encoder.forward(cols, training,
                                                   self.rng if training else None)
            return [Message(msg.round_id, self.name, fed.server.name,
                            Kind.LOCAL_REP_UPLOAD, rep)]
        if msg.kind is Kind.LOCAL_REP_GRAD_DOWN:
            self.encoder.backward(self.cache, msg.payload)
            self.encoder.opt.step()
            return []
        raise ProtocolError(f"{self.name} cannot handle {msg.kind}")


class SensitivePlatform(PlatformBase):
    """Holds one sensitive feature's labels and its bias discriminator."""

    def __init__(self, feature: str, shard: LabelShard, bdisc):
        super().__init__(shard.name, Role.SENSITIVE)
        self.feature = feature
        self.shard = shard
        self.bdisc = bdisc
        self.round_ids: Array | None = None
        self.uploads_this_round = 0
        self.last_bias_loss = float("nan")
        self.last_adv_loss = float("nan")

    def handle(self, msg: Message, fed: "Federation") -> list[Message]:
        if msg.kind is Kind.SAMPLE_IDS:
            self.round_ids = msg.payload
            self.uploads_this_round = 0
            return []
        if msg.kind is Kind.PROTECTED_REP_UPLOAD:
            labels = self.shard.take(self.round_ids)
            self.uploads_this_round += 1
            if self.uploads_this_round == 1:
                loss, grad_protected = bias_discriminator_step(self.bdisc, msg.payload, labels)
                fed.record_update(self.bdisc, f"bias/{self.feature}")
                self.last_bias_loss = loss
                return [Message(msg.round_id, self.name, fed.server.name,
                                Kind.BIAS_DISC_GRAD_DOWN, grad_protected)]
            loss, grad_protected = bias_loss_and_grad_frozen(self.bdisc, msg.payload, labels)
            self.last_adv_loss = loss
            return [Message(msg.round_id, self.name, fed.server.name,
                            Kind.ADV_GRAD_DOWN, grad_protected)]
        raise ProtocolError(f"{self.name} cannot handle {msg.kind}")


class ServerPlatform(PlatformBase):
    """The aggregation server: aggregator, mappers, contrastive discriminators."""

    def __init__(self, aggregator, mappers, cdiscs, neg_rngs, ldp_rng, n_locals: int):
        super().__init__("server", Role.SERVER)
        self.aggregator = aggregator
        self.mappers = mappers
        self.cdiscs = cdiscs
        self.neg_rngs = neg_rngs
        self.ldp_rng = ldp_rng
        self.n_locals = n_locals
        self.reset_round_state()

    def reset_round_state(self) -> None:
        self.local_reps: dict[int, Array] = {}
        self.agg_cache = None
        self.unified: Array | None = None
        self.task_grad: Array | None = None
        self.mapper_caches: dict[str, tuple] = {}
        self.adv_grads: dict[str, Array] = {}

    def aggregate(self) -> Array:
        if len(self.local_reps) != self.n_locals:
            raise ProtocolError(
                f"expected {self.n_locals} local reps, got {len(self.local_reps)}"
            )
        stacked = np.stack([self.local_reps[i] for i in range(self.n_locals)], axis=1)
        self.unified, self.agg_cache = self.aggregator.forward(stacked)
        return self.unified

    def handle(self, msg: Message, fed: "Federation") -> list[Message]:
        if msg.kind is Kind.LOCAL_REP_UPLOAD:
            self.local_reps[fed.platforms[msg.sender].index] = msg.payload
            return []
        if msg.kind is Kind.TASK_GRAD_DOWN:
            self.task_grad = msg.payload
            return []
        if msg.kind is Kind.BIAS_DISC_GRAD_DOWN:
            feature = fed.platforms[msg.sender].feature
            mapper = self.mappers[feature]
            mapper.backward(self.mapper_caches[feature], msg.payload, inputs=False)
            mapper.opt.step()
            fed.record_update(mapper, f"bias/{feature}")
            # recompute the protected rep with the just-updated mapper
            protected, self.mapper_caches[feature] = mapper.forward(self.unified)
            return [Message(msg.round_id, self.name, msg.sender,
                            Kind.PROTECTED_REP_UPLOAD, protected)]
        if msg.kind is Kind.ADV_GRAD_DOWN:
            feature = fed.platforms[msg.sender].feature
            # the mapper is frozen on this pass: input gradient only
            self.adv_grads[feature] = self.mappers[feature].backward(
                self.mapper_caches[feature], msg.payload, params=False)
            return []
        raise ProtocolError(f"server cannot handle {msg.kind}")


class Federation:
    """A run's deterministically scheduled in-process federation, built from
    its config: the only place that partitions a run's dataset and builds its
    ``ModelBundle``, freshly drawn or, given a ``checkpoint`` path, with that
    file's weights. The mode fixes the features whose fairness machinery runs
    each round: all of them for fairvfl, none for vfl. ``payload_digests``
    hashes every payload into its transcript record (only an exported
    transcript reads them); ``verify_updates`` checks every round against the
    sign ledger."""

    def __init__(self, cfg: ExperimentConfig, dataset, partition, *,
                 payload_digests: bool = False, verify_updates: bool = False,
                 checkpoint=None):
        if cfg.mode not in ("fairvfl", "vfl"):
            raise ProtocolError(f"unknown mode {cfg.mode!r}")
        seed = cfg.seed
        feature_shards, label_shards, task_shard = partition_vertical(dataset, partition)
        sensitive_classes = {f: col.n_classes for f, col in dataset.sensitive.items()}
        self.bundle = bundle = ModelBundle(
            [shard.schema() for shard in feature_shards], cfg.rep_widths(),
            dataset.n_task_classes, sensitive_classes, seed, cfg.optim_params(),
            cfg.p_drop, checkpoint)
        self.weights = cfg.loss_weights()
        self.ldp = cfg.ldp_config()
        self.top_pool = cfg.top_pool
        self.payload_digests = payload_digests
        self.verify_updates = verify_updates
        #: the features whose fairness machinery runs: none in a vfl round
        self.round_features = bundle.features if cfg.mode == "fairvfl" else []
        self.phase = "idle"
        self.transcript = Transcript()
        self.events: list[UpdateEvent] | None = None
        self.ledger = SignLedger.default(bundle.features)
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
            rng_for(seed, "ldp/server"), len(feature_shards))
        self.sensitive = {
            f: SensitivePlatform(f, label_shards[f], bundle.bdiscs[f])
            for f in bundle.features
        }

        #: every platform by name; each carries its role, and an insensitive
        #: platform its ``index``, a sensitive one its ``feature``
        self.platforms: dict[str, PlatformBase] = {
            p.name: p for p in (self.task, self.server, *self.insensitive,
                                *self.sensitive.values())}

    # -- plumbing ---------------------------------------------------------

    def record_update(self, component, terms: str | list) -> None:
        """On instrumented rounds, right after ``component.opt.step()``, logs
        under its name the update applied: a copy of its gradient store, which
        the step leaves as it was, checked against ``terms``: the (loss term,
        coefficient, flat gradient) pieces, all computed before the aggregator's
        real backward, that it must be the signed sum of, or the one loss term."""
        if self.events is None:
            return
        applied = component.opt.grads.copy()
        if isinstance(terms, str):
            terms = [(terms, 1.0, applied)]
        self.events.append(UpdateEvent(component.name, terms, applied))

    def send(self, msg: Message) -> None:
        """Records, validates, and delivers a message, then sends each of the
        receiver's replies before returning."""
        self.transcript.append(record_of(msg, phase=self.phase,
                                         digest=self.payload_digests))
        sender = self.platforms.get(msg.sender)
        receiver = self.platforms.get(msg.receiver)
        if sender is None or receiver is None:
            raise ProtocolError(f"unknown platform in edge {msg.sender} -> {msg.receiver}")
        if (sender.role, receiver.role) not in LEGAL_EDGES[msg.kind]:
            raise ProtocolError(
                f"illegal edge for {msg.kind.value}: {msg.sender} -> {msg.receiver}"
            )
        for out in receiver.handle(msg, self):
            self.send(out)

    def _upload_unified(self, round_id: int) -> None:
        unified = self.server.unified
        cfg = self.ldp
        perturb = cfg.enabled and (self.phase == "serve" or cfg.perturb_training)
        if perturb:
            payload = ldp_perturb(unified, cfg, self.server.ldp_rng)
            flag = True
        else:
            payload = unified
            flag = False if cfg.enabled else None
        self.send(Message(round_id, self.server.name, self.task.name,
                          Kind.UNIFIED_REP_TO_TASK, payload, ldp_applied=flag))

    # -- serving ----------------------------------------------------------

    def serve(self, ids: np.ndarray) -> np.ndarray:
        """Federated serving: ids out, local reps up, aggregate, (LDP), predict."""
        ids = np.asarray(ids, dtype=np.int64)
        self.phase = "serve"
        round_id = self._round_counter
        self._round_counter += 1
        self.server.reset_round_state()
        for p in self.insensitive:
            self.send(Message(round_id, self.task.name, p.name, Kind.SAMPLE_IDS, ids))
        self.server.aggregate()
        self._upload_unified(round_id)
        self.phase = "idle"
        return self.task.last_predictions

    # -- training ---------------------------------------------------------

    def run_training_round(self, ids: np.ndarray) -> RoundResult:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] < 2:
            raise ProtocolError("contrastive learning requires >=2 samples per batch")
        self.phase = "train"
        round_id = self._round_counter
        self._round_counter += 1
        start_mark = len(self.transcript)
        self.events = [] if self.verify_updates else None
        self.server.reset_round_state()
        weights = self.weights
        features = self.round_features

        # 1) distribute the batch ids; local reps cascade back to the server.
        # Sensitive platforms take part only for the round's features.
        self.task.round_ids = ids
        for p in self.insensitive:
            self.send(Message(round_id, self.task.name, p.name, Kind.SAMPLE_IDS, ids))
        for f in features:
            self.send(Message(round_id, self.task.name, self.sensitive[f].name,
                              Kind.SAMPLE_IDS, ids))

        # 2) aggregate into the unified rep
        unified = self.server.aggregate()

        # 3) unified rep up, task gradient back (updates the task head)
        self._upload_unified(round_id)

        # 4) per-feature fairness machinery
        lp, lc, ld, la = {}, {}, {}, {}
        for feature in features:
            self._fairness_steps(feature, round_id, unified, weights, lp, lc, ld, la)

        # 5) overall gradient on the unified rep
        task_grad = self.server.task_grad
        grad_unified = (combine_overall_grad(task_grad, self.server.adv_grads, weights)
                        if features else task_grad)

        # 6) aggregator update. An instrumented round first passes each loss term
        # alone through the aggregator and each encoder's cached forward.
        agg = self.server.aggregator
        pieces = defaultdict(list)
        if self.events is not None:
            terms = [("task", 1.0, task_grad)]
            terms += [(f"adversarial/{f}", -weights.lam[f], self.server.adv_grads[f])
                      for f in features]
            for term, coeff, gout in terms:
                gstack = agg.backward(self.server.agg_cache, gout)
                pieces[agg.name].append((term, coeff, agg.opt.grads.copy()))
                for p in self.insensitive:
                    p.encoder.backward(p.cache, gstack[:, p.index, :])
                    pieces[p.encoder.name].append((term, coeff, p.encoder.opt.grads.copy()))
        grad_stacked = agg.backward(self.server.agg_cache, grad_unified)
        agg.opt.step()
        self.record_update(agg, pieces[agg.name])

        # 7) distribute local-rep gradients; encoders update on receipt
        for p in self.insensitive:
            self.send(Message(round_id, self.server.name, p.name,
                              Kind.LOCAL_REP_GRAD_DOWN, grad_stacked[:, p.index, :]))
            self.record_update(p.encoder, pieces[p.encoder.name])

        losses = RoundLosses(self.task.last_loss, lp, lc, ld, la)
        if not losses.all_finite():
            raise NumericError(f"non-finite loss in round {round_id}: {losses.flat()}")

        max_dev = None
        if self.events is not None:
            max_dev = max((self.ledger.verify(e) for e in self.events), default=0.0)
        records = self.transcript.records[start_mark:]
        self.phase = "idle"
        return RoundResult(round_id, losses, records, max_dev)

    def _fairness_steps(self, feature: str, round_id: int, unified: Array,
                        weights: LossWeights, lp, lc, ld, la) -> None:
        server = self.server
        mapper = server.mappers[feature]
        cdisc = server.cdiscs[feature]

        # contrastive discriminator: one descent step, representations fixed
        protected, mcache = mapper.forward(unified)
        ctx = ContrastiveContext(protected, unified, self.top_pool,
                                 server.neg_rngs[feature])
        neg_idx = select_negatives(ctx)
        lp[feature] = contrastive_discriminator_step(cdisc, protected, unified, neg_idx)
        self.record_update(cdisc, f"contrastive/{feature}")

        # mapper ascent under the frozen, just-updated discriminator
        gamma = weights.gamma[feature]
        lc[feature], grad_protected = contrastive_adversarial_grad(
            cdisc, protected, unified, neg_idx)
        contribs = []
        if self.events is not None:
            mapper.backward(mcache, grad_protected, inputs=False)
            contribs = [(f"contrastive_adv/{feature}", -gamma, mapper.opt.grads.copy())]
        cal_mapper_gradient(mapper, mcache, grad_protected, gamma)
        mapper.opt.step()
        self.record_update(mapper, contribs)

        # recompute and share the protected rep; the cascade runs the bias
        # game (discriminator step, mapper descent, frozen adversarial pass)
        protected, server.mapper_caches[feature] = mapper.forward(unified)
        self.send(Message(round_id, server.name, self.sensitive[feature].name,
                          Kind.PROTECTED_REP_UPLOAD, protected))
        if feature not in server.adv_grads:
            raise ProtocolError(f"fairness exchange for {feature} did not complete")
        ld[feature] = self.sensitive[feature].last_bias_loss
        la[feature] = self.sensitive[feature].last_adv_loss
