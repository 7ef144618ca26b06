"""A message-free FairVFL training round, the reference that
``Federation.run_training_round`` must equal bit for bit, and the sign ledger
that checks the reference's own updates.

``ReferenceRound`` is written from the round order in
``fairvfl.protocol.federation``'s module docstring: local reps, aggregation,
the unified rep (LDP-perturbed where that applies) into a task-head step,
then per feature the contrastive-discriminator step, the mapper's ascent,
the first recompute and the bias-discriminator step, the mapper's descent,
the second recompute and the frozen adversarial gradient; then the overall
gradient, the aggregator's step and the encoders' steps. It calls the layers
and the ``fairvfl.adversarial`` step functions directly on its own bundle,
built from the same config and seed as the federation's, and draws from its
own ``rng_for(seed, name)`` streams. No message is sent.

Each update is logged as an ``UpdateEvent`` right after its step: a copy of
the gradient store it applied and the per-term pieces it must be the signed
sum of. The pieces come from passes the federation does not run, all before
the aggregator's real backward: the mapper's contrastive piece before its
ascent, then each loss term alone through the aggregator and on into every
encoder. Every later backward overwrites what they wrote, so they change no
parameter bit. ``SignLedger`` declares which terms may update each component
and in which direction, and checks every event against that.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from fairvfl.adversarial import (
    bias_discriminator_step,
    bias_loss_and_grad_frozen,
    cal_mapper_gradient,
    combine_overall_grad,
    contrastive_adversarial_grad,
    contrastive_discriminator_step,
    select_negatives,
)
from fairvfl.data import partition_vertical
from fairvfl.errors import ProtocolError
from fairvfl.models import ModelBundle
from fairvfl.nn import Array, rng_for, softmax_cross_entropy
from fairvfl.protocol import ldp_perturb

DESCEND = "descend"
ASCEND = "ascend"
LEDGER_TOL = 1e-9  # the largest deviation of an applied update from its declared sum


@dataclass
class UpdateEvent:
    """One optimizer step: the group's applied flat gradient (a copy of
    ``opt.grads``) and the per-loss pieces, each the flat gradient of one term
    alone, that it is supposed to be a signed combination of."""

    component: str
    # (loss term, coefficient, flat gradient); applied = sum coeff * piece
    contributions: list[tuple[str, float, Array]]
    applied: Array


@dataclass
class SignLedger:
    """Declares which loss terms may update each parameter-block group."""

    declared: dict[str, dict[str, str]] = field(default_factory=dict)

    @classmethod
    def default(cls, features: list[str]) -> "SignLedger":
        decl: dict[str, dict[str, str]] = {
            "task_head": {"task": DESCEND},
            "aggregator": {"task": DESCEND},
            "encoder/*": {"task": DESCEND},
        }
        for f in features:
            decl[f"cdisc/{f}"] = {f"contrastive/{f}": DESCEND}
            decl[f"bdisc/{f}"] = {f"bias/{f}": DESCEND}
            decl[f"mapper/{f}"] = {f"contrastive_adv/{f}": ASCEND, f"bias/{f}": DESCEND}
            decl["aggregator"][f"adversarial/{f}"] = ASCEND
            decl["encoder/*"][f"adversarial/{f}"] = ASCEND
        return cls(decl)

    def _rules_for(self, component: str) -> dict[str, str]:
        if component in self.declared:
            return self.declared[component]
        wild = f"{component.split('/', 1)[0]}/*"
        if wild in self.declared:
            return self.declared[wild]
        raise ProtocolError(f"no ledger entry for component {component}")

    def verify(self, event: UpdateEvent) -> float:
        """Checks one update event; returns the max absolute deviation between
        the applied gradient and the declared signed sum of pieces."""
        rules = self._rules_for(event.component)
        for term, coeff, _ in event.contributions:
            if term not in rules:
                raise ProtocolError(f"{event.component} updated by undeclared loss term {term}")
            direction = rules[term]
            if (direction == DESCEND and coeff < 0) or (direction == ASCEND and coeff > 0):
                raise ProtocolError(
                    f"{event.component}: {term} declared {direction} but coeff={coeff}")
        acc = np.zeros_like(event.applied)
        for _, coeff, piece in event.contributions:
            acc += coeff * piece
        max_dev = float(np.max(np.abs(acc - event.applied), initial=0.0))
        if max_dev > LEDGER_TOL:
            raise ProtocolError(
                f"{event.component}: applied update deviates from declared "
                f"signed sum by {max_dev:.3e} (> {LEDGER_TOL:.0e})")
        return max_dev


@dataclass
class ReferenceResult:
    losses: dict[str, float]  # keyed as ``RoundLosses.flat``
    events: list[UpdateEvent]
    ledger_max_dev: float


def first_difference(bundle: ModelBundle, ref_bundle: ModelBundle,
                     losses: dict[str, float], ref_losses: dict[str, float]) -> str | None:
    """The first component, in the order a fairvfl round first steps them,
    whose ``params``, ``m``, ``v`` or ``t`` differ by a bit between the two
    bundles; else ``"losses"`` if the round's losses differ; else None."""
    order = ["task_head"]
    for f in ref_bundle.features:
        order += [f"cdisc/{f}", f"mapper/{f}", f"bdisc/{f}"]
    for name in order + ["aggregator"] + [enc.name for enc in ref_bundle.encoders]:
        opt, ref = bundle.optim[name], ref_bundle.optim[name]
        if opt.t != ref.t:
            return name
        for store in ("params", "m", "v"):  # the moments are None until a step
            a, b = getattr(opt, store), getattr(ref, store)
            if (a is None) != (b is None) or (a is not None and a.tobytes() != b.tobytes()):
                return name
    if list(losses) != list(ref_losses) or \
            np.array(list(losses.values())).tobytes() != \
            np.array(list(ref_losses.values())).tobytes():
        return "losses"
    return None


def compare_round(fed, ref: "ReferenceRound", ids: Array) -> tuple[str | None, ReferenceResult]:
    """One round of the federation and of its reference on ``ids``: the
    first difference between them after it (see ``first_difference``) and
    the reference's result."""
    losses = fed.run_training_round(ids).losses.flat()
    result = ref.run(ids)
    return first_difference(fed.bundle, ref.bundle, losses, result.losses), result


class ReferenceRound:
    """Training rounds of a run's config, computed without a federation."""

    def __init__(self, cfg, dataset, partition):
        seed = cfg.seed
        shards, label_shards, task_shard = partition_vertical(dataset, partition)
        self.bundle = ModelBundle(
            [s.schema() for s in shards], cfg.rep_widths(), dataset.n_task_classes,
            {f: col.n_classes for f, col in dataset.sensitive.items()}, seed,
            cfg.optim_params(), cfg.p_drop)
        self.shards, self.label_shards, self.task_shard = shards, label_shards, task_shard
        self.features = self.bundle.features if cfg.mode == "fairvfl" else []
        self.lam, self.gamma, self.top_pool = cfg.lam, cfg.gamma, cfg.top_pool
        self.ldp = cfg.ldp_config()
        self.enc_rngs = [rng_for(seed, f"dropout/encoder/{i}") for i in range(len(shards))]
        self.head_rng = rng_for(seed, "dropout/task_head")
        self.neg_rngs = {f: rng_for(seed, f"negatives/{f}") for f in self.bundle.features}
        self.ldp_rng = rng_for(seed, "ldp/server")
        self.ledger = SignLedger.default(self.bundle.features)

    def run(self, ids: Array) -> ReferenceResult:
        """One round on the batch ``ids``; every update is checked against
        the ledger, which raises ``ProtocolError`` on a violation."""
        b = self.bundle
        events = []

        def stepped(component, terms):
            applied = component.opt.grads.copy()
            if isinstance(terms, str):
                terms = [(terms, 1.0, applied)]
            events.append(UpdateEvent(component.name, terms, applied))

        # local reps and the unified rep
        reps, enc_caches = [], []
        for enc, shard, rng in zip(b.encoders, self.shards, self.enc_rngs):
            rep, cache = enc.forward(shard.take(ids), True, rng)
            reps.append(rep)
            enc_caches.append(cache)
        unified, agg_cache = b.aggregator.forward(np.stack(reps, axis=1))

        # the task head's step on the (perturbed) unified rep
        head_in = unified
        if self.ldp.enabled and self.ldp.perturb_training:
            head_in = ldp_perturb(unified, self.ldp, self.ldp_rng)
        logits, head_cache = b.task_head.forward(head_in, training=True, rng=self.head_rng)
        task_loss, glogits = softmax_cross_entropy(logits, self.task_shard.take(ids))
        task_grad = b.task_head.backward(head_cache, glogits)
        b.task_head.opt.step()
        stepped(b.task_head, "task")

        losses = {"Lp": {}, "Lc": {}, "Ld": {}, "La": {}}
        adv_grads = {}
        for f in self.features:
            mapper, cdisc, bdisc = b.mappers[f], b.cdiscs[f], b.bdiscs[f]
            labels = self.label_shards[f].take(ids)

            protected, mcache = mapper.forward(unified)
            neg_idx = select_negatives(protected, self.top_pool, self.neg_rngs[f])
            losses["Lp"][f] = contrastive_discriminator_step(cdisc, protected, unified, neg_idx)
            stepped(cdisc, f"contrastive/{f}")

            losses["Lc"][f], gprot = contrastive_adversarial_grad(
                cdisc, protected, unified, neg_idx)
            mapper.backward(mcache, gprot, inputs=False)
            piece = mapper.opt.grads.copy()
            cal_mapper_gradient(mapper, mcache, gprot, self.gamma[f])
            mapper.opt.step()
            stepped(mapper, [(f"contrastive_adv/{f}", -self.gamma[f], piece)])

            protected, mcache = mapper.forward(unified)
            losses["Ld"][f], gprot = bias_discriminator_step(bdisc, protected, labels)
            stepped(bdisc, f"bias/{f}")
            mapper.backward(mcache, gprot, inputs=False)
            mapper.opt.step()
            stepped(mapper, f"bias/{f}")

            protected, mcache = mapper.forward(unified)
            losses["La"][f], gprot = bias_loss_and_grad_frozen(bdisc, protected, labels)
            adv_grads[f] = mapper.backward(mcache, gprot, params=False)

        grad_unified = (combine_overall_grad(task_grad, adv_grads, self.lam)
                        if self.features else task_grad)

        # each loss term alone through the aggregator and every encoder
        pieces = defaultdict(list)
        terms = [("task", 1.0, task_grad)]
        terms += [(f"adversarial/{f}", -self.lam[f], adv_grads[f]) for f in self.features]
        for term, coeff, gout in terms:
            gstack = b.aggregator.backward(agg_cache, gout)
            pieces[b.aggregator.name].append((term, coeff, b.aggregator.opt.grads.copy()))
            for i, enc in enumerate(b.encoders):
                enc.backward(enc_caches[i], gstack[:, i, :])
                pieces[enc.name].append((term, coeff, enc.opt.grads.copy()))

        grad_stacked = b.aggregator.backward(agg_cache, grad_unified)
        b.aggregator.opt.step()
        stepped(b.aggregator, pieces[b.aggregator.name])
        for i, enc in enumerate(b.encoders):
            enc.backward(enc_caches[i], grad_stacked[:, i, :])
            enc.opt.step()
            stepped(enc, pieces[enc.name])

        flat = {"task": task_loss}
        for label, table in losses.items():
            flat.update({f"{label}/{f}": v for f, v in table.items()})
        max_dev = max(self.ledger.verify(e) for e in events)
        return ReferenceResult(flat, events, max_dev)
