"""Reference implementations the tests check the package against: per-row
negative sampling, the contrastive loss value, the adversarial gradient on the
unified rep, and the aggregator's pooling weights. The package itself never
calls them."""

import numpy as np

from fairvfl.adversarial import (
    ContrastiveContext,
    _contrastive_forward,
    bias_loss_and_grad_frozen,
)
from fairvfl.models import BiasDiscriminator, ContrastiveDiscriminator, Mapper
from fairvfl.nn import Array, pairwise_contrastive_loss


def top_pool_indices(relevance: Array, query: int, top_pool: int) -> Array:
    """Indices of the top candidates by relevance, self masked, ties broken by
    ascending sample index."""
    r = relevance.astype(np.float64, copy=True)
    r[query] = -np.inf
    order = np.argsort(-r, kind="stable")
    return order[: min(top_pool, r.shape[0] - 1)]


def rank_and_select_negative(ctx: ContrastiveContext, query: int) -> int:
    """Pick one negative for the query row, uniformly from its top pool: the
    per-row reference for ``select_negatives``."""
    relevance = ctx.protected @ ctx.protected[query]
    pool = top_pool_indices(relevance, query, ctx.top_pool)
    return int(pool[ctx.rng.integers(pool.shape[0])])


def contrastive_loss_value(disc: ContrastiveDiscriminator, protected: Array,
                           unified: Array, neg_idx: Array) -> float:
    """The preimage-classification loss under the discriminator's current
    parameters; used both as the discrimination loss and, after the
    discriminator step, as the contrastive adversarial loss (same formula)."""
    pos, neg, _ = _contrastive_forward(disc, protected, unified, neg_idx)
    loss, _, _ = pairwise_contrastive_loss(pos, neg)
    return loss


def adversarial_grad_on_unified(mapper: Mapper, disc: BiasDiscriminator,
                                unified: Array, labels: Array
                                ) -> tuple[float, Array]:
    """Recomputes the protected rep through the frozen mapper, evaluates the
    label loss under the frozen discriminator, and returns its gradient on
    the unified rep only."""
    protected, mcache = mapper.forward(unified)
    loss, grad_protected = bias_loss_and_grad_frozen(disc, protected, labels)
    return loss, mapper.backward(mcache, grad_protected, params=False)


def pooling_weights(aggregator_cache: tuple) -> Array:
    """The attention-pooling weights, (batch, n_platforms), held in an
    ``Aggregator.forward`` cache."""
    return aggregator_cache[1][3]
