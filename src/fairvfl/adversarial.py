"""Fairness and privacy learning machinery.

Four games run per training round and per sensitive feature, in this order:

1. the contrastive discriminator descends the preimage-classification loss
   with all representations fixed;
2. the mapper ascends the same loss (recomputed under the just-updated,
   now-frozen discriminator), scaled by the contrastive weight;
3. the bias discriminator descends its label loss, and the mapper descends
   the same loss through the returned protected-rep gradient;
4. with discriminator and mapper frozen, the label loss is recomputed and
   its gradient on the unified rep is returned for the overall assembly
   (task gradient minus the weighted adversarial gradients).

Contrastive gradients never reach the unified rep: they stop at the mapper.
Every step's one parameter backward sets its group's gradient, and frozen
passes compute no parameter gradients at all (the contract in
``fairvfl.nn``); a step updates a component through the ``opt`` it carries.
Each component steps right after its only parameter backward, so a bundle's
components can share one gradient buffer.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ProtocolError
from .models import BiasDiscriminator, ContrastiveDiscriminator, Mapper
from .nn import Array, pairwise_contrastive_loss, softmax_cross_entropy


# ---------------------------------------------------------------------------
# Negative sampling
# ---------------------------------------------------------------------------


def _top_pools(neg: Array, k: int) -> Array:
    """Per row, the first ``k`` columns of a stable argsort of ``neg``: the
    ``k`` smallest entries, ties broken by ascending column.

    Below ``k < n/8`` no row is sorted. If every row holds at least ``k``
    entries equal to its minimum (collapsed representations), ``k``
    first-True scans find the first ``k`` of them. Otherwise a partition
    finds each row's ``k``-th smallest value; the pool is the entries up to
    it, cut to ``k`` in column order where ties run past it, and one stable
    sort of the (n, k) pool values orders each row by (value, column):
    O(n^2) in place of O(n^2 log n). Rows whose pool comes out short (NaNs
    fill it) take the full sort."""
    n = neg.shape[0]
    if 8 * k < n:
        if np.count_nonzero(neg[0] == neg[0].min()) >= k:  # else row 0 needs the partition
            rows = np.arange(n)
            at_min = neg == neg.min(axis=1, keepdims=True)
            pools, flat = np.empty((n, k), dtype=np.intp), np.ones(n, dtype=bool)
            for i in range(k):
                pools[:, i] = at_min.argmax(axis=1)
                flat &= at_min[rows, pools[:, i]]  # False once a row runs out
                at_min[rows, pools[:, i]] = False
            if flat.all():
                return pools
        kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
        pool = neg <= kth
        count = np.count_nonzero(pool, axis=1)
        tied = np.flatnonzero(count > k)  # ties past the pool: keep the first in column order
        if tied.size:
            at = (neg == kth)[tied]
            need = k - count[tied] + np.count_nonzero(at, axis=1)
            pool[tied] ^= at & (np.cumsum(at, axis=1, dtype=np.int32) > need[:, None])
        if np.all(count >= k):
            cols = (np.flatnonzero(pool) % n).reshape(n, k)  # row-major: ascending columns
            order = np.argsort(neg[pool].reshape(n, k), axis=1, kind="stable")
            return np.take_along_axis(cols, order, axis=1)
    return np.argsort(neg, axis=1, kind="stable")[:, :k]


def select_negatives(protected: Array, top_pool: int, rng: np.random.Generator) -> Array:
    """Negative index per row of one feature's (E, H_i) protected reps,
    drawn in row order from ``rng``.

    Row j picks uniformly from its top pool: the ``min(top_pool, n - 1)``
    other rows of highest relevance (protected-rep dot product) to it, ties
    broken by ascending row index. Every row's pool of the self-masked relevance matrix
    is ranked at once, and one vector draw takes the same values, leaving the
    generator in the same state, as one scalar draw per row."""
    n = protected.shape[0]
    if n < 2:
        raise ProtocolError("contrastive learning requires >=2 samples")
    if top_pool < 1:
        raise ProtocolError(f"top pool size must be >= 1, got {top_pool}")
    relevance = protected @ protected.T
    relevance[np.diag_indices(n)] = -np.inf
    pools = _top_pools(np.negative(relevance, out=relevance), min(top_pool, n - 1))
    return pools[np.arange(n), rng.integers(pools.shape[1], size=n)]


# ---------------------------------------------------------------------------
# Contrastive game (discriminator step, then mapper ascent)
# ---------------------------------------------------------------------------


def _contrastive_forward(disc: ContrastiveDiscriminator, protected: Array,
                         unified: Array, neg_idx: Array):
    """One stacked forward over the positive and negative pairs."""
    both_a = np.concatenate([protected, protected], axis=0)
    both_s = np.concatenate([unified, unified[neg_idx]], axis=0)
    scores, cache = disc.forward(both_a, both_s)
    n = protected.shape[0]
    return scores[:n], scores[n:], cache


def contrastive_discriminator_step(disc: ContrastiveDiscriminator, protected: Array,
                                   unified: Array, neg_idx: Array) -> float:
    """One descent step of ``disc.opt``; representations receive nothing."""
    pos, neg, cache = _contrastive_forward(disc, protected, unified, neg_idx)
    loss, gpos, gneg = pairwise_contrastive_loss(pos, neg)
    disc.backward(cache, np.concatenate([gpos, gneg]), inputs=False)
    disc.opt.step()
    return loss


def contrastive_adversarial_grad(disc: ContrastiveDiscriminator, protected: Array,
                                 unified: Array, neg_idx: Array
                                 ) -> tuple[float, Array]:
    """Loss value and its gradient on the protected reps under the frozen,
    just-updated discriminator. The unified reps stay fixed; the caller turns
    the returned gradient into the mapper's ascent contribution."""
    pos, neg, cache = _contrastive_forward(disc, protected, unified, neg_idx)
    loss, gpos, gneg = pairwise_contrastive_loss(pos, neg)
    ga_both, _ = disc.backward(cache, np.concatenate([gpos, gneg]), params=False)
    n = protected.shape[0]
    return loss, ga_both[:n] + ga_both[n:]


def cal_mapper_gradient(mapper: Mapper, mapper_cache, grad_protected: Array,
                        gamma: float) -> None:
    """Sets the mapper's parameter gradients to its ascent contribution
    (-gamma times the contrastive-adversarial gradient)."""
    mapper.backward(mapper_cache, grad_protected * (-gamma), inputs=False)


# ---------------------------------------------------------------------------
# Bias-discrimination game
# ---------------------------------------------------------------------------


def bias_discriminator_step(disc: BiasDiscriminator, protected: Array,
                            labels: Array) -> tuple[float, Array]:
    """One descent step of ``disc.opt`` from a single forward pass; returns
    the loss and its gradient on the protected reps (both computed at the
    pre-update parameters)."""
    logits, cache = disc.forward(protected)
    loss, glogits = softmax_cross_entropy(logits, labels)
    grad_protected = disc.backward(cache, glogits)
    disc.opt.step()
    return loss, grad_protected


def bias_loss_and_grad_frozen(disc: BiasDiscriminator, protected: Array,
                              labels: Array) -> tuple[float, Array]:
    """Label loss and its gradient on the protected reps with the
    discriminator frozen (no parameter gradients computed)."""
    logits, cache = disc.forward(protected)
    loss, glogits = softmax_cross_entropy(logits, labels)
    return loss, disc.backward(cache, glogits, params=False)


def combine_overall_grad(task_grad: Array, adv_grads: dict[str, Array],
                         lam: dict[str, float]) -> Array:
    """Overall gradient on the unified rep: the task gradient minus each
    adversarial gradient weighted by its feature's ``lam``. Contrastive terms
    contribute nothing here (they stop at the mappers)."""
    missing = set(lam) - set(adv_grads)
    if missing:
        raise ProtocolError(f"missing adversarial gradient for {sorted(missing)}")
    out = task_grad.copy()
    for feature, weight in lam.items():
        g = adv_grads[feature]
        if g.shape != task_grad.shape:
            raise DimensionError(
                f"adversarial gradient for {feature} has shape {g.shape}, "
                f"expected {task_grad.shape}"
            )
        if weight != 0.0:
            out -= weight * g
    return out
