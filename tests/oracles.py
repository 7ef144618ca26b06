"""Reference implementations the tests check the package against: the
central-difference gradient every analytic backward is checked against, the
cross-entropy gradient alone, per-row negative sampling, the contrastive loss
value, the adversarial gradient on the unified rep, the aggregator's pooling
weights, and the whole-file transcript audit. The package itself never calls
them. The whole training round has its reference apart, with the sign ledger
that checks its updates: ``ReferenceRound`` in tests/reference_round.py."""

from typing import Callable

import numpy as np

from fairvfl.adversarial import _contrastive_forward, bias_loss_and_grad_frozen
from fairvfl.errors import ConfigError, FairVflError
from fairvfl.models import BiasDiscriminator, ContrastiveDiscriminator, Mapper
from fairvfl.nn import Array, pairwise_contrastive_loss
from fairvfl.protocol import Transcript, audit_transcript
from fairvfl.protocol.audit import per_round_fairness_cost
from fairvfl.runner import AuditReport, audit_policy_from_config


class OracleError(FairVflError):
    """Finite-difference oracle evaluated a non-finite objective."""


def finite_difference_gradient(f: Callable[[Array], float], x: Array,
                               h: float = 1e-5) -> Array:
    """Central-difference gradient estimate of a scalar function."""
    if h <= 0:
        raise ConfigError(f"step size must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        f_plus = f(x)
        flat[k] = orig - h
        f_minus = f(x)
        flat[k] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise OracleError(f"objective non-finite near coordinate {k}")
        gflat[k] = (f_plus - f_minus) / (2.0 * h)
    return grad


def softmax_cross_entropy_grad(logits: Array, targets: Array) -> Array:
    """The gradient ``nn.softmax_cross_entropy`` returns for (n, c) logits
    and (n,) in-range targets, computed without the loss, with the same float
    operations, so bit for bit the same. It checks nothing."""
    n = logits.shape[0]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    grad = e / e.sum(axis=1, keepdims=True)
    grad[np.arange(n), targets] -= 1.0
    return grad / n


def top_pool_indices(relevance: Array, query: int, top_pool: int) -> Array:
    """Indices of the top candidates by relevance, self masked, ties broken by
    ascending sample index."""
    r = relevance.astype(np.float64, copy=True)
    r[query] = -np.inf
    order = np.argsort(-r, kind="stable")
    return order[: min(top_pool, r.shape[0] - 1)]


def rank_and_select_negative(protected: Array, top_pool: int, rng: np.random.Generator,
                             query: int) -> int:
    """Pick one negative for the query row, uniformly from its top pool: the
    per-row reference for ``select_negatives``."""
    relevance = protected @ protected[query]
    pool = top_pool_indices(relevance, query, top_pool)
    return int(pool[rng.integers(pool.shape[0])])


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


def whole_file_audit(transcript_path, cfg) -> AuditReport:
    """``fairvfl audit``'s report from the whole file in memory: the
    transcript read, audited and its fairness traffic counted, the reference
    for the streamed ``runner.cmd_audit``."""
    cfg.validate()
    transcript = Transcript.read(transcript_path)
    policy = audit_policy_from_config(cfg)
    violations = audit_transcript(transcript, policy)
    traffic = per_round_fairness_cost(transcript)
    return AuditReport(violations, traffic, len(transcript))
