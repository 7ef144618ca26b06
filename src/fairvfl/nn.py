"""Dense neural-network numerics.

Everything runs in float64 with explicit forward caches and hand-written
backward passes; there is no autodiff tape. Layers accumulate parameter
gradients additively, so a caller combining several loss terms zeroes the
accumulators at the step boundaries it owns.

``finite_difference_gradient`` is the independent oracle the test suite
checks every analytic backward against.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, LabelError, OracleError
from .digest import digest_text

Array = np.ndarray


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Named RNG stream: identical (seed, name) pairs yield identical streams."""
    return np.random.default_rng(np.random.SeedSequence([seed, digest_text(name)]))


# ---------------------------------------------------------------------------
# Parameters and optimizer
# ---------------------------------------------------------------------------


class ParamBlock:
    """A weight matrix plus optional bias vector with matching grad buffers."""

    __slots__ = ("name", "w", "b", "gw", "gb")

    def __init__(self, name: str, w: Array, b: Array | None = None):
        self.name = name
        self.w = np.asarray(w, dtype=np.float64)
        self.b = None if b is None else np.asarray(b, dtype=np.float64)
        self.gw = np.zeros_like(self.w)
        self.gb = None if self.b is None else np.zeros_like(self.b)

    def zero_grad(self) -> None:
        self.gw[...] = 0.0
        if self.gb is not None:
            self.gb[...] = 0.0

    @property
    def size(self) -> int:
        return self.w.size + (0 if self.b is None else self.b.size)


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> Array:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def make_linear_block(name: str, fan_in: int, fan_out: int, seed: int, bias: bool = True) -> ParamBlock:
    w = glorot_uniform(fan_in, fan_out, rng_for(seed, f"init/{name}"))
    b = np.zeros(fan_out) if bias else None
    return ParamBlock(name, w, b)


class AdamState:
    """Bias-corrected Adam moments for one ParamBlock."""

    __slots__ = ("mw", "vw", "mb", "vb", "t", "lr", "beta1", "beta2", "eps")

    def __init__(self, block: ParamBlock, lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.mw = np.zeros_like(block.w)
        self.vw = np.zeros_like(block.w)
        self.mb = None if block.b is None else np.zeros_like(block.b)
        self.vb = None if block.b is None else np.zeros_like(block.b)
        self.t = 0
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps


def adam_update(block: ParamBlock, state: AdamState) -> None:
    """One Adam step from the block's current gradient accumulators.

    Leaves the accumulators untouched; zeroing is the caller's job.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t

    state.mw *= b1
    state.mw += (1.0 - b1) * block.gw
    state.vw *= b2
    state.vw += (1.0 - b2) * np.square(block.gw)
    block.w -= state.lr * (state.mw / c1) / (np.sqrt(state.vw / c2) + state.eps)

    if block.b is not None:
        state.mb *= b1
        state.mb += (1.0 - b1) * block.gb
        state.vb *= b2
        state.vb += (1.0 - b2) * np.square(block.gb)
        block.b -= state.lr * (state.mb / c1) / (np.sqrt(state.vb / c2) + state.eps)


class Adam:
    """Adam over a fixed set of blocks, one state per block."""

    def __init__(self, blocks: Sequence[ParamBlock], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.blocks = list(blocks)
        self.states = [AdamState(b, lr, beta1, beta2, eps) for b in self.blocks]

    def step(self) -> None:
        for block, state in zip(self.blocks, self.states):
            adam_update(block, state)

    def zero_grad(self) -> None:
        for block in self.blocks:
            block.zero_grad()


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class Linear:
    """y = x @ W + b with cached input for the backward pass."""

    def __init__(self, name: str, fan_in: int, fan_out: int, seed: int, bias: bool = True):
        self.block = make_linear_block(name, fan_in, fan_out, seed, bias)

    def forward(self, x: Array) -> tuple[Array, Array]:
        if x.ndim != 2 or x.shape[1] != self.block.w.shape[0]:
            raise DimensionError(
                f"{self.block.name}: input shape {x.shape} incompatible with "
                f"weights {self.block.w.shape}"
            )
        y = x @ self.block.w
        if self.block.b is not None:
            y = y + self.block.b
        return y, x

    def backward(self, cache: Array, gy: Array) -> Array:
        x = cache
        self.block.gw += x.T @ gy
        if self.block.gb is not None:
            self.block.gb += gy.sum(axis=0)
        return gy @ self.block.w.T

    def blocks(self) -> list[ParamBlock]:
        return [self.block]


class Embedding:
    """Row lookup table for one categorical field."""

    def __init__(self, name: str, vocab_size: int, dim: int, seed: int):
        w = glorot_uniform(vocab_size, dim, rng_for(seed, f"init/{name}"))
        self.block = ParamBlock(name, w)

    def forward(self, idx: Array) -> tuple[Array, Array]:
        if idx.min(initial=0) < 0 or idx.max(initial=-1) >= self.block.w.shape[0]:
            raise LabelError(f"{self.block.name}: index outside vocabulary of "
                             f"size {self.block.w.shape[0]}")
        return self.block.w[idx], idx

    def backward(self, cache: Array, gy: Array) -> None:
        np.add.at(self.block.gw, cache, gy)

    def blocks(self) -> list[ParamBlock]:
        return [self.block]


def relu(x: Array) -> Array:
    return np.maximum(x, 0.0)


def relu_backward(x: Array, gy: Array) -> Array:
    return gy * (x > 0.0)


def dropout_apply(x: Array, p_drop: float, rng: np.random.Generator | None,
                  training: bool) -> tuple[Array, Array | None]:
    """Inverted dropout. Returns (output, mask); mask is None on the identity path."""
    if not 0.0 <= p_drop < 1.0:
        raise ConfigError(f"drop probability must be in [0, 1), got {p_drop}")
    if not training or p_drop == 0.0:
        return x, None
    keep = 1.0 - p_drop
    mask = (rng.random(x.shape) >= p_drop) / keep
    return x * mask, mask


def dropout_backward(mask: Array | None, gy: Array) -> Array:
    return gy if mask is None else gy * mask


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def softmax(z: Array) -> Array:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: Array, targets: Array) -> tuple[float, Array]:
    """Mean negative log-likelihood and its gradient w.r.t. the logits."""
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise DimensionError(
            f"logits {logits.shape} vs targets {targets.shape}: need (n, c) and (n,)"
        )
    if targets.min(initial=0) < 0 or targets.max(initial=-1) >= logits.shape[1]:
        raise LabelError(
            f"target class outside [0, {logits.shape[1]}): "
            f"min={targets.min()}, max={targets.max()}"
        )
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(n), targets]))
    grad = softmax(logits)
    grad[np.arange(n), targets] -= 1.0
    return loss, grad / n


def softplus(z: Array) -> Array:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid(z: Array) -> Array:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def pairwise_contrastive_loss(pos_scores: Array, neg_scores: Array) -> tuple[float, Array, Array]:
    """Mean of -log[exp(p) / (exp(p) + exp(q))] over (p, q) score pairs.

    Returns the loss and its gradients w.r.t. the positive and negative scores.
    """
    if pos_scores.shape != neg_scores.shape:
        raise DimensionError(
            f"score shapes differ: {pos_scores.shape} vs {neg_scores.shape}"
        )
    n = pos_scores.shape[0]
    delta = neg_scores - pos_scores
    loss = float(np.mean(softplus(delta)))
    g = sigmoid(delta) / n
    return loss, -g, g


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


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


def pack_blocks(blocks: Iterable[ParamBlock]) -> Array:
    parts = []
    for blk in blocks:
        parts.append(blk.w.ravel())
        if blk.b is not None:
            parts.append(blk.b.ravel())
    return np.concatenate(parts) if parts else np.zeros(0)


def unpack_blocks(vec: Array, blocks: Iterable[ParamBlock]) -> None:
    off = 0
    for blk in blocks:
        n = blk.w.size
        blk.w[...] = vec[off:off + n].reshape(blk.w.shape)
        off += n
        if blk.b is not None:
            n = blk.b.size
            blk.b[...] = vec[off:off + n]
            off += n


def pack_grads(blocks: Iterable[ParamBlock]) -> Array:
    parts = []
    for blk in blocks:
        parts.append(blk.gw.ravel())
        if blk.gb is not None:
            parts.append(blk.gb.ravel())
    return np.concatenate(parts) if parts else np.zeros(0)
