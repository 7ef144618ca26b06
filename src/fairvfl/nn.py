"""Dense neural-network numerics.

Everything runs in float64 with explicit forward caches and hand-written
backward passes; there is no autodiff tape.

A parameter backward sets its group's gradient, writing over whatever the
store held; ``Adam.step`` reads it and leaves it as it was. Every update of
a group comes from one parameter backward, so nothing ever zeroes a store,
and a gradient is live only from that backward to its step. Each component
steps right after its only parameter backward, so no two groups' gradients
are live at once, and the optimizers of a ``models.ModelBundle``'s
components share one gradient buffer, each store a prefix of it. Between
steps a store holds whatever the last backward wrote into the buffer, so a
model's training state is each group's ``params``, ``m``, ``v`` and ``t``
alone.

A backward pass computes only what its caller reads: ``params=False`` skips
the parameter gradients, ``inputs=False`` the input gradient (both default
to True). Passes through a frozen group (the contrastive-adversarial and
adversarial passes, the server's mapper pass for the adversarial gradient)
ask for input gradients only, so they never touch a store. Steps whose input
gradient nobody reads (the discriminator and attacker steps, the mapper's
ascent and descent) ask for parameter gradients only.

An ``Adam`` owns the storage of the blocks it optimizes: one flat buffer each
for the group's weights and two moments, and one for its gradients unless it
is handed a buffer to share. Each block's ``w``, ``b``, ``gw`` and ``gb`` are
views into those buffers, so a step is one pass over the group. An ``Adam``
draws its group's initial weights straight into its store, and a block that
no ``Adam`` adopts draws them on first read, so no weight is drawn into a
temporary and copied. A deferred block loaded before any ``Adam`` adopts it
(``ParamBlock.load``, as a ``models.ModelBundle`` built from a checkpoint
does) draws nothing: the ``Adam`` copies the loaded weights into its store.
Building a second ``Adam`` over the same blocks moves them into the new
one's buffers. A model component's ``Adam`` is the ``opt`` it carries:
every update of it, the discriminator steps included, steps that one.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, LabelError, NumericError
from .digest import digest_text

Array = np.ndarray


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Named RNG stream: identical (seed, name) pairs yield identical streams."""
    return np.random.default_rng(np.random.SeedSequence([seed, digest_text(name)]))


# ---------------------------------------------------------------------------
# Parameters and optimizer
# ---------------------------------------------------------------------------


class ParamBlock:
    """A weight matrix plus optional bias vector with matching grad buffers.

    ``ParamBlock.glorot`` makes a deferred block: it holds no weights until
    an ``Adam`` adopts it and draws its initial weights into the store, until
    it is read first and draws them into arrays of its own, or until it is
    loaded with weights in place of the draw. The grad
    buffers are allocated on first use, so a block whose storage an ``Adam``
    takes over never allocates buffers of its own."""

    __slots__ = ("name", "w", "b", "gw", "gb", "_glorot")

    def __init__(self, name: str, w: Array, b: Array | None = None):
        self.name = name
        self.w = np.asarray(w, dtype=np.float64)
        self.b = None if b is None else np.asarray(b, dtype=np.float64)
        if self.b is None:
            self.gb = None
        self._glorot = None

    @classmethod
    def glorot(cls, name: str, fan_in: int, fan_out: int, seed: int,
               bias: bool = True) -> "ParamBlock":
        """A deferred (fan_in, fan_out) block: Glorot-uniform weights from the
        ``init/{name}`` stream of ``seed`` and, if ``bias``, a zero bias."""
        blk = cls.__new__(cls)
        blk.name = name
        if not bias:
            blk.b = blk.gb = None
        blk._glorot = (fan_in, fan_out, seed, bias)
        return blk

    def shapes(self) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
        """The shapes of ``w`` and ``b`` (None without a bias), read without
        drawing a deferred block."""
        if self._glorot is not None:
            fan_in, fan_out, _, bias = self._glorot
            return (fan_in, fan_out), ((fan_out,) if bias else None)
        return self.w.shape, None if self.b is None else self.b.shape

    def place(self, w: Array, b: Array | None) -> None:
        """Rebinds the block's weights to ``w`` and ``b``, arrays of its
        shapes: a deferred block draws its initial weights into them, any
        other copies its current weights in."""
        if self._glorot is None:
            w[...] = self.w
            if b is not None:
                b[...] = self.b
        else:
            fan_in, fan_out, seed, _ = self._glorot
            glorot_uniform(fan_in, fan_out, rng_for(seed, f"init/{self.name}"), out=w)
            if b is not None:
                b.fill(0.0)
            self._glorot = None
        self.w, self.b = w, b

    def load(self, w: Array, b: Array | None) -> None:
        """Sets the block's weights to ``w`` and ``b``, arrays of its shapes:
        copied into the arrays it holds, or, in a deferred block, kept in
        place of the draw (the ``Adam`` that adopts it then copies them into
        its store), so a loaded block never draws."""
        if self._glorot is None:
            self.w[...] = w
            if b is not None:
                self.b[...] = b
        else:
            self.w, self.b, self._glorot = w, b, None

    def __getattr__(self, attr: str) -> Array:
        # reached only while a slot is still unset: the weights of a deferred
        # block that no Adam has adopted, or a grad buffer
        if attr not in ("w", "b", "gw", "gb"):
            raise AttributeError(attr)
        w_shape, b_shape = self.shapes()
        if attr in ("w", "b"):
            self.place(np.empty(w_shape), None if b_shape is None else np.empty(b_shape))
            return getattr(self, attr)
        grad = np.zeros(w_shape if attr == "gw" else b_shape)
        setattr(self, attr, grad)
        return grad


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator,
                   out: Array | None = None) -> Array:
    """Glorot-uniform (fan_in, fan_out) weights, drawn into ``out`` if given.

    Bit for bit what ``rng.uniform(-limit, limit, shape)`` gives: numpy
    computes ``low + (high - low) * u`` from the doubles ``random`` fills,
    ``high - low = 2 limit`` is exact, and the two roundings are the same."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    w = np.empty((fan_in, fan_out)) if out is None else out
    rng.random(out=w)
    w *= limit - -limit
    w += -limit
    return w


def store_size(blocks: Sequence[ParamBlock]) -> int:
    """Floats in the flat store of an ``Adam`` over ``blocks``."""
    return sum(math.prod(s) for blk in blocks for s in blk.shapes() if s is not None)


_ADAM_TILE = 32768  # elements per Adam pass: 256 KiB per float64 temporary


class Adam:
    """Adam over a fixed group of blocks, held in one flat store.

    The optimizer owns its blocks' storage. ``params`` holds every block's
    ``w`` then ``b``, in ``blocks`` order; ``grads`` is laid out alike, and
    the blocks' ``w``/``b``/``gw``/``gb`` become views into the two buffers.
    Construction draws the initial weights of deferred blocks
    (``ParamBlock.glorot``) into the store, copies in those of blocks that
    already hold weights (loaded ones included), and, unless handed
    ``grads``, starts from zero gradients; the two moment buffers come with the first step, so a model
    that is only evaluated never holds them. Building a second ``Adam`` over the same blocks moves
    them into the new store, and the first one no longer reaches them.

    ``grads``, if given, is a buffer of at least ``store_size(blocks)``
    floats whose prefix becomes the gradient store, as it is: optimizers
    that share it must each step right after their own parameter backward,
    before another writes the buffer (see the module docstring).
    """

    def __init__(self, blocks: Sequence[ParamBlock], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 grads: Array | None = None):
        self.blocks = list(blocks)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        shapes = [blk.shapes() for blk in self.blocks]
        size = store_size(self.blocks)
        self.params = np.empty(size)
        self.grads = np.zeros(size) if grads is None else grads[:size]
        self.m = self.v = None  # the first step allocates the moments
        off = 0
        for blk, (w_shape, b_shape) in zip(self.blocks, shapes):
            w, blk.gw, off = self._views(w_shape, off)
            b = blk.gb = None
            if b_shape is not None:
                b, blk.gb, off = self._views(b_shape, off)
            blk.place(w, b)

    def _views(self, shape: tuple[int, ...], off: int) -> tuple[Array, Array, int]:
        end = off + math.prod(shape)
        return (self.params[off:end].reshape(shape), self.grads[off:end].reshape(shape), end)

    def step(self) -> None:
        """One bias-corrected Adam step over the whole group:
        m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g^2;
        p -= lr (m / c1) / (sqrt(v / c2) + eps),  c_i = 1 - b_i^t.

        Every operation is elementwise, so stepping the group equals stepping
        each block alone, bit for bit. Leaves the gradients untouched.
        """
        if self.t == 0:
            self.m, self.v = np.zeros(self.params.size), np.zeros(self.params.size)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        # Tiles of the store keep the two temporaries in cache; one pass over
        # a paper-width group with full-size temporaries is ~1.5x slower.
        for lo in range(0, self.params.size, _ADAM_TILE):
            s = slice(lo, lo + _ADAM_TILE)
            g, m, v = self.grads[s], self.m[s], self.v[s]
            tmp = g * (1.0 - b1)
            m *= b1
            m += tmp
            np.square(g, out=tmp)
            tmp *= 1.0 - b2
            v *= b2
            v += tmp
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            upd = m / c1
            upd *= self.lr
            upd /= tmp
            self.params[s] -= upd


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class Linear:
    """y = x @ W + b with cached input for the backward pass."""

    def __init__(self, name: str, fan_in: int, fan_out: int, seed: int, bias: bool = True):
        self.block = ParamBlock.glorot(name, fan_in, fan_out, seed, bias)

    def forward(self, x: Array) -> tuple[Array, Array]:
        if x.ndim != 2 or x.shape[1] != self.block.w.shape[0]:
            raise DimensionError(
                f"{self.block.name}: input shape {x.shape} incompatible with "
                f"weights {self.block.w.shape}"
            )
        y = x @ self.block.w
        if self.block.b is not None:
            y += self.block.b
        return y, x

    def backward(self, cache: Array, gy: Array, params: bool = True,
                 inputs: bool = True) -> Array | None:
        """Sets the parameter gradients if ``params`` and returns the input
        gradient if ``inputs`` (else None)."""
        if params:
            np.matmul(cache.T, gy, out=self.block.gw)
            if self.block.gb is not None:
                np.sum(gy, axis=0, out=self.block.gb)
        return gy @ self.block.w.T if inputs else None

    def blocks(self) -> list[ParamBlock]:
        return [self.block]


class Embedding:
    """Row lookup table for one categorical field."""

    def __init__(self, name: str, vocab_size: int, dim: int, seed: int):
        self.block = ParamBlock.glorot(name, vocab_size, dim, seed, bias=False)

    def forward(self, idx: Array) -> tuple[Array, Array]:
        if idx.min(initial=0) < 0 or idx.max(initial=-1) >= self.block.w.shape[0]:
            raise LabelError(f"{self.block.name}: index outside vocabulary of "
                             f"size {self.block.w.shape[0]}")
        return self.block.w[idx], idx

    def backward(self, cache: Array, gy: Array) -> None:
        self.block.gw.fill(0.0)  # rows outside the batch get no gradient
        np.add.at(self.block.gw, cache, gy)

    def blocks(self) -> list[ParamBlock]:
        return [self.block]


def relu(x: Array) -> Array:
    return np.maximum(x, 0.0)


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
    """Mean negative log-likelihood of (n,) targets under (n, c) logits, and
    its gradient w.r.t. the logits."""
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
    rows = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(z[:, 0]) - shifted[rows, targets]))
    grad = e / z  # softmax(logits), from the same shift and exp as the loss
    grad[rows, targets] -= 1.0
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
    A pair whose loss is not finite raises ``NumericError`` naming its sample.
    """
    if pos_scores.shape != neg_scores.shape:
        raise DimensionError(
            f"score shapes differ: {pos_scores.shape} vs {neg_scores.shape}"
        )
    n = pos_scores.shape[0]
    delta = neg_scores - pos_scores
    per_sample = softplus(delta)
    loss = float(np.mean(per_sample))
    if not math.isfinite(loss):  # terms are >= 0 or NaN: a finite mean has all finite
        bad = np.flatnonzero(~np.isfinite(per_sample))
        if bad.size:
            raise NumericError(f"non-finite contrastive loss at sample {int(bad[0])}")
    g = sigmoid(delta) / n
    return loss, -g, g
