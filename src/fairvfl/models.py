"""Model components: local encoders, the self-attention aggregator, the task
head, per-feature mappers, and both discriminator families.

Every weight product and weight gradient goes through ``nn.Linear``. The
encoders, the task head, the mappers and both discriminators are each a
``TwoLayerMlp``: an encoder puts its embeddings in front, the encoders and
the task head apply dropout between the layers, and the rest run without.

Every component exposes ``forward(...) -> (out, cache)`` and
``backward(cache, grad_out)``; backward never mutates its cache, so a single
forward pass supports several independent backward passes (needed for the
per-loss gradient accounting). A backward sets, not adds to, the parameter
gradients of the blocks it passes through. The mappers and discriminators
also take ``params``/``inputs`` flags that skip the gradients a caller does
not read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .errors import ConfigError, DimensionError
from .nn import (
    Adam,
    Array,
    Embedding,
    Linear,
    ParamBlock,
    dropout_apply,
    dropout_backward,
    relu,
    softmax,
    store_size,
)


@dataclass
class RepWidths:
    """Representation widths plus the architecture knobs hung off them."""

    rep: int = 400
    protected: dict[str, int] = field(default_factory=lambda: {"gender": 32, "age": 64})
    emb_dim: int = 32
    encoder_hidden: int = 256
    attn_heads: int = 4
    pool_hidden: int = 200
    head_hidden: int = 128
    mapper_hidden: int = 128
    cdisc_hidden: int = 128
    bdisc_hidden: int = 64

    def validate(self) -> None:
        if self.rep < 1 or any(h < 1 for h in self.protected.values()):
            raise ConfigError("all representation widths must be >= 1")
        if self.attn_heads < 1:
            raise ConfigError(f"attn_heads must be >= 1, got {self.attn_heads}")
        if self.rep % self.attn_heads != 0:
            raise ConfigError(
                f"rep width {self.rep} not divisible by {self.attn_heads} heads"
            )


@dataclass
class PlatformSchema:
    """Feature slice owned by one insensitive platform."""

    cat_fields: list[tuple[str, int]]  # (field name, embedding rows incl. UNK)
    numeric_fields: list[str]


class TwoLayerMlp:
    """fc1 -> ReLU -> dropout -> fc2, built from two ``Linear`` layers: the one
    dense stack every component uses. With the default ``p_drop`` of 0 the
    dropout is the identity and draws no random numbers, so the mappers, the
    discriminators and the attackers stay deterministic."""

    def __init__(self, name: str, fan_in: int, hidden: int, fan_out: int, seed: int,
                 p_drop: float = 0.0):
        self.name = name
        self.p_drop = p_drop
        self.fc1 = Linear(f"{name}/fc1", fan_in, hidden, seed)
        self.fc2 = Linear(f"{name}/fc2", hidden, fan_out, seed)

    def forward(self, x: Array, training: bool = False,
                rng: np.random.Generator | None = None) -> tuple[Array, tuple]:
        h1, c1 = self.fc1.forward(x)
        a1 = relu(h1)
        d1, mask = dropout_apply(a1, self.p_drop, rng, training)
        y, c2 = self.fc2.forward(d1)
        return y, (c1, h1, mask, c2)

    def backward(self, cache: tuple, gy: Array, params: bool = True,
                 inputs: bool = True) -> Array | None:
        """Parameter gradients if ``params``; the input gradient if ``inputs``."""
        c1, h1, mask, c2 = cache
        gd1 = self.fc2.backward(c2, gy, params)
        ga1 = dropout_backward(mask, gd1)  # a fresh array: the ReLU mask goes in place
        ga1 *= h1 > 0.0
        return self.fc1.backward(c1, ga1, params, inputs)

    def blocks(self) -> list[ParamBlock]:
        return self.fc1.blocks() + self.fc2.blocks()


class LocalEncoder(TwoLayerMlp):
    """Embeds categorical fields, concatenates standardized numerics, and maps
    the result through a two-layer network to the shared rep width."""

    def __init__(self, name: str, schema: PlatformSchema, widths: RepWidths,
                 seed: int, p_drop: float = 0.2):
        in_width = widths.emb_dim * len(schema.cat_fields) + len(schema.numeric_fields)
        super().__init__(name, in_width, widths.encoder_hidden, widths.rep, seed, p_drop)
        self.schema = schema
        self.embeddings = {
            fname: Embedding(f"{name}/emb/{fname}", rows, widths.emb_dim, seed)
            for fname, rows in schema.cat_fields
        }

    def forward(self, cols: dict[str, Array], training: bool,
                rng: np.random.Generator | None) -> tuple[Array, tuple]:
        parts, emb_caches = [], []
        for fname, _ in self.schema.cat_fields:
            e, c = self.embeddings[fname].forward(np.asarray(cols[fname]))
            parts.append(e)
            emb_caches.append((fname, c))
        if self.schema.numeric_fields:
            parts.append(np.column_stack([cols[f] for f in self.schema.numeric_fields]))
        x0 = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
        y, cache = super().forward(x0, training, rng)
        return y, (emb_caches,) + cache

    def backward(self, cache: tuple, gy: Array) -> None:
        gx0 = super().backward(cache[1:], gy)
        off = 0
        for fname, c in cache[0]:
            emb = self.embeddings[fname]
            dim = emb.block.w.shape[1]
            emb.backward(c, gx0[:, off:off + dim])
            off += dim
        # numeric inputs are data, not parameters: their slice of gx0 is dropped

    def blocks(self) -> list[ParamBlock]:
        return [e.block for _, e in sorted(self.embeddings.items())] + super().blocks()


class MultiHeadSelfAttention:
    """Per-head scaled dot-product attention over the platform axis."""

    def __init__(self, name: str, dim: int, heads: int, seed: int):
        if dim % heads != 0:
            raise ConfigError(f"dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.dh = dim // heads
        self.wq, self.wk, self.wv = (Linear(f"{name}/{w}", dim, dim, seed, bias=False)
                                     for w in ("wq", "wk", "wv"))

    def _split(self, z: Array, b: int, n: int) -> Array:
        return z.reshape(b, n, self.heads, self.dh).transpose(0, 2, 1, 3)

    def forward(self, x: Array) -> tuple[Array, tuple]:
        b, n, d = x.shape
        xf = x.reshape(b * n, d)
        q, k, v = (self._split(lin.forward(xf)[0], b, n) for lin in (self.wq, self.wk, self.wv))
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(self.dh)
        attn = softmax(scores)
        out = (attn @ v).transpose(0, 2, 1, 3).reshape(b, n, d)
        return out, (x, q, k, v, attn)

    def backward(self, cache: tuple, gy: Array) -> Array:
        x, q, k, v, attn = cache
        b, n, d = x.shape
        go = gy.reshape(b, n, self.heads, self.dh).transpose(0, 2, 1, 3)
        gattn = go @ v.transpose(0, 1, 3, 2)
        gv = attn.transpose(0, 1, 3, 2) @ go
        gscores = attn * (gattn - (gattn * attn).sum(axis=-1, keepdims=True))
        gscores /= np.sqrt(self.dh)
        gq = gscores @ k
        gk = gscores.transpose(0, 1, 3, 2) @ q

        xf = x.reshape(b * n, d)
        gx = np.zeros_like(xf)
        for g, lin in ((gq, self.wq), (gk, self.wk), (gv, self.wv)):
            gx += lin.backward(xf, g.transpose(0, 2, 1, 3).reshape(b * n, d))
        return gx.reshape(b, n, d)

    def blocks(self) -> list[ParamBlock]:
        return self.wq.blocks() + self.wk.blocks() + self.wv.blocks()


class AttentionPool:
    """Additive attention pooling with a tanh projection and learned query."""

    def __init__(self, name: str, dim: int, hidden: int, seed: int):
        self.proj = Linear(f"{name}/proj", dim, hidden, seed)
        self.query = Linear(f"{name}/query", hidden, 1, seed, bias=False)

    def forward(self, x: Array) -> tuple[Array, tuple]:
        b, n, d = x.shape
        z, cproj = self.proj.forward(x.reshape(b * n, d))
        u = np.tanh(z)
        e = self.query.forward(u)[0].reshape(b, n)
        alpha = softmax(e)
        pooled = np.einsum("bn,bnd->bd", alpha, x)
        return pooled, (x, cproj, u, alpha)

    def backward(self, cache: tuple, gpooled: Array) -> Array:
        x, cproj, u, alpha = cache
        b, n, d = x.shape
        galpha = np.einsum("bd,bnd->bn", gpooled, x)
        gx = alpha[:, :, None] * gpooled[:, None, :]
        ge = alpha * (galpha - (galpha * alpha).sum(axis=1, keepdims=True))
        gu = self.query.backward(u, ge.reshape(b * n, 1))
        gz = gu * (1.0 - u * u)
        gx += self.proj.backward(cproj, gz).reshape(b, n, d)
        return gx

    def blocks(self) -> list[ParamBlock]:
        return self.proj.blocks() + self.query.blocks()


class Aggregator:
    """Self-attention over local reps followed by attention pooling."""

    name = "aggregator"

    def __init__(self, widths: RepWidths, seed: int):
        self.attn = MultiHeadSelfAttention("aggregator/attn", widths.rep, widths.attn_heads, seed)
        self.pool = AttentionPool("aggregator/pool", widths.rep, widths.pool_hidden, seed)

    def forward(self, local_reps: Array) -> tuple[Array, tuple]:
        """local_reps: (batch, n_platforms, rep) -> unified (batch, rep)."""
        ctx, c_attn = self.attn.forward(local_reps)
        unified, c_pool = self.pool.forward(ctx)
        return unified, (c_attn, c_pool)

    def backward(self, cache: tuple, gunified: Array) -> Array:
        c_attn, c_pool = cache
        gctx = self.pool.backward(c_pool, gunified)
        return self.attn.backward(c_attn, gctx)

    def blocks(self) -> list[ParamBlock]:
        return self.attn.blocks() + self.pool.blocks()


class TaskHead(TwoLayerMlp):
    """Two-layer classifier on the unified representation."""

    def __init__(self, widths: RepWidths, n_classes: int, seed: int, p_drop: float = 0.2):
        super().__init__("task_head", widths.rep, widths.head_hidden, n_classes, seed, p_drop)

    def predict(self, s: Array) -> Array:
        logits, _ = self.forward(s, training=False)
        return softmax(logits)


class Mapper(TwoLayerMlp):
    """Maps the unified rep to one feature's protected rep."""

    def __init__(self, feature: str, widths: RepWidths, seed: int):
        super().__init__(f"mapper/{feature}", widths.rep, widths.mapper_hidden,
                         widths.protected[feature], seed)


class ContrastiveDiscriminator(TwoLayerMlp):
    """Scores whether a candidate unified rep is the preimage of a protected rep."""

    def __init__(self, feature: str, widths: RepWidths, seed: int):
        super().__init__(f"cdisc/{feature}", widths.protected[feature] + widths.rep,
                         widths.cdisc_hidden, 1, seed)

    def forward(self, protected: Array, candidate: Array) -> tuple[Array, tuple]:
        if protected.shape[0] != candidate.shape[0]:
            raise DimensionError(
                f"protected batch {protected.shape[0]} != candidate batch {candidate.shape[0]}"
            )
        x = np.concatenate([protected, candidate], axis=1)
        scores, cache = super().forward(x)
        return scores[:, 0], (cache, protected.shape[1])

    def backward(self, cache: tuple, gscores: Array, params: bool = True,
                 inputs: bool = True) -> tuple[Array, Array] | None:
        """Parameter gradients if ``params``; the (protected, candidate)
        gradients if ``inputs``."""
        mlp_cache, h = cache
        gx = super().backward(mlp_cache, gscores[:, None], params, inputs)
        return (gx[:, :h], gx[:, h:]) if inputs else None


class BiasDiscriminator(TwoLayerMlp):
    """Predicts a sensitive feature's class from its protected rep."""

    def __init__(self, feature: str, n_classes: int, widths: RepWidths, seed: int):
        super().__init__(f"bdisc/{feature}", widths.protected[feature],
                         widths.bdisc_hidden, n_classes, seed)


@dataclass
class OptimParams:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self) -> None:
        if not self.lr > 0.0:
            raise ConfigError(f"optim.lr must be > 0, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"optim.{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.eps > 0.0:
            raise ConfigError(f"optim.eps must be > 0, got {self.eps}")


class ModelBundle:
    """All trainable ``components``, in checkpoint order: the encoders, the
    aggregator, the task head, then each feature's mapper, contrastive and
    bias discriminator. Each carries its ``name``, which prefixes its blocks'
    names, and its ``opt``, an ``Adam`` that holds its parameters in one flat
    store.

    The optimizers share one zeroed gradient buffer, as long as the largest
    store, and each ``grads`` is a prefix of it. That is safe because each
    component steps right after its only parameter backward (see ``nn``).
    So a trained bundle's state is each optimizer's ``params``, ``m``, ``v``
    and ``t`` alone; its gradient stores hold whatever the last backward left.

    Built with a ``checkpoint`` path, the bundle takes its weights from that
    file and draws none: ``load_checkpoint`` loads every deferred block before
    any optimizer exists, and each optimizer copies the loaded weights into
    its store. A checkpoint that does not fit raises ``CheckpointError`` from
    the constructor, so no bundle with unfilled stores is ever returned."""

    def __init__(self, schemas: list[PlatformSchema], widths: RepWidths,
                 task_classes: int, sensitive_classes: dict[str, int],
                 seed: int, optim: OptimParams | None = None, p_drop: float = 0.2,
                 checkpoint: str | Path | None = None):
        widths.validate()
        if len(schemas) < 1 or len(sensitive_classes) < 1:
            raise ConfigError("need at least one insensitive platform and one sensitive feature")
        missing = set(sensitive_classes) - set(widths.protected)
        if missing:
            raise ConfigError(f"no protected width declared for {sorted(missing)}")
        optim = optim or OptimParams()
        self.widths = widths
        self.features = list(sensitive_classes)
        self.sensitive_classes = dict(sensitive_classes)

        self.encoders = [
            LocalEncoder(f"encoder/{i}", sch, widths, seed, p_drop)
            for i, sch in enumerate(schemas)
        ]
        self.aggregator = Aggregator(widths, seed)
        self.task_head = TaskHead(widths, task_classes, seed, p_drop)
        self.mappers = {f: Mapper(f, widths, seed) for f in self.features}
        self.cdiscs = {f: ContrastiveDiscriminator(f, widths, seed) for f in self.features}
        self.bdiscs = {
            f: BiasDiscriminator(f, sensitive_classes[f], widths, seed)
            for f in self.features
        }

        self.components = [*self.encoders, self.aggregator, self.task_head]
        for f in self.features:
            self.components += [self.mappers[f], self.cdiscs[f], self.bdiscs[f]]
        if checkpoint is not None:
            load_checkpoint(self, checkpoint)
        grads = np.zeros(max(store_size(c.blocks()) for c in self.components))
        for c in self.components:
            c.opt = Adam(c.blocks(), optim.lr, optim.beta1, optim.beta2, optim.eps,
                         grads=grads)

    @property
    def optim(self) -> dict[str, Adam]:
        """Each component's optimizer under its name, in ``components`` order."""
        return {c.name: c.opt for c in self.components}

    def named_blocks(self) -> list[ParamBlock]:
        """Every block, in checkpoint order: the components' blocks in
        ``components`` order, readable before the optimizers exist."""
        return [b for c in self.components for b in c.blocks()]


def forward_unified(bundle: ModelBundle, platform_cols: list[dict[str, Array]],
                    training: bool = False,
                    rngs: list[np.random.Generator] | None = None
                    ) -> tuple[Array, list]:
    """Direct (non-federated) composition: encode every slice and aggregate.

    Returns the unified reps and the caches needed to continue backward.
    """
    if len(platform_cols) != len(bundle.encoders):
        raise ConfigError(
            f"{len(platform_cols)} feature slices for {len(bundle.encoders)} encoders"
        )
    reps, caches = [], []
    for i, enc in enumerate(bundle.encoders):
        rng = rngs[i] if rngs is not None else None
        r, c = enc.forward(platform_cols[i], training, rng)
        reps.append(r)
        caches.append(c)
    stacked = np.stack(reps, axis=1)
    unified, agg_cache = bundle.aggregator.forward(stacked)
    return unified, [caches, agg_cache]
