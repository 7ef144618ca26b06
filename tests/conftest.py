import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import strategies as st

from fairvfl.checkpoint import MAGIC
from fairvfl.config import ExperimentConfig
from fairvfl.data import SyntheticSpec, generate_synthetic, iterate_batches, synthetic_partition
from fairvfl.models import RepWidths
from fairvfl.protocol import Federation
from reference_round import ReferenceRound


# arbitrary JSON values, for fuzz tests that put them in place of a field of
# a checkpoint header or a transcript record
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)


def relative_error(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic).ravel()
    numeric = np.asarray(numeric).ravel()
    return float(np.max(np.abs(analytic - numeric) / (np.abs(numeric) + floor)))


# Flat views of a list of parameter blocks, for the gradient checks: weights
# to and from one vector, the gradients as one vector, and zeroing them.
def pack_blocks(blocks):
    parts = []
    for blk in blocks:
        parts.append(blk.w.ravel())
        if blk.b is not None:
            parts.append(blk.b.ravel())
    return np.concatenate(parts) if parts else np.zeros(0)


def unpack_blocks(vec, blocks):
    off = 0
    for blk in blocks:
        n = blk.w.size
        blk.w[...] = vec[off:off + n].reshape(blk.w.shape)
        off += n
        if blk.b is not None:
            n = blk.b.size
            blk.b[...] = vec[off:off + n]
            off += n


def pack_grads(blocks):
    parts = []
    for blk in blocks:
        parts.append(blk.gw.ravel())
        if blk.gb is not None:
            parts.append(blk.gb.ravel())
    return np.concatenate(parts) if parts else np.zeros(0)


def zero_grads(blocks):
    for blk in blocks:
        blk.gw[...] = 0.0
        if blk.gb is not None:
            blk.gb[...] = 0.0


def split_checkpoint(raw: bytes) -> tuple[dict, bytes]:
    """(header, body) of a checkpoint file's bytes."""
    (head_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    start = len(MAGIC) + 4
    return json.loads(raw[start:start + head_len]), raw[start + head_len:]


def join_checkpoint(header: dict, body: bytes) -> bytes:
    head = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<I", len(head)) + head + body


def duplicate_last_block(raw: bytes, fill: float) -> bytes:
    """A checkpoint's bytes with its last manifest entry named a second time
    and that block's bytes, filled with ``fill``, appended: the body length
    still matches the manifest."""
    header, body = split_checkpoint(raw)
    entry = header["blocks"][-1]
    header["blocks"].append(dict(entry))
    n = math.prod(entry["w_shape"]) + (math.prod(entry["b_shape"]) if entry["b_shape"] else 0)
    return join_checkpoint(header, body + np.full(n, fill, dtype="<f8").tobytes())


def poison_block(raw: bytes, index: int, value: float = float("nan")) -> tuple[bytes, str]:
    """A checkpoint's bytes with the first weight of manifest block ``index``
    set to ``value``, and that block's name."""
    header, body = split_checkpoint(raw)
    off = 8 * sum(math.prod(e["w_shape"]) + math.prod(e["b_shape"] or [0])
                  for e in header["blocks"][:index])
    buf = bytearray(body)
    buf[off:off + 8] = np.array([value], dtype="<f8").tobytes()
    return join_checkpoint(header, bytes(buf)), header["blocks"][index]["name"]


def small_widths(feature="attr", h=8):
    return RepWidths(rep=16, protected={feature: h}, emb_dim=4, encoder_hidden=8,
                     attn_heads=2, pool_hidden=6, head_hidden=8, mapper_hidden=8,
                     cdisc_hidden=8, bdisc_hidden=8)


@pytest.fixture(scope="session")
def tiny_dataset():
    spec = SyntheticSpec(n_samples=300, n_platforms=2, seed=5)
    return generate_synthetic(spec), synthetic_partition(spec)


def make_config(*, lam=2.0, gamma=0.25, seed=11, mode="fairvfl", ldp=None, widths=None,
                top_pool=5, lr=1e-3):
    """A small run config with the same weights for every feature ``widths``
    declares."""
    widths = widths or small_widths()
    features = list(widths.protected)
    return ExperimentConfig(
        mode=mode,
        widths=dataclasses.asdict(widths),
        lam={f: lam for f in features},
        gamma={f: gamma for f in features},
        ldp=dataclasses.asdict(ldp) if ldp else {},
        optim={"lr": lr},
        top_pool=top_pool,
        seed=seed,
    )


def make_federation(ds, pa, *, payload_digests=True, **kwargs):
    return Federation(make_config(**kwargs), ds, pa, payload_digests=payload_digests)


def reference_twins(ds, pa, **kwargs):
    """A federation and a ``ReferenceRound`` built from one small config."""
    cfg = make_config(**kwargs)
    return Federation(cfg, ds, pa), ReferenceRound(cfg, ds, pa)


@pytest.fixture()
def tiny_federation(tiny_dataset):
    ds, pa = tiny_dataset
    return ds, pa, make_federation(ds, pa)


def train_batches(ds, batch_size=16, seed=3):
    return iterate_batches(ds, "train", batch_size, seed)
