"""Binary checkpoint format: a JSON header (rep widths + block manifest)
followed by the raw little-endian float64 buffers, in manifest order.
Round-trips are bitwise exact. A NaN or an infinity in a block stops
``save_checkpoint`` before it opens the file, and ``load_checkpoint``
rejects a file with a non-finite block before it loads anything.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import CheckpointError, NumericError

if TYPE_CHECKING:  # models imports this module to build a bundle from a file
    from .models import ModelBundle

MAGIC = b"FVFLCKPT"
VERSION = 1


def _finite(w: np.ndarray, b: np.ndarray | None) -> bool:
    return bool(np.isfinite(w).all() and (b is None or np.isfinite(b).all()))


def save_checkpoint(bundle: ModelBundle, path: str | Path) -> None:
    manifest = []
    for blk in bundle.named_blocks():
        if not _finite(blk.w, blk.b):
            raise NumericError(f"{path}: block {blk.name} holds a non-finite weight; "
                               "no checkpoint written")
        manifest.append({
            "name": blk.name,
            "w_shape": list(blk.w.shape),
            "b_shape": [] if blk.b is None else list(blk.b.shape),
        })
    header = {
        "version": VERSION,
        "rep_width": bundle.widths.rep,
        "protected_widths": dict(bundle.widths.protected),
        "blocks": manifest,
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        # each group's store is its blocks' w then b, in manifest order; on a
        # little-endian host the array written is the store itself, no copy
        for opt in bundle.optim.values():
            fh.write(np.ascontiguousarray(opt.params, dtype="<f8"))


def _take(raw: bytes, off: int, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """The float64 array of ``shape`` at ``off`` and the offset after it: a
    read-only view of ``raw`` where float64 is little-endian, else a copy."""
    n = math.prod(shape)
    if min(shape, default=0) < 0 or off + 8 * n > len(raw):
        raise ValueError("truncated body")
    arr = np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(shape)
    return arr.astype(np.float64, copy=False), off + 8 * n


def read_checkpoint(path: str | Path) -> tuple[dict, dict[str, tuple[np.ndarray, np.ndarray | None]]]:
    """Returns (header, {block name: (weights, bias-or-None)}); where float64
    is little-endian, the arrays are read-only views of the file's bytes."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    return parse_checkpoint(raw, path)


def parse_checkpoint(raw: bytes, path: str | Path = "checkpoint") -> tuple[dict, dict]:
    """``read_checkpoint`` on the file's bytes; any malformed or truncated
    input, a header whose ``version`` is missing or not ``VERSION``, or a
    manifest that names a block twice raises ``CheckpointError`` naming
    ``path``."""
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    off = len(MAGIC) + 4
    if len(raw) < off:
        raise CheckpointError(f"{path}: truncated header")
    (head_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    if off + head_len > len(raw):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[off:off + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    off += head_len

    params: dict[str, tuple[np.ndarray, np.ndarray | None]] = {}
    try:
        if not isinstance(header, dict) or not isinstance(header["protected_widths"], dict):
            raise TypeError("header is not a checkpoint manifest")
        if "version" not in header:
            raise CheckpointError(f"{path}: checkpoint header has no version")
        if type(header["version"]) is not int or header["version"] != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version "
                                  f"{header['version']!r} (this reader takes {VERSION})")
        int(header["rep_width"])
        for entry in header["blocks"]:
            w, off = _take(raw, off, tuple(int(d) for d in entry["w_shape"]))
            b = None
            if entry["b_shape"]:
                b, off = _take(raw, off, tuple(int(d) for d in entry["b_shape"]))
            name = str(entry["name"])
            if name in params:
                raise CheckpointError(f"{path}: block {name!r} appears twice in the manifest")
            params[name] = (w, b)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc!r}") from exc
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes")
    return header, params


def load_checkpoint(bundle: ModelBundle, path: str | Path) -> None:
    """Loads parameters into a bundle, copying each weight once from the
    file's bytes into its store; shapes must match exactly and every weight
    must be finite, or nothing is loaded. ``ModelBundle(..., checkpoint=path)``
    calls it before any store exists, so each block keeps the file's weights
    in place of its draw."""
    header, params = read_checkpoint(path)
    if header["rep_width"] != bundle.widths.rep:
        raise CheckpointError(
            f"rep width mismatch: checkpoint {header['rep_width']} vs bundle {bundle.widths.rep}"
        )
    if header["protected_widths"] != {k: int(v) for k, v in bundle.widths.protected.items()}:
        raise CheckpointError("protected width mismatch between checkpoint and bundle")
    blocks = {blk.name: blk for blk in bundle.named_blocks()}
    if set(blocks) != set(params):
        missing = set(blocks) ^ set(params)
        raise CheckpointError(f"block set mismatch: {sorted(missing)[:5]}")
    for name, blk in blocks.items():
        w, b = params[name]
        w_shape, b_shape = blk.shapes()
        if w.shape != w_shape or (b is None) != (b_shape is None) or \
                (b is not None and b.shape != b_shape):
            raise CheckpointError(f"shape mismatch for block {name}")
        if not _finite(w, b):
            raise CheckpointError(f"{path}: block {name} holds a non-finite weight")
    for name, blk in blocks.items():
        blk.load(*params[name])
