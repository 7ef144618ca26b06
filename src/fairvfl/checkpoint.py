"""Binary checkpoint format: a JSON header (rep widths + block manifest)
followed by the raw little-endian float64 buffers, in manifest order.
Round-trips are bitwise exact.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .models import ModelBundle

MAGIC = b"FVFLCKPT"
VERSION = 1


def _le_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(bundle: ModelBundle, path: str | Path) -> None:
    blocks = bundle.named_blocks()
    manifest = []
    for blk in blocks:
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
        for blk in blocks:
            fh.write(_le_bytes(blk.w))
            if blk.b is not None:
                fh.write(_le_bytes(blk.b))


def _take(raw: bytes, off: int, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """The float64 array of ``shape`` at ``off`` and the offset after it."""
    n = math.prod(shape)
    if min(shape, default=0) < 0 or off + 8 * n > len(raw):
        raise ValueError("truncated body")
    arr = np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(shape)
    return arr.astype(np.float64), off + 8 * n


def read_checkpoint(path: str | Path) -> tuple[dict, dict[str, tuple[np.ndarray, np.ndarray | None]]]:
    """Returns (header, {block name: (weights, bias-or-None)})."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    return parse_checkpoint(raw, path)


def parse_checkpoint(raw: bytes, path: str | Path = "checkpoint") -> tuple[dict, dict]:
    """``read_checkpoint`` on the file's bytes; any malformed or truncated
    input raises ``CheckpointError`` naming ``path``."""
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
        int(header["rep_width"])
        for entry in header["blocks"]:
            w, off = _take(raw, off, tuple(int(d) for d in entry["w_shape"]))
            b = None
            if entry["b_shape"]:
                b, off = _take(raw, off, tuple(int(d) for d in entry["b_shape"]))
            params[str(entry["name"])] = (w, b)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc!r}") from exc
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes")
    return header, params


def load_checkpoint(bundle: ModelBundle, path: str | Path) -> None:
    """Loads parameters into an existing bundle; shapes must match exactly."""
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
        if w.shape != blk.w.shape or (b is None) != (blk.b is None) or \
                (b is not None and b.shape != blk.b.shape):
            raise CheckpointError(f"shape mismatch for block {name}")
        blk.w[...] = w
        if b is not None:
            blk.b[...] = b

