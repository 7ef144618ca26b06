"""Digests: BLAKE2b-64 for payloads, FNV-1a-64 for names and configs.

Payload digests (``digest_array``, ``digest_bytes``) are stdlib
``hashlib.blake2b(digest_size=8)`` over the little-endian, C-contiguous
payload bytes, read as a big-endian int, so a transcript's ``payload_digest``
hex equals ``hashlib``'s ``hexdigest()`` of the same bytes.

``digest_text`` stays pure-Python FNV-1a: it seeds every named RNG stream
(``nn.rng_for``) and the config fingerprint, so changing it would reseed
every run. Its inputs are short strings.
"""

from __future__ import annotations

import hashlib

import numpy as np

# read by environment reports; the compiled FNV kernel no longer exists
HAVE_COMPILED_FNV = False

FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data):
    """64-bit FNV-1a over ``data`` (bytes-like)."""
    h = FNV64_OFFSET
    prime = _FNV64_PRIME
    for b in bytes(data):
        h = ((h ^ b) * prime) & _MASK64
    return h


def digest_bytes(data) -> int:
    """BLAKE2b-64 of a bytes-like object (any C-contiguous buffer)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def digest_array(arr: np.ndarray) -> int:
    """Digest of an array's little-endian buffer, independent of host order
    and memory layout; a C-contiguous little-endian array is hashed in place."""
    arr = np.asarray(arr)
    return digest_bytes(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))


def digest_text(text: str) -> int:
    return fnv1a64(text.encode("utf-8"))
