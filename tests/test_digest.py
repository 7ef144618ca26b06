"""Digests: BLAKE2b-64 payload vectors, FNV-1a text vectors, the array
byte-order and layout contract, and the pinned config fingerprint that
guards RNG seeding."""

import hashlib

import numpy as np
import pytest

from fairvfl import digest
from fairvfl.config import preset

# canonical FNV-1a 64-bit vectors (digest_text, which seeds every RNG stream)
VECTORS = [
    (b"", 0xCBF29CE484222325),
    (b"a", 0xAF63DC4C8601EC8C),
    (b"foobar", 0x85944171F73967E8),
]

# BLAKE2b with an 8-byte digest (RFC 7693), as printed by `b2sum -l 64`
PAYLOAD_VECTORS = [
    (b"", 0xE4A6A0577479B2B4),
    (b"a", 0x40F89E395B66422F),
    (b"foobar", 0x9D212F7F254A51F9),
]


@pytest.mark.parametrize("data,expected", VECTORS)
def test_reference_vectors(data, expected):
    assert digest.digest_text(data.decode("utf-8")) == expected
    assert digest.fnv1a64(data) == expected


@pytest.mark.parametrize("data,expected", PAYLOAD_VECTORS)
def test_payload_reference_vectors(data, expected):
    assert digest.digest_bytes(data) == expected
    assert digest.digest_array(np.frombuffer(data, dtype=np.uint8)) == expected


def test_float_array_reference_vector():
    # b2sum -l 64 over the 96 bytes of float64 0..11, little-endian
    assert digest.digest_array(np.arange(12, dtype="<f8")) == 0xAF5F225AD86C91F8


def test_array_path_matches_bytes_path():
    rng = np.random.default_rng(0)
    for n in (0, 1, 7, 63, 1024, 100_000):
        buf = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        expected = int(hashlib.blake2b(buf, digest_size=8).hexdigest(), 16)
        assert digest.digest_bytes(buf) == expected
        assert digest.digest_array(np.frombuffer(buf, dtype=np.uint8)) == expected


def test_seed_chaining_equals_concatenation():
    a, b = b"hello ", b"world"
    chained = digest.fnv1a64(b, seed=digest.fnv1a64(a))
    assert chained == digest.fnv1a64(a + b)


def test_array_digest_is_little_endian_and_order_insensitive():
    arr = np.arange(12, dtype="<f8").reshape(3, 4)
    expected = digest.digest_bytes(arr.tobytes())
    assert digest.digest_array(arr) == expected
    assert digest.digest_array(arr.astype(">f8")) == expected  # host-order independent
    assert digest.digest_array(np.asfortranarray(arr)) == expected  # layout independent
    assert digest.digest_array(arr[:, ::2]) == digest.digest_bytes(arr[:, ::2].tobytes())


def test_distinct_payloads_distinct_digests():
    a = np.zeros(16)
    b = a.copy()
    b[7] = 1e-300
    c = a.copy()
    c[15] = -0.0
    digests = {digest.digest_array(x) for x in (a, b, c)}
    assert len(digests) == 3


def test_config_fingerprint_is_pinned():
    # the fingerprint is digest_text over the canonical config JSON; named RNG
    # streams (nn.rng_for) derive from digest_text the same way
    assert preset("synthetic-smoke").fingerprint() == "0x828ca46552f7e5ef"
