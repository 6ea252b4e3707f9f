"""Differential tests: accelerated AES kernel vs the auditable reference.

The T-table / vectorised fast path must be *byte-identical* to the
reference transform — same FIPS-197 vectors, same CTR keystreams for
every key size, length and counter, and the same sealed frames and MACs
at the cipher-suite level.  Everything here is seeded, so a divergence
reproduces exactly.
"""

import random

import pytest

from repro.crypto.aes import (
    AES,
    VECTOR_THRESHOLD_BLOCKS,
    default_accel,
    set_default_accel,
)
from repro.crypto.modes import ctr_keystream, ctr_keystream_batch, ctr_transform
from repro.crypto.rng import SecureRandom
from repro.crypto.suite import CipherSuite
from repro.errors import CryptoError

# FIPS-197 appendix C vectors: the same key/plaintext for all three sizes.
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_VECTORS = [
    (bytes(range(16)), "69c4e0d86a7b0430d8cdb78070b4c55a"),
    (bytes(range(24)), "dda97ca4864cdfe06eaf70a0ec0d7191"),
    (bytes(range(32)), "8ea2b7ca516745bfeafc49904b496089"),
]

KEY_SIZES = (16, 24, 32)


@pytest.mark.parametrize("key,expected", FIPS_VECTORS,
                         ids=["aes128", "aes192", "aes256"])
@pytest.mark.parametrize("accel", [False, True], ids=["reference", "accel"])
def test_fips_vectors_both_paths(key, expected, accel):
    cipher = AES(key, accel=accel)
    assert cipher.accel is accel
    assert cipher.encrypt_block(FIPS_PLAINTEXT).hex() == expected
    # decrypt_block has no fast path; it must invert either way.
    assert cipher.decrypt_block(bytes.fromhex(expected)) == FIPS_PLAINTEXT


@pytest.mark.parametrize("key_size", KEY_SIZES)
def test_encrypt_blocks_differential_all_lanes(key_size):
    """reference == int T-table lane == vectorised lane, block for block."""
    rng = random.Random(0xACE1 + key_size)
    for trial in range(8):
        key = rng.randbytes(key_size)
        ref = AES(key, accel=False)
        fast = AES(key, accel=True)
        # Below the threshold exercises the int lane, above it the numpy
        # lane; both must match the reference.
        for count in (1, 2, VECTOR_THRESHOLD_BLOCKS - 1,
                      VECTOR_THRESHOLD_BLOCKS, 3 * VECTOR_THRESHOLD_BLOCKS + 5):
            data = rng.randbytes(16 * count)
            expected = b"".join(
                ref.encrypt_block(data[i : i + 16])
                for i in range(0, len(data), 16)
            )
            assert ref.encrypt_blocks(data) == expected
            assert fast.encrypt_blocks(data) == expected


@pytest.mark.parametrize("key_size", KEY_SIZES)
def test_ctr_keystream_differential(key_size):
    """Seeded sweep over odd lengths and counters, reference vs accel."""
    rng = random.Random(0xC7B + key_size)
    lengths = [0, 1, 15, 16, 17, 31, 100, 257, 16 * VECTOR_THRESHOLD_BLOCKS + 3]
    counters = [0, 1, 7, 2**16, 2**32 - 64]
    for trial in range(4):
        key = rng.randbytes(key_size)
        nonce = rng.randbytes(12)
        ref = AES(key, accel=False)
        fast = AES(key, accel=True)
        for length in lengths:
            for counter in counters:
                if counter + (length + 15) // 16 > 2**32:
                    continue
                assert ctr_keystream(ref, nonce, length, counter) == \
                    ctr_keystream(fast, nonce, length, counter)


def test_ctr_transform_differential_roundtrip():
    rng = random.Random(7)
    key = rng.randbytes(16)
    nonce = rng.randbytes(12)
    data = rng.randbytes(1000)
    ref = AES(key, accel=False)
    fast = AES(key, accel=True)
    ct = ctr_transform(fast, nonce, data)
    assert ct == ctr_transform(ref, nonce, data)
    assert ctr_transform(ref, nonce, ct) == data
    assert ctr_transform(fast, nonce, ct) == data


def test_ctr_keystream_batch_matches_per_frame():
    rng = random.Random(21)
    cipher = AES(rng.randbytes(16))
    nonces = [rng.randbytes(12) for _ in range(9)]
    lengths = [0, 1, 16, 17, 48, 100, 5, 33, 256]
    batch = ctr_keystream_batch(cipher, nonces, lengths)
    assert batch == [
        ctr_keystream(cipher, nonce, length)
        for nonce, length in zip(nonces, lengths)
    ]
    with pytest.raises(CryptoError):
        ctr_keystream_batch(cipher, nonces, lengths[:-1])


@pytest.mark.parametrize("accel", [False, True], ids=["reference", "accel"])
def test_ctr_counter_overflow_guard(accel):
    cipher = AES(bytes(16), accel=accel)
    nonce = bytes(12)
    # Exactly at the boundary is fine; one block past 2^32 must raise.
    assert len(ctr_keystream(cipher, nonce, 16, 2**32 - 1)) == 16
    with pytest.raises(CryptoError):
        ctr_keystream(cipher, nonce, 17, 2**32 - 1)
    with pytest.raises(CryptoError):
        ctr_keystream(cipher, nonce, 16, 2**32)


def test_encrypt_blocks_rejects_partial_blocks():
    cipher = AES(bytes(16))
    assert cipher.encrypt_blocks(b"") == b""
    with pytest.raises(CryptoError):
        cipher.encrypt_blocks(b"\x00" * 15)
    with pytest.raises(CryptoError):
        cipher.encrypt_blocks(b"\x00" * 17)


def test_for_key_caches_instances():
    key = bytes(range(16))
    a = AES.for_key(key, accel=True)
    b = AES.for_key(key, accel=True)
    assert a is b
    # The accel flag is part of the cache key: both variants coexist.
    c = AES.for_key(key, accel=False)
    assert c is not a and not c.accel and a.accel


def test_for_key_cache_is_bounded():
    start = len(AES._instances)
    for i in range(AES._INSTANCE_CACHE_SIZE + 8):
        AES.for_key(i.to_bytes(2, "big") + bytes(14), accel=True)
    assert len(AES._instances) <= AES._INSTANCE_CACHE_SIZE
    assert start <= AES._INSTANCE_CACHE_SIZE


def test_default_accel_toggling():
    previous = set_default_accel(False)
    try:
        assert default_accel() is False
        assert AES(bytes(16)).accel is False
        set_default_accel(True)
        assert AES(bytes(16)).accel is True
    finally:
        set_default_accel(previous)


def test_suite_frames_identical_accel_on_off():
    """Sealed frames (nonce, ciphertext AND MAC) match across kernels."""
    payloads = [bytes([i]) * (96 + i) for i in range(6)]
    frames = {}
    for accel in (False, True):
        previous = set_default_accel(accel)
        try:
            suite = CipherSuite(b"accel-diff-key", backend="aes",
                                rng=SecureRandom(99))
            frames[accel] = suite.encrypt_pages(payloads)
            assert suite.decrypt_pages(frames[accel]) == payloads
        finally:
            set_default_accel(previous)
    assert frames[False] == frames[True]


def test_suite_single_frame_identical_accel_on_off():
    payload = b"the quick brown fox" * 7
    frames = {}
    for accel in (False, True):
        previous = set_default_accel(accel)
        try:
            suite = CipherSuite(b"accel-diff-key", backend="aes",
                                rng=SecureRandom(5))
            frames[accel] = suite.encrypt_page(payload)
            assert suite.decrypt_page(frames[accel]) == payload
        finally:
            set_default_accel(previous)
    assert frames[False] == frames[True]
