"""Hashlib-free crypto stack: pure HMAC, pure keystream, pure suite backend."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.mac import hmac_sha256
from repro.crypto.purestack import pure_hmac_sha256, pure_keystream_xor
from repro.crypto.rng import SecureRandom
from repro.crypto.suite import CipherSuite
from repro.errors import AuthenticationError, CryptoError

from tests.helpers import make_db


class TestPureHmac:
    def test_matches_hashlib_hmac(self):
        for key, message in [
            (b"k", b"m"),
            (b"a" * 100, b"data" * 50),
            (bytes(64), b""),
        ]:
            assert pure_hmac_sha256(key, message) == hmac_sha256(key, message)

    def test_rfc4231_case2(self):
        expected = bytes.fromhex(
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )
        assert pure_hmac_sha256(b"Jefe", b"what do ya want for nothing?") == expected

    def test_empty_key_rejected(self):
        with pytest.raises(CryptoError):
            pure_hmac_sha256(b"", b"x")

    @settings(max_examples=30, deadline=None)
    @given(key=st.binary(min_size=1, max_size=100), msg=st.binary(max_size=150))
    def test_equivalence_property(self, key, msg):
        assert pure_hmac_sha256(key, msg) == hmac_sha256(key, msg)


class TestPureKeystream:
    def test_involution(self):
        data = b"some plaintext bytes" * 5
        once = pure_keystream_xor(b"key", b"nonce", data)
        assert once != data
        assert pure_keystream_xor(b"key", b"nonce", once) == data

    def test_nonce_separation(self):
        zeros = bytes(64)
        a = pure_keystream_xor(b"key", b"n1", zeros)
        b = pure_keystream_xor(b"key", b"n2", zeros)
        assert a != b

    def test_empty_key_rejected(self):
        with pytest.raises(CryptoError):
            pure_keystream_xor(b"", b"n", b"x")


class TestPureSuiteBackend:
    def test_roundtrip(self):
        suite = CipherSuite(b"master", backend="pure", rng=SecureRandom(1))
        for payload in (b"", b"x", b"page payload" * 30):
            assert suite.decrypt_page(suite.encrypt_page(payload)) == payload

    def test_tamper_detection(self):
        suite = CipherSuite(b"master", backend="pure", rng=SecureRandom(2))
        frame = bytearray(suite.encrypt_page(b"secret"))
        frame[-1] ^= 1
        with pytest.raises(AuthenticationError):
            suite.decrypt_page(bytes(frame))

    def test_cross_backend_keystreams_differ(self):
        pure = CipherSuite(b"master", backend="pure", rng=SecureRandom(3))
        blake = CipherSuite(b"master", backend="blake2", rng=SecureRandom(3))
        nonce = bytes(12)
        assert pure.compute_keystream(nonce, 64) != \
            blake.compute_keystream(nonce, 64)
        # The MAC key's label names the backend, so a frame sealed under
        # another keystream is refused rather than decrypted to garbage —
        # backends are a configuration, not an interop surface.
        with pytest.raises(AuthenticationError):
            blake.decrypt_page(pure.encrypt_page(b"hello"))

    def test_full_database_on_pure_stack(self):
        """The whole system runs with zero stdlib crypto."""
        db = make_db(num_records=16, cache_capacity=2, block_size=4,
                     page_capacity=16, cipher_backend="pure", seed=4)
        from repro.baselines import make_records

        records = make_records(16, 16)
        for i in range(16):
            assert db.query(i) == records[i]
        db.consistency_check()
