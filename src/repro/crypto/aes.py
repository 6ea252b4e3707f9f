"""Pure-Python AES block cipher (FIPS-197).

The paper's prototype uses Crypto++ AES inside the secure coprocessor; this
module is the from-scratch equivalent.  It implements the raw 128-bit block
transform for AES-128, AES-192 and AES-256, validated against the official
FIPS-197 appendix vectors (see ``tests/test_crypto_aes.py``).

Performance note: two forward transforms coexist.  The byte-wise *reference*
path follows FIPS-197 operation by operation and stays fully auditable; the
*accelerated* path folds SubBytes/ShiftRows/MixColumns into four 32-bit
T-tables (built once per process from the same derived S-box) and processes
the state as four column words — roughly an order of magnitude faster in
CPython, and proven byte-identical to the reference path by the seeded
differential suite in ``tests/test_crypto_accel.py``.  The accelerated path
is the default (``AES(key)``); pass ``accel=False`` — or set the module
default via :func:`set_default_accel` / the ``REPRO_AES_ACCEL=0`` environment
variable — to force the reference path (CI runs one tier-1 leg that way so
it stays exercised).  Throughput numbers in the paper's evaluation come from
the Table-2 constant ``r_ed = 10 MB/s`` of the IBM 4764 crypto engine, not
from Python speed; the fast kernel exists because this implementation's CTR
keystream (Eq. 8's re-encryption term) dominates wall time once everything
above it is batched.  Higher-level code should prefer
:class:`repro.crypto.suite.CipherSuite` over using this class directly.
"""

from __future__ import annotations

import os
import struct
import threading
from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as _np

from ..errors import CryptoError

__all__ = ["AES", "BLOCK_SIZE", "set_default_accel", "default_accel"]

BLOCK_SIZE = 16  # bytes; AES always operates on 128-bit blocks

#: Batches at least this many blocks long take the numpy lane: below it,
#: per-call array overhead beats the gain.
VECTOR_THRESHOLD_BLOCKS = 16

# ---------------------------------------------------------------------------
# S-box generation.  Rather than hard-coding 256 magic numbers, we derive the
# S-box from its definition: multiplicative inverse in GF(2^8) followed by the
# affine transform.  The result is verified against FIPS-197 in the tests.
# ---------------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    product = 0
    for _ in range(8):
        if b & 1:
            product ^= a
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
        b >>= 1
    return product


def _gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(2^8); inverse of 0 is defined as 0."""
    if a == 0:
        return 0
    # a^(2^8 - 2) = a^254 is the inverse (Fermat's little theorem for fields).
    result = 1
    base = a
    exponent = 254
    while exponent:
        if exponent & 1:
            result = _gf_mul(result, base)
        base = _gf_mul(base, base)
        exponent >>= 1
    return result


def _build_sbox() -> Tuple[bytes, bytes]:
    """Return (sbox, inverse_sbox) built from the algebraic definition."""
    sbox = bytearray(256)
    inv = bytearray(256)
    for value in range(256):
        x = _gf_inverse(value)
        # Affine transform: b_i = x_i ^ x_{i+4} ^ x_{i+5} ^ x_{i+6} ^ x_{i+7} ^ c_i
        y = 0
        for bit in range(8):
            b = (
                (x >> bit)
                ^ (x >> ((bit + 4) % 8))
                ^ (x >> ((bit + 5) % 8))
                ^ (x >> ((bit + 6) % 8))
                ^ (x >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            y |= b << bit
        sbox[value] = y
        inv[y] = value
    return bytes(sbox), bytes(inv)


_SBOX, _INV_SBOX = _build_sbox()

# Round constants for the key schedule: rcon[i] = x^i in GF(2^8).
_RCON = [1]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 2))

# Precomputed GF multiplication tables for the MixColumns coefficients.
_MUL2 = bytes(_gf_mul(i, 2) for i in range(256))
_MUL3 = bytes(_gf_mul(i, 3) for i in range(256))
_MUL9 = bytes(_gf_mul(i, 9) for i in range(256))
_MUL11 = bytes(_gf_mul(i, 11) for i in range(256))
_MUL13 = bytes(_gf_mul(i, 13) for i in range(256))
_MUL14 = bytes(_gf_mul(i, 14) for i in range(256))

_ROUNDS_BY_KEY_LENGTH = {16: 10, 24: 12, 32: 14}

# ---------------------------------------------------------------------------
# T-table fast path.  Each table maps one S-boxed state byte to its packed
# 32-bit column contribution (SubBytes + MixColumns fused), so a full round
# is 16 table lookups and 16 word XORs instead of byte-wise GF arithmetic.
# The tables are derived from the same generated S-box as the reference
# path and built lazily, once per process.
# ---------------------------------------------------------------------------

_T_TABLES: Optional[Tuple[Tuple[int, ...], ...]] = None


def _build_ttables() -> Tuple[Tuple[int, ...], ...]:
    global _T_TABLES
    if _T_TABLES is None:
        t0, t1, t2, t3 = [], [], [], []
        for value in range(256):
            s = _SBOX[value]
            s2, s3 = _MUL2[s], _MUL3[s]
            t0.append((s2 << 24) | (s << 16) | (s << 8) | s3)
            t1.append((s3 << 24) | (s2 << 16) | (s << 8) | s)
            t2.append((s << 24) | (s3 << 16) | (s2 << 8) | s)
            t3.append((s << 24) | (s << 16) | (s3 << 8) | s2)
        _T_TABLES = (tuple(t0), tuple(t1), tuple(t2), tuple(t3))
    return _T_TABLES


_NP_TABLES = None


def _build_np_tables():
    """uint32 copies of the T-tables plus the S-box, for the numpy lane."""
    global _NP_TABLES
    if _NP_TABLES is None:
        tables = _build_ttables()
        _NP_TABLES = (
            tuple(_np.array(table, dtype=_np.uint32) for table in tables),
            _np.frombuffer(_SBOX, dtype=_np.uint8).astype(_np.uint32),
        )
    return _NP_TABLES


# Module default for the accel flag; AES(key) without an explicit ``accel``
# follows it.  Initialised from REPRO_AES_ACCEL so a CI leg (or a cautious
# operator) can force the auditable reference path process-wide.
_DEFAULT_ACCEL = os.environ.get("REPRO_AES_ACCEL", "1").lower() not in (
    "0", "false", "off", "no",
)


def default_accel() -> bool:
    """Current module default for :class:`AES`'s ``accel`` flag."""
    return _DEFAULT_ACCEL


def set_default_accel(enabled: bool) -> bool:
    """Set the module default accel flag; returns the previous value."""
    global _DEFAULT_ACCEL
    previous = _DEFAULT_ACCEL
    _DEFAULT_ACCEL = bool(enabled)
    return previous


class AES:
    """Raw AES block transform with a fixed key.

    >>> cipher = AES(bytes(16))
    >>> cipher.encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    def __init__(self, key: bytes, accel: Optional[bool] = None):
        if len(key) not in _ROUNDS_BY_KEY_LENGTH:
            raise CryptoError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self._rounds = _ROUNDS_BY_KEY_LENGTH[len(key)]
        self._round_keys = self._expand_key(key)
        self._accel = _DEFAULT_ACCEL if accel is None else bool(accel)
        if self._accel:
            self._tables = _build_ttables()
            # Round keys packed as big-endian column words for the T-table
            # path; one tuple of four words per round.
            self._round_key_words: List[Tuple[int, ...]] = [
                tuple(
                    int.from_bytes(bytes(flat[4 * c : 4 * c + 4]), "big")
                    for c in range(4)
                )
                for flat in self._round_keys
            ]

    @property
    def rounds(self) -> int:
        """Number of AES rounds for this key size (10, 12 or 14)."""
        return self._rounds

    @property
    def accel(self) -> bool:
        """True when this instance uses the T-table fast path."""
        return self._accel

    # -- keyed-instance cache -------------------------------------------------

    _instances: "OrderedDict[Tuple[bytes, bool], AES]" = OrderedDict()
    _instances_lock = threading.Lock()
    _INSTANCE_CACHE_SIZE = 64

    @classmethod
    def for_key(cls, key: bytes, accel: Optional[bool] = None) -> "AES":
        """A shared keyed instance, LRU-cached by (key bytes, accel flag).

        Key expansion is the only per-instance state and it is immutable
        after construction, so instances are safely shared across cipher
        suites and threads.  The cache keeps the legacy-key fallback during
        rotation (``SecureCoprocessor.unseal_frames``) and repeated suite
        construction from re-expanding the same schedule.
        """
        resolved = _DEFAULT_ACCEL if accel is None else bool(accel)
        cache_key = (bytes(key), resolved)
        with cls._instances_lock:
            cipher = cls._instances.get(cache_key)
            if cipher is not None:
                cls._instances.move_to_end(cache_key)
                return cipher
        cipher = cls(key, accel=resolved)
        with cls._instances_lock:
            cls._instances[cache_key] = cipher
            cls._instances.move_to_end(cache_key)
            while len(cls._instances) > cls._INSTANCE_CACHE_SIZE:
                cls._instances.popitem(last=False)
        return cipher

    # -- key schedule -------------------------------------------------------

    def _expand_key(self, key: bytes) -> List[List[int]]:
        """FIPS-197 key expansion; returns one 16-byte round key per round."""
        nk = len(key) // 4
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        total_words = 4 * (self._rounds + 1)
        for i in range(nk, total_words):
            word = list(words[i - 1])
            if i % nk == 0:
                word = word[1:] + word[:1]  # RotWord
                word = [_SBOX[b] for b in word]  # SubWord
                word[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                word = [_SBOX[b] for b in word]
            word = [word[j] ^ words[i - nk][j] for j in range(4)]
            words.append(word)
        round_keys = []
        for round_index in range(self._rounds + 1):
            flat: List[int] = []
            for w in words[4 * round_index : 4 * round_index + 4]:
                flat.extend(w)
            round_keys.append(flat)
        return round_keys

    # -- forward transform ---------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        if self._accel:
            words = struct.unpack(">4I", block)
            return struct.pack(">4I", *self._encrypt_words(*words))
        return self._encrypt_block_reference(block)

    def _encrypt_block_reference(self, block: bytes) -> bytes:
        """The auditable byte-wise transform (FIPS-197 operation order)."""
        state = [block[i] ^ self._round_keys[0][i] for i in range(16)]
        for round_index in range(1, self._rounds):
            state = self._encrypt_round(state, self._round_keys[round_index])
        # Final round: no MixColumns.
        state = self._sub_shift(state)
        key = self._round_keys[self._rounds]
        return bytes(state[i] ^ key[i] for i in range(16))

    def _encrypt_words(self, w0: int, w1: int, w2: int, w3: int):
        """T-table transform of one state given as four big-endian words."""
        t0, t1, t2, t3 = self._tables
        rk = self._round_key_words
        k0, k1, k2, k3 = rk[0]
        w0 ^= k0
        w1 ^= k1
        w2 ^= k2
        w3 ^= k3
        for round_index in range(1, self._rounds):
            k0, k1, k2, k3 = rk[round_index]
            n0 = (t0[w0 >> 24] ^ t1[(w1 >> 16) & 0xFF]
                  ^ t2[(w2 >> 8) & 0xFF] ^ t3[w3 & 0xFF] ^ k0)
            n1 = (t0[w1 >> 24] ^ t1[(w2 >> 16) & 0xFF]
                  ^ t2[(w3 >> 8) & 0xFF] ^ t3[w0 & 0xFF] ^ k1)
            n2 = (t0[w2 >> 24] ^ t1[(w3 >> 16) & 0xFF]
                  ^ t2[(w0 >> 8) & 0xFF] ^ t3[w1 & 0xFF] ^ k2)
            n3 = (t0[w3 >> 24] ^ t1[(w0 >> 16) & 0xFF]
                  ^ t2[(w1 >> 8) & 0xFF] ^ t3[w2 & 0xFF] ^ k3)
            w0, w1, w2, w3 = n0, n1, n2, n3
        s = _SBOX
        k0, k1, k2, k3 = rk[self._rounds]
        return (
            ((s[w0 >> 24] << 24) | (s[(w1 >> 16) & 0xFF] << 16)
             | (s[(w2 >> 8) & 0xFF] << 8) | s[w3 & 0xFF]) ^ k0,
            ((s[w1 >> 24] << 24) | (s[(w2 >> 16) & 0xFF] << 16)
             | (s[(w3 >> 8) & 0xFF] << 8) | s[w0 & 0xFF]) ^ k1,
            ((s[w2 >> 24] << 24) | (s[(w3 >> 16) & 0xFF] << 16)
             | (s[(w0 >> 8) & 0xFF] << 8) | s[w1 & 0xFF]) ^ k2,
            ((s[w3 >> 24] << 24) | (s[(w0 >> 16) & 0xFF] << 16)
             | (s[(w1 >> 8) & 0xFF] << 8) | s[w2 & 0xFF]) ^ k3,
        )

    def encrypt_blocks(self, data: bytes) -> bytes:
        """Encrypt a concatenation of 16-byte blocks in one call.

        The batch entry point for CTR keystream generation
        (:func:`repro.crypto.modes.ctr_keystream` builds every counter
        block of a message up front and feeds them through here): one
        struct unpack/pack pair and one Python-level loop for the whole
        message instead of one ``encrypt_block`` call — with its argument
        checks and bytes round-trips — per 16-byte block.  Batches of at
        least :data:`VECTOR_THRESHOLD_BLOCKS` blocks additionally run the
        rounds as numpy uint32 array ops over all blocks at once.  Output
        is byte-identical across the reference, int T-table and
        vectorised paths — all integer arithmetic, proven by the
        differential suite.
        """
        length = len(data)
        if length % BLOCK_SIZE:
            raise CryptoError(
                f"batch length must be a multiple of {BLOCK_SIZE}, got {length}"
            )
        if length == 0:
            return b""
        if not self._accel:
            encrypt = self._encrypt_block_reference
            return b"".join(
                encrypt(data[offset : offset + BLOCK_SIZE])
                for offset in range(0, length, BLOCK_SIZE)
            )
        count = length // BLOCK_SIZE
        if count >= VECTOR_THRESHOLD_BLOCKS:
            return self._encrypt_blocks_vector(data, count)
        words = struct.unpack(f">{4 * count}I", data)
        out: List[int] = []
        extend = out.extend
        encrypt_words = self._encrypt_words
        for index in range(0, 4 * count, 4):
            extend(encrypt_words(words[index], words[index + 1],
                                 words[index + 2], words[index + 3]))
        return struct.pack(f">{4 * count}I", *out)

    def _encrypt_blocks_vector(self, data: bytes, count: int) -> bytes:
        """Rounds as uint32 array ops, all blocks in lock-step.

        Same T-tables, same word layout as :meth:`_encrypt_words` — each
        Python-level round performs the 16 table gathers and XORs for the
        *whole* batch, so the per-block interpreter cost amortises away.
        """
        (t0, t1, t2, t3), sbox = _build_np_tables()
        words = _np.frombuffer(data, dtype=">u4").astype(_np.uint32)
        state = words.reshape(count, 4)
        w0, w1, w2, w3 = state[:, 0], state[:, 1], state[:, 2], state[:, 3]
        rk = self._round_key_words
        k0, k1, k2, k3 = rk[0]
        w0, w1, w2, w3 = w0 ^ k0, w1 ^ k1, w2 ^ k2, w3 ^ k3
        for round_index in range(1, self._rounds):
            k0, k1, k2, k3 = rk[round_index]
            n0 = (t0[w0 >> 24] ^ t1[(w1 >> 16) & 0xFF]
                  ^ t2[(w2 >> 8) & 0xFF] ^ t3[w3 & 0xFF] ^ k0)
            n1 = (t0[w1 >> 24] ^ t1[(w2 >> 16) & 0xFF]
                  ^ t2[(w3 >> 8) & 0xFF] ^ t3[w0 & 0xFF] ^ k1)
            n2 = (t0[w2 >> 24] ^ t1[(w3 >> 16) & 0xFF]
                  ^ t2[(w0 >> 8) & 0xFF] ^ t3[w1 & 0xFF] ^ k2)
            n3 = (t0[w3 >> 24] ^ t1[(w0 >> 16) & 0xFF]
                  ^ t2[(w1 >> 8) & 0xFF] ^ t3[w2 & 0xFF] ^ k3)
            w0, w1, w2, w3 = n0, n1, n2, n3
        k0, k1, k2, k3 = rk[self._rounds]
        out = _np.empty((count, 4), dtype=_np.uint32)
        out[:, 0] = ((sbox[w0 >> 24] << 24) | (sbox[(w1 >> 16) & 0xFF] << 16)
                     | (sbox[(w2 >> 8) & 0xFF] << 8) | sbox[w3 & 0xFF]) ^ k0
        out[:, 1] = ((sbox[w1 >> 24] << 24) | (sbox[(w2 >> 16) & 0xFF] << 16)
                     | (sbox[(w3 >> 8) & 0xFF] << 8) | sbox[w0 & 0xFF]) ^ k1
        out[:, 2] = ((sbox[w2 >> 24] << 24) | (sbox[(w3 >> 16) & 0xFF] << 16)
                     | (sbox[(w0 >> 8) & 0xFF] << 8) | sbox[w1 & 0xFF]) ^ k2
        out[:, 3] = ((sbox[w3 >> 24] << 24) | (sbox[(w0 >> 16) & 0xFF] << 16)
                     | (sbox[(w1 >> 8) & 0xFF] << 8) | sbox[w2 & 0xFF]) ^ k3
        return out.astype(">u4").tobytes()

    @staticmethod
    def _sub_shift(state: List[int]) -> List[int]:
        """SubBytes followed by ShiftRows (column-major state layout)."""
        s = _SBOX
        return [
            s[state[0]], s[state[5]], s[state[10]], s[state[15]],
            s[state[4]], s[state[9]], s[state[14]], s[state[3]],
            s[state[8]], s[state[13]], s[state[2]], s[state[7]],
            s[state[12]], s[state[1]], s[state[6]], s[state[11]],
        ]

    @staticmethod
    def _encrypt_round(state: List[int], round_key: List[int]) -> List[int]:
        """One full round: SubBytes, ShiftRows, MixColumns, AddRoundKey."""
        t = AES._sub_shift(state)
        out = [0] * 16
        for col in range(4):
            a0, a1, a2, a3 = t[4 * col : 4 * col + 4]
            out[4 * col + 0] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3 ^ round_key[4 * col + 0]
            out[4 * col + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3 ^ round_key[4 * col + 1]
            out[4 * col + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3] ^ round_key[4 * col + 2]
            out[4 * col + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3] ^ round_key[4 * col + 3]
        return out

    # -- inverse transform ----------------------------------------------------

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        key = self._round_keys[self._rounds]
        state = [block[i] ^ key[i] for i in range(16)]
        state = self._inv_shift_sub(state)
        for round_index in range(self._rounds - 1, 0, -1):
            key = self._round_keys[round_index]
            state = [state[i] ^ key[i] for i in range(16)]
            state = self._inv_mix_columns(state)
            state = self._inv_shift_sub(state)
        key = self._round_keys[0]
        return bytes(state[i] ^ key[i] for i in range(16))

    @staticmethod
    def _inv_shift_sub(state: List[int]) -> List[int]:
        """InvShiftRows followed by InvSubBytes."""
        s = _INV_SBOX
        return [
            s[state[0]], s[state[13]], s[state[10]], s[state[7]],
            s[state[4]], s[state[1]], s[state[14]], s[state[11]],
            s[state[8]], s[state[5]], s[state[2]], s[state[15]],
            s[state[12]], s[state[9]], s[state[6]], s[state[3]],
        ]

    @staticmethod
    def _inv_mix_columns(state: List[int]) -> List[int]:
        out = [0] * 16
        for col in range(4):
            a0, a1, a2, a3 = state[4 * col : 4 * col + 4]
            out[4 * col + 0] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            out[4 * col + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            out[4 * col + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            out[4 * col + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
        return out
