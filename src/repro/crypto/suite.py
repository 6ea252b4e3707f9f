"""Authenticated page encryption for the secure coprocessor.

A :class:`CipherSuite` turns plaintext page payloads into self-contained
encrypted *frames* and back:

``frame = nonce (12B) || ciphertext || tag (16B)``

with encrypt-then-MAC (HMAC-SHA256 truncated to 128 bits over nonce plus
ciphertext).  The MAC key is derived under a label that names the backend,
so a frame sealed by one backend (or by an older keystream of the same
name) fails verification under another instead of decrypting to garbage.
A fresh random nonce is drawn for every encryption, which is what makes
the re-encryption in Figure 3 line 21 produce ciphertexts the server
cannot link across writes.

Four keystream backends are provided:

``aes``
    Real AES-128-CTR from :mod:`repro.crypto.aes` — the paper's cipher.
    Used by default for correctness-sensitive paths and validated against
    NIST vectors.  Runs the T-table fast kernel by default (byte-identical
    to the FIPS-197 reference; ``REPRO_AES_ACCEL=0`` forces reference).
``blake2``
    One keyed-BLAKE2b call per frame turns the nonce into a 64-byte seed,
    and SHAKE-256 expands that seed into the frame's whole keystream:
    ``SHAKE-256(BLAKE2b_K(nonce)).digest(length)`` (both via ``hashlib``,
    i.e. C speed).  The key enters only BLAKE2b, a PRF; SHAKE is a public
    expander.  Same security contract for the purposes of this system (a
    PRF-based stream cipher), far faster than ``aes``; the recommended
    backend for large simulations.
``null``
    Identity transform, still MAC'd.  For experiments that only study the
    *access pattern* (privacy measurements), where byte confidentiality is
    irrelevant and speed is everything.
``pure``
    Keystream and tags built entirely from this repository's own SHA-256
    (:mod:`repro.crypto.purestack`) — zero stdlib crypto.  Auditability
    over speed.

The backend choice never changes frame sizes or the algorithm's behaviour;
it is a simulation-fidelity knob, documented in DESIGN.md.

Batch pipeline
--------------

A request moves ``2(k+1)`` frames through the suite, and paying Python
call overhead per frame dominates the small-page regime.
:meth:`CipherSuite.encrypt_pages` / :meth:`CipherSuite.decrypt_pages`
process a whole multi-frame batch per call:

* nonces are drawn in frame order (so a batch consumes the RNG exactly
  like the equivalent sequence of single-frame calls — batch and serial
  paths produce **byte-identical frames**),
* the keystream of every frame is materialised and the concatenated batch
  is XORed against the concatenated payloads in a *single* numpy XOR,
* MAC tags are computed/verified from precomputed HMAC pad states (the
  SHA-256 of the inner/outer key pads is hashed once per suite, then
  ``copy()``-ed per frame), and batched verification checks every tag
  before reporting the full set of failing frame indices,
* per-backend key schedules (AES round keys, the keyed-BLAKE2b base
  state) are computed once per suite and shared across the batch,
* when a :class:`~repro.crypto.pipeline.KeystreamPipeline` is attached,
  decrypt batches consult it per frame before computing: hits only XOR,
  and the remaining misses share one fused kernel call on the aes
  backend (DESIGN.md §11).
"""

from __future__ import annotations

import hashlib
import hmac
from typing import List, Optional, Sequence

import numpy as np

from .aes import AES
from .kdf import derive_key
from .mac import TAG_SIZE, hmac_sha256
from .modes import NONCE_SIZE, ctr_keystream, ctr_keystream_batch
from .purestack import pure_hmac_sha256, pure_keystream_xor
from .rng import SecureRandom
from ..errors import AuthenticationError, CryptoError
from ..obs.tracer import NULL_TRACER, Tracer

__all__ = ["CipherSuite", "FRAME_OVERHEAD", "BACKENDS"]

FRAME_OVERHEAD = NONCE_SIZE + TAG_SIZE
BACKENDS = ("aes", "blake2", "null", "pure")

_BLAKE_SEED = 64  # bytes of keyed-BLAKE2b output that seed SHAKE-256
_HMAC_BLOCK = 64  # SHA-256 block size (HMAC pad width)


def _xor_bytes(data: bytes, keystream: bytes) -> bytes:
    """XOR equal-length byte strings via one numpy operation."""
    return np.bitwise_xor(
        np.frombuffer(data, dtype=np.uint8),
        np.frombuffer(keystream, dtype=np.uint8),
    ).tobytes()


class CipherSuite:
    """Keyed authenticated encryption for fixed- or variable-size pages.

    >>> suite = CipherSuite(b"master key", backend="blake2", rng=SecureRandom(1))
    >>> frame = suite.encrypt_page(b"hello")
    >>> suite.decrypt_page(frame)
    b'hello'

    Not thread-safe: the nonce RNG is stateful, so give each thread its
    own suite (the engine owns one per coprocessor, which is entered by a
    single thread at a time — see DESIGN.md §10).
    """

    def __init__(
        self,
        master_key: bytes,
        backend: str = "aes",
        rng: Optional[SecureRandom] = None,
        tracer: Optional[Tracer] = None,
    ):
        if backend not in BACKENDS:
            raise CryptoError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        self.backend = backend
        self._rng = rng if rng is not None else SecureRandom()
        # Per-frame crypto spans only exist at DETAIL_FINE; the flag is
        # latched here so the per-frame hot path pays one attribute read,
        # not a tracer-mode check, when tracing is off or phase-level.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._fine = self.tracer.fine
        self._enc_key = derive_key(master_key, "page-encryption", 16)
        # The backend is part of the MAC key's label: a frame sealed under
        # another keystream is refused instead of decrypting to garbage.
        self._mac_key = derive_key(
            master_key, f"page-authentication/{backend}", 32
        )
        # for_key caches keyed instances process-wide, so the legacy-key
        # suite kept alive during a rotation (and any suite re-derived for
        # the same master key) reuses an existing key schedule instead of
        # re-expanding it.
        self._aes: Optional[AES] = (
            AES.for_key(self._enc_key) if backend == "aes" else None
        )
        # Optional keystream prefetcher (repro.crypto.pipeline); attached
        # by the coprocessor when the database enables it.  Decrypt paths
        # consult it; encrypt paths only when the caller supplied explicit
        # nonces (fresh random nonces can never have been prefetched, so
        # consulting for them would just pollute the miss counter).
        self.pipeline = None
        # Keyed-BLAKE2b absorbs its key block at construction; copying the
        # base state per frame skips that work (byte-identical output to a
        # one-shot keyed hash).
        self._blake_base = (
            hashlib.blake2b(key=self._enc_key, digest_size=_BLAKE_SEED)
            if backend == "blake2" else None
        )
        # The pure backend authenticates with the repository's own SHA-256
        # so the whole chain is hashlib-free; other backends use hashlib
        # HMAC-SHA256 with the key-pad states hashed once and copied per
        # tag.  Both produce the same bytes as mac.hmac_sha256.
        self._mac = pure_hmac_sha256 if backend == "pure" else hmac_sha256
        if backend == "pure":
            self._inner_pad = self._outer_pad = None
        else:
            padded = self._mac_key.ljust(_HMAC_BLOCK, b"\x00")
            self._inner_pad = hashlib.sha256(bytes(b ^ 0x36 for b in padded))
            self._outer_pad = hashlib.sha256(bytes(b ^ 0x5C for b in padded))

    # -- keystream ------------------------------------------------------------

    def compute_keystream(self, nonce: bytes, length: int) -> Optional[bytes]:
        """Keystream bytes this suite would use for (nonce, length).

        A pure function of the suite's key and the arguments — no RNG
        draw, no clock charge — which is what lets
        :class:`repro.crypto.pipeline.KeystreamPipeline` precompute it
        off the request path without perturbing determinism.  Returns
        None for the null backend (identity transform, nothing to cache).
        """
        return self._keystream(nonce, length)

    def compute_keystreams(
        self, nonces: Sequence[bytes], lengths: Sequence[int]
    ) -> List[Optional[bytes]]:
        """Batch :meth:`compute_keystream` — one fused kernel entry on aes.

        The prefetch pipeline computes a whole block's keystreams at once
        through here, so the counter blocks of all frames cross the
        vectorised lane's threshold together (same reason
        ``_transform_batch`` batches).
        """
        if self.backend == "aes":
            assert self._aes is not None
            return list(ctr_keystream_batch(self._aes, nonces, lengths))
        return [
            self._keystream(nonce, length)
            for nonce, length in zip(nonces, lengths)
        ]

    def _keystream(self, nonce: bytes, length: int) -> Optional[bytes]:
        """Raw keystream bytes for one frame (None = identity, null backend)."""
        if self.backend == "null":
            return None
        if self.backend == "aes":
            assert self._aes is not None
            return ctr_keystream(self._aes, nonce, length)
        if self.backend == "pure":
            # purestack only exposes the XOR form; stream against zeros.
            return pure_keystream_xor(self._enc_key, nonce, bytes(length))
        # blake2: SHAKE-256(BLAKE2b(key=enc_key, data=nonce)), one call of
        # each kernel per frame; the seed comes from the pre-keyed base.
        assert self._blake_base is not None
        seed = self._blake_base.copy()
        seed.update(nonce)
        return hashlib.shake_256(seed.digest()).digest(length)

    def _keystream_xor(self, nonce: bytes, data: bytes, consult: bool = False) -> bytes:
        if self.backend == "null":
            return data
        if consult and self.pipeline is not None:
            cached = self.pipeline.take(self, nonce, len(data))
            if cached is not None:
                return _xor_bytes(data, cached)
        if self.backend == "pure":
            return pure_keystream_xor(self._enc_key, nonce, data)
        keystream = self._keystream(nonce, len(data))
        assert keystream is not None
        return _xor_bytes(data, keystream)

    # -- authentication -------------------------------------------------------

    def _tag(self, data: bytes) -> bytes:
        """Truncated HMAC-SHA256 of ``data``, from the precomputed pads."""
        if self._inner_pad is None:
            return self._mac(self._mac_key, data)[:TAG_SIZE]
        inner = self._inner_pad.copy()
        inner.update(data)
        outer = self._outer_pad.copy()
        outer.update(inner.digest())
        return outer.digest()[:TAG_SIZE]

    # -- frames ---------------------------------------------------------------

    def encrypt_page(self, plaintext: bytes, nonce: Optional[bytes] = None) -> bytes:
        """Encrypt a page payload into a frame with a fresh random nonce.

        An explicit ``nonce`` may be supplied for testing; production callers
        must leave it None so every write gets a unique nonce.
        """
        explicit = nonce is not None
        if nonce is None:
            nonce = self._rng.token(NONCE_SIZE)
        elif len(nonce) != NONCE_SIZE:
            raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
        if self._fine:
            with self.tracer.fine_span("crypto.encrypt", nbytes=len(plaintext)):
                ciphertext = self._keystream_xor(nonce, plaintext, consult=explicit)
                tag = self._tag(nonce + ciphertext)
        else:
            ciphertext = self._keystream_xor(nonce, plaintext, consult=explicit)
            tag = self._tag(nonce + ciphertext)
        return nonce + ciphertext + tag

    def decrypt_page(self, frame: bytes) -> bytes:
        """Verify and decrypt a frame; raises :class:`AuthenticationError` on tamper."""
        if len(frame) < FRAME_OVERHEAD:
            raise CryptoError(
                f"frame too short: {len(frame)} bytes < overhead {FRAME_OVERHEAD}"
            )
        nonce = frame[:NONCE_SIZE]
        ciphertext = frame[NONCE_SIZE : len(frame) - TAG_SIZE]
        tag = frame[len(frame) - TAG_SIZE :]
        if self._fine:
            with self.tracer.fine_span("crypto.mac_verify", nbytes=len(frame)):
                expected = self._tag(nonce + ciphertext)
        else:
            expected = self._tag(nonce + ciphertext)
        if not hmac.compare_digest(expected, tag):
            raise AuthenticationError("page frame failed MAC verification")
        if self._fine:
            with self.tracer.fine_span("crypto.keystream", nbytes=len(ciphertext)):
                return self._keystream_xor(nonce, ciphertext, consult=True)
        return self._keystream_xor(nonce, ciphertext, consult=True)

    # -- batch pipeline -------------------------------------------------------

    def encrypt_pages(
        self,
        plaintexts: Sequence[bytes],
        nonces: Optional[Sequence[bytes]] = None,
    ) -> List[bytes]:
        """Encrypt a batch of payloads into frames.

        Nonces are drawn from the RNG in frame order, so
        ``encrypt_pages(batch)`` produces the same frames as the
        equivalent sequence of :meth:`encrypt_page` calls on the same RNG
        state — the batch only saves Python overhead, never changes bytes.
        """
        explicit = nonces is not None
        if nonces is None:
            nonces = [self._rng.token(NONCE_SIZE) for _ in plaintexts]
        else:
            if len(nonces) != len(plaintexts):
                raise CryptoError("need exactly one nonce per plaintext")
            for nonce in nonces:
                if len(nonce) != NONCE_SIZE:
                    raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
        if self._fine:
            with self.tracer.fine_span(
                "crypto.encrypt_batch", nbytes=sum(len(p) for p in plaintexts)
            ):
                return self._encrypt_batch(plaintexts, nonces, consult=explicit)
        return self._encrypt_batch(plaintexts, nonces, consult=explicit)

    def _encrypt_batch(
        self,
        plaintexts: Sequence[bytes],
        nonces: Sequence[bytes],
        consult: bool = False,
    ) -> List[bytes]:
        ciphertexts = self._transform_batch(nonces, plaintexts, consult=consult)
        return [
            nonce + ciphertext + self._tag(nonce + ciphertext)
            for nonce, ciphertext in zip(nonces, ciphertexts)
        ]

    def decrypt_pages(
        self, frames: Sequence[bytes], views: bool = False
    ) -> List[bytes]:
        """Verify and decrypt a batch of frames.

        Every MAC is checked before any failure is reported;
        :class:`AuthenticationError` carries the indices of *all* failing
        frames so one tampered frame cannot mask another.

        With ``views=True`` the plaintexts come back as zero-copy
        ``memoryview`` slices of one shared decrypt buffer instead of k
        separate ``bytes`` copies — the fused batch engine threads these
        straight through page decode, relocation and re-encryption.
        """
        if self._fine:
            with self.tracer.fine_span(
                "crypto.decrypt_batch", nbytes=sum(len(f) for f in frames)
            ):
                return self._decrypt_batch(frames, views=views)
        return self._decrypt_batch(frames, views=views)

    def _decrypt_batch(
        self, frames: Sequence[bytes], views: bool = False
    ) -> List[bytes]:
        nonces: List[bytes] = []
        ciphertexts: List[bytes] = []
        for frame in frames:
            if len(frame) < FRAME_OVERHEAD:
                raise CryptoError(
                    f"frame too short: {len(frame)} bytes < overhead "
                    f"{FRAME_OVERHEAD}"
                )
            nonces.append(frame[:NONCE_SIZE])
            ciphertexts.append(frame[NONCE_SIZE : len(frame) - TAG_SIZE])
        failed = [
            index for index, frame in enumerate(frames)
            if not hmac.compare_digest(
                self._tag(frame[: len(frame) - TAG_SIZE]),
                frame[len(frame) - TAG_SIZE :],
            )
        ]
        if failed:
            raise AuthenticationError(
                f"frame(s) {failed} of batch of {len(frames)} failed MAC "
                "verification"
            )
        return self._transform_batch(nonces, ciphertexts, consult=True,
                                     views=views)

    def _transform_batch(
        self,
        nonces: Sequence[bytes],
        payloads: Sequence[bytes],
        consult: bool = False,
        views: bool = False,
    ) -> List[bytes]:
        """XOR each payload with its frame keystream, batch-wide.

        The per-frame keystreams are concatenated and applied with one
        numpy XOR over the whole batch, then sliced back per frame.
        With ``consult`` the attached prefetch pipeline is asked for each
        frame's keystream first; only misses are computed inline.  On the
        aes backend all missing frames' counter blocks go through one
        fused :func:`~repro.crypto.modes.ctr_keystream_batch` kernel
        entry, which is what lets the vectorised lane engage even when
        each frame is only a handful of blocks.
        """
        if self.backend == "null" or not payloads:
            return list(payloads)
        streams: List[Optional[bytes]] = [None] * len(payloads)
        if consult and self.pipeline is not None:
            for index, (nonce, payload) in enumerate(zip(nonces, payloads)):
                streams[index] = self.pipeline.take(self, nonce, len(payload))
        missing = [index for index, s in enumerate(streams) if s is None]
        if missing:
            if self.backend == "aes":
                assert self._aes is not None
                fresh = ctr_keystream_batch(
                    self._aes,
                    [nonces[index] for index in missing],
                    [len(payloads[index]) for index in missing],
                )
                for index, keystream in zip(missing, fresh):
                    streams[index] = keystream
            else:
                for index in missing:
                    streams[index] = self._keystream(
                        nonces[index], len(payloads[index])
                    )
        mixed = _xor_bytes(b"".join(payloads), b"".join(streams))
        source = memoryview(mixed) if views else mixed
        out: List[bytes] = []
        offset = 0
        for payload in payloads:
            out.append(source[offset : offset + len(payload)])
            offset += len(payload)
        return out

    def frame_size(self, payload_size: int) -> int:
        """Size in bytes of an encrypted frame for a payload of ``payload_size``."""
        if payload_size < 0:
            raise CryptoError("payload size must be non-negative")
        return payload_size + FRAME_OVERHEAD
