"""Online background re-permutation: the Batcher sort, without the stall.

The setup-time oblivious shuffle (:mod:`repro.shuffle.oblivious`) is an
offline, stop-the-world event — O(n log² n) compare-exchanges during which
the database serves nothing.  That is acceptable once, at build time; it is
exactly the downtime failure mode the paper's §1 criticises when it recurs
at every reshuffle/key-rotation epoch.  :class:`OnlineReshuffler` executes
the *same* comparator network incrementally: a bounded budget of
compare-exchanges per idle slot (the keystream pipeline's idle-time trick,
PR 4, applied to I/O), interleaved with live serving under the engine's
``op_lock``.

Epoch structure — each epoch performs two phases over one logical frontier:

1. **Sort phase** (units ``0 .. network_size(n)``): the comparators of
   Batcher's odd-even merge network, in network order, each comparing the
   secret per-epoch PRF tags of the two resident pages and swapping on
   demand.  Both frames are always rewritten with fresh nonces, so
   swap/no-swap is invisible — identical to the setup sort.
2. **Refresh sweep** (units ``network_size(n) .. +n``): one sequential
   reseal of every location.  The sweep guarantees *every* frame carries a
   fresh post-epoch encryption even where the network's comparator set is
   sparse (non-power-of-two n), which is what lets a piggybacked key
   rotation drop the legacy key at epoch end.

Serving interleaves freely between comparator batches: the page map is
updated transactionally with each batch, so a read always resolves through
the current (old-or-new, depending on the frontier) location — the
"epoch-aware page map".  The privacy argument (why the interleaved access
sequence leaks nothing, and why serving perturbation mid-sort still yields
a fresh secret permutation) is recorded in DESIGN.md §15.

Crash consistency mirrors the engine's compute → intend → apply: each batch
seals a :class:`ReshuffleIntent` (all rewritten frames + the page-map
delta + the frontier advance) into the reshuffler's *own* journal slot
(never the engine's — their recovery state machines are independent),
applies it, then clears the slot.  :meth:`OnlineReshuffler.recover` rolls a
torn batch forward after a restart; a transiently failed batch apply is
retained and healed before the next engine request computes, exactly like a
failed request write-back.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .oblivious import batcher_network, network_size
from ..core.journal import RecordCursor
from ..errors import (
    AuthenticationError,
    ConfigurationError,
    CryptoError,
    RecoveryError,
    ReproError,
    StorageError,
)
from ..obs.tracer import NULL_TRACER
from ..sim.metrics import CounterSet

__all__ = ["OnlineReshuffler", "ReshuffleIntent", "TAG_KEY_SIZE"]

_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")

_INTENT_MAGIC = b"RSH1"
_STATE_MAGIC = b"RSS1"

TAG_KEY_SIZE = 32
_TAG_SIZE = 16

_DEFAULT_BATCH = 16
_DEFAULT_IDLE_SECONDS = 0.001
_JOIN_TIMEOUT = 5.0


def _tag(epoch_key: bytes, page_id: int) -> bytes:
    """The secret per-epoch sort key of one page: PRF(epoch_key, page_id).

    Computing tags on demand (keyed BLAKE2b) instead of storing them means
    the trusted side holds O(1) tag state for the whole epoch, and the
    sort's comparisons stay a pure function of (epoch key, page id) — which
    is what makes a crash-interrupted epoch resumable.
    """
    return hashlib.blake2b(
        _U64.pack(page_id), digest_size=_TAG_SIZE, key=epoch_key
    ).digest()


@dataclass
class ReshuffleIntent:
    """Redo record for one comparator (or sweep) batch; absolute values only."""

    epoch: int
    frontier_before: int
    frontier_after: int
    locations: List[int] = field(default_factory=list)
    frames: List[bytes] = field(default_factory=list)
    map_ops: List[Tuple[int, int]] = field(default_factory=list)

    def encode(self) -> bytes:
        parts: List[bytes] = [
            _INTENT_MAGIC,
            _U64.pack(self.epoch),
            _U64.pack(self.frontier_before),
            _U64.pack(self.frontier_after),
            _U32.pack(len(self.locations)),
        ]
        parts += [_U64.pack(location) for location in self.locations]
        parts.append(_U32.pack(len(self.map_ops)))
        for page_id, location in self.map_ops:
            parts.append(_U64.pack(page_id))
            parts.append(_U64.pack(location))
        parts.append(_U32.pack(len(self.frames)))
        for frame in self.frames:
            parts.append(_U32.pack(len(frame)))
            parts.append(frame)
        return b"".join(parts)

    @classmethod
    def decode(cls, blob: bytes) -> "ReshuffleIntent":
        if bytes(blob[:4]) != _INTENT_MAGIC:
            raise StorageError("reshuffle record has a bad magic number")
        cursor = RecordCursor(blob, offset=4)
        intent = cls(
            epoch=cursor.take(_U64),
            frontier_before=cursor.take(_U64),
            frontier_after=cursor.take(_U64),
        )
        intent.locations = [
            cursor.take(_U64) for _ in range(cursor.take(_U32))
        ]
        for _ in range(cursor.take(_U32)):
            page_id = cursor.take(_U64)
            intent.map_ops.append((page_id, cursor.take(_U64)))
        for _ in range(cursor.take(_U32)):
            intent.frames.append(cursor.take_bytes(cursor.take(_U32)))
        cursor.expect_end("reshuffle record")
        if len(intent.frames) != len(intent.locations):
            raise StorageError("reshuffle record frame/location mismatch")
        return intent


class OnlineReshuffler:
    """Incremental Batcher driver over a live :class:`PirDatabase`.

    Foreground use: ``begin()`` then ``step()`` (one bounded batch per
    call, typically between serving bursts) or ``run()`` (to completion).
    Background use: ``start()`` spawns a daemon worker that steps whenever
    an epoch is active, yielding ``idle_interval`` seconds between batches
    so serving threads acquire the op lock promptly.

    ``journal`` is the reshuffler's own single-slot intent journal (any
    ``write``/``read``/``clear`` object).  It must never alias the
    engine's: each recovery state machine treats a foreign record as torn
    and clears it.
    """

    def __init__(
        self,
        database,
        batch_size: int = _DEFAULT_BATCH,
        journal=None,
        idle_interval: float = _DEFAULT_IDLE_SECONDS,
        metrics=None,
        tracer=None,
    ):
        if batch_size <= 0:
            raise ConfigurationError("reshuffle batch size must be positive")
        if journal is not None and journal is database.engine.journal:
            raise ConfigurationError(
                "the reshuffler needs its own journal slot; sharing the "
                "engine's would make each recovery clear the other's records"
            )
        self.db = database
        self.engine = database.engine
        self.cop = database.cop
        self.batch_size = batch_size
        self.journal = journal
        self.idle_interval = idle_interval
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        # Like the epoch counter below, the counters are database-global:
        # each epoch's driver reuses the set its predecessor published to
        # the same registry, so a server running epochs for days keeps one
        # published reshuffle set, not one per epoch.
        stash = getattr(database, "_reshuffle_counters", None)
        if stash is None or stash[0] is not metrics:
            stash = (metrics, CounterSet(registry=metrics,
                                         prefix="reshuffle."))
            database._reshuffle_counters = stash
        self.counters = stash[1]
        self._gauge = metrics.gauge("reshuffle.progress") if metrics else None

        n = self.engine.params.num_locations
        self._network = network_size(n)
        self._total = self._network + n

        # Epoch state; mutated only under the engine op lock.  The epoch
        # counter is *database-global* (stashed on the database object),
        # not per-driver: a fresh driver restarting at epoch 1 would spawn
        # the same "reshuffle-epoch-1" sibling label as its predecessor
        # and replay that nonce stream against the same master key.
        self._epoch = int(getattr(database, "_reshuffle_epoch_base", 0))
        self._frontier = 0
        self._active = False
        self._rotate_pending = False
        self._epoch_key = b""
        # Comparator stream cache: iterator + how many comparators it has
        # yielded.  _comparator_slice validates that position against the
        # frontier on every use, so which comparators a batch executes is
        # a pure function of the frontier — never of iterator history.
        self._comparators: Optional[Iterator[Tuple[int, int]]] = None
        self._comparators_pos = 0
        # Independent nonce stream for background reseals (same derived
        # keys as the engine's suite, so its frames decrypt normally).
        self._suite = None
        self._key_rng = self.cop.rng.spawn("reshuffle-keys")
        self._pending: Optional[ReshuffleIntent] = None

        # Background worker plumbing (the keystream pipeline's shape).
        self._wake = threading.Condition()
        self._closed = False
        self._worker: Optional[threading.Thread] = None

        # A transiently failed batch apply must be rolled forward before
        # the *engine* computes against the half-updated map, not merely
        # before the next reshuffle step — so the engine heals us too.
        self.engine._background_healers.append(self._heal_pending)

    # -- introspection ---------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while an epoch is in progress (frontier < total units)."""
        return self._active

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def frontier(self) -> int:
        """Units completed this epoch: comparators first, then sweep slots."""
        return self._frontier

    @property
    def total_units(self) -> int:
        """Units in one full epoch: network_size(n) comparators + n sweeps."""
        return self._total

    @property
    def progress(self) -> float:
        """Fraction of the current epoch completed (1.0 when idle/done)."""
        if not self._active:
            return 1.0
        return self._frontier / self._total if self._total else 1.0

    @property
    def write_back_pending(self) -> bool:
        return self._pending is not None

    @property
    def journal_pending(self) -> bool:
        return self.journal is not None and self.journal.read() is not None

    # -- epoch control ---------------------------------------------------------

    def begin(self, rotate_to: Optional[bytes] = None) -> int:
        """Start a new re-permutation epoch; returns its epoch number.

        ``rotate_to`` piggybacks a key rotation on the pass: sealing (both
        the engine's and the reshuffler's) switches to the new master key
        immediately, the legacy key keeps old frames readable, and the
        epoch's refresh sweep guarantees every location is re-encrypted —
        so the legacy key is dropped exactly when the epoch completes,
        independent of serving traffic volume.
        """
        with self.engine.op_lock:
            if self._active:
                raise ConfigurationError(
                    f"epoch {self._epoch} is still in progress"
                )
            if rotate_to is not None:
                # Directly on the coprocessor, not engine.begin_key_rotation:
                # completion is tied to the epoch sweep, not to the engine's
                # request countdown.
                self.cop.begin_key_rotation(rotate_to)
                self._rotate_pending = True
            self._epoch += 1
            self.db._reshuffle_epoch_base = self._epoch
            self._frontier = 0
            self._epoch_key = self._key_rng.token(TAG_KEY_SIZE)
            # Per-epoch spawn label: reusing a label would replay the same
            # nonce stream against the same key — never acceptable.
            self._suite = self.cop.sibling_suite(
                f"reshuffle-epoch-{self._epoch}"
            )
            self._comparators = None
            self._comparators_pos = 0
            self._active = True
            self._set_gauge()
            self.counters.increment("epochs.begun")
        with self._wake:
            self._wake.notify_all()
        return self._epoch

    def set_pacing(self, batch_size: Optional[int] = None,
                   idle_interval: Optional[float] = None) -> None:
        """Adjust the worker's pacing mid-epoch (thread-safe).

        ``batch_size`` bounds how long each batch holds the op lock;
        ``idle_interval`` is the yield between batches.  Pacing only
        changes *when* comparators run, never *which*: the comparator
        stream is a pure function of the frontier (see
        :meth:`_comparator_slice`), so a pacing change can re-slice the
        epoch's unit sequence but not reorder it.  The worker is woken so
        a lower idle interval takes effect immediately rather than after
        the current (possibly long) sleep.
        """
        if batch_size is not None and batch_size <= 0:
            raise ConfigurationError("reshuffle batch size must be positive")
        if idle_interval is not None and idle_interval < 0:
            raise ConfigurationError("idle interval must be non-negative")
        with self._wake:
            if batch_size is not None:
                self.batch_size = batch_size
            if idle_interval is not None:
                self.idle_interval = idle_interval
            self._wake.notify_all()

    def step(self, budget: Optional[int] = None) -> int:
        """Execute up to ``budget`` units (default ``batch_size``) as one
        journaled batch; returns the number of units done (0 when idle).

        Holds the engine op lock for the duration of the batch — the
        bounded budget is what bounds a concurrent request's wait.
        """
        if budget is None:
            budget = self.batch_size
        if budget <= 0:
            raise ConfigurationError("step budget must be positive")
        with self.engine.op_lock:
            if not self._active:
                return 0
            # Both write-back state machines must be consistent before we
            # read frames: ours (a previous batch) and the engine's (a
            # previous request).
            self.engine._heal_pending()

            start = self._frontier
            end = min(start + budget, self._total)
            units: List[object] = []
            if start < self._network:
                units.extend(self._comparator_slice(
                    start, min(end, self._network) - start
                ))
            units.extend(
                unit - self._network
                for unit in range(max(start, self._network), end)
            )
            if not units:
                return 0

            with self.tracer.span("reshuffle.batch"):
                intent = self._compute_batch(start, units)
                if self.journal is not None:
                    self.journal.write(self._suite.encrypt_page(
                        intent.encode()
                    ))
                self._apply(intent)
                if self.journal is not None:
                    self.journal.clear()
            self.counters.increment("batches")
            return len(units)

    def run(self, max_steps: Optional[int] = None) -> int:
        """Step the current epoch to completion in the foreground.

        Returns the number of units executed.  ``max_steps`` bounds the
        number of batches (for interleaving with a serving loop by hand).
        """
        done = 0
        steps = 0
        while self._active:
            if max_steps is not None and steps >= max_steps:
                break
            did = self.step()
            if did == 0:
                break
            done += did
            steps += 1
        return done

    # -- batch construction ----------------------------------------------------

    def _comparator_slice(self, start: int, count: int) -> List[Tuple[int, int]]:
        """Comparators ``[start, start + count)`` of the epoch's network.

        The cached iterator remembers how many comparators it has yielded;
        whenever that position disagrees with the requested ``start`` — a
        journal replay or heal advanced the frontier without consuming
        units, or a failed compute/journal phase consumed units without
        advancing the frontier — the iterator is re-derived from the
        public network at the frontier.  Every batch therefore executes
        exactly the comparators its frontier range describes: retries
        re-run the same units, replays never shift the stream, and the
        network's tail always runs — the canonical Batcher order the
        epoch's privacy argument (DESIGN.md §15) depends on.
        """
        if self._comparators is None or self._comparators_pos != start:
            self._comparators = itertools.islice(
                batcher_network(self.engine.params.num_locations),
                start, None,
            )
            self._comparators_pos = start
        out = list(itertools.islice(self._comparators, count))
        self._comparators_pos += len(out)
        return out

    def _compute_batch(self, frontier: int, units: List[object]) -> ReshuffleIntent:
        """Compute phase: read, compare, reseal — no state mutated.

        The set of touched locations is a pure function of (n, frontier,
        budget): comparator index pairs come from the public network, sweep
        indices are sequential.  Whether a comparator swapped is hidden the
        same way as at setup — both frames are always rewritten fresh.
        """
        disk = self.engine.disk
        touched: List[int] = []
        pages: Dict[int, object] = {}

        def load(location: int) -> None:
            if location not in pages:
                touched.append(location)
                pages[location] = self.cop.unseal(disk.read(location))

        for unit in units:
            if isinstance(unit, tuple):
                i, j = unit
                load(i)
                load(j)
                tag_i = _tag(self._epoch_key, pages[i].page_id)
                tag_j = _tag(self._epoch_key, pages[j].page_id)
                if tag_i > tag_j:
                    pages[i], pages[j] = pages[j], pages[i]
            else:
                load(unit)

        capacity = self.cop.page_capacity
        frames = [
            self._suite.encrypt_page(pages[loc].encode(capacity))
            for loc in touched
        ]
        map_ops = [(pages[loc].page_id, loc) for loc in touched]
        comparators = sum(1 for unit in units if isinstance(unit, tuple))
        self.counters.increment("comparators", comparators)
        self.counters.increment("sweeps", len(units) - comparators)
        return ReshuffleIntent(
            epoch=self._epoch,
            frontier_before=frontier,
            frontier_after=frontier + len(units),
            locations=touched,
            frames=frames,
            map_ops=map_ops,
        )

    def _apply(self, intent: ReshuffleIntent) -> None:
        """Apply phase: idempotent, replayable from the sealed record."""
        disk = self.engine.disk
        pm = self.cop.page_map
        try:
            with self.tracer.span(
                "reshuffle.write_back",
                nbytes=len(intent.frames) * disk.frame_size,
            ):
                for location, frame in zip(intent.locations, intent.frames):
                    disk.write(location, frame)
        except Exception:
            # Partial write-back: some locations carry post-swap frames the
            # map does not describe yet.  Retain the intent; the engine's
            # heal (and ours) re-applies it before anything reads those
            # locations — the op lock is held throughout, so no request
            # can slip in between the failure and the heal.
            self._pending = intent
            raise
        for page_id, location in intent.map_ops:
            pm.set_disk(page_id, location)
        # Registered under the engine's suite identity: the sibling suite
        # shares its derived keys, so the decrypt keystream is the same
        # pure function of (key, nonce) either way.
        self.cop.note_frames_written(intent.locations, intent.frames)
        self._pending = None
        self._frontier = intent.frontier_after
        self._set_gauge()
        if intent.frontier_after >= self._total:
            self._finish_epoch()

    def _finish_epoch(self) -> None:
        self._active = False
        if self._rotate_pending:
            # The sweep just re-encrypted every location under the new
            # key (and the cache/journal never hold legacy ciphertexts
            # past their next write), so the legacy key is dead weight.
            self.cop.finish_key_rotation()
            self._rotate_pending = False
        self.counters.increment("epochs")
        self._set_gauge()

    def _heal_pending(self) -> None:
        """Roll forward a batch whose write-back failed without a crash."""
        intent = self._pending
        if intent is None:
            return
        self._apply(intent)
        if self.journal is not None:
            self.journal.clear()
        self.counters.increment("recovery.rolled_forward")

    def _set_gauge(self) -> None:
        if self._gauge is not None:
            self._gauge.set(self.progress)

    # -- crash recovery --------------------------------------------------------

    def recover(self) -> str:
        """Repair a torn comparator batch after a restart; idempotent.

        Call after the engine's own :meth:`~RetrievalEngine.recover` (their
        journals are independent; order only matters for who sets
        ``disk.current_request`` last) and — after a restart — after
        :meth:`restore_state` / :func:`~repro.core.snapshot.resume_reshuffle`
        has re-adopted the epoch.  Returns one of ``"clean"``,
        ``"rolled_back"``, ``"replayed"``, ``"discarded_stale"`` with the
        engine's semantics.  Raises :class:`~repro.errors.RecoveryError`
        when the journal is *ahead* of (or unmatched by) the trusted
        state — e.g. recover() before the sidecar restore: the record is
        the only roll-forward for a possibly torn batch, so it is retained
        rather than discarded.
        """
        with self.engine.op_lock:
            if self.journal is None:
                if self._pending is not None:
                    self._heal_pending()
                    return "replayed"
                return "clean"
            blob = self.journal.read()
            if blob is None:
                self._pending = None
                return "clean"
            try:
                intent = ReshuffleIntent.decode(self._unseal_record(blob))
            except (CryptoError, StorageError):
                # Torn or unauthentic: the crash hit while the record was
                # being written, so the batch never applied anything.
                self.journal.clear()
                self._pending = None
                self.counters.increment("recovery.rolled_back")
                return "rolled_back"
            if intent.epoch < self._epoch or (
                intent.epoch == self._epoch
                and intent.frontier_after <= self._frontier
            ):
                # Strictly behind the trusted state: a later epoch's
                # boundary (or this epoch's own apply) already made the
                # record moot.
                self.journal.clear()
                self.counters.increment("recovery.discarded_stale")
                return "discarded_stale"
            if intent.epoch > self._epoch or not self._active:
                # Ahead of (or unmatched by) the trusted state — e.g.
                # recover() ran before restore_state().  A torn batch may
                # have left half-written frames this record alone can roll
                # forward, so refuse instead of discarding it.
                raise RecoveryError(
                    f"reshuffle journal holds a record for epoch "
                    f"{intent.epoch} (frontier {intent.frontier_before}->"
                    f"{intent.frontier_after}) but the trusted state is at "
                    f"epoch {self._epoch}"
                    + ("" if self._active else " with no active epoch")
                    + "; restore the snapshot sidecar (resume_reshuffle) "
                    "before recover() — clearing the record would lose the "
                    "only roll-forward for a torn batch"
                )
            if intent.frontier_before != self._frontier:
                raise RecoveryError(
                    f"reshuffle journal describes frontier "
                    f"{intent.frontier_before} but the restored epoch is at "
                    f"{self._frontier}; the trusted state is older than the "
                    "journal and cannot be rolled forward"
                )
            self._apply(intent)
            self.journal.clear()
            self.counters.increment("recovery.replayed")
            return "replayed"

    def _unseal_record(self, blob: bytes) -> bytes:
        if self._suite is not None:
            try:
                return self._suite.decrypt_page(blob)
            except AuthenticationError:
                pass
        # Same master key, different suite object (e.g. after a restore):
        # the coprocessor's blob path verifies under current-or-legacy keys.
        return self.cop.unseal_blob(blob)

    # -- snapshot integration --------------------------------------------------

    def state_blob(self) -> bytes:
        """Serialised epoch state for a snapshot sidecar (seal before store:
        the epoch key is the permutation's secret)."""
        return b"".join([
            _STATE_MAGIC,
            _U64.pack(self._epoch),
            _U64.pack(self._frontier),
            bytes([1 if self._active else 0]),
            bytes([1 if self._rotate_pending else 0]),
            _U32.pack(len(self._epoch_key)),
            self._epoch_key,
        ])

    def restore_state(self, blob: bytes) -> None:
        """Adopt epoch state saved by :meth:`state_blob` on another replica.

        Re-positions the comparator iterator at the saved frontier (the
        network is deterministic in n) so the epoch resumes mid-sort —
        the warm-replica bootstrap path that joins without a cold shuffle.
        """
        if bytes(blob[:4]) != _STATE_MAGIC:
            raise StorageError("reshuffle state blob has a bad magic number")
        cursor = RecordCursor(blob, offset=4)
        epoch = cursor.take(_U64)
        frontier = cursor.take(_U64)
        active = cursor.take_byte() != 0
        rotate_pending = cursor.take_byte() != 0
        epoch_key = cursor.take_bytes(cursor.take(_U32))
        cursor.expect_end("reshuffle state blob")
        if frontier > self._total:
            raise StorageError(
                f"reshuffle state frontier {frontier} exceeds epoch size "
                f"{self._total}"
            )
        with self.engine.op_lock:
            self._epoch = epoch
            self._frontier = frontier
            self._active = active
            self._rotate_pending = rotate_pending
            self._epoch_key = epoch_key
            # Later begin() calls must continue the database-global epoch
            # numbering from the restored epoch: a fresh driver restarting
            # at epoch 1 would respawn this epoch's sibling labels and
            # replay their nonce streams against the same master key.
            self.db._reshuffle_epoch_base = epoch
            # Distinct spawn label per resume: (epoch, frontier) alone is
            # not unique — two resumes from the same sidecar land on the
            # same frontier with different frame contents — so a database-
            # global monotonic resume counter is mixed in, keeping every
            # resume's nonce stream disjoint from the pre-crash suite's
            # and from every earlier resume's.
            resume_seq = getattr(self.db, "_reshuffle_resume_seq", 0) + 1
            self.db._reshuffle_resume_seq = resume_seq
            self._suite = self.cop.sibling_suite(
                f"reshuffle-epoch-{epoch}-resume-{resume_seq}-{frontier}"
            )
            self._comparators = None
            self._comparators_pos = 0
            self._set_gauge()
        if active:
            with self._wake:
                self._wake.notify_all()

    # -- background worker -----------------------------------------------------

    def start(self) -> "OnlineReshuffler":
        """Spawn the daemon worker (idempotent while one is alive)."""
        with self._wake:
            if self._closed:
                raise ConfigurationError("reshuffler is closed")
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(
                    target=self._worker_loop, name="online-reshuffle",
                    daemon=True,
                )
                self._worker.start()
        return self

    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                if self._closed:
                    return
                if not self._active:
                    self._wake.wait(timeout=0.2)
                    continue
            try:
                did = self.step()
            except ReproError:
                # A transient batch failure: the intent is retained and
                # healed on the next step (or engine request).  Surfacing
                # it here would kill the worker over a recoverable fault.
                self.counters.increment("worker.errors")
                did = 0
            with self._wake:
                if self._closed:
                    return
                # The idle slot: yield so serving threads take the op lock
                # without queueing behind back-to-back batches.
                timeout = self.idle_interval if did else 0.05
                self._wake.wait(timeout=timeout)

    def close(self) -> None:
        """Stop the worker and detach from the engine (idempotent).

        Epoch state is left as-is: a half-finished epoch simply stays at
        its frontier (snapshot it, or reopen a driver and resume).
        """
        with self._wake:
            already = self._closed
            self._closed = True
            self._wake.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=_JOIN_TIMEOUT)
            self._worker = None
        if not already:
            try:
                self.engine._background_healers.remove(self._heal_pending)
            except ValueError:
                pass
