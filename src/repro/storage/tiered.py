"""Hot/cold tiered page store: a memory tier fronting the slow disk.

The engine's round-robin schedule re-reads and rewrites the same block of
frames once per scan, and the online reshuffler (``shuffle/online.py``)
relocates a working set of frames far more often than the long tail.
:class:`TieredDiskStore` keeps that frequently-relocated working set in a
memory-backed **hot tier** in front of any cold store with the
:class:`~repro.storage.disk.DiskStore` interface (typically a
:class:`~repro.storage.filedisk.FileDiskStore`).

Privacy: the hot tier holds *ciphertext* frames in untrusted host memory —
exactly the bytes the cold disk would hold.  Every access still records the
same :class:`~repro.storage.trace.AccessEvent` (op, location, count) in the
same order, so the adversary-visible access *shape* is byte-identical with
and without the tier (Patel/Persiano/Yeo's observation that storage
placement may depend on public access metadata only); the tier changes
timing, never the sequence.

Consistency: writes are **write-through** — the cold store is updated
before the hot copy, so the hot tier never holds the only copy of a frame
and a crash can at worst lose *cache warmth*, never data.  Membership
changes (promotions and evictions) are appended to a small journal file so
a restart can re-warm the hot set from the cold store instead of starting
cold.

Counters (``tier.`` prefix): ``hit``/``miss`` count frames served from the
hot/cold tier, ``promote``/``evict`` count membership changes.
"""

from __future__ import annotations

import os
import struct
from collections import OrderedDict
from typing import List, Optional, Sequence

from .disk import DiskStore
from .timing import DiskTimingModel
from .trace import READ, WRITE, AccessEvent
from ..errors import ConfigurationError
from ..sim.metrics import CounterSet

__all__ = ["TieredDiskStore", "MEMORY_TIER_TIMING"]

# Memory-bandwidth timing for hot hits on the virtual clock: no seek, and
# transfer at DRAM-copy rather than disk rates.  Cold accesses keep the
# cold store's own model, so the virtual-time win of a hit is explicit.
MEMORY_TIER_TIMING = DiskTimingModel(
    seek_time=0.0, read_bandwidth=10e9, write_bandwidth=10e9
)

# Journal record: one membership change per record.
_REC = struct.Struct(">BQ")
_OP_PROMOTE = 1
_OP_EVICT = 2


class TieredDiskStore:
    """LRU memory tier over a cold store, write-through, trace-preserving.

    Drop-in for the engine-facing :class:`DiskStore` interface (the same
    wrapper contract as :class:`~repro.faults.wrappers.FaultyDiskStore`).

    Parameters
    ----------
    cold:
        The authoritative store.  Always holds every committed frame.
    hot_capacity:
        Maximum frames resident in the hot tier (LRU eviction beyond it).
    hot_timing:
        Virtual-clock model charged for hot hits; defaults to
        :data:`MEMORY_TIER_TIMING`.
    journal_path:
        Optional path for the membership journal.  When the file already
        exists its surviving prefix is replayed and the hot set re-warmed
        from the cold store (torn trailing records are discarded, the
        same tail-trust rule as the replication backlog).
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` the
        ``tier.*`` counters are published to.
    """

    def __init__(
        self,
        cold: DiskStore,
        hot_capacity: int,
        hot_timing: Optional[DiskTimingModel] = None,
        journal_path: Optional[str] = None,
        metrics=None,
    ):
        if hot_capacity <= 0:
            raise ConfigurationError("hot tier needs a positive capacity")
        self.cold = cold
        self.hot_capacity = hot_capacity
        self.hot_timing = hot_timing if hot_timing is not None else MEMORY_TIER_TIMING
        self.counters = CounterSet(registry=metrics, prefix="tier.")
        self._hot: "OrderedDict[int, bytes]" = OrderedDict()
        self._journal_path = journal_path
        self._journal_file = None
        self._journal_records = 0
        self._closed = False
        if journal_path is not None:
            self._warm_from_journal(journal_path)
            self._journal_file = open(journal_path, "ab")

    # -- passthrough metadata --------------------------------------------------

    @property
    def inner(self):
        return self.cold

    @property
    def num_locations(self) -> int:
        return self.cold.num_locations

    @property
    def frame_size(self) -> int:
        return self.cold.frame_size

    @property
    def timing(self):
        return self.cold.timing

    @property
    def trace(self):
        return self.cold.trace

    @property
    def clock(self):
        return self.cold.clock

    @property
    def tracer(self):
        return self.cold.tracer

    @property
    def current_request(self) -> int:
        return self.cold.current_request

    @current_request.setter
    def current_request(self, value: int) -> None:
        self.cold.current_request = value

    @property
    def hot_frames(self) -> int:
        """Frames currently resident in the hot tier."""
        return len(self._hot)

    def hit_rate(self) -> float:
        """Fraction of read frames served from the hot tier so far."""
        hits = self.counters.get("hit")
        total = hits + self.counters.get("miss")
        return hits / total if total else 0.0

    # -- membership journal ----------------------------------------------------

    def _warm_from_journal(self, path: str) -> None:
        if not os.path.exists(path):
            return
        with open(path, "rb") as handle:
            blob = handle.read()
        usable = len(blob) - len(blob) % _REC.size
        members: "OrderedDict[int, None]" = OrderedDict()
        for offset in range(0, usable, _REC.size):
            op, location = _REC.unpack_from(blob, offset)
            if op == _OP_PROMOTE and 0 <= location < self.num_locations:
                members[location] = None
                members.move_to_end(location)
            elif op == _OP_EVICT:
                members.pop(location, None)
            # Unknown ops are skipped: the journal is advisory warmth, so
            # a future format extension must not brick old readers.
        for location in members:
            frame = self.cold.peek(location)
            if frame is not None:
                self._hot[location] = frame
        while len(self._hot) > self.hot_capacity:
            self._hot.popitem(last=False)
        # Rewrite compactly: the replayed history collapses to one promote
        # per surviving member, which also drops any torn tail on disk.
        with open(path, "wb") as handle:
            for location in self._hot:
                handle.write(_REC.pack(_OP_PROMOTE, location))
            handle.flush()
            os.fsync(handle.fileno())
        self._journal_records = len(self._hot)

    def _journal(self, op: int, location: int) -> None:
        if self._journal_file is None:
            return
        self._journal_file.write(_REC.pack(op, location))
        self._journal_records += 1
        # Compact once the log is dominated by dead churn; the live state
        # is at most hot_capacity promotes.
        if self._journal_records > max(64, 8 * self.hot_capacity):
            self._journal_file.flush()
            self._journal_file.close()
            with open(self._journal_path, "wb") as handle:
                for member in self._hot:
                    handle.write(_REC.pack(_OP_PROMOTE, member))
            self._journal_file = open(self._journal_path, "ab")
            self._journal_records = len(self._hot)

    # -- tier maintenance ------------------------------------------------------

    def _promote(self, location: int, frame: bytes) -> None:
        if location in self._hot:
            self._hot[location] = frame
            self._hot.move_to_end(location)
            return
        self._hot[location] = frame
        self.counters.increment("promote")
        self._journal(_OP_PROMOTE, location)
        while len(self._hot) > self.hot_capacity:
            victim, _ = self._hot.popitem(last=False)
            self.counters.increment("evict")
            self._journal(_OP_EVICT, victim)

    # -- access ----------------------------------------------------------------

    def read(self, location: int) -> bytes:
        return self.read_range(location, 1)[0]

    def read_range(self, location: int, count: int) -> List[bytes]:
        span = range(location, location + count)
        if all(loc in self._hot for loc in span):
            # Hot hit: same trace event, memory-tier timing.
            self.cold._check_range(location, count)
            nbytes = count * self.frame_size
            with self.tracer.span("tier.hot_read", nbytes=nbytes):
                self.clock.advance(self.hot_timing.read_time(nbytes))
                frames = [self._hot[loc] for loc in span]
                for loc in span:
                    self._hot.move_to_end(loc)
                self.trace.record(
                    AccessEvent(READ, location, count, self.current_request,
                                self.clock.now)
                )
            self.counters.increment("hit", count)
            return frames
        frames = self.cold.read_range(location, count)
        self.counters.increment("miss", count)
        for loc, frame in zip(span, frames):
            self._promote(loc, frame)
        return frames

    def write(self, location: int, frame: bytes) -> None:
        self.write_range(location, [frame])

    def write_range(self, location: int, frames: Sequence[bytes]) -> None:
        # Write-through: cold first (authoritative, charges + traces), then
        # refresh the hot copies so subsequent reads hit.
        self.cold.write_range(location, frames)
        for offset, frame in enumerate(frames):
            self._promote(location + offset, bytes(frame))

    # -- request-granular access -------------------------------------------------

    def read_request(
        self, block_start: int, count: int, extra_location: int
    ) -> "tuple[List[bytes], bytes]":
        frames = self.read_range(block_start, count)
        extra = self.read(extra_location)
        return frames, extra

    def write_request(
        self,
        block_start: int,
        frames: Sequence[bytes],
        extra_location: int,
        extra_frame: bytes,
    ) -> None:
        self.write_range(block_start, frames)
        self.write(extra_location, extra_frame)

    # -- adversary-side helpers --------------------------------------------------

    def peek(self, location: int) -> Optional[bytes]:
        return self.cold.peek(location)

    def initialised_locations(self) -> int:
        return self.cold.initialised_locations()

    # -- lifecycle ---------------------------------------------------------------

    def flush(self) -> None:
        if self._journal_file is not None and not self._closed:
            self._journal_file.flush()
            os.fsync(self._journal_file.fileno())
        flush = getattr(self.cold, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._journal_file is not None:
            self._journal_file.flush()
            os.fsync(self._journal_file.fileno())
            self._journal_file.close()
        close = getattr(self.cold, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "TieredDiskStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
