"""Hot/cold tiered storage: write-through, LRU, trace shape, re-warm."""

from __future__ import annotations

import os

import pytest

from tests.helpers import make_db
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import VirtualClock
from repro.storage.disk import DiskStore
from repro.storage.tiered import MEMORY_TIER_TIMING, TieredDiskStore
from repro.storage.timing import DiskTimingModel
from repro.storage.trace import AccessTrace


def same_shape(a, b):
    """Byte-identical adversary view: op, location, count, event for event."""
    return [(e.op, e.location, e.count) for e in a] == \
        [(e.op, e.location, e.count) for e in b]

FRAME = 64
SLOW = DiskTimingModel(seek_time=0.004, read_bandwidth=100e6,
                       write_bandwidth=80e6)


def make_cold(n=16, trace=None, clock=None):
    return DiskStore(
        num_locations=n, frame_size=FRAME, timing=SLOW,
        clock=clock or VirtualClock(),
        trace=trace if trace is not None else AccessTrace(),
    )


def frame_of(byte):
    return bytes([byte]) * FRAME


class TestTieredBasics:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            TieredDiskStore(make_cold(), hot_capacity=0)

    def test_write_through_cold_is_authoritative(self):
        tier = TieredDiskStore(make_cold(), hot_capacity=4)
        tier.write(3, frame_of(7))
        assert tier.cold.peek(3) == frame_of(7)
        assert tier.peek(3) == frame_of(7)
        assert tier.hot_frames == 1

    def test_read_miss_promotes_then_hits(self):
        tier = TieredDiskStore(make_cold(), hot_capacity=4)
        tier.cold.write(5, frame_of(9))  # behind the tier's back
        tier._hot.clear()
        assert tier.read(5) == frame_of(9)
        assert tier.counters.get("miss") == 1
        assert tier.read(5) == frame_of(9)
        assert tier.counters.get("hit") == 1
        assert tier.hit_rate() == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        tier = TieredDiskStore(make_cold(), hot_capacity=2)
        tier.write(0, frame_of(1))
        tier.write(1, frame_of(2))
        tier.read(0)  # 0 becomes most recent; 1 is now LRU
        tier.write(2, frame_of(3))
        assert tier.counters.get("evict") == 1
        assert set(tier._hot) == {0, 2}
        # The evicted frame is still served, from cold.
        assert tier.read(1) == frame_of(2)

    def test_partial_hot_range_goes_cold(self):
        tier = TieredDiskStore(make_cold(), hot_capacity=8)
        tier.write(0, frame_of(1))
        tier.cold.write(1, frame_of(2))
        tier._hot.pop(1, None)
        frames = tier.read_range(0, 2)
        assert frames == [frame_of(1), frame_of(2)]
        # One loc was missing: the whole range is charged as a cold miss.
        assert tier.counters.get("miss") == 2

    def test_metrics_registry_mirroring(self):
        metrics = MetricsRegistry()
        tier = TieredDiskStore(make_cold(), hot_capacity=2, metrics=metrics)
        tier.write(0, frame_of(1))
        tier.read(0)
        assert metrics.count("tier.promote") == 1
        assert metrics.count("tier.hit") == 1


class TestTraceAndTiming:
    def test_trace_shape_identical_with_and_without_tier(self):
        plain_trace, tier_trace = AccessTrace(), AccessTrace()
        plain = make_cold(trace=plain_trace)
        tier = TieredDiskStore(make_cold(trace=tier_trace), hot_capacity=4)
        for store in (plain, tier):
            store.write_range(0, [frame_of(1), frame_of(2)])
            store.read_range(0, 2)   # hot hit on the tier
            store.read(1)            # hot hit
            store.write_range(2, [frame_of(3), frame_of(4)])
            store.read_range(1, 3)   # spans hot and hot: still one event
            store.read(3)
        assert same_shape(plain_trace, tier_trace)

    def test_hot_hit_is_cheaper_on_the_virtual_clock(self):
        clock_cold, clock_hot = VirtualClock(), VirtualClock()
        cold_only = make_cold(clock=clock_cold)
        tier = TieredDiskStore(make_cold(clock=clock_hot), hot_capacity=4)
        cold_only.write(0, frame_of(1))
        tier.write(0, frame_of(1))
        t0_cold, t0_hot = clock_cold.now, clock_hot.now
        cold_only.read(0)
        tier.read(0)  # hot hit
        assert clock_hot.now - t0_hot < clock_cold.now - t0_cold
        # ... but virtual time still advances (memory is not free).
        assert clock_hot.now > t0_hot
        assert MEMORY_TIER_TIMING.seek_time == 0.0


class TestMembershipJournal:
    def test_rewarm_after_restart(self, tmp_path):
        path = str(tmp_path / "tier.jnl")
        cold = make_cold()
        tier = TieredDiskStore(cold, hot_capacity=3, journal_path=path)
        for loc in range(5):
            tier.write(loc, frame_of(loc + 1))
        survivors = list(tier._hot)
        tier.flush()
        tier._journal_file.close()
        tier._journal_file = None

        rewarmed = TieredDiskStore(cold, hot_capacity=3, journal_path=path)
        assert list(rewarmed._hot) == survivors
        for loc in survivors:
            assert rewarmed._hot[loc] == frame_of(loc + 1)
        rewarmed.read(survivors[0])
        assert rewarmed.counters.get("hit") == 1  # warm from record one

    def test_torn_tail_is_discarded(self, tmp_path):
        path = str(tmp_path / "tier.jnl")
        cold = make_cold()
        tier = TieredDiskStore(cold, hot_capacity=3, journal_path=path)
        tier.write(1, frame_of(2))
        tier.flush()
        tier._journal_file.close()
        tier._journal_file = None
        with open(path, "ab") as handle:
            handle.write(b"\x01\x00\x00")  # torn record
        rewarmed = TieredDiskStore(cold, hot_capacity=3, journal_path=path)
        assert list(rewarmed._hot) == [1]
        # The compact rewrite dropped the torn bytes.
        assert os.path.getsize(path) % 9 == 0

    def test_journal_compaction_bounds_file(self, tmp_path):
        path = str(tmp_path / "tier.jnl")
        tier = TieredDiskStore(make_cold(), hot_capacity=2, journal_path=path)
        for round_ in range(40):
            for loc in range(8):
                tier.write(loc, frame_of((round_ + loc) % 251))
        tier.flush()
        # 320 membership changes, but the file stays near the live set.
        assert os.path.getsize(path) <= 9 * (64 + 2 + 1)


class TestDatabaseIntegration:
    def test_database_with_hot_tier_serves_correctly(self):
        metrics = MetricsRegistry()
        db = make_db(hot_tier_frames=16, metrics=metrics, seed=3)
        baseline = make_db(seed=3)
        try:
            for i in range(30):
                assert db.query(i % db.num_pages) == \
                    baseline.query(i % baseline.num_pages)
            db.consistency_check()
            assert metrics.count("tier.hit") > 0
            # The trace is recorded by the cold store and byte-identical
            # to the untiered run's (placement never shapes the sequence).
            assert same_shape(db.trace, baseline.trace)
        finally:
            db.close()
            baseline.close()

    def test_close_is_idempotent(self, tmp_path):
        db = make_db(hot_tier_frames=8,
                     hot_tier_journal=str(tmp_path / "tier.jnl"))
        db.close()
        db.close()
