"""Fault-injection harness: determinism, plans, wrappers, retry layer."""

from __future__ import annotations

import pytest

from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    TransientChannelError,
    TransientStorageError,
)
from repro.faults import (
    SITE_CHANNEL,
    SITE_DISK_READ,
    SITE_DISK_WRITE,
    FaultInjector,
    FaultPlan,
    FaultyDiskStore,
    FlakyChannel,
    RetryPolicy,
    SimulatedCrash,
    corrupt_reads,
    crash_after_writes,
    delay_messages,
    drop_messages,
    duplicate_messages,
    retry_call,
    transient_reads,
    transient_writes,
)
from repro.crypto.rng import SecureRandom
from repro.sim.clock import VirtualClock
from repro.storage.disk import DiskStore
from repro.storage.trace import shapes_identical
from repro.twoparty.channel import SimulatedChannel

from tests.helpers import make_db


def faulty_factory(injector):
    """A ``disk_factory`` for PirDatabase.create wrapping the default store."""

    def build(num_locations, frame_size, timing, clock, trace):
        return FaultyDiskStore(
            DiskStore(num_locations, frame_size, timing, clock, trace),
            injector,
        )

    return build


class TestFaultInjector:
    def test_same_seed_same_decision_stream(self):
        def decisions(seed):
            injector = FaultInjector(
                seed, [transient_reads(probability=0.3, times=None)]
            )
            return [
                (d.kind if d else None)
                for d in (injector.check(SITE_DISK_READ) for _ in range(200))
            ]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)

    def test_plan_exhaustion(self):
        injector = FaultInjector(0, [transient_reads(times=2)])
        kinds = [injector.check(SITE_DISK_READ) for _ in range(4)]
        assert [d.kind if d else None for d in kinds] == [
            "transient", "transient", None, None,
        ]

    def test_after_skips_operations(self):
        injector = FaultInjector(0, [transient_writes(after=3)])
        results = [injector.check(SITE_DISK_WRITE) for _ in range(5)]
        assert [d.kind if d else None for d in results] == [
            None, None, None, "transient", None,
        ]

    def test_crash_threshold_and_torn_frames(self):
        # 5 frames land per op; crash after 12 frames => fires on the third
        # operation with 2 frames still landing.
        injector = FaultInjector(0, [crash_after_writes(12)])
        assert injector.check(SITE_DISK_WRITE, frames=5) is None
        assert injector.check(SITE_DISK_WRITE, frames=5) is None
        decision = injector.check(SITE_DISK_WRITE, frames=5)
        assert decision.kind == "crash"
        assert decision.torn_frames == 2
        # The plan is one-shot: later writes proceed.
        assert injector.check(SITE_DISK_WRITE, frames=5) is None

    def test_sites_are_independent(self):
        injector = FaultInjector(0, [transient_reads()])
        assert injector.check(SITE_DISK_WRITE) is None
        assert injector.check(SITE_DISK_READ).kind == "transient"

    def test_counters(self):
        injector = FaultInjector(0, [transient_reads(times=3)])
        for _ in range(5):
            injector.check(SITE_DISK_READ)
        assert injector.counters.get("fault.transient") == 3

    def test_invalid_plans_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan("nowhere", "transient")
        with pytest.raises(ConfigurationError):
            FaultPlan(SITE_DISK_READ, "meteor")
        with pytest.raises(ConfigurationError):
            FaultPlan(SITE_DISK_READ, "transient", probability=1.5)

    def test_corrupt_blob_always_differs(self):
        injector = FaultInjector(3)
        blob = bytes(range(32))
        for _ in range(20):
            assert injector.corrupt_blob(blob) != blob


class TestFaultyDiskStore:
    def make_store(self, plans, seed=0):
        injector = FaultInjector(seed, plans)
        store = FaultyDiskStore(
            DiskStore(num_locations=8, frame_size=4), injector
        )
        for loc in range(8):
            store.write(loc, bytes([loc] * 4))
        return store, injector

    def test_no_plans_is_transparent(self):
        store, _ = self.make_store([])
        assert store.read(3) == b"\x03\x03\x03\x03"
        assert store.num_locations == 8
        assert store.frame_size == 4
        assert store.initialised_locations() == 8

    def test_transient_read_leaves_state_intact(self):
        # after=2: the first two reads pass, the third fails, then clear.
        store, _ = self.make_store([transient_reads(after=2)])
        assert store.read(0) == b"\x00\x00\x00\x00"
        assert store.read(1) == b"\x01\x01\x01\x01"
        with pytest.raises(TransientStorageError):
            store.read(0)
        assert store.read(0) == b"\x00\x00\x00\x00"

    def test_transient_write_nothing_lands(self):
        store, _ = self.make_store([transient_writes(after=8)])
        with pytest.raises(TransientStorageError):
            store.write(0, b"XXXX")
        assert store.read(0) == b"\x00\x00\x00\x00"

    def test_crash_applies_torn_prefix(self):
        store, _ = self.make_store([crash_after_writes(8 + 2)])
        with pytest.raises(SimulatedCrash):
            store.write_range(0, [b"AAAA", b"BBBB", b"CCCC", b"DDDD"])
        assert store.read(0) == b"AAAA"
        assert store.read(1) == b"BBBB"
        assert store.read(2) == b"\x02\x02\x02\x02"  # never landed
        assert store.read(3) == b"\x03\x03\x03\x03"

    def test_corrupt_read_flips_one_frame(self):
        store, _ = self.make_store([corrupt_reads()])
        frames = store.read_range(0, 4)
        originals = [bytes([loc] * 4) for loc in range(4)]
        differing = [i for i, (a, b) in enumerate(zip(frames, originals))
                     if a != b]
        assert len(differing) == 1
        # Underlying store is undamaged.
        assert store.read_range(0, 4) == originals


class TestFlakyChannel:
    def make_channel(self, plans, seed=0):
        clock = VirtualClock()
        calls = []

        def handler(blob):
            calls.append(blob)
            return b"ok:" + blob

        inner = SimulatedChannel(clock, handler, rtt=0.1, bandwidth=1e6)
        return FlakyChannel(inner, FaultInjector(seed, plans)), clock, calls

    def test_drop_charges_timeout_and_never_delivers(self):
        channel, clock, calls = self.make_channel([drop_messages()])
        with pytest.raises(TransientChannelError):
            channel.call(b"hello")
        assert calls == []
        assert clock.now >= 0.1  # waited out the round trip
        assert channel.call(b"hello") == b"ok:hello"

    def test_delay_adds_latency(self):
        channel, clock, _ = self.make_channel([delay_messages(2.5, times=1)])
        channel.call(b"x")
        first = clock.now
        channel.call(b"x")
        second = clock.now - first
        assert first >= 2.5
        assert first - second == pytest.approx(2.5)

    def test_duplicate_delivers_twice(self):
        channel, _, calls = self.make_channel([duplicate_messages()])
        assert channel.call(b"q") == b"ok:q"
        assert len(calls) == 2


class TestRetryCall:
    def test_retries_then_succeeds(self):
        clock = VirtualClock()
        attempts = []

        def operation():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientStorageError("flaky")
            return "done"

        result = retry_call(
            operation,
            RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0),
            clock,
            SecureRandom(0),
            retry_on=(TransientStorageError,),
        )
        assert result == "done"
        assert len(attempts) == 3
        assert clock.now == pytest.approx(0.01 + 0.02)  # exponential backoff

    def test_final_exception_propagates(self):
        clock = VirtualClock()
        with pytest.raises(TransientStorageError):
            retry_call(
                lambda: (_ for _ in ()).throw(TransientStorageError("always")),
                RetryPolicy(max_attempts=3),
                clock,
                SecureRandom(0),
                retry_on=(TransientStorageError,),
            )

    def test_non_matching_exception_not_retried(self):
        clock = VirtualClock()
        attempts = []

        def operation():
            attempts.append(1)
            raise AuthenticationError("bad mac")

        with pytest.raises(AuthenticationError):
            retry_call(operation, RetryPolicy(), clock, SecureRandom(0),
                       retry_on=(TransientStorageError,))
        assert len(attempts) == 1

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(jitter=0.5)
        a = [policy.delay_for(i, SecureRandom(9)) for i in range(4)]
        b = [policy.delay_for(i, SecureRandom(9)) for i in range(4)]
        assert a == b

    def test_min_delay_floors_backoff(self):
        clock = VirtualClock()
        attempts = []

        def operation():
            attempts.append(1)
            if len(attempts) < 2:
                raise TransientStorageError("once")
            return "ok"

        retry_call(operation, RetryPolicy(base_delay=0.001, jitter=0.0),
                   clock, SecureRandom(0), (TransientStorageError,),
                   min_delay=1.0)
        assert clock.now >= 1.0

    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=2.0)


class TestEngineUnderFaults:
    def test_engine_retries_transient_reads(self):
        injector = FaultInjector(
            1, [transient_reads(times=2, after=0)]
        )
        db = make_db(seed=11, disk_factory=faulty_factory(injector),
                     read_retry=RetryPolicy(max_attempts=4))
        records = [db.query(i) for i in range(5)]
        assert all(records)
        assert db.engine.counters.get("retries.read") >= 1
        db.consistency_check()

    def test_engine_rereads_on_corruption(self):
        injector = FaultInjector(2, [corrupt_reads(times=1)])
        db = make_db(seed=12, disk_factory=faulty_factory(injector),
                     read_retry=RetryPolicy(max_attempts=3))
        assert db.query(0) is not None
        db.consistency_check()

    def test_engine_without_retry_propagates(self):
        injector = FaultInjector(3, [transient_reads(times=1)])
        db = make_db(seed=13, disk_factory=faulty_factory(injector))
        with pytest.raises(TransientStorageError):
            db.query(0)

    def test_unrecoverable_corruption_stays_bounded(self):
        # Unlimited corruption: the bounded re-read gives up with the
        # authentication error instead of looping forever.
        injector = FaultInjector(4, [corrupt_reads(times=None)])
        db = make_db(seed=14, disk_factory=faulty_factory(injector),
                     read_retry=RetryPolicy(max_attempts=3))
        with pytest.raises(AuthenticationError):
            db.query(0)

    def test_retried_run_is_deterministic(self):
        def run(seed):
            injector = FaultInjector(
                5, [transient_reads(probability=0.2, times=None)]
            )
            db = make_db(seed=seed, disk_factory=faulty_factory(injector),
                         read_retry=RetryPolicy(max_attempts=6))
            for i in range(8):
                db.query(i % 4)
            events = [
                (e.op, e.location, e.count, e.request_index, e.timestamp)
                for e in db.trace
            ]
            return (events, db.engine.counters.as_dict(), db.clock.now)

        assert run(21) == run(21)

    def test_trace_shape_unchanged_under_retries(self):
        injector = FaultInjector(
            6, [transient_reads(probability=0.15, times=None)]
        )
        db = make_db(seed=15, disk_factory=faulty_factory(injector),
                     read_retry=RetryPolicy(max_attempts=8))
        for i in range(6):
            db.query(i)
        # Retried reads add extra *events* for the same request, but the
        # committed read/write structure keeps every request at 2 reads +
        # 2 writes of (k, 1) frames; verify via the fault-free twin's shape.
        clean = make_db(seed=15)
        clean.query(0)
        expected = clean.trace.request_shape(0)
        for index in range(6):
            shape = db.trace.request_shape(index)
            assert shape[-2:] == expected[-2:]  # the two commit writes
            assert [s for s in shape if s[0] == "write"] == [
                s for s in expected if s[0] == "write"
            ]
