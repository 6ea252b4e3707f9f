"""Online background re-permutation: correctness, interleaving, lifecycle."""

from __future__ import annotations

import time

import pytest

from tests.helpers import make_db
from repro.baselines import make_records
from repro.core.journal import MemoryJournal
from repro.core.sharded import ShardedPirDatabase
from repro.core.snapshot import load_snapshot, resume_reshuffle, save_snapshot
from repro.errors import ConfigurationError, RecoveryError, StorageError
from repro.faults import (
    SITE_DISK_READ,
    SITE_DISK_WRITE,
    FaultInjector,
    FaultyDiskStore,
    transient_reads,
    transient_writes,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.shuffle.online import OnlineReshuffler, ReshuffleIntent, _tag
from repro.shuffle.oblivious import ObliviousShuffler, batcher_network, network_size
from repro.storage.disk import DiskStore


def wait_until(predicate, timeout=15.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def faulty_memory_factory(injector):
    def build(num_locations, frame_size, timing, clock, trace):
        return FaultyDiskStore(
            DiskStore(num_locations=num_locations, frame_size=frame_size,
                      timing=timing, clock=clock, trace=trace),
            injector,
        )

    return build


def assert_batcher_order(db, driver):
    """The finished epoch left the *canonical* Batcher result: resident
    pages sorted by the epoch's secret PRF tags.  A driver that skipped,
    repeated or mis-positioned comparators (e.g. after a replay or a
    retried batch) stays content-consistent but fails this."""
    tags = [
        _tag(driver._epoch_key, db.cop.unseal(db.disk.peek(loc)).page_id)
        for loc in range(db.params.num_locations)
    ]
    assert tags == sorted(tags)


class TestForegroundEpoch:
    def test_epoch_preserves_content_and_repermutes(self):
        db = make_db(seed=21, journal=MemoryJournal())
        digest = db.content_digest()
        n = db.params.num_locations
        before = [db.cop.page_map.lookup(i).position for i in range(n)]

        driver = db.begin_reshuffle(batch_size=24, journal=MemoryJournal())
        assert driver is db.reshuffle
        assert driver.total_units == network_size(n) + n
        done = driver.run()
        assert done == driver.total_units
        assert not driver.active and driver.progress == 1.0

        db.consistency_check()
        assert db.content_digest() == digest
        after = [db.cop.page_map.lookup(i).position for i in range(n)]
        moved = sum(1 for a, b in zip(before, after) if a != b)
        assert moved > n // 2  # a fresh uniform permutation moved most pages
        db.close()

    def test_serving_interleaves_between_batches(self):
        db = make_db(seed=8, journal=MemoryJournal())
        expected = {i: db.query(i) for i in range(db.num_pages)}
        driver = db.begin_reshuffle(batch_size=4, journal=MemoryJournal())
        i = 0
        while driver.active:
            assert db.query(i % db.num_pages) == expected[i % db.num_pages]
            driver.step()
            i += 1
        db.consistency_check()
        assert i > 10  # the epoch really was incremental
        db.close()

    def test_updates_during_epoch_survive(self):
        db = make_db(seed=13, journal=MemoryJournal())
        driver = db.begin_reshuffle(batch_size=16, journal=MemoryJournal())
        driver.step()
        db.update(3, b"mid-epoch write")
        new_id = db.insert(b"mid-epoch insert")
        driver.run()
        db.consistency_check()
        assert db.query(3) == b"mid-epoch write"
        assert db.query(new_id) == b"mid-epoch insert"
        db.close()

    def test_second_epoch_while_active_is_refused(self):
        db = make_db(seed=2)
        db.begin_reshuffle(batch_size=4)
        with pytest.raises(ConfigurationError):
            db.begin_reshuffle()
        db.reshuffle.run()
        # After completion a new epoch may begin (a fresh driver).  Epoch
        # numbering is database-global, never per-driver: a restart at
        # epoch 1 would respawn the "reshuffle-epoch-1" sibling label and
        # replay its nonce stream against the same master key.
        driver2 = db.begin_reshuffle(batch_size=4)
        assert driver2.epoch == 2
        db.close()

    def test_journal_must_not_alias_engines(self):
        journal = MemoryJournal()
        db = make_db(seed=2, journal=journal)
        with pytest.raises(ConfigurationError):
            db.begin_reshuffle(journal=journal)
        db.close()


    def test_epochs_share_one_published_counter_set(self):
        metrics = MetricsRegistry()
        db = make_db(seed=21, journal=MemoryJournal(), metrics=metrics)
        db.begin_reshuffle(batch_size=64, journal=MemoryJournal()).run()
        sets_after_one = len(metrics._counter_sets)
        per_epoch = {name: metrics.count(f"reshuffle.{name}")
                     for name in ("epochs", "epochs.begun", "batches",
                                  "comparators", "sweeps")}
        assert per_epoch["epochs"] == 1
        for _ in range(4):
            db.begin_reshuffle(batch_size=64, journal=MemoryJournal()).run()
        assert len(metrics._counter_sets) == sets_after_one
        for name, count in per_epoch.items():
            assert metrics.count(f"reshuffle.{name}") == 5 * count
        db.close()


class TestKeyRotationPiggyback:
    def test_rotation_completes_with_the_sweep(self):
        db = make_db(seed=31, journal=MemoryJournal())
        digest = db.content_digest()
        driver = db.begin_reshuffle(batch_size=32, rotate_to=b"epoch-key-2",
                                    journal=MemoryJournal())
        assert db.cop.rotation_in_progress
        # Serving mid-rotation works: legacy frames still authenticate.
        db.query(1)
        driver.run()
        assert not db.cop.rotation_in_progress
        assert db.cop.legacy_master_key is None
        db.consistency_check()
        assert db.content_digest() == digest
        db.close()


class TestBackgroundWorker:
    def test_epoch_finishes_while_serving(self):
        metrics = MetricsRegistry()
        db = make_db(seed=5, journal=MemoryJournal(), metrics=metrics)
        expected = {i: db.query(i) for i in range(db.num_pages)}
        driver = db.begin_reshuffle(batch_size=8, background=True,
                                    journal=MemoryJournal(),
                                    idle_interval=0.0001)
        i = 0
        while driver.active and i < 50000:
            assert db.query(i % db.num_pages) == expected[i % db.num_pages]
            i += 1
        assert wait_until(lambda: not driver.active)
        db.consistency_check()
        assert metrics.gauge("reshuffle.progress").value == 1.0
        assert driver.counters.get("epochs") == 1
        db.close()

    def test_close_stops_worker_and_context_manager_parity(self):
        with make_db(seed=5, journal=MemoryJournal()) as db:
            driver = db.begin_reshuffle(batch_size=2, background=True,
                                        journal=MemoryJournal())
            worker = driver._worker
            assert worker is not None and worker.is_alive()
        assert not worker.is_alive()
        assert driver._heal_pending not in db.engine._background_healers
        db.close()  # idempotent

    def test_sharded_close_stops_all_reshufflers(self):
        sharded = ShardedPirDatabase.create(
            make_records(60, 16), num_shards=3, cache_capacity_per_shard=4,
            page_capacity=16, seed=9,
        )
        workers = []
        for shard in sharded.shards:
            shard.begin_reshuffle(batch_size=2, background=True)
            workers.append(shard.reshuffle._worker)
        assert all(w.is_alive() for w in workers)
        sharded.close()
        assert all(not w.is_alive() for w in workers)
        sharded.close()  # idempotent


class TestRecoverySemantics:
    def test_clean_and_stale_records(self):
        journal = MemoryJournal()
        db = make_db(seed=4, journal=MemoryJournal())
        driver = db.begin_reshuffle(batch_size=8, journal=journal)
        assert driver.recover() == "clean"
        driver.step()
        # A record from an already-applied batch is discarded as stale.
        replay = ReshuffleIntent(epoch=driver.epoch, frontier_before=0,
                                 frontier_after=4)
        journal.write(driver._suite.encrypt_page(replay.encode()))
        assert driver.recover() == "discarded_stale"
        db.close()

    def test_torn_record_rolls_back(self):
        journal = MemoryJournal()
        db = make_db(seed=4, journal=MemoryJournal())
        driver = db.begin_reshuffle(batch_size=8, journal=journal)
        journal.write(b"\x00garbage that never sealed")
        assert driver.recover() == "rolled_back"
        assert journal.read() is None
        db.close()

    def test_journal_ahead_of_state_is_rejected(self):
        journal = MemoryJournal()
        db = make_db(seed=4, journal=MemoryJournal())
        driver = db.begin_reshuffle(batch_size=8, journal=journal)
        ahead = ReshuffleIntent(epoch=driver.epoch, frontier_before=80,
                                frontier_after=88)
        journal.write(driver._suite.encrypt_page(ahead.encode()))
        with pytest.raises(RecoveryError):
            driver.recover()
        db.close()

    def test_record_from_earlier_epoch_is_discarded(self):
        journal = MemoryJournal()
        db = make_db(seed=4, journal=MemoryJournal())
        driver = db.begin_reshuffle(batch_size=8, journal=journal)
        old_suite = driver._suite
        driver.run()
        driver2 = db.begin_reshuffle(batch_size=8, journal=journal)
        stale = ReshuffleIntent(epoch=1, frontier_before=0, frontier_after=4)
        journal.write(old_suite.encrypt_page(stale.encode()))
        assert driver2.recover() == "discarded_stale"
        assert journal.read() is None
        db.close()

    def test_recover_before_restore_raises_and_retains_record(self):
        """recover() on a driver that has not adopted the sidecar yet must
        refuse — clearing the record would lose the only roll-forward for
        a torn batch — and succeed once restore_state has run."""
        journal = MemoryJournal()
        db = make_db(seed=4, journal=MemoryJournal())
        driver = db.begin_reshuffle(batch_size=8, journal=journal)
        driver.step()
        state = driver.state_blob()
        torn = ReshuffleIntent(epoch=driver.epoch,
                               frontier_before=driver.frontier,
                               frontier_after=driver.frontier + 4)
        journal.write(driver._suite.encrypt_page(torn.encode()))
        driver.close()

        fresh = OnlineReshuffler(db, journal=journal)
        with pytest.raises(RecoveryError):
            fresh.recover()
        assert journal.read() is not None  # the roll-forward survives
        fresh.restore_state(state)
        assert fresh.recover() == "replayed"
        assert fresh.frontier == torn.frontier_after
        fresh.close()
        db.close()


class TestFrontierPurity:
    """A batch's comparators are a function of the frontier, not of how
    often (or how unsuccessfully) earlier batches ran."""

    def test_transient_compute_fault_retries_same_comparators(self):
        injector = FaultInjector(seed=3)
        db = make_db(seed=11, journal=MemoryJournal(),
                     disk_factory=faulty_memory_factory(injector))
        digest = db.content_digest()
        driver = db.begin_reshuffle(batch_size=8, journal=MemoryJournal())
        driver.step()
        frontier = driver.frontier
        injector.add(transient_reads(times=1))
        with pytest.raises(StorageError):
            driver.step()
        assert driver.frontier == frontier  # nothing applied
        # The retry must re-execute the very units the failed batch
        # consumed; a shifted stream either mis-sorts or exhausts early.
        driver.run()
        assert not driver.active
        db.consistency_check()
        assert db.content_digest() == digest
        assert_batcher_order(db, driver)
        db.close()

    def test_background_worker_survives_transient_fault(self):
        injector = FaultInjector(seed=3)
        db = make_db(seed=12, journal=MemoryJournal(),
                     disk_factory=faulty_memory_factory(injector))
        injector.add(transient_reads(times=1))
        driver = db.begin_reshuffle(batch_size=8, background=True,
                                    journal=MemoryJournal(),
                                    idle_interval=0.0001)
        assert wait_until(lambda: not driver.active)
        assert driver.counters.get("worker.errors") >= 1
        db.consistency_check()
        assert_batcher_order(db, driver)
        db.close()


class TestPacing:
    def test_set_pacing_validates(self):
        db = make_db(seed=3)
        driver = db.begin_reshuffle(batch_size=8)
        with pytest.raises(ConfigurationError):
            driver.set_pacing(batch_size=0)
        with pytest.raises(ConfigurationError):
            driver.set_pacing(idle_interval=-1.0)
        assert driver.batch_size == 8
        db.close()

    def test_mid_epoch_pacing_change_preserves_batcher_order(self):
        """Re-slicing the epoch's unit stream (batch 16 -> 3 -> 11 mid-sort)
        must execute exactly the canonical comparator sequence: pacing
        changes when units run, never which.  A driver that rebuilt its
        iterator from batch history instead of the frontier would shift
        the stream and fail the final-order oracle."""
        db = make_db(seed=22, journal=MemoryJournal())
        digest = db.content_digest()
        driver = db.begin_reshuffle(batch_size=16, journal=MemoryJournal())
        driver.step()
        driver.set_pacing(batch_size=3)
        driver.step()
        driver.step()
        driver.set_pacing(batch_size=11, idle_interval=0.0)
        driver.run()
        assert not driver.active
        db.consistency_check()
        assert db.content_digest() == digest
        assert_batcher_order(db, driver)
        db.close()

    def test_background_pacing_change_mid_epoch(self):
        """Retuning the worker while it runs (the controller's usage) wakes
        it and leaves the epoch's final order canonical."""
        db = make_db(seed=26, journal=MemoryJournal())
        driver = db.begin_reshuffle(batch_size=2, background=True,
                                    journal=MemoryJournal(),
                                    idle_interval=0.05)
        assert wait_until(lambda: driver.frontier > 0)
        driver.set_pacing(batch_size=32, idle_interval=0.0001)
        assert wait_until(lambda: not driver.active)
        db.consistency_check()
        assert_batcher_order(db, driver)
        db.close()


class TestResumeUniqueness:
    def test_two_resumes_use_distinct_nonce_streams(self):
        db = make_db(seed=23, journal=MemoryJournal())
        driver = db.begin_reshuffle(batch_size=8, journal=MemoryJournal())
        driver.step()
        state = driver.state_blob()
        driver.close()
        first = OnlineReshuffler(db, journal=MemoryJournal())
        first.restore_state(state)
        second = OnlineReshuffler(db, journal=MemoryJournal())
        second.restore_state(state)
        # Same epoch, same frontier, same derived keys: only the per-resume
        # spawn label keeps the nonce streams apart.  Identical ciphertexts
        # for one plaintext would mean keystream reuse across resumes.
        assert (first._suite.encrypt_page(b"x" * 32)
                != second._suite.encrypt_page(b"x" * 32))
        first.close()
        second.close()
        db.close()

    def test_restored_database_continues_epoch_numbering(self, tmp_path):
        db = make_db(seed=24, journal=MemoryJournal())
        db.begin_reshuffle(batch_size=8, journal=MemoryJournal()).run()
        driver = db.begin_reshuffle(batch_size=8, journal=MemoryJournal())
        driver.step()
        snap = str(tmp_path / "snap")
        save_snapshot(db, snap)

        db2 = load_snapshot(snap, seed=25)
        resumed = resume_reshuffle(db2, snap, journal=MemoryJournal())
        assert resumed is not None and resumed.epoch == 2
        resumed.run()
        # A fresh driver must continue the database-global numbering from
        # the restored epoch, not restart at 1 (which would respawn epoch
        # 1's sibling label and replay its nonce stream).
        assert db2.begin_reshuffle(journal=MemoryJournal()).epoch == 3
        db.close()
        db2.close()


class TestSnapshotHealsRetainedWriteBack:
    def test_snapshot_heals_journal_less_pending_apply(self, tmp_path):
        """A transiently failed batch apply retains its intent in memory;
        with no reshuffle journal armed, save_snapshot must heal it under
        the op lock — otherwise the dumped frames are ahead of the sealed
        page map and the restored instance is inconsistent."""
        injector = FaultInjector(seed=5)
        db = make_db(seed=29, disk_factory=faulty_memory_factory(injector))
        digest = db.content_digest()
        driver = db.begin_reshuffle(batch_size=8)  # journal-less
        driver.step()
        # Let two frames of the next batch's write-back land, then fail.
        injector.add(transient_writes(times=1, after=2))
        with pytest.raises(StorageError):
            driver.step()
        assert driver.write_back_pending

        snap = str(tmp_path / "snap")
        save_snapshot(db, snap)
        assert not driver.write_back_pending  # healed under the lock

        db2 = load_snapshot(snap, seed=30)
        db2.consistency_check()
        assert db2.content_digest() == digest
        db.close()
        db2.close()


class TestPipelineInteraction:
    def test_reshuffle_consumes_prefetched_keystreams(self):
        db = make_db(seed=17, journal=MemoryJournal(),
                     keystream_pipeline="sync")
        driver = db.begin_reshuffle(batch_size=16, journal=MemoryJournal())
        expected = {i: db.query(i) for i in range(db.num_pages)}
        hits_before = db.cop.pipeline.counters.get("hit")
        i = 0
        while driver.active:
            driver.step()  # reads frames the engine prefetched: hits
            assert db.query(i % db.num_pages) == expected[i % db.num_pages]
            i += 1
        assert db.cop.pipeline.counters.get("hit") > hits_before
        db.consistency_check()
        db.close()

    def test_unread_rewrite_drops_stale_keystream(self):
        """An apply-without-read (recovery replay) orphans prefetched
        entries; they must be dropped, and an *identical* rewrite (a
        replay of the same frames) must not drop a still-valid entry."""
        from repro.crypto.pipeline import KeystreamPipeline
        from repro.crypto.rng import SecureRandom
        from repro.crypto.suite import CipherSuite

        rng = SecureRandom(3)
        suite = CipherSuite(b"k", rng=rng)
        pipe = KeystreamPipeline()
        suite.pipeline = pipe
        frame_a = suite.encrypt_page(b"a" * 32)
        pipe.note_written_frames([0], suite, [frame_a])
        pipe.prefetch([0], 32)
        assert pipe.cached_bytes > 0
        # Identical rewrite: the entry is still current — keep it.
        pipe.note_written_frames([0], suite, [frame_a])
        assert pipe.counters.get("stale_dropped") == 0
        assert pipe.cached_bytes > 0
        # Fresh-nonce rewrite without a read: the entry is dead — drop it.
        frame_b = suite.encrypt_page(b"b" * 32)
        pipe.note_written_frames([0], suite, [frame_b])
        assert pipe.counters.get("stale_dropped") == 1
        assert pipe.cached_bytes == 0


class TestSetupSortObservability:
    def test_progress_gauge_and_pass_spans(self):
        metrics = MetricsRegistry()
        tracer = Tracer()
        db = make_db(num_records=12, cache_capacity=4, page_capacity=16,
                     seed=7, setup_mode="oblivious", metrics=metrics,
                     tracer=tracer)
        # The tracer is reset after setup, but the gauge survives: a
        # SETUP_OBLIVIOUS build reports its sort progress while running.
        assert metrics.gauge("shuffle.progress").value == 1.0
        db.close()

    def test_sort_emits_one_span_per_pass(self):
        from repro.crypto.rng import SecureRandom
        from repro.crypto.suite import CipherSuite
        from repro.sim.clock import VirtualClock
        from repro.storage.disk import DiskStore
        from repro.storage.page import Page
        from repro.storage.trace import AccessTrace

        metrics = MetricsRegistry()
        tracer = Tracer()
        rng = SecureRandom(3)
        suite = CipherSuite(b"k", rng=rng.spawn("suite"))
        shuffler = ObliviousShuffler(suite, rng.spawn("tags"), 16,
                                     tracer=tracer, metrics=metrics)
        n = 10
        disk = DiskStore(num_locations=n,
                         frame_size=shuffler.tagged_frame_size,
                         timing=None, clock=VirtualClock(),
                         trace=AccessTrace(enabled=False))
        shuffler.shuffle([Page(i, bytes([i])) for i in range(n)], disk)
        passes = [s for s in tracer.spans if s.name == "shuffle.pass"]
        from repro.shuffle.oblivious import batcher_passes
        nonempty = sum(1 for _, _, c in batcher_passes(n) if c)
        assert len(passes) == nonempty
        assert metrics.gauge("shuffle.progress").value == 1.0

    def test_batcher_passes_concatenate_to_network(self):
        for n in (1, 2, 5, 16, 33):
            from repro.shuffle.oblivious import batcher_passes
            flat = [pair for _, _, cs in batcher_passes(n) for pair in cs]
            assert flat == list(batcher_network(n))


class TestFrontendVisibility:
    def test_requests_during_reshuffle_counter(self):
        from repro.service.frontend import QueryFrontend, ServiceClient

        db = make_db(seed=19, journal=MemoryJournal())
        frontend = QueryFrontend(db)
        client = ServiceClient(frontend)
        client.query(1)
        assert frontend.counters.get("requests.during_reshuffle") == 0
        driver = db.begin_reshuffle(batch_size=4, journal=MemoryJournal())
        client.query(2)
        driver.run()
        client.query(3)
        assert frontend.counters.get("requests.during_reshuffle") == 1
        client.close()
        db.close()
