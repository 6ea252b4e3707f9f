"""Fused batch execution: byte-identity, error slots, faults, trace shape.

The fused path (``RetrievalEngine.run_batch``) serves a whole window of
operations from one physical scan of the round-robin block.  Its contract:
replies are *byte-identical* to running the same logical op sequence
through the serial per-op methods — the physical layout, RNG stream and
trace may differ, the logical content and every reply may not.
"""

from __future__ import annotations

import pytest

from repro.core.engine import BatchOp
from repro.core.journal import MemoryJournal
from repro.core.sharded import ShardedPirDatabase
from repro.errors import (
    CapacityError,
    ConfigurationError,
    PageDeletedError,
    PageNotFoundError,
    ReproError,
    StorageError,
    TransientStorageError,
)
from repro.faults import (
    SITE_DISK_READ,
    SITE_DISK_WRITE,
    FaultInjector,
    FaultPlan,
    FaultyDiskStore,
    SimulatedCrash,
    transient_writes,
)
from repro.service.frontend import QueryFrontend, ServiceClient
from repro.service.protocol import Delete, Insert, Query, Refused, Result, Update

from tests.helpers import make_db
from tests.test_crash_recovery import build_db, faulty_factory, logical_state

SEED = 4242
NUM_RECORDS = 40


def twin_dbs(**options):
    """Two identical databases: one for serial replay, one for fusion."""
    kwargs = dict(num_records=NUM_RECORDS, cache_capacity=6,
                  reserve_fraction=0.25, seed=SEED)
    kwargs.update(options)
    return make_db(**kwargs), make_db(**kwargs)


def run_serial(db, ops):
    """Drive ``ops`` through the serial per-op methods, collecting slots."""
    results = []
    for op in ops:
        try:
            if op.kind == "query":
                results.append(db.query(op.page_id))
            elif op.kind == "update":
                results.append(db.update(op.page_id, op.payload))
            elif op.kind == "insert":
                results.append(db.insert(op.payload))
            elif op.kind == "delete":
                results.append(db.delete(op.page_id))
            else:
                results.append(db.touch())
        except Exception as exc:  # noqa: BLE001 - slots carry exceptions
            results.append(exc)
    return results


def assert_slots_equal(expected, got):
    assert len(expected) == len(got)
    for index, (want, have) in enumerate(zip(expected, got)):
        if isinstance(want, Exception):
            assert type(want) is type(have), f"slot {index}: {want!r} vs {have!r}"
            assert str(want) == str(have), f"slot {index}: {want!r} vs {have!r}"
        else:
            assert want == have, f"slot {index}: {want!r} vs {have!r}"


MIXED_OPS = [
    BatchOp("query", page_id=3),
    BatchOp("update", page_id=5, payload=b"fused"),
    BatchOp("query", page_id=5),
    BatchOp("delete", page_id=7),
    BatchOp("insert", payload=b"first insert"),
    BatchOp("touch"),
    BatchOp("query", page_id=7),           # deleted -> PageDeletedError slot
    BatchOp("delete", page_id=7),          # double delete -> PageNotFoundError
    BatchOp("query", page_id=0),
    BatchOp("insert", payload=b"second insert"),
    BatchOp("update", page_id=1, payload=b"x" * 16),
    BatchOp("query", page_id=1),
    BatchOp("query", page_id=10 ** 9),     # out of range -> PageNotFoundError
]


class TestByteIdentity:
    """Fused replies must match the serial loop's, slot for slot."""

    def test_all_five_op_kinds_match_serial(self):
        serial, fused = twin_dbs()
        expected = run_serial(serial, MIXED_OPS)
        got = fused.run_batch(MIXED_OPS)
        assert_slots_equal(expected, got)
        serial.consistency_check()
        fused.consistency_check()
        # The logical content (page_id -> payload/flags) converges too,
        # even though the physical layout legitimately differs.
        assert logical_state(serial) == logical_state(fused)

    def test_multi_window_batch_matches_serial(self):
        serial, fused = twin_dbs()
        k = fused.params.block_size
        ops = [BatchOp("query", page_id=i % NUM_RECORDS)
               for i in range(3 * k + 2)]
        assert_slots_equal(run_serial(serial, ops), fused.run_batch(ops))
        assert fused.engine.counters.get("batch.fused.windows") == 4
        assert fused.engine.request_count == serial.engine.request_count

    def test_insert_ids_deterministic_across_paths(self):
        serial, fused = twin_dbs()
        ops = [
            BatchOp("delete", page_id=11),
            BatchOp("delete", page_id=4),
            BatchOp("insert", payload=b"a"),   # reuses lowest free id
            BatchOp("insert", payload=b"b"),
        ]
        expected = run_serial(serial, ops)
        got = fused.run_batch(ops)
        assert_slots_equal(expected, got)
        assert got[2] == 4  # the lower freed id, chosen deterministically

    def test_interleaving_serial_and_fused_calls(self):
        serial, fused = twin_dbs()
        fused.update(9, b"warm")
        serial.update(9, b"warm")
        ops = [BatchOp("query", page_id=9), BatchOp("delete", page_id=9)]
        assert_slots_equal(run_serial(serial, ops), fused.run_batch(ops))
        with pytest.raises(PageDeletedError):
            fused.query(9)

    def test_windows_hold_k_ops_and_validation(self):
        _, fused = twin_dbs()
        k = fused.params.block_size
        ops = [BatchOp("query", page_id=i % NUM_RECORDS)
               for i in range(k + 2)]
        got = fused.run_batch(ops)
        assert fused.engine.counters.get("batch.fused.windows") == 2
        assert all(not isinstance(item, Exception) for item in got)
        # An unknown kind or a malformed op fails its slot, not the batch.
        bad = fused.run_batch([
            BatchOp("frobnicate"),
            BatchOp("query"),                          # no page_id
            BatchOp("delete", page_id="3"),            # non-int page_id
            BatchOp("update", page_id=1),              # no payload
            BatchOp("update", page_id=1, payload="text"),
            BatchOp("insert"),                         # no payload
            BatchOp("query", page_id=0),
        ])
        expected = [ConfigurationError, PageNotFoundError, PageNotFoundError,
                    ConfigurationError, ConfigurationError, ConfigurationError]
        assert [type(item) for item in bad[:-1]] == expected
        assert not isinstance(bad[-1], Exception)


class TestErrorSlots:
    """Failed slots must not poison their window's healthy neighbours."""

    def test_validation_failures_do_not_consume_requests(self):
        _, fused = twin_dbs()
        before = fused.engine.request_count
        got = fused.run_batch([
            BatchOp("query", page_id=10 ** 9),
            BatchOp("update", page_id=2, payload=b"z" * 10_000),
        ])
        assert isinstance(got[0], PageNotFoundError)
        assert isinstance(got[1], ConfigurationError)
        assert fused.engine.request_count == before
        assert fused.engine.counters.get("batch.fused.windows") == 0

    def test_mixed_window_serves_valid_slots(self):
        serial, fused = twin_dbs()
        ops = [
            BatchOp("query", page_id=10 ** 9),
            BatchOp("query", page_id=2),
            BatchOp("delete", page_id=10 ** 9),
            BatchOp("update", page_id=3, payload=b"ok"),
            BatchOp("query", page_id=3),
        ]
        assert_slots_equal(run_serial(serial, ops), fused.run_batch(ops))
        # Only the three valid ops consumed requests.
        assert fused.engine.counters.get("batch.fused.ops") == 3

    def test_insert_capacity_error_slot(self):
        # No reserve: the free pool is only round-up padding; exhaust it.
        _, fused = twin_dbs(reserve_fraction=0.0)
        free = len(fused.cop.page_map.free_ids())
        ops = [BatchOp("insert", payload=b"x")] * (free + 2)
        got = fused.run_batch(ops)
        assert all(isinstance(item, int) for item in got[:free])
        assert all(isinstance(item, CapacityError) for item in got[free:])
        fused.consistency_check()


class TestFusedUnderFaults:
    """Window-grained failure isolation, healing, and crash recovery."""

    def _faulted_db(self, plans, journal=None):
        injector = FaultInjector(0)
        db = build_db(journal=journal, injector=injector)
        for plan in plans:
            injector.add(plan)
        return db

    def test_read_fault_fails_only_its_window(self):
        k = build_db().params.block_size
        db = self._faulted_db(
            [FaultPlan(SITE_DISK_READ, "transient", times=1)]
        )
        ops = [BatchOp("query", page_id=i) for i in range(2 * k)]
        got = db.run_batch(ops)
        # First window aborted cleanly before any state change ...
        assert all(isinstance(item, TransientStorageError)
                   for item in got[:k])
        # ... the second executed normally.
        reference = build_db()
        for index in range(k, 2 * k):
            assert got[index] == reference.query(index)
        assert db.engine.counters.get("batch.fused.windows") == 1
        db.consistency_check()

    def test_write_fault_rolls_window_forward(self):
        journal = MemoryJournal()
        db = self._faulted_db([transient_writes(times=1)], journal=journal)
        ops = [
            BatchOp("update", page_id=5, payload=b"torn batch"),
            BatchOp("delete", page_id=7),
            BatchOp("insert", payload=b"survives"),
        ]
        got = db.run_batch(ops)
        assert all(isinstance(item, TransientStorageError) for item in got)
        assert db.engine.write_back_pending
        assert journal.read() is not None

        # The next batch heals the whole torn window first — all three ops
        # committed atomically — then serves its own ops.  (The insert
        # recycled the id freed by the in-window delete, exactly as the
        # serial path would: lowest free id wins.)
        follow_up = db.run_batch([
            BatchOp("query", page_id=5),
            BatchOp("query", page_id=7),
        ])
        assert follow_up[0] == b"torn batch"
        assert follow_up[1] == b"survives"
        assert db.engine.counters.get("recovery.rolled_forward") == 1
        assert not db.engine.write_back_pending
        assert journal.read() is None
        db.consistency_check()

    def test_crash_mid_window_recovers_whole_window(self):
        k = build_db().params.block_size
        journal = MemoryJournal()
        # Wrap the disk *after* setup so the crash threshold counts only
        # request-time frames (the injector's frame counter is cumulative).
        db = build_db(journal=journal)
        injector = FaultInjector(
            0, [FaultPlan(SITE_DISK_WRITE, "crash", after=k // 2)]
        )
        db.engine.disk = FaultyDiskStore(db.engine.disk, injector)
        ops = [
            BatchOp("update", page_id=5, payload=b"crashed window"),
            BatchOp("delete", page_id=7),
            BatchOp("query", page_id=3),
        ]
        with pytest.raises(SimulatedCrash):
            db.run_batch(ops)
        # "Restart": unwrap the faulty store, then roll the journal forward.
        db.engine.disk = db.engine.disk.inner
        report = db.recover()
        assert report.action == "replayed"
        assert db.engine.request_count == 3
        assert db.query(5) == b"crashed window"
        with pytest.raises(PageDeletedError):
            db.query(7)
        db.consistency_check()

    def test_fused_after_serial_write_fault_heals_first(self):
        journal = MemoryJournal()
        db = self._faulted_db([transient_writes(times=1)], journal=journal)
        with pytest.raises(TransientStorageError):
            db.update(5, b"serial torn")
        assert db.engine.write_back_pending
        got = db.run_batch([BatchOp("query", page_id=5)])
        assert got[0] == b"serial torn"
        assert db.engine.counters.get("recovery.rolled_forward") == 1
        db.consistency_check()


class TestWindowTraceShape:
    """The fused window trace must not depend on the op mix it serves."""

    def _window_shape(self, ops):
        db = make_db(num_records=NUM_RECORDS, cache_capacity=6,
                     reserve_fraction=0.25, seed=SEED)
        base_index = db.engine.request_count
        results = db.run_batch(ops)
        assert not any(isinstance(item, Exception) for item in results)
        assert db.engine.counters.get("batch.fused.windows") == 1
        return db.trace.request_shape(base_index)

    def test_shape_independent_of_op_types(self):
        k = make_db(num_records=NUM_RECORDS).params.block_size
        assert k >= 5
        mixes = [
            [BatchOp("query", page_id=i) for i in range(5)],
            [
                BatchOp("update", page_id=2, payload=b"u"),
                BatchOp("delete", page_id=9),
                BatchOp("insert", payload=b"i"),
                BatchOp("touch"),
                BatchOp("query", page_id=3),
            ],
            [BatchOp("touch") for _ in range(5)],
        ]
        shapes = [self._window_shape(mix) for mix in mixes]
        assert shapes[0] == shapes[1] == shapes[2]

    def test_reads_collapse_to_one_block_scan(self):
        db = make_db(num_records=NUM_RECORDS, cache_capacity=6,
                     reserve_fraction=0.25, seed=SEED)
        k = db.params.block_size
        n = k  # one full window
        db.run_batch([BatchOp("query", page_id=i) for i in range(n)])
        counters = db.engine.counters
        assert counters.get("batch.fused.block_reads") == 1
        assert counters.get("batch.fused.extra_reads") == n
        # The serial loop would read n * (k + 1) frames; the fused window
        # reads k + n.  The counter records exactly that collapse.
        assert counters.get("batch.fused.reads_saved") == n * (k + 1) - (k + n)


class TestShardedFusedBatch:
    def _twin_sharded(self):
        from repro.baselines import make_records

        records = make_records(NUM_RECORDS, 16)
        kwargs = dict(cache_capacity_per_shard=4, target_c=2.0,
                      page_capacity=16, reserve_fraction=0.25, seed=77)
        return (
            ShardedPirDatabase.create(records, 4, parallel=False, **kwargs),
            ShardedPirDatabase.create(records, 4, parallel=True, **kwargs),
        )

    def test_sharded_batch_matches_serial_methods(self):
        serial, fused = self._twin_sharded()
        try:
            # Same mix minus the out-of-range probe, plus a query with no
            # page id: it must fail its slot in routing, not the batch.
            ops = MIXED_OPS[:-1] + [BatchOp("query"),
                                    BatchOp("query", page_id=2)]
            expected = run_serial(serial, ops)
            got = fused.run_batch(ops)
            assert_slots_equal(expected, got)
            # Inserted global ids route identically afterwards.
            inserted = [item for item in got if isinstance(item, int)]
            for global_id in inserted:
                assert fused.query(global_id) == serial.query(global_id)
            serial.consistency_check()
            fused.consistency_check()
            # Cover traffic keeps per-shard request streams equal-length.
            counts = fused.shard_request_counts()
            assert len(set(counts)) == 1
        finally:
            serial.close()
            fused.close()

    def test_sharded_batch_tombstones_inside_batch(self):
        serial, fused = self._twin_sharded()
        try:
            ops = [
                BatchOp("delete", page_id=22),
                BatchOp("insert", payload=b"recycles the slot"),
                BatchOp("query", page_id=22),   # must NOT alias the insert
                BatchOp("delete", page_id=22),  # tombstoned -> deleted error
            ]
            assert_slots_equal(run_serial(serial, ops), fused.run_batch(ops))
        finally:
            serial.close()
            fused.close()


class TestFrontendFusedBatch:
    def _frontend(self, **options):
        return QueryFrontend(
            make_db(num_records=NUM_RECORDS, reserve_fraction=0.25,
                    seed=SEED),
            **options,
        )

    def test_fused_and_serial_frontends_agree(self):
        from repro.baselines import make_records

        records = make_records(NUM_RECORDS, 16)
        # Insert precedes the delete so it takes a reserve slot instead of
        # recycling page 4 — the query of the deleted page must refuse.
        batch = [Query(2), Update(3, b"new"), Query(3), Insert(b"ins"),
                 Delete(4), Query(4), Query(10 ** 9)]
        batch_replies = ServiceClient(self._frontend()).batch(list(batch))
        # The same ops sent one message at a time through a twin frontend.
        single_client = ServiceClient(self._frontend())
        for op, reply in zip(batch, batch_replies):
            try:
                single = single_client._call(op)
            except ReproError as exc:
                assert isinstance(reply, Refused), (op, exc)
                assert str(exc) == f"request refused: {reply.reason}"
            else:
                assert single == reply
        assert batch_replies[0] == Result(2, records[2])
        assert batch_replies[3].payload == b"ins"
        assert isinstance(batch_replies[5], Refused)
        assert batch_replies[5].code == "deleted"
        assert isinstance(batch_replies[6], Refused)
        assert batch_replies[6].code == "not-found"

    def test_fused_path_counters(self):
        frontend = self._frontend()
        client = ServiceClient(frontend)
        client.batch([Query(0), Query(1), Query(2)])
        assert frontend.counters.get("batch.requests") == 1
        assert frontend.counters.get("batch.ops") == 3
        engine = frontend.database.engine
        assert engine.counters.get("batch.fused.windows") == 1
        assert engine.counters.get("batch.fused.ops") == 3
