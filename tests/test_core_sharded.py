"""Partitioned multi-coprocessor deployment."""

from __future__ import annotations

import pytest

from repro.baselines import make_records
from repro.core.sharded import ShardedPirDatabase
from repro.errors import ConfigurationError, PageDeletedError, PageNotFoundError
from repro.hardware.specs import HardwareSpec

RECORDS = make_records(60, 16)


def _sharded(num_shards=3, cover=True, seed=7, **options):
    defaults = dict(
        cache_capacity_per_shard=4,
        target_c=2.0,
        page_capacity=16,
        reserve_fraction=0.2,
    )
    defaults.update(options)
    return ShardedPirDatabase.create(
        RECORDS, num_shards, cover_traffic=cover, seed=seed, **defaults
    )


class TestRoutingAndCorrectness:
    def test_every_record_retrievable(self):
        db = _sharded()
        for global_id in range(60):
            assert db.query(global_id) == RECORDS[global_id]

    def test_updates_route_correctly(self):
        db = _sharded(seed=8)
        db.update(0, b"first shard")
        db.update(59, b"last shard")
        assert db.query(0) == b"first shard"
        assert db.query(59) == b"last shard"

    def test_delete_and_error(self):
        db = _sharded(seed=9)
        db.delete(25)
        with pytest.raises(PageDeletedError):
            db.query(25)

    def test_insert_returns_routable_global_id(self):
        db = _sharded(seed=10)
        ids = [db.insert(f"extra-{i}".encode()) for i in range(6)]
        assert len(set(ids)) == 6
        assert all(gid >= 60 for gid in ids)
        for i, gid in enumerate(ids):
            assert db.query(gid) == f"extra-{i}".encode()

    def test_unknown_global_id(self):
        db = _sharded(seed=11)
        with pytest.raises(PageNotFoundError):
            db.query(10**9)

    def test_consistency_across_shards(self):
        db = _sharded(seed=12)
        for step in range(40):
            db.query(step % 60)
        db.consistency_check()

    def test_construction_validation(self):
        with pytest.raises(ConfigurationError):
            ShardedPirDatabase.create(RECORDS, 0, cache_capacity_per_shard=4)
        with pytest.raises(ConfigurationError):
            ShardedPirDatabase.create(RECORDS[:2], 3,
                                      cache_capacity_per_shard=4,
                                      page_capacity=16)


class TestCoverTraffic:
    def test_cover_traffic_equalises_shard_loads(self):
        db = _sharded(cover=True, seed=13)
        for _ in range(30):
            db.query(0)  # always shard 0
        counts = db.shard_request_counts()
        assert len(set(counts)) == 1, counts

    def test_without_cover_traffic_loads_leak(self):
        db = _sharded(cover=False, seed=14)
        for _ in range(30):
            db.query(0)
        counts = db.shard_request_counts()
        assert counts[0] == 30 and counts[1] == 0 and counts[2] == 0

    def test_total_requests_cost_of_cover(self):
        covered = _sharded(cover=True, seed=15)
        bare = _sharded(cover=False, seed=16)
        for db in (covered, bare):
            for step in range(10):
                db.query(step % 60)
        assert covered.total_requests() == 3 * bare.total_requests()

    def test_access_order_independent_of_target_shard(self):
        """The cross-shard issue order must not reveal the real shard.

        The old dispatcher ran the real operation first and the covers
        after it, so the *position* of each shard in the access sequence
        leaked the target.  In serial mode operations run inline in
        submission order, so recording per-shard entry observes exactly
        the order the dispatcher issues.
        """
        orders = {}
        for target in (0, 25, 59):  # one id per shard
            db = _sharded(seed=22, parallel=False)
            observed = []

            def _instrument(index, shard):
                real_run_batch = shard.run_batch

                def run_batch(ops):
                    observed.append(index)
                    return real_run_batch(ops)

                shard.run_batch = run_batch

            for index, shard in enumerate(db.shards):
                _instrument(index, shard)
            db.query(target)
            orders[target] = tuple(observed)
        assert set(orders.values()) == {(0, 1, 2)}, orders

    def test_failed_operation_still_issues_covers(self):
        """Covers run even when the real op fails: loads stay equalised."""
        db = _sharded(seed=23)
        db.delete(10)
        before = db.shard_request_counts()
        with pytest.raises(PageNotFoundError):
            db.query(10**9)
        # Routing errors never reach the shards at all ...
        assert db.shard_request_counts() == before
        # ... but a failure *inside* the target shard still drives every
        # cover, so the executor never leaves cover traffic half-issued.
        shard0 = db.shards[0]
        shard0.run_batch = lambda ops: (_ for _ in ()).throw(
            PageNotFoundError("injected shard fault")
        )
        try:
            with pytest.raises(PageNotFoundError, match="injected"):
                db.query(0)
        finally:
            del shard0.run_batch
        after = db.shard_request_counts()
        assert after[1] == before[1] + 1
        assert after[2] == before[2] + 1


class TestRoutingStaleness:
    def test_deleted_inserted_id_does_not_alias_new_insert(self):
        """delete -> insert must not resurrect the old global id.

        The old routing table never removed entries on delete, so once a
        shard recycled the freed slot the stale global id silently aliased
        the *new* record.
        """
        db = _sharded(seed=24)
        old_id = db.insert(b"short-lived")
        db.delete(old_id)
        new_id = db.insert(b"replacement")
        assert db.query(new_id) == b"replacement"
        with pytest.raises(PageNotFoundError):
            db.query(old_id)

    def test_deleted_base_id_stays_dead_after_reinsert(self):
        db = _sharded(seed=25)
        db.delete(5)
        # Inserts may recycle shard 0's freed slot under a fresh id.
        fresh = [db.insert(f"recycled-{i}".encode()) for i in range(3)]
        with pytest.raises(PageDeletedError):
            db.query(5)
        for i, gid in enumerate(fresh):
            assert db.query(gid) == f"recycled-{i}".encode()

    def test_delete_is_idempotent_error(self):
        db = _sharded(seed=26)
        db.delete(7)
        with pytest.raises(PageDeletedError):
            db.delete(7)


class TestParallelExecution:
    def test_parallel_and_serial_streams_identical(self):
        """Each shard owns its clock/RNG, so interleaving changes nothing."""
        results = {}
        for parallel in (False, True):
            with _sharded(seed=27, parallel=parallel,
                          spec=HardwareSpec()) as db:
                payloads = [db.query(step % 60) for step in range(20)]
                db.update(3, b"parallel-proof")
                payloads.append(db.query(3))
                results[parallel] = (
                    payloads,
                    [shard.clock.now for shard in db.shards],
                    db.shard_request_counts(),
                )
                db.consistency_check()
        assert results[False] == results[True]

    def test_elapsed_serial_sums_shard_clocks(self):
        with _sharded(seed=28, spec=HardwareSpec()) as db:
            for step in range(9):
                db.query(step % 60)
            assert db.elapsed_serial() == pytest.approx(
                sum(s.clock.now for s in db.shards)
            )
            # Cover traffic keeps shard loads equal, so the parallel
            # deployment's speedup approaches the shard count.
            assert db.elapsed_serial() / db.elapsed() > 2.0

    def test_executor_counters(self):
        with _sharded(seed=29) as db:
            db.query(0)
            db.query(42)
        assert db.counters.get("dispatches") == 2
        assert db.counters.get("operations") == 6
        assert db.counters.get("covers") == 4

    def test_shared_tracer_forces_serial(self):
        from repro.obs.tracer import Tracer

        db = _sharded(seed=30, tracer=Tracer())
        assert db.executor.parallel is False
        db.query(1)


class TestAggregates:
    def test_achieved_c_is_worst_shard(self):
        db = _sharded(seed=17)
        assert db.achieved_c == max(s.achieved_c for s in db.shards)
        assert db.achieved_c <= 2.0 + 1e-9

    def test_storage_aggregates(self):
        db = _sharded(seed=18)
        report = db.storage_report()
        assert report.total == sum(s.storage_report().total for s in db.shards)

    def test_parallel_elapsed_is_max(self):
        db = _sharded(seed=19, spec=HardwareSpec())
        db.query(5)
        assert db.elapsed() == max(s.clock.now for s in db.shards)
        assert db.elapsed() > 0

    def test_smaller_shards_give_smaller_blocks(self):
        """Partitioning shrinks each instance's n, hence k and per-unit cost."""
        whole = make_records(60, 16)
        from repro.core.database import PirDatabase

        single = PirDatabase.create(whole, cache_capacity=4, target_c=2.0,
                                    page_capacity=16, seed=20)
        sharded = _sharded(seed=21)
        assert all(
            s.params.block_size <= single.params.block_size
            for s in sharded.shards
        )
