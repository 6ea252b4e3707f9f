"""Sharded deployment across multiple secure coprocessors.

§5 observes that larger databases need more secure memory than one IBM 4764
provides and suggests deploying several units.  Two architectures follow:

* **pooled** — one logical engine whose cache/pageMap span all units'
  memory; that is what the analytical model's ``units_required`` prices,
  and it needs no new code (the parameters just use the bigger m).
* **partitioned** (this module) — each unit runs an *independent*
  c-approximate PIR instance over a contiguous slice of the database.
  Partitioning multiplies throughput (shards operate in parallel) and
  shrinks each instance's n, but the request's *shard id* becomes visible
  to the server, leaking coarse popularity at shard granularity.

:class:`ShardedPirDatabase` therefore issues **cover traffic** by default:
every operation drives one real request on the owning shard and a dummy
request (``touch``) on every other shard, restoring indistinguishability at
the cost of the parallel-hardware latency max instead of a single shard's.
Setting ``cover_traffic=False`` exposes the trade-off for the ablation
benchmark.

Two properties of the cover traffic matter for privacy and performance:

* **Order independence.**  The per-shard operations of one logical request
  are always issued in canonical shard-index order, never "real shard
  first" — an observer of the cross-shard access *sequence* must learn
  nothing about which shard served the real operation (the old
  target-first ordering leaked it exactly).
* **Parallel dispatch.**  With ``parallel=True`` (the default) the real
  operation and all covers run concurrently on a :class:`ShardExecutor` —
  a thread pool with one worker and one lock per shard, so a shard's
  engine is never entered by two threads at once.  That makes
  :meth:`ShardedPirDatabase.elapsed`'s max-over-shards model honest in
  wall-clock terms too.  Each shard owns its clock, RNG and engine, so the
  per-shard request streams (and therefore all frames, traces and virtual
  clocks) are byte-identical between parallel and serial execution.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .database import PirDatabase
from .engine import BatchOp
from ..errors import (
    ConfigurationError,
    PageDeletedError,
    PageNotFoundError,
    ReproError,
)
from ..hardware.coprocessor import SecureStorageReport
from ..hardware.specs import HardwareSpec
from ..sim.metrics import CounterSet

__all__ = ["ShardedPirDatabase", "ShardExecutor"]


def _globalise_error(exc: Exception, local_id, global_id: int) -> Exception:
    """Rewrite a shard-level error so its message names the global id.

    Shards speak local page ids; the substitution makes error slots name
    the id the caller passed.  Errors whose message does not mention the
    local id pass through unchanged.
    """
    if local_id is None:
        return exc
    text = str(exc)
    marker = f"page {local_id}"
    if marker not in text:
        return exc
    return type(exc)(text.replace(marker, f"page {global_id}", 1))


class ShardExecutor:
    """Dispatches per-shard operations, optionally on parallel workers.

    One worker thread and one lock per shard: operations for *different*
    shards run concurrently, while a shard's engine (single-threaded by
    design — its RNG, cipher suite and tracer are stateful) is entered by
    at most one thread at a time.  In serial mode (``parallel=False``)
    operations run inline in submission order; both modes drive each
    shard through the same per-shard operation sequence, so results are
    identical and only wall-clock time differs.
    """

    def __init__(self, num_shards: int, parallel: bool = True,
                 counters: Optional[CounterSet] = None):
        if num_shards <= 0:
            raise ConfigurationError("executor needs at least one shard")
        self.parallel = parallel and num_shards > 1
        self._locks = [threading.Lock() for _ in range(num_shards)]
        self._pool: Optional[ThreadPoolExecutor] = None
        self._counters = counters if counters is not None else CounterSet()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=len(self._locks), thread_name_prefix="shard"
            )
        return self._pool

    def _run_one(self, shard_index: int, operation: Callable[[], object]):
        with self._locks[shard_index]:
            return operation()

    def run(self, operations: Sequence[Tuple[int, Callable[[], object]]]) -> list:
        """Execute ``(shard_index, thunk)`` pairs; returns results in order.

        All operations are driven to completion even when one raises, so a
        failing real operation cannot leave cover traffic half-issued (the
        per-shard state always advances uniformly); the first exception in
        submission order is then re-raised.
        """
        self._counters.increment("dispatches")
        self._counters.increment("operations", len(operations))
        if not self.parallel:
            # Serial fallback still drives every shard before re-raising.
            results: list = []
            first_error: Optional[BaseException] = None
            for shard_index, operation in operations:
                try:
                    results.append(self._run_one(shard_index, operation))
                except Exception as exc:  # noqa: BLE001 - re-raised below
                    results.append(None)
                    if first_error is None:
                        first_error = exc
            if first_error is not None:
                raise first_error
            return results
        pool = self._ensure_pool()
        self._counters.increment("parallel_dispatches")
        futures = [
            pool.submit(self._run_one, shard_index, operation)
            for shard_index, operation in operations
        ]
        wait(futures)
        first_error = None
        results = []
        for future in futures:
            error = future.exception()
            if error is not None:
                results.append(None)
                if first_error is None:
                    first_error = error
            else:
                results.append(future.result())
        if first_error is not None:
            raise first_error
        return results

    def close(self) -> None:
        """Shut down the worker pool (idempotent; serial mode is a no-op)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ShardedPirDatabase:
    """A database partitioned over independent coprocessor instances."""

    def __init__(self, shards: List[PirDatabase], records_per_shard: int,
                 num_records: int, cover_traffic: bool,
                 parallel: bool = True, metrics=None):
        self.shards = shards
        self._per_shard = records_per_shard
        self.num_records = num_records
        self.cover_traffic = cover_traffic
        self.counters = CounterSet(registry=metrics, prefix="shardpool.")
        self.executor = ShardExecutor(
            len(shards), parallel=parallel, counters=self.counters
        )
        # Inserted pages get fresh global ids above the record space; the
        # routing table lives with the rest of the trusted metadata.  The
        # lock guards it (and the tombstone set) against concurrent client
        # threads — the per-shard engines have their own executor locks.
        self._routing_lock = threading.Lock()
        self._inserted: Dict[int, Tuple[int, int]] = {}
        self._next_inserted_id = num_records
        # Deleted *base-range* ids stay dead forever: their disk slot may
        # be recycled by a later insert under a fresh global id, and
        # without the tombstone the stale id would silently alias the new
        # record (same bug class as stale ``_inserted`` entries).
        self._deleted_base: set = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        records: Sequence[bytes],
        num_shards: int,
        cache_capacity_per_shard: int,
        target_c: float = 2.0,
        page_capacity: int = 1024,
        reserve_fraction: float = 0.0,
        cover_traffic: bool = True,
        spec: Optional[HardwareSpec] = None,
        seed: Optional[int] = None,
        parallel: bool = True,
        metrics=None,
        **database_options,
    ) -> "ShardedPirDatabase":
        """Partition ``records`` into contiguous shards, one engine each.

        ``parallel`` selects concurrent dispatch of the real operation and
        its covers (see :class:`ShardExecutor`); a shared ``tracer`` in
        ``database_options`` forces serial dispatch, because a
        :class:`~repro.obs.tracer.Tracer` is single-threaded by design
        and would interleave spans from different shards.  ``metrics``
        (a thread-safe :class:`~repro.obs.registry.MetricsRegistry`) is
        shared by all shards and the dispatch counters (``shardpool.*``).
        """
        if num_shards <= 0:
            raise ConfigurationError("need at least one shard")
        if len(records) < num_shards:
            raise ConfigurationError("fewer records than shards")
        if database_options.get("tracer") is not None:
            parallel = False
        per_shard = (len(records) + num_shards - 1) // num_shards
        shards: List[PirDatabase] = []
        for index in range(num_shards):
            slice_ = records[index * per_shard : (index + 1) * per_shard]
            if not slice_:
                raise ConfigurationError(
                    "empty shard; lower num_shards for this record count"
                )
            shards.append(
                PirDatabase.create(
                    slice_,
                    cache_capacity=cache_capacity_per_shard,
                    target_c=target_c,
                    page_capacity=page_capacity,
                    reserve_fraction=reserve_fraction,
                    spec=spec,
                    seed=None if seed is None else seed * 1000 + index,
                    metrics=metrics,
                    **database_options,
                )
            )
        return cls(shards, per_shard, len(records), cover_traffic,
                   parallel=parallel, metrics=metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the executor's worker threads and each shard's
        background workers — keystream prefetch and online reshuffle —
        when present (idempotent)."""
        self.executor.close()
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedPirDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def query(self, global_id: int) -> bytes:
        return self._run_one(BatchOp("query", page_id=global_id))

    def update(self, global_id: int, payload: bytes) -> None:
        self._run_one(BatchOp("update", page_id=global_id, payload=payload))

    def delete(self, global_id: int) -> None:
        self._run_one(BatchOp("delete", page_id=global_id))

    def touch(self) -> None:
        """Dummy request to keep the shards' reshuffles mixing.

        With cover traffic every shard advances one request (matching the
        uniform streams real operations produce); without it, shard 0
        hosts the single dummy.
        """
        self._run_one(BatchOp("touch"))

    def insert(self, payload: bytes) -> int:
        """Insert into the emptiest shard; returns a fresh global id."""
        return self._run_one(BatchOp("insert", payload=payload))

    def _run_one(self, op: BatchOp):
        """One op as a batch of one, re-raising its slot's error."""
        result = self.run_batch([op])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def run_batch(self, ops: Sequence[BatchOp]) -> List[object]:
        """Batch across shards: one windowed disk pass per shard.

        Every operation goes through here; the per-op methods are
        batches of one.

        A routing prescan resolves every op's owning shard (recording
        routing failures in their slots without consuming requests), then
        each shard receives *one* :meth:`PirDatabase.run_batch` call
        carrying its real ops plus one ``touch`` cover per foreign real op
        — per-shard streams stay equal-length in canonical order, so the
        cross-shard sequence leaks nothing about targets, and each shard
        fuses its whole stream into round-robin windows.  Inserts are
        routed to the emptiest shard by *simulated* free counts (the
        prescan replays the batch's deletes/inserts against the starting
        counts; which shard hosts a page is placement, not content, so
        replies match sending the ops one at a time).  Global ids for
        successful inserts are allocated in batch order; successful
        deletes tombstone their global id only after the shard commits.
        """
        results: List[object] = [None] * len(ops)
        with self._routing_lock:
            free = [shard.cop.page_map.free_count for shard in self.shards]
            # The prescan replays the batch's routing-table mutations: a
            # delete must tombstone its global id *for the rest of the
            # batch*, or a later op could silently alias onto an insert
            # that recycles the freed local slot — the exact stale-alias
            # bug the tombstone set prevents across batches.
            sim_deleted_base: set = set()
            sim_removed_inserted: set = set()

            def sim_route(global_id: int) -> Tuple[int, int]:
                if global_id in sim_deleted_base:
                    raise PageDeletedError(f"page {global_id} is deleted")
                if global_id in sim_removed_inserted:
                    raise PageNotFoundError(
                        f"unknown global page id {global_id}"
                    )
                return self._route_locked(global_id)

            routed: List[Tuple[int, Optional[int], int, BatchOp]] = []
            for slot, op in enumerate(ops):
                try:
                    if op.kind == "touch":
                        routed.append((slot, None, -1, op))
                    elif op.kind == "insert":
                        best = max(range(self.num_shards),
                                   key=lambda index: free[index])
                        free[best] -= 1
                        routed.append(
                            (slot, best, -1, BatchOp("insert",
                                                     payload=op.payload))
                        )
                    else:
                        shard_index, local = sim_route(op.page_id)
                        if op.kind == "delete":
                            free[shard_index] += 1
                            if op.page_id < self.num_records:
                                sim_deleted_base.add(op.page_id)
                            else:
                                sim_removed_inserted.add(op.page_id)
                        routed.append(
                            (slot, shard_index, op.page_id,
                             BatchOp(op.kind, page_id=local,
                                     payload=op.payload))
                        )
                except ReproError as exc:
                    results[slot] = exc

        if not routed:
            return results
        self.counters.increment("batch.requests")
        self.counters.increment("batch.ops", len(routed))

        # Per-shard streams: the owning shard gets the real op, every other
        # shard a touch cover, all in canonical shard order per logical op.
        per_shard: List[List[Tuple[Optional[int], BatchOp]]] = [
            [] for _ in self.shards
        ]
        cover = BatchOp("touch")
        covers_issued = 0
        for slot, owner, _, local_op in routed:
            for index in range(self.num_shards):
                if index == owner:
                    per_shard[index].append((slot, local_op))
                elif owner is None and index == 0:
                    # A batch touch with covers disabled still needs one
                    # real dummy request somewhere; shard 0 hosts it.
                    per_shard[index].append((slot, local_op))
                elif self.cover_traffic:
                    per_shard[index].append((None, cover))
                    covers_issued += 1
        if covers_issued:
            self.counters.increment("covers", covers_issued)

        def shard_thunk(db: PirDatabase,
                        stream: List[Tuple[Optional[int], BatchOp]]):
            return db.run_batch([op for _, op in stream])

        operations = [
            (index, partial(shard_thunk, self.shards[index], per_shard[index]))
            for index in range(self.num_shards)
            if per_shard[index]
        ]
        shard_results = self.executor.run(operations)

        # Merge positionally from each owning shard; shard-level errors
        # name local ids, so rewrite them in terms of the global id.
        owner_of = {slot: (0 if owner is None else owner)
                    for slot, owner, _, _ in routed}
        for (index, _), replies in zip(operations, shard_results):
            for (slot, _), reply in zip(per_shard[index], replies):
                if slot is not None and owner_of[slot] == index:
                    results[slot] = reply

        with self._routing_lock:
            for slot, owner, global_id, local_op in routed:
                reply = results[slot]
                if local_op.kind == "insert" and not isinstance(
                        reply, Exception):
                    new_id = self._next_inserted_id
                    self._next_inserted_id += 1
                    self._inserted[new_id] = (owner, reply)
                    results[slot] = new_id
                elif local_op.kind == "delete" and not isinstance(
                        reply, Exception):
                    if global_id < self.num_records:
                        self._deleted_base.add(global_id)
                    else:
                        self._inserted.pop(global_id, None)
                elif isinstance(reply, Exception) and global_id >= 0:
                    results[slot] = _globalise_error(
                        reply, local_op.page_id, global_id
                    )
        return results

    def _route_locked(self, global_id: int) -> Tuple[int, int]:
        """Global id -> (shard index, local page id); caller holds the lock."""
        if isinstance(global_id, int) and 0 <= global_id < self.num_records:
            if global_id in self._deleted_base:
                raise PageDeletedError(f"page {global_id} is deleted")
            return global_id // self._per_shard, global_id % self._per_shard
        if global_id in self._inserted:
            return self._inserted[global_id]
        raise PageNotFoundError(f"unknown global page id {global_id}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def achieved_c(self) -> float:
        """Worst (largest) per-shard privacy level."""
        return max(shard.achieved_c for shard in self.shards)

    def elapsed(self) -> float:
        """Simulated time so far, assuming shards run on parallel hardware."""
        return max(shard.clock.now for shard in self.shards)

    def elapsed_serial(self) -> float:
        """Simulated time if every shard operation ran on one unit in turn.

        The sum of the per-shard clocks: what the same request stream
        would cost without parallel hardware.  ``elapsed_serial() /
        elapsed()`` is the deterministic speedup the partitioned
        deployment buys (``bench_parallel.py`` gates on it).
        """
        return sum(shard.clock.now for shard in self.shards)

    def total_requests(self) -> int:
        return sum(shard.engine.request_count for shard in self.shards)

    def storage_report(self) -> SecureStorageReport:
        """Aggregate secure-memory footprint across all units."""
        reports = [shard.storage_report() for shard in self.shards]
        return SecureStorageReport(
            page_map=sum(r.page_map for r in reports),
            page_cache=sum(r.page_cache for r in reports),
            server_block=sum(r.server_block for r in reports),
        )

    def shard_request_counts(self) -> List[int]:
        """Per-shard request totals — equal under cover traffic."""
        return [shard.engine.request_count for shard in self.shards]

    def consistency_check(self) -> None:
        for shard in self.shards:
            shard.consistency_check()
