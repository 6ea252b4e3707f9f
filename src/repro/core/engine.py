"""The private page retrieval algorithm (Figure 3) and §4.3 updates.

Every client operation — query, modification, deletion, insertion — executes
the *identical* observable sequence:

1. read the next round-robin block of ``k`` consecutive frames,
2. read one extra frame (the target page, or a random / free page),
3. decrypt all ``k + 1`` pages inside the tamper boundary,
4. swap the target into a uniformly random block slot ``r`` (line 18),
5. swap it with a cache slot ``s`` (line 20) — the evicted cache page
   lands in block slot ``r``, i.e. uniformly over the block's k locations,
   which is precisely what Eq. 2 analyses,
6. re-encrypt everything with fresh nonces and write the ``k + 1`` frames
   back (one contiguous block write + one extra write).

Four random disk accesses, ``2(k+1)`` frames over the link and through the
crypto engine per request (Eq. 8), with *zero* dependence of the trace shape
on the operation type or on cache hits — the property §4.3 sells for update
privacy and the tests verify byte-for-byte on the trace.

One executor
------------

:meth:`RetrievalEngine.run_batch` is the only request executor.  It groups
ops into round-robin *windows* of up to k: a window reads its block once
(together with op 0's extra page, as one request read), runs steps 2-5 for
each op against the shared in-memory frames, and commits one write-back of
the block plus one extra frame per op.  The per-op methods (``retrieve``,
``modify``, ``delete``, ``insert``, ``touch``) are windows of one, whose
trace is exactly the sequence above.  DESIGN.md §14 argues the privacy of
windows of any size.

Crash consistency
-----------------

The request is internally structured as *compute → intend → apply*: all
random choices, content edits and re-encryptions are computed first without
touching any durable or trusted state; the complete post-state (frames,
pageMap/cache delta, advanced pointers) is then optionally sealed into a
write-ahead :mod:`intent journal <repro.core.journal>`; only then is it
applied — trusted deltas, the k+1 frame write-back, pointer advance, journal
clear, in that order.  Every apply step is idempotent and absolute, so
:meth:`RetrievalEngine.recover` can roll a torn write-back forward (valid
intent record) or declare the request never-happened (no/unauthentic
record) after a crash at *any* individual step.

When the write-back fails *without* killing the process (a transient I/O
error), the engine keeps the intent in memory and rolls it forward
automatically at the start of the next request, so a retried request never
computes against a pageMap pointing at never-written frames and never
overwrites a journal record that is still needed for repair.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .journal import (
    FLAG_DELETED,
    FLAG_LIVE,
    MAP_CACHED,
    MAP_DISK,
    WriteIntent,
)
from .params import SystemParameters
from ..errors import (
    AuthenticationError,
    CapacityError,
    ConfigurationError,
    CryptoError,
    PageDeletedError,
    PageNotFoundError,
    RecoveryError,
    ReproError,
    StorageError,
    TransientStorageError,
)
from ..faults.retry import RetryPolicy, retry_call
from ..hardware.coprocessor import SecureCoprocessor
from ..obs.tracer import NULL_TRACER, Tracer
from ..sim.metrics import CounterSet
from ..storage.disk import DiskStore
from ..storage.page import Page

__all__ = ["RetrievalEngine", "RequestOutcome", "RecoveryReport", "BatchOp"]

_MAX_REJECTION_ROUNDS = 10_000_000

BATCH_KINDS = ("query", "update", "insert", "delete", "touch")


@dataclass(frozen=True)
class BatchOp:
    """One logical operation for :meth:`RetrievalEngine.run_batch`.

    ``kind`` is one of :data:`BATCH_KINDS`; ``page_id`` is required for
    query/update/delete and ``payload`` for update/insert.  The engine
    validates per slot, so a malformed op refuses its own slot without
    sinking the batch.
    """

    kind: str
    page_id: Optional[int] = None
    payload: Optional[bytes] = None


@dataclass
class RequestOutcome:
    """What one request did, for metrics and tests (never leaves the TCB).

    ``elapsed`` is the virtual time of the whole window the op ran in —
    for a window of one, the request's own cost.
    """

    request_index: int
    block_start: int
    extra_location: int
    cache_hit: bool
    victim_slot: int
    block_slot: int
    elapsed: float


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`RetrievalEngine.recover` found and did.

    ``action`` is one of:

    ``"clean"``
        No journal, or an empty journal slot — nothing was in flight.
    ``"rolled_back"``
        The journal held a torn/unauthentic record: the crash hit before
        the intent became durable, so the request never happened.
    ``"replayed"``
        A valid record for the in-flight request was rolled forward.
    ``"discarded_stale"``
        The record described an already-committed request (the crash hit
        between the write-back completing and the journal being cleared).
    """

    action: str
    request_index: Optional[int] = None


class RetrievalEngine:
    """Executes Figure 3 over a prepared coprocessor + disk pair.

    The engine assumes setup already happened (cache full, every disk
    location holds a frame, page map consistent) —
    :class:`repro.core.database.PirDatabase` is the friendly constructor
    that performs that setup.

    ``journal`` (any object with ``write``/``read``/``clear``, see
    :mod:`repro.core.journal`) enables crash-consistent write-back;
    ``read_retry`` (a :class:`~repro.faults.retry.RetryPolicy`) retries
    the block fetch on :class:`~repro.errors.TransientStorageError` and
    performs bounded re-reads on :class:`~repro.errors.AuthenticationError`,
    with backoff charged to the virtual clock and jitter drawn from a
    spawned (seeded) RNG so faulty runs stay exactly reproducible.
    """

    def __init__(
        self,
        params: SystemParameters,
        coprocessor: SecureCoprocessor,
        disk: DiskStore,
        journal=None,
        read_retry: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics=None,
    ):
        if disk.num_locations != params.num_locations:
            raise ConfigurationError("disk size does not match parameters")
        if coprocessor.cache.capacity != params.cache_capacity:
            raise ConfigurationError("cache capacity does not match parameters")
        if coprocessor.page_map.num_pages != params.total_pages:
            raise ConfigurationError("page map size does not match parameters")
        self.params = params
        self.cop = coprocessor
        self.disk = disk
        self.journal = journal
        self.read_retry = read_retry
        self._retry_rng = coprocessor.rng.spawn("engine-retry")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.counters = CounterSet(registry=metrics, prefix="engine.")
        # Per-window virtual latency distribution (observed in run_batch).
        self._query_hist = (
            metrics.histogram("engine.query_seconds")
            if metrics is not None else None
        )
        # Serialises trusted-state mutation between the request path and
        # background workers (the online reshuffler takes it per comparator
        # batch).  Re-entrant so request helpers may call back into public
        # operations while already holding it.
        self.op_lock = threading.RLock()
        # Background workers (the online reshuffler) register their own
        # roll-forward hooks here so a request never computes against a
        # half-applied *background* write-back either; see _heal_pending.
        self._background_healers: List = []
        self._next_block = 0
        self._request_count = 0
        self._rotation_requests_left: Optional[int] = None
        self._pending_intent: Optional[WriteIntent] = None
        self.last_outcome: Optional[RequestOutcome] = None

    # -- public operations -------------------------------------------------------

    @property
    def request_count(self) -> int:
        return self._request_count

    @property
    def next_block_index(self) -> int:
        """Round-robin position (0..num_blocks-1) of the next request's block."""
        return self._next_block

    def retrieve(self, page_id: int) -> Page:
        """Q(i): privately fetch page ``page_id`` (Figure 3's Retrieve).

        A deleted page still costs one full request (the trace must not
        depend on page state) and then raises :class:`PageDeletedError`.
        """
        return self._run_one(BatchOp("query", page_id=page_id))

    def modify(self, page_id: int, payload: bytes) -> None:
        """Replace a page's payload; trace-identical to a query (§4.3)."""
        self._run_one(BatchOp("update", page_id=page_id, payload=payload))

    def delete(self, page_id: int) -> None:
        """Mark a page deleted; its slot joins the insertion free pool (§4.3)."""
        self._run_one(BatchOp("delete", page_id=page_id))

    def insert(self, payload: bytes) -> int:
        """Store a new page in a reclaimed free slot; returns its page id (§4.3)."""
        return self._run_one(BatchOp("insert", payload=payload))

    def touch(self) -> None:
        """One dummy request (random page), e.g. to keep the reshuffle mixing
        during idle periods.  Observable trace identical to any query."""
        self._run_one(BatchOp("touch"))

    def _run_one(self, op: BatchOp):
        """Execute one op as a window of one, re-raising its slot's error."""
        result = self.run_batch([op])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def begin_key_rotation(self, new_master_key: bytes) -> None:
        """Rotate the database encryption key online, for free.

        Sealing switches to the new key immediately; the legacy key stays
        available for reads.  Because every request rewrites its whole
        round-robin block (plus one extra page), all n locations carry
        new-key frames after exactly one scan period of further requests,
        at which point the legacy key is dropped automatically.  The server
        observes nothing: write-backs are always freshly re-encrypted.
        """
        self.cop.begin_key_rotation(new_master_key)
        self._rotation_requests_left = self.params.num_blocks

    @property
    def rotation_requests_remaining(self) -> Optional[int]:
        """Requests until the legacy key can be dropped (None if no rotation)."""
        return self._rotation_requests_left

    # -- crash recovery ----------------------------------------------------------

    @property
    def journal_pending(self) -> bool:
        """True when the journal holds an intent record (recover() needed)."""
        return self.journal is not None and self.journal.read() is not None

    @property
    def write_back_pending(self) -> bool:
        """True when a failed write-back awaits roll-forward.

        Set when the disk raised mid-apply *without* crashing the process;
        the next request (or :meth:`recover`) re-applies the retained
        intent before doing anything else, so callers normally never need
        to check this — it exists for tests and diagnostics.
        """
        return self._pending_intent is not None

    def recover(self) -> RecoveryReport:
        """Repair a torn write-back after a crash; idempotent.

        Call on restart (or after catching a simulated crash) before
        serving requests.  Outcome semantics are documented on
        :class:`RecoveryReport`.  Raises
        :class:`~repro.errors.RecoveryError` when the journal describes a
        request *later* than the trusted state expects — the trusted state
        is older than the journal (e.g. restored from a stale snapshot)
        and roll-forward would corrupt the database.
        """
        with self.op_lock:
            return self._recover_locked()

    def _recover_locked(self) -> RecoveryReport:
        if self.journal is None:
            if self._pending_intent is not None:
                # Journal-less engines can still roll a failed write-back
                # forward from the in-memory intent (see _heal_pending).
                self._heal_pending()
                return RecoveryReport("replayed", self._request_count - 1)
            return RecoveryReport("clean")
        blob = self.journal.read()
        if blob is None:
            self._pending_intent = None
            self.counters.increment("recovery.clean")
            return RecoveryReport("clean")
        try:
            intent = WriteIntent.decode(self.cop.unseal_blob(blob))
        except (CryptoError, StorageError):
            # Torn or unauthentic record: the crash hit while the intent
            # itself was being written, so no write-back ever started and
            # no trusted state was mutated.  The request never happened.
            self.journal.clear()
            self._pending_intent = None
            self.counters.increment("recovery.rolled_back")
            return RecoveryReport("rolled_back")
        if intent.request_index < self._request_count:
            # Write-back committed; only the journal clear was lost.
            self.journal.clear()
            self._pending_intent = None
            self.counters.increment("recovery.discarded_stale")
            return RecoveryReport("discarded_stale", intent.request_index)
        if intent.request_index > self._request_count:
            raise RecoveryError(
                f"journal describes request {intent.request_index} but the "
                f"trusted state expects request {self._request_count}; the "
                "restored state is older than the journal and cannot be "
                "rolled forward"
            )
        expected_frames = self.params.block_size + intent.request_span
        if len(intent.frames) != expected_frames:
            raise RecoveryError(
                f"intent record carries {len(intent.frames)} frames, "
                f"expected {expected_frames}"
            )
        self.disk.current_request = intent.request_index
        self._apply_intent(intent)
        self.journal.clear()
        self.disk.current_request = -1
        self.counters.increment("recovery.replayed")
        return RecoveryReport("replayed", intent.request_index)

    def prefetch_next(self) -> int:
        """Precompute decrypt keystreams for the next round-robin block.

        The scan order is deterministic, so the k locations the next
        request will read are known now; their nonces were recorded when
        the frames were written (or seeded at setup).  The extra (k+1)-th
        page depends on the next request's target and cannot be
        prefetched — it accounts for the one expected miss per request.
        A no-op without an attached pipeline.  Returns the number of
        keystream bytes scheduled.
        """
        if self.cop.pipeline is None:
            return 0
        k = self.params.block_size
        start = self._next_block * k
        with self.tracer.span("pipeline.prefetch"):
            return self.cop.prefetch_keystreams(range(start, start + k))

    # -- the request executor ----------------------------------------------------

    def run_batch(self, ops: Sequence[BatchOp]) -> List[object]:
        """Execute ops in round-robin windows of up to k, **one disk pass each**.

        This is the engine's only request executor: the per-op methods
        are windows of one.  Each window reads the k-frame block once,
        decrypts it with a single fused keystream call, serves every op
        in the group from the shared in-memory frames, and commits one
        journaled write-back — B ops cost ~(k+B) frame transfers instead
        of B·(k+1), while replies stay byte-identical to running the ops
        one at a time (content is a pure function of the logical op
        sequence; see DESIGN.md §14 for the privacy argument).

        Returns a positional result list: a :class:`Page` for ``query``,
        the new page id (int) for ``insert``, ``None`` for
        update/delete/touch.  A slot whose op failed holds the exception
        instance instead — validation failures never consume a request,
        and a window-level storage fault fails only that window's slots.
        Non-PIR exceptions (e.g. a simulated crash) propagate, leaving the
        journal positioned for :meth:`recover`.
        """
        k = self.params.block_size
        results: List[object] = [None] * len(ops)
        for start in range(0, len(ops), k):
            # Locked per window, not per batch: a background comparator
            # batch may interleave between windows (each window commits
            # atomically) but never inside one.
            with self.op_lock:
                # A previous window whose write-back failed mid-apply left
                # trusted deltas in place with the frames unwritten; roll
                # it forward before planning against that state.
                self._heal_pending()
                indices = list(range(start, min(start + k, len(ops))))
                plan = self._plan_window([ops[i] for i in indices], results,
                                         indices)
                live = [(i, entry) for i, entry in zip(indices, plan)
                        if entry is not None]
                if not live:
                    continue
                try:
                    # The "request" span is the root of each window's
                    # trace: everything it does (disk, link, crypto,
                    # journal, write-back) nests under it, and for a
                    # window of one its virtual duration is what
                    # CostModelCheck compares against Eq. 8.
                    with self.tracer.span("request"):
                        self._run_window(live, results)
                except ReproError as exc:
                    # Compute-phase abort: nothing trusted or durable
                    # changed, the window simply never happened.
                    # Apply-phase failure: the intent is retained and the
                    # next window's heal rolls it forward (the ops then
                    # *have* committed — clients that retry on the reported
                    # transient error stay idempotent).  Either way every
                    # executable slot reports the error (validation
                    # failures recorded by the planner stand) and later
                    # windows proceed.
                    for i, _ in live:
                        results[i] = exc
                    self.disk.current_request = -1
                    continue
                # Per-window virtual latency — for a window of one, the
                # Eq. 8 constant-cost claim shows up as a degenerate
                # (zero-variance) histogram.
                if self._query_hist is not None:
                    self._query_hist.observe(self.last_outcome.elapsed)
                # Idle-time keystream prefetch for the *next* window's
                # block — a sibling of the "request" span, so it never
                # inflates the request's own wall/virtual totals (and it
                # charges no virtual time at all).
                self.prefetch_next()
        return results

    def _plan_window(
        self,
        ops: Sequence[BatchOp],
        results: List[object],
        indices: Sequence[int],
    ) -> List[Optional[Tuple]]:
        """Validate a window's ops against a simulated flag/free overlay.

        Validation outcomes depend only on the logical op sequence (page
        flags and the free pool), never on relocation randomness, so the
        planner can decide *before* touching the disk which ops execute —
        a window whose every op fails validation performs no I/O at all,
        and insert targets are pinned here (the lowest free id at that
        op's turn, a pure function of the logical op sequence).
        """
        pm = self.cop.page_map
        sim_flags: Dict[int, int] = {}
        sim_free: Optional[set] = None

        def sim_deleted(page_id: int) -> bool:
            flag = sim_flags.get(page_id)
            if flag is not None:
                return flag == FLAG_DELETED
            return pm.is_deleted(page_id)

        def materialised_free() -> set:
            nonlocal sim_free
            if sim_free is None:
                sim_free = set(pm.free_ids())
                for page_id, flag in sim_flags.items():
                    if flag == FLAG_DELETED:
                        sim_free.add(page_id)
                    else:
                        sim_free.discard(page_id)
            return sim_free

        plan: List[Optional[Tuple]] = []
        for slot, op in zip(indices, ops):
            try:
                if op.kind == "touch":
                    entry = ("touch", None, None, False, False)
                elif op.kind == "query":
                    self._check_user_id(op.page_id)
                    entry = ("query", op.page_id, None, False, False)
                elif op.kind == "update":
                    self._check_user_id(op.page_id)
                    self._check_payload(op.payload)
                    sim_flags[op.page_id] = FLAG_LIVE
                    if sim_free is not None:
                        sim_free.discard(op.page_id)
                    entry = ("update", op.page_id, op.payload, False, True)
                elif op.kind == "delete":
                    self._check_user_id(op.page_id)
                    if sim_deleted(op.page_id):
                        raise PageNotFoundError(
                            f"page {op.page_id} is already deleted"
                        )
                    sim_flags[op.page_id] = FLAG_DELETED
                    if sim_free is not None:
                        sim_free.add(op.page_id)
                    entry = ("delete", op.page_id, None, True, False)
                elif op.kind == "insert":
                    self._check_payload(op.payload)
                    free = materialised_free()
                    if not free:
                        raise CapacityError(
                            "no free page available for insertion; delete "
                            "pages or provision a reserve_fraction at setup"
                        )
                    target = min(free)
                    free.discard(target)
                    sim_flags[target] = FLAG_LIVE
                    entry = ("insert", target, op.payload, False, True)
                else:
                    raise ConfigurationError(
                        f"unknown batch op kind {op.kind!r}"
                    )
            except ReproError as exc:
                results[slot] = exc
                plan.append(None)
            else:
                plan.append(entry)
        return plan

    def _run_window(
        self,
        live: List[Tuple[int, Tuple]],
        results: List[object],
    ) -> None:
        """One disk pass serving every planned op of one window.

        Compute → intend → apply: all per-op relocations happen against
        in-memory containers (the shared block plus per-op extra frames)
        and a *pending overlay* of the trusted state; nothing lands in the
        real pageMap/pageCache — and nothing durable moves — until the
        single commit point, so a mid-window read fault aborts the whole
        window cleanly.
        """
        pm = self.cop.page_map
        cache = self.cop.cache
        rng = self.cop.rng
        k = self.params.block_size
        started = self.cop.clock.now
        base_index = self._request_count
        self.disk.current_request = base_index
        # The next block of k contiguous pages, round-robin (line 1).  The
        # pointer itself only advances at commit, so an aborted or crashed
        # window leaves it untouched and a resend hits the same block.
        block_start = self._next_block * k

        # Filled by op 0's fetch, which reads the block together with its
        # extra page; every later op reads only its own extra frame.
        block: List[Page] = []
        extras: List[Page] = []
        extra_locs: List[int] = []

        # Window-wide pending overlay of the trusted state.
        ov_cache: Dict[int, Page] = {}
        ov_pos: Dict[int, Tuple[int, int]] = {}
        ov_flags: Dict[int, int] = {}
        cache_puts: List[Tuple[int, Page]] = []
        flag_ops: List[Tuple[int, int]] = []
        map_ops: List[Tuple[int, int, int]] = []

        def ov_lookup(page_id: int) -> Tuple[bool, int]:
            entry = ov_pos.get(page_id)
            if entry is not None:
                return entry[0] == MAP_CACHED, entry[1]
            location = pm.lookup(page_id)
            return location.in_cache, location.position

        def ov_is_deleted(page_id: int) -> bool:
            flag = ov_flags.get(page_id)
            if flag is not None:
                return flag == FLAG_DELETED
            return pm.is_deleted(page_id)

        def ov_cache_get(slot: int) -> Page:
            page = ov_cache.get(slot)
            return page if page is not None else cache.get(slot)

        def in_containers(position: int) -> bool:
            return (block_start <= position < block_start + k
                    or position in extra_locs)

        def container_get(position: int) -> Page:
            if block_start <= position < block_start + k:
                return block[position - block_start]
            return extras[extra_locs.index(position)]

        def container_set(position: int, page: Page) -> None:
            if block_start <= position < block_start + k:
                block[position - block_start] = page
            else:
                extras[extra_locs.index(position)] = page

        outcome: Optional[RequestOutcome] = None
        for slot, entry in live:
            kind, target_id, new_payload, deleting, revive = entry

            # Lines 2-9 against the overlay: decide the op's extra page and
            # capture a cached result.  Both depend only on the page map
            # and cache, never on block contents.
            cache_hit = False
            result: Optional[Page] = None
            with self.tracer.span("pagemap.lookup"):
                if target_id is None:
                    extra_id = self._window_random_candidate(
                        block_start, ov_pos, extra_locs
                    )
                else:
                    cache_hit, position = ov_lookup(target_id)
                    if cache_hit:
                        result = ov_cache_get(position)
                    if cache_hit or deleting or in_containers(position):
                        # Cache hits, deletions (handled as hits, §4.3) and
                        # targets already in the window's containers are
                        # served from memory; a random extra page keeps
                        # the shape.
                        extra_id = self._window_random_candidate(
                            block_start, ov_pos, extra_locs
                        )
                    else:
                        extra_id = target_id  # line 9: p <- i
                _, extra_location = ov_lookup(extra_id)

            # Lines 1, 10-11.  Op 0's extra page is known before any disk
            # access, so the block and that page go out as one request
            # read (one retry unit, one ingest charge, one unseal — and
            # the only read a remote transport implements).  Later ops
            # read just their own extra frame; the block is never re-read.
            if not extras:
                pages = self._fetch_block(block_start, k, extra_location)
                block = pages[:k]
                extras.append(pages[k])
            else:
                extras.append(self._fetch_window_extra(extra_location))
            extra_locs.append(extra_location)

            # Lines 12-16: locate the relocation target q.
            wants_fetched_target = (
                target_id is not None and not cache_hit and not deleting
            )
            if wants_fetched_target:
                _, q_pos = ov_lookup(target_id)
                result = container_get(q_pos)
                if result.page_id != target_id:
                    raise PageNotFoundError(
                        f"page {target_id} not found at mapped position "
                        f"{q_pos}; page map and disk are inconsistent"
                    )
            else:
                q_pos = extra_location

            # §4.3 content edits, recorded as overlay + intent deltas.
            if target_id is not None:
                if new_payload is not None:
                    fresh = Page(target_id, new_payload, deleted=False)
                    if cache_hit:
                        _, cache_slot = ov_lookup(target_id)
                        cache_puts.append((cache_slot, fresh))
                        ov_cache[cache_slot] = fresh
                        result = fresh
                    else:
                        container_set(q_pos, fresh)
                    if revive:
                        flag_ops.append((target_id, FLAG_LIVE))
                        ov_flags[target_id] = FLAG_LIVE
                if deleting:
                    if cache_hit:
                        _, cache_slot = ov_lookup(target_id)
                        carcass = Page(target_id, b"", deleted=True)
                        cache_puts.append((cache_slot, carcass))
                        ov_cache[cache_slot] = carcass
                    else:
                        # The carcass stays encrypted wherever it is; only
                        # metadata changes (and the copy in memory, if any).
                        _, carcass_pos = ov_lookup(target_id)
                        if in_containers(carcass_pos):
                            container_set(
                                carcass_pos,
                                container_get(carcass_pos).mark_deleted(),
                            )
                    flag_ops.append((target_id, FLAG_DELETED))
                    ov_flags[target_id] = FLAG_DELETED

            with self.tracer.span("cache.op"):
                # Lines 17-18: move the target to a uniform block slot.
                r = rng.randrange(k)
                r_pos = block_start + r
                page_r = container_get(r_pos)
                page_q = container_get(q_pos)
                container_set(r_pos, page_q)
                container_set(q_pos, page_r)

                # Lines 19-20: swap with a cache slot.  A deletion of a
                # cached page always selects that page as the victim
                # (§4.3); otherwise the victim is the policy's choice
                # (uniform under the paper's policy).
                with self.tracer.span("evict"):
                    if deleting and cache_hit:
                        _, s = ov_lookup(target_id)
                    else:
                        s = cache.victim_slot()
                    evicted = ov_cache_get(s)
                entering = container_get(r_pos)
                cache_puts.append((s, entering))
                ov_cache[s] = entering
                container_set(r_pos, evicted)

            # Lines 23-25 as pending deltas for the three relocated pages.
            page_at_r = container_get(r_pos)
            page_at_q = container_get(q_pos)
            map_ops.append((entering.page_id, MAP_CACHED, s))
            map_ops.append((page_at_r.page_id, MAP_DISK, r_pos))
            map_ops.append((page_at_q.page_id, MAP_DISK, q_pos))
            ov_pos[entering.page_id] = (MAP_CACHED, s)
            ov_pos[page_at_r.page_id] = (MAP_DISK, r_pos)
            ov_pos[page_at_q.page_id] = (MAP_DISK, q_pos)

            if kind == "query":
                # Executed in full first (the trace must not depend on
                # page state), then the slot refuses.
                if ov_is_deleted(target_id):
                    results[slot] = PageDeletedError(
                        f"page {target_id} is deleted"
                    )
                else:
                    results[slot] = result
            elif kind == "insert":
                results[slot] = target_id
            else:
                results[slot] = None
            outcome = RequestOutcome(
                request_index=base_index + len(extras) - 1,
                block_start=block_start,
                extra_location=extra_location,
                cache_hit=cache_hit,
                victim_slot=s,
                block_slot=r,
                elapsed=0.0,
            )

        # ---- single commit point for the whole window ----------------------
        # Lines 21-22: re-encrypt everything with fresh nonces.  The link
        # egress charge keeps its own span (link.ingest/link.egress carry
        # the Eq. 8 link-term bytes) so the reencrypt span's bytes feed the
        # crypto term alone.
        n_extra = len(extras)
        self.cop.charge_egress(k + n_extra)
        with self.tracer.span("reencrypt",
                              nbytes=(k + n_extra) * self.cop.frame_size):
            # Batched seal: one suite entry for all frames (nonces are
            # drawn in page order, so the frames match per-page sealing
            # byte for byte).
            sealed = self.cop.seal_pages(block + extras)
        self.counters.increment("crypto.batched_frames", k + n_extra)
        rotation_left = self._rotation_requests_left
        intent = WriteIntent(
            request_index=base_index,
            next_block=(self._next_block + 1) % self.params.num_blocks,
            rotation_left=-1 if rotation_left is None else rotation_left - 1,
            block_start=block_start,
            extra_location=extra_locs[0],
            extra_locations=list(extra_locs),
            cache_puts=cache_puts,
            flag_ops=flag_ops,
            map_ops=map_ops,
            frames=sealed,
        )
        # Intend: make the post-state durable before applying it; apply:
        # idempotent, replayable from the intent record.
        if self.journal is not None:
            with self.tracer.span("journal.seal"):
                self.journal.write(self.cop.seal_blob(intent.encode()))
        self._apply_intent(intent)
        if self.journal is not None:
            self.journal.clear()
        self.disk.current_request = -1

        outcome.elapsed = self.cop.clock.now - started
        self.last_outcome = outcome
        self.counters.increment("requests", n_extra)
        self.counters.increment("batch.fused.windows")
        self.counters.increment("batch.fused.ops", n_extra)
        self.counters.increment("batch.fused.block_reads")
        self.counters.increment("batch.fused.extra_reads", n_extra)
        self.counters.increment(
            "batch.fused.reads_saved", n_extra * (k + 1) - (k + n_extra)
        )
        if self.cop.pipeline is not None:
            self.cop.pipeline.note_batch_window(k, n_extra)

    def _fetch_block(
        self, block_start: int, k: int, extra_location: int
    ) -> List[Page]:
        """Read + ingest + decrypt the block and op 0's extra frame (k+1).

        A retry repeats the whole fetch (re-read, re-charge, re-decrypt) —
        exactly what real hardware would do — and consumes only the
        spawned retry RNG and the virtual clock, so seeded runs stay
        byte-identical.
        """

        def attempt() -> List[Page]:
            frames, extra_frame = self.disk.read_request(
                block_start, k, extra_location
            )
            self.cop.charge_ingest(k + 1)
            with self.tracer.span("decrypt",
                                  nbytes=(k + 1) * self.cop.frame_size):
                # Batched unseal: MACs for the whole block are verified and
                # the keystream applied in one suite entry.
                block = self.cop.unseal_frames(list(frames) + [extra_frame])
            self.counters.increment("crypto.batched_frames", k + 1)
            return block

        return self._with_read_retry(attempt)

    def _fetch_window_extra(self, location: int) -> Page:
        """Read + decrypt the extra frame of a window's second or later op."""

        def attempt() -> Page:
            frame = self.disk.read(location)
            self.cop.charge_ingest(1)
            with self.tracer.span("decrypt", nbytes=self.cop.frame_size):
                return self.cop.unseal_frames([frame], views=True)[0]

        return self._with_read_retry(attempt)

    def _with_read_retry(self, attempt):
        if self.read_retry is None:
            return attempt()
        return retry_call(
            attempt,
            self.read_retry,
            self.cop.clock,
            self._retry_rng,
            retry_on=(TransientStorageError, AuthenticationError),
            counters=self.counters,
            counter="retries.read",
        )

    def _window_random_candidate(
        self,
        block_start: int,
        ov_pos: Dict[int, Tuple[int, int]],
        extra_locs: List[int],
    ) -> int:
        """Lines 3-5: a uniform page id that is neither cached nor in the block.

        Reads positions through the window's overlay, and also rejects
        candidates whose position is one of the window's already-fetched
        extra locations: the disk frame there is stale — the live page
        sits in the window's containers — so re-reading it would serve
        garbage.  For op 0 (empty overlay) this is exactly Figure 3's
        rejection sampling.
        """
        pm = self.cop.page_map
        k = self.params.block_size
        total = self.params.total_pages
        for _ in range(_MAX_REJECTION_ROUNDS):
            candidate = self.cop.rng.randrange(total)
            entry = ov_pos.get(candidate)
            if entry is not None:
                in_cache, position = entry[0] == MAP_CACHED, entry[1]
            else:
                location = pm.lookup(candidate)
                in_cache, position = location.in_cache, location.position
            if in_cache:
                continue
            if block_start <= position < block_start + k:
                continue
            if position in extra_locs:
                continue
            return candidate
        raise CapacityError(
            "rejection sampling failed to find an eligible random page; the "
            "configuration violates num_locations >= block_size + 2"
        )

    def _apply_intent(self, intent: WriteIntent) -> None:
        """Commit an intent record; every step is idempotent.

        Trusted deltas land first (they cannot fail), then the k+1-frame
        write-back (the only crashable step), then the pointer advance that
        marks the request committed.  ``recover()`` re-runs this whole
        method safely: cache puts and map/flag ops write absolute values,
        frames are rewritten verbatim, pointers are assigned not bumped.
        """
        pm = self.cop.page_map
        cache = self.cop.cache
        for slot, page in intent.cache_puts:
            cache.put(slot, page)
        for page_id, op in intent.flag_ops:
            if op == FLAG_LIVE:
                pm.mark_live(page_id)
            else:
                pm.mark_deleted(page_id)
        for page_id, kind, position in intent.map_ops:
            if kind == MAP_CACHED:
                pm.set_cached(page_id, position)
            else:
                pm.set_disk(page_id, position)

        k = self.params.block_size
        extras = intent.extras()
        try:
            with self.tracer.span(
                "write_back",
                nbytes=(k + len(extras)) * self.disk.frame_size,
            ):
                if len(extras) == 1:
                    self.disk.write_request(
                        intent.block_start,
                        intent.frames[:k],
                        intent.extra_location,
                        intent.frames[k],
                    )
                else:
                    # Fused window: one contiguous block write plus one
                    # write per per-op extra frame — the mirror image of
                    # the read side's single block scan.
                    self.disk.write_range(intent.block_start,
                                          intent.frames[:k])
                    for location, frame in zip(extras, intent.frames[k:]):
                        self.disk.write(location, frame)
        except Exception:
            # The trusted deltas above are already applied, so the pageMap
            # now points at frames that were never written.  Retain the
            # intent so the next request (or recover()) rolls the
            # write-back forward before computing against that state —
            # without this, a retried request would overwrite the only
            # record able to repair the store.
            self._pending_intent = intent
            raise
        # The write-back succeeded: tell the prefetcher which nonces now
        # live at these locations (reads the frame headers we just wrote;
        # draws no randomness, advances no clock).
        self.cop.note_frames_written(
            list(range(intent.block_start, intent.block_start + k)) + extras,
            intent.frames,
        )

        self._next_block = intent.next_block
        self._request_count = intent.request_index + intent.request_span
        if intent.rotation_left < 0:
            self._rotation_requests_left = None
        elif intent.rotation_left == 0:
            self.cop.finish_key_rotation()
            self._rotation_requests_left = None
        else:
            self._rotation_requests_left = intent.rotation_left
        self._pending_intent = None

    def _heal_pending(self) -> None:
        """Roll forward a request whose write-back failed mid-apply.

        A *non-crash* write failure (e.g. a transient I/O error) inside
        :meth:`_apply_intent` propagates to the caller after the trusted
        deltas landed but before the frames did.  That failure is
        classified as retryable, so the client is invited to resend — and
        serving the resend against the inconsistent state would both read
        garbage and replace the pending journal record.  Instead the
        failed apply retains its intent (in memory, and in the journal
        when one is configured) and every later request re-applies it
        here first.  Re-application is idempotent; if the write fails
        again the error propagates and the request stays pending.
        """
        intent = self._pending_intent
        if intent is not None:
            self.disk.current_request = intent.request_index
            self._apply_intent(intent)
            if self.journal is not None:
                self.journal.clear()
            self.disk.current_request = -1
            self.counters.increment("recovery.rolled_forward")
        # Background workers heal after the engine: their write-backs may
        # relocate pages a replayed request's map ops already positioned,
        # and each healer is itself idempotent.
        for healer in self._background_healers:
            healer()

    # -- helpers -------------------------------------------------------------------

    def _check_payload(self, payload) -> None:
        """Reject a missing or oversized payload at the API boundary — never
        let one sit in the cache waiting to fail at eviction time."""
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise ConfigurationError(
                f"payload must be bytes, got {type(payload).__name__}"
            )
        if len(payload) > self.params.page_capacity:
            raise ConfigurationError(
                f"payload of {len(payload)} bytes exceeds page capacity "
                f"{self.params.page_capacity}"
            )

    def _check_user_id(self, page_id) -> None:
        if not isinstance(page_id, int):
            raise PageNotFoundError(
                f"page id must be an int, got {page_id!r}"
            )
        if not 0 <= page_id < self.params.total_pages:
            raise PageNotFoundError(
                f"page id {page_id} out of range [0, {self.params.total_pages})"
            )
