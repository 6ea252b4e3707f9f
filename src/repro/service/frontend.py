"""The query front-end running inside the secure hardware (Figure 1).

Terminates per-client encrypted sessions, decodes requests, drives the
retrieval engine, and returns results — all inside the tamper boundary.
The host server relays opaque ciphertext blobs between clients and the
coprocessor and observes only the disk trace plus message timing.

Each connected client gets its own session keys (standing in for a TLS
handshake), so clients cannot read each other's traffic either.

Degradation contract: every error surfaces to the client as a
:class:`~repro.service.protocol.Refused` reply with a deterministic
machine-readable code (see :func:`repro.service.health.classify`) and,
when the refusal is retryable, a retry-after hint.  Storage/crypto faults
feed the frontend's :class:`~repro.service.health.HealthMonitor`; once it
trips to *failed* the frontend sheds all load without touching the engine
until :meth:`QueryFrontend.recover` has repaired the store.
"""

from __future__ import annotations

import contextlib
import struct
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence

from . import protocol
from .health import (
    SEVERITY_FATAL,
    SEVERITY_FAULT,
    HealthMonitor,
    classify,
    error_for_refusal,
)
from ..core.database import PirDatabase
from ..core.engine import BatchOp
from ..crypto.suite import CipherSuite
from ..errors import (
    DegradedServiceError,
    ProtocolError,
    ReproError,
    TransientChannelError,
)
from ..faults.retry import RetryPolicy
from ..sim.clock import VirtualClock
from ..sim.metrics import CounterSet, LatencySeries
from ..twoparty.channel import SimulatedChannel

__all__ = [
    "QueryFrontend",
    "ServiceClient",
    "SealedReplyCache",
    "ClientOperationsMixin",
    "SESSION_SEQUENTIAL",
    "SESSION_RANDOM",
    "SESSION_BACKEND",
    "session_master_key",
]

#: How :meth:`QueryFrontend.open_session` assigns session ids.
#: ``sequential`` is the legacy in-process behaviour (ids 1, 2, 3, ... —
#: predictable, fine when the caller holding the frontend object *is* the
#: trust boundary); ``random`` draws unguessable 64-bit tokens and is
#: required for network-facing deployments, where a guessed session id
#: lets an attacker derive the session key (see :func:`session_master_key`).
SESSION_SEQUENTIAL = "sequential"
SESSION_RANDOM = "random"
_SESSION_MODES = (SESSION_SEQUENTIAL, SESSION_RANDOM)

#: Cipher backend used for per-session suites on both ends of the link.
SESSION_BACKEND = "blake2"


def session_master_key(session_id: int) -> bytes:
    """Key material both sides derive the session suite from.

    Stands in for the key agreement of the SSL handshake: the server hands
    the client its session id over the (conceptually authenticated)
    handshake, and both ends expand it into identical encrypt/MAC keys.
    With ``SESSION_RANDOM`` ids the id *is* the shared secret, which is why
    network-facing sessions must never use guessable sequential ids.
    """
    return b"client-session:" + session_id.to_bytes(8, "big")


#: On-disk record header of a persistent reply-cache entry:
#: u64 session id, u32 sealed-request length, u32 sealed-reply length,
#: followed by the two byte strings.
_CACHE_RECORD = struct.Struct(">QII")


class SealedReplyCache:
    """Bounded LRU of ``(session, sealed request) -> sealed reply``.

    Duplicate suppression for at-least-once delivery only ever needs the
    *recently* served transmissions (a network duplicate arrives close to
    the original), so the cache holds the last ``capacity`` replies across
    all sessions and evicts the least recently used beyond that — the old
    unbounded per-session dict grew forever on long sessions.

    With ``path`` the cache is additionally *persistent*: every ``put``
    appends the entry to the file before the caller acknowledges the
    request, and a restarted process reloads the tail of the log on
    construction.  This closes the crash window the in-memory cache
    leaves open — a mutation whose intent journal rolls *forward* on
    restart has been applied, so a client retransmission of the
    acknowledged sealed bytes must dedupe, not re-execute.  Entries are
    sealed ciphertext on both sides, so the file leaks nothing beyond
    traffic volume.  A torn final record (crash mid-append) is discarded
    on load, exactly like a torn journal record.  The log is append-only
    and never compacted; the in-memory LRU bound applies after reload.

    Eviction never removes a session's *most recent* reply.  That entry
    is exactly what a client retransmits after a reconnect or failover,
    and the retransmission may arrive before the original ack was ever
    seen — evicting it would re-execute an acknowledged mutation
    (double-apply).  Under churn this means the cache can temporarily
    exceed ``capacity`` by up to one pinned entry per live session;
    :meth:`drop_session` unpins when the session closes or is reaped.

    Thread-safe: the network server's worker threads and its event-loop
    thread (session reaping) touch the cache concurrently.
    """

    def __init__(self, capacity: int = 256, path=None):
        if capacity <= 0:
            raise ProtocolError("reply cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, bytes]" = OrderedDict()
        # session id -> key of that session's most recent reply (pinned).
        self._latest: Dict[int, tuple] = {}
        # key -> (origin, repl_seq) for entries whose mutation was
        # emitted into a replication log (see mark_for).
        self._marks: Dict[tuple, tuple] = {}
        self._lock = threading.Lock()
        self._path = str(path) if path is not None else None
        self._file = None
        if self._path is not None:
            self._load()
            self._file = open(self._path, "ab")

    def _load(self) -> None:
        try:
            with open(self._path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return
        offset = 0
        while offset + _CACHE_RECORD.size <= len(raw):
            session_id, req_len, reply_len = _CACHE_RECORD.unpack_from(
                raw, offset
            )
            body_end = offset + _CACHE_RECORD.size + req_len + reply_len
            if body_end > len(raw):
                break  # torn tail from a crash mid-append
            request = raw[offset + _CACHE_RECORD.size:
                          offset + _CACHE_RECORD.size + req_len]
            reply = raw[offset + _CACHE_RECORD.size + req_len:body_end]
            key = (session_id, request)
            self._entries[key] = reply
            self._latest[session_id] = key  # last record wins
            offset = body_end
        self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        """Evict oldest-first, skipping each session's pinned latest reply.

        Caller holds the lock (or is still single-threaded in _load).
        When every entry is pinned the cache overflows instead of
        evicting an un-acked reply.
        """
        while len(self._entries) > self.capacity:
            victim = None
            for key in self._entries:
                if self._latest.get(key[0]) != key:
                    victim = key
                    break
            if victim is None:
                break
            del self._entries[victim]
            self._marks.pop(victim, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, session_id: int, sealed_request: bytes) -> Optional[bytes]:
        key = (session_id, sealed_request)
        with self._lock:
            reply = self._entries.get(key)
            if reply is not None:
                self._entries.move_to_end(key)
            return reply

    def put(self, session_id: int, sealed_request: bytes,
            sealed_reply: bytes, mark=None) -> None:
        key = (session_id, sealed_request)
        with self._lock:
            if self._file is not None:
                self._file.write(
                    _CACHE_RECORD.pack(session_id, len(sealed_request),
                                       len(sealed_reply))
                    + sealed_request + sealed_reply
                )
                self._file.flush()
            self._entries[key] = sealed_reply
            self._entries.move_to_end(key)
            self._latest[session_id] = key
            if mark is not None:
                self._marks[key] = mark
            else:
                self._marks.pop(key, None)
            self._evict_over_capacity()

    def mark_for(self, session_id: int, sealed_request: bytes):
        """The replication mark stored with an entry, or None.

        On cluster backends every cached reply carries the ``(origin,
        seq)`` of the replication record its mutation emitted; a member
        serving the entry as a dedupe must have applied that record
        first (QueryFrontend.replication_gate), or a preserved ACK could
        outlive the write it acknowledges.  Marks are in-memory only:
        entries reloaded from a persistent cache file have none, and the
        restart catch-up handshake covers that window instead.
        """
        with self._lock:
            return self._marks.get((session_id, sealed_request))

    def drop_session(self, session_id: int) -> None:
        with self._lock:
            self._latest.pop(session_id, None)
            stale = [key for key in self._entries if key[0] == session_id]
            for key in stale:
                del self._entries[key]
                self._marks.pop(key, None)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class QueryFrontend:
    """Session manager + request dispatcher inside the coprocessor.

    A single op calls the database's per-op method; a BATCH becomes one
    :meth:`~repro.core.database.PirDatabase.run_batch` call.  Both reach
    the engine's one request executor (a single op is a window of one),
    so a batch's replies equal sending its ops one at a time.
    """

    def __init__(
        self,
        database: PirDatabase,
        health: Optional[HealthMonitor] = None,
        metrics=None,
        reply_cache_size: int = 256,
        session_id_mode: str = SESSION_SEQUENTIAL,
        session_ttl: Optional[float] = None,
        time_source: Optional[Callable[[], float]] = None,
        reply_cache: Optional[SealedReplyCache] = None,
        reply_cache_path=None,
        session_salt: Optional[str] = None,
    ):
        """``session_id_mode`` selects sequential (legacy, in-process) or
        unguessable random session ids — network-facing frontends must use
        :data:`SESSION_RANDOM`.  ``session_ttl`` enables idle-session
        reaping: sessions unused for more than ``session_ttl`` seconds of
        ``time_source`` time (default: the database's virtual clock; the
        network server passes ``time.monotonic``) are eligible for
        :meth:`reap_idle_sessions`, which drops their key material and
        cached replies.

        ``reply_cache`` shares a caller-owned :class:`SealedReplyCache`
        across frontends (cluster replicas dedupe each other's
        retransmissions); ``reply_cache_path`` makes the frontend's own
        cache persistent so acknowledged replies survive a crash-restart.

        ``session_salt`` diversifies the :data:`SESSION_RANDOM` id
        stream.  Session ids derive from the database's seeded RNG tree,
        so two frontends over same-seed databases — exactly how cluster
        members are deployed, since a shared seed is what makes their
        data identical — would otherwise issue the *same* id sequence.
        Colliding ids are fatal behind a router: the id doubles as the
        key-agreement input, so two clients would share a suite, and
        either one's BYE would tear down the other's session.  Give every
        cluster member a distinct salt (``cluster serve-backend``
        generates one per process by default).
        """
        if session_id_mode not in _SESSION_MODES:
            raise ProtocolError(
                f"unknown session_id_mode {session_id_mode!r}; "
                f"expected one of {_SESSION_MODES}"
            )
        if session_ttl is not None and session_ttl <= 0:
            raise ProtocolError("session_ttl must be positive (or None)")
        self.database = database
        self.session_id_mode = session_id_mode
        self.session_ttl = session_ttl
        self._time_source = (
            time_source if time_source is not None
            else (lambda: database.clock.now)
        )
        self._sessions: Dict[int, CipherSuite] = {}
        self._last_used: Dict[int, float] = {}
        # session id -> number of requests admitted but not yet answered
        # (queued or being served); the idle reaper must not close these.
        self._inflight_requests: Dict[int, int] = {}
        # Set by PirServer.attach_replication on cluster backends.
        # replication_barrier: called after a successful dispatch, before
        # the reply is cached; blocks until connected peers hold the
        # write and returns the (origin, seq) mark to cache with it.
        # replication_gate(origin, seq) -> bool: called before serving a
        # cached reply as a dedupe; must confirm this member has applied
        # the record behind it (see both call sites in serve()).
        self.replication_barrier = None
        self.replication_gate = None
        # Per-worker-thread (origin, seq) mark of the reply serve() just
        # produced — what the barrier actually waited on.  The network
        # server stamps this onto the wire reply so the router's
        # read-your-writes watermark never runs ahead of what connected
        # peers were confirmed to hold (log.last_seq at stamp time can
        # include other sessions' not-yet-replicated emissions).
        self._reply_marks = threading.local()
        # Serializes engine access between the serving worker and a
        # replication applier running on its own thread (cluster
        # backends): the plain engine is single-threaded by contract,
        # and this lock is how the two lanes honour it.  Held only
        # around the dispatch itself — never across the replication
        # barrier, which must not block peer applies.
        self.engine_lock = threading.Lock()
        # Guards the session tables: the network server opens/closes/reaps
        # sessions on its event-loop thread while worker threads serve.
        self._session_lock = threading.Lock()
        self._session_rng = database.cop.rng.spawn(
            "session-ids" if session_salt is None
            else f"session-ids-{session_salt}"
        )
        # Recently served (sealed request -> sealed reply) pairs for
        # at-least-once duplicate suppression (see serve()); bounded LRU
        # so long-lived sessions cannot grow it without limit.
        if reply_cache is not None:
            self._reply_cache = reply_cache
        else:
            self._reply_cache = SealedReplyCache(reply_cache_size,
                                                 path=reply_cache_path)
        self._next_session = 1
        self.counters = CounterSet(registry=metrics, prefix="frontend.")
        self._batch_sizes = (
            metrics.histogram("frontend.batch.size",
                              buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256,
                                       512, 1024))
            if metrics is not None else None
        )
        self.health = (
            health
            if health is not None
            else HealthMonitor(database.clock, counters=self.counters,
                               registry=metrics)
        )
        self.tracer = database.tracer

    # -- session management ----------------------------------------------------

    def open_session(self) -> int:
        """Establish a client session; returns the session id.

        Stands in for the SSL handshake: a per-session key pair is derived
        inside the boundary and (conceptually) shared with the client via
        the handshake.  :meth:`session_suite` hands the client its copy.

        In :data:`SESSION_RANDOM` mode the id is an unguessable 64-bit
        token (re-drawn on the astronomically unlikely collision); in
        :data:`SESSION_SEQUENTIAL` mode ids count up from 1 as before.
        """
        with self._session_lock:
            if self.session_id_mode == SESSION_RANDOM:
                session_id = 0
                while session_id == 0 or session_id in self._sessions:
                    session_id = int.from_bytes(
                        self._session_rng.token(8), "big"
                    )
            else:
                session_id = self._next_session
                self._next_session += 1
            self._sessions[session_id] = CipherSuite(
                session_master_key(session_id),
                backend=SESSION_BACKEND,
                rng=self.database.cop.rng.spawn(f"session-{session_id}"),
            )
            self._last_used[session_id] = self._time_source()
        self.counters.increment("sessions")
        return session_id

    def adopt_session(self, session_id: int) -> bool:
        """Install the suite for a session opened by *another* frontend.

        Failover support: the session suite is a pure function of the id
        (:func:`session_master_key`), so a replica can reconstruct a dead
        primary's session from the id the client presents in its RESUME —
        no state transfer required.  Returns ``True`` when the session was
        created here, ``False`` when it already existed (idempotent).

        Only meaningful behind a trust boundary that vouches for the id —
        the cluster router, which learned it from the backend's WELCOME.
        A public-facing server must never adopt: presenting an id would
        then *be* authentication bypass.  Hence the opt-in
        ``adopt_sessions`` flag on :class:`~repro.net.server.PirServer`.
        """
        if session_id == 0:
            raise ProtocolError("cannot adopt session id 0")
        with self._session_lock:
            if session_id in self._sessions:
                self._last_used[session_id] = self._time_source()
                return False
            self._sessions[session_id] = CipherSuite(
                session_master_key(session_id),
                backend=SESSION_BACKEND,
                rng=self.database.cop.rng.spawn(f"session-{session_id}"),
            )
            self._last_used[session_id] = self._time_source()
        self.counters.increment("sessions.adopted")
        return True

    def session_suite(self, session_id: int) -> CipherSuite:
        with self._session_lock:
            suite = self._sessions.get(session_id)
        if suite is None:
            raise ProtocolError(f"unknown session {session_id}")
        return suite

    def close_session(self, session_id: int) -> None:
        with self._session_lock:
            self._sessions.pop(session_id, None)
            self._last_used.pop(session_id, None)
            self._inflight_requests.pop(session_id, None)
        self._reply_cache.drop_session(session_id)

    def begin_request(self, session_id: int) -> None:
        """Mark a request admitted for ``session_id`` (queued or serving).

        The network server brackets the whole queued-to-answered window
        with begin/end so :meth:`reap_idle_sessions` cannot reap a session
        whose request sits unserved in the worker queue — reaping it there
        turned a retryable shed into a non-retryable ``session-not-found``.
        """
        with self._session_lock:
            self._inflight_requests[session_id] = (
                self._inflight_requests.get(session_id, 0) + 1
            )

    def end_request(self, session_id: int) -> None:
        """Balance a :meth:`begin_request` once the reply (or refusal) is out."""
        with self._session_lock:
            count = self._inflight_requests.get(session_id, 0) - 1
            if count <= 0:
                self._inflight_requests.pop(session_id, None)
            else:
                self._inflight_requests[session_id] = count

    @property
    def session_count(self) -> int:
        """Number of currently open sessions."""
        with self._session_lock:
            return len(self._sessions)

    @property
    def session_ids(self) -> List[int]:
        """Snapshot of the open session ids (for shutdown sweeps)."""
        with self._session_lock:
            return list(self._sessions)

    def reap_idle_sessions(self) -> int:
        """Drop sessions idle for longer than ``session_ttl``.

        Abandoned connections otherwise accumulate key material and
        reply-cache entries forever: the suite of a session that will never
        speak again is pure liability.  Returns the number of sessions
        reaped (0 when no TTL is configured) and counts them under
        ``sessions.reaped``.  A reaped session's later requests refuse with
        an ``unknown session`` protocol error, exactly like an explicit
        :meth:`close_session`.

        Sessions with in-flight work (admitted requests still queued or
        being served, see :meth:`begin_request`) are never reaped, however
        stale their last-used stamp: under load a request can sit in the
        worker queue past the TTL, and reaping the session underneath it
        answers ``session-not-found`` where a retryable refusal was due.
        """
        if self.session_ttl is None:
            return 0
        now = self._time_source()
        with self._session_lock:
            stale = [
                session_id
                for session_id, last in self._last_used.items()
                if now - last > self.session_ttl
                and self._inflight_requests.get(session_id, 0) == 0
            ]
            for session_id in stale:
                self._sessions.pop(session_id, None)
                self._last_used.pop(session_id, None)
        for session_id in stale:
            self._reply_cache.drop_session(session_id)
        if stale:
            self.counters.increment("sessions.reaped", len(stale))
        return len(stale)

    # -- recovery ----------------------------------------------------------------

    def recover(self):
        """Run engine crash recovery and return the frontend to service.

        Returns the engine's :class:`~repro.core.engine.RecoveryReport`.
        If recovery itself fails the health state stays *failed* and the
        exception propagates to the operator.
        """
        report = self.database.recover()
        self.health.mark_recovered()
        self.counters.increment("recoveries")
        return report

    # -- request dispatch ----------------------------------------------------------

    def serve(self, session_id: int, sealed_request: bytes) -> bytes:
        """Handle one encrypted client request; always returns a sealed reply.

        At-least-once delivery safety: clients seal every logical request
        under a fresh random nonce, so two byte-identical sealed requests
        can only be the *same transmission* delivered twice (a network
        duplicate or a blind retransmission).  Replaying the duplicate
        would double-apply mutations — an Insert would leak a page, an
        Update would burn a second trace-visible request — so the frontend
        answers it from the per-session reply cache without touching the
        engine.  Only successfully dispatched replies are cached; refusals
        re-execute, which is safe because a refused request mutated
        nothing durable.
        """
        with self.tracer.span("frontend.serve"):
            self._reply_marks.mark = None
            suite = self.session_suite(session_id)
            with self._session_lock:
                if session_id in self._last_used:
                    self._last_used[session_id] = self._time_source()
            cached = self._reply_cache.get(session_id, sealed_request)
            if cached is not None:
                mark = self._reply_cache.mark_for(session_id, sealed_request)
                gate = self.replication_gate
                if mark is not None and gate is not None \
                        and not gate(*mark):
                    # The cached acknowledgement belongs to a write this
                    # member has not applied (the origin died before its
                    # record streamed here).  Serving the ACK would let
                    # the session read stale state — shed instead; the
                    # refusal is retryable and the origin's restart
                    # replays the record.
                    self.counters.increment("requests.duplicate_lagged")
                    raise DegradedServiceError(
                        "retransmitted request acknowledges a write not "
                        "yet replicated to this member; retry",
                        retry_after=0.2,
                    )
                self.counters.increment("requests.duplicate")
                self._reply_marks.mark = mark
                return cached
            try:
                request = protocol.decode_client_message(
                    suite.decrypt_page(sealed_request)
                )
            except ReproError as exc:
                # A request that cannot even be opened is the client's
                # problem (wrong key, garbage bytes); it never reaches the
                # engine and never counts against service health.
                reply = self._refusal_for(exc, affects_health=False)
            else:
                # Replicated members serialize against the peer-apply
                # lane; without replication there is no second engine
                # user (one worker, or a thread-safe sharded database)
                # and the lock would only serialize the parallel path.
                guard = (self.engine_lock
                         if self.replication_barrier is not None
                         else contextlib.nullcontext())
                try:
                    with guard:
                        self.health.check()
                        reply = self._dispatch(request)
                        self.health.record_success()
                except ReproError as exc:
                    reply = self._refusal_for(exc)
            self.counters.increment("requests")
            reshuffle = getattr(self.database, "reshuffle", None)
            if reshuffle is not None and reshuffle.active:
                # How much traffic the online re-permutation overlapped:
                # the zero-refusal bench gate divides refusals by this.
                self.counters.increment("requests.during_reshuffle")
            sealed_reply = suite.encrypt_page(
                protocol.encode_client_message(reply)
            )
            if not isinstance(reply, protocol.Refused):
                mark = None
                barrier = self.replication_barrier
                if barrier is not None:
                    # Semi-sync replication barrier (cluster backends):
                    # a reply may only become a cached — and therefore
                    # failover-preservable — acknowledgement once every
                    # connected peer holds the write.  The returned
                    # (origin, seq) mark rides with the cache entry so a
                    # peer that dedupe-serves it can prove it applied
                    # the write first (replication_gate above) — the
                    # barrier alone cannot close the window, because it
                    # passes when peers are disconnected (availability
                    # over blocking forever).
                    mark = barrier()
                    self._reply_marks.mark = mark
                # BatchReply is cached even when some entries are Refused:
                # the *other* entries may have mutated durable state, so a
                # duplicate must not re-execute them.
                self._reply_cache.put(session_id, sealed_request,
                                      sealed_reply, mark=mark)
            return sealed_reply

    def consume_reply_mark(self):
        """Pop the (origin, seq) mark of this thread's last serve().

        None when the reply was a refusal, replication is not attached,
        or serve() has not run on this thread.  The network server calls
        this right after serve() to stamp the wire reply; consuming
        (rather than peeking) keeps a later refusal from inheriting a
        stale mark.
        """
        mark = getattr(self._reply_marks, "mark", None)
        self._reply_marks.mark = None
        return mark

    def _refusal_for(
        self, exc: ReproError, affects_health: bool = True
    ) -> protocol.Refused:
        refusal = classify(exc)
        if affects_health and refusal.severity in (SEVERITY_FAULT,
                                                   SEVERITY_FATAL):
            self.health.record_fault(fatal=refusal.severity == SEVERITY_FATAL)
        self.counters.increment(f"refused.{refusal.code}")
        if isinstance(exc, DegradedServiceError):
            retry_after = exc.retry_after
        elif refusal.retryable:
            retry_after = self.health.retry_after
        else:
            retry_after = -1.0
        return protocol.Refused(
            f"{type(exc).__name__}: {exc}", refusal.code, retry_after
        )

    def _dispatch(self, request: protocol.ClientMessage) -> protocol.ClientMessage:
        db = self.database
        if isinstance(request, protocol.Batch):
            return self._dispatch_batch(request)
        if isinstance(request, protocol.Query):
            payload = db.query(request.page_id)
            return protocol.Result(request.page_id, payload)
        if isinstance(request, protocol.Update):
            db.update(request.page_id, request.payload)
            return protocol.Ok()
        if isinstance(request, protocol.Insert):
            new_id = db.insert(request.payload)
            return protocol.Result(new_id, request.payload)
        if isinstance(request, protocol.Delete):
            db.delete(request.page_id)
            return protocol.Ok()
        raise ProtocolError(
            f"frontend cannot handle {type(request).__name__}"
        )

    def _dispatch_batch(self, batch: protocol.Batch) -> protocol.BatchReply:
        """Serve a batch as one :meth:`~PirDatabase.run_batch` call.

        The wire decoder admits only Query/Update/Insert/Delete inside a
        batch.  Failed slots come back as exception instances and become
        per-op :class:`~repro.service.protocol.Refused` replies — a failure
        refuses its slot, not the batch.  Health is consulted once up
        front (a degraded service refuses every slot); per-op faults
        surface through the refused slots themselves.
        """
        self.counters.increment("batch.requests")
        self.counters.increment("batch.ops", len(batch.ops))
        if self._batch_sizes is not None:
            self._batch_sizes.observe(len(batch.ops))
        try:
            self.health.check()
        except ReproError as exc:
            return protocol.BatchReply(
                [self._refusal_for(exc) for _ in batch.ops]
            )
        ops: List[BatchOp] = []
        for op in batch.ops:
            if isinstance(op, protocol.Query):
                ops.append(BatchOp("query", page_id=op.page_id))
            elif isinstance(op, protocol.Update):
                ops.append(BatchOp("update", page_id=op.page_id,
                                   payload=op.payload))
            elif isinstance(op, protocol.Insert):
                ops.append(BatchOp("insert", payload=op.payload))
            else:
                ops.append(BatchOp("delete", page_id=op.page_id))
        with self.tracer.span("frontend.batch"):
            results = self.database.run_batch(ops)
        replies: List[protocol.ClientMessage] = []
        for op, outcome in zip(batch.ops, results):
            if isinstance(outcome, ReproError):
                replies.append(self._refusal_for(outcome))
                continue
            self.health.record_success()
            if isinstance(op, protocol.Query):
                replies.append(protocol.Result(op.page_id, outcome))
            elif isinstance(op, protocol.Insert):
                replies.append(protocol.Result(outcome, op.payload))
            else:
                replies.append(protocol.Ok())
        return protocol.BatchReply(replies)


class ClientOperationsMixin:
    """The operation surface shared by every client of the service.

    Concrete clients (:class:`ServiceClient` over the in-process simulated
    channel, :class:`repro.net.client.NetworkClient` over a real TCP
    socket) provide ``_call(message) -> reply`` — one sealed round trip
    including whatever retry discipline the transport supports — plus a
    ``counters`` :class:`~repro.sim.metrics.CounterSet` that is the only
    store of the client's retry/refusal counts (a client publishes it to
    no registry); the mixin turns ``_call`` into the typed
    query/update/insert/delete/batch API.
    """

    def _call(
        self, message: protocol.ClientMessage
    ) -> protocol.ClientMessage:  # pragma: no cover - interface
        raise NotImplementedError

    def query(self, page_id: int) -> bytes:
        reply = self._call(protocol.Query(page_id))
        if not isinstance(reply, protocol.Result):
            raise ProtocolError(f"expected Result, got {type(reply).__name__}")
        return reply.payload

    def update(self, page_id: int, payload: bytes) -> None:
        reply = self._call(protocol.Update(page_id, payload))
        if not isinstance(reply, protocol.Ok):
            raise ProtocolError(f"expected Ok, got {type(reply).__name__}")

    def insert(self, payload: bytes) -> int:
        reply = self._call(protocol.Insert(payload))
        if not isinstance(reply, protocol.Result):
            raise ProtocolError(f"expected Result, got {type(reply).__name__}")
        return reply.page_id

    def delete(self, page_id: int) -> None:
        reply = self._call(protocol.Delete(page_id))
        if not isinstance(reply, protocol.Ok):
            raise ProtocolError(f"expected Ok, got {type(reply).__name__}")

    def batch(
        self, operations: Sequence[protocol.ClientMessage]
    ) -> List[protocol.ClientMessage]:
        """Run several ops in one sealed round trip; returns positional replies.

        One session frame carries the whole batch, so the per-message
        session crypto and channel RTT are paid once instead of
        ``len(operations)`` times.  Failures are per-operation: slot i holds
        a :class:`~repro.service.protocol.Refused` when op i was declined
        while the others proceeded — the caller inspects each slot rather
        than getting an exception.  (Exceptions still surface when the
        *batch itself* never reaches the engine: a malformed batch or a
        frontend that is shedding all load refuses the whole message.)

        Mutating batches should not be blindly retried through a
        :class:`~repro.faults.retry.RetryPolicy`-driven loop unless every
        op is idempotent; the duplicate-suppression cache protects only
        byte-identical retransmissions of the same sealed frame.
        """
        reply = self._call(protocol.Batch(tuple(operations)))
        if not isinstance(reply, protocol.BatchReply):
            raise ProtocolError(
                f"expected BatchReply, got {type(reply).__name__}"
            )
        if len(reply.replies) != len(operations):
            raise ProtocolError(
                f"batch of {len(operations)} ops answered with "
                f"{len(reply.replies)} replies"
            )
        self.counters.increment("batches")
        return list(reply.replies)

    def query_many(self, page_ids: Sequence[int]) -> List[bytes]:
        """Batched :meth:`query`; raises on the first refused slot."""
        payloads = []
        for page_id, reply in zip(
            page_ids, self.batch([protocol.Query(p) for p in page_ids])
        ):
            if isinstance(reply, protocol.Refused):
                raise error_for_refusal(
                    reply.code,
                    f"query {page_id} refused: {reply.reason}",
                    reply.retry_after,
                )
            if not isinstance(reply, protocol.Result):
                raise ProtocolError(
                    f"expected Result, got {type(reply).__name__}"
                )
            payloads.append(reply.payload)
        return payloads


class ServiceClient(ClientOperationsMixin):
    """A client of the three-party service, talking over its own channel.

    With a :class:`~repro.faults.retry.RetryPolicy`, the client retries
    transient channel faults (lost/timed-out messages) and retryable
    refusals, honouring the server's retry-after hint as a floor under its
    own exponential backoff.  Backoff time advances the shared virtual
    clock and jitter comes from a spawned seeded RNG, so retried runs stay
    deterministic.  ``channel_wrapper`` interposes on the outgoing channel
    — e.g. ``lambda ch: FlakyChannel(ch, injector)`` for fault drills.
    """

    def __init__(
        self,
        frontend: QueryFrontend,
        rtt: float = 0.02,
        bandwidth: float = 10e6,
        clock: Optional[VirtualClock] = None,
        retry: Optional[RetryPolicy] = None,
        channel_wrapper=None,
    ):
        self.frontend = frontend
        self.session_id = frontend.open_session()
        self._suite = frontend.session_suite(self.session_id)
        self.channel = SimulatedChannel(
            clock if clock is not None else frontend.database.clock,
            lambda blob: frontend.serve(self.session_id, blob),
            rtt=rtt,
            bandwidth=bandwidth,
        )
        if channel_wrapper is not None:
            self.channel = channel_wrapper(self.channel)
        self.retry = retry
        self._retry_rng = frontend.database.cop.rng.spawn(
            f"client-retry-{self.session_id}"
        )
        self.counters = CounterSet()
        self.latencies = LatencySeries()

    def _call_once(self, message: protocol.ClientMessage) -> protocol.ClientMessage:
        sealed = self._suite.encrypt_page(protocol.encode_client_message(message))
        started = self.channel.clock.now
        sealed_reply = self.channel.call(sealed)
        self.latencies.record(self.channel.clock.now - started)
        reply = protocol.decode_client_message(self._suite.decrypt_page(sealed_reply))
        if isinstance(reply, protocol.Refused):
            # Surface the server's error class, not a generic client error:
            # a not-found refusal raises PageNotFoundError, a retryable one
            # DegradedServiceError (which the retry loop keys on), etc.
            raise error_for_refusal(
                reply.code,
                f"request refused: {reply.reason}",
                reply.retry_after,
            )
        return reply

    def _call(self, message: protocol.ClientMessage) -> protocol.ClientMessage:
        if self.retry is None:
            return self._call_once(message)
        attempt = 0
        while True:
            try:
                return self._call_once(message)
            except (TransientChannelError, DegradedServiceError) as exc:
                if attempt + 1 >= self.retry.max_attempts:
                    raise
                hint = max(getattr(exc, "retry_after", 0.0), 0.0)
                delay = max(self.retry.delay_for(attempt, self._retry_rng),
                            hint)
                self.channel.clock.advance(delay)
                self.counters.increment("retries")
                attempt += 1

    def close(self) -> None:
        self.frontend.close_session(self.session_id)
