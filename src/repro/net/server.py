"""Asyncio TCP server bridging real sockets to the synchronous engine.

Architecture (DESIGN.md §12)::

    client sockets ──▶ asyncio event loop ──▶ bounded queue ──▶ worker
       (framing,        (handshake, admission,    (queue.Queue)   threads
        envelope)        drain, reaping)                          (frontend
                                                                   .serve)

The event loop owns everything network-shaped: accepting connections,
the HELLO/WELCOME handshake that binds a connection to a
:class:`~repro.service.frontend.QueryFrontend` session, admission
control, and graceful drain.  The engine stays synchronous and is only
ever entered from worker threads, which take sealed requests off a
bounded queue, run ``frontend.serve`` and resolve the awaiting
connection's future via ``loop.call_soon_threadsafe``.

Each connection serves one request at a time (the handler awaits the
reply before reading the next frame), so a session's stateful cipher
suite is never used by two threads at once.  ``workers=1`` (the default)
keeps the whole engine single-threaded as its contract requires;
``workers > 1`` is only accepted for :class:`~repro.core.sharded
.ShardedPirDatabase` backends, whose routing layer is built for
concurrent callers.

Graceful drain: :meth:`PirServer.drain` stops accepting, answers new
requests on live connections with a retryable refusal, waits for every
in-flight request to finish *and its reply to be written*, then shuts
down workers and closes sessions — no admitted request is lost, and
because workers finish what they started, none is double-applied.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from typing import Optional, Set

from .admission import SHED_CODE, AdmissionController
from .framing import (
    Bye,
    Hello,
    NET_VERSION,
    NetRefused,
    Ping,
    Pong,
    ReplAck,
    ReplQuery,
    ReplRecord,
    ReplState,
    Reply,
    Request,
    Resume,
    Welcome,
    decode_net_message,
    encode_net_message,
    read_frame_async,
    write_frame_async,
)
from ..core.sharded import ShardedPirDatabase
from ..errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    TransientChannelError,
)
from ..obs.tracer import NULL_TRACER
from ..service import protocol
from ..service.frontend import SESSION_SEQUENTIAL, QueryFrontend
from ..service.health import classify
from ..sim.metrics import CounterSet

__all__ = ["PirServer", "ServerThread"]

_LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                    0.1, 0.25, 0.5, 1.0, 2.5)


class PirServer:
    """Serves a :class:`QueryFrontend` over TCP (see module docstring).

    Construct, then ``await start()`` on a running event loop (or use
    :class:`ServerThread` from synchronous code).  ``queue_depth`` bounds
    the worker queue; requests beyond it — and beyond whatever gates the
    optional :class:`~repro.net.admission.AdmissionController` adds — are
    shed with a retryable refusal, never silently dropped.
    """

    def __init__(
        self,
        frontend: QueryFrontend,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: Optional[AdmissionController] = None,
        workers: int = 1,
        queue_depth: int = 64,
        reap_interval: Optional[float] = None,
        allow_sequential_sessions: bool = False,
        adopt_sessions: bool = False,
        metrics=None,
    ):
        if workers < 1:
            raise ConfigurationError("need at least one worker thread")
        if queue_depth < 1:
            raise ConfigurationError("queue_depth must be positive")
        if reap_interval is not None and reap_interval <= 0:
            raise ConfigurationError("reap_interval must be positive")
        if (frontend.session_id_mode == SESSION_SEQUENTIAL
                and not allow_sequential_sessions):
            raise ConfigurationError(
                "refusing to serve sequential session ids over the network "
                "(they are guessable and the id is the session secret); "
                "use session_id_mode=SESSION_RANDOM or pass "
                "allow_sequential_sessions=True"
            )
        if workers > 1 and not isinstance(frontend.database,
                                          ShardedPirDatabase):
            raise ConfigurationError(
                "workers > 1 requires a ShardedPirDatabase backend; the "
                "plain engine is single-threaded by contract"
            )
        self.frontend = frontend
        self.host = host
        self.port = port
        self.admission = admission
        # Cluster backends adopt unknown RESUMEd session ids (failover);
        # public-facing servers must leave this off — see
        # QueryFrontend.adopt_session for the trust argument.
        self.adopt_sessions = adopt_sessions
        self.workers = workers
        self.reap_interval = reap_interval
        self.counters = CounterSet(registry=metrics, prefix="net.")
        self._sessions_gauge = (
            metrics.gauge("net.sessions.active") if metrics is not None
            else None
        )
        self._queue_gauge = (
            metrics.gauge("net.queue.depth") if metrics is not None else None
        )
        self._latency = (
            metrics.histogram("net.request.seconds",
                              buckets=_LATENCY_BUCKETS)
            if metrics is not None else None
        )
        # The tracer is not thread-safe; with a single worker every span
        # (net.request wrapping frontend.serve and the engine's own spans)
        # is emitted from that one thread, so tracing composes.  With
        # multiple workers net spans are suppressed.
        self._span_tracer = frontend.tracer if workers == 1 else NULL_TRACER
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        # Inbound replication records get their own queue and worker so a
        # serve stalled in the semi-sync barrier can never starve the
        # peer applies that would release it (see _repl_worker_loop).
        self._repl_queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self._repl_thread: Optional[threading.Thread] = None
        self._threads: list = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._reap_task: Optional[asyncio.Task] = None
        self._draining = False
        self._inflight = 0
        self._idle_event: Optional[asyncio.Event] = None
        # Test hook: called on the worker thread just before dispatching a
        # request to the frontend (drain-during-in-flight tests block here).
        self._serve_hook = None
        # Sealed write replication (cluster backends only; see
        # attach_replication).
        self._repl_log = None
        self._repl_applier = None

    def attach_replication(self, log, applier) -> None:
        """Wire a :class:`~repro.cluster.replication.ReplicationLog` and
        :class:`~repro.cluster.replication.ReplicationApplier` in.

        Afterwards this server (a) answers peer REPL_QUERY/REPL_RECORD
        connections, applying inbound records on a dedicated replication
        worker (serialized against the serving workers through the
        frontend's engine lock, so the engine still sees one operation
        at a time — but never queued *behind* a serve, or a barrier
        stalled waiting for a peer could starve the very applies that
        release the peer's own barriers: a distributed pool deadlock),
        (b) stamps every REPLY with the sequence its serve's barrier
        waited on, for the router's read-your-writes gate, and (c) holds
        each reply — on the worker thread, *before* it is cached or sent
        — until every *connected* peer has acked the emitted sequence:
        semi-synchronous replication, which is what makes an
        acknowledged write survive this backend's death.  The barrier
        must run before the reply enters the shared reply cache, or a
        surviving peer could dedupe-serve an acknowledgement for a write
        it never applied (a stale read after failover).
        """
        self._repl_log = log
        self._repl_applier = applier
        if self._loop is not None:
            self._ensure_repl_worker()

        def _barrier():
            seq = log.last_seq
            log.wait_replicated(seq)
            return (log.origin, seq)

        def _gate(origin, seq):
            if origin == log.origin:
                return log.last_seq >= seq  # our own emission: we hold it
            return applier.wait_applied(origin, seq, log.wait_timeout)

        self.frontend.replication_barrier = _barrier
        self.frontend.replication_gate = _gate

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the worker threads."""
        if self._server is not None:
            raise ConfigurationError("server already started")
        self._loop = asyncio.get_running_loop()
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"pir-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        if self._repl_applier is not None:
            self._ensure_repl_worker()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.reap_interval is not None:
            self._reap_task = self._loop.create_task(self._reap_loop())

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, close up.

        Idempotent.  After drain every session is closed and the worker
        threads have exited; live client connections are dropped (their
        next request would only be refused anyway).
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._reap_task is not None:
            self._reap_task.cancel()
            try:
                await self._reap_task
            except asyncio.CancelledError:
                pass
            self._reap_task = None
        if self._inflight > 0:
            await self._idle_event.wait()
        self._stop_threads()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if not self.adopt_sessions:
            # A cluster backend leaves its sessions alone: they fail over
            # to peers, and close_session would purge their entries from
            # the *shared* reply cache — exactly the dedupe state a peer
            # needs to answer the failover retransmissions.
            for session_id in self.frontend.session_ids:
                self.frontend.close_session(session_id)
        self._publish_sessions()
        self.counters.increment("drains")

    def _stop_threads(self, timeout: Optional[float] = None) -> None:
        """Release and join the serving workers and the replication worker."""
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
        if self._repl_thread is not None:
            self._repl_queue.put(None)
            self._repl_thread.join(timeout)
            self._repl_thread = None

    @property
    def draining(self) -> bool:
        return self._draining

    async def _reap_loop(self) -> None:
        while True:
            await asyncio.sleep(self.reap_interval)
            self.frontend.reap_idle_sessions()
            self._publish_sessions()

    def _publish_sessions(self) -> None:
        if self._sessions_gauge is not None:
            self._sessions_gauge.set(self.frontend.session_count)

    def _publish_queue_depth(self) -> None:
        if self._queue_gauge is not None:
            self._queue_gauge.set(self._queue.qsize())

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.counters.increment("connections.accepted")
        session_id: Optional[int] = None
        orderly = False
        try:
            first = decode_net_message(await read_frame_async(reader))
            if isinstance(first, Ping):
                await self._probe_loop(reader, writer, first)
                return
            if isinstance(first, (ReplQuery, ReplRecord)):
                await self._repl_loop(reader, writer, first)
                return
            session_id = await self._handshake(first, writer)
            if session_id is None:
                return
            while True:
                body = await read_frame_async(reader)
                message = decode_net_message(body)
                if isinstance(message, Bye):
                    orderly = True
                    break
                if not isinstance(message, Request):
                    await self._send(
                        writer,
                        NetRefused(0, protocol.Refused(
                            f"unexpected {type(message).__name__} frame",
                            "protocol", -1.0,
                        )),
                    )
                    break
                self.counters.increment("requests")
                self.counters.increment("bytes.in", len(body) + 4)
                started = time.monotonic()
                # In-flight covers admission through reply-written, so
                # drain cannot cut off a reply that is still in transit.
                assert self._idle_event is not None
                self._inflight += 1
                self._idle_event.clear()
                try:
                    reply = await self._admit_and_dispatch(session_id,
                                                           message)
                    # Count before the bytes go out: once the reply is on
                    # the wire the client (same GIL) can observe a metrics
                    # snapshot before this coroutine runs another line.
                    if isinstance(reply, Reply):
                        self.counters.increment("replies")
                    # (Semi-sync replication holds replies on the worker
                    # thread, before caching: frontend.replication_barrier.)
                    await self._send(writer, reply)
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle_event.set()
                if self._latency is not None:
                    self._latency.observe(time.monotonic() - started)
        except TransientChannelError:
            pass  # peer closed or broke the connection; nothing to answer
        except ProtocolError as exc:
            await self._send(
                writer,
                NetRefused(0, protocol.Refused(str(exc), "protocol", -1.0)),
                best_effort=True,
            )
        except asyncio.CancelledError:
            pass  # drain is tearing the connection down
        finally:
            # Only an orderly BYE closes the session.  An abrupt disconnect
            # keeps the suite and reply cache alive so the client can
            # re-dial, RESUME, and retransmit — drain and TTL reaping bound
            # how long an abandoned session lingers.
            if session_id is not None and orderly:
                self.frontend.close_session(session_id)
                self._publish_sessions()
            self.counters.increment("connections.closed")
            writer.close()
            # Drain's cancellation can land while the close is awaited; it
            # must not escape, or the discard below is skipped and asyncio's
            # connection callback logs the cancelled task as an error.
            try:
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass
            self._conn_tasks.discard(task)

    async def _probe_loop(self, reader, writer, first) -> None:
        """Answer PINGs until the prober hangs up.

        Health probes are sessionless and answered even while draining —
        the PONG's ``draining`` flag is how a router learns to route
        around a member being rolled.  ``sessions`` is its load signal.
        """
        message = first
        while True:
            if not isinstance(message, Ping):
                raise ProtocolError(
                    f"probe connection sent {type(message).__name__}"
                )
            self.counters.increment("probes")
            await self._send(
                writer, Pong(self._draining, self.frontend.session_count)
            )
            message = decode_net_message(await read_frame_async(reader))

    async def _repl_loop(self, reader, writer, first) -> None:
        """Serve a peer's replication connection (REPL_QUERY/REPL_RECORD).

        The stream is sessionless like a probe: a REPL_QUERY answers with
        this backend's applied high-water mark for the asking origin (the
        catch-up handshake), and each REPL_RECORD is applied on a worker
        thread — the engine stays single-threaded per request, replicated
        or local — then acked with the new applied mark.  Apply is
        idempotent, so a shed or re-sent record is simply acked at the
        unchanged mark and the peer retransmits.
        """
        if self._repl_applier is None:
            raise ProtocolError("replication is not enabled on this server")
        message = first
        while True:
            if isinstance(message, ReplQuery):
                self.counters.increment("repl.queries")
                await self._send(writer, ReplState(
                    message.origin,
                    self._repl_applier.applied_for(message.origin),
                ))
            elif isinstance(message, ReplRecord):
                applied = await self._apply_replicated(message)
                await self._send(writer, ReplAck(message.origin, applied))
            else:
                raise ProtocolError(
                    f"replication connection sent {type(message).__name__}"
                )
            message = decode_net_message(await read_frame_async(reader))

    async def _apply_replicated(self, record: ReplRecord) -> int:
        """Queue one inbound record for a worker; return the applied mark.

        While draining (or when the queue is full) the record is *not*
        applied and the current mark is returned unchanged — the peer's
        streamer sees a stale ack and retransmits after backoff.
        """
        assert self._repl_applier is not None
        if self._draining:
            return self._repl_applier.applied_for(record.origin)
        assert self._loop is not None and self._idle_event is not None
        future = self._loop.create_future()
        try:
            self._repl_queue.put_nowait((record, future, self._loop))
        except queue.Full:
            self.counters.increment("shed")
            self.counters.increment("shed.repl")
            return self._repl_applier.applied_for(record.origin)
        self._publish_queue_depth()
        self._inflight += 1
        self._idle_event.clear()
        try:
            return await future
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle_event.set()

    async def _handshake(self, message, writer) -> Optional[int]:
        """HELLO/WELCOME exchange; returns the session id or None if refused.

        ``message`` is the already-decoded first frame: HELLO opens a new
        session, RESUME re-attaches (or, on cluster backends, adopts) an
        existing one.
        """
        if isinstance(message, Resume):
            return await self._resume(message, writer)
        if not isinstance(message, Hello) or message.version != NET_VERSION:
            await self._send(
                writer,
                NetRefused(0, protocol.Refused(
                    "handshake expected HELLO "
                    f"v{NET_VERSION}", "protocol", -1.0,
                )),
            )
            return None
        if self._draining:
            await self._send(writer, NetRefused(0, self._drain_refusal()))
            return None
        if self.admission is not None:
            refusal = self.admission.admit_session(self.frontend.session_count)
            if refusal is not None:
                await self._send(writer, NetRefused(0, refusal))
                return None
        session_id = self.frontend.open_session()
        self._publish_sessions()
        await self._send(writer, Welcome(session_id))
        return session_id

    async def _resume(self, message: Resume, writer) -> Optional[int]:
        """Re-attach a connection to a session after a reconnect.

        A known session resumes on any server (same process the client
        first spoke to).  An *unknown* session is adopted only when
        ``adopt_sessions`` is set — the cluster-backend posture, where the
        router vouches for ids — and counts against the admission session
        cap like a fresh handshake.
        """
        if self._draining:
            await self._send(writer, NetRefused(0, self._drain_refusal()))
            return None
        session_id = message.session_id
        known = session_id in self.frontend.session_ids
        if not known:
            if not self.adopt_sessions:
                await self._send(writer, NetRefused(0, protocol.Refused(
                    f"unknown session {session_id}", "protocol", -1.0,
                )))
                return None
            if self.admission is not None:
                refusal = self.admission.admit_session(
                    self.frontend.session_count
                )
                if refusal is not None:
                    await self._send(writer, NetRefused(0, refusal))
                    return None
            self.frontend.adopt_session(session_id)
            self.counters.increment("sessions.adopted")
        else:
            self.counters.increment("sessions.resumed")
        self._publish_sessions()
        await self._send(writer, Welcome(session_id))
        return session_id

    def _drain_refusal(self) -> protocol.Refused:
        self.counters.increment("shed")
        self.counters.increment("shed.drain")
        return protocol.Refused("server is draining", SHED_CODE, 0.05)

    async def _admit_and_dispatch(self, session_id: int, request: Request):
        """Admission gates, then the queue/worker round trip."""
        if self._draining:
            return NetRefused(request.request_id, self._drain_refusal())
        if self.admission is not None:
            refusal = self.admission.admit_request(self._queue.qsize())
            if refusal is not None:
                return NetRefused(request.request_id, refusal)
        assert self._loop is not None
        future = self._loop.create_future()
        # Mark the session busy for the whole queued-to-served window so
        # the idle reaper cannot close it out from under a queued request.
        self.frontend.begin_request(session_id)
        try:
            self._queue.put_nowait((session_id, request, future, self._loop))
        except queue.Full:
            self.frontend.end_request(session_id)
            self.counters.increment("shed")
            self.counters.increment("shed.queue")
            return NetRefused(request.request_id, protocol.Refused(
                "request queue is full", SHED_CODE, 0.05,
            ))
        self._publish_queue_depth()
        try:
            return await future
        finally:
            self.frontend.end_request(session_id)

    async def _send(self, writer, message, best_effort: bool = False) -> None:
        body = encode_net_message(message)
        # Counted before the write for the same snapshot-race reason as
        # the replies counter; a failed write overcounts by one frame,
        # which the connection teardown path makes moot.
        self.counters.increment("bytes.out", len(body) + 4)
        try:
            await write_frame_async(writer, body)
        except (TransientChannelError, ConnectionError, OSError):
            if not best_effort:
                raise TransientChannelError("peer went away mid-reply")

    # -- worker threads --------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            session_id, request, future, loop = item
            self._publish_queue_depth()
            hook = self._serve_hook
            if hook is not None:
                hook()
            try:
                with self._span_tracer.span("net.request",
                                            nbytes=len(request.sealed)):
                    sealed_reply = self.frontend.serve(session_id,
                                                       request.sealed)
                # Stamp the reply with the (origin, seq) mark the serve's
                # replication barrier actually waited on, so the router's
                # read-your-writes watermark never runs ahead of what
                # connected peers hold.  log.last_seq at stamp time would
                # include other sessions' concurrent emissions that were
                # never waited on — a watermark a surviving peer may be
                # unable to satisfy until the dead origin restarts.  A
                # mark from a *different* origin (a dedupe served from the
                # shared cache for a write another member emitted) stamps
                # 0: the seq lives in that origin's numbering, and the
                # dedupe gate already proved this member applied it.
                mark = self.frontend.consume_reply_mark()
                repl_seq = 0
                if (self._repl_log is not None and mark is not None
                        and mark[0] == self._repl_log.origin):
                    repl_seq = mark[1]
                result = Reply(request.request_id, sealed_reply, repl_seq)
            except ReproError as exc:
                # serve() seals most refusals itself; reaching here means
                # the session is gone (reaped/closed) or similarly
                # unservable, so answer with a plaintext envelope refusal.
                refusal = classify(exc)
                retry_after = (self.frontend.health.retry_after
                               if refusal.retryable else -1.0)
                result = NetRefused(request.request_id, protocol.Refused(
                    f"{type(exc).__name__}: {exc}", refusal.code, retry_after,
                ))
            except BaseException as exc:  # never let a worker die silently
                result = NetRefused(request.request_id, protocol.Refused(
                    f"internal error: {exc}", "internal", -1.0,
                ))
            try:
                loop.call_soon_threadsafe(self._resolve, future, result)
            except RuntimeError:
                # The loop was closed under us (ServerThread.kill in a
                # crash test); the connection is gone, nobody awaits this.
                return

    def _ensure_repl_worker(self) -> None:
        if self._repl_thread is None:
            self._repl_thread = threading.Thread(
                target=self._repl_worker_loop, name="pir-repl-worker",
                daemon=True,
            )
            self._repl_thread.start()

    def _repl_worker_loop(self) -> None:
        """Apply inbound replication records off their own queue.

        A separate lane from the serving workers: a serve holding a
        worker thread through a semi-sync barrier is *waiting on peers*
        — if peer records queued behind it, two members could deadlock
        each other's pools (each barrier waiting for an apply the other
        member cannot run).  Engine single-threading is preserved by the
        applier taking the frontend's engine lock around the actual
        engine calls.
        """
        while True:
            item = self._repl_queue.get()
            if item is None:
                return
            record, future, loop = item
            try:
                applied = self._repl_applier.apply(
                    record.origin, record.seq, record.sealed)
            except BaseException:
                # Never wedge the peer's stream: ack the unchanged
                # mark so its streamer backs off and retransmits.
                applied = self._repl_applier.applied_for(record.origin)
            try:
                loop.call_soon_threadsafe(self._resolve, future, applied)
            except RuntimeError:
                return

    @staticmethod
    def _resolve(future: "asyncio.Future", result) -> None:
        if not future.cancelled():
            future.set_result(result)


class ServerThread:
    """Runs a :class:`PirServer` event loop on a background thread.

    Lets synchronous code (tests, benchmarks, the CLI) stand up a real
    TCP server in-process::

        with ServerThread(PirServer(frontend)) as handle:
            client = NetworkClient(handle.host, handle.port)

    Startup errors (bad config, port in use) re-raise from :meth:`start`
    on the calling thread.  ``drain()``/``__exit__`` run the server's
    graceful drain on the loop, then stop and join the thread.
    """

    def __init__(self, server: PirServer):
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise ConfigurationError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="pir-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def drain(self, timeout: float = 30.0) -> None:
        """Gracefully drain the server and stop the loop thread."""
        if self._thread is None or self._loop is None:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.drain(), self._loop
            )
            future.result(timeout=timeout)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._thread = None

    def kill(self, timeout: float = 30.0) -> None:
        """Abrupt shutdown: drop the listener and every connection NOW.

        The crash path, for chaos tests and failover drills — the inverse
        of :meth:`drain`.  No refusals are sent, in-flight requests are
        abandoned mid-write, clients see resets.  The engine object
        survives (same process), so a test can restart a fresh
        ``PirServer`` on the same frontend and port to model a process
        that crashed and came back.
        """
        if self._thread is None or self._loop is None:
            return
        loop = self._loop
        server = self.server

        def _slam() -> None:
            if server._server is not None:
                server._server.close()
                server._server = None
            for task in list(server._conn_tasks):
                task.cancel()
            if server._reap_task is not None:
                server._reap_task.cancel()
                server._reap_task = None
            # Let the cancellations run their finallys (writer.close)
            # before the loop stops; call_soon queues behind them.
            loop.call_soon(loop.stop)

        if self._thread.is_alive():
            try:
                loop.call_soon_threadsafe(_slam)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)
        # Workers block on their queues, not the loop; release them so
        # the process does not leak threads between restart cycles.
        server._stop_threads(timeout)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()
