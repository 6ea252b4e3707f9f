"""The three workloads of the layered serving benchmark.

Every workload stands up a real in-process stack and drives it over
loopback TCP from this process: client -> ``net`` -> ``service`` frontend
-> [``cluster`` router and replication] -> ``core`` engine ->
``hardware``/``crypto`` -> ``storage``.  Stacks are configured the way the
CLI deploys them (a ``MetricsRegistry`` attached, the access trace left at
its default), at the paper's regime: n = 2048 records of B = 1 KB, m = 100,
c = 2, which gives k = 30.  The virtual clock runs on the paper's IBM 4764
spec so Eq. 8 can be checked against the planner's cost model.

* ``serve-read`` — one ``PirServer`` over an in-memory store.  Phase 1 is
  a closed loop of point reads from one blocking client; phase 2 is an
  open loop over two connections at a fixed ladder of rates.
* ``batch-write`` — one ``PirServer`` over a journaled ``FileDiskStore``
  with a hot tier, the sync keystream pipeline and the oblivious (Batcher)
  set-up; one client sends closed-loop batches of 32 ops, half updates.
* ``cluster-rw`` — a ``ClusterRouter`` in front of two replicated
  backends (semi-sync barrier, cover records); one client runs single
  ops, half reads and half writes.

Every reply is checked against a shadow copy of the data; see
:func:`run_checks` for the end-of-run checks.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import itertools
import math
import os
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import PirDatabase
from repro.cluster import (
    ClusterRouter,
    RouterThread,
    build_cluster,
    connect_replication,
)
from repro.core.journal import FileJournal
from repro.core.params import SystemParameters
from repro.errors import ReproError
from repro.hardware.specs import IBM_4764
from repro.net import (
    AdmissionController,
    NetworkClient,
    PirServer,
    ServerThread,
)
from repro.obs import MetricsRegistry
from repro.plan import CalibratedCostModel
from repro.service import Ok, Query, Result, Update
from repro.service.frontend import SESSION_RANDOM, QueryFrontend
from repro.shuffle.oblivious import ObliviousShuffler
from repro.storage.filedisk import FileDiskStore

from recorder import (
    COUNT, END, ID, LAYER_OF, NAME, PARENT, START,
    Recorder, outermost, request_trees, self_times,
)

WORKLOADS = ("serve-read", "batch-write", "cluster-rw")

#: Latency objective of the open-loop ladder, from each request's due time.
SLO_MS = 50.0
#: Open-loop rates (requests/s) of ``serve-read`` phase 2.
LADDER = (100, 150, 200, 250, 300)
#: Connections the open loop spreads requests over (nproc = 2).
LADDER_CONNECTIONS = 2
TARGET_C = 2.0
BATCH_OPS = 32


@dataclass(frozen=True)
class Sizes:
    records: int
    page: int
    cache: int


FULL = Sizes(records=2048, page=1024, cache=100)
SMOKE = Sizes(records=64, page=64, cache=8)

#: Set-ups per untraced run (the median is reported).  batch-write's
#: oblivious set-up costs ~13 s, so it repeats fewer times.
SETUP_REPEATS = {"serve-read": 15, "batch-write": 2, "cluster-rw": 15}


class CheckFailed(Exception):
    """A correctness check failed; the run reports ``correct: false``."""


# ---------------------------------------------------------------------------
# Stacks
# ---------------------------------------------------------------------------


class Stack:
    """One running deployment plus everything needed to tear it down."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.dbs: List[PirDatabase] = []
        self.frontends: List[QueryFrontend] = []
        self.logs: list = []
        self.appliers: list = []
        self.router: Optional[ClusterRouter] = None
        self.client: Optional[NetworkClient] = None
        self.host = ""
        self.port = 0
        self._closers: List[Callable[[], None]] = []

    def on_close(self, closer: Callable[[], None]) -> None:
        self._closers.append(closer)

    def connect(self, seed: int) -> NetworkClient:
        client = NetworkClient(self.host, self.port, rng_seed=seed)
        self.on_close(client.close)
        return client

    def close(self) -> None:
        errors = []
        while self._closers:
            try:
                self._closers.pop()()
            except Exception as exc:  # keep tearing down the rest
                errors.append(exc)
        if errors:
            raise errors[0]


def _db_options(sizes: Sizes, seed: int, registry) -> dict:
    return dict(
        cache_capacity=sizes.cache,
        target_c=TARGET_C,
        page_capacity=sizes.page,
        reserve_fraction=0.0,
        seed=seed,
        spec=IBM_4764,
        cipher_backend="blake2",
        metrics=registry,
    )


def _serve(stack: Stack, db: PirDatabase) -> None:
    """Frontend + admission + server exactly as ``repro serve`` builds them."""
    registry = stack.registry
    frontend = QueryFrontend(
        db, metrics=registry, session_id_mode=SESSION_RANDOM,
        session_ttl=300.0, time_source=time.monotonic,
    )
    admission = AdmissionController(
        max_sessions=256, max_queue_depth=64, bucket=None, metrics=registry,
    )
    server = PirServer(
        frontend, admission=admission, workers=1, queue_depth=64,
        reap_interval=300.0, metrics=registry,
    )
    handle = ServerThread(server).start()
    stack.on_close(handle.drain)
    stack.frontends.append(frontend)
    stack.host, stack.port = handle.host, handle.port


def build_serve_read(records, sizes: Sizes, seed: int, workdir: str) -> Stack:
    stack = Stack(MetricsRegistry())
    try:
        db = PirDatabase.create(records, **_db_options(sizes, seed,
                                                       stack.registry))
        stack.on_close(db.close)
        stack.dbs.append(db)
        _serve(stack, db)
    except BaseException:
        stack.close()
        raise
    return stack


def build_batch_write(records, sizes: Sizes, seed: int, workdir: str) -> Stack:
    stack = Stack(MetricsRegistry())
    directory = tempfile.mkdtemp(prefix="batch-", dir=workdir)
    stack.on_close(lambda: shutil.rmtree(directory, ignore_errors=True))
    try:
        params = SystemParameters.solve(
            len(records), sizes.cache, TARGET_C, page_capacity=sizes.page,
        )

        def file_store(num_locations, frame_size, timing, clock, trace):
            store = FileDiskStore(
                os.path.join(directory, "store.bin"), num_locations,
                frame_size, timing, clock, trace, sync_policy="on-flush",
            )
            stack.on_close(store.close)
            return store

        db = PirDatabase.create(
            records,
            setup_mode="oblivious",
            disk_factory=file_store,
            journal=FileJournal(os.path.join(directory, "intent.jnl"),
                                fsync=True),
            hot_tier_frames=params.num_locations // 4,
            keystream_pipeline="sync",
            **_db_options(sizes, seed, stack.registry),
        )
        stack.on_close(db.close)
        stack.dbs.append(db)
        _serve(stack, db)
    except BaseException:
        stack.close()
        raise
    return stack


def build_cluster_rw(records, sizes: Sizes, seed: int, workdir: str) -> Stack:
    stack = Stack(MetricsRegistry())
    directory = tempfile.mkdtemp(prefix="cluster-", dir=workdir)
    stack.on_close(lambda: shutil.rmtree(directory, ignore_errors=True))
    try:
        handles = build_cluster(records, 2, directory, session_ttl=300.0,
                                **_db_options(sizes, seed, stack.registry))
        for handle in handles:
            stack.on_close(handle.db.close)
        for handle in handles:
            handle.start()
            stack.on_close(handle.drain)
        connect_replication(handles, metrics=stack.registry)
        router = ClusterRouter([h.spec for h in handles],
                               metrics=stack.registry)
        thread = RouterThread(router).start()
        stack.on_close(thread.stop)
        stack.router = router
        stack.host, stack.port = thread.host, thread.port
        for handle in handles:
            stack.dbs.append(handle.db)
            stack.frontends.append(handle.frontend)
            stack.logs.append(handle.repl_log)
            stack.appliers.append(handle.repl_applier)
    except BaseException:
        stack.close()
        raise
    return stack


BUILDERS = {
    "serve-read": build_serve_read,
    "batch-write": build_batch_write,
    "cluster-rw": build_cluster_rw,
}


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: Seconds of measuring between two host-speed probes.
PROBE_INTERVAL_S = 0.1
#: The probe's time on an unloaded virtual CPU of a 2.0 GHz Xeon (Sapphire
#: Rapids, KVM guest); timings are scaled to the host speed it stands for.
REFERENCE_PROBE_S = 125e-6
_PROBE_KEY = bytes(range(32))
_PROBE_PAGE = bytes(range(256)) * 4


def _probe_once() -> float:
    """Time a fixed piece of work like the blake2 suite's on four pages.

    Per page: a 1 KB keystream from keyed BLAKE2b blocks, the XOR through
    big integers, an HMAC-SHA256 tag, and some dict and sort bookkeeping.
    The code is the benchmark's own, so no change to the program moves it.
    """
    started = time.perf_counter()
    cipher = hashlib.blake2b(key=_PROBE_KEY, digest_size=64)
    for _ in range(4):
        blocks = []
        for i in range(16):
            block = cipher.copy()
            block.update(i.to_bytes(8, "little"))
            blocks.append(block.digest())
        sealed = (int.from_bytes(_PROBE_PAGE, "little")
                  ^ int.from_bytes(b"".join(blocks), "little")
                  ).to_bytes(len(_PROBE_PAGE), "little")
        hmac.new(_PROBE_KEY, sealed, hashlib.sha256).digest()
        table = {j: (j * 7) % 13 for j in range(64)}
        sorted(table.items(), key=lambda item: item[1])
    return time.perf_counter() - started


def probe_seconds() -> float:
    """The fastest of five probe runs.

    The fastest run is the one no thread of the stack interrupted, so the
    probe times the host and not the program's background work.
    """
    return min(_probe_once() for _ in range(5))


def host_speed(before: float, after: float) -> float:
    """Speed of the host over a window, from the probes around it.

    On a shared virtual machine the same code runs up to ~1.8x slower for
    tens of seconds while a neighbour is busy, so raw timings of one commit
    spread between runs by more than the bounds allow.  A timing multiplied
    by this speed reads as it would on the reference host.
    """
    return REFERENCE_PROBE_S / ((before + after) / 2)


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(n: int) -> float:
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (0.99, 0.95, 0.90):
        if n - math.ceil(q * n) >= 10:
            return q
    return 0.5


class Shadow:
    """The generator's copy of the data, updated on acknowledged writes."""

    def __init__(self, records: Sequence[bytes],
                 corrupt_at: Optional[int] = None):
        self.pages = list(records)
        self.checked = 0
        self.mismatches = 0
        self._corrupt_at = corrupt_at
        self._lock = threading.Lock()

    def check(self, page_id: int, payload: bytes) -> None:
        with self._lock:
            if self.checked == self._corrupt_at:
                payload = bytes([payload[0] ^ 0xFF]) + bytes(payload[1:])
            self.checked += 1
            if payload != self.pages[page_id]:
                self.mismatches += 1

    def acknowledge(self, page_id: int, payload: bytes) -> None:
        with self._lock:
            self.pages[page_id] = payload


class OpSource:
    """The seeded op stream of one workload; the stack sees only its ops."""

    def __init__(self, workload: str, seed: int, sizes: Sizes):
        self.sizes = sizes
        self.rng = random.Random(f"perfbench-ops-{workload}-{seed}")

    def page_id(self) -> int:
        return self.rng.randrange(self.sizes.records)

    def payload(self) -> bytes:
        return self.rng.randbytes(self.sizes.page)

    def batch(self) -> list:
        ops = [Update(self.page_id(), self.payload())
               for _ in range(BATCH_OPS // 2)]
        ops += [Query(self.page_id()) for _ in range(BATCH_OPS - len(ops))]
        self.rng.shuffle(ops)
        return ops


@dataclass
class LoopResult:
    seconds: float
    latencies: List[float]
    kinds: List[str]
    ops: int
    attempted: int
    failed: int
    #: ``latencies`` at the reference host speed.
    scaled_latencies: List[float]
    #: Ops per second of each probe window, at the reference host speed.
    window_rates: List[float]
    #: Host speed of each probe window (see :func:`host_speed`).
    speeds: List[float]

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.seconds if self.seconds > 0 else 0.0

    @property
    def scaled_ops_per_s(self) -> float:
        """Median over the probe windows: a burst of slow I/O in a few
        windows does not move it."""
        return statistics.median(self.window_rates) if self.window_rates \
            else 0.0

    def of_kind(self, kind: str) -> List[float]:
        return [lat for lat, k in zip(self.latencies, self.kinds) if k == kind]


def one_op(workload: str, client, source: OpSource,
           shadow: Shadow) -> Tuple[str, float, int, int]:
    """Issue one client request; returns (kind, seconds, ops, failed ops)."""
    if workload == "batch-write":
        ops = source.batch()
        started = time.perf_counter()
        replies = client.batch(ops)
        elapsed = time.perf_counter() - started
        failed = 0
        for op, reply in zip(ops, replies):
            if isinstance(op, Update):
                if isinstance(reply, Ok):
                    shadow.acknowledge(op.page_id, op.payload)
                else:
                    failed += 1
            elif isinstance(reply, Result):
                shadow.check(op.page_id, reply.payload)
            else:
                failed += 1
        return "batch", elapsed, len(ops), failed
    page_id = source.page_id()
    if workload == "cluster-rw" and source.rng.random() < 0.5:
        payload = source.payload()
        started = time.perf_counter()
        client.update(page_id, payload)
        elapsed = time.perf_counter() - started
        shadow.acknowledge(page_id, payload)
        return "write", elapsed, 1, 0
    started = time.perf_counter()
    payload = client.query(page_id)
    elapsed = time.perf_counter() - started
    shadow.check(page_id, payload)
    return "read", elapsed, 1, 0


def closed_loop(workload: str, client, source: OpSource, shadow: Shadow,
                seconds: float) -> LoopResult:
    """One blocking client, next request as soon as the last one returns.

    The loop runs in windows of ``PROBE_INTERVAL_S``; the host-speed probe
    between two windows is not part of the measured time.
    """
    latencies: List[float] = []
    kinds: List[str] = []
    scaled: List[float] = []
    rates: List[float] = []
    speeds: List[float] = []
    ops = attempted = failed = 0
    busy = 0.0
    size = BATCH_OPS if workload == "batch-write" else 1
    before = probe_seconds()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        first, ops_before = len(latencies), ops
        started = time.perf_counter()
        window_end = min(deadline, started + PROBE_INTERVAL_S)
        while time.perf_counter() < window_end:
            try:
                kind, elapsed, done, bad = one_op(workload, client, source,
                                                  shadow)
            except ReproError:
                attempted += size
                failed += size
                continue
            attempted += done
            failed += bad
            ops += done - bad
            latencies.append(elapsed)
            kinds.append(kind)
        window = time.perf_counter() - started
        after = probe_seconds()
        speed = host_speed(before, after)
        before = after
        busy += window
        scaled.extend(lat * speed for lat in latencies[first:])
        rates.append((ops - ops_before) / (window * speed))
        speeds.append(speed)
    return LoopResult(busy, latencies, kinds, ops, attempted, failed,
                      scaled, rates, speeds)


@dataclass
class Rung:
    rate: float
    sent: int
    refused: int
    p50_ms: float
    tail_q: float
    tail_ms: float
    backlog_ms: float
    lag_p99_ms: float
    passed: bool


def open_loop_rung(clients, source: OpSource, shadow: Shadow, rate: float,
                   seconds: float) -> Tuple[Rung, List[float]]:
    """Requests due every 1/rate s, sent on whichever connection is free.

    Latency runs from the due time, so a stall counts against every
    request queued behind it.  Returns the rung and the generator's lag
    samples (send time minus the later of due time and connection free).
    """
    count = max(1, round(rate * seconds))
    page_ids = [source.page_id() for _ in range(count)]
    results: List[Optional[Tuple[float, float, float, bool, float]]] = \
        [None] * count
    next_index = itertools.count()
    begin = time.perf_counter() + 0.005

    def drive(client) -> None:
        ready = time.perf_counter()
        while True:
            index = next(next_index)
            if index >= count:
                return
            due = begin + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                payload = client.query(page_ids[index])
                ok = True
            except ReproError:
                ok = False
            done = time.perf_counter()
            if ok:
                shadow.check(page_ids[index], payload)
            results[index] = (due, sent, done, ok, max(due, ready))
            ready = done

    threads = [threading.Thread(target=drive, args=(client,), daemon=True)
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 60.0)
        if thread.is_alive():
            raise CheckFailed("open-loop generator did not finish")
    finished = [r for r in results if r is not None]
    refused = sum(1 for r in finished if not r[3]) + (count - len(finished))
    latencies = [(r[2] - r[0]) * 1e3 if r[3] else math.inf for r in finished]
    lags = [(r[1] - r[4]) * 1e3 for r in finished]
    q = tail_quantile(len(latencies))
    tail = percentile(latencies, q)
    last = max(finished, key=lambda r: r[0])
    backlog = (last[2] - last[0]) * 1e3
    rung = Rung(
        rate=rate, sent=count, refused=refused,
        p50_ms=percentile(latencies, 0.5), tail_q=q, tail_ms=tail,
        backlog_ms=backlog, lag_p99_ms=percentile(lags, 0.99),
        passed=tail <= SLO_MS and backlog <= SLO_MS and refused == 0,
    )
    return rung, lags


def ladder(clients, source: OpSource, shadow: Shadow,
           seconds: float) -> Tuple[List[Rung], List[float]]:
    rungs, lags = [], []
    for rate in LADDER:
        rung, rung_lags = open_loop_rung(clients, source, shadow, rate,
                                         seconds / len(LADDER))
        rungs.append(rung)
        lags.extend(rung_lags)
    return rungs, lags


def max_passing_rate(rungs: Sequence[Rung]) -> float:
    """Highest rate that meets the SLO with every lower rate meeting it."""
    best = 0.0
    for rung in sorted(rungs, key=lambda r: r.rate):
        if not rung.passed:
            break
        best = rung.rate
    return best


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


class Baseline:
    """Counters of every member captured when measurement starts."""

    def __init__(self, stack: Stack):
        self.requests = [db.engine.request_count for db in stack.dbs]
        self.clock = [db.clock.now for db in stack.dbs]
        self.emitted = [log.counters.get("emitted") for log in stack.logs]
        counters = stack.registry.snapshot()["counters"]
        self.counters = dict(counters)
        self.failovers = (stack.router.counters.get("failovers")
                          if stack.router is not None else 0)


def _wait_for(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


def shape_ok(shape: List[Tuple[str, int]], k: int, fused: bool) -> bool:
    """``read:k, read:1, write:k, write:1`` (one ``:1`` per op if fused)."""
    extras = (len(shape) - 2) // 2
    if extras < 1 or (extras != 1 and not fused):
        return False
    expected = ([("read", k)] + [("read", 1)] * extras
                + [("write", k)] + [("write", 1)] * extras)
    return shape == expected


def eq8_ms(db: PirDatabase) -> float:
    """The planner's Eq. 8 prediction for one member's spec and page size."""
    model = CalibratedCostModel.from_spec(db.cop.spec,
                                          page_size=db.params.page_capacity)
    return model.query_time(db.params.block_size) * 1e3


def virtual_ms_per_request(base: Baseline, end: Baseline,
                           index: int = 0) -> float:
    served = end.requests[index] - base.requests[index]
    return ((end.clock[index] - base.clock[index]) * 1e3 / served
            if served else 0.0)


def run_checks(workload: str, stack: Stack, base: Baseline, shadow: Shadow,
               acked_ops: int) -> List[str]:
    """Every end-of-run check; returns the failures (empty when correct)."""
    problems = []
    if shadow.mismatches:
        problems.append(f"{shadow.mismatches} replies differ from the shadow")
    for index, db in enumerate(stack.dbs):
        def settled(index=index, db=db):
            return db.engine.request_count - base.requests[index] >= acked_ops
        _wait_for(settled, 10.0)
        served = db.engine.request_count - base.requests[index]
        if served != acked_ops:
            problems.append(f"member {index}: engine served {served} requests "
                            f"for {acked_ops} acknowledged ops")
        if db.achieved_c > TARGET_C:
            problems.append(f"achieved c {db.achieved_c} > {TARGET_C}")
        k = db.params.block_size
        shapes: Dict[int, List[Tuple[str, int]]] = {}
        for event in db.trace:
            if event.request_index >= base.requests[index]:
                shapes.setdefault(event.request_index, []).append(
                    (event.op, event.count))
        fused = workload == "batch-write"
        bad = [i for i, shape in shapes.items()
               if not shape_ok(shape, k, fused)]
        if bad:
            problems.append(f"member {index}: {len(bad)} requests with a "
                            f"non-uniform trace shape, first {bad[0]}")
        if not fused:
            measured = virtual_ms_per_request(base, Baseline(stack), index)
            predicted = eq8_ms(db)
            if not math.isclose(measured, predicted, rel_tol=1e-9):
                problems.append(f"member {index}: virtual {measured!r} ms per "
                                f"request != Eq. 8 {predicted!r} ms")
    if len(stack.dbs) > 1:
        digests = {db.content_digest() for db in stack.dbs}
        if len(digests) != 1:
            problems.append("cluster members' content digests differ")
    return problems


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced phase
# ---------------------------------------------------------------------------


#: Layers whose mean self time per request the traced run reports; they
#: add up to the mean client-request wall time.
SELF_LAYERS = ("net", "service", "core", "journal", "crypto", "storage",
               "cluster")

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS = (
    ("loadgen.lag_p99_ms", "ms"), ("loadgen.max_qps", "req/s"),
    ("loadgen.read_p50_ms", "ms"), ("loadgen.write_p50_ms", "ms"),
    ("net.in_ms", "ms"), ("net.out_ms", "ms"), ("net.refused", "count"),
    ("service.serve_ms", "ms"), ("service.self_ms", "ms"),
    ("core.op_ms", "ms"), ("core.self_ms", "ms"),
    ("core.requests_per_op", "ratio"), ("core.block_reads_per_op", "ratio"),
    ("core.virtual_ms_per_request", "ms"), ("core.eq8_predicted_ms", "ms"),
    ("core.journal_ms", "ms"), ("core.journal_writes_per_op", "ratio"),
    ("crypto.open_ms", "ms"), ("crypto.seal_ms", "ms"),
    ("crypto.frames_per_op", "ratio"), ("crypto.mb_per_s", "MB/s"),
    ("crypto.keystream_hit_rate", "ratio"),
    ("storage.read_ms", "ms"), ("storage.write_ms", "ms"),
    ("storage.flush_ms", "ms"), ("storage.hot_hit_rate", "ratio"),
    ("storage.cold_read_ms", "ms"),
    ("storage.frames_read_per_op", "ratio"),
    ("storage.frames_written_per_op", "ratio"),
    ("storage.bytes_per_user_byte", "ratio"),
    ("hardware.cache_hit_rate", "ratio"),
    ("shuffle.setup_ms", "ms"), ("shuffle.frames_sealed", "count"),
    ("cluster.router_ms", "ms"), ("cluster.repl_emit_ms", "ms"),
    ("cluster.repl_wait_ms", "ms"), ("cluster.repl_apply_ms", "ms"),
    ("cluster.repl_records_per_op", "ratio"),
    ("cluster.repl_lag_max", "count"),
    ("cluster.failovers", "count"),
    ("trace.linked_frac", "ratio"), ("trace.ops_per_s_untraced", "ops/s"),
    ("trace.ops_per_s_traced", "ops/s"), ("trace.overhead_frac", "ratio"),
) + tuple((f"layer.{layer}_self_ms", "ms") for layer in SELF_LAYERS)


class Probes:
    """Counts taken by the instrumentation besides spans."""

    def __init__(self) -> None:
        self.targets = 0
        self.resident = 0
        self.repl_lag_max = 0
        self.shuffle_sealed = 0


def instrument_setup(rec: Recorder, probes: Probes) -> None:
    """Class-level wrappers for objects created inside ``create``."""
    rec.wrap(ObliviousShuffler, "shuffle", "shuffle.setup",
             new_request=True)
    seal_tagged = ObliviousShuffler.seal_tagged

    def counting_seal(self, tag, page):
        probes.shuffle_sealed += 1
        return seal_tagged(self, tag, page)

    rec.install(ObliviousShuffler, "seal_tagged", counting_seal)


def instrument(rec: Recorder, stack: Stack, clients, probes: Probes) -> None:
    """Wrap the public calls into each layer on the live instances."""
    for client in clients:
        rec.wrap_client(client, ("query", "update", "batch"))
    for frontend in stack.frontends:
        rec.wrap_serve(frontend)
    for db in stack.dbs:
        page_map = db.cop.page_map

        def residency(args, page_map=page_map, batched=False):
            ids = [op.page_id for op in args[0]] if batched else [args[0]]
            probes.targets += len(ids)
            probes.resident += sum(page_map.lookup(i).in_cache for i in ids)

        rec.wrap(db, "query", "core.op", lambda a: 1, residency)
        rec.wrap(db, "update", "core.op", lambda a: 1, residency)
        rec.wrap(db, "run_batch", "core.op", lambda a: len(a[0]),
                 lambda a, r=residency: r(a, batched=True))
        rec.wrap(db.cop, "unseal_frames", "crypto.open", lambda a: len(a[0]))
        rec.wrap(db.cop, "seal_pages", "crypto.seal", lambda a: len(a[0]))
        disk = db.disk
        rec.wrap(disk, "read_request", "storage.read", lambda a: a[1] + 1)
        rec.wrap(disk, "read_range", "storage.read", lambda a: a[1])
        rec.wrap(disk, "read", "storage.read", lambda a: 1)
        rec.wrap(disk, "write_request", "storage.write",
                 lambda a: len(a[1]) + 1)
        rec.wrap(disk, "write_range", "storage.write", lambda a: len(a[1]))
        rec.wrap(disk, "write", "storage.write", lambda a: 1)
        if hasattr(disk, "flush"):
            rec.wrap(disk, "flush", "storage.flush")
        cold = getattr(disk, "cold", None)
        if cold is not None:
            rec.wrap(cold, "read_range", "storage.cold_read", lambda a: a[1])
            rec.wrap(cold, "write_range", "storage.cold_write",
                     lambda a: len(a[1]))
        journal = db.engine.journal
        if journal is not None:
            rec.wrap(journal, "write", "journal.write", lambda a: 1)
            rec.wrap(journal, "clear", "journal.clear")
    for log in stack.logs:
        def lag(args, log=log):
            peers = log.connected_peers()
            if peers:
                behind = log.last_seq - min(log.peer_acked(p) for p in peers)
                probes.repl_lag_max = max(probes.repl_lag_max, behind)

        rec.wrap(log, "emit", "repl.emit", lambda a: 1, lag)
        rec.wrap(log, "wait_replicated", "repl.wait")
    for applier in stack.appliers:
        rec.wrap(applier, "apply", "repl.apply", new_request=True)


def layer_metrics(spans: List[list], ops: int, stack: Stack,
                  base: Baseline, end: Baseline,
                  probes: Probes) -> Dict[str, float]:
    """Per-layer figures from the traced phase's spans and counters.

    Times are the p50 over client requests of each request's total in that
    layer (a request is one read, one write or one 32-op batch), except the
    ``layer.*_self_ms`` means, which add up to the mean request wall time;
    ``*_per_op`` counts divide by user operations.

    ``trace.linked_frac`` is the share of client requests whose tree holds
    the server's ``service.serve`` span.  Self times add up to the wall
    time of any tree, so the breakdown is only true where the cross-thread
    link held: an unlinked request books all its server time as ``net``.
    """
    selfs = self_times(spans)
    trees = request_trees(spans, "client.op")
    per: Dict[str, List[float]] = {}
    totals: Dict[str, float] = {}
    linked = 0

    def add(name: str, value: float) -> None:
        per.setdefault(name, []).append(value)

    def total(name: str, value: float) -> None:
        totals[name] = totals.get(name, 0.0) + value

    for tree in trees:
        root = tree[0]
        wall = root[END] - root[START]
        for span in tree:
            layer = LAYER_OF.get(span[NAME])
            if layer is not None:
                total("self." + layer, selfs[span[ID]])
        serves = outermost(tree, "service.serve")
        if serves:
            linked += 1
            serve = serves[0]
            add("net.in_ms", (serve[START] - root[START]) * 1e3)
            add("net.out_ms", (root[END] - serve[END]) * 1e3)
            add("service.serve_ms", (serve[END] - serve[START]) * 1e3)
            add("service.self_ms", selfs[serve[ID]] * 1e3)
            add("cluster.router_ms",
                (wall - (serve[END] - serve[START])) * 1e3
                if stack.router is not None else 0.0)
        for name, metric in (("core.op", "core.op_ms"),
                             ("crypto.open", "crypto.open_ms"),
                             ("crypto.seal", "crypto.seal_ms"),
                             ("storage.read", "storage.read_ms"),
                             ("storage.write", "storage.write_ms"),
                             ("storage.cold_read", "storage.cold_read_ms"),
                             ("repl.emit", "cluster.repl_emit_ms"),
                             ("repl.wait", "cluster.repl_wait_ms")):
            found = outermost(tree, name)
            add(metric, sum(s[END] - s[START] for s in found) * 1e3)
            total(name + ".count", sum(s[COUNT] for s in found))
            total(name + ".seconds", sum(s[END] - s[START] for s in found))
        add("core.self_ms", sum(selfs[s[ID]] for s in tree
                                if s[NAME] == "core.op") * 1e3)
        journal = [s for s in tree if s[NAME].startswith("journal.")]
        add("core.journal_ms", sum(s[END] - s[START] for s in journal) * 1e3)
        total("journal.writes",
              sum(1 for s in journal if s[NAME] == "journal.write"))

    def p50(name: str) -> float:
        return statistics.median(per[name]) if per.get(name) else 0.0

    ops = max(ops, 1)
    out = {name: p50(name) for name in (
        "net.in_ms", "net.out_ms", "service.serve_ms", "service.self_ms",
        "core.op_ms", "core.self_ms", "core.journal_ms", "crypto.open_ms",
        "crypto.seal_ms", "storage.read_ms", "storage.write_ms",
        "storage.cold_read_ms", "cluster.router_ms", "cluster.repl_emit_ms",
        "cluster.repl_wait_ms")}
    crypto_frames = totals.get("crypto.open.count", 0) + totals.get(
        "crypto.seal.count", 0)
    crypto_seconds = totals.get("crypto.open.seconds", 0) + totals.get(
        "crypto.seal.seconds", 0)
    db = stack.dbs[0]
    frame = db.cop.frame_size
    frames_read = totals.get("storage.read.count", 0)
    frames_written = totals.get("storage.write.count", 0)

    def delta(name: str) -> int:
        return end.counters.get(name, 0) - base.counters.get(name, 0)

    def rate(hit: str, miss: str) -> float:
        hits, misses = delta(hit), delta(miss)
        return hits / (hits + misses) if hits + misses else 0.0

    k = db.params.block_size
    block_reads = sum(1 for e in db.trace
                      if base.requests[0] <= e.request_index < end.requests[0]
                      and e.op == "read" and e.count == k)
    applies = [s for s in spans if s[NAME] == "repl.apply" and not s[PARENT]]
    emitted = sum(end.emitted) - sum(base.emitted)
    out.update({
        "core.requests_per_op": (end.requests[0] - base.requests[0]) / ops,
        "core.block_reads_per_op": block_reads / ops,
        "core.virtual_ms_per_request": virtual_ms_per_request(base, end),
        "core.eq8_predicted_ms": eq8_ms(db),
        "core.journal_writes_per_op": totals.get("journal.writes", 0) / ops,
        "crypto.frames_per_op": crypto_frames / ops,
        "crypto.mb_per_s": (crypto_frames * frame / crypto_seconds / 1e6
                            if crypto_seconds else 0.0),
        "crypto.keystream_hit_rate": rate("pipeline.hit", "pipeline.miss"),
        "storage.hot_hit_rate": rate("tier.hit", "tier.miss"),
        "storage.frames_read_per_op": frames_read / ops,
        "storage.frames_written_per_op": frames_written / ops,
        "storage.bytes_per_user_byte": ((frames_read + frames_written) * frame
                                        / (ops * db.params.page_capacity)),
        "hardware.cache_hit_rate": (probes.resident / probes.targets
                                    if probes.targets else 0.0),
        "cluster.repl_apply_ms": (statistics.median(
            (s[END] - s[START]) * 1e3 for s in applies) if applies else 0.0),
        "cluster.repl_records_per_op": emitted / ops if stack.logs else 0.0,
        "cluster.repl_lag_max": float(probes.repl_lag_max),
        "cluster.failovers": float(end.failovers - base.failovers),
        "trace.linked_frac": linked / len(trees) if trees else 0.0,
    })
    for layer in SELF_LAYERS:
        out[f"layer.{layer}_self_ms"] = (totals.get("self." + layer, 0.0)
                                         * 1e3 / len(trees) if trees else 0.0)
    return out


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def make_records(seed: int, sizes: Sizes) -> List[bytes]:
    rng = random.Random(f"perfbench-records-{seed}")
    return [rng.randbytes(sizes.page) for _ in range(sizes.records)]


def set_up(workload: str, records, sizes: Sizes, seed: int, workdir: str,
           shadow: Shadow) -> Stack:
    """Records to first servable reply: build, serve, connect, one read."""
    stack = BUILDERS[workload](records, sizes, seed, workdir)
    try:
        stack.client = stack.connect(seed)
        shadow.check(0, stack.client.query(0))
    except BaseException:
        stack.close()
        raise
    return stack


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    report: List[str]
    problems: List[str]


def _p50_ms(latencies: Sequence[float]) -> float:
    return statistics.median(latencies) * 1e3 if latencies else 0.0


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def e2e_metrics(loop: LoopResult,
                setup_times: Sequence[float]) -> Dict[str, Tuple[float, str]]:
    """The gated metrics; every timing is at the reference host speed."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "p50_ms": (_p50_ms(loop.scaled_latencies), "ms"),
        "ops_per_s": (loop.scaled_ops_per_s, "ops/s"),
        "rss_mb": (rss_mb(), "MB"),
    }


def e2e_report(loop: LoopResult, setup_times: Sequence[float],
               raw_setup_times: Sequence[float],
               rungs: Sequence[Rung]) -> List[str]:
    """The human-readable table, with per-kind latencies and the ladder.

    The lines of the gated metrics give the raw figure beside the scaled
    one; every other line is raw wall-clock time.
    """
    lines = [f"setup_s {statistics.median(setup_times):.4f} s at reference "
             f"speed (median of {len(setup_times)}; raw: "
             + ", ".join(f"{t:.3f}" for t in raw_setup_times) + ")",
             f"p50_ms {_p50_ms(loop.scaled_latencies):.4f} ms at reference "
             f"speed (raw {_p50_ms(loop.latencies):.4f} ms)"]
    for kind in ("read", "write", "batch"):
        values = loop.of_kind(kind)
        if not values:
            continue
        unit = "ms per 32-op batch" if kind == "batch" else "ms"
        beyond = len(values) - math.ceil(0.99 * len(values))
        lines.append(f"{kind}_mean_ms {statistics.fmean(values) * 1e3:.4f} "
                     f"{unit} (n={len(values)})")
        for q in (50, 90, 99):
            lines.append(f"{kind}_p{q}_ms "
                         f"{percentile(values, q / 100) * 1e3:.4f} {unit} "
                         f"(n={len(values)}"
                         + (f", {beyond} beyond)" if q == 99 else ")"))
    lines.append(f"ops_per_s {loop.scaled_ops_per_s:.4f} ops/s at reference "
                 f"speed, median of {len(loop.window_rates)} windows (raw "
                 f"{loop.ops_per_s:.4f}: {loop.ops} ops in {loop.seconds:.2f} "
                 f"s, closed loop)")
    attempted = loop.attempted + sum(r.sent for r in rungs)
    failed = loop.failed + sum(r.refused for r in rungs)
    lines.append(f"failed_frac {failed / max(attempted, 1):.6f} "
                 f"failed or refused / attempted ({failed}/{attempted})")
    if rungs:
        lines.append(f"read_max_qps {max_passing_rate(rungs):.1f} req/s "
                     f"(open loop; every rung up to it has its tail from "
                     f"due time <= {SLO_MS:.0f} ms, no backlog, no refusals)")
        for r in rungs:
            lines.append(
                f"  rung {r.rate:6.1f} req/s: n={r.sent} refused={r.refused} "
                f"p50={r.p50_ms:.2f} ms p{r.tail_q * 100:.0f}={r.tail_ms:.2f} "
                f"ms backlog={r.backlog_ms:.2f} ms "
                f"lag_p99={r.lag_p99_ms:.2f} ms "
                + ("pass" if r.passed else "miss"))
    lines.append(f"rss_mb {rss_mb():.4f} MB (peak)")
    lines.append(f"host_speed {min(loop.speeds):.3f} to {max(loop.speeds):.3f}"
                 f" (median {statistics.median(loop.speeds):.3f}) of the "
                 f"reference over {len(loop.speeds)} probe windows")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = FULL, workdir: str = ".",
        spans_path: Optional[str] = None, corrupt_at: Optional[int] = None,
        setups: Optional[int] = None) -> RunResult:
    """One benchmark run: set up, measure, check, tear down.

    Untraced runs report the end-to-end metrics; traced runs first measure
    an untraced closed-loop half (the tracing-overhead baseline), then
    install the span wrappers and report the per-layer metrics.
    """
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    records = make_records(seed, sizes)
    shadow = Shadow(records, corrupt_at=corrupt_at)
    source = OpSource(workload, seed, sizes)
    rec = Recorder()
    probes = Probes()
    if setups is None:
        setups = 1 if trace else SETUP_REPEATS[workload]
    setup_times: List[float] = []
    raw_setup_times: List[float] = []
    setup_spans: List[list] = []
    stack: Optional[Stack] = None
    trace_problems: List[str] = []
    has_ladder = workload == "serve-read"
    # The closed loop's latency is gated, so it gets the larger share; the
    # ladder's rungs split the rest.
    closed_seconds = seconds * 2 / 3 if has_ladder else seconds
    ladder_seconds = seconds - closed_seconds
    try:
        if trace:
            instrument_setup(rec, probes)
        for attempt in range(setups):
            before = probe_seconds()
            started = time.perf_counter()
            candidate = set_up(workload, records, sizes, seed, workdir,
                               Shadow(records))
            raw_setup_times.append(time.perf_counter() - started)
            setup_times.append(raw_setup_times[-1]
                               * host_speed(before, probe_seconds()))
            if attempt == setups - 1:
                stack = candidate
            else:
                candidate.close()
        rec.unwrap_all()
        setup_spans, rec.spans = rec.spans, []
        gc.collect()
        clients = [stack.client] + [stack.connect(seed + 1 + i)
                                    for i in range(LADDER_CONNECTIONS - 1)
                                    if has_ladder]
        start = Baseline(stack)
        if not trace:
            loop = closed_loop(workload, stack.client, source, shadow,
                               closed_seconds)
            rungs, _ = (ladder(clients, source, shadow, ladder_seconds)
                        if has_ladder else ([], []))
            loops = [loop]
            metrics = e2e_metrics(loop, setup_times)
            report = e2e_report(loop, setup_times, raw_setup_times, rungs)
        else:
            untraced = closed_loop(workload, stack.client, source, shadow,
                                   closed_seconds / 2)
            traced_base = Baseline(stack)
            instrument(rec, stack, clients, probes)
            traced = closed_loop(workload, stack.client, source, shadow,
                                 closed_seconds / 2)
            traced_end = Baseline(stack)
            loop_spans = list(rec.spans)
            rungs, lags = (ladder(clients, source, shadow, ladder_seconds)
                           if has_ladder else ([], []))
            # Nothing flushes while serving under the on-flush policy; the
            # flush that shutdown performs makes the run's frames durable.
            flush_from = len(rec.spans)
            for db in stack.dbs:
                if hasattr(db.disk, "flush"):
                    db.disk.flush()
            flushes = [s for s in rec.spans[flush_from:]
                       if s[NAME] == "storage.flush" and not s[PARENT]]
            rec.unwrap_all()
            loops = [untraced, traced]
            layers = layer_metrics(loop_spans, traced.ops, stack,
                                   traced_base, traced_end, probes)
            shuffles = [s for s in setup_spans if s[NAME] == "shuffle.setup"]
            layers.update({
                "loadgen.lag_p99_ms": percentile(lags, 0.99),
                "loadgen.max_qps": max_passing_rate(rungs),
                "loadgen.read_p50_ms": _p50_ms(traced.of_kind("read")),
                "loadgen.write_p50_ms": _p50_ms(traced.of_kind("write")),
                "net.refused": float(traced.failed
                                     + sum(r.refused for r in rungs)),
                "storage.flush_ms": sum(s[END] - s[START]
                                        for s in flushes) * 1e3,
                "shuffle.setup_ms": sum(s[END] - s[START]
                                        for s in shuffles) * 1e3,
                "shuffle.frames_sealed": float(probes.shuffle_sealed),
                "trace.ops_per_s_untraced": untraced.scaled_ops_per_s,
                "trace.ops_per_s_traced": traced.scaled_ops_per_s,
                "trace.overhead_frac": (1 - traced.scaled_ops_per_s
                                        / untraced.scaled_ops_per_s
                                        if untraced.scaled_ops_per_s
                                        else 0.0),
            })
            if layers["trace.linked_frac"] < 1:
                trace_problems.append(
                    f"only {layers['trace.linked_frac']:.4f} of traced "
                    "requests linked to their server span")
            metrics = {name: (layers[name], unit)
                       for name, unit in LAYER_METRICS}
            report = [f"{name:32s} {layers[name]:14.4f} {unit}"
                      for name, unit in LAYER_METRICS]
        attempted = (sum(loop.attempted for loop in loops)
                     + sum(r.sent for r in rungs))
        failed = (sum(loop.failed for loop in loops)
                  + sum(r.refused for r in rungs))
        acked = (sum(loop.ops for loop in loops)
                 + sum(r.sent - r.refused for r in rungs))
        problems = trace_problems + run_checks(workload, stack, start,
                                               shadow, acked)
    except CheckFailed as exc:
        problems, metrics, report = [str(exc)], {}, []
        attempted = failed = 1
    finally:
        rec.unwrap_all()
        rec.spans = setup_spans + rec.spans
        if spans_path is not None and rec.spans:
            rec.write_jsonl(spans_path)
        if stack is not None:
            stack.close()
    return RunResult(not problems, max(attempted, 1), failed, metrics,
                     report, problems)
