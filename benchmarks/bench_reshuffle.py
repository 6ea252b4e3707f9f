"""Online re-permutation benchmark — the last amortized stall, removed.

The offline Batcher shuffle is a stop-the-world event: ``network_size(n)``
compare-exchanges during which the database refuses every request.  The
online reshuffler executes the same network as bounded batches interleaved
with serving, and the hot tier absorbs the extra block traffic.  This
bench quantifies both claims on one pinned workload:

* **Byte identity** — every query served before, during and after a full
  epoch (with a piggybacked key rotation) returns the original record,
  and the content digest survives the epoch (exit 2: correctness).
* **Zero refusals under load** — a loadgen loop drives the frontend while
  a *background* epoch runs to completion; not a single request may be
  refused, and the served-during-epoch counter must prove real overlap
  (exit 1: the availability claim of the PR).
* **Bounded tail latency** — wall-clock p99 during the background epoch
  must stay within ``1.5x`` of the same loop's no-reshuffle p99 (exit 1).
* **Hot-tier effectiveness** — the memory tier (sized to the frame
  array, the deployment default) must absorb at least 95% of frame
  reads across serving and the epoch itself (exit 1).

Besides the pytest check, this file is a script::

    PYTHONPATH=src python benchmarks/bench_reshuffle.py --quick --out run.jsonl

emitting the perf-gate JSONL layout (meta line + phase rows) that
``benchmarks/compare_bench.py`` diffs against
``benchmarks/results/perf_baseline_reshuffle.jsonl``.  The count/bytes/
virtual-second columns come from the virtual clock and the deterministic
comparator network, so they are exact under the pinned seed; the wall-time
loadgen gates run in-script only and are never emitted as phase rows.
"""

from __future__ import annotations

import argparse
import sys
import time
from os import path
from typing import List, Optional, Tuple

try:
    import repro  # noqa: F401
except ImportError:  # script mode from a checkout without PYTHONPATH
    sys.path.insert(0, path.join(path.dirname(__file__), "..", "src"))

from repro.baselines import make_records
from repro.core.database import PirDatabase
from repro.core.journal import MemoryJournal
from repro.hardware.specs import IBM_4764
from repro.obs.registry import MetricsRegistry
from repro.shuffle.oblivious import network_size

#: Pinned workload shape — change it and the committed baseline together.
DEFAULT_SEED = 9177
DEFAULT_QUERIES = 256
QUICK_QUERIES = 128
_BENCH_RECORDS = 96
_BENCH_PAGE_SIZE = 32
_BLOCK_SIZE = 8
_CACHE = 8
_HOT_FRAMES = 96         # full residency: memory tier sized to n frames
_RESHUFFLE_BATCH = 16    # comparator units per journaled batch

MIN_HIT_RATE = 0.95
P99_RATIO_MAX = 1.5
_LOADGEN_WARMUP = 200            # discarded: caches and allocator settling
_LOADGEN_BASELINE = 1000         # latency samples on each side of the epoch
_LOADGEN_MIN_OVERLAP = 64        # served-during-epoch floor for the gate
_LOADGEN_CAP = 50000             # runaway guard if the epoch never ends
_LOADGEN_ATTEMPTS = 3            # best-of-N for the one-sided-noise p99 gate


def _make_db(seed: int, metrics: Optional[MetricsRegistry] = None,
             spec=IBM_4764) -> PirDatabase:
    # The IBM 4764 timing model prices the comparator I/O honestly on the
    # virtual clock; the hot tier fronts the cold store exactly as the
    # deployment path does.  A clock-charging journal prices durability.
    db = PirDatabase.create(
        make_records(_BENCH_RECORDS, _BENCH_PAGE_SIZE),
        cache_capacity=_CACHE,
        block_size=_BLOCK_SIZE,
        page_capacity=_BENCH_PAGE_SIZE,
        cipher_backend="blake2",
        trace_enabled=False,
        seed=seed,
        spec=spec,
        metrics=metrics,
        hot_tier_frames=_HOT_FRAMES,
    )
    if spec is not None:
        db.engine.journal = MemoryJournal(clock=db.clock,
                                          timing=db.cop.spec.disk)
    return db


def _query_id(i: int) -> int:
    return (i * 13 + 5) % _BENCH_RECORDS


def _percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[int(q * (len(ordered) - 1))]


# ---------------------------------------------------------------------------
# Deterministic phases (virtual clock)
# ---------------------------------------------------------------------------


def run_serve_baseline(db: PirDatabase, records: List[bytes],
                       queries: int) -> Tuple[dict, List[str]]:
    problems: List[str] = []
    virtual_start = db.clock.now
    wall_start = time.perf_counter()
    for i in range(queries):
        page_id = _query_id(i)
        if db.query(page_id) != records[page_id]:
            problems.append(f"baseline query {page_id} returned wrong bytes")
    row = {
        "kind": "phase", "name": "serve.baseline",
        "count": queries,
        "bytes": queries * (_BLOCK_SIZE + 1) * db.cop.frame_size,
        "virtual_s": db.clock.now - virtual_start,
        "wall_s": time.perf_counter() - wall_start,
    }
    return row, problems


def run_foreground_epoch(db: PirDatabase) -> Tuple[dict, List[str]]:
    """One full epoch with a piggybacked rotation, no interleaved serving."""
    problems: List[str] = []
    digest = db.content_digest()
    driver = db.begin_reshuffle(batch_size=_RESHUFFLE_BATCH,
                                rotate_to=b"bench-rotated-key",
                                journal=MemoryJournal())
    virtual_start = db.clock.now
    wall_start = time.perf_counter()
    units = driver.run()
    wall = time.perf_counter() - wall_start
    virtual = db.clock.now - virtual_start
    if units != driver.total_units:
        problems.append(f"epoch ran {units} of {driver.total_units} units")
    if driver.active:
        problems.append("epoch still active after run()")
    if db.cop.rotation_in_progress or db.cop.legacy_master_key is not None:
        problems.append("piggybacked key rotation did not complete")
    if db.content_digest() != digest:
        problems.append("content digest changed across the epoch")
    # Every comparator rewrites 2 frames; every sweep slot rewrites 1.
    frames = 2 * driver.counters.get("comparators") + driver.counters.get(
        "sweeps"
    )
    row = {
        "kind": "phase", "name": "reshuffle.epoch",
        "count": units, "bytes": frames * db.cop.frame_size,
        "virtual_s": virtual, "wall_s": wall,
    }
    return row, problems


def run_serve_interleaved(db: PirDatabase, records: List[bytes],
                          ) -> Tuple[dict, List[str]]:
    """One query between every comparator batch of a second epoch."""
    problems: List[str] = []
    driver = db.begin_reshuffle(batch_size=_RESHUFFLE_BATCH,
                                journal=MemoryJournal())
    virtual_start = db.clock.now
    wall_start = time.perf_counter()
    served = 0
    while driver.active:
        page_id = _query_id(served)
        if db.query(page_id) != records[page_id]:
            problems.append(f"mid-epoch query {page_id} returned wrong bytes")
        driver.step()
        served += 1
    row = {
        "kind": "phase", "name": "serve.interleaved",
        "count": served,
        "bytes": served * (_BLOCK_SIZE + 1) * db.cop.frame_size,
        "virtual_s": db.clock.now - virtual_start,
        "wall_s": time.perf_counter() - wall_start,
    }
    if served * _RESHUFFLE_BATCH < driver.total_units:
        problems.append("interleaved loop served fewer queries than batches")
    return row, problems


def check_hit_rate(metrics: MetricsRegistry) -> Tuple[float, List[str]]:
    hits = metrics.count("tier.hit")
    misses = metrics.count("tier.miss")
    rate = hits / (hits + misses) if hits + misses else 0.0
    if rate < MIN_HIT_RATE:
        return rate, [f"hot-tier hit rate {rate:.2%} < {MIN_HIT_RATE:.0%}"]
    return rate, []


# ---------------------------------------------------------------------------
# Wall-clock loadgen gate (in-script only; never emitted as phase rows)
# ---------------------------------------------------------------------------


def _loadgen_attempt(seed: int) -> Tuple[dict, List[str], List[str]]:
    from repro.service.frontend import QueryFrontend, ServiceClient

    correctness: List[str] = []
    perf: List[str] = []
    records = make_records(_BENCH_RECORDS, _BENCH_PAGE_SIZE)
    db = _make_db(seed, spec=None)  # zero-cost timing: wall time dominates
    frontend = QueryFrontend(db)
    client = ServiceClient(frontend)

    def sample(count: int, phase: str) -> List[float]:
        latencies: List[float] = []
        for i in range(count):
            page_id = _query_id(i)
            t0 = time.perf_counter()
            payload = client.query(page_id)
            latencies.append(time.perf_counter() - t0)
            if payload != records[page_id]:
                correctness.append(f"{phase} query {page_id} diverged")
        return latencies

    try:
        sample(_LOADGEN_WARMUP, "warmup")  # caches, allocator, JIT-ish costs
        before = sample(_LOADGEN_BASELINE, "baseline")
        driver = db.begin_reshuffle(batch_size=1, background=True,
                                    idle_interval=0.001,
                                    rotate_to=b"loadgen-rotated-key",
                                    journal=MemoryJournal())
        during: List[float] = []
        i = 0
        while driver.active and i < _LOADGEN_CAP:
            page_id = _query_id(i)
            t0 = time.perf_counter()
            payload = client.query(page_id)
            during.append(time.perf_counter() - t0)
            if payload != records[page_id]:
                correctness.append(f"mid-epoch query {page_id} diverged")
            i += 1
        if driver.active:
            perf.append(f"background epoch unfinished after {i} queries")
        # Bracket the epoch: ambient machine noise is one-sided, so the
        # better of the two surrounding baselines is the fairer yardstick.
        after = sample(_LOADGEN_BASELINE, "post-baseline")
        db.consistency_check()
        if db.cop.rotation_in_progress:
            correctness.append("loadgen rotation did not complete")

        refused = sum(amount
                      for name, amount in frontend.counters.as_dict().items()
                      if name.startswith("refused."))
        overlap = frontend.counters.get("requests.during_reshuffle")
        if refused:
            perf.append(f"{refused} requests refused during the epoch")
        if overlap < _LOADGEN_MIN_OVERLAP:
            perf.append(f"only {overlap} requests overlapped the epoch "
                        f"(need >= {_LOADGEN_MIN_OVERLAP}: gate is vacuous)")
        p99_base = min(_percentile(before, 0.99), _percentile(after, 0.99))
        p99_during = _percentile(during, 0.99) if during else float("inf")
        ratio = p99_during / p99_base if p99_base else float("inf")
        if ratio > P99_RATIO_MAX:
            perf.append(f"p99 during epoch {p99_during * 1e3:.3f} ms is "
                        f"{ratio:.2f}x baseline {p99_base * 1e3:.3f} ms "
                        f"(max {P99_RATIO_MAX}x)")
        stats = {
            "loadgen_queries": len(before) + len(during) + len(after),
            "loadgen_overlap": overlap,
            "loadgen_refused": refused,
            "p99_baseline_ms": p99_base * 1e3,
            "p99_during_ms": p99_during * 1e3,
            "p99_ratio": ratio,
        }
        return stats, correctness, perf
    finally:
        client.close()
        db.close()


def run_loadgen_gate(seed: int) -> Tuple[dict, List[str], List[str]]:
    """Background epoch under live frontend traffic: zero refusals, p99.

    Correctness problems (diverged bytes, refusals-as-corruption) fail the
    first attempt outright.  The p99 tail gate is retried best-of-N: a
    scheduler hiccup only ever *inflates* a latency sample, so one clean
    attempt is evidence the stall bound holds and the noisy attempts were
    ambient.  Returns (stats, correctness_problems, perf_problems).
    """
    stats: dict = {}
    correctness: List[str] = []
    perf: List[str] = []
    for attempt in range(_LOADGEN_ATTEMPTS):
        stats, correctness, perf = _loadgen_attempt(seed + attempt)
        if correctness or not perf:
            break
        print(f"note: loadgen attempt {attempt + 1}/{_LOADGEN_ATTEMPTS} "
              f"missed a perf gate ({'; '.join(perf)}); retrying",
              file=sys.stderr)
    return stats, correctness, perf


# ---------------------------------------------------------------------------
# Pytest check (collected with the benchmark suite)
# ---------------------------------------------------------------------------


def test_online_reshuffle_serves_through_epoch(report):
    """Full epoch + rotation with zero divergence and a warm hot tier."""
    records = make_records(_BENCH_RECORDS, _BENCH_PAGE_SIZE)
    metrics = MetricsRegistry()
    db = _make_db(DEFAULT_SEED, metrics=metrics)
    try:
        base_row, problems = run_serve_baseline(db, records, QUICK_QUERIES)
        epoch_row, epoch_problems = run_foreground_epoch(db)
        inter_row, inter_problems = run_serve_interleaved(db, records)
        db.consistency_check()
        assert problems + epoch_problems + inter_problems == []
        rate, rate_problems = check_hit_rate(metrics)
        assert rate_problems == [], rate_problems

        n = db.params.num_locations
        report.line(f"online epoch over n={n} locations: "
                    f"{network_size(n)} comparators + {n} sweep reseals, "
                    f"batch={_RESHUFFLE_BATCH}, piggybacked key rotation")
        report.table(
            ["phase", "count", "virtual s", "wall ms"],
            [[row["name"], row["count"], row["virtual_s"],
              row["wall_s"] * 1e3]
             for row in (base_row, epoch_row, inter_row)],
        )
        report.line(f"hot-tier hit rate {rate:.2%} "
                    f"(gate: >= {MIN_HIT_RATE:.0%}); "
                    f"{inter_row['count']} queries interleaved mid-epoch")
    finally:
        db.close()


# ---------------------------------------------------------------------------
# Script mode: structured JSONL for the CI perf gate
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    try:
        from bench_engine import calibration_seconds  # script mode
    except ImportError:
        from benchmarks.bench_engine import calibration_seconds
    from repro.obs import write_jsonl

    parser = argparse.ArgumentParser(
        description="online-reshuffle benchmark (JSONL for the CI perf gate)"
    )
    parser.add_argument("--quick", action="store_true",
                        help=f"serve {QUICK_QUERIES} baseline queries "
                             f"instead of {DEFAULT_QUERIES}")
    parser.add_argument("--queries", type=int, default=0,
                        help="explicit baseline query count "
                             "(overrides --quick)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--skip-loadgen", action="store_true",
                        help="skip the wall-clock zero-refusal/p99 gate "
                             "(deterministic phases only)")
    parser.add_argument("--out", default="",
                        help="JSONL output path (default stdout)")
    args = parser.parse_args(argv)

    queries = args.queries or (QUICK_QUERIES if args.quick
                               else DEFAULT_QUERIES)
    calibration = calibration_seconds()
    records = make_records(_BENCH_RECORDS, _BENCH_PAGE_SIZE)
    metrics = MetricsRegistry()
    db = _make_db(args.seed, metrics=metrics)
    try:
        base_row, problems = run_serve_baseline(db, records, queries)
        epoch_row, epoch_problems = run_foreground_epoch(db)
        inter_row, inter_problems = run_serve_interleaved(db, records)
        db.consistency_check()
        for problem in problems + epoch_problems + inter_problems:
            print(f"error: {problem}", file=sys.stderr)
        if problems + epoch_problems + inter_problems:
            return 2
        hit_rate, rate_problems = check_hit_rate(metrics)
    finally:
        db.close()

    loadgen_stats: dict = {}
    if not args.skip_loadgen:
        loadgen_stats, correctness, perf_problems = run_loadgen_gate(
            args.seed
        )
        for problem in correctness:
            print(f"error: {problem}", file=sys.stderr)
        if correctness:
            return 2
        rate_problems += perf_problems
    if rate_problems:
        for problem in rate_problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1

    rows = [dict({
        "kind": "meta",
        "queries": queries,
        "seed": args.seed,
        "pages": _BENCH_RECORDS,
        "block_size": _BLOCK_SIZE,
        "page_size": _BENCH_PAGE_SIZE,
        "hot_frames": _HOT_FRAMES,
        "reshuffle_batch": _RESHUFFLE_BATCH,
        "calibration_s": calibration,
        # Informational (not gated here): the in-script zero-refusal,
        # p99-ratio and hit-rate checks above are the gates;
        # compare_bench.py gates the virtual_s columns exactly.
        "hit_rate": hit_rate,
    }, **loadgen_stats)]
    rows.append(base_row)
    rows.append(epoch_row)
    rows.append(inter_row)
    if args.out:
        written = write_jsonl(args.out, rows)
        print(f"wrote {written} rows (epoch of {epoch_row['count']} units, "
              f"{inter_row['count']} queries interleaved, hot-tier hit rate "
              f"{hit_rate:.2%}) to {args.out}")
    else:
        import json

        for row in rows:
            print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
