"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``     resolve (n, m, c) into k/T and the Eq. 7/8 costs
``headline``  print the §5 headline table (paper vs model)
``figure``    print one of the paper's figure series (4, 5, 6 or 7)
``privacy``   run the Monte-Carlo landing experiment on the real engine
``demo``      build a small database and run an end-to-end exercise
``metrics``   run a traced workload; per-phase totals, registry contents
              and the Eq. 8 conformance ratios (``--out`` exports JSONL)
``plan``      capacity planner: invert the cost model from a target
              triple (p99, QPS, privacy c or ϵ) into a full parameter
              assignment (``--verify`` measures prediction error)
``serve``     serve a seeded database over TCP (asyncio stack, admission
              control, graceful drain on SIGINT or ``--duration``)
``loadgen``   drive a running ``serve`` instance with concurrent async
              clients; report sustained qps and shed rate
``cluster``   fault-tolerant tier: ``serve-backend`` runs one cluster
              member (session adoption + persistent reply cache),
              ``serve-router`` fronts N members with health-gated
              routing and failover
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from .analysis.costmodel import (
    AnalyticalCostModel,
    figure4_series,
    figure5_series,
    figure6_series,
    figure7_series,
    headline_numbers,
)
from .analysis.empirical import measure_landing_distribution
from .analysis.sweep import EnginePoint, run_engine_sweep, write_csv
from .baselines import make_records
from .core.database import PirDatabase
from .core.params import SystemParameters
from .crypto.rng import SecureRandom
from .errors import ReproError
from .storage.trace import shapes_identical

__all__ = ["main"]


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    printable = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in printable))
        if printable else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in printable:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Sub-commands
# ---------------------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    params = SystemParameters.solve(
        args.pages, args.cache, args.c, page_capacity=args.page_size
    )
    model = AnalyticalCostModel()
    print(params.describe())
    print(_format_table(
        ["quantity", "value"],
        [
            ["block size k (Eq. 6)", params.block_size],
            ["scan period T = n/k", params.scan_period],
            ["achieved c (Eq. 5)", params.achieved_c],
            ["query time (Eq. 8, Table-2 HW)",
             f"{model.query_time(params.block_size, args.page_size):.4f} s"],
            ["secure storage (Eq. 7)",
             f"{model.secure_storage_bytes(params.num_locations, args.cache, params.block_size, args.page_size) / 1e6:.2f} MB"],
        ],
    ))
    return 0


def _cmd_headline(_args: argparse.Namespace) -> int:
    rows = headline_numbers()
    print(_format_table(
        ["configuration", "paper (s)", "model (s)", "k", "storage (MB)", "units"],
        [
            [r["label"], r["paper_seconds"], r["model_seconds"],
             r["block_size"], r["storage_mb"], r["units"]]
            for r in rows
        ],
    ))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    series_by_number = {
        "4": figure4_series,
        "5": figure5_series,
        "6": figure6_series,
        "7": figure7_series,
    }
    series = series_by_number[args.number]()
    for panel, points in series.items():
        print(f"Figure {args.number} — panel {panel}")
        print(_format_table(
            ["m (pages)", "k", "c", "response (s)", "storage (MB)"],
            [
                [p.cache_pages, p.block_size, p.privacy_c, p.query_time,
                 p.secure_storage_mb]
                for p in points
            ],
        ))
        print()
    return 0


def _cmd_privacy(args: argparse.Namespace) -> int:
    db = PirDatabase.create(
        make_records(args.pages, 16),
        cache_capacity=args.cache,
        target_c=args.c,
        page_capacity=16,
        reserve_fraction=0.2,
        cipher_backend="null",
        trace_enabled=False,
        seed=args.seed,
    )
    print(db.params.describe())
    experiment = measure_landing_distribution(
        db, trials=args.trials, rng=SecureRandom(args.seed + 1)
    )
    theory = experiment.theoretical_offset_probabilities()
    observed = experiment.observed_offset_frequencies()
    print(_format_table(
        ["offset t", "theory", "observed"],
        [[t + 1, theory[t], observed[t]] for t in range(len(theory))],
    ))
    print(f"configured c = {db.params.achieved_c:.4f}; "
          f"measured c = {experiment.empirical_c():.4f}; "
          f"TV error = {experiment.total_variation_error():.4f}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .reporting import build_report

    document = build_report(privacy_trials=args.trials, seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
        print(f"wrote report to {args.out}")
    else:
        print(document)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    records = make_records(args.pages, 16)
    db = PirDatabase.create(
        records, cache_capacity=max(2, args.pages // 8), target_c=2.0,
        page_capacity=16, reserve_fraction=0.1, seed=args.seed,
    )
    print(db.params.describe())
    for step in range(args.pages):
        assert db.query(step) == records[step]
    db.update(0, b"demo update")
    new_id = db.insert(b"demo insert")
    db.delete(1)
    db.consistency_check()
    print(f"ran {db.engine.request_count} requests; "
          f"trace uniform: {shapes_identical(db.trace, 0)}; "
          f"inserted page id {new_id}; consistency check passed")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .core.journal import MemoryJournal
    from .hardware.specs import IBM_4764
    from .obs import (
        DETAIL_FINE,
        DETAIL_PHASE,
        CostModelCheck,
        MetricsRegistry,
        Tracer,
        run_rows,
        write_jsonl,
    )

    tracer = Tracer(detail=DETAIL_FINE if args.fine else DETAIL_PHASE)
    registry = MetricsRegistry()
    records = make_records(args.pages, args.page_size)
    db = PirDatabase.create(
        records,
        cache_capacity=args.cache,
        target_c=args.c,
        page_capacity=args.page_size,
        reserve_fraction=0.1,
        seed=args.seed,
        spec=IBM_4764,
        journal=MemoryJournal(),
        tracer=tracer,
        metrics=registry,
    )
    rng = SecureRandom(args.seed + 1)
    for _ in range(args.queries):
        db.query(rng.randrange(args.pages))

    print(db.params.describe())
    print(f"\nPer-phase totals over {args.queries} queries "
          f"(virtual = Table-2 simulated time):")
    print(_format_table(
        ["phase", "count", "wall (ms)", "virtual (s)", "bytes", "errors"],
        [
            [name, total.count, total.wall_seconds * 1e3,
             total.virtual_seconds, total.nbytes, total.errors]
            for name, total in sorted(tracer.phase_totals().items())
        ],
    ))

    snapshot = registry.snapshot()
    if snapshot["counters"]:
        print("\nCounters:")
        print(_format_table(
            ["name", "value"],
            sorted(snapshot["counters"].items()),
        ))
    if snapshot["gauges"]:
        print("\nGauges:")
        print(_format_table(
            ["name", "value"],
            sorted(snapshot["gauges"].items()),
        ))
    if snapshot["histograms"]:
        print("\nHistograms:")
        print(_format_table(
            ["name", "count", "mean", "p50", "p99", "max"],
            [
                [name, summary["count"], summary["mean"], summary["p50"],
                 summary["p99"], summary["max"]]
                for name, summary in sorted(snapshot["histograms"].items())
            ],
        ))

    check = CostModelCheck.for_database(db)
    conformance = check.evaluate(tracer, args.queries)
    print("\nEq. 8 conformance (measured virtual time vs analytic "
          "prediction, per term):")
    print(_format_table(
        ["term", "measured (s)", "predicted (s)", "ratio"],
        [
            [row.term, row.measured_seconds, row.predicted_seconds, row.ratio]
            for row in conformance
        ],
    ))

    if args.out:
        meta = {
            "queries": args.queries,
            "pages": args.pages,
            "cache": args.cache,
            "page_size": args.page_size,
            "block_size": db.params.block_size,
            "seed": args.seed,
        }
        rows = run_rows(tracer, registry, meta, spans=args.trace)
        rows.extend(row.as_dict() for row in conformance)
        written = write_jsonl(args.out, rows)
        print(f"\nwrote {written} JSONL rows to {args.out}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    import json

    from .hardware.specs import IBM_4764
    from .obs import read_jsonl
    from .plan import CalibratedCostModel, PlanTarget, plan, verify_plan

    spec = IBM_4764.scaled(args.units)
    if args.obs:
        model = CalibratedCostModel.from_obs_rows(
            [read_jsonl(path) for path in args.obs],
            page_size=args.page_size,
        )
    elif args.calibrate == "probe":
        model = CalibratedCostModel.from_probe(
            page_size=args.page_size,
            queries=args.queries,
            seed=args.seed,
        )
    else:
        model = CalibratedCostModel.from_spec(spec, args.page_size)

    target = PlanTarget(
        num_pages=args.pages,
        page_size=args.page_size,
        p99_seconds=args.p99,
        qps=args.qps,
        privacy_c=args.c if args.epsilon is None else None,
        epsilon=args.epsilon,
    )
    result = plan(target, model=model, spec=spec, max_shards=args.max_shards)

    verify_rows = None
    worst_error = 0.0
    if args.verify:
        verify_rows = verify_plan(
            result, model, queries=args.queries, seed=args.seed
        )
        worst_error = max(row["error"] for row in verify_rows)

    if args.json:
        payload = result.as_dict()
        if verify_rows is not None:
            payload["verify"] = verify_rows
            payload["verify_tolerance"] = args.tolerance
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(_format_table(
            ["parameter", "value"],
            [
                ["calibration", result.calibration_source],
                ["privacy target c", f"{target.resolved_c:.4f}"],
                ["achieved c", f"{result.achieved_c:.4f}"],
                ["block size k", result.block_size],
                ["cache pages m", result.cache_pages],
                ["locations n (padded)", result.num_locations],
                ["secure storage (Eq. 7)",
                 f"{result.secure_storage_bytes / 1e6:.2f} MB"],
                ["predicted query time",
                 f"{result.predicted_query_seconds:.4f} s"],
                ["shards", result.shard_count],
                ["batch window", result.batch_window],
                ["pipeline budget", f"{result.pipeline_max_bytes} B"],
                ["hot-tier frames", result.hot_tier_frames],
                ["admission rate", f"{result.admission_rate:.2f} qps"],
                ["admission burst", f"{result.admission_burst:.2f}"],
            ],
        ))
        print("\nPredicted per-phase seconds/query:")
        print(_format_table(
            ["phase", "seconds"],
            sorted(result.predicted_phase_seconds.items()),
        ))
        if verify_rows is not None:
            print("\nVerification (predicted vs measured, "
                  f"tolerance {args.tolerance:.0%}):")
            print(_format_table(
                ["phase", "predicted (s)", "measured (s)", "error"],
                [
                    [row["phase"], row["predicted_s"], row["measured_s"],
                     f"{row['error']:.2%}"]
                    for row in verify_rows
                ],
            ))
    if verify_rows is not None and worst_error > args.tolerance:
        print(f"verification FAILED: worst per-phase error "
              f"{worst_error:.2%} exceeds {args.tolerance:.0%}",
              file=sys.stderr)
        return 1
    return 0


def _serving_database(args: argparse.Namespace, registry) -> PirDatabase:
    """The database behind ``serve`` and ``cluster serve-backend``.

    Long-running servers never read the adversary-view access trace, so it
    is off: left on, it would retain every request's accesses for the life
    of the process.
    """
    return PirDatabase.create(
        make_records(args.pages, args.page_size),
        cache_capacity=args.cache,
        target_c=args.c,
        page_capacity=args.page_size,
        reserve_fraction=0.1,
        seed=args.seed,
        metrics=registry,
        trace_enabled=False,
    )


def _serve_until_drained(args: argparse.Namespace, handle, db: PirDatabase,
                         registry) -> int:
    """Serve for ``--duration`` seconds (or until Ctrl-C), then drain and
    print the ``net.*``/``frontend.*`` counter table."""
    import time as _time

    try:
        if args.duration > 0:
            _time.sleep(args.duration)
        else:
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        print("\ndraining...", flush=True)
    finally:
        handle.drain()
        db.close()
    rows = sorted(
        (name, value) for name, value in registry.snapshot()["counters"].items()
        if name.startswith(("net.", "frontend."))
    )
    if rows:
        print(_format_table(["counter", "value"], rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time as _time

    from .net import AdmissionController, PirServer, ServerThread, TokenBucket
    from .obs import MetricsRegistry
    from .service.frontend import SESSION_RANDOM, QueryFrontend

    registry = MetricsRegistry()
    db = _serving_database(args, registry)
    frontend = QueryFrontend(
        db,
        metrics=registry,
        session_id_mode=SESSION_RANDOM,
        session_ttl=args.session_ttl,
        time_source=_time.monotonic,
    )
    bucket = (
        TokenBucket(args.rate, args.burst if args.burst > 0 else args.rate)
        if args.rate > 0 else None
    )
    admission = AdmissionController(
        max_sessions=args.max_sessions,
        max_queue_depth=args.queue_depth,
        bucket=bucket,
        metrics=registry,
    )
    server = PirServer(
        frontend,
        host=args.host,
        port=args.port,
        admission=admission,
        workers=args.workers,
        queue_depth=args.queue_depth,
        reap_interval=args.session_ttl,
        metrics=registry,
    )
    handle = ServerThread(server).start()
    print(f"serving {args.pages} pages on {handle.host}:{handle.port} "
          f"(c={args.c}, workers={args.workers})", flush=True)
    return _serve_until_drained(args, handle, db, registry)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import time as _time

    from .errors import DegradedServiceError
    from .net.client import AsyncNetworkClient

    async def run_client(index: int, stats: dict) -> None:
        client = await AsyncNetworkClient.connect(
            args.host, args.port, rng_seed=args.seed + index
        )
        rng = SecureRandom(args.seed + 1000 + index)
        try:
            for _ in range(args.requests):
                try:
                    await client.query(rng.randrange(args.pages))
                    stats["ok"] += 1
                except DegradedServiceError:
                    stats["shed"] += 1
        finally:
            await client.close()

    async def run() -> dict:
        stats = {"ok": 0, "shed": 0}
        started = _time.monotonic()
        await asyncio.gather(
            *(run_client(index, stats) for index in range(args.clients))
        )
        stats["wall_s"] = _time.monotonic() - started
        return stats

    stats = asyncio.run(run())
    total = stats["ok"] + stats["shed"]
    qps = stats["ok"] / stats["wall_s"] if stats["wall_s"] > 0 else 0.0
    shed_rate = stats["shed"] / total if total else 0.0
    print(f"{args.clients} clients x {args.requests} requests: "
          f"{stats['ok']} served, {stats['shed']} shed "
          f"({shed_rate:.1%}) in {stats['wall_s']:.2f}s — "
          f"{qps:.1f} qps sustained")
    return 0


def _cmd_cluster_serve_backend(args: argparse.Namespace) -> int:
    import time as _time

    from .net import AdmissionController, PirServer, ServerThread
    from .obs import MetricsRegistry
    from .service.frontend import SESSION_RANDOM, QueryFrontend

    registry = MetricsRegistry()
    db = _serving_database(args, registry)
    # Members share --seed so their data is identical, which would make
    # their session-id streams identical too — fatal behind the router
    # (ids must be unique cluster-wide).  Salt each process uniquely
    # unless the operator pinned a salt explicitly.
    session_salt = args.session_salt or os.urandom(8).hex()
    frontend = QueryFrontend(
        db,
        metrics=registry,
        session_id_mode=SESSION_RANDOM,
        session_ttl=args.session_ttl,
        time_source=_time.monotonic,
        reply_cache_path=args.reply_cache or None,
        session_salt=session_salt,
    )
    admission = AdmissionController(
        max_sessions=args.max_sessions,
        max_queue_depth=args.queue_depth,
        metrics=registry,
    )
    server = PirServer(
        frontend,
        host=args.host,
        port=args.port,
        admission=admission,
        queue_depth=args.queue_depth,
        reap_interval=args.session_ttl,
        adopt_sessions=True,
        metrics=registry,
    )
    handle = ServerThread(server).start()
    print(f"cluster backend: {args.pages} pages on "
          f"{handle.host}:{handle.port} (seed={args.seed}, "
          f"session adoption on)", flush=True)
    return _serve_until_drained(args, handle, db, registry)


def _cmd_cluster_serve_router(args: argparse.Namespace) -> int:
    import time as _time

    from .cluster import BackendSpec, ClusterRouter, RouterThread
    from .obs import MetricsRegistry

    registry = MetricsRegistry()
    specs = [BackendSpec.parse(text) for text in args.backend]
    router = ClusterRouter(
        specs,
        host=args.host,
        port=args.port,
        probe_interval=args.probe_interval,
        probe_timeout=args.probe_timeout,
        eject_after=args.eject_after,
        readmit_after=args.readmit_after,
        metrics=registry,
    )
    handle = RouterThread(router).start()
    print(f"cluster router on {handle.host}:{handle.port} fronting "
          f"{len(specs)} backend(s): "
          + ", ".join(spec.address for spec in specs), flush=True)
    try:
        if args.duration > 0:
            _time.sleep(args.duration)
        else:
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        print("\nstopping...", flush=True)
    finally:
        handle.stop()
    snapshot = registry.snapshot()
    rows = sorted(
        (name, value) for name, value in snapshot["counters"].items()
        if name.startswith("cluster.")
    )
    rows.extend(sorted(
        (name, value) for name, value in snapshot["gauges"].items()
        if name.startswith("cluster.")
    ))
    if rows:
        print(_format_table(["metric", "value"], rows))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _cmd_sweep(args: argparse.Namespace) -> int:
    caches = [int(value) for value in args.caches.split(",") if value]
    points = run_engine_sweep(
        num_records=args.pages,
        cache_capacities=caches,
        target_c=args.c,
        trials=args.trials,
        workload_length=args.workload,
        seed=args.seed,
    )
    print(_format_table(
        ["m", "k", "c achieved", "c measured", "mean latency (s)"],
        [
            [p.cache_capacity, p.block_size, p.achieved_c, p.measured_c,
             p.mean_latency]
            for p in points
        ],
    ))
    if args.out:
        written = write_csv(args.out, EnginePoint.csv_header(),
                            [p.csv_row() for p in points])
        print(f"wrote {written} rows to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="c-approximate secure-hardware PIR (Bakiras & "
                    "Nikolopoulos, SDM@VLDB 2011)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="resolve (n, m, c) into k and costs")
    solve.add_argument("--pages", type=int, required=True, help="database pages n")
    solve.add_argument("--cache", type=int, required=True, help="cache pages m")
    solve.add_argument("--c", type=float, default=2.0, help="privacy target c")
    solve.add_argument("--page-size", type=int, default=1000, help="page bytes B")
    solve.set_defaults(handler=_cmd_solve)

    headline = sub.add_parser("headline", help="§5 headline numbers table")
    headline.set_defaults(handler=_cmd_headline)

    figure = sub.add_parser("figure", help="print a paper figure's series")
    figure.add_argument("number", choices=["4", "5", "6", "7"])
    figure.set_defaults(handler=_cmd_figure)

    privacy = sub.add_parser("privacy", help="Monte-Carlo landing experiment")
    privacy.add_argument("--pages", type=int, default=40)
    privacy.add_argument("--cache", type=int, default=8)
    privacy.add_argument("--c", type=float, default=2.0)
    privacy.add_argument("--trials", type=int, default=500)
    privacy.add_argument("--seed", type=int, default=1)
    privacy.set_defaults(handler=_cmd_privacy)

    sweep = sub.add_parser("sweep", help="executed cache-size sweep (+CSV)")
    sweep.add_argument("--pages", type=int, default=60)
    sweep.add_argument("--caches", default="4,8,16",
                       help="comma-separated cache sizes")
    sweep.add_argument("--c", type=float, default=2.0)
    sweep.add_argument("--trials", type=int, default=200)
    sweep.add_argument("--workload", type=int, default=100)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--out", default="", help="optional CSV output path")
    sweep.set_defaults(handler=_cmd_sweep)

    demo = sub.add_parser("demo", help="end-to-end exercise of the system")
    demo.add_argument("--pages", type=int, default=48)
    demo.add_argument("--seed", type=int, default=1)
    demo.set_defaults(handler=_cmd_demo)

    metrics = sub.add_parser(
        "metrics",
        help="traced workload: per-phase totals, registry, Eq. 8 ratios",
    )
    metrics.add_argument("--queries", type=int, default=100)
    metrics.add_argument("--pages", type=int, default=64)
    metrics.add_argument("--cache", type=int, default=8)
    metrics.add_argument("--c", type=float, default=2.0)
    metrics.add_argument("--page-size", type=int, default=64, dest="page_size")
    metrics.add_argument("--seed", type=int, default=1)
    metrics.add_argument("--fine", action="store_true",
                         help="also emit per-frame crypto spans")
    metrics.add_argument("--trace", action="store_true",
                         help="include individual span rows in --out JSONL")
    metrics.add_argument("--out", default="", help="JSONL output path")
    metrics.set_defaults(handler=_cmd_metrics)

    planp = sub.add_parser(
        "plan",
        help="invert the cost model: target (p99, QPS, c) -> parameters",
    )
    planp.add_argument("--pages", type=int, default=10**6,
                       help="database size n in pages")
    planp.add_argument("--page-size", type=int, default=1000,
                       dest="page_size")
    planp.add_argument("--p99", type=float, default=0.05,
                       help="p99 latency bound in seconds")
    planp.add_argument("--qps", type=float, default=10.0,
                       help="sustained query rate to provision for")
    privacy = planp.add_mutually_exclusive_group()
    privacy.add_argument("--c", type=float, default=2.0,
                         help="privacy bound c (Eq. 6)")
    privacy.add_argument("--epsilon", type=float, default=None,
                         help="Toledo-style relaxed bound; c = e^epsilon")
    planp.add_argument("--calibrate", choices=("spec", "probe"),
                       default="spec",
                       help="unit costs from Eq. 8 spec constants or a "
                            "short self-measured probe run")
    planp.add_argument("--obs", action="append", default=[],
                       metavar="JSONL",
                       help="calibrate from obs JSONL export(s); "
                            "repeatable, overrides --calibrate")
    planp.add_argument("--units", type=int, default=1,
                       help="pooled coprocessor units (scales the spec)")
    planp.add_argument("--max-shards", type=int, default=64,
                       dest="max_shards")
    planp.add_argument("--queries", type=int, default=32,
                       help="probe/verify query count")
    planp.add_argument("--seed", type=int, default=1234)
    planp.add_argument("--verify", action="store_true",
                       help="measure the plan and report per-term "
                            "prediction error")
    planp.add_argument("--tolerance", type=float, default=0.15,
                       help="max per-phase verification error")
    planp.add_argument("--json", action="store_true")
    planp.set_defaults(handler=_cmd_plan)

    serve = sub.add_parser(
        "serve",
        help="serve a seeded database over TCP with admission control",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--pages", type=int, default=64)
    serve.add_argument("--cache", type=int, default=8)
    serve.add_argument("--c", type=float, default=2.0)
    serve.add_argument("--page-size", type=int, default=64, dest="page_size")
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--workers", type=int, default=1,
                       help="engine worker threads (>1 needs sharding)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       dest="queue_depth",
                       help="bounded request queue; beyond it requests "
                            "are shed with a retryable refusal")
    serve.add_argument("--max-sessions", type=int, default=256,
                       dest="max_sessions")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="token-bucket requests/second (0 = unlimited)")
    serve.add_argument("--burst", type=float, default=0.0,
                       help="token-bucket burst capacity (default: --rate)")
    serve.add_argument("--session-ttl", type=float, default=300.0,
                       dest="session_ttl",
                       help="idle seconds before a session is reaped")
    serve.add_argument("--duration", type=float, default=0.0,
                       help="serve for this many seconds then drain "
                            "(0 = until Ctrl-C)")
    serve.set_defaults(handler=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a running serve instance with concurrent clients",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--clients", type=int, default=8)
    loadgen.add_argument("--requests", type=int, default=50,
                         help="queries per client")
    loadgen.add_argument("--pages", type=int, default=64,
                         help="page-id range to query (match the server)")
    loadgen.add_argument("--seed", type=int, default=1)
    loadgen.set_defaults(handler=_cmd_loadgen)

    cluster = sub.add_parser(
        "cluster", help="fault-tolerant tier: routed backends with failover"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    backend = cluster_sub.add_parser(
        "serve-backend",
        help="one cluster member: serve with session adoption enabled",
    )
    backend.add_argument("--host", default="127.0.0.1")
    backend.add_argument("--port", type=int, default=0,
                         help="TCP port (0 picks a free one)")
    backend.add_argument("--pages", type=int, default=64)
    backend.add_argument("--cache", type=int, default=8)
    backend.add_argument("--c", type=float, default=2.0)
    backend.add_argument("--page-size", type=int, default=64,
                         dest="page_size")
    backend.add_argument("--seed", type=int, default=1,
                         help="same seed on every member = identical data")
    backend.add_argument("--session-salt", default="", dest="session_salt",
                         help="diversifies session ids across same-seed "
                              "members (default: fresh random salt per "
                              "process — ids must be unique cluster-wide)")
    backend.add_argument("--queue-depth", type=int, default=64,
                         dest="queue_depth")
    backend.add_argument("--max-sessions", type=int, default=256,
                         dest="max_sessions")
    backend.add_argument("--session-ttl", type=float, default=300.0,
                         dest="session_ttl")
    backend.add_argument("--reply-cache", default="", dest="reply_cache",
                         help="persistent reply-cache path (survives "
                              "crash-restart; keeps retransmissions "
                              "exactly-once)")
    backend.add_argument("--duration", type=float, default=0.0,
                         help="serve this many seconds then drain "
                              "(0 = until Ctrl-C)")
    backend.set_defaults(handler=_cmd_cluster_serve_backend)

    router = cluster_sub.add_parser(
        "serve-router",
        help="front N backends with health-gated routing and failover",
    )
    router.add_argument("--host", default="127.0.0.1")
    router.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks a free one)")
    router.add_argument("--backend", action="append", required=True,
                        help="host:port of a member (repeatable)")
    router.add_argument("--probe-interval", type=float, default=0.2,
                        dest="probe_interval")
    router.add_argument("--probe-timeout", type=float, default=2.0,
                        dest="probe_timeout")
    router.add_argument("--eject-after", type=int, default=3,
                        dest="eject_after",
                        help="consecutive probe failures before ejection")
    router.add_argument("--readmit-after", type=int, default=2,
                        dest="readmit_after",
                        help="consecutive probe successes before readmission")
    router.add_argument("--duration", type=float, default=0.0,
                        help="route this many seconds then stop "
                             "(0 = until Ctrl-C)")
    router.set_defaults(handler=_cmd_cluster_serve_router)

    report = sub.add_parser(
        "report", help="write a full markdown reproduction report"
    )
    report.add_argument("--out", default="", help="output path (default stdout)")
    report.add_argument("--trials", type=int, default=400)
    report.add_argument("--seed", type=int, default=1)
    report.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
