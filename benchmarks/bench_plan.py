"""Planner + autotuner benchmark — predictions that survive measurement.

``repro.plan`` makes two falsifiable claims, and this bench gates both on
one pinned workload:

* **Prediction accuracy** — the offline planner's per-phase cost
  predictions (spec-calibrated *and* probe-calibrated) must each land
  within ``MAX_VERIFY_ERROR`` of a traced measurement of the planned
  configuration on the virtual clock (exit 1).  A planner that can't
  predict what its own plan costs is a random-number generator with a
  dataclass.
* **Controller discipline** — with a live database serving queries while
  a background re-permutation epoch runs, the online controller must
  (a) record at least one adjustment of *each* cost-side tunable
  (admission rate, pipeline byte budget, reshuffle pacing), (b) hold the
  virtual-clock query p99 at or under its latency target, and (c) leave
  every privacy parameter (k, m, n — hence the achieved c) untouched
  (privacy drift is exit 2: correctness, not performance).

Besides the pytest check, this file is a script::

    PYTHONPATH=src python benchmarks/bench_plan.py --quick --out run.jsonl

emitting the perf-gate JSONL layout (meta line + phase rows) that
``benchmarks/compare_bench.py`` diffs against
``benchmarks/results/perf_baseline_plan.jsonl``.  The verify phases run
on the virtual clock under a pinned seed, so their count/bytes/virtual
columns are exact; the controller gate re-runs best-of-N because the
admission token bucket and the background epoch's interleaving are
wall-clock-driven even though the gated p99 itself is virtual.
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
from repro.net.admission import AdmissionController, TokenBucket
from repro.obs.registry import MetricsRegistry
from repro.plan import CalibratedCostModel, PlanController, PlanTarget
from repro.plan import plan as solve_plan
from repro.plan import verify_plan
from repro.plan.model import frame_size_for

#: Pinned workload shape — change it and the committed baseline together.
DEFAULT_SEED = 4471
DEFAULT_VERIFY_QUERIES = 64
QUICK_VERIFY_QUERIES = 32

_BENCH_RECORDS = 96
_BENCH_PAGE_SIZE = 32
_VERIFY_TARGET = dict(num_pages=_BENCH_RECORDS, page_size=_BENCH_PAGE_SIZE,
                      p99_seconds=0.05, qps=5.0, privacy_c=3.0)
_PROBE_BLOCK_SIZES = (4, 12)

#: Controller-run shape: a real database under queries while a background
#: epoch runs, the controller stepping once per batch of requests.
_CTRL_BLOCK_SIZE = 8
_CTRL_CACHE = 8
_CTRL_TARGET_P99 = 0.5          # virtual seconds; Eq. 8 floor is ~0.02
_CTRL_CYCLES = 8
_CTRL_QUERIES_PER_CYCLE = 16
_CTRL_BUCKET_RATE = 50.0        # undersized on purpose: must shed
_CTRL_BUCKET_BURST = 2.0
_CTRL_EPOCH_DEADLINE = 30.0     # wall seconds to drain the epoch after

MAX_VERIFY_ERROR = 0.15
_TUNABLES = ("admission", "pipeline", "reshuffle")
_CTRL_ATTEMPTS = 3              # best-of-N: wall-driven interleaving


def _percentile_gate_target() -> float:
    return _CTRL_TARGET_P99


# ---------------------------------------------------------------------------
# Deterministic phases (virtual clock): prediction-accuracy gates
# ---------------------------------------------------------------------------


def _verify_rows_to_phase(name: str, built, rows: List[dict],
                          queries: int, wall: float) -> dict:
    total = next(row for row in rows if row["phase"] == "total")
    frame = frame_size_for(built.target.page_size)
    return {
        "kind": "phase", "name": name,
        "count": queries,
        "bytes": queries * (built.block_size + 1) * frame,
        "virtual_s": total["measured_s"] * queries,
        "wall_s": wall,
    }


def run_verify_gate(calibrate: str, queries: int,
                    seed: int) -> Tuple[dict, dict, List[str]]:
    """Plan the pinned target, measure it, gate every phase's error.

    Returns (phase_row, worst, problems): ``worst`` holds the phase with
    the largest prediction error for reporting.
    """
    problems: List[str] = []
    if calibrate == "probe":
        model = CalibratedCostModel.from_probe(
            page_size=_BENCH_PAGE_SIZE, num_records=_BENCH_RECORDS,
            queries=queries, seed=seed, block_sizes=_PROBE_BLOCK_SIZES,
        )
    else:
        model = CalibratedCostModel.from_spec(
            IBM_4764, page_size=_BENCH_PAGE_SIZE
        )
    built = solve_plan(PlanTarget(**_VERIFY_TARGET), model=model)
    wall_start = time.perf_counter()
    rows = verify_plan(built, model, queries=queries, seed=seed)
    wall = time.perf_counter() - wall_start
    if built.achieved_c > _VERIFY_TARGET["privacy_c"] * (1 + 1e-9):
        problems.append(
            f"{calibrate}: planned c={built.achieved_c:.4f} misses the "
            f"c={_VERIFY_TARGET['privacy_c']} bound"
        )
    worst = max(rows, key=lambda row: row["error"])
    for row in rows:
        if row["error"] > MAX_VERIFY_ERROR:
            problems.append(
                f"{calibrate}: phase {row['phase']} prediction "
                f"{row['predicted_s']:.3e}s vs measured "
                f"{row['measured_s']:.3e}s — error {row['error']:.1%} > "
                f"{MAX_VERIFY_ERROR:.0%}"
            )
    phase_row = _verify_rows_to_phase(
        f"plan.verify.{calibrate}", built, rows, queries, wall
    )
    return phase_row, worst, problems


# ---------------------------------------------------------------------------
# Controller gate: live traffic, background epoch, three tunables
# ---------------------------------------------------------------------------


def _controller_attempt(seed: int) -> Tuple[dict, List[str], List[str]]:
    """One controller-on run. Returns (stats, correctness, perf problems)."""
    correctness: List[str] = []
    perf: List[str] = []
    records = make_records(_BENCH_RECORDS, _BENCH_PAGE_SIZE)
    registry = MetricsRegistry()
    db = PirDatabase.create(
        records,
        cache_capacity=_CTRL_CACHE,
        block_size=_CTRL_BLOCK_SIZE,
        page_capacity=_BENCH_PAGE_SIZE,
        cipher_backend="blake2",
        trace_enabled=False,
        seed=seed,
        spec=IBM_4764,
        metrics=registry,
        keystream_pipeline="sync",
    )
    admission = AdmissionController(
        bucket=TokenBucket(rate=_CTRL_BUCKET_RATE,
                           capacity=_CTRL_BUCKET_BURST),
        metrics=registry,
    )
    privacy_before = (db.params.block_size, db.params.cache_capacity,
                      db.params.num_locations, db.params.achieved_c)
    driver = db.begin_reshuffle(batch_size=2, background=True,
                                idle_interval=0.02,
                                journal=MemoryJournal())
    controller = PlanController(
        registry,
        target_p99=_CTRL_TARGET_P99,
        admission=admission,
        pipeline=db.cop.pipeline,
        reshuffler=lambda: db.reshuffle,
        # Any window with a miss grows the budget; any near-perfect window
        # with idle budget shrinks it — either way the pipeline knob moves
        # on real traffic.
        hit_rate_target=0.999,
    )
    try:
        sheds = 0
        for cycle in range(_CTRL_CYCLES):
            for i in range(_CTRL_QUERIES_PER_CYCLE):
                page_id = (cycle * _CTRL_QUERIES_PER_CYCLE + i * 13) \
                    % _BENCH_RECORDS
                if admission.admit_request(0) is not None:
                    sheds += 1  # shed requests still count as offered load
                if db.query(page_id) != records[page_id]:
                    correctness.append(
                        f"cycle {cycle} query {page_id} returned wrong bytes"
                    )
            controller.step()

        # Drain the epoch (the controller has been speeding its pacing up)
        # so the closing consistency check runs on a settled database.
        driver.set_pacing(batch_size=512, idle_interval=1e-5)
        deadline = time.time() + _CTRL_EPOCH_DEADLINE
        while driver.active and time.time() < deadline:
            time.sleep(0.01)
        if driver.active:
            perf.append("background epoch did not finish within the "
                        f"{_CTRL_EPOCH_DEADLINE:.0f}s drain deadline")
        db.consistency_check()

        privacy_after = (db.params.block_size, db.params.cache_capacity,
                         db.params.num_locations, db.params.achieved_c)
        if privacy_after != privacy_before:
            correctness.append(
                f"privacy parameters drifted: {privacy_before} -> "
                f"{privacy_after}"
            )
        touched = {a.tunable for a in controller.adjustments}
        if not touched <= set(_TUNABLES):
            correctness.append(
                f"controller touched non-cost tunables: "
                f"{sorted(touched - set(_TUNABLES))}"
            )
        for tunable in _TUNABLES:
            if tunable not in touched:
                perf.append(f"controller never adjusted the {tunable} "
                            "tunable under forced pressure")
        p99 = registry.histogram("engine.query_seconds").quantile(0.99)
        if p99 > _percentile_gate_target():
            perf.append(
                f"virtual query p99 {p99:.4f}s breached the controller "
                f"target {_CTRL_TARGET_P99:.2f}s"
            )
        if sheds == 0:
            perf.append("undersized admission bucket never shed — the "
                        "admission gate is vacuous")
        stats = {
            "ctrl_p99_virtual_s": p99,
            "ctrl_adjustments": len(controller.adjustments),
            "ctrl_tunables": sorted(touched),
            "ctrl_sheds": sheds,
            "ctrl_cycles": registry.count("plan.cycles"),
        }
        return stats, correctness, perf
    finally:
        controller.close()
        if db.reshuffle is not None:
            db.reshuffle.close()
        db.close()


def run_controller_gate(seed: int) -> Tuple[dict, List[str], List[str]]:
    """Best-of-N controller gate (see module doc for why it may retry)."""
    stats: dict = {}
    correctness: List[str] = []
    perf: List[str] = []
    for attempt in range(_CTRL_ATTEMPTS):
        stats, correctness, perf = _controller_attempt(seed + attempt)
        if correctness or not perf:
            break
        print(f"note: controller attempt {attempt + 1}/{_CTRL_ATTEMPTS} "
              f"missed a gate ({'; '.join(perf)}); retrying",
              file=sys.stderr)
    return stats, correctness, perf


# ---------------------------------------------------------------------------
# Pytest check (collected with the benchmark suite)
# ---------------------------------------------------------------------------


def test_plan_verify_and_autotune(report):
    """Per-phase prediction error <= 15% both calibrations; controller
    moves every cost tunable while privacy stays frozen."""
    spec_row, spec_worst, spec_problems = run_verify_gate(
        "spec", QUICK_VERIFY_QUERIES, DEFAULT_SEED
    )
    probe_row, probe_worst, probe_problems = run_verify_gate(
        "probe", QUICK_VERIFY_QUERIES, DEFAULT_SEED
    )
    assert spec_problems + probe_problems == []

    stats, correctness, perf = run_controller_gate(DEFAULT_SEED)
    assert correctness == []
    assert perf == []

    report.table(
        ["calibration", "worst phase", "predicted s", "measured s", "error"],
        [["spec", spec_worst["phase"], spec_worst["predicted_s"],
          spec_worst["measured_s"], f"{spec_worst['error']:.2%}"],
         ["probe", probe_worst["phase"], probe_worst["predicted_s"],
          probe_worst["measured_s"], f"{probe_worst['error']:.2%}"]],
    )
    report.line(
        f"controller: {stats['ctrl_adjustments']} adjustments across "
        f"{stats['ctrl_tunables']} over {stats['ctrl_cycles']} cycles, "
        f"virtual p99 {stats['ctrl_p99_virtual_s']:.4f}s <= "
        f"{_CTRL_TARGET_P99}s target, {stats['ctrl_sheds']} sheds absorbed, "
        f"privacy parameters byte-identical"
    )
    _ = spec_row, probe_row  # phase rows are exercised by script mode


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
        description="planner/autotuner benchmark (JSONL for the CI perf "
                    "gate)"
    )
    parser.add_argument("--quick", action="store_true",
                        help=f"verify with {QUICK_VERIFY_QUERIES} queries "
                             f"instead of {DEFAULT_VERIFY_QUERIES}")
    parser.add_argument("--queries", type=int, default=0,
                        help="explicit verify query count (overrides "
                             "--quick)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--skip-controller", action="store_true",
                        help="skip the live controller gate (deterministic "
                             "verify phases only)")
    parser.add_argument("--out", default="",
                        help="JSONL output path (default stdout)")
    args = parser.parse_args(argv)

    queries = args.queries or (QUICK_VERIFY_QUERIES if args.quick
                               else DEFAULT_VERIFY_QUERIES)
    calibration = calibration_seconds()

    spec_row, spec_worst, problems = run_verify_gate(
        "spec", queries, args.seed
    )
    probe_row, probe_worst, probe_problems = run_verify_gate(
        "probe", queries, args.seed
    )
    problems += probe_problems
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1

    stats: dict = {}
    if not args.skip_controller:
        stats, correctness, perf = run_controller_gate(args.seed)
        for problem in correctness:
            print(f"error: {problem}", file=sys.stderr)
        if correctness:
            return 2
        if perf:
            for problem in perf:
                print(f"error: {problem}", file=sys.stderr)
            return 1

    rows = [dict({
        "kind": "meta",
        "queries": queries,
        "seed": args.seed,
        "pages": _BENCH_RECORDS,
        "page_size": _BENCH_PAGE_SIZE,
        "block_size": _CTRL_BLOCK_SIZE,
        "calibration_s": calibration,
        # Informational (not gated here): the in-script error and
        # controller gates above are the gates; compare_bench.py gates the
        # virtual_s columns exactly.
        "verify_worst_error_spec": spec_worst["error"],
        "verify_worst_error_probe": probe_worst["error"],
    }, **stats)]
    rows.append(spec_row)
    rows.append(probe_row)
    if args.out:
        written = write_jsonl(args.out, rows)
        print(f"wrote {written} rows (worst spec error "
              f"{spec_worst['error']:.2%}, worst probe error "
              f"{probe_worst['error']:.2%}"
              + (f", {stats['ctrl_adjustments']} controller adjustments"
                 if stats else "")
              + f") to {args.out}")
    else:
        import json

        for row in rows:
            print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
