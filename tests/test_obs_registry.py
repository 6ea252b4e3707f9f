"""MetricsRegistry instruments, published CounterSets, export."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    Tracer,
    read_jsonl,
    rows_by_kind,
    run_rows,
    write_jsonl,
)
from repro.sim.metrics import CounterSet, LatencySeries


class TestInstruments:
    def test_counter_get_or_create_and_inc(self):
        registry = MetricsRegistry()
        assert registry.count("engine.requests") == 0
        counters = CounterSet(registry=registry, prefix="engine.")
        counters.increment("requests")
        counters.increment("requests", 4)
        assert counters.get("requests") == 5
        assert registry.count("engine.requests") == 5
        assert registry.snapshot()["counters"] == {"engine.requests": 5}

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        counters = CounterSet(registry=registry)
        with pytest.raises(ConfigurationError):
            counters.increment("x", -1)
        assert registry.snapshot()["counters"] == {}

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("health.state")
        gauge.set(2)
        gauge.add(-1.5)
        assert gauge.value == pytest.approx(0.5)

    def test_histogram_summary_and_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency", buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(6.05)
        assert summary["mean"] == pytest.approx(6.05 / 4)
        assert summary["min"] == pytest.approx(0.05)
        assert summary["max"] == pytest.approx(5.0)
        assert summary["p50"] == pytest.approx(0.55)  # interpolated in (0.1, 1]
        assert hist.nonzero_buckets() == [("0.1", 1), ("1", 2), ("10", 1)]

    def test_quantile_interpolation_vs_legacy_upper_bound(self):
        # Regression pin for the interpolated estimator.  Values 0.05,
        # 0.5, 0.5, 5.0 on buckets [0.1, 1, 10]: the median rank (2) lands
        # in (0.1, 1] as rank 1 of 2 -> lerp 0.1 + 0.5 * (1 - 0.1) = 0.55,
        # not the bucket's upper bound, 1.0.
        registry = MetricsRegistry()
        hist = registry.histogram("latency", buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        assert hist.quantile(0.5) == pytest.approx(0.55)
        # Interpolation clamps to the observed extremes: the last bucket
        # lerps toward 10.0 but no sample exceeds 5.0.
        assert hist.quantile(1.0) == pytest.approx(5.0)
        # And a single-sample bucket clamps up to the observed minimum.
        low = registry.histogram("low", buckets=[10.0])
        low.observe(9.0)
        low.observe(9.5)
        assert low.quantile(0.25) == pytest.approx(9.0)

    def test_histogram_state_is_frozen_copy(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t", buckets=[1.0, 2.0])
        hist.observe(0.5)
        state = hist.state()
        hist.observe(1.5)
        assert state.count == 1
        assert state.counts == [1, 0, 0]
        assert hist.state().count == 2
        # Windowed statistics: subtracting two states' counts isolates
        # the samples observed between them.
        delta = [b - a for a, b in zip(state.counts, hist.state().counts)]
        assert delta == [0, 1, 0]

    def test_histogram_overflow_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t", buckets=[1.0])
        hist.observe(50.0)
        assert hist.nonzero_buckets() == [("+Inf", 1)]
        # Overflow has no upper bound to interpolate toward: the observed
        # maximum is the answer.
        assert hist.quantile(1.0) == pytest.approx(50.0)

    def test_histogram_invalid_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", buckets=[2.0, 1.0])
        # An empty sequence means "use the defaults", not an error.
        hist = registry.histogram("empty", buckets=[])
        assert hist.buckets == DEFAULT_LATENCY_BUCKETS

    def test_default_buckets_strictly_increasing(self):
        assert all(
            b2 > b1 for b1, b2 in
            zip(DEFAULT_LATENCY_BUCKETS, DEFAULT_LATENCY_BUCKETS[1:])
        )

    def test_type_collision_raises(self):
        registry = MetricsRegistry()
        counters = CounterSet(registry=registry, prefix="a.")
        counters.increment("name")
        with pytest.raises(ConfigurationError):
            registry.gauge("a.name")
        with pytest.raises(ConfigurationError):
            registry.histogram("a.name")
        # The other way round: a set's first use of a gauge's or a
        # histogram's name is refused and counts nothing.
        registry.gauge("a.g")
        registry.histogram("a.h")
        for taken in ("g", "h"):
            with pytest.raises(ConfigurationError):
                counters.increment(taken)
            assert counters.get(taken) == 0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        CounterSet(registry=registry).increment("c", 3)
        registry.gauge("g").set(7.0)
        registry.histogram("h").observe(0.01)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_thread_safety_exact_totals(self):
        # 8 threads x 10k increments: two published sets under one prefix
        # (threads 0-3 share one, 4-7 the other), each exact per instance,
        # and the registry total exact across both.
        registry = MetricsRegistry()
        sets = [CounterSet(registry=registry, prefix="w.") for _ in range(2)]
        hist = registry.histogram("hot.h", buckets=[0.5])

        def hammer(counters):
            for _ in range(10_000):
                counters.increment("hot")
                hist.observe(0.1)

        threads = [threading.Thread(target=hammer, args=(sets[i // 4],))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often: expose lost updates
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [counters.get("hot") for counters in sets] == [40_000, 40_000]
        assert registry.count("w.hot") == 80_000
        assert registry.snapshot()["counters"] == {"w.hot": 80_000}
        assert hist.count == 80_000
        assert hist.sum == pytest.approx(8_000.0)

    def test_snapshot_consistent_under_concurrent_writers(self):
        # snapshot() copies primitive state under the lock and serializes
        # outside it; hammer it from a reader thread while writers mutate
        # every instrument kind and check each snapshot is internally
        # consistent (histogram count == sum of its bucket counts) and
        # that histogram and counter totals are monotone across reads.
        registry = MetricsRegistry()
        sets = [CounterSet(registry=registry, prefix="w.") for _ in range(4)]
        gauge = registry.gauge("w.g")
        hist = registry.histogram("w.h", buckets=[0.5, 1.0])
        stop = threading.Event()

        def write(counters):
            while not stop.is_set():
                counters.increment("c")
                gauge.add(1.0)
                hist.observe(0.25)
                hist.observe(0.75)

        writers = [threading.Thread(target=write, args=(counters,))
                   for counters in sets]
        for thread in writers:
            thread.start()
        try:
            last_count = last_total = 0
            for _ in range(200):
                snap = registry.snapshot()
                summary = snap["histograms"]["w.h"]
                bucketed = sum(n for _, n in summary["buckets"])
                assert summary["count"] == bucketed
                assert summary["count"] >= last_count
                last_count = summary["count"]
                total = snap["counters"].get("w.c", 0)
                assert total >= last_total
                last_total = total
        finally:
            stop.set()
            for thread in writers:
                thread.join()
        assert registry.snapshot()["counters"]["w.c"] == sum(
            counters.get("c") for counters in sets)

    def test_reentrant_update_from_snapshot_postprocessing(self):
        # The registry lock is re-entrant: updating an instrument while
        # holding it (as snapshot post-processing callbacks may) is fine.
        registry = MetricsRegistry()
        with registry._lock:
            CounterSet(registry=registry).increment("nested")
            registry.gauge("nested.g").set(1.0)
            assert registry.snapshot()["counters"]["nested"] == 1


class TestAbsorption:
    """Component counter sets and latency series next to the registry."""

    def test_shared_prefix_sets_are_summed(self):
        # Two components sharing a registry and prefix (the frontends or
        # sharded engines of one cluster): each reads its own count, the
        # registry reads the sum.
        registry = MetricsRegistry()
        first = CounterSet(registry=registry, prefix="net.")
        second = CounterSet(registry=registry, prefix="net.")
        first.increment("shed", 2)
        second.increment("shed", 5)
        second.increment("replies")
        assert (first.get("shed"), second.get("shed")) == (2, 5)
        assert first.get("replies") == 0
        assert registry.count("net.shed") == 7
        assert registry.snapshot()["counters"] == {
            "net.replies": 1, "net.shed": 7,
        }
        # A set built without a registry is invisible to it.
        CounterSet(prefix="net.").increment("shed", 100)
        assert registry.count("net.shed") == 7

    def test_latency_extend_is_atomic(self):
        # Regression: a mid-batch negative latency used to leave the
        # leading valid samples appended before raising.
        series = LatencySeries()
        series.record(0.1)
        with pytest.raises(ConfigurationError):
            series.extend([0.2, -0.5, 0.3])
        assert series.samples == [0.1]


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("request", nbytes=64):
            with tracer.span("decrypt", nbytes=32):
                pass
        registry = MetricsRegistry()
        CounterSet(registry=registry, prefix="engine.").increment("requests")
        rows = run_rows(tracer, registry, meta={"queries": 1}, spans=True)
        out = tmp_path / "run.jsonl"
        written = write_jsonl(str(out), rows)
        back = read_jsonl(str(out))
        assert written == len(back) == len(rows)

        metas = rows_by_kind(back, "meta")
        assert metas[0]["queries"] == 1
        phases = {row["name"] for row in rows_by_kind(back, "phase")}
        assert phases == {"request", "decrypt"}
        spans = rows_by_kind(back, "span")
        assert len(spans) == 2
        counters = rows_by_kind(back, "counter")
        assert {"name": "engine.requests", "kind": "counter", "value": 1} in \
            [dict(c) for c in counters]

    def test_read_jsonl_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "meta"}\nnot json at all\n')
        with pytest.raises(ConfigurationError):
            read_jsonl(str(bad))
