"""repro.obs — dependency-light observability for the query path.

Three pieces (DESIGN.md §9):

* :class:`~repro.obs.tracer.Tracer` — nested, low-overhead spans for the
  canonical query phases, with a no-op fast path when disabled and dual
  wall/virtual timing;
* :class:`~repro.obs.registry.MetricsRegistry` — the thread-safe read
  point for a process's metrics: it holds gauges and fixed-bucket
  histograms, and sums the :class:`~repro.sim.metrics.CounterSet`
  instances components publish to it (the sets keep the counts);
* :class:`~repro.obs.costcheck.CostModelCheck` — measured per-phase cost
  against the analytic Eq. 7/8 predictions, as a per-term ratio.

Plus JSONL export (:mod:`repro.obs.export`) shared by ``python -m repro
metrics``, the micro-benchmarks and the CI perf-regression gate.
"""

from .costcheck import CostModelCheck, TermConformance
from .export import (
    phase_rows,
    read_jsonl,
    rows_by_kind,
    run_rows,
    span_rows,
    write_jsonl,
)
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracer import (
    DETAIL_FINE,
    DETAIL_PHASE,
    NULL_TRACER,
    PhaseTotal,
    Span,
    Tracer,
)

__all__ = [
    "Tracer",
    "Span",
    "PhaseTotal",
    "NULL_TRACER",
    "DETAIL_PHASE",
    "DETAIL_FINE",
    "MetricsRegistry",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "CostModelCheck",
    "TermConformance",
    "phase_rows",
    "span_rows",
    "run_rows",
    "write_jsonl",
    "read_jsonl",
    "rows_by_kind",
]
