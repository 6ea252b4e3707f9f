"""Process-wide metrics registry: counter totals, gauges, histograms.

The registry is the single read point for a process's metrics.  Counts
are not stored here: each component owns a
:class:`~repro.sim.metrics.CounterSet` (engine, frontend, injector,
server, replication, ...) and publishes it once, under a name prefix,
when it is built.  :meth:`MetricsRegistry.snapshot`, :meth:`rows` and
:meth:`count` sum every published set by full name whenever they are
asked, so components that share a prefix (the frontends or sharded
engines of one cluster) read per instance from their own set and in
aggregate from the registry.  Gauges and fixed-bucket histograms are
held by the registry itself.

Naming scheme (DESIGN.md §9): dot-separated ``component.event`` names —
``engine.recovery.replayed``, ``frontend.requests``, ``faults.fault.crash``,
``health.state``.  A name belongs to one kind: using it as a counter and as
a gauge or histogram raises :class:`~repro.errors.ConfigurationError`.

Gauges and histograms are created on first use and are safe to update
from multiple threads; a re-entrant lock guards them and the list of
published counter sets, so a callback updating the registry from inside
``snapshot`` post-processing cannot deadlock.
"""

from __future__ import annotations

import bisect
import threading
from typing import (
    TYPE_CHECKING, Collection, Dict, Iterable, List, Optional, Sequence, Set,
    Tuple,
)

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from ..sim.metrics import CounterSet

__all__ = [
    "Gauge",
    "Histogram",
    "HistogramState",
    "quantile_from_counts",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Log-spaced seconds buckets from 1 µs to 100 s — wide enough for both
#: wall-clock micro-benchmarks and Table-2 virtual latencies.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    for base in (1.0, 2.5, 5.0)
) + (100.0,)


class Gauge:
    """A value that can move both ways (health state, queue depth, ...)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value


class HistogramState:
    """An immutable point-in-time copy of one histogram's raw contents.

    Cheap to take (one list copy under the lock) and safe to post-process
    on any thread afterwards — the shape :meth:`MetricsRegistry.snapshot`
    and the :mod:`repro.plan` controller's sampling loop rely on, so
    neither holds the histogram lock while computing quantiles or
    serializing.  Windowed statistics come from subtracting two states'
    bucket ``counts``.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Tuple[float, ...], counts: List[int],
                 count: int, total: float, minimum: float, maximum: float):
        self.buckets = buckets
        self.counts = counts
        self.count = count
        self.sum = total
        self.min = minimum
        self.max = maximum

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """See :meth:`Histogram.quantile`; operates on the frozen copy."""
        return quantile_from_counts(
            self.buckets, self.counts, self.count, q,
            minimum=self.min, maximum=self.max,
        )

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean(),
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }

    def nonzero_buckets(self) -> List[Tuple[str, int]]:
        """(upper-bound label, count) pairs for buckets that saw samples."""
        out: List[Tuple[str, int]] = []
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            label = (f"{self.buckets[index]:g}"
                     if index < len(self.buckets) else "+Inf")
            out.append((label, count))
        return out


def quantile_from_counts(
    buckets: Sequence[float],
    counts: Sequence[int],
    count: int,
    q: float,
    minimum: float = float("inf"),
    maximum: float = float("-inf"),
) -> float:
    """The q-quantile of a fixed-bucket distribution.

    Interpolates linearly within the bucket containing the q-th
    observation (rank position between the bucket's bounds) and clamps to
    the observed ``[min, max]``, so a feedback controller steering on p99
    reacts to the measured tail, not to the bucket grid (a bucket's upper
    bound can overstate it 2.5x on the log-spaced default buckets).
    Observations in the +Inf overflow bucket return ``maximum``: there is
    no upper bound to interpolate toward.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile {q} out of [0, 1]")
    if count == 0:
        return 0.0
    rank = max(1, int(q * count + 0.5))
    running = 0
    for index, bucket_count in enumerate(counts):
        running += bucket_count
        if running < rank:
            continue
        if index >= len(buckets):
            return maximum
        upper = buckets[index]
        lower = buckets[index - 1] if index > 0 else 0.0
        fraction = (rank - (running - bucket_count)) / bucket_count
        value = lower + fraction * (upper - lower)
        # The true samples never leave [min, max]; the lerp grid can.
        return min(max(value, minimum), maximum)
    return maximum


class Histogram:
    """Fixed-bucket histogram (cumulative-style buckets, like Prometheus).

    ``buckets`` are inclusive upper bounds in ascending order; observations
    above the last bound land in the implicit +Inf bucket.  Keeps count and
    sum exactly; quantiles are estimated from the buckets, linearly
    interpolated within the containing bucket.
    """

    __slots__ = ("name", "buckets", "counts", "_count", "_sum", "_min",
                 "_max", "_lock")

    def __init__(self, name: str, buckets: Sequence[float],
                 lock: threading.RLock):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                "histogram buckets must be non-empty and strictly increasing"
            )
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def state(self) -> HistogramState:
        """A consistent point-in-time copy of the raw bucket contents.

        The only histogram read that takes the lock; every derived
        statistic (quantiles, summary, export rows) is computed from the
        returned copy so writers are never blocked behind serialization.
        """
        with self._lock:
            return HistogramState(
                self.buckets, list(self.counts), self._count, self._sum,
                self._min, self._max,
            )

    def quantile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]); see :func:`quantile_from_counts`."""
        return self.state().quantile(q)

    def summary(self) -> Dict[str, float]:
        return self.state().summary()

    def nonzero_buckets(self) -> List[Tuple[str, int]]:
        """(upper-bound label, count) pairs for buckets that saw samples."""
        return self.state().nonzero_buckets()


class MetricsRegistry:
    """Gauges, histograms and published counter sets (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counter_sets: List[Tuple[str, "CounterSet"]] = []
        self._counter_names: Set[str] = set()
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors -------------------------------------------------

    def _check_free(self, name: str, own: Collection[str]) -> None:
        for kind, table in (("counter", self._counter_names),
                            ("gauge", self._gauges),
                            ("histogram", self._histograms)):
            if table is not own and name in table:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {kind}"
                )

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_free(name, self._gauges)
                instrument = self._gauges[name] = Gauge(name, self._lock)
            return instrument

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_free(name, self._histograms)
                instrument = self._histograms[name] = Histogram(
                    name, buckets or DEFAULT_LATENCY_BUCKETS, self._lock
                )
            return instrument

    # -- counters: published sets, summed on read -----------------------------

    def publish(self, counters: "CounterSet", prefix: str) -> None:
        """Add ``counters`` to the totals, its names under ``prefix``.

        Called once by each set built with ``registry=``; a published set
        is kept for the registry's life, so totals only ever grow.
        """
        with self._lock:
            self._counter_sets.append((prefix, counters))

    def claim_counter(self, name: str) -> None:
        """Reserve ``name`` as a counter (a set's first use of the name)."""
        with self._lock:
            if name not in self._counter_names:
                self._check_free(name, self._counter_names)
                self._counter_names.add(name)

    def count(self, name: str) -> int:
        """The total of counter ``name`` across every published set."""
        with self._lock:
            sets = list(self._counter_sets)
        return sum(counters.get(name[len(prefix):])
                   for prefix, counters in sets if name.startswith(prefix))

    # -- introspection / export ----------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A point-in-time copy of every instrument.

        Holds the registry lock only to copy primitive state (gauge
        values, raw histogram buckets, the list of published counter
        sets); the counter totals, histogram summaries and result dict
        are computed *outside* it, so a sampling loop calling this every
        interval never stalls the hot observation path.  Each set is read
        under its own lock, so totals are exact and never go backwards
        between snapshots.
        """
        with self._lock:
            sets = list(self._counter_sets)
            gauges = {n: g.value for n, g in sorted(self._gauges.items())}
            states = {n: h.state() for n, h in sorted(self._histograms.items())}
        counters: Dict[str, int] = {}
        for prefix, published in sets:
            for name, value in published.as_dict().items():
                counters[prefix + name] = counters.get(prefix + name, 0) + value
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": gauges,
            "histograms": {
                n: dict(s.summary(), buckets=s.nonzero_buckets())
                for n, s in states.items()
            },
        }

    def rows(self) -> Iterable[Dict[str, object]]:
        """One flat dict per instrument — the JSONL export shape."""
        snap = self.snapshot()
        for name, value in snap["counters"].items():
            yield {"kind": "counter", "name": name, "value": value}
        for name, value in snap["gauges"].items():
            yield {"kind": "gauge", "name": name, "value": value}
        for name, summary in snap["histograms"].items():
            yield dict({"kind": "histogram", "name": name}, **summary)
