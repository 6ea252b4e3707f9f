"""Latency and counter metrics for experiments.

Small, dependency-light accumulators used by the benchmark harness and the
baseline comparisons.  The paper's central empirical claim is about latency
*distribution shape* (constant for this scheme, heavy-tailed for amortized
schemes), so :class:`LatencySeries` keeps the full sample and exposes exact
order statistics rather than streaming approximations.

A :class:`CounterSet` is where a component's counts live.  Built with
``registry=``, it is published once to the unified
:class:`~repro.obs.registry.MetricsRegistry` (see DESIGN.md §9), which
sums the published sets by name whenever it is read; an increment touches
only the set.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List

from ..errors import ConfigurationError

__all__ = ["LatencySeries", "CounterSet"]


class LatencySeries:
    """Collects per-operation latencies (seconds) and summarises them."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ConfigurationError(f"negative latency {latency}")
        self._samples.append(latency)

    def extend(self, latencies: Iterable[float]) -> None:
        """Record a batch of samples, atomically.

        The whole iterable is validated before any sample is committed, so
        a negative latency in the middle of the batch leaves the series
        exactly as it was — previously the leading valid samples were
        appended and then the error raised, leaving the series partially
        mutated.
        """
        values = [float(value) for value in latencies]
        for value in values:
            if value < 0:
                raise ConfigurationError(f"negative latency {value}")
        self._samples.extend(values)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        """A copy of the raw sample list, in arrival order."""
        return list(self._samples)

    def mean(self) -> float:
        self._require_data()
        return sum(self._samples) / len(self._samples)

    def minimum(self) -> float:
        self._require_data()
        return min(self._samples)

    def maximum(self) -> float:
        self._require_data()
        return max(self._samples)

    def stddev(self) -> float:
        self._require_data()
        if len(self._samples) == 1:
            return 0.0
        mu = self.mean()
        variance = sum((x - mu) ** 2 for x in self._samples) / (len(self._samples) - 1)
        return math.sqrt(variance)

    def percentile(self, q: float) -> float:
        """Exact q-th percentile (nearest-rank), q in [0, 100]."""
        self._require_data()
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile {q} out of [0, 100]")
        ordered = sorted(self._samples)
        if q == 0:
            return ordered[0]
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def coefficient_of_variation(self) -> float:
        """stddev / mean — near zero for a constant-time scheme."""
        mu = self.mean()
        if mu == 0:
            return 0.0
        return self.stddev() / mu

    def summary(self) -> Dict[str, float]:
        """All headline statistics in one dict (for table printing)."""
        return {
            "count": float(len(self._samples)),
            "mean": self.mean(),
            "min": self.minimum(),
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self.maximum(),
            "stddev": self.stddev(),
            "cv": self.coefficient_of_variation(),
        }

    def _require_data(self) -> None:
        if not self._samples:
            raise ConfigurationError("no latency samples recorded")


class CounterSet:
    """Named monotonically increasing counters, safe to bump from any thread.

    The set is the only store of its counts.  With ``registry=`` (a
    :class:`~repro.obs.registry.MetricsRegistry`) it is published to that
    registry once, under ``prefix``; the registry reads it when asked for a
    snapshot and never holds a copy.  Sets sharing a registry and prefix
    stay separate here (``get`` is per instance) and are summed there.
    """

    def __init__(self, registry=None, prefix: str = "") -> None:
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._registry = registry
        self._prefix = prefix
        if registry is not None:
            registry.publish(self, prefix)

    def increment(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counter increments must be non-negative")
        if self._registry is not None and name not in self._counts:
            # First use of a name: let the registry refuse a collision
            # with one of its gauges or histograms.
            self._registry.claim_counter(self._prefix + name)
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)
