"""Online controller: re-tune cost knobs from live metrics, never privacy.

A :class:`PlanController` closes the runtime half of the planning loop: it
samples the :class:`~repro.obs.registry.MetricsRegistry` each interval —
the per-request latency histogram (windowed p99 via interpolated
:func:`~repro.obs.registry.quantile_from_counts` over the bucket-count
delta since the previous cycle), the admission shed counters, and the
keystream pipeline's hit/miss counters — and nudges three *cost-side*
tunables toward the latency target:

* the :class:`~repro.net.admission.AdmissionController` token bucket
  (shed-driven rate raises when latency has room, multiplicative backoff
  when p99 breaches the target);
* the :class:`~repro.crypto.pipeline.KeystreamPipeline` byte budget
  (grow while misses dominate, shrink when the cache is comfortably
  over-provisioned);
* the :class:`~repro.shuffle.online.OnlineReshuffler` pacing — the
  ROADMAP item-5 adaptive-pacing follow-on: speed the epoch up while the
  latency budget is idle, back off when p99 nears the target.

Every change is clamped by an explicit :class:`Guardrail`, recorded on
``plan.adjust.<tunable>`` counters and in :attr:`PlanController.adjustments`,
and executed inside a ``plan.controller`` tracer span.

**What the controller may never touch** (DESIGN.md §16): the privacy
parameters k, m, and the cover count.  They shape the *access-pattern
distribution* the privacy guarantee is computed from (Eqs. 1-6); changing
them in response to observed load would correlate the distribution with
the workload — exactly the leak the scheme exists to prevent — and any
c-improving change only holds after a full re-permutation epoch anyway.
The controller has no references to them, by construction: it is handed
only the three cost-side tunables above.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from ..errors import ConfigurationError
from ..obs.registry import HistogramState, MetricsRegistry, quantile_from_counts
from ..obs.tracer import NULL_TRACER
from ..sim.metrics import CounterSet

__all__ = ["Guardrail", "PlanController", "Adjustment"]

_JOIN_TIMEOUT = 5.0


@dataclass(frozen=True)
class Guardrail:
    """Inclusive floor/ceiling bounds for one tunable."""

    floor: float
    ceiling: float

    def __post_init__(self) -> None:
        if not self.floor <= self.ceiling:
            raise ConfigurationError(
                f"guardrail floor {self.floor} exceeds ceiling {self.ceiling}"
            )

    def clamp(self, value: float) -> float:
        return min(max(value, self.floor), self.ceiling)


@dataclass(frozen=True)
class Adjustment:
    """One recorded controller action: which knob moved, from where to where."""

    cycle: int
    tunable: str
    parameter: str
    before: float
    after: float


class PlanController:
    """Guardrailed feedback loop over the cost-side tunables (module doc).

    ``reshuffler`` may be the driver object itself or a zero-argument
    callable returning the *current* driver (epochs create fresh drivers;
    ``lambda: db.reshuffle`` tracks them).  ``step()`` runs one cycle
    synchronously — deterministic tests and benchmarks drive it directly —
    while ``start()``/``close()`` run the same cycle on a background
    daemon thread every ``interval`` seconds.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        target_p99: float,
        histogram: str = "engine.query_seconds",
        admission=None,
        pipeline=None,
        reshuffler: Union[None, object, Callable[[], object]] = None,
        interval: float = 0.25,
        tracer=None,
        low_water: float = 0.5,
        high_water: float = 0.9,
        hit_rate_target: float = 0.5,
        admission_guardrail: Guardrail = Guardrail(1.0, 1e6),
        pipeline_guardrail: Guardrail = Guardrail(64 * 1024, 64 * 1024 * 1024),
        batch_guardrail: Guardrail = Guardrail(1, 1024),
        idle_guardrail: Guardrail = Guardrail(1e-5, 0.5),
    ):
        if target_p99 <= 0:
            raise ConfigurationError("target_p99 must be positive")
        if interval <= 0:
            raise ConfigurationError("controller interval must be positive")
        if not 0 < low_water < high_water <= 1:
            raise ConfigurationError(
                "need 0 < low_water < high_water <= 1"
            )
        self.registry = registry
        self.target_p99 = target_p99
        self.histogram_name = histogram
        self.admission = admission
        self.pipeline = pipeline
        self._reshuffler = reshuffler
        self.interval = interval
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.low_water = low_water
        self.high_water = high_water
        self.hit_rate_target = hit_rate_target
        self.admission_guardrail = admission_guardrail
        self.pipeline_guardrail = pipeline_guardrail
        self.batch_guardrail = batch_guardrail
        self.idle_guardrail = idle_guardrail

        self.counters = CounterSet(registry=registry, prefix="plan.")
        self._p99_gauge = registry.gauge("plan.window_p99")
        self.adjustments: List[Adjustment] = []
        self._cycle = 0
        self._last_hist: Optional[HistogramState] = None
        self._last_counters: Dict[str, int] = {}

        self._wake = threading.Condition()
        self._closed = False
        self._worker: Optional[threading.Thread] = None

    # -- windowed observation --------------------------------------------------

    def _window_p99(self) -> Optional[float]:
        """p99 of the samples observed since the previous cycle.

        Subtracts the previous cycle's bucket counts from the current
        histogram state and interpolates the quantile on the delta; the
        first cycle (no baseline) uses the whole distribution.  Returns
        ``None`` when the window holds no new samples.
        """
        state = self.registry.histogram(self.histogram_name).state()
        last, self._last_hist = self._last_hist, state
        if last is None:
            counts, count = state.counts, state.count
        else:
            counts = [b - a for a, b in zip(last.counts, state.counts)]
            count = state.count - last.count
        if count <= 0:
            return None
        return quantile_from_counts(
            state.buckets, counts, count, 0.99,
            minimum=state.min, maximum=state.max,
        )

    def _counter_delta(self, name: str) -> int:
        """Windowed increase of one registry counter since the last cycle."""
        value = self.registry.count(name)
        before = self._last_counters.get(name, 0)
        self._last_counters[name] = value
        return value - before

    # -- one control cycle -----------------------------------------------------

    def step(self) -> Optional[float]:
        """Run one control cycle; returns the windowed p99 (None if idle)."""
        with self.tracer.span("plan.controller"):
            self._cycle += 1
            self.counters.increment("cycles")
            p99 = self._window_p99()
            if p99 is not None:
                self._p99_gauge.set(p99)
            self._tune_admission(p99)
            self._tune_pipeline()
            self._tune_reshuffle(p99)
            return p99

    def _record(self, tunable: str, parameter: str,
                before: float, after: float) -> None:
        self.adjustments.append(Adjustment(
            self._cycle, tunable, parameter, before, after
        ))

    def _tune_admission(self, p99: Optional[float]) -> None:
        admission = self.admission
        if admission is None or admission.bucket is None:
            return
        bucket = admission.bucket
        sheds = self._counter_delta("net.shed")
        rate = bucket.rate
        if p99 is not None and p99 > self.target_p99:
            # Over the bound: shed harder so queued latency drains.
            new_rate = self.admission_guardrail.clamp(rate * 0.7)
        elif sheds > 0 and (p99 is None or p99 < self.low_water * self.target_p99):
            # Shedding while the latency budget is idle: admit more.
            new_rate = self.admission_guardrail.clamp(rate * 1.25)
        else:
            return
        if new_rate == rate:
            return
        # Keep the burst proportional to the sustained rate.
        new_capacity = max(1.0, bucket.capacity * new_rate / rate)
        admission.retune(rate=new_rate, capacity=new_capacity)
        self.counters.increment("adjust.admission")
        self._record("admission", "rate", rate, new_rate)

    def _tune_pipeline(self) -> None:
        pipeline = self.pipeline
        if pipeline is None:
            return
        hits = self._counter_delta("pipeline.hit")
        misses = self._counter_delta("pipeline.miss")
        window = hits + misses
        budget = pipeline.max_bytes
        if window > 0 and misses / window > 1 - self.hit_rate_target:
            # Miss-dominated: the working set outruns the budget.
            new_budget = int(self.pipeline_guardrail.clamp(budget * 2))
        elif (window > 0 and hits / window > 0.95
              and pipeline.cached_bytes < budget // 4):
            # Near-perfect hit rate with 3/4 of the budget idle: give the
            # host memory back.
            new_budget = int(self.pipeline_guardrail.clamp(budget / 2))
        else:
            return
        if new_budget == budget:
            return
        pipeline.set_max_bytes(new_budget)
        self.counters.increment("adjust.pipeline")
        self._record("pipeline", "max_bytes", budget, new_budget)

    def _tune_reshuffle(self, p99: Optional[float]) -> None:
        source = self._reshuffler
        reshuffler = source() if callable(source) else source
        if reshuffler is None or not getattr(reshuffler, "active", False):
            return
        batch = reshuffler.batch_size
        idle = reshuffler.idle_interval
        if p99 is not None and p99 > self.high_water * self.target_p99:
            # Tail near the bound: smaller batches hold the op lock for
            # less, longer idles yield it more often.
            new_batch = int(self.batch_guardrail.clamp(batch // 2))
            new_idle = self.idle_guardrail.clamp(max(idle, 1e-5) * 2)
        elif p99 is None or p99 < self.low_water * self.target_p99:
            # Latency budget idle: spend it finishing the epoch sooner.
            new_batch = int(self.batch_guardrail.clamp(batch * 2))
            new_idle = self.idle_guardrail.clamp(idle / 2)
        else:
            return
        if new_batch == batch and new_idle == idle:
            return
        reshuffler.set_pacing(batch_size=new_batch, idle_interval=new_idle)
        self.counters.increment("adjust.reshuffle")
        if new_batch != batch:
            self._record("reshuffle", "batch_size", batch, new_batch)
        if new_idle != idle:
            self._record("reshuffle", "idle_interval", idle, new_idle)

    # -- background lifecycle --------------------------------------------------

    def start(self) -> "PlanController":
        """Spawn the daemon sampling loop (idempotent while alive)."""
        with self._wake:
            if self._closed:
                raise ConfigurationError("controller is closed")
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(
                    target=self._worker_loop, name="plan-controller",
                    daemon=True,
                )
                self._worker.start()
        return self

    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                if self._closed:
                    return
                self._wake.wait(timeout=self.interval)
                if self._closed:
                    return
            self.step()

    def close(self) -> None:
        """Stop the background loop (idempotent; step() keeps working)."""
        with self._wake:
            self._closed = True
            self._wake.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=_JOIN_TIMEOUT)
            self._worker = None

    def __enter__(self) -> "PlanController":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
