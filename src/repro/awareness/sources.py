"""Event source agents (Section 6.3).

"The implementation of AM provides event source agents for gathering
primitive events and delivering them to interested software components.
Conceptually, the event source agents in CMI are part of the Awareness
Engine, though they are tightly bound to the actual event sources."

Two agents mirror the paper's two primitive event kinds:

* :class:`ActivitySourceAgent` instruments the Coordination/CORE engine
  side: it hooks the CORE engine's activity state change callback and
  converts each change into a ``T_activity`` event through the single
  ``E_activity`` producer;
* :class:`ContextSourceAgent` instruments the CORE engine's context store
  the same way for ``E_context``.

Each agent registers its producer's ``produce`` on the CORE engine
directly, so a change record costs no call of the agent's own; what an
agent gathered is what its producer emitted (``gathered`` reads the
producer's ``producer_emitted_total{producer=...}`` child), which is how
the architecture benchmark (FIG5) verifies event flow between components.

A third agent closes the self-awareness loop:
:class:`SystemTelemetrySource` samples the *system's own*
:class:`~repro.observability.MetricsRegistry` on logical-clock advance and
publishes each sample as a ``T_system`` event, so health rules are
authored, deployed, and delivered exactly like any other awareness
(Section 5.1.1's "an event source agent must be implemented for each
source of primitive events" — here the source is CMI itself).
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..clock import LogicalClock
from ..core.context import ContextChange
from ..core.engine import CoreEngine
from ..events.bus import EventBus
from ..events.producers import (
    ActivityEventProducer,
    ContextEventProducer,
    SystemEventProducer,
)
from ..observability import MetricsRegistry, stage_p95

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events.event import Event


class ActivitySourceAgent:
    """Gathers activity state change events at the coordination side."""

    def __init__(
        self,
        core: CoreEngine,
        producer: Optional[ActivityEventProducer] = None,
        bus: Optional[EventBus] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.producer = producer or ActivityEventProducer(metrics=metrics)
        if bus is not None:
            self.producer.attach(bus)
        core.on_activity_change(self.producer.produce)

    @property
    def gathered(self) -> int:
        """Change records gathered: the events the producer emitted."""
        return self.producer.emitted


class ContextSourceAgent:
    """Gathers context resource field change events at the CORE side."""

    def __init__(
        self,
        core: CoreEngine,
        producer: Optional[ContextEventProducer] = None,
        bus: Optional[EventBus] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.producer = producer or ContextEventProducer(metrics=metrics)
        if bus is not None:
            self.producer.attach(bus)
        core.on_context_change(self.producer.produce)

    @property
    def gathered(self) -> int:
        """Change records gathered: the events the producer emitted."""
        return self.producer.emitted

    def gather_batch(self, changes: Iterable[ContextChange]) -> List["Event"]:
        """Forward a burst of field changes as one producer batch.

        Bulk context updates (e.g. :meth:`ContextReference.update`) hand
        their change records here so the bus sees a single
        ``publish_batch`` instead of one drain per field.
        """
        return self.producer.produce_batch(changes)


#: One telemetry reading: ``(metric, series label or None, value)``.
Sample = Tuple[str, Optional[str], int]

#: Default sampling period in logical-clock ticks.
DEFAULT_SAMPLING_INTERVAL = 5

#: Registry instruments sampled by default — the self-awareness surface:
#: per-participant queue depths, delivery lag, bus failures, the timer
#: backlog, open work items, and journal divergence (each registered by
#: :class:`~repro.federation.system.EnactmentSystem`; absent names are
#: skipped, so the source also works over a partial registry).
DEFAULT_SYSTEM_METRICS: Tuple[str, ...] = (
    "queue_depth",
    "delivery_lag",
    "bus_failed_total",
    "timer_backlog",
    "work_items_open",
    "journal_divergence",
)

#: Name of the derived per-stage p95 latency metric (microseconds):
#: :func:`~repro.observability.trace.stage_p95` of the registry.
STAGE_P95_METRIC = "stage_p95_us"


class SystemTelemetrySource:
    """Gathers ``T_system`` telemetry events from the metrics registry.

    Hooks the logical clock: every :attr:`interval` ticks (and on demand
    via :meth:`sample_now`) it reads the configured registry instruments
    and publishes one ``produce_batch`` of samples.  Beyond the raw
    instrument values it derives:

    * **rates** — :meth:`watch_rate` emits ``rate[metric/window]``, the
      increase of *metric* over the last *window* sampling passes (how
      SLO "failure rate over window" rules see a monotone counter);
    * **staleness** — :meth:`watch_staleness` emits ``stale[metric]``,
      the count of consecutive passes in which *metric* did not increase
      (the absence/watchdog primitive: a counter that should keep moving
      but does not drives this up).

    Observers registered with :meth:`on_sample` see every pass
    synchronously — the health evaluator uses this to refresh its rule
    states in lock-step with the events it publishes.

    **Delta suppression.**  Only readings that *changed* since the last
    pass are published as ``T_system`` events; observers always receive
    the full sample set.  Steady-state telemetry therefore costs near
    zero bus traffic, and a persistent SLO breach produces one alert at
    the transition instead of one per sampling pass.  Detection latency
    is unaffected: a breach changes the reading, so the first pass after
    it publishes.
    """

    def __init__(
        self,
        clock: LogicalClock,
        metrics: MetricsRegistry,
        producer: Optional[SystemEventProducer] = None,
        bus: Optional[EventBus] = None,
        system_id: str = "cmi",
        interval: int = DEFAULT_SAMPLING_INTERVAL,
        sampled_metrics: Sequence[str] = DEFAULT_SYSTEM_METRICS,
    ) -> None:
        if interval < 1:
            raise ValueError(f"sampling interval must be >= 1, got {interval}")
        self.metrics = metrics
        self.clock = clock
        self.interval = interval
        self.sampled_metrics: Tuple[str, ...] = tuple(sampled_metrics)
        self.producer = producer or SystemEventProducer(
            system_id=system_id, metrics=metrics
        )
        if bus is not None:
            self.producer.attach(bus)
        self._rates: Dict[Tuple[str, int], Deque[int]] = {}
        self._stale: Dict[str, Tuple[int, int]] = {}
        self._published: Dict[Tuple[str, Optional[str]], int] = {}
        self._observers: List[Callable[[List[Sample], int], None]] = []
        self._last_sample = clock.now()
        clock.on_advance(self._on_advance)

    # -- derived series ----------------------------------------------------

    def watch_rate(self, metric: str, window: int) -> str:
        """Derive ``rate[metric/window]``; returns the derived name."""
        if window < 1:
            raise ValueError(f"rate window must be >= 1, got {window}")
        key = (metric, window)
        if key not in self._rates:
            self._rates[key] = deque(maxlen=window + 1)
        return f"rate[{metric}/{window}]"

    def watch_staleness(self, metric: str) -> str:
        """Derive ``stale[metric]``; returns the derived name."""
        if metric not in self._stale:
            self._stale[metric] = (0, 0)
        return f"stale[{metric}]"

    def on_sample(
        self, observer: Callable[[List[Sample], int], None]
    ) -> None:
        """Call ``observer(samples, now)`` after every sampling pass."""
        self._observers.append(observer)

    # -- sampling ----------------------------------------------------------

    def _on_advance(self, now: int) -> None:
        if now - self._last_sample >= self.interval:
            self.sample_now(now)

    def sample_now(self, now: Optional[int] = None) -> List[Sample]:
        """Run one sampling pass immediately; returns the samples."""
        if now is None:
            now = self.clock.now()
        self._last_sample = now
        samples = self._collect()
        self._derive(samples)
        published = self._published
        changed = [
            sample for sample in samples
            if published.get((sample[0], sample[1])) != sample[2]
        ]
        for metric, label, value in changed:
            published[(metric, label)] = value
        if changed:
            self.producer.produce_batch(now, changed)
        for observer in list(self._observers):
            observer(samples, now)
        return samples

    def _collect(self) -> List[Sample]:
        registry = self.metrics
        samples: List[Sample] = [
            (name, label, int(value))
            for name in self.sampled_metrics
            for label, value in registry.readings(name)
        ]
        for labels, p95 in stage_p95(registry).items():
            samples.append((STAGE_P95_METRIC, ",".join(labels), int(p95)))
        return samples

    def _derive(self, samples: List[Sample]) -> None:
        # Derivations read the pass's *unlabelled* series (the totals).
        totals = {
            metric: value
            for metric, label, value in samples
            if label is None
        }
        for (metric, window), history in self._rates.items():
            value = totals.get(metric)
            if value is None:
                continue
            history.append(value)
            samples.append(
                (f"rate[{metric}/{window}]", None, value - history[0])
            )
        for metric, (last, misses) in self._stale.items():
            value = totals.get(metric)
            if value is None:
                continue
            misses = 0 if value > last else misses + 1
            self._stale[metric] = (max(last, value), misses)
            samples.append((f"stale[{metric}]", None, misses))

