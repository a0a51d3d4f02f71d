"""Pipeline observability: metrics, tracing, and recognition provenance.

Two planes, deliberately separate:

* **Always-on statistics** — every pipeline component registers its
  counters in a :class:`~repro.observability.registry.MetricsRegistry`
  (one per :class:`~repro.federation.system.EnactmentSystem`; standalone
  components use a private registry).  These replace the hand-rolled
  ``Counter`` dicts and bare ints the Figure 5 agents used to carry, and
  ``EnactmentSystem.stats()`` is now a thin view over them.

* **Opt-in instrumentation** — tracing and provenance are *off* by
  default; the hot paths pay one attribute load and a branch.  Enabling
  the process-wide :data:`INSTRUMENTATION` turns on span recording (one
  span per publish/dispatch, operator ``consume``, delivery fan-out, and
  queue append) and provenance chains on every event; enabled with a
  registry, it also records per-stage latency histograms there (the
  traced system's own: there is no process-wide registry).  The QE8
  benchmark bounds the enabled overhead at < 1.3x the disabled
  per-event cost.

Typical usage::

    from repro.observability import instrumented, stage_summary

    with instrumented(system.metrics) as obs:
        ...drive the pipeline...
        print(obs.tracer.recent()[-1].render())
        for record in obs.provenance.recent_deliveries():
            print(record.render())
    print(stage_summary(system.metrics))
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .logging import (
    DEFAULT_MAX_MERGED_RECORDS,
    DEFAULT_MAX_RECORDS,
    STRUCTURED_LOG,
    FederationLogView,
    StructuredLog,
    disable_structured_logging,
    enable_structured_logging,
    logging_enabled,
    structured_log,
)
from .provenance import (
    DEFAULT_MAX_DELIVERIES,
    DeliveryProvenance,
    ProvenanceNode,
    ProvenanceTracker,
)
from .registry import (
    DEFAULT_MAX_SERIES,
    BoundCounter,
    BoundHistogram,
    CallbackGauge,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    MultiCallbackGauge,
)
from .trace import (
    DEFAULT_MAX_TRACES,
    DEFAULT_SAMPLE_EVERY,
    Span,
    TraceAssembler,
    TraceContext,
    Tracer,
    is_recorded,
    stage_p95,
    stage_summary,
)

__all__ = [
    "BoundCounter",
    "BoundHistogram",
    "CallbackGauge",
    "Counter",
    "DEFAULT_MAX_DELIVERIES",
    "DEFAULT_MAX_MERGED_RECORDS",
    "DEFAULT_MAX_RECORDS",
    "DEFAULT_MAX_SERIES",
    "DEFAULT_MAX_TRACES",
    "DEFAULT_SAMPLE_EVERY",
    "DeliveryProvenance",
    "FederationLogView",
    "Gauge",
    "Histogram",
    "INSTRUMENTATION",
    "Instrumentation",
    "MetricsError",
    "MetricsRegistry",
    "MultiCallbackGauge",
    "ProvenanceNode",
    "ProvenanceTracker",
    "STRUCTURED_LOG",
    "Span",
    "StructuredLog",
    "TraceAssembler",
    "TraceContext",
    "Tracer",
    "disable_structured_logging",
    "enable_structured_logging",
    "instrumented",
    "is_recorded",
    "logging_enabled",
    "stage_p95",
    "stage_summary",
    "structured_log",
]


class Instrumentation:
    """The opt-in plane: one enabled flag, one tracer, one provenance log.

    Pipeline hot paths hold a reference to the process-wide
    :data:`INSTRUMENTATION` object and check :attr:`enabled` before doing
    any instrumentation work, so the disabled cost is a single attribute
    load per stage.
    """

    __slots__ = ("enabled", "tracer", "provenance")

    def __init__(
        self,
        max_traces: int = DEFAULT_MAX_TRACES,
        max_deliveries: int = DEFAULT_MAX_DELIVERIES,
    ) -> None:
        self.tracer = Tracer(max_traces=max_traces)
        self.provenance = ProvenanceTracker(max_deliveries=max_deliveries)
        self.enabled = False

    def enable(
        self, registry: Optional[MetricsRegistry] = None
    ) -> "Instrumentation":
        """Turn the plane on, recording stage latency into *registry*
        (the observed system's or facade's; ``None`` records none)."""
        self.tracer.bind_registry(registry)
        self.enabled = True
        return self

    def disable(self) -> "Instrumentation":
        self.enabled = False
        return self

    def reset(self) -> None:
        """Drop recorded traces and delivery provenance (flag unchanged)."""
        self.tracer.clear()
        self.provenance.clear()


#: The process-wide instrumentation plane; disabled until enabled.
INSTRUMENTATION = Instrumentation()

# The structured log joins its records to the instrumentation plane's
# in-flight traces (the `trace`/`span` fields of each record).
STRUCTURED_LOG.bind_tracer(INSTRUMENTATION.tracer)


@contextmanager
def instrumented(
    registry: Optional[MetricsRegistry] = None, reset: bool = True
) -> Iterator[Instrumentation]:
    """Enable instrumentation for a scope, recording stage latency into
    *registry* (see :meth:`Instrumentation.enable`); restores the
    previous flag, registry and tracer sampling period on exit.

    With ``reset`` (the default) previously recorded traces and delivery
    provenance are dropped on entry, so the scope observes only itself.
    """
    tracer = INSTRUMENTATION.tracer
    enabled, bound = INSTRUMENTATION.enabled, tracer.registry
    every = tracer.sample_every
    if reset:
        INSTRUMENTATION.reset()
    INSTRUMENTATION.enable(registry)
    try:
        yield INSTRUMENTATION
    finally:
        INSTRUMENTATION.enabled = enabled
        tracer.bind_registry(bound)
        tracer.sample_every = every
