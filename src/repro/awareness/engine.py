"""The Awareness Engine (Figure 5, Section 6).

The Awareness Engine is the CMI Enactment System component "primarily
responsible for implementation of the CMM Awareness Model".  It owns:

* the primitive event producers ``E_activity`` and ``E_context`` and their
  event source agents, hooked into the CORE engine (Section 6.3);
* the detector agents compiled from deployed specification windows
  (Section 6.4);
* the awareness delivery agent with the persistent participant queues
  (Section 6.5).

Its public surface is small: :meth:`AwarenessEngine.create_window` starts a
designer authoring session against this engine's event sources (pure
structure — the window sees no event);
:meth:`AwarenessEngine.deploy` turns a finished window into a live detector
agent; :meth:`AwarenessEngine.viewer_for` gives a participant their
awareness information viewer.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.engine import CoreEngine
from ..core.roles import Participant
from ..errors import SpecificationError
from ..events.bus import EventBus
from ..events.producers import EventProducer
from ..events.queues import DeliveryQueue, MemoryDeliveryQueue
from ..observability import MetricsRegistry
from ..observability import STRUCTURED_LOG as _SLOG
from .assignment import AssignmentRegistry
from .delivery import DeliveryAgent
from .detector import DetectorAgent
from .operators.registry import OperatorRegistry, default_registry
from .planner import PlanCache
from .sources import ActivitySourceAgent, ContextSourceAgent
from .specification import SpecificationWindow
from .viewer import AwarenessViewer

#: The diamond names every specification window starts with (Figure 6 shows
#: the "Activity Event" and "Context Event" diamonds).
ACTIVITY_SOURCE = "ActivityEvent"
CONTEXT_SOURCE = "ContextEvent"

#: Conventional diamond name of the ``T_system`` telemetry source.  Not
#: reserved: self-awareness attaches it through
#: :meth:`AwarenessEngine.register_external_source` like any Section
#: 5.1.1 application-specific source.
SYSTEM_SOURCE = "SystemEvent"


class AwarenessEngine:
    """Wires sources, detectors, and delivery over a CORE engine."""

    def __init__(
        self,
        core: CoreEngine,
        bus: Optional[EventBus] = None,
        queue: Optional[DeliveryQueue] = None,
        registry: Optional[OperatorRegistry] = None,
        assignments: Optional[AssignmentRegistry] = None,
        delivery_agent: Optional[DeliveryAgent] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.core = core
        #: All Figure 5 agents owned by this engine register their counters
        #: here; :meth:`stats` is a view over these instruments.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.bus = bus or EventBus(metrics=self.metrics)
        self.registry = registry or default_registry()
        self.activity_source = ActivitySourceAgent(
            core, bus=self.bus, metrics=self.metrics
        )
        self.context_source = ContextSourceAgent(
            core, bus=self.bus, metrics=self.metrics
        )
        self.delivery = delivery_agent or DeliveryAgent(
            core,
            queue=queue if queue is not None else MemoryDeliveryQueue(),
            assignments=assignments,
            metrics=self.metrics,
        )
        #: Live detector per deployed window (keyed by window identity,
        #: in deploy order), making :meth:`deploy` idempotent.
        self._detectors: Dict[int, DetectorAgent] = {}
        #: Recognitions carried by detectors that have since been retired;
        #: keeps the ``composites_recognized`` gauge monotonic across
        #: undeploys.
        self._recognized_retired = 0
        #: The multi-query optimizer: every window deploys through the
        #: cache, so equal operator sub-DAGs are shared.
        self.planner = PlanCache()
        self._external_sources: Dict[str, EventProducer] = {}
        self.metrics.callback_gauge(
            "composites_recognized",
            lambda: self._recognized_retired
            + sum(d.recognized for d in self._detectors.values()),
            "Composite events recognized across detector agents, including "
            "detectors since retired",
        )
        self.metrics.callback_gauge(
            "plan_nodes_live",
            lambda: self.planner.live_node_count(),
            "Interned operator nodes live in the shared plan cache",
        )
        self.metrics.callback_gauge(
            "plan_operators_deduped",
            lambda: self.planner.operators_deduped,
            "Deployed operators resolved to an already-interned node",
        )
        self.metrics.callback_gauge(
            "undeliverable_events",
            lambda: len(self.delivery.undeliverable),
            "Delivery events whose awareness role could not be resolved",
        )

    # -- external sources --------------------------------------------------------

    def register_external_source(
        self, name: str, producer: EventProducer
    ) -> EventProducer:
        """Add an application-specific event source (Section 5.1.1)."""
        if name in (ACTIVITY_SOURCE, CONTEXT_SOURCE):
            raise SpecificationError(f"source name {name!r} is reserved")
        if name in self._external_sources:
            raise SpecificationError(f"external source {name!r} already exists")
        producer.attach(self.bus)
        self._external_sources[name] = producer
        if _SLOG.enabled:
            _SLOG.emit(
                "awareness",
                "external_source_registered",
                tick=self.core.clock.now(),
                source=name,
                producer=producer.producer_id,
            )
        return producer

    # -- designer side --------------------------------------------------------------

    def create_window(self, process_schema_id: str) -> SpecificationWindow:
        """Open an authoring window naming this engine's event sources.

        Authoring only records structure: nothing is registered on the
        producers, and the window sees no event, until :meth:`deploy`.
        """
        producers: Dict[str, EventProducer] = {
            ACTIVITY_SOURCE: self.activity_source.producer,
            CONTEXT_SOURCE: self.context_source.producer,
        }
        producers.update(self._external_sources)
        return SpecificationWindow(
            process_schema_id, producers, registry=self.registry
        )

    def deploy(self, window: SpecificationWindow) -> DetectorAgent:
        """Compile a window into a detector agent feeding delivery.

        This is where the window's operators first become live: it is
        validated and resolved against the engine's
        :class:`~repro.awareness.planner.PlanCache`: sub-DAGs
        structurally equal to an already-deployed window's are not
        instantiated again — the existing shared nodes fan out to this
        window's output operators, so recognition cost grows with
        *unique* operators, not deployed windows.

        Deploying a window that is already deployed is idempotent: the
        live detector is returned, and nothing is re-attached (a double
        deploy used to double-wire the leaves and double-count
        recognitions).  Redeploying a window retired with
        :meth:`undeploy` rewires it freshly.
        """
        existing = self._detectors.get(id(window))
        if existing is not None:
            return existing
        detector = DetectorAgent(window, self.planner, sink=self.delivery.deliver)
        self._detectors[id(window)] = detector
        if _SLOG.enabled:
            _SLOG.emit(
                "awareness",
                "window_deployed",
                tick=self.core.clock.now(),
                process=window.process_schema_id,
                schemas=[schema.name for schema in window.schemas()],
                shared_operators=detector.plan.shared_hits,
            )
        return detector

    def undeploy(self, detector: DetectorAgent) -> None:
        """Retire a detector: detach its wiring and drop it from the engine.

        Detaching releases the detector's hold on the shared plan,
        unwiring only the nodes no surviving window references (their
        entries leave the producers' routing indexes and wildcard
        buckets), so no further events are dispatched to the retired
        window's operators.  The detector's recognition
        count is folded into the engine baseline first, keeping the
        ``composites_recognized`` gauge monotonic.
        """
        detector.detach()
        if self._detectors.get(id(detector.window)) is detector:
            self._recognized_retired += detector.recognized
            del self._detectors[id(detector.window)]
        if _SLOG.enabled:
            _SLOG.emit(
                "awareness",
                "window_undeployed",
                tick=self.core.clock.now(),
                process=detector.window.process_schema_id,
            )

    # -- participant side ---------------------------------------------------------------

    def viewer_for(self, participant: Participant) -> AwarenessViewer:
        return AwarenessViewer(participant, self.delivery.queue)

    # -- statistics -------------------------------------------------------------------------

    def detectors(self) -> Tuple[DetectorAgent, ...]:
        return tuple(self._detectors.values())

    def stats(self) -> Dict[str, int]:
        """Event-flow counters across the Figure 5 pipeline.

        Every value is a view over a registry instrument: the gathered /
        delivered counts read the agents' counters, and the recognized /
        undeliverable counts read the collection-time gauges registered in
        :attr:`metrics`.
        """
        plan_stats = self.planner.stats()
        return {
            "activity_events_gathered": self.activity_source.gathered,
            "context_events_gathered": self.context_source.gathered,
            "composites_recognized": int(
                self.metrics.value("composites_recognized")
            ),
            "notifications_delivered": self.delivery.delivered,
            "undeliverable_events": int(
                self.metrics.value("undeliverable_events")
            ),
            "plan_nodes_live": plan_stats["nodes_live"],
            "plan_operators_deduped": plan_stats["operators_deduped"],
        }
