"""The CMI Enactment System: the Figure 5 server.

One :class:`EnactmentSystem` aggregates the four engines over one logical
clock, one event bus, and one persistent delivery queue:

* **CORE Engine** — schemas, instances, contexts, roles;
* **Coordination Engine** — enactment operations and routing (the
  IBM-FlowMark role in the prototype);
* **Service Engine** — service registry, agreements, invocation;
* **Awareness Engine** — event sources, detectors, delivery.

Clients attach via :meth:`participant_client` and :meth:`designer_client`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..clock import LogicalClock
from ..coordination.engine import CoordinationEngine
from ..coordination.timers import TimerService
from ..core.engine import CoreEngine
from ..core.roles import Participant
from ..events.bus import EventBus
from ..events.queues import DeliveryQueue, MemoryDeliveryQueue
from ..awareness.engine import AwarenessEngine
from ..observability import MetricsRegistry
from ..service.engine import ServiceEngine
from .clients import DesignerClient, ParticipantClient
from .monitor import ProcessMonitor


class EnactmentSystem:
    """The federated CMI server: four engines acting as one."""

    def __init__(
        self,
        clock: Optional[LogicalClock] = None,
        queue: Optional[DeliveryQueue] = None,
        journal: Optional["Journal"] = None,
        name: str = "cmi",
    ) -> None:
        #: The system's federation-wide identity: telemetry events carry
        #: it as ``systemId`` and the federation health view keys on it.
        self.name = name
        self.clock = clock or LogicalClock()
        #: One registry per system: every Figure 5 agent it owns registers
        #: its instruments here, and :meth:`stats` is a view over them.
        #: Per-system (not process-wide) so concurrent systems in one
        #: process — the norm in tests — never share counters.
        self.metrics = MetricsRegistry()
        self.bus = EventBus(metrics=self.metrics)
        self.core = CoreEngine(self.clock)
        self.journal = journal
        if journal is not None:
            from .journal import attach_journal

            attach_journal(self.core, journal)
        self.coordination = CoordinationEngine(self.core)
        self.service = ServiceEngine(self.coordination)
        self.awareness = AwarenessEngine(
            self.core,
            bus=self.bus,
            queue=queue if queue is not None else MemoryDeliveryQueue(),
            metrics=self.metrics,
        )
        self.monitor = ProcessMonitor(self.core)
        #: The system-wide timer service (deadline monitors and awareness
        #: samplers share it; standalone TimerService instances still work).
        self.timers = TimerService(self.clock)
        self._participant_clients: Dict[str, ParticipantClient] = {}
        self._designer_clients: Dict[str, DesignerClient] = {}
        self.metrics.callback_gauge(
            "processes_started",
            lambda: len(self.core.top_level_processes()),
            "Top-level process instances started on the CORE engine",
        )
        self.metrics.callback_gauge(
            "instances_total",
            lambda: len(self.core.instances()),
            "Process instances (all nesting levels) on the CORE engine",
        )
        self.metrics.callback_gauge(
            "work_items_total",
            lambda: len(self.coordination.worklists.all_items()),
            "Work items created across all worklists",
        )
        self.metrics.callback_gauge(
            "timer_backlog",
            self.timers.pending_count,
            "Timers scheduled on the system timer service, not yet fired",
        )
        self.metrics.multi_callback_gauge(
            "work_items_open",
            self._open_items_by_participant,
            "Open work items offered to / claimed by each participant",
            ("participant",),
        )
        self.metrics.multi_callback_gauge(
            "queue_depth",
            self._queue_depth_by_participant,
            "Pending awareness notifications per participant queue",
            ("participant",),
        )
        self.metrics.callback_gauge(
            "delivery_lag",
            self._delivery_lag,
            "Ticks the oldest pending notification has waited undelivered",
        )
        self.metrics.callback_gauge(
            "journal_divergence",
            lambda: float(journal.audit_only_count()) if journal else 0.0,
            "Journal records recovery would refuse (audit-only surface)",
        )

    # -- collection-time gauge callbacks ---------------------------------------------

    def _open_items_by_participant(self) -> Dict[Tuple[str, ...], float]:
        out: Dict[Tuple[str, ...], float] = {}
        for item in self.coordination.worklists.open_items():
            if item.claimed_by is not None:
                holders = (item.claimed_by,)
            else:
                holders = tuple(item.candidates)
            for participant in holders:
                key = (participant.participant_id,)
                out[key] = out.get(key, 0.0) + 1.0
        return out

    def _queue_depth_by_participant(self) -> Dict[Tuple[str, ...], float]:
        counts = self.awareness.delivery.queue.pending_by_participant()
        return {(pid,): float(count) for pid, count in counts.items()}

    def _delivery_lag(self) -> float:
        oldest = self.awareness.delivery.queue.oldest_pending_time()
        if oldest is None:
            return 0.0
        return float(max(0, self.clock.now() - oldest))

    # -- client attach -------------------------------------------------------------

    def participant_client(self, participant: Participant) -> ParticipantClient:
        """The run-time client suite for one participant (cached)."""
        client = self._participant_clients.get(participant.participant_id)
        if client is None:
            client = ParticipantClient(self, participant)
            self._participant_clients[participant.participant_id] = client
        return client

    def designer_client(self, designer_name: str = "designer") -> DesignerClient:
        """A build-time client suite (process + awareness specification).

        Cached per designer name, mirroring :meth:`participant_client`:
        repeated attaches from the same designer share one client.
        """
        client = self._designer_clients.get(designer_name)
        if client is None:
            client = DesignerClient(self, designer_name)
            self._designer_clients[designer_name] = client
        return client

    # -- convenience ----------------------------------------------------------------

    def register_participant(self, participant: Participant) -> Participant:
        return self.core.roles.register_participant(participant)

    def stats(self) -> Dict[str, int]:
        """System-wide counters for the FIG5 architecture benchmark.

        A thin view over :attr:`metrics`: every value reads a registry
        instrument (counters the agents increment on the hot path, plus
        the collection-time gauges registered above).  The bus counts no
        intake of its own: ``bus_events_published`` is what the producers
        attached to it emitted.
        """
        stats = dict(self.awareness.stats())
        stats.update(
            {
                "bus_events_published": sum(
                    producer.emitted for producer in self.bus.producers()
                ),
                "bus_events_delivered": self.bus.delivered_count(),
                "bus_events_failed": self.bus.failed_count(),
                "processes_started": int(self.metrics.value("processes_started")),
                "instances_total": int(self.metrics.value("instances_total")),
                "work_items_total": int(self.metrics.value("work_items_total")),
                "timer_backlog": int(self.metrics.value("timer_backlog")),
                "queue_depth": self.awareness.delivery.queue.pending_count(),
                "delivery_lag": int(self.metrics.value("delivery_lag")),
            }
        )
        return stats
