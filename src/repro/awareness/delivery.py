"""The awareness delivery agent (Section 6.5).

"The awareness delivery agent consumes all composite events of the type
produced by the special output operator ... When the agent receives such an
event, it resolves the awareness delivery role and awareness role
assignment from the event's delivery instructions to a set of participants
through an interaction with the CORE Engine.  The information from the
event is then queued for each participant in the set."

Resolution happens **at detection time** against the triggering process
instance's scope: for scoped roles, the agent asks the CORE engine which
live contexts are associated with the instance, and looks the role up
there.  If the role cannot be resolved — the context was destroyed, so the
role's existence interval is over — the event is recorded as undeliverable
rather than mis-delivered; this is precisely how "the existence of an
awareness role determines the appropriate time interval to deliver the
information" (Section 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.engine import CoreEngine
from ..core.roles import RoleRef
from ..errors import RoleResolutionError
from ..events.event import Event
from ..events.queues import DeliveryQueue, MemoryDeliveryQueue, Notification
from ..ids import IdFactory
from ..observability import INSTRUMENTATION as _OBS
from ..observability import MetricsRegistry
from ..observability import STRUCTURED_LOG as _SLOG
from .assignment import AssignmentRegistry


@dataclass(frozen=True)
class UndeliveredEvent:
    """Audit record for a composite event that had no live recipients."""

    time: int
    schema_name: str
    role: str
    reason: str


class DeliveryAgent:
    """Resolve delivery instructions and enqueue notifications."""

    def __init__(
        self,
        core: CoreEngine,
        queue: Optional[DeliveryQueue] = None,
        assignments: Optional[AssignmentRegistry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.core = core
        self.queue = queue if queue is not None else MemoryDeliveryQueue()
        self.assignments = assignments or AssignmentRegistry()
        self._ids = IdFactory()
        self._role_refs: dict = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._delivered = self.metrics.counter(
            "notifications_delivered_total",
            "Notifications queued for participants by the delivery agent",
        )
        self.undeliverable: List[UndeliveredEvent] = []

    @property
    def delivered(self) -> int:
        """Notifications queued so far (a view over the registry counter)."""
        return int(self._delivered.value())

    def deliver(self, event: Event) -> Tuple[Notification, ...]:
        """Process one ``T_delivery`` event; returns the queued notifications."""
        if _OBS.enabled:
            with _OBS.tracer.span(
                "delivery.deliver",
                logical_time=event.time,
                schema=event.get("schemaName"),
            ):
                return self._deliver(event)
        return self._deliver(event)

    def _deliver(self, event: Event) -> Tuple[Notification, ...]:
        receivers = self._resolve_receivers(event)
        if receivers is None:
            return ()
        if len(receivers) > 1:
            receivers = sorted(receivers, key=lambda p: p.participant_id)
        notifications = []
        for participant in receivers:
            notification = self._make_notification(event, participant)
            self._route(event, participant, notification)
            notifications.append(notification)
            self._delivered.inc()
            if _OBS.enabled:
                _OBS.provenance.record_delivery(
                    notification.notification_id,
                    notification.participant_id,
                    notification.schema_name,
                    notification.description,
                    notification.time,
                    event,
                )
        return tuple(notifications)

    # -- overridable steps (the extension hooks of Section 6.5's outlook) -------

    def _resolve_receivers(self, event: Event):
        """Resolve role + assignment; ``None`` marks the event undeliverable."""
        key = (event["deliveryRole"], event.get("deliveryContext"))
        role_ref = self._role_refs.get(key)
        if role_ref is None:
            role_ref = self._role_refs[key] = RoleRef(
                role_name=key[0], context_name=key[1]
            )
        try:
            candidates = self.core.resolve_role(
                role_ref, event["processInstanceId"]
            )
        except RoleResolutionError as exc:
            self.undeliverable.append(
                UndeliveredEvent(
                    time=event.time,
                    schema_name=event["schemaName"],
                    role=str(role_ref),
                    reason=str(exc),
                )
            )
            if _SLOG.enabled:
                _SLOG.emit(
                    "delivery",
                    "undeliverable",
                    level="warning",
                    tick=event.time,
                    schema=event["schemaName"],
                    role=str(role_ref),
                    reason=str(exc),
                )
            return None
        assignment = self.assignments.lookup(event["assignment"])
        return assignment(candidates)

    def _make_notification(self, event: Event, participant) -> Notification:
        params = event.params
        parameters = {
            "processSchemaId": params["processSchemaId"],
            "processInstanceId": params["processInstanceId"],
            "intInfo": params.get("intInfo"),
            "strInfo": params.get("strInfo"),
            "sourceEvent": params.get("sourceEvent"),
        }
        if _OBS.enabled:
            # The chain object itself, not a rendering: the viewer renders
            # lazily, and the persistent queue stores it as it is.
            parameters["provenance"] = getattr(event, "provenance", None)
        return Notification(
            notification_id=self._ids.new("ntf"),
            participant_id=participant.participant_id,
            time=params["time"],
            description=params["userDescription"],
            schema_name=params["schemaName"],
            parameters=parameters,
        )

    def _route(self, event: Event, participant, notification: Notification) -> None:
        """Hand the notification to its transport; the base agent always
        uses the persistent queue (the paper's implemented mechanism)."""
        if _OBS.enabled:
            with _OBS.tracer.span(
                "queue.append",
                logical_time=notification.time,
                participant=notification.participant_id,
            ):
                self.queue.enqueue(notification)
            return
        self.queue.enqueue(notification)
