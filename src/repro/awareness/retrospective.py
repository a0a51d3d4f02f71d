"""Retrospective awareness: what *would* a new schema have detected?

Awareness descriptions process events as they happen; a specification
deployed in the middle of a long-running crisis only sees the future.  But
the monitoring audit trail holds the past (Section 2's WfMC monitoring
API, :class:`~repro.federation.monitor.ProcessMonitor`), so the question
"what would this schema have detected so far?" is answerable: author the
specification against *fresh* primitive producers — isolated from the live
engine so nothing is delivered twice — deploy it on a private plan cache
with a collecting sink, and replay the logged activity and context changes
through it in time order.

Uses: designers dry-running a specification against real history before
deploying it; analysts investigating an incident ("had we had this schema,
who would have been told, and when?").  The detected composites come back
as plain events, delivery instructions included, but nothing is queued —
retrospection observes, it does not notify.
"""

from __future__ import annotations

from typing import Callable, List, Tuple, Union

from ..core.context import ContextChange
from ..core.instances import ActivityStateChange
from ..events.event import Event
from ..events.producers import ActivityEventProducer, ContextEventProducer
from ..federation.monitor import ProcessMonitor
from .detector import DetectorAgent
from .planner import PlanCache
from .specification import SpecificationWindow

#: A builder receives the isolated window and authors the description(s);
#: alternatively pass DSL text.
WindowBuilder = Callable[[SpecificationWindow], None]


class RetrospectionResult:
    """Everything the replayed specification detected, with timing."""

    def __init__(self, window: SpecificationWindow, detected: List[Event]) -> None:
        self.window = window
        #: The replay's detections, in replay order.
        self.detections: Tuple[Event, ...] = tuple(detected)

    def __len__(self) -> int:
        return len(self.detections)

    def would_have_notified(self) -> Tuple[Tuple[int, str, str], ...]:
        """(time, schema name, delivery role) for each detection."""
        return tuple(
            (
                event.time,
                event["schemaName"],
                (
                    f"{event['deliveryContext']}.{event['deliveryRole']}"
                    if event.get("deliveryContext")
                    else event["deliveryRole"]
                ),
            )
            for event in self.detections
        )

    def render(self) -> str:
        lines = [f"retrospective detections: {len(self.detections)}"]
        for time, schema_name, role in self.would_have_notified():
            lines.append(f"  t={time:>5}  {schema_name} -> {role}")
        return "\n".join(lines)


def retrospect(
    process_schema_id: str,
    specification: Union[str, WindowBuilder],
    monitor: ProcessMonitor,
) -> RetrospectionResult:
    """Replay the audit history through a freshly compiled specification.

    *specification* is DSL text or a builder callable; *monitor* supplies
    the activity and context history.
    """
    activity_producer = ActivityEventProducer()
    context_producer = ContextEventProducer()
    window = SpecificationWindow(
        process_schema_id,
        {
            "ActivityEvent": activity_producer,
            "ContextEvent": context_producer,
        },
    )
    if callable(specification):
        specification(window)
    else:
        from .dsl import compile_specification

        compile_specification(window, specification)

    detected: List[Event] = []
    DetectorAgent(window, PlanCache(), sink=detected.append)

    # Merge the histories in time order; within a tick, keep log order
    # (activity before context mirrors live interleaving closely enough:
    # state changes tick the clock, context writes share it).
    merged: List[Tuple[int, int, Union[ActivityStateChange, ContextChange]]] = []
    for order, activity in enumerate(monitor.log()):
        merged.append((activity.time, order, activity))
    for order, change in enumerate(monitor.context_log()):
        merged.append((change.time, order, change))
    merged.sort(key=lambda entry: entry[:2])

    for __, ___, payload in merged:
        if isinstance(payload, ActivityStateChange):
            activity_producer.produce(payload)
        else:
            context_producer.produce(payload)
    return RetrospectionResult(window, detected)
