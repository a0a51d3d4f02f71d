"""The awareness information viewer (Section 6.5).

"The awareness information viewer in the CMI Client for Participants is
responsible for registering an interest in the event queue for its user,
retrieving event information, and displaying it to him."

The viewer is the participant-side endpoint of awareness provisioning: it
drains the participant's persistent queue and renders notifications as
text.  Because the queue is persistent, a participant who signs on after
the composite event was detected still receives the information.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.roles import Participant
from ..events.queues import DeliveryQueue, Notification
from ..observability import ProvenanceNode


class AwarenessViewer:
    """Per-participant client over the shared delivery queue."""

    def __init__(self, participant: Participant, queue: DeliveryQueue) -> None:
        self.participant = participant
        self.queue = queue
        self._received: List[Notification] = []

    def unread_count(self) -> int:
        """Notifications waiting in the queue (not yet retrieved)."""
        return self.queue.pending_count(self.participant.participant_id)

    def retrieve(self) -> Tuple[Notification, ...]:
        """Drain the queue into the viewer's local history."""
        items = self.queue.retrieve(self.participant.participant_id)
        self._received.extend(items)
        return items

    def received(self) -> Tuple[Notification, ...]:
        """Everything this viewer has retrieved so far."""
        return tuple(self._received)

    @staticmethod
    def provenance_for(notification: Notification) -> Optional[ProvenanceNode]:
        """The recognition chain of *notification*, if one was recorded.

        Chains exist only for notifications delivered while pipeline
        instrumentation (:mod:`repro.observability`) was enabled; the
        persistent queue carries them as they are.
        """
        chain = notification.parameters.get("provenance")
        return chain if isinstance(chain, ProvenanceNode) else None

    def render(self, provenance: bool = False) -> str:
        """Plain-text display of the retrieved awareness information.

        With ``provenance=True`` each notification that carries a recorded
        recognition chain is followed by the indented chain — the "why was
        I notified" evidence behind the prose description.
        """
        lines = [f"Awareness for {self.participant.name}:"]
        if not self._received:
            lines.append("  (no awareness information)")
        for notification in self._received:
            lines.append(
                f"  [t={notification.time}] {notification.schema_name}: "
                f"{notification.description}"
            )
            if provenance:
                chain = self.provenance_for(notification)
                if chain is not None:
                    lines.append(chain.render(indent=2))
        return "\n".join(lines)
