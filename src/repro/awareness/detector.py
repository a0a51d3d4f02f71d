"""Detector agents (Section 6.4).

"At build-time, the designer-specified awareness schemata are automatically
transformed into one or more detector agents that embody one or more
awareness schemas.  The resulting agents become part of the Awareness
Engine.  The agent(s) consume primitive events, perform the event
processing, and send recognized composite events, complete with delivery
instructions, to the awareness delivery component."

A :class:`DetectorAgent` is compiled from one specification window.  The
live operator wiring is not the agent's business — authoring installs it
edge by edge, and the awareness engine's plan cache re-installs it on the
shared plan at deploy — so the agent's job is: validate the window,
register as listener on every schema's detection stream, and forward the
delivery-instruction events, by direct call, to its sinks (the delivery
agent's ``deliver`` when the engine deploys it).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..events.event import Event
from .specification import SpecificationWindow

Sink = Callable[[Event], None]


class DetectorAgent:
    """Embodies the awareness schemas of one specification window."""

    def __init__(
        self,
        window: SpecificationWindow,
        sink: Optional[Sink] = None,
        detach_hook: Optional[Callable[[], None]] = None,
    ) -> None:
        window.validate()
        self.window = window
        #: When the engine deployed the window through the plan cache the
        #: live wiring belongs to the shared plan, not to this window's
        #: graph; detach then releases the plan instead of the leaves.
        self._detach_hook = detach_hook
        #: The :class:`~repro.awareness.planner.DeployedPlan` this window
        #: resolved to (set by the engine under plan sharing, ``None``
        #: otherwise).  Durability snapshots enumerate the *live*
        #: operators through it — the shared nodes, not the window's
        #: authoring-time copies.
        self.plan: Optional[Any] = None
        self._sinks: List[Sink] = []
        self._sink_snapshot: Tuple[Sink, ...] = ()
        if sink is not None:
            self._sinks.append(sink)
        self._sink_snapshot = tuple(self._sinks)
        self.recognized = 0
        for schema in window.schemas():
            schema.description.on_detected(self._forward)

    @property
    def process_schema_id(self) -> str:
        return self.window.process_schema_id

    def add_sink(self, sink: Sink) -> None:
        self._sinks.append(sink)
        self._sink_snapshot = tuple(self._sinks)

    def detach(self) -> None:
        """Disconnect this detector's leaves from the shared producers.

        After detaching, events no longer reach the window's operators;
        the engine calls this on undeploy so the routing index holds no
        ghost entries for retired detectors.  The detection listeners are
        unregistered too, so a later redeploy of the same window does not
        double-deliver through this retired agent.
        """
        if self._detach_hook is not None:
            self._detach_hook()
        else:
            self.window.graph.detach_producers()
        for schema in self.window.schemas():
            schema.description.remove_listener(self._forward)

    def _forward(self, event: Event) -> None:
        self.recognized += 1
        # Snapshot is rebuilt on add_sink, not copied per recognition.
        for sink in self._sink_snapshot:
            sink(event)

    def schema_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.window.schemas())
