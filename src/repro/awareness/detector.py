"""Detector agents (Section 6.4).

"At build-time, the designer-specified awareness schemata are automatically
transformed into one or more detector agents that embody one or more
awareness schemas.  The resulting agents become part of the Awareness
Engine.  The agent(s) consume primitive events, perform the event
processing, and send recognized composite events, complete with delivery
instructions, to the awareness delivery component."

A :class:`DetectorAgent` *is* one specification window deployed on a
:class:`~repro.awareness.planner.PlanCache` — the awareness engine passes
its shared cache, anything that runs a window without an engine a private
one.  Authoring leaves a window inert; constructing the agent is the
transformation: the cache validates the window, links its operators into
the plan and wires every schema's Output root straight to this agent,
which forwards the delivery-instruction events, by direct call, to its
sinks (the delivery agent's ``deliver`` when the engine deploys it).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..events.event import Event
from .planner import PlanCache
from .specification import SpecificationWindow

Sink = Callable[[Event], None]


class DetectorAgent:
    """Embodies the awareness schemas of one deployed specification window."""

    def __init__(
        self,
        window: SpecificationWindow,
        cache: PlanCache,
        sink: Optional[Sink] = None,
    ) -> None:
        self.window = window
        self._sinks: List[Sink] = [] if sink is None else [sink]
        self._sink_snapshot: Tuple[Sink, ...] = tuple(self._sinks)
        self.recognized = 0
        #: What the window resolved to.  Durability snapshots enumerate
        #: the *live* operators through it — the shared nodes, not the
        #: window's own instances.
        self.plan = cache.deploy(window, self._forward)

    @property
    def process_schema_id(self) -> str:
        return self.window.process_schema_id

    def add_sink(self, sink: Sink) -> None:
        self._sinks.append(sink)
        self._sink_snapshot = tuple(self._sinks)

    def detach(self) -> None:
        """Release the plan (idempotent): no event reaches this agent again.

        The engine calls this on undeploy, so the routing index holds no
        ghost entries for retired detectors and a later redeploy of the
        same window does not double-deliver through this retired agent.
        """
        self.plan.detach()

    def _forward(self, slot: int, event: Event) -> None:
        """Consumer of slot 0 of every Output root of the window."""
        self.recognized += 1
        # Snapshot is rebuilt on add_sink, not copied per recognition.
        for sink in self._sink_snapshot:
            sink(event)

    def schema_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.window.schemas())
