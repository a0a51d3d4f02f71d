"""Recognition provenance: why was this notification delivered?

Section 6.2's output operator attaches a user-friendly description because
"participants need to know why they were notified" — but a description is
prose, not evidence.  Provenance makes the evidence first-class: while
instrumentation is enabled, every event flowing through the pipeline
carries a :class:`ProvenanceNode` linking it to the operator that produced
it and to the nodes of its constituent events, all the way down to the
primitive activity-state-change / context-field-change events gathered by
the event source agents.

The chain is built incrementally and cheaply: producers stamp primitive
events with a leaf node; :meth:`~repro.awareness.operators.base.EventOperator.consume`
stamps each output with a node whose ``inputs`` are the constituents'
nodes (``And``/``Seq`` report *all* constituents, not just the event that
completed the pattern); the delivery agent records one
:class:`DeliveryProvenance` per queued notification in a bounded ring
buffer.  ``repro trace`` and :class:`~repro.awareness.viewer.AwarenessViewer`
render the chains.

Nodes are immutable once created and hold only strings/ints plus child
node references — no live :class:`~repro.events.event.Event` objects — so
retaining a chain does not pin operator state or event payloads.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..events.canonical import CanonicalEvent
    from ..events.event import Event

#: Default capacity of the recent-delivery ring buffer.
DEFAULT_MAX_DELIVERIES = 256

#: ``kind`` of a leaf node produced by a primitive event producer.
PRIMITIVE = "primitive"


class ProvenanceNode:
    """One hop in a recognition chain: an event and the node that made it.

    ``event_id`` is the tracker's sequence number (rendered as ``ev-N``).
    ``summary`` is either a ready string (operator hops) or, for primitive
    hops, the raw digest tuple built on the hot path — formatting a
    summary costs more than recording one, so primitives defer it to
    :meth:`summary_text`.
    """

    __slots__ = (
        "event_id",
        "node",
        "kind",
        "event_type",
        "logical_time",
        "summary",
        "inputs",
    )

    def __init__(
        self,
        event_id: int,
        node: str,
        kind: str,
        event_type: str,
        logical_time: int,
        summary: object,
        inputs: Tuple["ProvenanceNode", ...] = (),
    ) -> None:
        self.event_id = event_id
        self.node = node
        self.kind = kind
        self.event_type = event_type
        self.logical_time = logical_time
        self.summary = summary
        self.inputs = inputs

    @property
    def is_primitive(self) -> bool:
        return self.kind == PRIMITIVE

    def summary_text(self) -> str:
        """The one-line digest, formatting deferred primitive tuples."""
        summary = self.summary
        if isinstance(summary, tuple):
            if summary[0] == "activity":
                return (
                    f"activity {summary[1]!r}: {summary[2]} -> {summary[3]}"
                )
            return f"context {summary[1]!r}.{summary[2]} = {summary[3]!r}"
        return summary if isinstance(summary, str) else ""

    def primitives(self) -> Tuple["ProvenanceNode", ...]:
        """The primitive-event leaves of this chain, left to right."""
        if self.is_primitive:
            return (self,)
        out: List[ProvenanceNode] = []
        for node in self.inputs:
            out.extend(node.primitives())
        return tuple(out)

    def operator_nodes(self) -> Tuple[str, ...]:
        """Instance names of every operator on the chain, root first."""
        out: List[str] = [] if self.is_primitive else [self.node]
        for node in self.inputs:
            out.extend(node.operator_nodes())
        return tuple(out)

    def signature(self) -> Tuple[object, ...]:
        """Structural identity of the chain, excluding event ids.

        Event ids are allocation-order sequence numbers, so two engines
        recognizing the same composites through different plumbing (e.g.
        a plan-sharing engine mints one canonical event where an unshared
        engine mints one per window) assign different ids to equal
        chains.  The signature keeps everything else — node names, kinds,
        types, logical times, summaries, and the recursive input
        structure — and is what equivalence suites compare.
        """
        return (
            self.node,
            self.kind,
            self.event_type,
            self.logical_time,
            self.summary_text(),
            tuple(node.signature() for node in self.inputs),
        )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "event_id": f"ev-{self.event_id}",
            "node": self.node,
            "kind": self.kind,
            "event_type": self.event_type,
            "logical_time": self.logical_time,
        }
        summary = self.summary_text()
        if summary:
            out["summary"] = summary
        if self.inputs:
            out["inputs"] = [node.to_dict() for node in self.inputs]
        return out

    def render(self, indent: int = 0) -> str:
        """Indented chain rendering, this node first, constituents below."""
        pad = "  " * indent
        label = "primitive" if self.is_primitive else self.kind
        summary_text = self.summary_text()
        summary = f" — {summary_text}" if summary_text else ""
        lines = [
            f"{pad}{label} {self.node!r} ev ev-{self.event_id} "
            f"[{self.event_type} t={self.logical_time}]{summary}"
        ]
        for node in self.inputs:
            lines.append(node.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProvenanceNode(ev-{self.event_id}, {self.node!r}, "
            f"kind={self.kind!r}, inputs={len(self.inputs)})"
        )


class DeliveryProvenance:
    """The provenance record of one queued notification."""

    __slots__ = (
        "notification_id",
        "participant_id",
        "schema_name",
        "description",
        "logical_time",
        "chain",
    )

    def __init__(
        self,
        notification_id: str,
        participant_id: str,
        schema_name: str,
        description: str,
        logical_time: int,
        chain: Optional[ProvenanceNode],
    ) -> None:
        self.notification_id = notification_id
        self.participant_id = participant_id
        self.schema_name = schema_name
        self.description = description
        self.logical_time = logical_time
        self.chain = chain

    def render(self) -> str:
        header = (
            f"notification {self.notification_id} -> "
            f"{self.participant_id} [t={self.logical_time}] "
            f"{self.schema_name}: {self.description!r}"
        )
        if self.chain is None:
            return header + "\n  (no recorded chain)"
        return header + "\n" + self.chain.render(indent=1)

    def signature(self) -> Tuple[object, ...]:
        """Id-free identity of one delivery plus its full chain."""
        return (
            self.participant_id,
            self.schema_name,
            self.description,
            self.logical_time,
            self.chain.signature() if self.chain is not None else None,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "notification_id": self.notification_id,
            "participant_id": self.participant_id,
            "schema_name": self.schema_name,
            "description": self.description,
            "logical_time": self.logical_time,
            "chain": self.chain.to_dict() if self.chain is not None else None,
        }


class ProvenanceTracker:
    """Assigns event ids and keeps the recent-delivery ring buffer."""

    def __init__(self, max_deliveries: int = DEFAULT_MAX_DELIVERIES) -> None:
        self._next_id = 0
        self._recent: Deque[DeliveryProvenance] = deque(maxlen=max_deliveries)
        self.max_deliveries = max_deliveries

    # -- chain construction (hot paths, enabled-only) ----------------------

    def record_primitive(self, event: "Event", producer_id: str) -> ProvenanceNode:
        """Stamp a primitive event fresh from a producer; returns its node.

        Runs once per primitive event whenever instrumentation is on, so
        the node is built with direct slot stores (no ``__init__`` hop)
        and the summary stays an unformatted digest tuple.
        """
        event_id = self._next_id + 1
        self._next_id = event_id
        params = event._params
        # The digest is a raw tuple, formatted lazily by `summary_text`:
        # recording runs once per primitive event, rendering rarely.
        if "newState" in params:
            summary: object = (
                "activity",
                params.get("activityVariableId"),
                params["oldState"],
                params["newState"],
            )
        elif "fieldName" in params:
            summary = (
                "context",
                params.get("contextName"),
                params["fieldName"],
                params.get("newFieldValue"),
            )
        else:
            summary = ""
        node = ProvenanceNode.__new__(ProvenanceNode)
        node.event_id = event_id
        node.node = producer_id
        node.kind = PRIMITIVE
        node.event_type = params["type"]
        node.logical_time = params["time"]
        node.summary = summary
        node.inputs = ()
        event.provenance = node
        return node

    def record_operator(
        self,
        output: "Event",
        node_name: str,
        kind: str,
        constituents: Sequence["Event"],
    ) -> ProvenanceNode:
        """Stamp an operator output; links the constituents' chains."""
        if len(constituents) == 1:
            # The overwhelmingly common case: unary operators and pass-
            # through hops link straight to the one constituent's chain.
            provenance = constituents[0].provenance
            inputs = () if provenance is None else (provenance,)
        else:
            inputs = tuple(
                provenance
                for provenance in (event.provenance for event in constituents)
                if provenance is not None
            )
        event_type = output._event_type
        if event_type.record is None:
            params = output._params
            summary = params.get("description") or params.get("userDescription")
            logical_time = params["time"]
        else:
            # A record (every C_P output): its fields, no mapping built.
            record: "CanonicalEvent" = output  # type: ignore[assignment]
            summary, logical_time = record.description, record.time
        event_id = self._next_id + 1
        self._next_id = event_id
        node = ProvenanceNode.__new__(ProvenanceNode)
        node.event_id = event_id
        node.node = node_name
        node.kind = kind
        node.event_type = event_type.name
        node.logical_time = logical_time
        node.summary = summary or ""
        node.inputs = inputs
        output.provenance = node
        return node

    def record_delivery(
        self,
        notification_id: str,
        participant_id: str,
        schema_name: str,
        description: str,
        logical_time: int,
        event: "Event",
    ) -> DeliveryProvenance:
        """Record one queued notification's chain in the ring buffer."""
        record = DeliveryProvenance(
            notification_id,
            participant_id,
            schema_name,
            description,
            logical_time,
            event.provenance,
        )
        self._recent.append(record)
        return record

    # -- inspection --------------------------------------------------------

    def recent_deliveries(self) -> Tuple[DeliveryProvenance, ...]:
        """Recent queued notifications with chains, oldest first."""
        return tuple(self._recent)

    def clear(self) -> None:
        self._recent.clear()
        self._next_id = 0
