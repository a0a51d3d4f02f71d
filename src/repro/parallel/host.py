"""One shard's pipeline: a full Enactment System behind an ingest door.

Each shard — whether it lives in the facade's process (serial backend)
or in a forked worker (process backend) — hosts a complete Figure 5
pipeline: event bus, detector DAGs, and delivery.  :class:`ShardHost`
wraps the :class:`~repro.federation.system.EnactmentSystem` with exactly
the surface the sharding layer needs:

* **blueprint application** — participants, global roles, and awareness
  specifications (as DSL text, the repository's spec interchange format)
  are data, so a federation can be reconstructed in any process;
* **event ingest** — routed primitive events enter through the engine's
  own source-agent producers (``emit_batch``, one bus batch per run of
  same-type events), after the whole frame passed the door: every run is
  checked against its producer's type — by column, once per distinct
  value, falling back to event by event — and a frame with one
  malformed event is refused whole;
* **result capture** — the shard's delivery queue is an outbox: each
  notification becomes one report record, numbered in enqueue order (the
  per-shard sequence number the deterministic merge sorts on), and
  leaves the shard when the facade drains it.

Delivery stays *per-shard* by design: the events of a process instance
(and of every context routed with it) arrive on one shard, so the
notifications they trigger are enqueued there in recognition order —
merging streams is the facade's job, not the workers' (DESIGN note 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Any, Dict, List, Optional, Set, Tuple

from ..awareness.dsl import compile_specification
from ..core.roles import Participant
from ..errors import (
    EventTypeError,
    FrameRefusedError,
    ParallelError,
    SnapshotUnsupportedError,
    WireError,
)
from ..events.event import ColumnRun, Event
from ..events.producers import EventProducer
from ..events.queues import DeliveryQueue, Notification
from ..federation.system import EnactmentSystem
from ..observability import INSTRUMENTATION as _OBS
from ..observability import STRUCTURED_LOG as _LOG
from ..observability.trace import TraceContext, is_recorded
from .codec import encode_standalone

#: An event's type name, read from the slot (no Python call per event).
_type_name = attrgetter("_event_type.name")

def _sizes(items: List[Any]) -> List[int]:
    """How many events each member of a decoded frame's list stands for."""
    return [len(item) if type(item) is ColumnRun else 1 for item in items]


#: Upper bound on buffered sampled span batches awaiting shipment; the
#: hot path never blocks on observability — beyond this, batches are
#: dropped and counted.
MAX_SPAN_BATCHES = 128


@dataclass(frozen=True)
class ShardSpec:
    """One awareness specification as shippable data."""

    spec_id: str
    process_schema_id: str
    text: str

    def to_wire(self) -> Dict[str, Any]:
        return {
            "spec_id": self.spec_id,
            "process_schema_id": self.process_schema_id,
            "text": self.text,
        }

    @staticmethod
    def from_wire(data: Dict[str, Any]) -> "ShardSpec":
        return ShardSpec(
            data["spec_id"], data["process_schema_id"], data["text"]
        )


@dataclass
class FederationBlueprint:
    """The data-only bootstrap every shard applies at startup.

    ``participants`` is ``(participant_id, name)`` pairs; ``roles`` maps
    a global role name to its member participant ids (ordered — delivery
    fan-out order follows membership order).  Specifications deploy in
    list order on every shard, so detector wiring is identical across
    the federation.
    """

    participants: List[Tuple[str, str]] = field(default_factory=list)
    roles: Dict[str, List[str]] = field(default_factory=dict)
    specifications: List[ShardSpec] = field(default_factory=list)

    def add_participant(self, participant_id: str, name: str) -> None:
        self.participants.append((participant_id, name))

    def add_role(self, role_name: str, member_ids: List[str]) -> None:
        self.roles[role_name] = list(member_ids)

    def add_specification(self, spec: ShardSpec) -> None:
        self.specifications.append(spec)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "participants": [list(pair) for pair in self.participants],
            "roles": {name: list(ids) for name, ids in self.roles.items()},
            "specifications": [
                spec.to_wire() for spec in self.specifications
            ],
        }

    @staticmethod
    def from_wire(data: Dict[str, Any]) -> "FederationBlueprint":
        return FederationBlueprint(
            participants=[
                (pid, name) for pid, name in data.get("participants", [])
            ],
            roles={
                name: list(ids)
                for name, ids in data.get("roles", {}).items()
            },
            specifications=[
                ShardSpec.from_wire(spec)
                for spec in data.get("specifications", [])
            ],
        )


class ShardOutbox(DeliveryQueue):
    """A shard's delivery queue: the report records not yet drained.

    Each enqueued notification becomes one record of the form
    :meth:`ShardHost.drain_results` ships, in enqueue order, and leaves
    the shard when the facade drains it; the depth and lag this queue
    reports are what the facade has not drained.  Participants retrieve
    from the facade, so ``pending`` / ``retrieve`` stay unimplemented.
    """

    def __init__(self) -> None:
        #: Report records not yet drained, oldest first.
        self.records: List[Dict[str, Any]] = []
        #: The next record's shard-local sequence number: notifications
        #: enqueued so far, a previous incarnation's included (restored
        #: from a snapshot).
        self.seq = 0

    def enqueue(self, notification: Notification) -> None:
        parameters = dict(notification.parameters)
        chain = parameters.pop("provenance", None)
        signature: Any = None
        if chain is not None:
            signature = (
                notification.participant_id,
                notification.schema_name,
                notification.description,
                notification.time,
                chain.signature(),
            )
        self.records.append(
            {
                "seq": self.seq,
                "id": notification.notification_id,
                "participant": notification.participant_id,
                "time": notification.time,
                "schema": notification.schema_name,
                "description": notification.description,
                "instance": parameters.get("processInstanceId"),
                "signature": signature,
                "parameters": parameters,
            }
        )
        self.seq += 1

    def drain(self) -> List[Dict[str, Any]]:
        records, self.records = self.records, []
        return records

    def pending_count(self, participant_id: Optional[str] = None) -> int:
        if participant_id is None:
            return len(self.records)
        return self.pending_by_participant().get(participant_id, 0)

    def pending_by_participant(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            participant = record["participant"]
            counts[participant] = counts.get(participant, 0) + 1
        return counts

    def oldest_pending_time(self) -> Optional[int]:
        return self.records[0]["time"] if self.records else None


class ShardHost:
    """A full pipeline plus the shard-layer ingest/report surface."""

    def __init__(
        self,
        shard_id: int,
        shard_count: int,
        name: Optional[str] = None,
    ) -> None:
        self.shard_id = shard_id
        self.shard_count = shard_count
        self.queue = ShardOutbox()
        self.system = EnactmentSystem(
            queue=self.queue,
            name=name or f"shard-{shard_id}",
        )
        awareness = self.system.awareness
        #: Ingest door per event type name.
        self._producers: Dict[str, EventProducer] = {
            awareness.activity_source.producer.output_type.name:
                awareness.activity_source.producer,
            awareness.context_source.producer.output_type.name:
                awareness.context_source.producer,
        }
        self._detectors: Dict[str, Any] = {}
        self._ingested: int = 0
        self._frames: int = 0
        #: Sampled ingest span trees awaiting shipment to the facade
        #: (bounded; see :data:`MAX_SPAN_BATCHES`).
        self._span_batches: List[Dict[str, Any]] = []
        self._spans_dropped: int = 0

    # -- sources -----------------------------------------------------------

    def register_external_source(
        self, name: str, producer: EventProducer
    ) -> EventProducer:
        """Add an application event source; its type becomes ingestable."""
        self.system.awareness.register_external_source(name, producer)
        self._producers[producer.output_type.name] = producer
        return producer

    # -- blueprint ---------------------------------------------------------

    def apply_blueprint(self, blueprint: FederationBlueprint) -> None:
        roles = self.system.core.roles
        by_id: Dict[str, Participant] = {}
        for participant_id, name in blueprint.participants:
            participant = self.system.register_participant(
                Participant(participant_id, name)
            )
            by_id[participant_id] = participant
        for role_name, member_ids in blueprint.roles.items():
            role = roles.define_role(role_name)
            for member_id in member_ids:
                member = by_id.get(member_id)
                if member is None:
                    raise ParallelError(
                        f"role {role_name!r} references unknown "
                        f"participant {member_id!r}"
                    )
                role.add_member(member)
        for spec in blueprint.specifications:
            self.deploy_spec(spec)

    def deploy_spec(self, spec: ShardSpec) -> None:
        if spec.spec_id in self._detectors:
            raise ParallelError(
                f"specification {spec.spec_id!r} is already deployed"
            )
        window = self.system.awareness.create_window(spec.process_schema_id)
        compile_specification(window, spec.text)
        self._detectors[spec.spec_id] = self.system.awareness.deploy(window)

    def undeploy_spec(self, spec_id: str) -> None:
        detector = self._detectors.pop(spec_id, None)
        if detector is None:
            raise ParallelError(f"specification {spec_id!r} is not deployed")
        self.system.awareness.undeploy(detector)

    # -- ingest ------------------------------------------------------------

    def ingest(
        self,
        events: List[Any],
        ctx: Optional[TraceContext] = None,
    ) -> None:
        """Feed routed primitive events into the pipeline, in order.

        This is the door every frame passes — serial, process and
        journal replay alike.  Each same-type run of the frame is
        checked against its producer's type (:meth:`EventProducer.admit`)
        before any event of the frame reaches a producer, so a malformed
        event refuses the frame whole with a :class:`FrameRefusedError`
        (an :class:`EventTypeError`) naming the shard, whatever windows
        sit behind the producer; so does an event of a type no producer
        of this shard serves, and a member that is no event at all (a
        decoded frame's list may hold any wire value).  The linked
        kernels downstream build on values that passed here.
        Consecutive same-type runs then enter as one ``emit_batch``, so
        the bus sees the same batch shapes an in-process engine would.

        A run is admitted by column (:meth:`EventProducer.admit`); only
        a run its columns cannot pass is checked event by event, so a
        refusal and its message are the row-wise ones.

        A shard worker decodes its frames with their runs kept
        (:meth:`~repro.parallel.codec.BinaryDecoder.decode_runs`):
        *events* then holds a :class:`~repro.events.event.ColumnRun`
        for each ``ROWS`` record, standing for its rows.  A same-type
        run that is one of them is admitted on its covers and enters by
        column (:meth:`EventProducer.emit_run`), so no event of it is
        built unless one escapes; a same-type run mixing it with other
        records enters as its events, as above.

        With a :class:`TraceContext` and instrumentation on, the whole
        batch runs under a ``shard.ingest`` root span whose sampling
        decision is the facade's, verbatim (no local re-sampling); a
        recorded tree is buffered for shipment on the next read
        response.
        """
        self._frames += 1
        if ctx is not None and _OBS.enabled:
            tracer = _OBS.tracer
            span = tracer.begin_root(
                "shard.ingest",
                ctx.sampled,
                attributes={
                    "shard": self.shard_id,
                    "events": sum(_sizes(events)),
                },
            )
            try:
                self._ingest(events)
            finally:
                tracer.end(span)
                if ctx.sampled and is_recorded(span):
                    if len(self._span_batches) >= MAX_SPAN_BATCHES:
                        self._spans_dropped += 1
                    else:
                        self._span_batches.append(
                            {
                                "trace": ctx.trace_id,
                                "parent": ctx.parent_span_id,
                                "shard": self.shard_id,
                                "span": span.to_dict(),
                            }
                        )
            return
        self._ingest(events)

    def _ingest(self, events: List[Any]) -> None:
        producers = self._producers
        by_column = ColumnRun in set(map(type, events))
        runs: List[Tuple[EventProducer, Any]] = []
        i = 0
        n = sum(_sizes(events)) if by_column else len(events)
        try:
            type_names = list(map(_type_name, events))
        except AttributeError:
            k, item = next(
                (k, item)
                for k, item in enumerate(events)
                if not isinstance(item, (Event, ColumnRun))
            )
            raise FrameRefusedError(
                f"shard {self.shard_id} refused a frame of {n} events at "
                f"item {sum(_sizes(events[:k]))}: not an event but a "
                f"{type(item).__name__!r} value"
            ) from None
        for type_name, group in groupby(type_names):
            j = i + len(list(group))
            producer = producers.get(type_name)
            run: Any = events[i:j]
            if by_column:
                # One run enters by column; anything else as its events.
                run = run[0] if j - i == 1 and type(run[0]) is ColumnRun else [
                    event
                    for item in run
                    for event in (item.events() if type(item) is ColumnRun else (item,))
                ]
            try:
                if producer is None:
                    raise EventTypeError("no source producer is registered")
                producer.admit(run)
            except EventTypeError as error:
                raise FrameRefusedError(
                    f"shard {self.shard_id} refused a frame of {n} events "
                    f"at a {type_name!r} event: {error}"
                ) from None
            runs.append((producer, run))
            i = j
        for producer, run in runs:
            if type(run) is ColumnRun:
                producer.emit_run(run)
            else:
                producer.emit_batch(run)
            self._ingested += len(run)

    # -- results -----------------------------------------------------------

    def drain_results(self) -> List[Dict[str, Any]]:
        """Notification records enqueued since the last drain.

        Each record carries the shard-local sequence number (position in
        global enqueue order) the deterministic merge needs, and — when
        instrumentation is on — the id-free provenance ``signature()`` of
        the delivery, computed on this shard so the report is not capped
        by the tracker's ring buffer.  Values are native (nested tuples,
        frozensets): the binary codec ships them as they are.
        """
        return self.queue.drain()

    # -- observability shipping --------------------------------------------

    def drain_spans(self) -> Dict[str, Any]:
        """Buffered sampled span batches (and the drop count), then clear."""
        batches, self._span_batches = self._span_batches, []
        dropped, self._spans_dropped = self._spans_dropped, 0
        return {"batches": batches, "dropped": dropped}

    def drain_logs(self, after_seq: int) -> Dict[str, Any]:
        """The process structured-log records past *after_seq* (shippable)."""
        records, dropped, cursor = _LOG.drain(after_seq)
        return {
            "records": [dict(record) for record in records],
            "dropped": dropped,
            "cursor": cursor,
        }

    # -- durability --------------------------------------------------------

    def live_operators(self) -> List[Any]:
        """The live operator instances, in deterministic order.

        The live operators are the interned
        :class:`~repro.awareness.planner.SharedNode` instances the
        window's deploy resolved to — *not* the window's own (inert)
        copies — so enumeration walks each detector's
        :attr:`~repro.awareness.detector.DetectorAgent.plan` entries
        (topological order), deduplicated by identity (shared sub-DAGs
        appear under every window that references them).

        The order is a pure function of the blueprint (specs deploy in
        list order, plan interning is deterministic), so a host rebuilt
        from the same blueprint enumerates the same operators — the
        contract :meth:`restore_state` relies on.
        """
        operators: List[Any] = []
        seen: Set[int] = set()
        for detector in self._detectors.values():
            for entry in detector.plan.entries:
                operator = entry.operator
                if id(operator) not in seen:
                    seen.add(id(operator))
                    operators.append(operator)
        return operators

    def snapshot_state(self) -> Optional[Dict[str, Any]]:
        """The host's recoverable state, or ``None`` if unencodable.

        The operator state is captured raw (it aliases the live
        partitions until encoded) and probed once through the codec.
        ``None`` (some live operator of a custom family holds state the
        codec cannot express) is a supported answer: the supervisor
        keeps the full journal and recovery replays from the beginning,
        which is always correct — just slower.
        """
        from ..durability.state import capture_operator

        operators = [capture_operator(op) for op in self.live_operators()]
        try:
            encode_standalone({"operators": operators})
        except WireError:
            return None
        return {
            "operators": operators,
            "recognized": [
                detector.recognized
                for detector in self._detectors.values()
            ],
            "recognized_retired": self.system.awareness._recognized_retired,
            "seq": self.queue.seq,
            "pending": list(self.queue.records),
            "ingested": self._ingested,
            # Log-shipping high-watermark: a restored worker continues
            # numbering from here, so records re-emitted during journal
            # replay collide with already-shipped sequence numbers and
            # the facade-side watermark drops them (no double-count).
            "log_seq": _LOG.seq if _LOG.enabled else None,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Load a :meth:`snapshot_state` payload into this fresh host.

        The blueprint must already be applied (same specs, same order);
        the journal tail above the snapshot's frame index is then
        replayed through :meth:`ingest` / :meth:`deploy_spec` as usual.
        An older snapshot's ``"published"`` field, a second count of
        ``"ingested"``, is ignored.
        """
        from ..durability.state import restore_operator

        operators, records = self.live_operators(), state["operators"]
        if len(operators) != len(records):
            raise SnapshotUnsupportedError(
                f"snapshot holds {len(records)} operator states but the "
                f"rebuilt pipeline enumerates {len(operators)} operators — "
                f"the blueprint diverged from the snapshot"
            )
        for operator, record in zip(operators, records):
            restore_operator(operator, record)
        detectors = list(self._detectors.values())
        recognized = state["recognized"]
        if len(detectors) != len(recognized):
            raise SnapshotUnsupportedError(
                f"snapshot carries {len(recognized)} detector counts but "
                f"{len(detectors)} specifications are deployed"
            )
        for detector, count in zip(detectors, recognized):
            detector.recognized = int(count)
        self.system.awareness._recognized_retired = int(
            state.get("recognized_retired", 0)
        )
        self.queue.seq = int(state["seq"])
        self.queue.records = list(state["pending"])
        self._ingested = int(state["ingested"])
        log_seq = state.get("log_seq")
        if _LOG.enabled and log_seq is not None:
            _LOG.set_seq(int(log_seq))

    # -- inspection --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """The shard's contribution to the federation aggregate."""
        awareness = self.system.awareness.stats()
        return {
            "events_ingested": self._ingested,
            "frames_ingested": self._frames,
            "composites_recognized": awareness["composites_recognized"],
            "notifications": self.queue.seq,
            "queue_depth": self.queue.pending_count(),
            "specs_deployed": len(self._detectors),
            "bus_published": self._ingested,
            "instrumented": 1 if _OBS.enabled else 0,
        }

    def close(self) -> None:
        self.queue.close()
