"""Primitive event producers (Section 5.1.1).

CMI currently implements two primitive event producers, both reproduced
here with the exact parameter lists of the paper:

* ``E_activity`` — an *activity state change event* each time a CMI
  activity changes state, with parameters time, activityInstanceId,
  parentProcessSchemaId, parentProcessInstanceId, user, activityVariableId,
  activityProcessSchemaId, oldState and newState;
* ``E_context`` — a *context field change event* each time a field in a
  context resource is modified, with parameters time, contextId, the set of
  ``(processSchemaId, processInstanceId)`` tuples of associated processes,
  fieldName, oldFieldValue and newFieldValue.

Producers translate the CORE engine's change records into self-contained
:class:`~repro.events.event.Event` objects, route each one to the detector
steps registered for it, and then, while someone taps the stream, publish
it on the attached bus.  They are the engine-side half of the *event
source agents* of Section 6.3 (the agent wrapper lives in
:mod:`repro.awareness.sources`).
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.context import ContextChange
from ..core.instances import ActivityStateChange
from ..errors import EventTypeError
from ..observability import INSTRUMENTATION as _OBS
from ..observability import MetricsRegistry
from .bus import EventBus
from .event import ColumnRun, Event, EventType, ParameterSpec, base_parameters

#: What a producer calls with each routed event (the result is ignored).
Consumer = Callable[[Event], object]

#: Type name of activity state change events (``T_activity``).
ACTIVITY_EVENT_TYPE_NAME = "T_activity"

#: Type name of context field change events (``T_context``).
CONTEXT_EVENT_TYPE_NAME = "T_context"

#: Type name of system telemetry sample events (``T_system``).
SYSTEM_EVENT_TYPE_NAME = "T_system"

#: Fewest events of a run :meth:`EventProducer.admit` transposes into
#: columns.  Transposing and checking nine columns costs about 5 µs a
#: run, and saves about 0.8 µs an event against the row-wise check
#: (``T_context``, 2-core box): shorter runs are cheaper row by row.
COLUMNS_MIN = 16

_get_params = attrgetter("_params")
_NONE_TYPE = type(None)
_NONE = frozenset((_NONE_TYPE,))

ACTIVITY_EVENT_TYPE = EventType(
    ACTIVITY_EVENT_TYPE_NAME,
    (
        *base_parameters(),
        ParameterSpec("activityInstanceId", "str", nullable=False),
        ParameterSpec("parentProcessSchemaId", "str"),
        ParameterSpec("parentProcessInstanceId", "str"),
        ParameterSpec("user", "str"),
        ParameterSpec("activityVariableId", "str"),
        ParameterSpec("activityProcessSchemaId", "str"),
        ParameterSpec("oldState", "str", nullable=False),
        ParameterSpec("newState", "str", nullable=False),
    ),
)


def check_associations(associations: Iterable[Any]) -> None:
    """Raise :class:`EventTypeError` unless every member of a ``T_context``
    association set is a ``(processSchemaId, processInstanceId)`` pair of
    strings.

    The ``members`` check of ``T_context``'s ``processAssociations``: the
    coarse tag can only say the parameter is a set, and its members are
    what a filter sorts and turns into ``processInstanceId``, so a member
    of another shape is refused wherever the type is checked — the
    validating constructor, the ingest door, ``consume``.
    """
    for member in associations:
        if not (
            isinstance(member, tuple)
            and len(member) == 2
            and isinstance(member[0], str)
            and isinstance(member[1], str)
        ):
            raise EventTypeError(
                f"parameter 'processAssociations' expects "
                f"(processSchemaId, processInstanceId) pairs of str, got "
                f"{type(member).__name__} {member!r}"
            )


CONTEXT_EVENT_TYPE = EventType(
    CONTEXT_EVENT_TYPE_NAME,
    (
        *base_parameters(),
        ParameterSpec("contextId", "str", nullable=False),
        ParameterSpec("contextName", "str", nullable=False),
        # The {(processSchemaId, processInstanceId)} association set.
        ParameterSpec("processAssociations", "set", nullable=False, members=check_associations),
        ParameterSpec("fieldName", "str", nullable=False),
        ParameterSpec("oldFieldValue", "any"),
        ParameterSpec("newFieldValue", "any"),
    ),
)

#: ``T_system`` — one telemetry sample of one metric series, published by
#: the system telemetry source agent when it reads the per-system
#: :class:`~repro.observability.registry.MetricsRegistry` on clock
#: advance.  ``metric`` names the sampled series (possibly a derived
#: ``rate[...]``/``stale[...]`` series), ``seriesLabel`` its label value
#: (``None`` for unlabelled / total series), and ``value`` the sampled
#: integer.  The events are self-contained like every primitive type:
#: SLO filters canonicalize them for the ordinary operator algebra.
SYSTEM_EVENT_TYPE = EventType(
    SYSTEM_EVENT_TYPE_NAME,
    (
        *base_parameters(),
        ParameterSpec("systemId", "str", nullable=False),
        ParameterSpec("metric", "str", nullable=False),
        ParameterSpec("seriesLabel", "str"),
        ParameterSpec("value", "int", nullable=False),
    ),
)


class EventProducer:
    """Base class: an identified producer of one event type, and the router
    of its events.

    Detector leaves register on the producer (:meth:`add_consumer` — the
    awareness wiring rule hands it an operator's linked ``step`` and that
    operator's static routing keys); ``emit`` calls the registered
    consumers first and then, while the attached bus has a tap on its
    event type, publishes the event there.  This index is the only place
    an event is routed.

    Producers whose subclass names a *routing key*
    (:meth:`set_routing_key`: ``T_activity`` keys on ``(parentProcessSchemaId,
    activityVariableId)``, ``T_context`` on ``(contextName, fieldName)``,
    ``T_system`` on the metric name) dispatch each event to the consumers
    registered under the event's key, then to the wildcard consumers, so
    per-event cost is O(matching consumers) instead of O(all consumers).
    Consumers that cannot name static keys (dynamic predicates, monitors)
    register unkeyed and see everything.  A producer *without* a
    routing key (a bare :class:`EventProducer`, an external source) cannot
    tell which key an event carries, so it files every consumer as
    wildcard whatever keys it was offered.

    A producer checks nothing on ``emit``: the built-in producers build
    their events from already-typed engine records, and an event that
    enters from outside — a decoded frame, a journal replay — is checked
    once at the ingest door against :meth:`admit` before any event of
    its frame is emitted.  The steps it dispatches to trust that check.
    """

    def __init__(
        self,
        producer_id: str,
        output_type: EventType,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.producer_id = producer_id
        self.output_type = output_type
        #: The declared parameter names: the columns :meth:`admit`
        #: transposes a run into.
        self._names = output_type.parameter_names()
        #: The attached bus while its topic is tapped, else ``None``:
        #: the bus links and unlinks it (:meth:`EventBus.subscribe`).
        self._bus: Optional[EventBus] = None
        #: The buckets are copy-on-write: registration replaces a list and
        #: never mutates one, so a dispatch in flight keeps iterating the
        #: list it started with.
        self._wildcard: List[Consumer] = []
        #: Routing key -> consumers; non-empty only under a routing key.
        self._index: Dict[Hashable, List[Consumer]] = {}
        self._key_extractor: Optional[Callable[[Event], Hashable]] = None
        #: The parameters the routing key is made of (:meth:`set_routing_key`).
        self._key_names: Optional[Tuple[str, ...]] = None
        #: Bumped by every registration change: a run's resolved buckets
        #: (:meth:`emit_run`) are stale once it moves.
        self._changes = 0
        #: Emission totals live in the registry (the system registry when
        #: wired by a source agent, a private one otherwise); ``emitted``
        #: stays available as a read-only view.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._emitted = self.metrics.counter(
            "producer_emitted_total",
            "Primitive events emitted, by producer",
            ("producer",),
        ).child((producer_id,))
        #: Shared attribute dict for this producer's ``source.emit`` spans.
        self._span_attrs: Dict[str, object] = {
            "producer": producer_id,
            "type": output_type.name,
        }

    @property
    def emitted(self) -> int:
        """Events emitted so far (a view over the registry counter)."""
        return int(self._emitted.value())

    def attach(self, bus: EventBus) -> None:
        """File this producer on *bus*: it publishes there while its event
        type has a subscriber."""
        bus.file_producer(self)

    def set_routing_key(self, names: Tuple[str, ...]) -> None:
        """Route this producer's events by the parameters *names*: one
        name keys on its value, several on the tuple of theirs.  The key
        is read off an event (:attr:`key_extractor`) or, for a decoded
        run, off its columns (:meth:`emit_run`)."""
        get = itemgetter(*names)
        self._key_names = names
        self._key_extractor = lambda event: get(event._params)

    @property
    def key_extractor(self) -> Optional[Callable[[Event], Hashable]]:
        return self._key_extractor

    def add_consumer(
        self,
        consumer: Consumer,
        keys: Optional[Iterable[Hashable]] = None,
    ) -> Consumer:
        """Register *consumer*; returns it as the removal handle.

        With ``keys`` the consumer is indexed under those routing keys and
        only sees events whose key matches; without (or on a producer with
        no routing key), it joins the wildcard bucket and sees every
        event.  Awareness descriptions and the plan cache register an
        operator's linked ``step`` here directly.
        """
        if keys is None or self._key_extractor is None:
            self._wildcard = self._wildcard + [consumer]
        else:
            for key in keys:
                self._index[key] = self._index.get(key, []) + [consumer]
        self._changes += 1
        return consumer

    def remove_consumer(self, consumer: Consumer) -> None:
        """Drop one registration of *consumer* — the first one equal to
        it — from the wildcard bucket and from each key bucket."""
        self._swap(consumer, None, None)

    def replace_consumer(
        self,
        consumer: Consumer,
        replacement: Consumer,
        keys: Optional[Iterable[Hashable]] = None,
    ) -> None:
        """Put *replacement* where one registration of *consumer* is: in
        the same buckets, at the same positions, so dispatch order holds.
        *keys* (those *consumer* was registered under, if known) narrows
        the search.  The plan cache swaps a detector leaf's entry this
        way when it relinks the segment the leaf roots."""
        self._swap(consumer, replacement, keys)

    def _swap(
        self,
        consumer: Consumer,
        replacement: Optional[Consumer],
        keys: Optional[Iterable[Hashable]],
    ) -> None:
        """Replace (or, given ``None``, drop) the first entry equal to
        *consumer* in the wildcard bucket and in each key bucket (of
        *keys*, when given), copy-on-write."""
        self._changes += 1
        if consumer in self._wildcard:
            self._wildcard = _swapped(self._wildcard, consumer, replacement)
        index = self._index
        if keys is None:
            keys = [key for key, bucket in index.items() if consumer in bucket]
        for key in keys:
            bucket = index.get(key)
            if bucket is not None and consumer in bucket:
                bucket = _swapped(bucket, consumer, replacement)
                if bucket:
                    index[key] = bucket
                else:
                    del index[key]

    def consumer_count(self) -> int:
        """Registered consumers; one under several keys counts once."""
        keyed = {id(c) for bucket in self._index.values() for c in bucket}
        return len(self._wildcard) + len(keyed)

    def indexed_key_count(self) -> int:
        """Distinct routing keys with at least one indexed consumer."""
        return len(self._index)

    def admit(self, events: Union[Sequence[Event], ColumnRun]) -> None:
        """Raise :class:`EventTypeError` unless every one of *events* —
        a list of events, or a decoded :class:`ColumnRun` — is an event
        this producer could have emitted.

        The check of an event entering from outside the detector plan
        (``ShardHost.ingest`` runs it on each same-type run of a frame
        before any event of the frame is emitted).  It is decided by
        column first: :meth:`_admits` on a decoded run's covers, or on a
        list's columns, transposed in C (a run of :data:`COLUMNS_MIN`
        events or more).  Only when the
        columns cannot pass the run is each row checked on its own
        (:meth:`_conforms`), which raises the first bad row's error:
        what is refused, and how, is the row-wise answer; only
        acceptance is cheaper.  Downstream, the linked kernels trust
        what passed here.
        """
        if type(events) is ColumnRun:
            run = events
            if self._admits(run.covers):
                return
            rows: Iterable[Mapping[str, Any]] = map(run.mapping, range(len(run)))
        else:
            if len(events) >= COLUMNS_MIN:
                names = self._names
                try:
                    covers = dict(
                        zip(names, zip(*map(itemgetter(*names), map(_get_params, events))))
                    )
                except KeyError:  # an event lacks a declared parameter
                    pass
                else:
                    if self._admits(covers):
                        return
            rows = map(_get_params, events)
        conforms = self._conforms
        for params in rows:
            conforms(params)

    def _admits(self, covers: Mapping[str, Sequence[Any]]) -> bool:
        """Whether the run whose covers these are conforms (see
        :meth:`EventType.admits`); ``False`` means: check row by row."""
        return self.output_type.admits(covers)

    def _conforms(self, params: Mapping[str, Any]) -> None:
        """The row-wise check of one event's parameters."""
        self.output_type.conforms(params)

    def emit(self, event: Event) -> Event:
        self._emitted.inc()
        if _OBS.enabled:
            _OBS.provenance.record_primitive(event, self.producer_id)
            tracer = _OBS.tracer
            span = tracer.begin(
                "source.emit", event._params["time"], self._span_attrs
            )
            try:
                self._dispatch(event)
                if self._bus is not None:
                    self._bus.publish(event)
            finally:
                tracer.end(span)
            return event
        self._dispatch(event)
        if self._bus is not None:
            self._bus.publish(event)
        return event

    def emit_batch(self, events: List[Event]) -> List[Event]:
        """Emit several events, publishing to a tapped bus as one batch."""
        self._emitted.inc(len(events))
        if _OBS.enabled:
            tracker = _OBS.provenance
            tracer = _OBS.tracer
            producer_id = self.producer_id
            attrs = self._span_attrs
            for event in events:
                tracker.record_primitive(event, producer_id)
                span = tracer.begin("source.emit", event._params["time"], attrs)
                try:
                    self._dispatch(event)
                finally:
                    tracer.end(span)
        else:
            for event in events:
                self._dispatch(event)
        if self._bus is not None:
            self._bus.publish_batch(events)
        return events

    def emit_run(self, run: ColumnRun) -> None:
        """Emit a decoded run's rows in order, building an event only
        for a row that needs one.

        Each row reaches the consumers of its routing key, in
        registration order, then the wildcard consumers — as
        :meth:`emit_batch` would dispatch the run's events.  A consumer
        with a column entry (``by_column``: a segment or hop rooted in a
        lifting filter) is called with the run and the row index, and
        reads the row's values off the columns; every other consumer,
        and the wildcard ones, get the row's event, built once.  The
        index is probed once per distinct key of the run, and again
        after a consumer registered or removed one.  While
        instrumentation is on, on a producer whose key the columns
        cannot give, and for a bus tapped once the rows are dispatched,
        the run's events are built (and are what the bus receives).
        """
        names = self._key_names
        if _OBS.enabled or names is None:
            self.emit_batch(run.events())
            return
        self._emitted.inc(len(run))
        columns = run.columns
        if len(names) == 1:
            keys: Iterable[Hashable] = columns[names[0]]
        else:
            keys = zip(*[columns[name] for name in names])
        resolved: Dict[Hashable, List[Callable[[ColumnRun, int], object]]] = {}
        lookup = resolved.get
        changes = self._changes
        for i, key in enumerate(keys):
            if self._changes != changes:
                resolved, changes = {}, self._changes
                lookup = resolved.get
            entries = lookup(key)
            if entries is None:
                bucket = self._index.get(key) if self._index else None
                entries = resolved[key] = list(map(_by_column, bucket or ()))
            for entry in entries:
                entry(run, i)
            wildcard = self._wildcard
            if wildcard:
                event = run.row(i)
                for consumer in wildcard:
                    consumer(event)
        if self._bus is not None:
            self._bus.publish_batch(run.events())

    def _dispatch(self, event: Event) -> None:
        """Key bucket, then wildcard — registration order within each.

        A consumer may register or remove consumers (its own entry
        included) while it runs; the buckets are copy-on-write, so this
        dispatch still iterates the lists as they were when it began.
        """
        extractor = self._key_extractor
        if extractor is not None and self._index:
            bucket = self._index.get(extractor(event))
            if bucket:
                for consumer in bucket:
                    consumer(event)
        for consumer in self._wildcard:
            consumer(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.producer_id!r})"


def _by_column(consumer: Consumer) -> Callable[[ColumnRun, int], object]:
    """What :meth:`EventProducer.emit_run` calls for *consumer* with a
    run and a row: its column entry, or the consumer on the row's
    event."""
    by_column: Optional[Callable[[ColumnRun, int], object]]
    by_column = getattr(consumer, "by_column", None)
    if by_column is not None:
        return by_column
    return lambda run, i: consumer(run.row(i))


def _swapped(
    bucket: List[Consumer], consumer: Consumer, replacement: Optional[Consumer]
) -> List[Consumer]:
    """A copy of *bucket* with its first entry equal to *consumer*
    replaced by *replacement*, or dropped when that is ``None``."""
    bucket = list(bucket)
    index = bucket.index(consumer)
    if replacement is None:
        del bucket[index]
    else:
        bucket[index] = replacement
    return bucket


class ActivityEventProducer(EventProducer):
    """``E_activity`` — the single source of activity state change events.

    Its door also holds the parent process whole:
    ``parentProcessSchemaId`` and ``parentProcessInstanceId`` are both
    ``None`` (a top-level process) or both set, as the engine emits them.
    A filter lifts the instance id of a matching parent schema, so a
    parent schema without its instance is refused at the door, with its
    frame, rather than by the filter mid-frame.
    """

    def __init__(
        self,
        producer_id: str = "E_activity",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(producer_id, ACTIVITY_EVENT_TYPE, metrics)
        # Which activity variable of which process schema changed state.
        self.set_routing_key(("parentProcessSchemaId", "activityVariableId"))

    def _admits(self, covers: Mapping[str, Sequence[Any]]) -> bool:
        """As :meth:`EventProducer._admits`, and by cover the parent pair
        is whole: neither cover holds ``None``, or both hold only
        ``None``."""
        if not self.output_type.admits(covers):
            return False
        schemas = set(map(type, covers["parentProcessSchemaId"]))
        instances = set(map(type, covers["parentProcessInstanceId"]))
        if _NONE_TYPE in schemas or _NONE_TYPE in instances:
            return schemas <= _NONE and instances <= _NONE
        return True

    def _conforms(self, params: Mapping[str, Any]) -> None:
        self.output_type.conforms(params)
        schema = params["parentProcessSchemaId"]
        instance = params["parentProcessInstanceId"]
        if (schema is None) != (instance is None):
            raise EventTypeError(
                f"parameters 'parentProcessSchemaId' ({schema!r}) and "
                f"'parentProcessInstanceId' ({instance!r}) must both be "
                f"null or both be set"
            )

    def produce(self, change: ActivityStateChange) -> Event:
        """Translate a CORE state-change record into a ``T_activity`` event."""
        event = Event.trusted(
            ACTIVITY_EVENT_TYPE,
            {
                "time": change.time,
                "source": self.producer_id,
                "activityInstanceId": change.activity_instance_id,
                "parentProcessSchemaId": change.parent_process_schema_id,
                "parentProcessInstanceId": change.parent_process_instance_id,
                "user": change.user,
                "activityVariableId": change.activity_variable_id,
                "activityProcessSchemaId": change.activity_process_schema_id,
                "oldState": change.old_state,
                "newState": change.new_state,
            },
        )
        return self.emit(event)


class ContextEventProducer(EventProducer):
    """``E_context`` — the single source of context field change events."""

    def __init__(
        self,
        producer_id: str = "E_context",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(producer_id, CONTEXT_EVENT_TYPE, metrics)
        # Which field of which named context changed.
        self.set_routing_key(("contextName", "fieldName"))

    def _translate(self, change: ContextChange) -> Event:
        return Event.trusted(
            CONTEXT_EVENT_TYPE,
            {
                "time": change.time,
                "source": self.producer_id,
                "contextId": change.context_id,
                "contextName": change.context_name,
                "processAssociations": frozenset(change.associations),
                "fieldName": change.field_name,
                "oldFieldValue": change.old_value,
                "newFieldValue": change.new_value,
            },
        )

    def produce(self, change: ContextChange) -> Event:
        """Translate a context field change record into a ``T_context`` event."""
        return self.emit(self._translate(change))

    def produce_batch(self, changes: Iterable[ContextChange]) -> List[Event]:
        """Translate a burst of field changes and emit them as one batch.

        A tapped bus sees the whole batch in one
        :meth:`EventBus.publish_batch` call; direct consumers are
        dispatched per event as usual.
        """
        return self.emit_batch([self._translate(change) for change in changes])


class SystemEventProducer(EventProducer):
    """``E_system`` — the source of system telemetry sample events.

    The engine-side half of the system telemetry source agent
    (:class:`~repro.awareness.sources.SystemTelemetrySource`): the agent
    reads the metrics registry and hands each sample here to become a
    self-contained ``T_system`` event, batched per sampling pass.
    """

    def __init__(
        self,
        producer_id: str = "E_system",
        system_id: str = "cmi",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(producer_id, SYSTEM_EVENT_TYPE, metrics)
        self.system_id = system_id
        # Which metric was sampled: SLO filters key on the metric alone
        # and check the series label in their predicate.
        self.set_routing_key(("metric",))

    def _translate(
        self, time: int, metric: str, label: Optional[str], value: int
    ) -> Event:
        return Event.trusted(
            SYSTEM_EVENT_TYPE,
            {
                "time": time,
                "source": self.producer_id,
                "systemId": self.system_id,
                "metric": metric,
                "seriesLabel": label,
                "value": value,
            },
        )

    def produce(
        self, time: int, metric: str, label: Optional[str], value: int
    ) -> Event:
        """Emit one telemetry sample as a ``T_system`` event."""
        return self.emit(self._translate(time, metric, label, value))

    def produce_batch(
        self,
        time: int,
        samples: Iterable[Tuple[str, Optional[str], int]],
    ) -> List[Event]:
        """Emit one sampling pass — ``(metric, label, value)`` triples —
        as a single bus batch."""
        return self.emit_batch(
            [
                self._translate(time, metric, label, value)
                for metric, label, value in samples
            ]
        )
