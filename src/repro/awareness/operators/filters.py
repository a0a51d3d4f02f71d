"""Filtering event operators (Section 5.1.3).

"A filter operator takes a primitive event producer as input and outputs
some subset of those events as specified by the operator's parameters.
Filtering event operators have a one-to-one correspondence with the
available primitive event types."

* :class:`ActivityFilter` —
  ``Filter_activity[P, Av, States_old, States_new](T_activity) -> C_P``
* :class:`ContextFilter` —
  ``Filter_context[P, Cname, Fname](T_context) -> C_P``
* :class:`ExternalFilter` / :class:`QueryCorrelationFilter` — the
  application-specific filter extension point of Sections 5.1.1/5.1.3 (a
  "sentinel filter" attached to an external source, here the news service).

Filters are the entry of every awareness description: they are where raw
primitive events acquire the canonical type and its ``processInstanceId``
partitioning parameter.  That makes them the *lift*: the primitive
arrived checked against its own type (at the ingest door, where a
``T_context`` association set's members are checked to be ``(str,
str)`` pairs), and the one value whose canonical declaration is stricter
than its primitive one — the instance id, nullable on ``T_activity`` —
is checked here to be a non-null ``str``.  Each output is then built as
one :class:`~repro.events.canonical.CanonicalEvent` record from typed
values, trusted (no per-output conformance run) by every operator
downstream.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Dict, List, Optional, Sequence, Tuple

from ...errors import EventTypeError, ParameterError
from ...events.canonical import (
    CANONICAL_KEYS,
    CanonicalEvent,
    canonical_event,
    canonical_type,
)
from ...events.event import Event, EventType
from ...events.external import NEWS_EVENT_TYPE
from ...events.producers import (
    ACTIVITY_EVENT_TYPE,
    CONTEXT_EVENT_TYPE,
    SYSTEM_EVENT_TYPE,
)
from .base import Emit, EventOperator, OperatorSignature, Step

_new = object.__new__


def _not_an_instance_id(operator: str, parameter: str, value: Any) -> EventTypeError:
    """The lift's refusal: *value* cannot become ``processInstanceId``."""
    return EventTypeError(
        f"operator {operator!r} needs {parameter!r} to be a non-null str "
        f"to use it as processInstanceId, got {type(value).__name__} {value!r}"
    )


class ActivityFilter(EventOperator):
    """Pass activity state changes of one activity variable of P.

    Emits a canonical event when an ``T_activity`` event reports that the
    activity bound to activity variable *Av* in process schema *P*
    transitioned from a state in *states_old* to a state in *states_new*.
    Passing ``None`` for either state set means "any state" (a reproduction
    convenience used by the monitoring baselines; the paper's examples
    always give explicit sets).

    The composite output summarizes the constituent: ``strInfo`` carries
    the new state and ``sourceEvent`` the full primitive parameters.
    """

    family = "Filter_activity"

    def __init__(
        self,
        process_schema_id: str,
        activity_variable: str,
        states_old: Optional[AbstractSet[str]] = None,
        states_new: Optional[AbstractSet[str]] = None,
        instance_name: Optional[str] = None,
    ) -> None:
        if not activity_variable:
            raise ParameterError("Filter_activity requires an activity variable Av")
        super().__init__(
            process_schema_id,
            OperatorSignature(
                (ACTIVITY_EVENT_TYPE,), canonical_type(process_schema_id)
            ),
            instance_name,
        )
        self.activity_variable = activity_variable
        self.states_old = frozenset(states_old) if states_old is not None else None
        self.states_new = frozenset(states_new) if states_new is not None else None

    def routing_keys(self, slot: int) -> List[Any]:
        """Static match key: only ``(P, Av)`` activity events can pass."""
        self._check_slot(slot)
        return [(self.process_schema_id, self.activity_variable)]

    def plan_params(self) -> Tuple[Any, ...]:
        old = tuple(sorted(self.states_old)) if self.states_old is not None else None
        new = tuple(sorted(self.states_new)) if self.states_new is not None else None
        return (self.process_schema_id, self.activity_variable, old, new)

    def bind(self, emit: Emit) -> Sequence[Step]:
        schema, variable = self.process_schema_id, self.activity_variable
        states_old, states_new = self.states_old, self.states_new
        name, output_type = self.instance_name, self.output_type

        def step(event: Event) -> None:
            params = event._params
            if (
                params["parentProcessSchemaId"] != schema
                or params["activityVariableId"] != variable
            ):
                return
            old_state, new_state = params["oldState"], params["newState"]
            if states_old is not None and old_state not in states_old:
                return
            if states_new is not None and new_state not in states_new:
                return
            instance = params["parentProcessInstanceId"]
            if not isinstance(instance, str):
                raise _not_an_instance_id(name, "parentProcessInstanceId", instance)
            output = _new(CanonicalEvent)
            output._event_type = output_type
            output.provenance = None
            output.time = params["time"]
            output.source = name
            output.processSchemaId = schema
            output.processInstanceId = instance
            output.intInfo = None
            output.strInfo = new_state
            output.description = f"activity {variable!r}: {old_state} -> {new_state}"
            output.sourceEvent = params
            output._keys = CANONICAL_KEYS
            output._mapping = None
            emit(output, event)

        return (step,)

    def describe(self) -> str:
        old = sorted(self.states_old) if self.states_old is not None else "*"
        new = sorted(self.states_new) if self.states_new is not None else "*"
        return (
            f"Filter_activity[{self.process_schema_id}, "
            f"{self.activity_variable}, {old}, {new}]"
        )


class ContextFilter(EventOperator):
    """Pass changes of one field of one named context associated with P.

    A context resource may be associated with several process instances
    (Section 5.1.1); the filter emits one canonical event *per instance of
    P* in the event's association set, so downstream per-instance
    replication sees the change in every affected scope.

    When the new field value is an int it is copied to ``intInfo``; string
    values go to ``strInfo`` (Section 5.1.3: "when appropriate, the new
    field value is copied to the intInfo output event parameter").
    """

    family = "Filter_context"

    def __init__(
        self,
        process_schema_id: str,
        context_name: str,
        field_name: str,
        instance_name: Optional[str] = None,
    ) -> None:
        if not context_name or not field_name:
            raise ParameterError(
                "Filter_context requires a context name and a field name"
            )
        super().__init__(
            process_schema_id,
            OperatorSignature(
                (CONTEXT_EVENT_TYPE,), canonical_type(process_schema_id)
            ),
            instance_name,
        )
        self.context_name = context_name
        self.field_name = field_name

    def routing_keys(self, slot: int) -> List[Any]:
        """Static match key: only ``(Cname, Fname)`` context events can pass."""
        self._check_slot(slot)
        return [(self.context_name, self.field_name)]

    def plan_params(self) -> Tuple[Any, ...]:
        return (self.process_schema_id, self.context_name, self.field_name)

    def bind(self, emit: Emit) -> Sequence[Step]:
        schema = self.process_schema_id
        context_name, field_name = self.context_name, self.field_name
        name, output_type = self.instance_name, self.output_type
        digest = f"context {context_name!r} field {field_name!r} = "

        def step(event: Event) -> None:
            params = event._params
            if (
                params["contextName"] != context_name
                or params["fieldName"] != field_name
            ):
                return
            new_value = params["newFieldValue"]
            int_info = (
                new_value
                if isinstance(new_value, int) and not isinstance(new_value, bool)
                else None
            )
            str_info = new_value if isinstance(new_value, str) else None
            # Every member is a (str, str) pair: T_context declares it,
            # so the door checked it before the event got here.
            associations = params["processAssociations"]
            if len(associations) > 1:
                associations = sorted(associations)
            for schema_id, instance_id in associations:
                if schema_id != schema:
                    continue
                output = _new(CanonicalEvent)
                output._event_type = output_type
                output.provenance = None
                output.time = params["time"]
                output.source = name
                output.processSchemaId = schema
                output.processInstanceId = instance_id
                output.intInfo = int_info
                output.strInfo = str_info
                output.description = f"{digest}{new_value!r}"
                output.sourceEvent = params
                output._keys = CANONICAL_KEYS
                output._mapping = None
                emit(output, event)

        return (step,)

    def describe(self) -> str:
        return (
            f"Filter_context[{self.process_schema_id}, "
            f"{self.context_name}, {self.field_name}]"
        )


class SystemFilter(EventOperator):
    """Pass telemetry samples of one metric (optionally one series).

    The ``T_system`` analogue of :class:`ContextFilter`: a sample of
    *metric* becomes a canonical event whose ``intInfo`` carries the
    sampled value, ready for the :class:`~.compare.Compare1` health
    predicates downstream.  ``series_label`` selects one labelled series
    (e.g. one participant's queue); ``None`` matches only the unlabelled
    total series and ``"*"`` matches every series of the metric.

    The canonical ``processInstanceId`` is the reporting system's id, so
    per-instance replication partitions health state per system when
    federated telemetry shares one bus.
    """

    family = "Filter_system"

    #: ``series_label`` wildcard: pass every series of the metric.
    ANY_SERIES = "*"

    def __init__(
        self,
        process_schema_id: str,
        metric: str,
        series_label: Optional[str] = None,
        instance_name: Optional[str] = None,
    ) -> None:
        if not metric:
            raise ParameterError("Filter_system requires a metric name")
        super().__init__(
            process_schema_id,
            OperatorSignature(
                (SYSTEM_EVENT_TYPE,), canonical_type(process_schema_id)
            ),
            instance_name,
        )
        self.metric = metric
        self.series_label = series_label

    def routing_keys(self, slot: int) -> List[Any]:
        """Static match key: only samples of ``metric`` can pass."""
        self._check_slot(slot)
        return [self.metric]

    def plan_params(self) -> Tuple[Any, ...]:
        return (self.process_schema_id, self.metric, self.series_label)

    def bind(self, emit: Emit) -> Sequence[Step]:
        schema, metric, series_label = (
            self.process_schema_id, self.metric, self.series_label
        )
        any_series = series_label == self.ANY_SERIES
        name, output_type = self.instance_name, self.output_type

        def step(event: Event) -> None:
            params = event._params
            if params["metric"] != metric:
                return
            label = params["seriesLabel"]
            if not any_series and label != series_label:
                return
            series = f"{metric}[{label}]" if label is not None else metric
            value = params["value"]
            output = _new(CanonicalEvent)
            output._event_type = output_type
            output.provenance = None
            output.time = params["time"]
            output.source = name
            output.processSchemaId = schema
            output.processInstanceId = params["systemId"]
            output.intInfo = value
            output.strInfo = label
            output.description = f"system metric {series} = {value}"
            output.sourceEvent = params
            output._keys = CANONICAL_KEYS
            output._mapping = None
            emit(output, event)

        return (step,)

    def describe(self) -> str:
        if self.series_label is None:
            return f"Filter_system[{self.process_schema_id}, {self.metric}]"
        return (
            f"Filter_system[{self.process_schema_id}, "
            f"{self.metric}, {self.series_label}]"
        )


class ExternalFilter(EventOperator):
    """Base for application-specific filters over external event sources.

    Subclasses provide the primitive event type, a match predicate, and a
    mapping from the external event to a process instance id; the base
    class does the canonicalization.  This is the "sentinel filter" slot of
    Section 5.1.3.
    """

    family = "Filter_external"

    def __init__(
        self,
        process_schema_id: str,
        input_type: EventType,
        instance_name: Optional[str] = None,
    ) -> None:
        super().__init__(
            process_schema_id,
            OperatorSignature((input_type,), canonical_type(process_schema_id)),
            instance_name,
        )

    def partition_key(self, slot: int, event: Event) -> Any:
        return None

    # routing_keys stays the base-class None: the match predicate is a
    # method (often over run-time state, e.g. bound queries), so external
    # filters ride the wildcard bucket and inspect every source event.
    # plan_params likewise stays None — the predicate and instance mapping
    # are run-time mutable (bind_query), so sharing across windows could
    # leak one window's bindings into another's recognitions.

    def matches(self, event: Event) -> bool:
        raise NotImplementedError

    def instance_for(self, event: Event) -> Optional[str]:
        """Map the external event to a process instance id (None = drop)."""
        raise NotImplementedError

    def digest(self, event: Event) -> str:
        return f"external event from {event.source}"

    def _apply(self, slot: int, event: Event, state: Any) -> List[Event]:
        if not self.matches(event):
            return []
        instance_id = self.instance_for(event)
        if instance_id is None:
            return []
        if not isinstance(instance_id, str):
            raise _not_an_instance_id(self.instance_name, "instance_for", instance_id)
        return [
            canonical_event(
                self.process_schema_id,
                instance_id,
                time=event.time,
                source=self.instance_name,
                str_info=event.get("headline"),
                description=self.digest(event),
                source_event=event.params,
                event_type=self.output_type,
            )
        ]


class QueryCorrelationFilter(ExternalFilter):
    """The paper's news-service correlation operator (Section 5.1.1).

    "An event from the news service would contain a query id that can be
    related back to the process instance through an application-specific
    event operator."  Process activities register their queries via
    :meth:`bind_query`; matching articles become canonical events of the
    owning process instance.
    """

    family = "Filter_news"

    def __init__(
        self,
        process_schema_id: str,
        instance_name: Optional[str] = None,
    ) -> None:
        super().__init__(process_schema_id, NEWS_EVENT_TYPE, instance_name)
        self._query_to_instance: Dict[str, str] = {}

    def bind_query(self, query_id: str, process_instance_id: str) -> None:
        """Relate a registered news query to a process instance."""
        self._query_to_instance[query_id] = process_instance_id

    def matches(self, event: Event) -> bool:
        return event["queryId"] in self._query_to_instance

    def instance_for(self, event: Event) -> Optional[str]:
        return self._query_to_instance.get(event["queryId"])

    def digest(self, event: Event) -> str:
        return f"news article matched query {event['queryId']}: {event['headline']}"
