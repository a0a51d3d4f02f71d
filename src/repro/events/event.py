"""Self-contained events and event types (Section 5).

In AM, an event carries a set of name-value pairs called *event parameters*
that give detail about what occurred.  Events are **self-contained**: an
event's parameters completely describe the event — including its type, its
time, and its source.  This differs from active databases, where events may
reference state held elsewhere.  Because events are self-contained,
composite events *summarize* the parameters of their constituent events.

An :class:`EventType` is a named set of :class:`ParameterSpec` declarations.
Event-type conformance is what the typed event streams of awareness
descriptions check when wiring producers to operator slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..errors import EventError, EventTypeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .canonical import CanonicalEvent

#: Parameter names every event must carry (self-containedness).
REQUIRED_PARAMETERS = ("type", "time", "source")

#: The Python type behind each coarse ``value_type`` tag (``"any"`` has none).
_SIMPLE_TYPES: Dict[str, type] = {
    "int": int,
    "str": str,
    "float": float,
    "bool": bool,
    "set": frozenset,
}

#: What a decoded run builds each of its events with.
_new = object.__new__

#: Stand-in for a parameter the event does not carry.
_MISSING: Any = type("Missing", (), {})()


@dataclass(frozen=True)
class ParameterSpec:
    """Declaration of one event parameter.

    ``value_type`` is a coarse tag: ``"int"``, ``"str"``, ``"float"``,
    ``"bool"``, ``"set"``, or ``"any"``.  ``required`` parameters must be
    present (possibly ``None`` only when ``nullable``).  ``members``, on
    a ``"set"`` parameter, checks what the coarse tag cannot: the shape
    of each member (it raises :class:`EventTypeError`).
    """

    name: str
    value_type: str = "any"
    required: bool = True
    nullable: bool = True
    members: Optional[Callable[[Iterable[Any]], None]] = None

    def check(self, value: Any) -> None:
        if value is None:
            if not self.nullable:
                raise EventTypeError(
                    f"parameter {self.name!r} must not be null"
                )
            return
        if self.value_type == "any":
            return
        expected = _SIMPLE_TYPES.get(self.value_type)
        if expected is None:
            raise EventTypeError(
                f"parameter {self.name!r} declares unknown type "
                f"{self.value_type!r}"
            )
        if expected is int and isinstance(value, bool):
            raise EventTypeError(
                f"parameter {self.name!r} expects int, got bool"
            )
        if not isinstance(value, expected):
            raise EventTypeError(
                f"parameter {self.name!r} expects {self.value_type}, got "
                f"{type(value).__name__} {value!r}"
            )
        if self.members is not None:
            self.members(value)


class EventType:
    """A named event type: a set of parameter declarations.

    ``EventType`` objects compare by *name* (two independently constructed
    descriptions of ``C_P`` for the same process schema are the same type),
    which is what stream type-checking uses.
    """

    #: How this type's events are represented, decided here and nowhere
    #: else: ``None`` — an event holds its parameter mapping — or the
    #: record class whose typed fields hold them
    #: (:class:`~repro.events.canonical.CanonicalEvent` for ``C_P``).
    record: Optional[Type["CanonicalEvent"]] = None

    def __init__(self, name: str, parameters: Iterable[ParameterSpec]) -> None:
        self.name = name
        self._parameters: Dict[str, ParameterSpec] = {}
        for spec in parameters:
            if spec.name in self._parameters:
                raise EventTypeError(
                    f"duplicate parameter {spec.name!r} in event type {name!r}"
                )
            self._parameters[spec.name] = spec
        for required in REQUIRED_PARAMETERS:
            if required not in self._parameters:
                raise EventTypeError(
                    f"event type {name!r} must declare the {required!r} "
                    f"parameter (events are self-contained)"
                )
        #: Conformance plan: one ``(name, accept, spec)`` row per parameter
        #: that constrains anything, ``accept`` being the exact value
        #: types settled inline.  An undeclared tag maps to ``None``, which
        #: is no value's type, so ``check`` gets to report it.  ``spec`` is
        #: ``None`` on a row only absence fails (a required, nullable
        #: ``any``): any present value passes it without a ``check`` call.
        plan: List[Tuple[str, Tuple[Any, ...], Optional[ParameterSpec]]] = []
        for spec in self._parameters.values():
            accept: Tuple[Any, ...] = ()
            check: Optional[ParameterSpec] = spec
            if spec.value_type != "any":
                accept = (_SIMPLE_TYPES.get(spec.value_type),)
                if spec.nullable:
                    accept += (type(None),)
            elif spec.nullable:
                if not spec.required:
                    continue
                check = None
            if not spec.required:
                accept += (type(_MISSING),)
            plan.append((spec.name, accept, check))
        self._plan = tuple(plan)
        #: ``(name, members)`` per set parameter whose members are
        #: checked; run after the plan, on present non-null values only.
        self._members = tuple(
            (spec.name, spec.members)
            for spec in self._parameters.values()
            if spec.members is not None
        )
        #: The plan by column (:meth:`admits`): ``(name, required,
        #: accept, nullable)`` per row, ``accept`` the exact value types
        #: as a set, or ``None`` for an ``any``.
        self._columns = tuple(
            (
                name,
                type(_MISSING) not in accept,
                None if spec is None or spec.value_type == "any"
                else frozenset(accept),
                spec is None or spec.nullable,
            )
            for name, accept, spec in plan
        )
        #: Whether :meth:`admits` can run every ``members`` check on its
        #: covers: only on a ``set`` parameter is each row's value one of
        #: its cover's values (a cover may stand one int for an int column).
        self._members_by_cover = all(
            self._parameters[name].value_type == "set"
            for name, __ in self._members
        )

    def parameters(self) -> Tuple[ParameterSpec, ...]:
        return tuple(self._parameters.values())

    def parameter_names(self) -> Tuple[str, ...]:
        return tuple(self._parameters)

    def has_parameter(self, name: str) -> bool:
        return name in self._parameters

    def conforms(self, params: Mapping[str, Any]) -> None:
        """Raise :class:`EventTypeError` unless *params* fit this type.

        Every declared parameter is checked on every call, against the
        plan compiled in ``__init__``: a value of exactly a declared type
        (or a permitted ``None``) is settled inline; subclass instances,
        ``bool`` offered as ``int`` and every error go through
        :meth:`ParameterSpec.check`, which owns the messages.  A set
        parameter that declares ``members`` has them checked last.
        """
        for name, accept, spec in self._plan:
            try:
                value = params[name]
            except KeyError:
                value = _MISSING
            if type(value) not in accept:
                if value is _MISSING:
                    raise EventTypeError(
                        f"event of type {self.name!r} is missing required "
                        f"parameter {name!r}"
                    )
                if spec is not None:
                    spec.check(value)
        # Present: every event type declares ``type`` as a required parameter.
        if params["type"] != self.name:
            raise EventTypeError(
                f"event declares type {params['type']!r} but was checked "
                f"against {self.name!r}"
            )
        for name, members in self._members:
            value = params.get(name)
            if value is not None:
                members(value)

    def admits(self, covers: Mapping[str, Sequence[Any]]) -> bool:
        """Whether a run of events conforms, judged by column.

        *covers* maps a parameter name to its run's *cover*: values
        among which every row's value of that parameter is, type for
        type — the very object, or in a column of ints one int standing
        for all of them; a name the run's key schema lacks has no cover.
        ``True`` means every event of the run would pass
        :meth:`conforms`.  ``False`` means the covers cannot tell: the
        caller checks the run row by row, which raises exactly the
        error :meth:`conforms` raises (or admits a run whose covers held
        a value no row takes).  So the answer is sound, never an error:
        each cover holds only exact accepted types (a subclass, a
        ``bool`` offered as ``int``, a ``None`` where it is not allowed
        and a missing required name all say ``False``), ``type`` holds
        only this type's name, and ``members`` runs once per distinct
        non-null cover value.
        """
        for name, required, accept, nullable in self._columns:
            cover = covers.get(name)
            if cover is None:
                if required:
                    return False
            elif accept is not None:
                if not accept.issuperset(map(type, cover)):
                    return False
            elif not nullable and type(None) in map(type, cover):
                return False
        if not {self.name}.issuperset(covers["type"]):
            return False
        if self._members:
            if not self._members_by_cover:
                return False
            for name, members in self._members:
                cover = covers.get(name)
                if cover is None:
                    continue
                # Distinct by identity: an equal value may differ in type.
                for value in dict(zip(map(id, cover), cover)).values():
                    if value is not None:
                        try:
                            members(value)
                        except Exception:
                            # Whatever it raised, the value may be one
                            # no row takes; the row-wise check decides.
                            return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventType):
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventType({self.name!r}, {len(self._parameters)} params)"


def base_parameters() -> Tuple[ParameterSpec, ...]:
    """The three parameters every self-contained event type declares."""
    return (
        ParameterSpec("type", "str", nullable=False),
        ParameterSpec("time", "int", nullable=False),
        ParameterSpec("source", "str", nullable=False),
    )


class Event:
    """An immutable, self-contained event.

    Construction validates the parameters against the event type.  The
    parameter mapping is exposed read-only; ``event["time"]`` and
    ``event.get("intInfo")`` give dict-like access.

    The event type decides the representation (:attr:`EventType.record`):
    an ``Event`` holds its parameter mapping, and an event of a type with
    a record class — every ``C_P`` — is built as that record whichever
    constructor is called.

    ``provenance`` is the one instrumentation channel: while pipeline
    instrumentation is enabled (:mod:`repro.observability`) producers and
    operators stamp each event with the
    :class:`~repro.observability.provenance.ProvenanceNode` that explains
    where it came from.  The slot is always initialised to ``None`` (a
    plain attribute load is cheaper for the instrumented paths than a
    ``getattr`` default on an unset slot); the event's *parameters*
    remain immutable either way.
    """

    __slots__ = ("_event_type", "_params", "provenance")

    _event_type: EventType
    _params: Mapping[str, Any]
    provenance: Optional[Any]

    def __new__(cls, event_type: EventType, params: Mapping[str, Any]) -> "Event":
        merged = dict(params)
        merged.setdefault("type", event_type.name)
        event_type.conforms(merged)
        return cls.trusted(event_type, merged)

    @classmethod
    def trusted(cls, event_type: EventType, params: Dict[str, Any]) -> "Event":
        """Construct without re-validating *params* against *event_type*.

        The dispatch-path fast constructor.  Conformance is checked once,
        where an event enters from outside the detector plan —
        ``ShardHost.ingest`` for every frame (serial, process, journal
        replay), ``EventOperator.consume`` for a hand-fed event — or is
        guaranteed by construction, as when the built-in producers
        translate already-typed engine records.  Inside the linked plan
        the kernels build each output from values that are already
        typed, so a per-output check would re-prove what the door
        proved.  Callers must guarantee conformance (including a correct
        ``type`` parameter); events built from external input should use
        the validating constructor or pass one of the doors.  A record
        type still refuses a parameter it does not declare.
        """
        if "type" not in params:
            params["type"] = event_type.name
        record = event_type.record
        if record is not None:
            return record.from_params(event_type, params)
        self = object.__new__(cls)
        self._event_type = event_type
        self._params = MappingProxyType(params)
        self.provenance = None
        return self

    @property
    def event_type(self) -> EventType:
        return self._event_type

    @property
    def type_name(self) -> str:
        return self._event_type.name

    @property
    def time(self) -> int:
        time: int = self._params["time"]
        return time

    @property
    def source(self) -> str:
        source: str = self._params["source"]
        return source

    @property
    def params(self) -> Mapping[str, Any]:
        return self._params

    def __getitem__(self, name: str) -> Any:
        try:
            return self._params[name]
        except KeyError:
            raise EventError(
                f"event of type {self.type_name!r} has no parameter {name!r}"
            ) from None

    def get(self, name: str, default: Any = None) -> Any:
        return self._params.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def derive(self, event_type: Optional[EventType] = None, **overrides: Any) -> "Event":
        """A copy with some parameters replaced (composite-event helper).

        The validating door for application code: the merged parameters
        run the (new) type's full conformance plan.  The built-in
        kernels do not call it; they build their outputs from typed
        values, as records.
        """
        new_type = event_type or self._event_type
        merged = self._params | overrides
        merged["type"] = new_type.name
        new_type.conforms(merged)
        return Event.trusted(new_type, merged)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        interesting = {
            k: v
            for k, v in self._params.items()
            if k not in ("type",) and v is not None
        }
        return f"Event({self.type_name!r}, {interesting})"


class ColumnRun:
    """A run of events of one type held as columns: a decoded ``ROWS``
    record before any of its events exists.

    *columns* maps each parameter name, in key order with ``type`` last,
    to one value per row, indexed by row; *covers* are the decoder's
    (see :meth:`EventType.admits`).  A row's parameter mapping
    (:meth:`mapping`) and its :class:`Event` (:meth:`row`) are built
    when first asked for, once: a row read only by column entries never
    becomes an object.  The run stands for its rows where an entry reads
    the event type or provenance of its input: every row is of
    ``_event_type``, and none carries provenance.  A run of a record
    type (every ``C_P``) is only ever built whole (:meth:`events`).
    """

    __slots__ = ("_event_type", "columns", "covers", "_mappings", "_events")

    #: No row of a run carries provenance (an event that does travels
    #: as its own record).
    provenance = None

    def __init__(
        self,
        event_type: EventType,
        columns: Dict[Any, Sequence[Any]],
        covers: Dict[Any, Any],
    ) -> None:
        self._event_type = event_type
        self.columns = columns
        self.covers = covers
        self._mappings: Optional[List[Any]] = None
        self._events: Optional[List[Any]] = None

    def __len__(self) -> int:
        return len(self.columns["type"])

    def mapping(self, i: int) -> Mapping[str, Any]:
        """Row *i*'s parameter mapping, as its event holds it."""
        mappings = self._mappings
        if mappings is None:
            mappings = self._mappings = [None] * len(self)
        params = mappings[i]
        if params is None:
            columns = self.columns
            params = mappings[i] = MappingProxyType(
                dict(zip(columns, [column[i] for column in columns.values()]))
            )
        return params

    def row(self, i: int) -> Event:
        """Row *i* as an :class:`Event`."""
        events = self._events
        if events is None:
            events = self._events = [None] * len(self)
        event = events[i]
        if event is None:
            event = events[i] = _new(Event)
            event._event_type = self._event_type
            event._params = self.mapping(i)
            event.provenance = None
        return event

    def events(self) -> List[Event]:
        """Every row as an event, in order; rows already built are the
        same objects."""
        if self._events is not None or self._mappings is not None:
            return [self.row(i) for i in range(len(self))]
        event_type = self._event_type
        columns = self.columns
        rows = map(dict, map(zip, repeat(tuple(columns)), zip(*columns.values())))
        record = event_type.record
        if record is not None:
            events = [record.from_params(event_type, params) for params in rows]
        else:
            events = []
            append = events.append
            for params in rows:
                # ``Event.trusted``, inlined: the one per-event step.
                event = _new(Event)
                event._event_type = event_type
                event._params = MappingProxyType(params)
                event.provenance = None
                append(event)
        self._events = events
        return list(events)
