"""The canonical event type ``C_P`` (Section 5.1.2).

Nearly all AM operators take inputs and produce outputs of a canonical event
type associated with a process schema ``P``.  The canonical type carries:

* ``time`` — when the (composite) event occurred;
* ``processSchemaId`` and ``processInstanceId`` — which process instance the
  event belongs to (operators use ``processInstanceId`` to partition their
  internal state, Section 5.1.2 "process instance replication");
* generic information parameters whose meaning depends on the operator that
  generated the event: ``intInfo`` (a generic integer, e.g. a count, a
  deadline tick, or a copied context value), ``strInfo`` (a generic string),
  and ``description`` (human-readable digest text);
* ``sourceEvent`` — a digest of the triggering constituent event's
  parameters, preserving self-containedness when events are composed.

The canonical type is what makes operators freely composable and maximally
reusable: any operator output can feed any operator input slot typed
``C_P`` for the same process schema.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import EventTypeError
from .event import Event, EventType, ParameterSpec, base_parameters

#: Prefix of every canonical event type name.
CANONICAL_PREFIX = "C["

#: The parameters of ``C_P`` a record holds as fields (named after them),
#: in declaration order.
FIELDS = (
    "time",
    "source",
    "processSchemaId",
    "processInstanceId",
    "intInfo",
    "strInfo",
    "description",
    "sourceEvent",
)

#: The key order of a record's mapping unless a mapping decided it: every
#: parameter in declaration order, then ``type`` — the order every
#: built-in filter has always listed them in.
CANONICAL_KEYS = FIELDS + ("type",)

_new = object.__new__


class CanonicalEvent(Event):
    """A ``C_P`` event as a record: one typed field per parameter.

    Every operator between a filter and an ``Output`` speaks ``C_P``, so
    the kernels read and write these fields directly, and build each
    output as one object (from scratch in a filter, from its input
    through :meth:`relayed` elsewhere).  The parameter mapping
    (:attr:`params`) is built once, on first demand — a tap, application
    code, the codec — in :attr:`_keys` order; a record built from a
    mapping (the validating constructor, :meth:`Event.trusted`,
    ``derive``, a decoded frame) keeps that mapping as it came.  A
    kernel gives an output its input's ``_keys``; a mapping built for
    one appends each parameter the input lacked and the output sets,
    which is where ``params | overrides`` put it.

    The fields are set where the record is built, before it is emitted;
    nothing assigns them afterwards (the mapping would not follow).
    """

    __slots__ = FIELDS + ("_keys", "_mapping")

    time: int
    source: str
    processSchemaId: str
    processInstanceId: str
    intInfo: Optional[int]
    strInfo: Optional[str]
    description: Optional[str]
    sourceEvent: Any
    _keys: Tuple[str, ...]
    _mapping: Optional[Mapping[str, Any]]

    @classmethod
    def from_params(cls, event_type: EventType, params: Dict[str, Any]) -> "CanonicalEvent":
        """The record of *params* (which carry ``type``), keeping them as
        its mapping; unchecked, like :meth:`Event.trusted`, except that a
        parameter ``C_P`` does not declare is refused."""
        for key in params:
            if key not in CANONICAL_KEYS:
                raise EventTypeError(
                    f"event type {event_type.name!r} declares no parameter "
                    f"{key!r}"
                )
        self = _new(cls)
        self._event_type = event_type
        self.provenance = None
        get = params.get
        self.time = get("time")
        self.source = get("source")
        self.processSchemaId = get("processSchemaId")
        self.processInstanceId = get("processInstanceId")
        self.intInfo = get("intInfo")
        self.strInfo = get("strInfo")
        self.description = get("description")
        self.sourceEvent = get("sourceEvent")
        keys = tuple(params)
        self._keys = CANONICAL_KEYS if keys == CANONICAL_KEYS else keys
        self._mapping = MappingProxyType(params)
        return self

    @property
    def _params(self) -> Mapping[str, Any]:
        mapping = self._mapping
        if mapping is None:
            mapping = self._mapping = MappingProxyType(self._materialize())
        return mapping

    @_params.setter
    def _params(self, mapping: Mapping[str, Any]) -> None:
        # Settable, as the attribute it overrides; nothing here assigns
        # it (``from_params`` presets ``_mapping`` itself).
        self._mapping = mapping

    def relayed(self, source: str) -> "CanonicalEvent":
        """A new record of this one's parameters, emitted by operator
        *source*: where an output that copies its input starts.  Its
        kernel then sets the fields it changes, before emitting it."""
        output = _new(CanonicalEvent)
        output._event_type = self._event_type
        output.provenance = None
        output.time = self.time
        output.source = source
        output.processSchemaId = self.processSchemaId
        output.processInstanceId = self.processInstanceId
        output.intInfo = self.intInfo
        output.strInfo = self.strInfo
        output.description = self.description
        output.sourceEvent = self.sourceEvent
        output._keys = self._keys
        output._mapping = None
        return output

    def _materialize(self) -> Dict[str, Any]:
        """The parameter mapping of a record a kernel built."""
        keys = self._keys
        if keys is not CANONICAL_KEYS:
            # Its input was built from a mapping of its own shape: keep
            # that, and append what the kernel set that the input lacked.
            keys += tuple(
                name
                for name in FIELDS
                if name not in keys and getattr(self, name) is not None
            )
        type_name = self._event_type.name
        return {key: type_name if key == "type" else getattr(self, key) for key in keys}


def canonical_type_name(process_schema_id: str) -> str:
    """The type name of ``C_P`` for process schema *process_schema_id*."""
    return f"{CANONICAL_PREFIX}{process_schema_id}]"


def is_canonical(type_name: str) -> bool:
    """True when *type_name* names a canonical type ``C_P`` for some P."""
    return type_name.startswith(CANONICAL_PREFIX) and type_name.endswith("]")


_TYPE_CACHE: dict = {}


def canonical_type(process_schema_id: str) -> EventType:
    """Return (and cache) the canonical event type for a process schema.

    The one place a ``C_P`` type is minted, and so the one place its
    events are declared records."""
    cached = _TYPE_CACHE.get(process_schema_id)
    if cached is not None:
        return cached
    event_type = EventType(
        canonical_type_name(process_schema_id),
        (
            *base_parameters(),
            ParameterSpec("processSchemaId", "str", nullable=False),
            ParameterSpec("processInstanceId", "str", nullable=False),
            ParameterSpec("intInfo", "int", required=False),
            ParameterSpec("strInfo", "str", required=False),
            ParameterSpec("description", "str", required=False),
            ParameterSpec("sourceEvent", "any", required=False),
        ),
    )
    event_type.record = CanonicalEvent
    _TYPE_CACHE[process_schema_id] = event_type
    return event_type


def canonical_event(
    process_schema_id: str,
    process_instance_id: str,
    time: int,
    source: str,
    int_info: Optional[int] = None,
    str_info: Optional[str] = None,
    description: Optional[str] = None,
    source_event: Optional[Mapping[str, Any]] = None,
    event_type: Optional[EventType] = None,
) -> CanonicalEvent:
    """Construct a canonical event for process schema *process_schema_id*.

    Callers with the ``C_P`` object at hand pass it as *event_type* to
    skip the type-cache lookup.  The record is built from typed
    arguments, unchecked (as :meth:`Event.trusted`).
    """
    event = _new(CanonicalEvent)
    event._event_type = (
        event_type if event_type is not None else canonical_type(process_schema_id)
    )
    event.provenance = None
    event.time = time
    event.source = source
    event.processSchemaId = process_schema_id
    event.processInstanceId = process_instance_id
    event.intInfo = int_info
    event.strInfo = str_info
    event.description = description
    # No defensive copy: callers pass an Event's read-only params
    # mapping (or a dict they own), both safe to hold by reference.
    event.sourceEvent = source_event
    event._keys = CANONICAL_KEYS
    event._mapping = None
    return event
