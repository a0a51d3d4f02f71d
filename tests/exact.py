"""Type-exact comparison of decoded values, shared by the codec,
journal and snapshot tests."""

from repro.events.event import Event
from repro.observability.provenance import ProvenanceNode


def exactly(a, b):
    """Deep equality that ``==`` is too lax for: the same types all the
    way down (``1`` is not ``True`` is not ``1.0``, ``0.0`` is not
    ``-0.0``), dict keys in the same order, an event's type the same
    object, its provenance equal node for node."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return repr(a) == repr(b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(exactly, a, b))
    if isinstance(a, frozenset):
        twin = {member: member for member in b}
        return a == b and all(exactly(member, twin[member]) for member in a)
    if isinstance(a, dict):
        return exactly(list(a.items()), list(b.items()))
    if isinstance(a, Event):
        return (
            a.event_type is b.event_type
            and exactly(dict(a.params), dict(b.params))
            and exactly(a.provenance, b.provenance)
        )
    if isinstance(a, ProvenanceNode):
        return all(
            exactly(getattr(a, name), getattr(b, name))
            for name in ProvenanceNode.__slots__
        )
    return a == b


def as_decoded(value):
    """*value* as the codec hands it back: every event's ``type``
    parameter comes last (events inside dicts and lists included)."""
    if isinstance(value, Event):
        params = {k: v for k, v in value.params.items() if k != "type"}
        twin = Event.trusted(value.event_type, params)
        twin.provenance = value.provenance
        return twin
    if isinstance(value, dict):
        return {key: as_decoded(member) for key, member in value.items()}
    if isinstance(value, list):
        return [as_decoded(member) for member in value]
    return value
