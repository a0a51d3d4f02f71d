"""Exact comparison shared by the tests: decoded values type for type
(codec, journal and snapshot tests), and delivered notification streams
signature for signature (recovery tests)."""

from repro.events.event import Event
from repro.observability.provenance import ProvenanceNode
from repro.parallel.codec import BinaryDecoder


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


def decoded(records):
    """The frames of journal *records* (length prefix + self-contained
    payload, as ``FrameLog.tail`` hands them out)."""
    decoder = BinaryDecoder()
    return [decoder.decode_payload(record[4:]) for record in records]


def signatures(notifications):
    """The provenance-signature multiset of a delivered stream."""
    return sorted(map(repr, (n.signature for n in notifications)))


def per_instance(notifications):
    """Each process instance's signatures, in delivery order."""
    streams = {}
    for notification in notifications:
        streams.setdefault(notification.process_instance_id, []).append(
            notification.signature
        )
    return streams


def assert_same_stream(got, expected):
    """*got* delivers what *expected* does: the same signature multiset,
    and the same order within every process instance."""
    assert signatures(got) == signatures(expected)
    assert per_instance(got) == per_instance(expected)
