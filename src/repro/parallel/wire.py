"""Wire vocabulary of the sharded execution layer, and its JSON form.

Workers and the :class:`~repro.parallel.federation.ShardedFederation`
facade exchange *frames*: a 4-byte big-endian length prefix followed by a
payload.  Pipes and journals write exactly one payload encoding, the
binary codec of :mod:`repro.parallel.codec`; this module holds what both
ends share whatever the bytes — the frame keys (sequence numbers, acks,
trace contexts), the event-type registry — and the *tagged JSON* form of
events and values.  JSON is no longer written to any channel; it stays
where it is the only path for a supported input or a human: journals
written before the binary codec existed (read by
:func:`repro.durability.log.load_journal`, upgraded once on open),
``repro journal --dump``, and the operator-state snapshots of
:mod:`repro.durability.state`.

In that form events use the canonical self-contained encoding the rest
of the repository already speaks: the event *type name* plus the flat
parameter mapping (:mod:`repro.events.canonical` — the type name alone
recovers the :class:`~repro.events.event.EventType`, including on-demand
``C[P]`` canonical types), mirroring how
:mod:`repro.core.serialization` ships process definitions as data.  The
value shapes JSON cannot express natively are tagged:

* ``frozenset`` (the ``processAssociations`` set of a ``T_context``
  event) becomes ``{"$fs": [...]}``, members sorted for deterministic
  bytes;
* ``tuple`` (association pairs, digest tuples) becomes ``{"$t": [...]}``;
* an event held as a value (a correlation operator's pending
  constituent, in a snapshot) becomes ``{"$ev": <wire event>}``, with
  its provenance chain so a recovered correlation emits byte-identical
  provenance;
* a mapping whose keys are not all plain strings (And partitions key
  slots by ``int``), or that itself contains a ``$``-prefixed key,
  becomes ``{"$m": [[key, value], ...]}`` so the tags can never be
  forged by payload data.  (``{"$d": {...}}``, the older wrapping of
  the ``$``-prefixed case, is still read.)

Recognition provenance is a parallel node tree, so full chains render
without pickling.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, IO, List, Mapping, Optional

from ..errors import WireError
from ..events.canonical import CANONICAL_PREFIX, canonical_type, is_canonical
from ..events.event import Event, EventType
from ..events.external import NEWS_EVENT_TYPE
from ..events.producers import (
    ACTIVITY_EVENT_TYPE,
    CONTEXT_EVENT_TYPE,
    SYSTEM_EVENT_TYPE,
)
from ..observability.provenance import ProvenanceNode

#: Non-canonical event types resolvable by name.  Applications with
#: custom external event types extend this via :func:`register_event_type`
#: (in every process that decodes their events).
_TYPE_REGISTRY: Dict[str, EventType] = {}


def register_event_type(event_type: EventType) -> None:
    """Make *event_type* resolvable by name when decoding wire events."""
    _TYPE_REGISTRY[event_type.name] = event_type


def _register_builtins() -> None:
    from ..awareness.operators.output import DELIVERY_EVENT_TYPE

    for event_type in (
        ACTIVITY_EVENT_TYPE,
        CONTEXT_EVENT_TYPE,
        SYSTEM_EVENT_TYPE,
        NEWS_EVENT_TYPE,
        DELIVERY_EVENT_TYPE,
    ):
        register_event_type(event_type)


def resolve_event_type(type_name: str) -> EventType:
    """Recover the :class:`EventType` named *type_name*.

    Canonical ``C[P]`` types are minted (and cached) from the embedded
    process schema id; primitive planes and ``T_delivery`` come from the
    registry.
    """
    if is_canonical(type_name):
        return canonical_type(type_name[len(CANONICAL_PREFIX):-1])
    event_type = _TYPE_REGISTRY.get(type_name)
    if event_type is None:
        raise WireError(f"cannot resolve wire event type {type_name!r}")
    return event_type


# ---------------------------------------------------------------------------
# Parameter value encoding
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """JSON-safe encoding of one event parameter or operator-state value."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, Event):
        return {"$ev": event_to_wire(value, provenance=True)}
    if isinstance(value, frozenset):
        members = sorted((encode_value(member) for member in value), key=repr)
        return {"$fs": members}
    if isinstance(value, tuple):
        return {"$t": [encode_value(member) for member in value]}
    if isinstance(value, list):
        return [encode_value(member) for member in value]
    if isinstance(value, Mapping):
        if all(
            isinstance(key, str) and not key.startswith("$") for key in value
        ):
            return {key: encode_value(member) for key, member in value.items()}
        return {
            "$m": [
                [encode_value(key), encode_value(member)]
                for key, member in value.items()
            ]
        }
    raise WireError(
        f"value {value!r} ({type(value).__name__}) is not wire-encodable"
    )


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(member) for member in value]
    if isinstance(value, dict):
        if "$fs" in value:
            return frozenset(decode_value(member) for member in value["$fs"])
        if "$t" in value:
            return tuple(decode_value(member) for member in value["$t"])
        if "$ev" in value:
            return event_from_wire(value["$ev"])
        if "$m" in value:
            return {
                decode_value(key): decode_value(member)
                for key, member in value["$m"]
            }
        if "$d" in value:  # written before ``$m`` covered ``$`` keys
            value = value["$d"]
        return {key: decode_value(member) for key, member in value.items()}
    return value


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


def event_to_wire(event: Event, provenance: bool = False) -> Dict[str, Any]:
    """Encode one event (type name + parameters [+ provenance chain])."""
    out: Dict[str, Any] = {
        "type": event.type_name,
        "params": {
            key: encode_value(value)
            for key, value in event._params.items()
            if key != "type"
        },
    }
    if provenance and event.provenance is not None:
        out["provenance"] = provenance_to_wire(event.provenance)
    return out


def event_from_wire(data: Mapping[str, Any]) -> Event:
    """Decode one event; restores frozensets/tuples and the provenance."""
    event_type = resolve_event_type(data["type"])
    params = {
        key: decode_value(value) for key, value in data["params"].items()
    }
    event = Event.trusted(event_type, params)
    chain = data.get("provenance")
    if chain is not None:
        event.provenance = provenance_from_wire(chain)
    return event


# ---------------------------------------------------------------------------
# Provenance chains
# ---------------------------------------------------------------------------


def provenance_to_wire(node: ProvenanceNode) -> Dict[str, Any]:
    """Encode a provenance node tree (summaries keep their raw shape)."""
    return {
        "id": node.event_id,
        "node": node.node,
        "kind": node.kind,
        "type": node.event_type,
        "t": node.logical_time,
        "summary": encode_value(node.summary),
        "in": [provenance_to_wire(child) for child in node.inputs],
    }


def provenance_from_wire(data: Mapping[str, Any]) -> ProvenanceNode:
    return ProvenanceNode(
        event_id=data["id"],
        node=data["node"],
        kind=data["kind"],
        event_type=data["type"],
        logical_time=data["t"],
        summary=decode_value(data["summary"]),
        inputs=tuple(provenance_from_wire(child) for child in data["in"]),
    )


#: Key under which an ``events`` frame carries its trace context —
#: the compact ``[trace_id, parent_span_id, sampled]`` list of
#: :meth:`repro.observability.trace.TraceContext.to_wire`.
TRACE_KEY = "trace"

#: Key under which an ``events`` frame carries its per-shard sequence
#: number — the credit-based flow control's unit of account.  Seqs are
#: assigned by the facade in send order and survive a respawn (the
#: replacement channel inherits the counter), so a journal-replayed
#: frame keeps its original number.
SEQ_KEY = "seq"

#: Key under which a worker response piggybacks its cumulative ack: the
#: highest event-frame sequence number fully ingested so far.  Rides
#: every ``stats``/``results`` frame; the facade uses it to retire
#: in-flight credits without a dedicated exchange.
ACKED_KEY = "acked"

#: Frame kind of the standalone credit grant a worker emits once enough
#: unacknowledged event frames accumulate between reads — the
#: lightweight path that keeps a write-heavy stream flowing when no
#: stats/flush response is due.
ACK_KIND = "ack"


def ack_frame(acked: int) -> Dict[str, Any]:
    """A standalone credit grant: cumulative ack through *acked*."""
    return {"kind": ACK_KIND, ACKED_KEY: acked}


def attach_trace(frame: Dict[str, Any], ctx: Optional[Any]) -> Dict[str, Any]:
    """Stamp *frame* with *ctx*'s wire form (no-op when ctx is ``None``).

    The facade's head-sampling decision travels inside the frame itself,
    so a worker (or a journal replay) sees exactly the decision the
    facade made for that wave of events — the cross-shard propagation
    contract of DESIGN note 11.
    """
    if ctx is not None:
        frame[TRACE_KEY] = ctx.to_wire()
    return frame


def extract_trace(frame: Mapping[str, Any]) -> Optional[Any]:
    """The frame's :class:`~repro.observability.trace.TraceContext`."""
    from ..observability.trace import TraceContext

    return TraceContext.from_wire(frame.get(TRACE_KEY))


def strip_trace_sampling(frame: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of *frame* with the trace sampling decision forced off.

    Journal replay uses this: the spans of a sampled wave were already
    shipped and assembled the first time around, so replaying the frame
    verbatim would re-record and double-count them.  The trace identity
    is kept (the frame remains attributable); only the record decision
    is cleared.  Frames without a trace context pass through unchanged.
    """
    trace = frame.get(TRACE_KEY)
    if not trace:
        return frame
    stripped = dict(frame)
    stripped[TRACE_KEY] = [trace[0], trace[1], 0]
    return stripped


# ---------------------------------------------------------------------------
# Framing, and the JSON payload of journals older than the binary codec
# ---------------------------------------------------------------------------

_HEADER = struct.Struct(">I")

#: Refuse frames above this size — a corrupted length prefix must not
#: turn into a multi-gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def frame_bytes(message: Mapping[str, Any]) -> bytes:
    """One length-prefixed JSON frame: the inverse of :func:`read_frame`."""
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(data)) + data


def read_frame(stream: IO[bytes]) -> Optional[Dict[str, Any]]:
    """Read one JSON frame; ``None`` on clean EOF, :class:`WireError`
    mid-frame (a torn journal tail)."""
    header = _read_exact(stream, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    data = _read_exact(stream, length, allow_eof=False)
    assert data is not None
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as error:
        raise WireError(f"malformed frame payload: {error}") from None


def _read_exact(
    stream: IO[bytes], count: int, allow_eof: bool
) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise WireError(
                f"channel closed mid-frame ({count - remaining}/{count} "
                f"bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if len(chunks) != 1 else chunks[0]


_register_builtins()
