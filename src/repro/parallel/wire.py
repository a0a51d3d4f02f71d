"""Wire vocabulary of the sharded execution layer.

Workers and the :class:`~repro.parallel.federation.ShardedFederation`
facade exchange *frames*: a 4-byte big-endian length prefix followed by a
payload.  Pipes, journals and snapshots write exactly one payload
encoding, the binary codec of :mod:`repro.parallel.codec`; this module
holds what every end shares whatever the bytes: the frame keys
(sequence numbers, trace contexts), the event-type registry that
turns a type name back into its
:class:`~repro.events.event.EventType` (including on-demand ``C[P]``
canonical types, :mod:`repro.events.canonical`), and the exact-read
helper under every frame reader.
"""

from __future__ import annotations

from typing import Any, Dict, IO, List, Mapping, Optional

from ..errors import WireError
from ..events.canonical import CANONICAL_PREFIX, canonical_type, is_canonical
from ..events.event import EventType
from ..events.external import NEWS_EVENT_TYPE
from ..events.producers import (
    ACTIVITY_EVENT_TYPE,
    CONTEXT_EVENT_TYPE,
    SYSTEM_EVENT_TYPE,
)

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


#: Key under which an ``events`` frame carries its trace context —
#: the compact ``[trace_id, parent_span_id, sampled]`` list of
#: :meth:`repro.observability.trace.TraceContext.to_wire`.
TRACE_KEY = "trace"

#: Key under which an ``events`` frame carries its per-shard sequence
#: number.  Seqs are assigned by the facade in send order and survive a
#: worker restart (the shard keeps its counter), so a
#: journal-replayed frame keeps its original number — which is how a
#: worker tells it from a live one (below the ``replay`` frame's mark).
SEQ_KEY = "seq"


def attach_trace(frame: Dict[str, Any], ctx: Optional[Any]) -> Dict[str, Any]:
    """Stamp *frame* with *ctx*'s wire form (no-op when ctx is ``None``).

    The facade's head-sampling decision travels inside the frame itself,
    so a worker sees exactly the decision the facade made for that wave
    of events — the cross-shard propagation contract of DESIGN note 11.
    A journal replay carries the same bytes; the worker records a
    replayed wave unsampled (DESIGN note 23).
    """
    if ctx is not None:
        frame[TRACE_KEY] = ctx.to_wire()
    return frame


def extract_trace(frame: Mapping[str, Any]) -> Optional[Any]:
    """The frame's :class:`~repro.observability.trace.TraceContext`."""
    from ..observability.trace import TraceContext

    return TraceContext.from_wire(frame.get(TRACE_KEY))


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

#: Refuse frames above this size — a corrupted length prefix must not
#: turn into a multi-gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024


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
