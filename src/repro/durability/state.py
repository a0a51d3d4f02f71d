"""Snapshot codec for live operator state.

An operator's run-time state is its partition map (:class:`EventOperator`
replicates per process instance) plus its consumed/produced counters.
The partition values are whatever the family's kernel built — ``{"count": n}``
for Count, ``[bool]`` for Edge, slot→event maps for And, pointer/seen
dicts for Seq — so the codec must express arbitrary compositions of JSON
scalars, lists, tuples, frozensets, non-string-keyed mappings, and held
:class:`~repro.events.event.Event` objects (correlation operators keep
the constituent events of a pending composition).

The encoding extends the wire tags of :mod:`repro.parallel.wire` with two
more:

* ``{"$ev": <wire event>}`` — a held event, encoded with its provenance
  chain so a recovered correlation emits byte-identical provenance;
* ``{"$m": [[key, value], ...]}`` — a mapping whose keys are not plain
  strings (And partitions key slots by ``int``).

Anything else — an open file, a callable, an application object — raises
:class:`~repro.errors.SnapshotUnsupportedError`; the shard then reports
"no snapshot" and recovery falls back to full-journal replay, which is
always correct (the journal covers the shard's whole life until its
first compaction, and compaction only runs after a successful snapshot).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..awareness.operators.base import EventOperator
from ..errors import SnapshotUnsupportedError
from ..events.event import Event
from ..parallel.wire import event_from_wire, event_to_wire

_SCALARS = (str, int, float, bool)


def encode_state(value: Any) -> Any:
    """JSON-safe encoding of one piece of operator state."""
    if value is None or isinstance(value, _SCALARS):
        return value
    if isinstance(value, Event):
        return {"$ev": event_to_wire(value, provenance=True)}
    if isinstance(value, list):
        return [encode_state(member) for member in value]
    if isinstance(value, tuple):
        return {"$t": [encode_state(member) for member in value]}
    if isinstance(value, frozenset):
        members = sorted(
            (encode_state(member) for member in value), key=repr
        )
        return {"$fs": members}
    if isinstance(value, dict):
        if all(
            isinstance(key, str) and not key.startswith("$")
            for key in value
        ):
            return {key: encode_state(member) for key, member in value.items()}
        return {
            "$m": [
                [encode_state(key), encode_state(member)]
                for key, member in value.items()
            ]
        }
    raise SnapshotUnsupportedError(
        f"operator state {value!r} ({type(value).__name__}) is not "
        f"snapshot-encodable"
    )


def decode_state(value: Any) -> Any:
    """Inverse of :func:`encode_state`."""
    if isinstance(value, list):
        return [decode_state(member) for member in value]
    if isinstance(value, dict):
        if "$ev" in value:
            return event_from_wire(value["$ev"])
        if "$t" in value:
            return tuple(decode_state(member) for member in value["$t"])
        if "$fs" in value:
            return frozenset(decode_state(member) for member in value["$fs"])
        if "$m" in value:
            return {
                decode_state(key): decode_state(member)
                for key, member in value["$m"]
            }
        return {key: decode_state(member) for key, member in value.items()}
    return value


def capture_operator(operator: EventOperator) -> Dict[str, Any]:
    """One operator's recoverable state as a JSON-safe record."""
    return {
        "consumed": operator.consumed,
        "produced": operator.produced,
        "partitions": [
            [encode_state(key), encode_state(state)]
            for key, state in operator._partitions.items()
        ],
    }


def restore_operator(operator: EventOperator, record: Dict[str, Any]) -> None:
    """Load a :func:`capture_operator` record into a fresh operator.

    The partition map is refilled *in place*: the operator's linked
    kernels hold that very dict, so rebinding the attribute would leave
    them counting into a dead object after recovery.
    """
    operator.consumed = int(record["consumed"])
    operator.produced = int(record["produced"])
    operator._partitions.clear()
    for key, state in record["partitions"]:
        operator._partitions[decode_state(key)] = decode_state(state)


def capture_operators(
    operators: List[EventOperator],
) -> List[Dict[str, Any]]:
    """Capture an enumerated operator list, preserving order."""
    return [capture_operator(operator) for operator in operators]


def restore_operators(
    operators: List[EventOperator], records: List[Dict[str, Any]]
) -> None:
    if len(operators) != len(records):
        raise SnapshotUnsupportedError(
            f"snapshot holds {len(records)} operator states but the "
            f"rebuilt pipeline enumerates {len(operators)} operators — "
            f"the blueprint diverged from the snapshot"
        )
    for operator, record in zip(operators, records):
        restore_operator(operator, record)
