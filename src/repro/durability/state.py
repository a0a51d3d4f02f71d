"""Snapshot codec for live operator state.

An operator's run-time state is its partition map (:class:`EventOperator`
replicates per process instance) plus its consumed/produced counters.
The partition values are whatever the family's kernel built — ``{"count": n}``
for Count, ``[bool]`` for Edge, slot→event maps for And, pointer/seen
dicts for Seq — so the codec must express arbitrary compositions of JSON
scalars, lists, tuples, frozensets, non-string-keyed mappings, and held
:class:`~repro.events.event.Event` objects (correlation operators keep
the constituent events of a pending composition).

That is the tagged JSON of :mod:`repro.parallel.wire` — the one codec
for values JSON cannot express natively (``$t``, ``$fs``, ``$ev`` for a
held event with its provenance chain, ``$m`` for a mapping with
non-string keys).

Anything it cannot express — an open file, a callable, an application
object — raises :class:`~repro.errors.SnapshotUnsupportedError`; the
shard then reports "no snapshot" and recovery falls back to full-journal
replay, which is always correct (the journal covers the shard's whole
life until its first compaction, and compaction only runs after a
successful snapshot).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..awareness.operators.base import EventOperator
from ..errors import SnapshotUnsupportedError, WireError
from ..parallel.wire import decode_value, encode_value


def encode_state(value: Any) -> Any:
    """JSON-safe encoding of one piece of operator state."""
    try:
        return encode_value(value)
    except WireError as error:
        raise SnapshotUnsupportedError(
            f"operator state is not snapshot-encodable: {error}"
        ) from None


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
        operator._partitions[decode_value(key)] = decode_value(state)


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
