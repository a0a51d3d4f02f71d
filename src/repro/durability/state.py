"""Capture and restore of live operator state.

An operator's run-time state is its partition map (:class:`EventOperator`
replicates per process instance, the paper's §5.1.2 operator replicas)
plus its consumed/produced counters; every family keeps its state there
and nowhere else.  The partition values are whatever the family's
kernel built — ``{"count": n}`` for Count, ``[bool]`` for Edge,
``{slot: value}`` for Compare2, ``{slot: event}`` for And,
``{"pointer": i, "seen": [event, ...]}`` for Seq, and for Translate the
invoking instance id under each invoked instance id it learned — and a
capture carries them raw: every one is a value the binary codec of
:mod:`repro.parallel.codec` already moves type for type (held events
with their provenance chains, ``int`` keys, tuples, frozensets), over
the worker pipe and into the snapshot file alike.

A capture is not a copy of the values: it must be encoded before the
host moves on.  A custom family registered through
:class:`~repro.awareness.operators.registry.OperatorRegistry` can hold
state the codec cannot express (an open file, a callable); no built-in
family does.  :meth:`~repro.parallel.host.ShardHost.snapshot_state`
probes for that and answers ``None``, and recovery falls back to
full-journal replay, which is always correct (the journal covers the
shard's whole life until its first compaction, and compaction only runs
after a successful snapshot).
"""

from __future__ import annotations

from typing import Any, Dict

from ..awareness.operators.base import EventOperator


def capture_operator(operator: EventOperator) -> Dict[str, Any]:
    """One operator's recoverable state: counters and raw partitions."""
    return {
        "consumed": operator.consumed,
        "produced": operator.produced,
        "partitions": dict(operator._partitions),
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
    operator._partitions.update(record["partitions"])

