"""Generic event operators: conjunction, sequence, disjunction (§5.1.3).

All three consume and produce the canonical type ``C_P`` and replicate
their state per process instance:

* ``And[P, copy](C_P, ..., C_P) -> C_P`` — emits when an event has been
  seen on **all** input slots, in any order.  The ``copy`` parameter
  (1-based) selects the input event whose parameters — except time — are
  copied to the output; the output time is the time of the constituent
  that completed the pattern.  Constituents are consumed on emission, so
  the operator then waits for a fresh event on every slot.
* ``Seq[P, copy](C_P, ..., C_P) -> C_P`` — like ``And`` but events must be
  seen **in slot order**; an event arriving on a slot other than the next
  expected one is ignored.
* ``Or[P](C_P, ..., C_P) -> C_P`` — "merely echoes every input it receives
  as its output"; stateless.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ...errors import ParameterError
from ...events.canonical import canonical_type
from .base import EventOperator, OperatorSignature, check_copy_parameter
from .segments import Template


def _canonical_signature(process_schema_id: str, arity: int) -> OperatorSignature:
    ctype = canonical_type(process_schema_id)
    return OperatorSignature((ctype,) * arity, ctype)


def _composite(body: str) -> Template:
    """And's or Seq's template: *body* collects ``$constituents`` in slot
    order.  The composite copies the ``copy`` constituent, except time,
    which is the completing constituent's; provenance links every
    constituent."""
    return Template(
        cells=("_partitions", "arity", "copy", "instance_name"),
        body=body + "$held = $constituents[$copy - 1]\n$emit\n",
        output={"time": "@time", "source": "$instance_name"},
        base="$held",
        cause="$constituents",
    )


class And(EventOperator):
    """Conjunction with per-instance slot memory."""

    family = "And"

    def __init__(
        self,
        process_schema_id: str,
        copy: int = 1,
        arity: int = 2,
        instance_name: Optional[str] = None,
    ) -> None:
        if arity < 2:
            raise ParameterError(f"And requires at least two inputs, got {arity}")
        check_copy_parameter(copy, arity, "And")
        super().__init__(
            process_schema_id,
            _canonical_signature(process_schema_id, arity),
            instance_name,
        )
        self.copy = copy

    def plan_params(self) -> Tuple[Any, ...]:
        return (self.process_schema_id, self.copy, self.arity)

    # Slot memory per instance: the latest event seen on each slot.
    template = _composite("""
$state = $_partitions.get(@processInstanceId)
if $state is None:
    $state = $_partitions[@processInstanceId] = {}
$state[$slot] = event
if len($state) < $arity:
    $skip
$constituents = tuple(map($state.__getitem__, range($arity)))
$state.clear()
""")

    def describe(self) -> str:
        return f"And[{self.process_schema_id}, copy={self.copy}]/{self.arity}"


class Seq(EventOperator):
    """Sequence: constituents must arrive in slot order."""

    family = "Seq"

    def __init__(
        self,
        process_schema_id: str,
        copy: int = 1,
        arity: int = 2,
        instance_name: Optional[str] = None,
    ) -> None:
        if arity < 2:
            raise ParameterError(f"Seq requires at least two inputs, got {arity}")
        check_copy_parameter(copy, arity, "Seq")
        super().__init__(
            process_schema_id,
            _canonical_signature(process_schema_id, arity),
            instance_name,
        )
        self.copy = copy

    def plan_params(self) -> Tuple[Any, ...]:
        return (self.process_schema_id, self.copy, self.arity)

    template = _composite("""
$state = $_partitions.get(@processInstanceId)
if $state is None:
    $state = $_partitions[@processInstanceId] = {"pointer": 0, "seen": []}
if $slot != $state["pointer"]:
    $skip
$state["seen"].append(event)
$state["pointer"] += 1
if $state["pointer"] < $arity:
    $skip
$constituents = tuple($state["seen"])
$state["pointer"] = 0
$state["seen"] = []
""")

    def describe(self) -> str:
        return f"Seq[{self.process_schema_id}, copy={self.copy}]/{self.arity}"


class Or(EventOperator):
    """Disjunction: echo every input (merge of n streams)."""

    family = "Or"

    #: A merge is insensitive to which slot a stream enters on, so the
    #: planner order-normalizes the input keys: Or(a, b) and Or(b, a)
    #: intern to one shared node.
    plan_commutative = True

    def __init__(
        self,
        process_schema_id: str,
        arity: int = 2,
        instance_name: Optional[str] = None,
    ) -> None:
        if arity < 2:
            raise ParameterError(f"Or requires at least two inputs, got {arity}")
        super().__init__(
            process_schema_id,
            _canonical_signature(process_schema_id, arity),
            instance_name,
        )

    def plan_params(self) -> Tuple[Any, ...]:
        return (self.process_schema_id, self.arity)

    template = Template(
        cells=("instance_name",), body="$emit", output={"source": "$instance_name"}
    )

    def describe(self) -> str:
        return f"Or[{self.process_schema_id}]/{self.arity}"
