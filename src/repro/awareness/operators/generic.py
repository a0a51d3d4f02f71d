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

from functools import partial
from typing import Any, Optional, Sequence, Tuple

from ...errors import ParameterError
from ...events.canonical import CanonicalEvent, canonical_type
from .base import Emit, EventOperator, OperatorSignature, Step, check_copy_parameter


def _canonical_signature(process_schema_id: str, arity: int) -> OperatorSignature:
    ctype = canonical_type(process_schema_id)
    return OperatorSignature((ctype,) * arity, ctype)


def _compose(template: CanonicalEvent, completing: CanonicalEvent, source: str) -> CanonicalEvent:
    """Copy *template*'s parameters (except time) onto a new composite event
    whose time is the completing constituent's time.

    Both constituents conformed (checked where they entered the plan), so
    the output is built from typed values without a conformance run."""
    output = template.relayed(source)
    output.time = completing.time
    return output


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

    def bind(self, emit: Emit) -> Sequence[Step]:
        partitions, name = self._partitions, self.instance_name
        slots, template_slot = range(self.arity), self.copy - 1

        def kernel(slot: int, event: CanonicalEvent) -> None:
            key = event.processInstanceId
            # Slot memory per instance: the latest event seen on each slot.
            state = partitions.get(key)
            if state is None:
                state = partitions[key] = {}
            state[slot] = event
            if len(state) < len(slots):
                return
            constituents = tuple(map(state.__getitem__, slots))
            state.clear()
            emit(_compose(constituents[template_slot], event, name), constituents)

        return [partial(kernel, slot) for slot in slots]

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

    def bind(self, emit: Emit) -> Sequence[Step]:
        partitions, name = self._partitions, self.instance_name
        arity, template_slot = self.arity, self.copy - 1

        def kernel(slot: int, event: CanonicalEvent) -> None:
            key = event.processInstanceId
            state = partitions.get(key)
            if state is None:
                state = partitions[key] = {"pointer": 0, "seen": []}
            if slot != state["pointer"]:
                return
            state["seen"].append(event)
            state["pointer"] += 1
            if state["pointer"] < arity:
                return
            constituents = tuple(state["seen"])
            state["pointer"] = 0
            state["seen"] = []
            emit(_compose(constituents[template_slot], event, name), constituents)

        return [partial(kernel, slot) for slot in range(arity)]

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

    def bind(self, emit: Emit) -> Sequence[Step]:
        name = self.instance_name

        def step(event: CanonicalEvent) -> None:
            emit(event.relayed(name), event)

        return (step,) * self.arity

    def describe(self) -> str:
        return f"Or[{self.process_schema_id}]/{self.arity}"
