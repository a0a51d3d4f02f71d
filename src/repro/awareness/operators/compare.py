"""Comparison event operators (Section 5.1.3).

* ``Compare1[P, boolFunc1](C_P) -> C_P`` — passes an input event when its
  ``intInfo`` parameter satisfies the one-argument boolean function;
  otherwise the input is ignored.

* ``Compare2[P, boolFunc2](C_P, C_P) -> C_P`` — keeps, per process
  instance, the **latest** ``intInfo`` seen on each input position; when
  both positions have a value and ``boolFunc2(latest_0, latest_1)`` holds,
  emits a composite whose parameters are copied from the latest input —
  "irrespective of its position".

``Compare2`` is the operator at the root of the paper's Section 5.4
deadline-violation description:
``Compare2[InfoRequest, <=](Filter_ctx(TaskForceDeadline),
Filter_ctx(RequestDeadline))`` fires whenever the task-force deadline is
(moved) at or before the information-request deadline.

Named comparison functions (``"<="``, ``"<"``, ``"=="`` ...) are provided
so the specification DSL can reference them by symbol.  The DSL's
one-argument predicates are the same functions with their operands
swapped, partially applied to the threshold
(:data:`FLIPPED_BOOL_FUNCS_2`), so a test is one C call.
"""

from __future__ import annotations

import operator as _op
from functools import partial
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ...errors import ParameterError
from ...events.canonical import CanonicalEvent, canonical_type
from .base import Emit, EventOperator, OperatorSignature, Step

BoolFunc1 = Callable[[int], bool]
BoolFunc2 = Callable[[int, int], bool]

#: Named two-argument comparison functions usable in the specification DSL.
NAMED_BOOL_FUNCS_2: Dict[str, BoolFunc2] = {
    "<=": _op.le,
    "<": _op.lt,
    ">=": _op.ge,
    ">": _op.gt,
    "==": _op.eq,
    "!=": _op.ne,
}


#: Each named comparison with its operands swapped: ``value < t`` is
#: ``t > value``, so ``partial(FLIPPED_BOOL_FUNCS_2["<"], t)`` tests
#: ``value < t`` with the threshold bound first.
FLIPPED_BOOL_FUNCS_2: Dict[str, BoolFunc2] = {
    "<=": _op.ge,
    "<": _op.gt,
    ">=": _op.le,
    ">": _op.lt,
    "==": _op.eq,
    "!=": _op.ne,
}


def named_bool_func_2(symbol: str) -> BoolFunc2:
    """Look up a named comparison (raises :class:`ParameterError`)."""
    try:
        return NAMED_BOOL_FUNCS_2[symbol]
    except KeyError:
        raise ParameterError(
            f"unknown comparison {symbol!r}; expected one of "
            f"{sorted(NAMED_BOOL_FUNCS_2)}"
        ) from None


def _bool_func_1_key(operator: "EventOperator") -> object:
    """Plan-key identity of a one-argument predicate.

    DSL-authored predicates carry a ``_dsl_rendering`` — a textual form
    like ``Compare1[==, 3]`` — so structurally equal specifications share
    even though each compilation builds a fresh ``partial``.  Hand-wired
    predicates fall back to the callable object itself: identity-based,
    so only windows literally passing the same function object share.
    """
    rendering = getattr(operator, "_dsl_rendering", None)
    if rendering is not None:
        return rendering
    return operator.bool_func  # type: ignore[attr-defined]


class Compare1(EventOperator):
    """Single-input comparison: pass events whose intInfo satisfies a test."""

    family = "Compare1"

    def __init__(
        self,
        process_schema_id: str,
        bool_func: BoolFunc1,
        instance_name: Optional[str] = None,
    ) -> None:
        if not callable(bool_func):
            raise ParameterError("Compare1 requires a callable boolFunc1")
        ctype = canonical_type(process_schema_id)
        super().__init__(
            process_schema_id,
            OperatorSignature((ctype,), ctype),
            instance_name,
        )
        self.bool_func = bool_func

    def plan_params(self) -> Tuple[Any, ...]:
        return (self.process_schema_id, _bool_func_1_key(self))

    def bind(self, emit: Emit) -> Sequence[Step]:
        bool_func, name = self.bool_func, self.instance_name

        def step(event: CanonicalEvent) -> None:
            value = event.intInfo
            if value is not None and bool_func(value):
                emit(event.relayed(name), event)

        return (step,)

    def describe(self) -> str:
        return f"Compare1[{self.process_schema_id}, {self.bool_func!r}]"


class Edge(EventOperator):
    """Rising-edge comparison: pass an event only when the test *starts*
    holding.

    ``Edge[P, boolFunc1](C_P) -> C_P`` is :class:`Compare1` with
    hysteresis, replicated per process instance: the first event whose
    ``intInfo`` satisfies the test after one that did not (or after
    instantiation) passes; further satisfying events are swallowed until
    a non-satisfying event re-arms the edge.  This is the
    alert-transition primitive — a persistently-breached SLO notifies
    once per breach episode instead of once per telemetry sample, and a
    notification loop (the alert itself moving the metric it watches)
    cannot storm.
    """

    family = "Edge"

    def __init__(
        self,
        process_schema_id: str,
        bool_func: BoolFunc1,
        instance_name: Optional[str] = None,
    ) -> None:
        if not callable(bool_func):
            raise ParameterError("Edge requires a callable boolFunc1")
        ctype = canonical_type(process_schema_id)
        super().__init__(
            process_schema_id,
            OperatorSignature((ctype,), ctype),
            instance_name,
        )
        self.bool_func = bool_func

    def plan_params(self) -> Tuple[Any, ...]:
        return (self.process_schema_id, _bool_func_1_key(self))

    def bind(self, emit: Emit) -> Sequence[Step]:
        partitions = self._partitions
        bool_func, name = self.bool_func, self.instance_name

        def step(event: CanonicalEvent) -> None:
            key = event.processInstanceId
            # One cell per instance: did the last event satisfy the test?
            state = partitions.get(key)
            if state is None:
                state = partitions[key] = [False]
            value = event.intInfo
            if value is None:
                return
            satisfied = bool(bool_func(value))
            armed = not state[0]
            state[0] = satisfied
            if satisfied and armed:
                emit(event.relayed(name), event)

        return (step,)

    def describe(self) -> str:
        return f"Edge[{self.process_schema_id}, {self.bool_func!r}]"


class Compare2(EventOperator):
    """Double-input comparison over the latest values of two streams."""

    family = "Compare2"

    def __init__(
        self,
        process_schema_id: str,
        bool_func: BoolFunc2,
        instance_name: Optional[str] = None,
    ) -> None:
        if isinstance(bool_func, str):
            bool_func = named_bool_func_2(bool_func)
        if not callable(bool_func):
            raise ParameterError("Compare2 requires a callable boolFunc2")
        ctype = canonical_type(process_schema_id)
        super().__init__(
            process_schema_id,
            OperatorSignature((ctype, ctype), ctype),
            instance_name,
        )
        self.bool_func = bool_func

    def plan_params(self) -> Tuple[Any, ...]:
        # Named comparisons key on their symbol; arbitrary callables on
        # object identity.  Compare2 is slot-order-sensitive, so the
        # default non-commutative input keying stays (``a <= b`` must not
        # merge with ``b <= a``).
        symbol = next(
            (s for s, f in NAMED_BOOL_FUNCS_2.items() if f is self.bool_func),
            None,
        )
        return (
            self.process_schema_id,
            symbol if symbol is not None else self.bool_func,
        )

    def bind(self, emit: Emit) -> Sequence[Step]:
        partitions = self._partitions
        bool_func, name = self.bool_func, self.instance_name

        def kernel(slot: int, event: CanonicalEvent) -> None:
            key = event.processInstanceId
            # Latest intInfo seen on each input position, per instance.
            state = partitions.get(key)
            if state is None:
                state = partitions[key] = {}
            value = event.intInfo
            if value is None:
                return
            state[slot] = value
            if len(state) == 2 and bool_func(state[0], state[1]):
                output = event.relayed(name)
                output.description = (
                    f"comparison satisfied: {state[0]} vs {state[1]} "
                    f"({event.description})"
                )
                emit(output, event)

        return (partial(kernel, 0), partial(kernel, 1))

    def describe(self) -> str:
        symbol = next(
            (s for s, f in NAMED_BOOL_FUNCS_2.items() if f is self.bool_func),
            repr(self.bool_func),
        )
        return f"Compare2[{self.process_schema_id}, {symbol}]"
