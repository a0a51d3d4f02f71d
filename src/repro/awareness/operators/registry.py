"""Operator registry: the palette of the awareness specification tool.

"AM provides a palette of event producers and general operators, however
application-specific event producers and operators can be added as needed
by the application" (Section 5.1).  The registry is that palette: the
specification tool and the textual DSL look operator families up by name,
and applications register their own operator classes alongside the
built-ins.

A registered family states its algorithm the way every built-in one
does, as a :class:`~repro.awareness.operators.segments.Template` (its
``template`` class attribute); a class without one is refused here.  It
may also override
:meth:`~repro.awareness.operators.base.EventOperator.routing_keys` when
its parameters statically determine which primitive events can match
(the built-in filters do); the event substrate then index-routes events
to it instead of scanning every deployed operator.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from ...errors import SpecificationError
from .base import EventOperator
from .compare import Compare1, Compare2, Edge
from .count import Count
from .filters import (
    ActivityFilter,
    ContextFilter,
    QueryCorrelationFilter,
    SystemFilter,
)
from .generic import And, Or, Seq
from .output import Output
from .translate import Translate


class OperatorRegistry:
    """Name -> operator class mapping with registration validation."""

    def __init__(self) -> None:
        self._operators: Dict[str, Type[EventOperator]] = {}

    def register(self, name: str, operator_class: Type[EventOperator]) -> None:
        if not issubclass(operator_class, EventOperator) or not operator_class.template:
            raise SpecificationError(
                f"{operator_class!r} is not an EventOperator subclass with a template"
            )
        if name in self._operators:
            raise SpecificationError(f"operator {name!r} is already registered")
        self._operators[name] = operator_class

    def lookup(self, name: str) -> Type[EventOperator]:
        try:
            return self._operators[name]
        except KeyError:
            raise SpecificationError(
                f"unknown operator {name!r}; registered: {sorted(self._operators)}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._operators))

    def __contains__(self, name: str) -> bool:
        return name in self._operators


def default_registry() -> OperatorRegistry:
    """The built-in AM palette of Section 5.1.3."""
    registry = OperatorRegistry()
    registry.register("Filter_activity", ActivityFilter)
    registry.register("Filter_context", ContextFilter)
    registry.register("Filter_news", QueryCorrelationFilter)
    registry.register("Filter_system", SystemFilter)
    registry.register("And", And)
    registry.register("Seq", Seq)
    registry.register("Or", Or)
    registry.register("Count", Count)
    registry.register("Compare1", Compare1)
    registry.register("Edge", Edge)
    registry.register("Compare2", Compare2)
    registry.register("Translate", Translate)
    registry.register("Output", Output)
    return registry
