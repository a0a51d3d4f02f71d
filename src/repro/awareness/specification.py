"""The awareness specification tool model (Section 6.2, Figure 6).

The CMI graphical specification tool is a build-time client for designers.
Each *window* of the tool is associated with one process schema; all
awareness schemata for that schema are edited in that window.  Interior
nodes and leaves may be shared amongst all awareness schemata DAGs, so the
complete set of awareness schemata of a process is "a single, multiply
rooted DAG".

:class:`SpecificationWindow` is the programmatic model of such a window
(the GUI is substituted by this API plus an ASCII rendering; see
DESIGN.md).  A designer authors a schema in the paper's three steps:

1. **place** operator instances (boxes) — the window always contains the
   primitive event sources (diamonds);
2. **connect** the edges between producers and positional slots;
3. **parameterize** — in this API, operator parameters are supplied at
   placement (the dialogue-based editor of the GUI is folded into step 1);
   the :meth:`SpecificationWindow.output` call attaches the delivery
   instructions that the GUI's Output box dialog would collect.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..core.roles import RoleRef
from ..errors import SpecificationError
from ..events.producers import EventProducer
from .description import AwarenessDescription, EventGraph, Node, _node_name
from .operators.base import EventOperator
from .operators.output import Output
from .operators.registry import OperatorRegistry, default_registry
from .schema import AwarenessSchema


class SpecificationWindow:
    """One specification window: process schema + multi-rooted DAG."""

    def __init__(
        self,
        process_schema_id: str,
        producers: Dict[str, EventProducer],
        registry: Optional[OperatorRegistry] = None,
    ) -> None:
        self.process_schema_id = process_schema_id
        self.registry = registry or default_registry()
        self.graph = EventGraph()
        self._sources: Dict[str, EventProducer] = {}
        for name, producer in producers.items():
            self._sources[name] = self.graph.add_producer(producer)
        self._schemas: Dict[str, AwarenessSchema] = {}

    # -- step 1: place operators -------------------------------------------------

    def source(self, name: str) -> EventProducer:
        """One of the window's primitive event source diamonds."""
        try:
            return self._sources[name]
        except KeyError:
            raise SpecificationError(
                f"window for {self.process_schema_id!r} has no event source "
                f"{name!r}; available: {sorted(self._sources)}"
            ) from None

    def add_source(self, name: str, producer: EventProducer) -> EventProducer:
        """Add an application-specific external event source diamond."""
        if name in self._sources:
            raise SpecificationError(f"source {name!r} already in the window")
        self._sources[name] = self.graph.add_producer(producer)
        return producer

    def place(self, family: str, *args: Any, **kwargs: Any) -> EventOperator:
        """Place (and parameterize) an operator instance in the window.

        The operator's first parameter P — the window's process schema —
        is supplied automatically unless the operator family crosses
        process schemas (``Translate`` takes its invoking schema
        explicitly, which must equal the window's).
        """
        operator_class = self.registry.lookup(family)
        operator = operator_class(self.process_schema_id, *args, **kwargs)
        return self.graph.add_operator(operator)

    def place_operator(self, operator: EventOperator) -> EventOperator:
        """Place a pre-constructed operator (application-specific classes)."""
        return self.graph.add_operator(operator)

    # -- step 2: connect edges ------------------------------------------------------

    def connect(self, source: Node, target: EventOperator, slot: int = 0) -> None:
        """Draw an edge from *source*'s output to *target*'s input *slot*."""
        self.graph.connect(source, target, slot)

    # -- step 3: the output operator / delivery instructions -------------------------

    def output(
        self,
        source: Node,
        delivery_role: RoleRef,
        assignment_name: str = "identity",
        user_description: str = "",
        schema_name: Optional[str] = None,
    ) -> AwarenessSchema:
        """Root *source* with an Output operator; registers the schema."""
        name = schema_name or f"AS_{self.process_schema_id}_{len(self._schemas) + 1}"
        if name in self._schemas:
            raise SpecificationError(f"awareness schema {name!r} already exists")
        output = Output(
            self.process_schema_id,
            delivery_role=delivery_role,
            assignment_name=assignment_name,
            user_description=user_description,
            schema_name=name,
            instance_name=f"Output({name})",
        )
        self.graph.add_operator(output)
        self.graph.connect(source, output, 0)
        description = AwarenessDescription(self.graph, output)
        schema = AwarenessSchema(
            name=name,
            description=description,
            delivery_role=delivery_role,
            assignment_name=assignment_name,
        )
        schema.validate()
        self._schemas[name] = schema
        return schema

    # -- inspection -----------------------------------------------------------------------

    def schemas(self) -> Tuple[AwarenessSchema, ...]:
        return tuple(self._schemas.values())

    def schema(self, name: str) -> AwarenessSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise SpecificationError(
                f"window has no awareness schema {name!r}"
            ) from None

    def operators(self) -> Tuple[EventOperator, ...]:
        return self.graph.operators()

    def validate(self) -> None:
        """Check the window as a whole: it defines a schema, and every
        placed operator is rooted by one.

        The GUI would show a dangling box; programmatically we reject the
        window so a half-edited specification cannot be deployed.  Each
        schema was validated when :meth:`output` registered it, the only
        way one is registered, and stays valid: the graph only grows,
        and a wired slot takes no second edge, so no edge can reach the
        sub-DAG a validated description spans.
        """
        if not self._schemas:
            raise SpecificationError(
                f"window for {self.process_schema_id!r} defines no "
                f"awareness schemas"
            )
        rooted = set()
        for schema in self._schemas.values():
            seen, __, ___ = self.graph.reachable_subgraph(schema.description.root)
            rooted.update(seen)
        dangling = [
            op.instance_name
            for op in self.graph.operators()
            if id(op) not in rooted
        ]
        if dangling:
            raise SpecificationError(
                f"window has operators not connected to any awareness "
                f"schema: {sorted(dangling)}"
            )

    # -- rendering (the GUI substitute) ------------------------------------------------------

    def render(self) -> str:
        """ASCII rendering of the window: diamonds, boxes, and edges.

        Mirrors Figure 6: primitive sources as ``<...>``, operators as
        ``[...]``, and one line per edge with the slot position.
        """
        lines = [f"Awareness specification window — process {self.process_schema_id}"]
        lines.append("  sources:")
        for name, producer in sorted(self._sources.items()):
            lines.append(f"    <{name}> : {producer.output_type.name}")
        lines.append("  operators:")
        for operator in self.graph.operators():
            lines.append(f"    [{operator.instance_name}] {operator.describe()}")
        lines.append("  edges:")
        for source, target, slot in self.graph.edges():
            lines.append(
                f"    {_node_name(source)} --slot {slot}--> "
                f"{target.instance_name}"
            )
        lines.append("  awareness schemas:")
        for schema in self._schemas.values():
            lines.append(
                f"    {schema.name}: role={schema.delivery_role}, "
                f"assignment={schema.assignment_name}, "
                f"depth={schema.description.depth()}"
            )
        return "\n".join(lines)
