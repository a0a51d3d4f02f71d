"""Awareness descriptions: composite event specifications (Section 5.1).

"A composite event specification is a rooted, directed acyclic graph (DAG)
where the leaves of the DAG are primitive event producers, the non-leaves
are event operator instances, and the edges are connections, i.e., typed
event streams, between event producers and the consuming slots of event
operator instances."

:class:`EventGraph` is the shared graph substrate (one per specification
window; interior nodes and leaves may be shared amongst all awareness
schemata of a window, Section 6.2).  :class:`AwarenessDescription` is the
sub-DAG rooted at one operator — the ``AD_P`` of an awareness schema.

Everything here is build-time structure (Section 6.2): drawing an edge
checks and records it, and no event flows.  A window is a description until
it is deployed — :class:`~repro.awareness.planner.PlanCache` is the one
place where recorded edges become live consumer links (Section 6.4: the
schemata "are automatically transformed into one or more detector agents").
"Composite events that are output from the root of the DAG are said to be
composite events *detected* by the composite event specification."
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple, Union

from ..errors import DagValidationError, SlotError
from ..events.producers import EventProducer
from .operators.base import EventOperator

Node = Union[EventProducer, EventOperator]


def _node_name(node: Node) -> str:
    if isinstance(node, EventProducer):
        return node.producer_id
    return node.instance_name


class EventGraph:
    """A (possibly multi-rooted) DAG of producers and operator instances."""

    def __init__(self) -> None:
        self._producers: List[EventProducer] = []
        self._operators: List[EventOperator] = []
        #: (source node, target operator, slot)
        self._edges: List[Tuple[Node, EventOperator, int]] = []
        #: The same edges by endpoint (keyed by node identity), so that
        #: validation and deploy walk a node's edges, not all of them.
        self._inputs: Dict[int, List[Tuple[Node, int]]] = {}
        self._outputs: Dict[int, List[EventOperator]] = {}

    # -- construction -----------------------------------------------------------

    def add_producer(self, producer: EventProducer) -> EventProducer:
        if producer not in self._producers:
            self._producers.append(producer)
        return producer

    def add_operator(self, operator: EventOperator) -> EventOperator:
        if operator in self._operators:
            raise DagValidationError(
                f"operator {operator.instance_name!r} is already in the graph"
            )
        self._operators.append(operator)
        return operator

    def connect(self, source: Node, target: EventOperator, slot: int) -> None:
        """Draw the edge *source* → input *slot* of *target*.

        Checks membership, the slot's type constraint, its cardinality
        (exactly one producer per slot) and acyclicity, then records the
        edge; deploy turns recorded edges into live links.
        """
        if target not in self._operators:
            raise DagValidationError(
                f"target operator {_node_name(target)!r} is not in the graph"
            )
        if isinstance(source, EventOperator):
            if source not in self._operators:
                raise DagValidationError(
                    f"source operator {_node_name(source)!r} is not in the graph"
                )
        elif source not in self._producers:
            raise DagValidationError(
                f"source producer {_node_name(source)!r} is not in the graph"
            )
        expected = target.slot_type(slot)
        if source.output_type != expected:
            raise SlotError(
                f"cannot connect {_node_name(source)!r} "
                f"({source.output_type.name}) to slot {slot} of "
                f"{_node_name(target)!r} (expects {expected.name})"
            )
        inputs = self._inputs.setdefault(id(target), [])
        if any(filled == slot for __, filled in inputs):
            raise SlotError(
                f"slot {slot} of {_node_name(target)!r} is already connected"
            )
        if self._would_cycle(source, target):
            raise DagValidationError(
                f"edge {_node_name(source)} -> {_node_name(target)} "
                f"would create a cycle"
            )
        inputs.append((source, slot))
        self._outputs.setdefault(id(source), []).append(target)
        self._edges.append((source, target, slot))

    # -- inspection ---------------------------------------------------------------

    def producers(self) -> Tuple[EventProducer, ...]:
        return tuple(self._producers)

    def operators(self) -> Tuple[EventOperator, ...]:
        return tuple(self._operators)

    def edges(self) -> Tuple[Tuple[Node, EventOperator, int], ...]:
        return tuple(self._edges)

    def upstream(self, operator: EventOperator) -> Tuple[Tuple[Node, int], ...]:
        """The (source, slot) pairs feeding *operator*."""
        return tuple(self._inputs.get(id(operator), ()))

    def downstream(self, node: Node) -> Tuple[EventOperator, ...]:
        return tuple(self._outputs.get(id(node), ()))

    def roots(self) -> Tuple[EventOperator, ...]:
        """Operators with no outgoing edges (the candidate schema roots)."""
        with_outgoing = {id(source) for source, __, ___ in self._edges}
        return tuple(
            op for op in self._operators if id(op) not in with_outgoing
        )

    # -- validation ------------------------------------------------------------------

    def _would_cycle(self, source: Node, target: EventOperator) -> bool:
        """True when target already (transitively) feeds source."""
        if not isinstance(source, EventOperator):
            return False
        frontier: List[Node] = [target]
        seen: Set[int] = set()
        while frontier:
            node = frontier.pop()
            if node is source:
                return True
            if id(node) in seen:
                continue
            seen.add(id(node))
            frontier.extend(self.downstream(node))
        return False

    def reachable_subgraph(
        self, root: EventOperator
    ) -> Tuple[Set[int], List[EventOperator], List[EventProducer]]:
        """Everything upstream of *root* (inclusive)."""
        seen: Set[int] = set()
        operators: List[EventOperator] = []
        producers: List[EventProducer] = []
        frontier: List[Node] = [root]
        while frontier:
            node = frontier.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, EventOperator):
                operators.append(node)
                frontier.extend(src for src, __ in self.upstream(node))
            else:
                producers.append(node)
        return seen, operators, producers


class AwarenessDescription:
    """``AD_P``: the sub-DAG of a graph rooted at one operator.

    Pure structure; the events its root detects reach whoever deployed
    the window (see :class:`~repro.awareness.detector.DetectorAgent`).
    """

    def __init__(self, graph: EventGraph, root: EventOperator) -> None:
        self.graph = graph
        self.root = root

    @property
    def process_schema_id(self) -> str:
        return self.root.process_schema_id

    def operators(self) -> Tuple[EventOperator, ...]:
        __, operators, ___ = self.graph.reachable_subgraph(self.root)
        return tuple(operators)

    def producers(self) -> Tuple[EventProducer, ...]:
        __, ___, producers = self.graph.reachable_subgraph(self.root)
        return tuple(producers)

    def depth(self) -> int:
        """Longest producer-to-root operator chain (pipeline latency bound)."""

        def node_depth(node: Node) -> int:
            if isinstance(node, EventProducer):
                return 0
            upstream = self.graph.upstream(node)
            if not upstream:
                return 1
            return 1 + max(node_depth(source) for source, __ in upstream)

        return node_depth(self.root)

    def validate(self) -> None:
        """Check the Section 5.1 structural rules for this description.

        * the root is an operator with every input slot wired;
        * every reachable operator has all slots wired (cardinality);
        * every leaf is a primitive event producer;
        * the graph is acyclic (enforced on construction; re-checked here).
        """
        __, operators, producers = self.graph.reachable_subgraph(self.root)
        if not producers:
            raise DagValidationError(
                f"description rooted at {self.root.instance_name!r} has no "
                f"primitive event producers"
            )
        for operator in operators:
            wired = {slot for __, slot in self.graph.upstream(operator)}
            missing = set(range(operator.arity)) - wired
            if missing:
                raise DagValidationError(
                    f"operator {operator.instance_name!r} has unwired input "
                    f"slots {sorted(missing)}"
                )
        # Re-run cycle detection from the root (cheap belt-and-braces).
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Depth-first from the root, one explicit stack: a source met
        again while it is still on the path closes a cycle."""
        upstream = self.graph.upstream
        GRAY, BLACK = 1, 2
        color: Dict[int, int] = {id(self.root): GRAY}
        stack: List[Tuple[Node, Iterator[Tuple[Node, int]]]] = [
            (self.root, iter(upstream(self.root)))
        ]
        while stack:
            node, sources = stack[-1]
            for source, __ in sources:
                state = color.get(id(source))
                if state == GRAY:
                    raise DagValidationError(
                        f"cycle detected through {_node_name(source)!r}"
                    )
                if state is None:
                    if isinstance(source, EventOperator):
                        color[id(source)] = GRAY
                        stack.append((source, iter(upstream(source))))
                        break
                    color[id(source)] = BLACK  # a producer: a leaf
            else:
                color[id(node)] = BLACK
                stack.pop()
