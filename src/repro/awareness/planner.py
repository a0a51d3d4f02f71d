"""Shared detector plans: common-subexpression elimination across windows.

The paper's pitch is *customized* awareness — every participant can carry
their own specification — so a realistic deployment holds many windows
that are structurally identical up to the delivery role.  Deploying each
window as a private operator chain makes recognition cost and operator
state O(windows).  This module applies the classic continuous-query
answer (NiagaraCQ-style group optimization): intern equivalent sub-DAGs
once and fan their outputs out, so N customized copies of one
specification cost one shared plan plus an O(N) output layer.

Three pieces:

* **Canonicalizer** — :meth:`PlanCache._node_key` computes a structural
  key per operator bottom-up: ``(family, instance name, plan_params,
  input keys)``, with input keys order-normalized for commutative
  families (``Or``).  Operators whose
  :meth:`~repro.awareness.operators.base.EventOperator.plan_params`
  returns ``None`` (Output, external filters) get an identity key, which
  keeps them — and everything downstream of them — private per window.
  The instance name is deliberately part of the key: shared nodes only
  merge when the designer named them identically, which is exactly the
  "N customized copies of one template" case and keeps recognition
  provenance chains byte-identical to an unshared engine.

* **PlanCache** — the only linker: a specification window is inert
  structure until it is deployed here (the awareness engine owns one
  shared cache; a window can be run without an engine on a private
  one).  Deploying resolves each of the window's operators to a cached
  node (dropping the window's private copy) or interns the window's own
  instance as the cache entry, then wires the recorded DAG edges in
  authoring order: edges into freshly-interned nodes install the shared
  wiring (a producer leaf registers the operator's linked ``step``
  itself, an operator edge joins the upstream node's fan-out), edges
  into already-shared nodes are skipped (the wiring exists), and edges
  into the per-window Output roots add one fan-out entry on the shared
  node — which that node's ``emit`` sees at once.  Each Output root is
  wired straight to the deploying detector agent.

* **DeployedPlan** — the refcounted handle: ``undeploy`` detaches only
  the output fan-out plus whatever shared nodes no surviving window
  references.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import SpecificationError
from .description import Node
from .operators.base import Consumer, EventOperator
from .specification import SpecificationWindow

PlanKey = Tuple[Any, ...]
#: One installed link: the source node and the ``remove_consumer``
#: arguments that undo it.
Link = Tuple[Node, Tuple[Any, ...]]


def wire(source: Node, target: EventOperator, slot: int) -> Link:
    """Make the DAG edge *source* → *slot* of *target* a live link.

    The one statement of the rule; :meth:`PlanCache.deploy` is its only
    caller.  An operator edge joins the upstream operator's fan-out.  A
    producer leaf registers the target's linked step itself on the
    producer's routing index: operators with a static match key (the
    filters) are only visited for events carrying their key; everything
    else rides the wildcard bucket.
    """
    if isinstance(source, EventOperator):
        source.add_consumer(target.consume, slot)
        return (source, (target.consume, slot))
    step = target.step(slot)
    source.add_consumer(step, target.routing_keys(slot))
    return (source, (step,))


def unwire(links: List[Link]) -> None:
    """Undo the installation of each of *links*."""
    for source, registration in links:
        source.remove_consumer(*registration)


class SharedNode:
    """One interned operator: the live instance plus attach bookkeeping.

    ``links`` records the input wiring this node's interning installed,
    so the cache can unwire exactly that when the last referencing
    window undeploys.
    """

    __slots__ = ("key", "operator", "refcount", "plan_id", "shareable", "links")

    def __init__(
        self, key: PlanKey, operator: EventOperator, plan_id: int, shareable: bool
    ) -> None:
        self.key = key
        self.operator = operator
        self.refcount = 0
        self.plan_id = plan_id
        self.shareable = shareable
        self.links: List[Link] = []


class DeployedPlan:
    """What one window's deploy resolved to; :meth:`detach` releases it."""

    __slots__ = ("window", "entries", "output_links", "shared_hits", "_cache", "_released")

    def __init__(
        self,
        cache: "PlanCache",
        window: SpecificationWindow,
        entries: List[SharedNode],
        output_links: List[Link],
        shared_hits: int,
    ) -> None:
        self._cache = cache
        self.window = window
        #: One entry per resolved non-Output operator, in topological
        #: order; an entry appears twice when the window itself contained
        #: the same subexpression twice (its refcount was bumped twice).
        self.entries = entries
        self.output_links = output_links
        #: How many of this window's operators resolved to a node another
        #: window (or an earlier part of this one) had already interned.
        self.shared_hits = shared_hits
        self._released = False

    @property
    def operator_count(self) -> int:
        return len(self.entries)

    @property
    def released(self) -> bool:
        return self._released

    def detach(self) -> None:
        """Release this window's hold on the shared plan (idempotent)."""
        if self._released:
            return
        self._released = True
        self._cache._release(self)


class PlanCache:
    """Interns operator nodes by structural key across deployed windows."""

    def __init__(self) -> None:
        self._nodes: Dict[PlanKey, SharedNode] = {}
        self._plans: List[DeployedPlan] = []
        self._next_plan_id = 1
        #: Cumulative counters (never decremented on undeploy).
        self.operators_resolved = 0
        self.operators_deduped = 0

    # -- deployment --------------------------------------------------------

    def deploy(
        self, window: SpecificationWindow, consumer: Consumer
    ) -> DeployedPlan:
        """Validate *window*, resolve it against the cache and link it.

        Authoring only recorded the window's edges, so nothing is live
        before this call and nothing is wired when validation fails; the
        cache owns all live wiring for the window, and
        :meth:`DeployedPlan.detach` is the only unwire path.  *consumer*
        becomes the slot-0 consumer of each schema's Output root.
        """
        window.validate()
        graph = window.graph
        roots = [schema.description.root for schema in window.schemas()]
        output_ids = {id(root) for root in roots}
        order = self._topological(graph, output_ids)

        keys: Dict[int, PlanKey] = {}
        resolved: Dict[int, EventOperator] = {}
        fresh: Dict[int, SharedNode] = {}
        entries: List[SharedNode] = []
        shared_hits = 0
        for operator in order:
            key = self._node_key(operator, graph, keys)
            keys[id(operator)] = key
            entry = self._nodes.get(key)
            if entry is None:
                # This window's own instance becomes the cache entry.
                entry = SharedNode(
                    key,
                    operator,
                    self._next_plan_id,
                    shareable=operator.plan_params() is not None,
                )
                self._next_plan_id += 1
                self._nodes[key] = entry
                fresh[id(operator)] = entry
            else:
                shared_hits += 1
            entry.refcount += 1
            entries.append(entry)
            resolved[id(operator)] = entry.operator

        # Wire following the authoring edge order, so a canonical
        # window's consumer lists come out in the order its edges were
        # drawn — detection order is invariant under sharing.
        output_links: List[Link] = []
        for source, target, slot in graph.edges():
            if isinstance(source, EventOperator):
                source = resolved[id(source)]
            if id(target) in output_ids:
                # The per-window delivery root: always a fresh fan-out
                # entry on the (possibly shared) source node.
                output_links.append(wire(source, target, slot))
                continue
            entry = fresh.get(id(target))
            if entry is not None:
                entry.links.append(wire(source, entry.operator, slot))
            # else the target resolved to an already-interned node: its
            # input wiring was installed when that node was interned.
        for root in roots:
            root.add_consumer(consumer, 0)
            output_links.append((root, (consumer, 0)))

        self.operators_resolved += len(entries)
        self.operators_deduped += shared_hits
        plan = DeployedPlan(self, window, entries, output_links, shared_hits)
        self._plans.append(plan)
        return plan

    # -- release -----------------------------------------------------------

    def _release(self, plan: DeployedPlan) -> None:
        """Undo one deploy: drop the output fan-out, then unreference.

        Entries are walked root-first (reverse topological order) so a
        dying node's own consumer registrations on still-live upstream
        nodes are removed before those upstreams are considered.
        """
        unwire(plan.output_links)
        for entry in reversed(plan.entries):
            entry.refcount -= 1
            if entry.refcount == 0:
                del self._nodes[entry.key]
                unwire(entry.links)
        self._plans.remove(plan)

    # -- canonicalization --------------------------------------------------

    def _node_key(
        self,
        operator: EventOperator,
        graph: Any,
        keys: Dict[int, PlanKey],
    ) -> PlanKey:
        params = operator.plan_params()
        if params is None:
            # Non-shareable: an identity key.  The cache holds a strong
            # reference to the operator while the entry lives, so the id
            # cannot be recycled by a different live operator; everything
            # downstream inherits uniqueness through its input keys.
            return ("unique", id(operator))
        inputs: List[Optional[Any]] = [None] * operator.arity
        for source, slot in graph.upstream(operator):
            inputs[slot] = source
        child_keys: List[PlanKey] = []
        for source in inputs:
            if isinstance(source, EventOperator):
                child_keys.append(keys[id(source)])
            else:
                child_keys.append(("producer", source.producer_id))
        if operator.plan_commutative:
            child_keys.sort(key=repr)
        return (
            operator.family,
            operator.instance_name,
            params,
            tuple(child_keys),
        )

    @staticmethod
    def _topological(graph: Any, output_ids: Set[int]) -> List[EventOperator]:
        """Non-Output operators in bottom-up (inputs-first) wave order."""
        pending = [
            operator
            for operator in graph.operators()
            if id(operator) not in output_ids
        ]
        order: List[EventOperator] = []
        placed: Set[int] = set()
        while pending:
            remaining = []
            progressed = False
            for operator in pending:
                ready = all(
                    not isinstance(source, EventOperator)
                    or id(source) in placed
                    for source, __ in graph.upstream(operator)
                )
                if ready:
                    order.append(operator)
                    placed.add(id(operator))
                    progressed = True
                else:
                    remaining.append(operator)
            if not progressed:
                raise SpecificationError(
                    "window contains operators whose inputs do not resolve"
                )
            pending = remaining
        return order

    # -- inspection --------------------------------------------------------

    def plans(self) -> Tuple[DeployedPlan, ...]:
        return tuple(self._plans)

    def live_node_count(self) -> int:
        return len(self._nodes)

    def stats(self) -> Dict[str, int]:
        """Sharing counters for the engine's metrics/stats surface."""
        return {
            "windows_deployed": len(self._plans),
            "nodes_live": len(self._nodes),
            "operators_resolved": self.operators_resolved,
            "operators_deduped": self.operators_deduped,
        }

    def describe(self) -> List[Dict[str, object]]:
        """Inspection rows for ``repro plans``: one per live interned node."""
        rows: List[Dict[str, object]] = []
        for entry in sorted(self._nodes.values(), key=lambda e: e.plan_id):
            operator = entry.operator
            # DSL-authored comparisons render their textual form; the
            # default describe() would print the compiled predicate.
            rendering = getattr(operator, "_dsl_rendering", None)
            rows.append(
                {
                    "node_id": f"plan-{entry.plan_id}",
                    "family": operator.family,
                    "operator": rendering or operator.describe(),
                    "instance": operator.instance_name,
                    "shared": entry.shareable,
                    "refs": entry.refcount,
                    "consumers": len(operator._consumers),
                    "consumed": operator.consumed,
                    "produced": operator.produced,
                }
            )
        return rows
