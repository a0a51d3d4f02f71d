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
  wiring (a producer leaf registers the operator's entry, or the segment
  it roots, an operator edge joins the upstream node's fan-out), edges
  into already-shared nodes are skipped (the wiring exists), and edges
  into the per-window Output roots add one fan-out entry on the shared
  node — which that node's ``emit`` sees at once.  Each Output root is
  wired straight to the deploying detector agent.

* **DeployedPlan** — the refcounted handle: ``undeploy`` detaches only
  the output fan-out plus whatever shared nodes no surviving window
  references.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import SpecificationError
from .description import Node
from .operators.base import Consumer, EventOperator, Step
from .operators.segments import link_segment
from .specification import SpecificationWindow

PlanKey = Tuple[Any, ...]
#: One installed link: the source node and the ``remove_consumer``
#: arguments that undo it.
Link = Tuple[Node, Tuple[Any, ...]]


def wire(
    source: Node, target: EventOperator, slot: int, entry: Optional[Step] = None
) -> Link:
    """Make the DAG edge *source* → *slot* of *target* a live link.

    The one statement of the rule; :meth:`PlanCache.deploy` is its only
    caller.  An operator edge joins the upstream operator's fan-out.  A
    producer leaf registers *entry* — the segment the target roots — or,
    outside any segment, the target's own entry, on the producer's
    routing index: operators with a static match key (the filters) are
    only visited for events carrying their key; everything else rides
    the wildcard bucket.
    """
    if isinstance(source, EventOperator):
        source.add_consumer(target.consume, slot)
        return (source, (target.consume, slot))
    if entry is None:
        entry = target.step(slot)
    source.add_consumer(entry, target.routing_keys(slot))
    return (source, (entry,))


def unwire(links: List[Link]) -> None:
    """Undo the installation of each of *links*."""
    for source, registration in links:
        source.remove_consumer(*registration)


def _fusible(operator: EventOperator) -> bool:
    """True for a family a segment may hold: a single-input one whose
    output is a ``C_P`` record.  Multi-input families and ``Output``
    (which is no plan-cache entry either) run on their hop entries."""
    template = operator.template
    single = len(operator.signature.input_types) == 1
    return single and template is not None and template.make is None


def _joins(upstream: EventOperator, operator: EventOperator) -> bool:
    """True when the hop *upstream* -> *operator* runs inside one segment:
    both are fusible, *operator* does not lift, and it is *upstream*'s
    only consumer."""
    fanout = upstream._fanout
    return (
        len(fanout) == 1
        and fanout[0][0] is operator
        and _fusible(upstream)
        and _fusible(operator)
        and not operator.template.lift  # type: ignore[union-attr]
    )


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
        #: The same entries by ``id`` of their operator.
        self._entries: Dict[int, SharedNode] = {}
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
        becomes the slot-0 consumer of each schema's Output root.  Every
        node key is computed and hashed before anything is interned, and
        a deploy that fails later is undone: a failed deploy leaves the
        cache as it found it.
        """
        window.validate()
        graph = window.graph
        roots = [schema.description.root for schema in window.schemas()]
        order = self._topological(graph, {id(root) for root in roots})

        keys: Dict[int, PlanKey] = {}
        for operator in order:
            key = self._node_key(operator, graph, keys)
            try:
                hash(key)
            except TypeError as exc:
                raise SpecificationError(
                    f"operator {operator.instance_name!r} ({operator.family}) "
                    f"has a plan parameter that cannot be keyed: {exc}"
                ) from None
            keys[id(operator)] = key

        plan = DeployedPlan(self, window, [], [], 0)
        next_plan_id = self._next_plan_id
        try:
            self._link(plan, order, keys, roots, consumer)
        except BaseException:
            self._release(plan)
            self._next_plan_id = next_plan_id
            raise
        self.operators_resolved += len(plan.entries)
        self.operators_deduped += plan.shared_hits
        self._plans.append(plan)
        return plan

    def _link(
        self,
        plan: DeployedPlan,
        order: List[EventOperator],
        keys: Dict[int, PlanKey],
        roots: List[EventOperator],
        consumer: Consumer,
    ) -> None:
        """Intern *order* and wire the window's edges into *plan*, then
        relink the segments the new wiring changed."""
        output_ids = {id(root) for root in roots}
        resolved: Dict[int, EventOperator] = {}
        fresh: Dict[int, SharedNode] = {}
        for operator in order:
            key = keys[id(operator)]
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
                self._entries[id(operator)] = entry
                operator._segment = ()
                fresh[id(operator)] = entry
            else:
                plan.shared_hits += 1
            entry.refcount += 1
            plan.entries.append(entry)
            resolved[id(operator)] = entry.operator

        # Wire following the authoring edge order, so a canonical
        # window's consumer lists come out in the order its edges were
        # drawn — detection order is invariant under sharing.
        # A fresh leaf is registered on its producer last, when the
        # segment it roots is known (in edge order among the leaves).
        touched: List[Node] = [entry.operator for entry in fresh.values()]
        leaves: List[Tuple[SharedNode, Node, int]] = []
        for source, target, slot in plan.window.graph.edges():
            if isinstance(source, EventOperator):
                source = resolved[id(source)]
            if id(target) in output_ids:
                # The per-window delivery root: always a fresh fan-out
                # entry on the (possibly shared) source node.
                plan.output_links.append(wire(source, target, slot))
                if id(source) not in fresh:
                    touched.append(source)
                continue
            entry = fresh.get(id(target))
            if entry is None:
                # The target resolved to an already-interned node: its
                # input wiring was installed when that node was interned.
                continue
            if isinstance(source, EventOperator):
                entry.links.append(wire(source, entry.operator, slot))
                if id(source) not in fresh:
                    touched.append(source)
            else:
                leaves.append((entry, source, slot))
        for root in roots:
            root.add_consumer(consumer, 0)
            plan.output_links.append((root, (consumer, 0)))
        self._relink(touched)
        for entry, producer, slot in leaves:
            operator = entry.operator
            segment = self._segment_entry(operator) if operator._segment else None
            entry.links.append(wire(producer, operator, slot, segment))

    # -- release -----------------------------------------------------------

    def _release(self, plan: DeployedPlan) -> None:
        """Undo one deploy: drop the output fan-out, then unreference.

        Entries are walked root-first (reverse topological order) so a
        dying node's own consumer registrations on still-live upstream
        nodes are removed before those upstreams are considered; then the
        segments around every node that lost a consumer are relinked.
        The window's Output roots and every freed node are unlinked, and
        the plan drops its links, the deploying consumer's among them:
        what the deploy built is then freed by reference counting, with
        nothing left for the cyclic collector.
        """
        touched = [source for source, __ in plan.output_links]
        unwire(plan.output_links)
        plan.output_links = []
        for schema in plan.window.schemas():
            schema.description.root.unlink()
        for entry in reversed(plan.entries):
            entry.refcount -= 1
            if entry.refcount == 0:
                del self._nodes[entry.key]
                del self._entries[id(entry.operator)]
                touched += [source for source, __ in entry.links]
                unwire(entry.links)
                entry.links = []
                entry.operator.unlink()
        if plan in self._plans:
            self._plans.remove(plan)
        self._relink(touched)

    # -- segments ----------------------------------------------------------

    def _relink(self, touched: List[Node]) -> None:
        """Re-form the segments around *touched* nodes (new ones, and
        ones whose fan-out just changed) and swap in the entry of each
        run whose membership changed.

        A run changes only where a touched node sits: the run it is a
        hop of (found from its root), and a node it feeds that just
        started or stopped rooting a run of its own.  ``_segment`` is
        non-empty exactly on the nodes installed as roots.
        """
        live = self._entries
        # Only live nodes; an operator feeding or fed by a live node is
        # live, so a touched one among those is in here too.
        nodes = {id(node): node for node in touched if id(node) in live}
        if not nodes:
            return
        roots: Dict[int, EventOperator] = {}
        demoted: List[EventOperator] = []
        for node in nodes.values():
            if _fusible(node):
                upstream = self._upstream(node)
                if upstream is None or not _joins(upstream, node):
                    roots[id(node)] = node
                else:
                    if node._segment:
                        demoted.append(node)
                    if id(upstream) not in nodes:
                        # (a touched upstream is visited itself)
                        root = self._root_of(upstream)
                        roots[id(root)] = root
            for link in node._fanout:
                following = link[0]
                if (
                    following is None
                    or id(following) in nodes
                    or not _fusible(following)
                    or id(following) not in live
                ):
                    continue
                joined = _joins(node, following)
                if joined and following._segment:
                    demoted.append(following)
                elif not joined:
                    roots[id(following)] = following
        for operator in demoted:
            self._install(operator, ())
        for operator in roots.values():
            members = self._members(operator)
            if members != operator._segment:
                self._install(operator, members)

    def _upstream(self, operator: EventOperator) -> Optional[EventOperator]:
        """What feeds live single-slot node *operator*, if an operator."""
        links = self._entries[id(operator)].links
        source = links[0][0] if links else None
        return source if isinstance(source, EventOperator) else None

    def _root_of(self, operator: EventOperator) -> EventOperator:
        """The first operator of the run *operator* is a hop of."""
        upstream = self._upstream(operator)
        while upstream is not None and _joins(upstream, operator):
            operator = upstream
            upstream = self._upstream(operator)
        return operator

    def _members(self, root: EventOperator) -> Tuple[EventOperator, ...]:
        """*root* and every live node its run continues into."""
        members = [root]
        operator = root
        while len(operator._fanout) == 1:
            following = operator._fanout[0][0]
            if (
                following is None
                or id(following) not in self._entries
                or not _joins(operator, following)
            ):
                break
            members.append(following)
            operator = following
        return tuple(members)

    def _install(
        self, operator: EventOperator, members: Tuple[EventOperator, ...]
    ) -> None:
        """Make *operator*'s input link run *members* as one segment, or
        *operator*'s own entry when *members* is empty.  A leaf not yet
        registered is only marked: :meth:`_link` registers it."""
        operator._segment = members
        if self._entries[id(operator)].links:
            fresh = self._segment_entry(operator) if members else operator.step(0)
            self._rebind(operator, None, fresh)

    def _segment_entry(self, operator: EventOperator) -> Step:
        """The segment *operator* roots, rebinding itself here once its
        shape is compiled."""
        return link_segment(operator._segment, partial(self._rebind, operator))

    def _rebind(
        self, operator: EventOperator, stale: Optional[Step], fresh: Step
    ) -> None:
        """Swap *fresh* in as what *operator*'s input link calls — the
        upstream fan-out link's entry, or the producer's registration —
        in place; given *stale*, only where that is still the one."""
        entry = self._entries.get(id(operator))
        if entry is None or not entry.links:
            return
        source, registration = entry.links[0]
        if isinstance(source, EventOperator):
            fanout = source._fanout
            for index, (following, slot, current) in enumerate(fanout):
                if following is operator and slot == 0:
                    if stale is None or current is stale:
                        fanout[index] = (operator, 0, fresh)
                    return
            return
        if stale is None or registration[0] is stale:
            source.replace_consumer(registration[0], fresh, operator.routing_keys(0))
            entry.links[0] = (source, (fresh,))

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

    def stats(self) -> Dict[str, int]:
        """Sharing counters for the engine's metrics/stats surface."""
        return {
            "windows_deployed": len(self._plans),
            "nodes_live": len(self._nodes),
            "operators_resolved": self.operators_resolved,
            "operators_deduped": self.operators_deduped,
        }

    def describe(self) -> List[Dict[str, object]]:
        """Inspection rows for ``repro plans``: one per live interned node.

        ``segment`` names the node whose generated segment this node runs
        in (its own id when it roots one), or is ``None`` for a node that
        runs on its family's entry alone.
        """
        segment_of: Dict[int, str] = {}
        for entry in self._nodes.values():
            for member in entry.operator._segment:
                segment_of[id(member)] = f"plan-{entry.plan_id}"
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
                    "segment": segment_of.get(id(operator)),
                    "refs": entry.refcount,
                    "consumers": len(operator._consumers),
                    "consumed": operator.consumed,
                    "produced": operator.produced,
                }
            )
        return rows
