"""Activity state schemas (Section 4, Figure 4).

Each activity schema contains an activity state variable associated with an
*activity state schema*, which enumerates the possible activity states for
instances of that activity schema and the allowed state transitions.  A
transition from one state to another constitutes a primitive *activity
event*; the CORE engine publishes these events and the Awareness Model
consumes them.

Two rules from the paper are enforced here:

* **Substate forests.**  Application-specific states may only be defined as
  substates of already-defined states, producing a forest whose roots are the
  generic states of Figure 4 (``Uninitialized``, ``Ready``, ``Running``,
  ``Suspended``, and ``Closed`` with its substates ``Completed`` and
  ``Terminated``).
* **Leaf-only transitions.**  State transitions must only connect leaves of
  the forest.  When a previously-leaf state is specialized into substates,
  its existing transitions are re-targeted onto a designated *default*
  substate (see :meth:`ActivityStateSchema.specialize`), keeping the schema
  valid while preserving the generic behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import InvalidTransitionError, StateError, UnknownStateError

# Generic state names, matching Figure 4 of the paper.
UNINITIALIZED = "Uninitialized"
READY = "Ready"
RUNNING = "Running"
SUSPENDED = "Suspended"
CLOSED = "Closed"
COMPLETED = "Completed"
TERMINATED = "Terminated"

GENERIC_STATES = (
    UNINITIALIZED,
    READY,
    RUNNING,
    SUSPENDED,
    CLOSED,
    COMPLETED,
    TERMINATED,
)


@dataclass(frozen=True)
class Transition:
    """A directed state transition between two (leaf) states."""

    source: str
    target: str

    def __str__(self) -> str:
        return f"{self.source} -> {self.target}"


@dataclass
class StateNode:
    """A node in the activity-state forest.

    ``parent is None`` marks a root (one of the generic states or an
    application-defined root in a fully custom schema).
    """

    name: str
    parent: Optional[str] = None
    children: List[str] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class ActivityStateSchema:
    """A forest of activity states plus a leaf-to-leaf transition relation.

    The schema is mutable during process specification (states and
    transitions are added) and is treated as immutable once instances run
    against it.  :meth:`validate` checks the paper's structural rules and is
    called by the CORE engine when a schema is registered.
    """

    def __init__(self, name: str, initial_state: Optional[str] = None) -> None:
        self.name = name
        self._nodes: Dict[str, StateNode] = {}
        self._transitions: Set[Transition] = set()
        self._outgoing: Dict[str, Set[str]] = {}
        self._initial: Optional[str] = initial_state
        # Set by validate(), cleared by every mutator: instances re-validate
        # only a schema that changed since it last passed.
        self._validated = False

    # -- construction -------------------------------------------------------

    def add_state(self, name: str, parent: Optional[str] = None) -> StateNode:
        """Add a state; with *parent* set, the state becomes a substate.

        Adding a substate to a state that already participates in
        transitions is rejected (the schema would violate the leaf-only
        rule); use :meth:`specialize` for that case.
        """
        self._validated = False
        if name in self._nodes:
            raise StateError(f"duplicate state {name!r} in schema {self.name!r}")
        if parent is not None:
            parent_node = self._node(parent)
            if self._has_transitions(parent):
                raise StateError(
                    f"cannot add substate {name!r} under {parent!r}: "
                    f"{parent!r} participates in transitions; use specialize()"
                )
            parent_node.children.append(name)
        self._nodes[name] = StateNode(name=name, parent=parent)
        return self._nodes[name]

    def add_transition(self, source: str, target: str) -> Transition:
        """Add a leaf-to-leaf transition."""
        self._validated = False
        source_node = self._node(source)
        target_node = self._node(target)
        if not source_node.is_leaf or not target_node.is_leaf:
            raise StateError(
                f"transition {source} -> {target} must connect leaves of the forest"
            )
        if source == target:
            raise StateError(f"self-transition on {source!r} is not allowed")
        transition = Transition(source, target)
        self._transitions.add(transition)
        self._outgoing.setdefault(source, set()).add(target)
        return transition

    def specialize(
        self,
        state: str,
        substates: Iterable[str],
        default: Optional[str] = None,
    ) -> List[StateNode]:
        """Split *state* into application-specific *substates*.

        Existing transitions touching *state* are re-targeted onto the
        *default* substate (the first substate when not given), so the schema
        keeps satisfying the leaf-only transition rule.  Returns the new
        nodes.
        """
        self._validated = False
        node = self._node(state)
        names = list(substates)
        if not names:
            raise StateError(f"specialize({state!r}) requires at least one substate")
        for name in names:
            if name in self._nodes:
                raise StateError(f"duplicate state {name!r} in schema {self.name!r}")
        default_name = default if default is not None else names[0]
        if default_name not in names:
            raise StateError(
                f"default substate {default_name!r} is not among the new substates"
            )

        # Create the substate nodes first.
        created = []
        for name in names:
            node.children.append(name)
            self._nodes[name] = StateNode(name=name, parent=state)
            created.append(self._nodes[name])

        # The initial state must stay a leaf: specializing it moves the
        # designation onto the default substate.
        if self._initial == state:
            self._initial = default_name

        # Re-target transitions that touched the (formerly leaf) state.
        touched = [t for t in self._transitions if state in (t.source, t.target)]
        for old in touched:
            self._transitions.discard(old)
            self._outgoing.get(old.source, set()).discard(old.target)
            new_source = default_name if old.source == state else old.source
            new_target = default_name if old.target == state else old.target
            replacement = Transition(new_source, new_target)
            self._transitions.add(replacement)
            self._outgoing.setdefault(new_source, set()).add(new_target)
        return created

    def set_initial(self, state: str) -> None:
        """Designate the initial state for new instances (must be a leaf)."""
        self._validated = False
        node = self._node(state)
        if not node.is_leaf:
            raise StateError(f"initial state {state!r} must be a leaf")
        self._initial = state

    # -- inspection ---------------------------------------------------------

    @property
    def initial_state(self) -> str:
        if self._initial is None:
            raise StateError(f"schema {self.name!r} has no initial state")
        return self._initial

    def states(self) -> Tuple[str, ...]:
        """All state names in definition order."""
        return tuple(self._nodes)

    def roots(self) -> Tuple[str, ...]:
        return tuple(n.name for n in self._nodes.values() if n.parent is None)

    def leaves(self) -> Tuple[str, ...]:
        return tuple(n.name for n in self._nodes.values() if n.is_leaf)

    def transitions(self) -> FrozenSet[Transition]:
        return frozenset(self._transitions)

    def has_state(self, name: str) -> bool:
        return name in self._nodes

    def parent_of(self, name: str) -> Optional[str]:
        return self._node(name).parent

    def children_of(self, name: str) -> Tuple[str, ...]:
        return tuple(self._node(name).children)

    def ancestors(self, name: str) -> Tuple[str, ...]:
        """The chain of ancestors of *name*, nearest first (excludes *name*)."""
        chain = []
        parent = self._node(name).parent
        while parent is not None:
            chain.append(parent)
            parent = self._nodes[parent].parent
        return tuple(chain)

    def root_of(self, name: str) -> str:
        """The generic (root) state that *name* specializes."""
        ancestors = self.ancestors(name)
        return ancestors[-1] if ancestors else name

    def is_substate_of(self, name: str, ancestor: str) -> bool:
        """True when *name* equals *ancestor* or lies below it in the forest."""
        self._node(ancestor)
        return name == ancestor or ancestor in self.ancestors(name)

    def can_transition(self, source: str, target: str) -> bool:
        self._node(source)
        self._node(target)
        return target in self._outgoing.get(source, ())

    def successors(self, source: str) -> Tuple[str, ...]:
        self._node(source)
        return tuple(sorted(self._outgoing.get(source, ())))

    def terminal_states(self) -> Tuple[str, ...]:
        """Leaves without outgoing transitions (e.g. Completed, Terminated)."""
        return tuple(
            name
            for name in self.leaves()
            if not self._outgoing.get(name)
        )

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check the paper's structural rules; raise :class:`StateError`."""
        if not self._nodes:
            raise StateError(f"schema {self.name!r} has no states")
        if self._initial is None:
            raise StateError(f"schema {self.name!r} has no initial state")
        if not self._node(self._initial).is_leaf:
            raise StateError(
                f"initial state {self._initial!r} of {self.name!r} is not a leaf"
            )
        for transition in self._transitions:
            for endpoint in (transition.source, transition.target):
                if not self._node(endpoint).is_leaf:
                    raise StateError(
                        f"transition {transition} in {self.name!r} touches "
                        f"non-leaf state {endpoint!r}"
                    )
        # Parent links and child links must agree (guards manual mutation).
        for node in self._nodes.values():
            for child in node.children:
                if self._node(child).parent != node.name:
                    raise StateError(
                        f"inconsistent forest around {node.name!r}/{child!r}"
                    )
        self._validated = True

    # -- helpers ------------------------------------------------------------

    def _node(self, name: str) -> StateNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownStateError(
                f"unknown state {name!r} in schema {self.name!r}"
            ) from None

    def _has_transitions(self, name: str) -> bool:
        return any(name in (t.source, t.target) for t in self._transitions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ActivityStateSchema({self.name!r}, states={len(self._nodes)}, "
            f"transitions={len(self._transitions)})"
        )


def generic_activity_state_schema(name: str = "generic") -> ActivityStateSchema:
    """Build the generic activity state schema of Figure 4.

    ``Closed`` is a non-leaf with substates ``Completed`` and ``Terminated``;
    all transitions connect leaves, consistent with the WfMC-derived diagram:

    * ``Uninitialized -> Ready``
    * ``Ready -> Running``, ``Ready -> Terminated``
    * ``Running -> Suspended``, ``Suspended -> Running``
    * ``Running -> Completed``, ``Running -> Terminated``
    * ``Suspended -> Terminated``
    """
    schema = ActivityStateSchema(name)
    schema.add_state(UNINITIALIZED)
    schema.add_state(READY)
    schema.add_state(RUNNING)
    schema.add_state(SUSPENDED)
    schema.add_state(CLOSED)
    schema.add_state(COMPLETED, parent=CLOSED)
    schema.add_state(TERMINATED, parent=CLOSED)
    schema.add_transition(UNINITIALIZED, READY)
    schema.add_transition(READY, RUNNING)
    schema.add_transition(READY, TERMINATED)
    schema.add_transition(RUNNING, SUSPENDED)
    schema.add_transition(SUSPENDED, RUNNING)
    schema.add_transition(RUNNING, COMPLETED)
    schema.add_transition(RUNNING, TERMINATED)
    schema.add_transition(SUSPENDED, TERMINATED)
    schema.set_initial(UNINITIALIZED)
    schema.validate()
    return schema


@dataclass(frozen=True)
class StateChange:
    """One recorded transition of a state machine (old -> new at a time)."""

    time: int
    old_state: str
    new_state: str
    user: Optional[str] = None


class StateMachine:
    """The run-time side of an activity state schema.

    One state machine lives inside each activity instance.  It enforces that
    every transition is declared in the schema and records a timestamped
    history, which the monitoring tool and Figure 1 timeline rendering use.
    """

    def __init__(self, schema: ActivityStateSchema) -> None:
        if not schema._validated:
            schema.validate()
        self._schema = schema
        self._current = schema.initial_state
        self._history: List[StateChange] = []

    @property
    def schema(self) -> ActivityStateSchema:
        return self._schema

    @property
    def current_state(self) -> str:
        return self._current

    @property
    def history(self) -> Tuple[StateChange, ...]:
        return tuple(self._history)

    def is_in(self, state: str) -> bool:
        """True when the current leaf state equals or specializes *state*."""
        return self._schema.is_substate_of(self._current, state)

    def is_closed(self) -> bool:
        """True when the machine reached a terminal leaf (no way out)."""
        return not self._schema.successors(self._current)

    def transition_to(
        self, new_state: str, time: int, user: Optional[str] = None
    ) -> StateChange:
        """Move to *new_state*; raises unless the schema allows it."""
        if not self._schema.has_state(new_state):
            raise UnknownStateError(
                f"unknown state {new_state!r} in schema {self._schema.name!r}"
            )
        if not self._schema.can_transition(self._current, new_state):
            raise InvalidTransitionError(
                f"transition {self._current} -> {new_state} is not allowed "
                f"by schema {self._schema.name!r}"
            )
        change = StateChange(
            time=time, old_state=self._current, new_state=new_state, user=user
        )
        self._current = new_state
        self._history.append(change)
        return change

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateMachine(schema={self._schema.name!r}, state={self._current!r})"
