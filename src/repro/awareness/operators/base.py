"""Operator framework: typed slots, parameterization, instance replication.

Section 5.1.2 gives every AM operator three common properties, all
implemented here once:

* **Canonical event type** — operators declare a type signature
  ``Eop[p1..pm](T1..Tn) -> T_Eop``; the framework type-checks events
  arriving on each input slot, so a mis-wired awareness description fails
  loudly at the first event rather than silently dropping information.

* **Process instance replication** — "each event operator must replicate
  its algorithm for each process instance it receives events from ...
  because the process instance is a parameter on the canonical event type,
  the operator may simply use that event parameter to access its
  partitioned internal state."  :meth:`EventOperator.consume` computes the
  partition key (by default the canonical ``processInstanceId``) and hands
  the matching private state to the subclass algorithm.

* **Parameterization** — operator parameters are fixed per instance at
  design time; subclass constructors validate them and store them on the
  instance (usually the first parameter is ``P``, the process schema id).

"An event operator instance can be thought of as a computational pipeline
that can produce any number of output events for a single input event",
and the framework links it as one.  Every family states its algorithm
once, as a source :attr:`~EventOperator.template` (see :mod:`.segments`):
its partitioned state is the :attr:`~EventOperator._partitions` dict,
and the entry generated from it, one per input slot
(:meth:`EventOperator.step`), is the only way into that slot: it runs
the slot type guard and the ``consumed`` count, and pushes each output
through ``emit`` straight into the entries of the operators downstream,
one call per hop.  Producers call a slot's entry too; ``consume`` is
the public door to it.  Between a filter and an ``Output`` every event
is a :class:`~repro.events.canonical.CanonicalEvent` record, whose
fields the entries read and set.  The plan cache goes one step further
for single-input families: a run of them, each the only consumer of the
one before, is linked as one generated segment, which stands in for the
first one's entry and builds a record only where the event leaves it.
A family without a template cannot be registered, and cannot be linked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...errors import ParameterError, SlotError, SpecificationError
from ...events.event import Event, EventType
from ...observability import INSTRUMENTATION as _OBS
from .segments import Template, hop_entries

#: One input slot of a linked operator: feed it an event of the slot's
#: type (a ``CanonicalEvent`` record on every ``C_P`` slot).
Step = Callable[[Any], object]
#: ``emit(output, cause)`` hands one output downstream.  *cause* is the
#: triggering input event, or the tuple of all constituents when the
#: output composes several (And, Seq) — provenance links exactly those.
Emit = Callable[[Event, Any], None]
Consumer = Callable[[int, Event], object]
#: One entry of an operator's fan-out: the downstream operator, its slot
#: and what ``emit`` calls — the slot's entry, or the segment the
#: downstream operator roots.  A consumer that is not an operator has no
#: operator, and its callable with the slot bound.
Link = Tuple[Optional["EventOperator"], int, Step]


@dataclass(frozen=True)
class OperatorSignature:
    """The declared type signature ``(T1, ..., Tn) -> T_Eop``."""

    input_types: Tuple[EventType, ...]
    output_type: EventType

    @property
    def arity(self) -> int:
        return len(self.input_types)


class EventOperator:
    """Base class of all AM event operators."""

    #: Human-readable operator family name ("And", "Filter_activity", ...).
    family: str = "operator"

    #: True for operator families whose output stream does not depend on
    #: which input slot an event arrives on (only ``Or``): the plan
    #: canonicalizer may then order-normalize the input keys so mirrored
    #: wirings of the same streams intern to one shared node.
    plan_commutative: bool = False

    #: The family's algorithm as source (:mod:`.segments`); every family
    #: sets one.
    template: Optional[Template] = None

    def __init__(
        self,
        process_schema_id: str,
        signature: OperatorSignature,
        instance_name: Optional[str] = None,
    ) -> None:
        if not process_schema_id:
            raise ParameterError(
                f"{type(self).__name__} requires a process schema id P"
            )
        self.process_schema_id = process_schema_id
        self.signature = signature
        self.instance_name = instance_name or f"{self.family}"
        #: The family's state, per process instance (per invoked instance
        #: for ``Translate``), and nowhere else.  Kernels hold this very
        #: dict, so it is only ever mutated in place (snapshot restore
        #: included).
        self._partitions: Dict[Any, Any] = {}
        #: Downstream consumers: (callable, slot_index) pairs, wired by the
        #: plan cache at deploy.
        self._consumers: List[Tuple[Consumer, int]] = []
        #: What ``emit`` calls, one :data:`Link` per `_consumers` record.
        #: Mutated in place — a window deployed onto a live shared node
        #: is seen at once.
        self._fanout: List[Link] = []
        self.consumed = 0
        self.produced = 0
        #: Where :meth:`consume` collects the outputs it returns.
        self._tap: Optional[List[Event]] = None
        #: The family's entries, one per slot; empty until linked.
        self._entries: Tuple[Step, ...] = ()
        #: What the entries push outputs through; set when linked.
        self._emit: Optional[Emit] = None
        #: The operators of the segment this one roots, itself first, as
        #: the plan cache last linked it; empty while this operator runs
        #: as its upstream's hop (or outside any plan).
        self._segment: Tuple["EventOperator", ...] = ()

    # -- wiring -----------------------------------------------------------------

    @property
    def arity(self) -> int:
        return self.signature.arity

    def slot_type(self, slot: int) -> EventType:
        self._check_slot(slot)
        return self.signature.input_types[slot]

    @property
    def output_type(self) -> EventType:
        return self.signature.output_type

    def add_consumer(self, consumer: Consumer, slot: int) -> None:
        """Wire this operator's output into *slot* of a downstream consumer."""
        owner = getattr(consumer, "__self__", None)
        link: Link
        if (
            isinstance(owner, EventOperator)
            and getattr(consumer, "__func__", None) is EventOperator.consume
        ):
            link = (owner, slot, owner.step(slot))
        else:
            link = (None, slot, partial(consumer, slot))
        self._consumers.append((consumer, slot))
        self._fanout.append(link)

    def remove_consumer(
        self, consumer: Consumer, slot: Optional[int] = None
    ) -> None:
        """Unwire the first consumer equal to *consumer* (on *slot*, if given).

        Bound-method equality makes ``remove_consumer(op.consume, 2)``
        match the record installed by ``add_consumer(op.consume, 2)``; a
        no-op when nothing matches, so plan detach is idempotent.
        """
        for index, (existing, existing_slot) in enumerate(self._consumers):
            if existing == consumer and (slot is None or existing_slot == slot):
                del self._consumers[index]
                del self._fanout[index]
                return

    def plan_params(self) -> Optional[Tuple[Any, ...]]:
        """Hashable design-time parameters for plan sharing, or ``None``.

        ``None`` — the default — marks the operator *non-shareable*: the
        plan cache always deploys it (and everything downstream of it) as
        a private per-window node.  Families whose behavior is fully
        determined by their constructor parameters override this to
        return those parameters as a hashable tuple; two instances with
        equal family, instance name, parameters, and input plans then
        intern to one shared node across deployed windows.
        """
        return None

    def routing_keys(self, slot: int) -> Optional[Sequence[Any]]:
        """Static routing keys this operator can match on input *slot*.

        Operators whose parameters statically determine which events can
        pass (the filters) return the routing keys — hashables matching
        the key extractor of the slot's primitive event type — so the
        event substrate can index-route and skip them for every other
        event.  ``None`` (the default) means "no static predicate": the
        operator must observe every event on the slot's stream, and the
        substrate files it in the wildcard bucket.
        """
        self._check_slot(slot)
        return None

    # -- event flow ---------------------------------------------------------------

    def step(self, slot: int) -> Step:
        """The linked entry of input *slot*, what producers and upstream
        operators call once per event: the generated hop form, which
        runs the slot type guard, the ``consumed`` count and — while
        instrumentation is on, in a sampled trace — the
        ``operator.consume`` span (downstream spans nest in it).

        Linking happens on first use (the subclass constructor has run by
        then) and never again; later wiring changes reach the entries
        through :attr:`_fanout`.
        """
        self._check_slot(slot)
        if not self._entries:
            if self.template is None:
                raise SpecificationError(
                    f"operator family {type(self).__name__} has no template to link"
                )
            self._emit = self._emitter()
            self._entries = hop_entries(self, self._emit)
        return self._entries[slot]

    def consume(self, slot: int, event: Event) -> List[Event]:
        """Feed *event* into input *slot*; returns (and forwards) outputs."""
        return self.consume_batch(slot, (event,))

    def consume_batch(self, slot: int, events: Sequence[Event]) -> List[Event]:
        """Feed a run of events into *slot*, one :meth:`consume` each;
        returns the concatenated outputs.

        A door from outside the linked plan: each event is checked once
        against its type (an :class:`EventTypeError` otherwise) before it
        reaches the slot's entry, whose type guard then names a slot of
        the wrong type.  Producers and upstream operators call
        :meth:`step` directly and are trusted.
        """
        step = self.step(slot)
        outputs: List[Event] = []
        self._tap = outputs
        try:
            for event in events:
                event._event_type.conforms(event._params)
                step(event)
        finally:
            self._tap = None
        return outputs

    def _slot_error(self, slot: int, received: EventType) -> SlotError:
        expected = self.signature.input_types[slot]
        return SlotError(
            f"operator {self.instance_name!r} slot {slot} expects "
            f"{expected.name!r}, got event of type {received.name!r}"
        )

    def _emitter(self) -> Emit:
        """The ``emit`` this operator's entries push outputs through:
        count, stamp provenance while instrumentation is on (never
        sampled), then call every wired consumer's entry in wiring
        order — one call per hop."""
        fanout = self._fanout
        name, family = self.instance_name, self.family

        def emit(output: Event, cause: Any) -> None:
            self.produced += 1
            if self._tap is not None:
                self._tap.append(output)
            if _OBS.enabled and output.provenance is None:
                _OBS.provenance.record_operator(
                    output, name, family, cause if type(cause) is tuple else (cause,)
                )
            for __, __, entry in fanout:
                entry(output)

        return emit

    # -- introspection ------------------------------------------------------------------

    def partition_count(self) -> int:
        """How many process instances this operator has replicated for."""
        return len(self._partitions)

    def describe(self) -> str:
        """One-line rendering used by the specification tool."""
        return f"{self.family}[{self.process_schema_id}]"

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.signature.arity:
            raise SlotError(
                f"operator {self.instance_name!r} has {self.signature.arity} "
                f"slots; slot {slot} does not exist"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.instance_name!r})"


def check_copy_parameter(copy: int, arity: int, family: str) -> None:
    """Validate the 1-based ``copy`` parameter of And/Seq (Section 5.1.3)."""
    if not 1 <= copy <= arity:
        raise ParameterError(
            f"{family} copy parameter must satisfy 1 <= copy <= {arity}, "
            f"got {copy}"
        )
