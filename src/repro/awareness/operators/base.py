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
and the framework links it as one: a family states its algorithm once, as
a *kernel factory* (:meth:`EventOperator.bind`) that closes over its
parameters and returns one ``step(event)`` per input slot; each output is
pushed through ``emit`` straight into the steps of the operators
downstream.  Producers and upstream operators call a slot's step
directly (:meth:`EventOperator.step`); ``consume`` is the public door to
the same step.  Application-specific families may instead implement the
:meth:`~EventOperator.partition_key` / :meth:`~EventOperator.new_state` /
:meth:`~EventOperator._apply` hooks, which the default ``bind`` drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...errors import ParameterError, SlotError
from ...events.event import Event, EventType
from ...observability import INSTRUMENTATION as _OBS

#: One input slot of a linked operator: feed it an event.
Step = Callable[[Event], object]
#: ``emit(output, cause)`` hands one output downstream.  *cause* is the
#: triggering input event, or the tuple of all constituents when the
#: output composes several (And, Seq) — provenance links exactly those.
Emit = Callable[[Event, Any], None]
Consumer = Callable[[int, Event], object]


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
        #: Per-process-instance state.  Kernels hold this very dict, so
        #: it is only ever mutated in place (snapshot restore included).
        self._partitions: Dict[Any, Any] = {}
        #: Downstream consumers: (callable, slot_index) pairs, wired by the
        #: plan cache at deploy.
        self._consumers: List[Tuple[Consumer, int]] = []
        #: What ``emit`` calls, one entry per `_consumers` record: the
        #: consumer's own step when it is another operator's ``consume``,
        #: the callable with its slot bound otherwise.  Mutated in place —
        #: a window deployed onto a live shared node is seen at once.
        self._fanout: List[Step] = []
        self.consumed = 0
        self.produced = 0
        #: Where :meth:`consume` collects the outputs it returns.
        self._tap: Optional[List[Event]] = None
        self._steps: Optional[Tuple[Step, ...]] = None

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
        if (
            isinstance(owner, EventOperator)
            and getattr(consumer, "__func__", None) is EventOperator.consume
        ):
            direct = owner.step(slot)
        else:
            direct = partial(consumer, slot)
        self._consumers.append((consumer, slot))
        self._fanout.append(direct)

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
        """The linked entry of input *slot*: what producers and upstream
        operators call, once per event, with nothing in between.

        Linking happens on first use (the subclass constructor has run by
        then) and never again; later wiring changes reach the steps
        through :attr:`_fanout`.
        """
        self._check_slot(slot)
        steps = self._steps
        if steps is None:
            emit = self._emitter()
            steps = self._steps = tuple(
                self._entry(index, kernel)
                for index, kernel in enumerate(self.bind(emit))
            )
        return steps[slot]

    def consume(self, slot: int, event: Event) -> List[Event]:
        """Feed *event* into input *slot*; returns (and forwards) outputs."""
        return self.consume_batch(slot, (event,))

    def consume_batch(self, slot: int, events: Sequence[Event]) -> List[Event]:
        """Feed a run of events into *slot*, one :meth:`consume` each;
        returns the concatenated outputs.

        A door from outside the linked plan: each event is checked once
        against its type (an :class:`EventTypeError` otherwise) before it
        reaches the slot's step, whose type guard then names a slot of
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

    def _entry(self, slot: int, kernel: Step) -> Step:
        """Wrap a slot's kernel with what every family shares: the slot
        type guard, the ``consumed`` count and — while instrumentation is
        on — the ``operator.consume`` span (downstream spans nest in it,
        since downstream steps run inside ``kernel``)."""
        expected = self.signature.input_types[slot]
        attrs: Dict[str, object] = {"node": self.instance_name, "op": self.family}

        def step(event: Event) -> None:
            # Identity fast path: primitive and canonical EventType objects
            # are module-level/cached singletons, so `is` almost always
            # settles it.
            received = event._event_type
            if received is not expected and received.name != expected.name:
                raise SlotError(
                    f"operator {self.instance_name!r} slot {slot} expects "
                    f"{expected.name!r}, got event of type {received.name!r}"
                )
            self.consumed += 1
            if not _OBS.enabled:
                kernel(event)
                return
            tracer = _OBS.tracer
            span = None
            if tracer._light_depth:
                # Sampler skipped this trace: bump the depth in place
                # instead of paying two method calls (Tracer._light_depth).
                tracer._light_depth += 1
            else:
                span = tracer.begin(
                    "operator.consume", event._params["time"], attrs
                )
            try:
                kernel(event)
            finally:
                if span is None:
                    tracer._light_depth -= 1
                else:
                    tracer.end(span)

        return step

    def _emitter(self) -> Emit:
        """The ``emit`` this operator's kernels push outputs through:
        count, stamp provenance while instrumentation is on (never
        sampled), forward to every wired consumer in wiring order."""
        fanout = self._fanout
        name, family = self.instance_name, self.family

        def emit(output: Event, cause: Any) -> None:
            self.produced += 1
            if _OBS.enabled and output.provenance is None:
                _OBS.provenance.record_operator(
                    output,
                    name,
                    family,
                    cause if type(cause) is tuple else (cause,),
                )
            if self._tap is not None:
                self._tap.append(output)
            for step in fanout:
                step(output)

        return emit

    # -- subclass hooks ---------------------------------------------------------------

    def bind(self, emit: Emit) -> Sequence[Step]:
        """Kernel factory: one ``step(event)`` per input slot.

        A step runs the family's algorithm on one (already type-checked)
        event and calls ``emit(output, cause)`` for each output, in
        order.  Per-instance state lives in :attr:`_partitions`, keyed
        by the canonical ``processInstanceId``, and nowhere else.  This
        default drives the three generic hooks below.
        """
        partitions = self._partitions

        def kernel(slot: int, event: Event) -> None:
            key = self.partition_key(slot, event)
            state = partitions.get(key)
            if state is None:
                state = partitions[key] = self.new_state()
            for output in self._apply(slot, event, state):
                emit(output, event)

        return [partial(kernel, slot) for slot in range(self.arity)]

    def partition_key(self, slot: int, event: Event) -> Any:
        """The replication key; canonical inputs partition by instance id."""
        return event.get("processInstanceId")

    def new_state(self) -> Any:
        """Fresh private state for one partition (default: stateless)."""
        return None

    def _apply(self, slot: int, event: Event, state: Any) -> List[Event]:
        raise NotImplementedError

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
