"""Linked kernels are behaviour-invisible: differential against the
per-operator loop they replaced.

Windows generated from the DSL grammar (``test_dsl_fuzz``'s generator:
filters, And/Seq/Or/Compare2 joins, Count, Compare1, Edge) are deployed
through a ``PlanCache`` twice.  One rig feeds a random typed event stream
into the producers, so every event runs through the linked ``step``
closures, one call per hop, and every ``C_P`` event is a
``CanonicalEvent`` record.  The other never calls a step:
:class:`Reference` walks the same wiring with the generic loop the
operator base class used to run — type guard, ``partition_key`` /
``new_state`` / ``_apply`` per operator per event, provenance stamped
per output, an ``operator.consume`` span around algorithm and
forwarding — and builds every output the way events were built before
records: an ``Event`` holding its parameter mapping
(:func:`mapping_event`).  The per-family ``_apply`` bodies live in this
file only.

Both rigs must agree on every detected event — its parameters in order —
and its order per window, on provenance signatures and span trees
(instrumentation on), on each operator's ``consumed`` / ``produced`` /
``_partitions`` (held events by their ordered parameters), on the
position at which a mistyped event raises ``SlotError``, and all of that
while a second and a third window are deployed onto, and undeployed
from, the live shared nodes mid-stream.
"""

from types import MappingProxyType


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.awareness.detector import DetectorAgent
from repro.awareness.dsl import compile_specification
from repro.awareness.operators.base import EventOperator
from repro.awareness.operators.output import DELIVERY_EVENT_TYPE
from repro.awareness.planner import PlanCache
from repro.awareness.specification import SpecificationWindow
from repro.core.context import ContextChange
from repro.core.instances import ActivityStateChange
from repro.errors import SlotError
from repro.events.canonical import canonical_event, canonical_type
from repro.events.event import Event
from repro.events.producers import ActivityEventProducer, ContextEventProducer
from repro.observability import INSTRUMENTATION as OBS
from repro.observability import instrumented

from .test_dsl_fuzz import close_specification, random_operator_lines

SCHEMA = "P-F"


# -- the reference interpreter ------------------------------------------------
#
# One ``(partition_key, new_state, apply)`` triple per family, as the
# operator classes defined them before linking.  ``apply`` returns the
# outputs and, for compositions, all their constituents.


class MappingEvent(Event):
    """An event that holds its parameter mapping, as every event did
    before ``C_P`` became a record.  The provenance tracker reads a
    ``C_P`` event's ``description`` field; this one answers from its
    mapping."""

    __slots__ = ()

    @property
    def description(self):
        return self._params.get("description")


def mapping_event(event_type, params):
    """An event that holds its parameter mapping, whatever its type: how
    ``Event.trusted`` built every event before ``C_P`` became a record
    (``type`` appended last when *params* lack it)."""
    event = object.__new__(MappingEvent)
    event._event_type = event_type
    event._params = MappingProxyType({**params, "type": event_type.name})
    event.provenance = None
    return event


def derive(event, **overrides):
    """``Event.derive`` as it was: the merged parameters, checked, held
    as a mapping."""
    merged = dict(event.params) | overrides
    event.event_type.conforms(merged)
    return mapping_event(event.event_type, merged)


def canonical(schema, instance, **params):
    """A filter's output as ``canonical_event`` built it: every ``C_P``
    parameter in declaration order, then ``type``."""
    return mapping_event(
        canonical_type(schema),
        {
            "time": params["time"],
            "source": params["source"],
            "processSchemaId": schema,
            "processInstanceId": instance,
            "intInfo": params.get("int_info"),
            "strInfo": params.get("str_info"),
            "description": params["description"],
            "sourceEvent": params["source_event"],
        },
    )


def by_instance(slot, event):
    return event.get("processInstanceId")


def unpartitioned(slot, event):
    return None


def apply_filter_context(op, slot, event, state):
    params = event.params
    if params["contextName"] != op.context_name:
        return [], None
    if params["fieldName"] != op.field_name:
        return [], None
    new_value = params["newFieldValue"]
    is_int = isinstance(new_value, int) and not isinstance(new_value, bool)
    outputs = []
    for schema_id, instance_id in sorted(params["processAssociations"]):
        if schema_id != op.process_schema_id:
            continue
        outputs.append(
            canonical(
                op.process_schema_id,
                instance_id,
                time=params["time"],
                source=op.instance_name,
                int_info=new_value if is_int else None,
                str_info=new_value if isinstance(new_value, str) else None,
                description=(
                    f"context {op.context_name!r} field "
                    f"{op.field_name!r} = {new_value!r}"
                ),
                source_event=params,
            )
        )
    return outputs, None


def apply_filter_activity(op, slot, event, state):
    params = event.params
    if params["parentProcessSchemaId"] != op.process_schema_id:
        return [], None
    if params["activityVariableId"] != op.activity_variable:
        return [], None
    if op.states_old is not None and params["oldState"] not in op.states_old:
        return [], None
    if op.states_new is not None and params["newState"] not in op.states_new:
        return [], None
    return [
        canonical(
            op.process_schema_id,
            params["parentProcessInstanceId"],
            time=params["time"],
            source=op.instance_name,
            str_info=params["newState"],
            description=(
                f"activity {op.activity_variable!r}: "
                f"{params['oldState']} -> {params['newState']}"
            ),
            source_event=params,
        )
    ], None


def apply_count(op, slot, event, state):
    state["count"] += 1
    return [
        derive(
            event,
            source=op.instance_name,
            intInfo=state["count"],
            description=f"count={state['count']}",
        )
    ], None


def apply_compare1(op, slot, event, state):
    value = event.get("intInfo")
    if value is None or not op.bool_func(value):
        return [], None
    return [derive(event, source=op.instance_name)], None


def apply_edge(op, slot, event, state):
    value = event.get("intInfo")
    if value is None:
        return [], None
    satisfied = bool(op.bool_func(value))
    armed = not state[0]
    state[0] = satisfied
    if not (satisfied and armed):
        return [], None
    return [derive(event, source=op.instance_name)], None


def apply_compare2(op, slot, event, state):
    value = event.get("intInfo")
    if value is None:
        return [], None
    state[slot] = value
    if len(state) < 2 or not op.bool_func(state[0], state[1]):
        return [], None
    return [
        derive(
            event,
            source=op.instance_name,
            description=(
                f"comparison satisfied: {state[0]} vs {state[1]} "
                f"({event.get('description')})"
            ),
        )
    ], None


def apply_and(op, slot, event, state):
    state[slot] = event
    if len(state) < op.arity:
        return [], None
    output = derive(state[op.copy - 1], time=event.time, source=op.instance_name)
    constituents = tuple(state[index] for index in sorted(state))
    state.clear()
    return [output], constituents


def apply_seq(op, slot, event, state):
    if slot != state["pointer"]:
        return [], None
    state["seen"].append(event)
    state["pointer"] += 1
    if state["pointer"] < op.arity:
        return [], None
    output = derive(state["seen"][op.copy - 1], time=event.time, source=op.instance_name)
    constituents = tuple(state["seen"])
    state["pointer"] = 0
    state["seen"] = []
    return [output], constituents


def apply_or(op, slot, event, state):
    return [derive(event, source=op.instance_name)], None


def apply_output(op, slot, event, state):
    params = event.params
    return [
        mapping_event(
            DELIVERY_EVENT_TYPE,
            {
                "time": params["time"],
                "source": op.instance_name,
                "schemaName": op.schema_name,
                "deliveryRole": op.delivery_role.role_name,
                "deliveryContext": op.delivery_role.context_name,
                "assignment": op.assignment_name,
                "processSchemaId": params["processSchemaId"],
                "processInstanceId": params["processInstanceId"],
                "userDescription": op.user_description
                or (params.get("description") or "awareness event"),
                "intInfo": params.get("intInfo"),
                "strInfo": params.get("strInfo"),
                "sourceEvent": params.get("sourceEvent"),
            },
        )
    ], None


REFERENCE = {
    "Filter_context": (unpartitioned, lambda: None, apply_filter_context),
    "Filter_activity": (unpartitioned, lambda: None, apply_filter_activity),
    "Count": (by_instance, lambda: {"count": 0}, apply_count),
    "Compare1": (unpartitioned, lambda: None, apply_compare1),
    "Edge": (by_instance, lambda: [False], apply_edge),
    "Compare2": (by_instance, dict, apply_compare2),
    "And": (by_instance, dict, apply_and),
    "Seq": (by_instance, lambda: {"pointer": 0, "seen": []}, apply_seq),
    "Or": (unpartitioned, lambda: None, apply_or),
    "Output": (unpartitioned, lambda: None, apply_output),
}


class Reference:
    """The replaced dispatch, run over a deployed plan's wiring."""

    def __init__(self, cache):
        self.cache = cache

    def emit(self, producer, event):
        if not OBS.enabled:
            self._dispatch(producer, event)
            return
        OBS.provenance.record_primitive(event, producer.producer_id)
        span = OBS.tracer.begin("source.emit", event.time, producer._span_attrs)
        try:
            self._dispatch(producer, event)
        finally:
            OBS.tracer.end(span)

    def _dispatch(self, producer, event):
        # A leaf is registered as its operator's step; find the operator.
        leaves = {
            entry.operator.step(slot): (entry.operator, slot)
            for plan in self.cache.plans()
            for entry in plan.entries
            for slot in range(entry.operator.arity)
        }
        key = producer.key_extractor(event)
        routed = producer._index.get(key, []) + producer._wildcard
        for consumer in routed:
            operator, slot = leaves[consumer]
            self.consume(operator, slot, event)

    def consume(self, op, slot, event):
        expected = op.signature.input_types[slot]
        if event.event_type != expected:
            raise SlotError(f"{op.instance_name} slot {slot}: {event.type_name}")
        op.consumed += 1
        key_of, new_state, apply = REFERENCE[op.family]
        key = key_of(slot, event)
        state = op._partitions.get(key)
        if state is None:
            state = op._partitions[key] = new_state()
        if not OBS.enabled:
            for output in apply(op, slot, event, state)[0]:
                op.produced += 1
                self._forward(op, output)
            return
        span = OBS.tracer.begin(
            "operator.consume",
            event.time,
            {"node": op.instance_name, "op": op.family},
        )
        try:
            outputs, constituents = apply(op, slot, event, state)
            for output in outputs:
                if output.provenance is None:
                    OBS.provenance.record_operator(
                        output, op.instance_name, op.family, constituents or (event,)
                    )
                op.produced += 1
                self._forward(op, output)
        finally:
            OBS.tracer.end(span)

    def _forward(self, op, output):
        for consumer, slot in op._consumers:
            owner = getattr(consumer, "__self__", None)
            if isinstance(owner, EventOperator):
                self.consume(owner, slot, output)
            else:
                consumer(slot, output)


# -- the two rigs ----------------------------------------------------------------


def plain(value):
    """Operator state with held events flattened to their parameters, in
    order."""
    if isinstance(value, Event):
        return list(value.params.items())
    if isinstance(value, dict):
        return {key: plain(member) for key, member in value.items()}
    if isinstance(value, list):
        return [plain(member) for member in value]
    return value


def span_shape(span):
    return (
        span.name,
        span.logical_time,
        sorted((span.attributes or {}).items()),
        [span_shape(child) for child in span.children],
    )


class Rig:
    """Producers, one plan cache, and the windows deployed through it."""

    def __init__(self, linked):
        self.producers = {
            "ActivityEvent": ActivityEventProducer(),
            "ContextEvent": ContextEventProducer(),
        }
        self.cache = PlanCache()
        self.reference = None if linked else Reference(self.cache)
        self.plans = {}
        self.detected = {}
        self.slot_errors = []

    def toggle(self, label, text):
        """Deploy window *label*, or undeploy it when it is live."""
        if label in self.plans:
            self.plans.pop(label).detach()
            return
        window = SpecificationWindow(SCHEMA, self.producers)
        compile_specification(window, text)
        seen = self.detected.setdefault(label, [])
        self.plans[label] = DetectorAgent(window, self.cache, sink=seen.append).plan

    def operators(self):
        found = {}
        for plan in self.plans.values():
            for entry in plan.entries:
                found.setdefault(id(entry.operator), entry.operator)
            for schema in plan.window.schemas():
                found.setdefault(id(schema.description.root), schema.description.root)
        return list(found.values())

    def feed(self, source, event):
        producer = self.producers[source]
        if self.reference is None:
            producer.emit(event)
        else:
            self.reference.emit(producer, event)

    def poke(self, position, index, event):
        """Offer *event* to slot 0 of the index-th live operator."""
        operators = self.operators()
        operator = operators[index % len(operators)]
        try:
            if self.reference is None:
                operator.consume(0, event)
            else:
                self.reference.consume(operator, 0, event)
        except SlotError:
            self.slot_errors.append((position, operator.instance_name))

    def observe(self):
        return {
            "detected": {
                label: [list(event.params.items()) for event in seen]
                for label, seen in self.detected.items()
            },
            "provenance": {
                label: [
                    event.provenance and event.provenance.signature()
                    for event in seen
                ]
                for label, seen in self.detected.items()
            },
            "operators": [
                (
                    op.instance_name,
                    op.consumed,
                    op.produced,
                    # The old loop parked a ``None`` state under the
                    # ``None`` key of every stateless operator; kernels
                    # without state keep none.
                    {
                        key: plain(state)
                        for key, state in op._partitions.items()
                        if state is not None
                    },
                )
                for op in self.operators()
            ],
            "slot_errors": self.slot_errors,
        }


def run(linked, windows, actions):
    rig = Rig(linked)
    rig.toggle("A", windows["A"])
    for position, action in enumerate(actions, start=1):
        kind = action[0]
        if kind == "toggle":
            rig.toggle(action[1], windows[action[1]])
        elif kind == "poke":
            # Neither T_context nor C[P-F]: wrong on every slot there is.
            wrong = canonical_event("P-OTHER", "i1", time=position, source="test")
            rig.poke(position, action[1], wrong)
        elif kind == "context":
            __, field, instances, value = action
            rig.feed(
                "ContextEvent",
                rig.producers["ContextEvent"]._translate(
                    ContextChange(
                        time=position,
                        context_id="c1",
                        context_name="Ctx",
                        associations=frozenset((SCHEMA, i) for i in instances),
                        field_name=f"field{field}",
                        old_value=None,
                        new_value=value,
                    )
                ),
            )
        else:
            __, instance, old_state, new_state = action
            change = ActivityStateChange(
                time=position,
                activity_instance_id=f"act-{instance}",
                parent_process_schema_id=SCHEMA,
                parent_process_instance_id=instance,
                user=None,
                activity_variable_id="work",
                activity_process_schema_id=None,
                old_state=old_state,
                new_state=new_state,
            )
            # Built the way the producer builds it, fed the rig's way.
            silent = ActivityEventProducer()
            rig.feed("ActivityEvent", silent.produce(change))
    return rig.observe()


instances = st.sampled_from([("i1",), ("i1",), ("i2",), ("i1", "i2")])
values = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(["low", "high", True, None]),
)
states = st.sampled_from(["Ready", "Running", "Completed"])
context_change = st.tuples(
    st.just("context"), st.integers(0, 3), instances, values
)
# Long enough, and dense enough in context changes, that joins complete
# and counters cross their thresholds in most examples.
actions = st.lists(
    st.one_of(
        context_change,
        context_change,
        context_change,
        st.tuples(st.just("activity"), st.sampled_from(["i1", "i2"]), states, states),
        st.tuples(st.just("toggle"), st.sampled_from(["B", "C"])),
        st.tuples(st.just("poke"), st.integers(0, 40)),
    ),
    min_size=12,
    max_size=40,
)


@st.composite
def window_sets(draw):
    """Window A, a full copy B (shares every operator but the Output)
    and C, a prefix of A rooted on its own (shares that prefix)."""
    lines, nodes = draw(random_operator_lines())
    keep = draw(st.integers(min_value=1, max_value=len(lines)))
    prefix = lines[:keep]
    return {
        "A": close_specification(lines, nodes),
        "B": close_specification(lines, nodes, schema_name="AS_Fuzz_B"),
        "C": close_specification(
            prefix,
            [line.split(" = ")[0] for line in prefix],
            schema_name="AS_Fuzz_C",
        ),
    }


#: Tier-1 runs 120 and 80 examples; the nightly ``soak`` profile
#: (``--hypothesis-profile=soak``) runs its own count of each.
PROFILE_EXAMPLES = settings.default.max_examples
SOAK = PROFILE_EXAMPLES > 100


class TestLinkedPlanDifferential:
    @given(windows=window_sets(), actions=actions)
    @settings(max_examples=PROFILE_EXAMPLES if SOAK else 120, deadline=None)
    def test_uninstrumented_runs_agree(self, windows, actions):
        assert run(True, windows, actions) == run(False, windows, actions)

    @given(windows=window_sets(), actions=actions, every=st.sampled_from([1, 3]))
    @settings(max_examples=PROFILE_EXAMPLES if SOAK else 80, deadline=None)
    def test_instrumented_runs_agree(self, windows, actions, every):
        """Every trace recorded (``every`` 1), or one in three: inside a
        skipped trace a linked hop calls the kernel directly, where the
        reference still opens and closes a light span."""
        observed = []
        for linked in (True, False):
            with instrumented() as obs:
                sampling, obs.tracer.sample_every = obs.tracer.sample_every, every
                try:
                    outcome = run(linked, windows, actions)
                finally:
                    obs.tracer.sample_every = sampling
                outcome["spans"] = [span_shape(s) for s in obs.tracer.recent()]
            observed.append(outcome)
        assert observed[0] == observed[1]
        # Instrumentation stamped every detection, so the equality above
        # compared real chains.
        assert all(
            chain is not None
            for chains in observed[0]["provenance"].values()
            for chain in chains
        )

    def test_the_streams_reach_every_family(self):
        """The generators above do produce detections, compositions,
        slot errors and mid-stream sharing — not thirty quiet no-ops."""
        windows = {
            "A": (
                "f0 = Filter_context[Ctx, field0](ContextEvent)\n"
                "f1 = Filter_context[Ctx, field1](ContextEvent)\n"
                "n0 = And[2](f0, f1)\n"
                "n1 = Count[](n0)\n"
                "n2 = Edge[>=, 2](n1)\n"
                'deliver n2 to owners as "generated" named AS_Fuzz\n'
            ),
        }
        windows["B"] = windows["A"].replace("AS_Fuzz", "AS_Fuzz_B")
        windows["C"] = (
            "f0 = Filter_context[Ctx, field0](ContextEvent)\n"
            'deliver f0 to owners as "generated" named AS_Fuzz_C\n'
        )
        script = [
            ("context", 0, ("i1",), 1),
            ("context", 1, ("i1",), 2),
            ("toggle", "B"),
            ("poke", 2),
            ("context", 0, ("i1",), 3),
            ("toggle", "C"),
            ("context", 1, ("i1",), 4),
            ("context", 0, ("i1", "i2"), "high"),
            ("toggle", "B"),
            ("context", 1, ("i1",), 5),
        ]
        linked, reference = run(True, windows, script), run(False, windows, script)
        assert linked == reference
        assert len(linked["detected"]["A"]) == 1  # the And's second firing
        assert len(linked["detected"]["B"]) == 1  # it joined the shared Edge
        assert len(linked["detected"]["C"]) == 2  # one per associated instance
        assert [position for position, __ in linked["slot_errors"]] == [4]
