"""Tests for the process invocation (Translate) operator."""

import multiprocessing
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.awareness.operators import QueryCorrelationFilter, Translate
from repro.awareness.operators.filters import _not_an_instance_id
from repro.core.context import ContextChange
from repro.errors import ParameterError
from repro.events.canonical import canonical_event
from repro.events.event import Event
from repro.events.external import NEWS_EVENT_TYPE
from repro.events.producers import ACTIVITY_EVENT_TYPE, ContextEventProducer
from repro.observability import INSTRUMENTATION as OBS
from repro.parallel import ShardConfig, ShardedFederation, ShardSpec
from repro.parallel.codec import BinaryDecoder, encode_standalone
from repro.parallel.host import FederationBlueprint, ShardHost

from tests.exact import signatures

from .test_routing import python_calls


def invocation_event(invoked_instance="ir-1", invoking_instance="tf-1"):
    """An activity event showing tf-1 invoked P-IR via 'inforequest'."""
    return Event(
        ACTIVITY_EVENT_TYPE,
        {
            "time": 1,
            "source": "E_activity",
            "activityInstanceId": invoked_instance,
            "parentProcessSchemaId": "P-TF",
            "parentProcessInstanceId": invoking_instance,
            "user": None,
            "activityVariableId": "inforequest",
            "activityProcessSchemaId": "P-IR",
            "oldState": "Uninitialized",
            "newState": "Ready",
        },
    )


def invoked_cp(instance="ir-1", time=5, int_info=42):
    return canonical_event(
        "P-IR", instance, time=time, source="inner", int_info=int_info
    )


class TestTranslate:
    def make(self):
        return Translate("P-TF", "P-IR", "inforequest")

    def test_translates_after_learning_invocation(self):
        operator = self.make()
        assert operator.consume(0, invocation_event()) == []
        out = operator.consume(1, invoked_cp())
        assert len(out) == 1
        event = out[0]
        assert event.type_name == "C[P-TF]"
        assert event["processInstanceId"] == "tf-1"
        assert event["intInfo"] == 42
        assert "translated from P-IR" in event["description"]

    def test_unmapped_instance_ignored(self):
        operator = self.make()
        operator.consume(0, invocation_event("ir-1", "tf-1"))
        assert operator.consume(1, invoked_cp("ir-99")) == []

    def test_learning_filters_on_all_three_parameters(self):
        operator = self.make()
        wrong_schema = invocation_event()
        wrong_schema = Event(
            ACTIVITY_EVENT_TYPE,
            dict(wrong_schema.params, parentProcessSchemaId="P-OTHER"),
        )
        operator.consume(0, wrong_schema)
        wrong_variable = Event(
            ACTIVITY_EVENT_TYPE,
            dict(invocation_event().params, activityVariableId="other"),
        )
        operator.consume(0, wrong_variable)
        wrong_invoked = Event(
            ACTIVITY_EVENT_TYPE,
            dict(invocation_event().params, activityProcessSchemaId="P-X"),
        )
        operator.consume(0, wrong_invoked)
        assert operator.partition_count() == 0

    def test_multiple_invocations_tracked(self):
        operator = self.make()
        operator.consume(0, invocation_event("ir-1", "tf-1"))
        operator.consume(0, invocation_event("ir-2", "tf-2"))
        assert operator.partition_count() == 2
        out1 = operator.consume(1, invoked_cp("ir-1"))
        out2 = operator.consume(1, invoked_cp("ir-2"))
        assert out1[0]["processInstanceId"] == "tf-1"
        assert out2[0]["processInstanceId"] == "tf-2"

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            Translate("P-TF", "", "inforequest")
        with pytest.raises(ParameterError):
            Translate("P-TF", "P-IR", "")

    def test_slot_types(self):
        operator = self.make()
        assert operator.slot_type(0).name == "T_activity"
        assert operator.slot_type(1).name == "C[P-IR]"
        assert operator.output_type.name == "C[P-TF]"


# -- what a Translate learned survives a shard snapshot ----------------------

#: A P-TF window lifting P-IR's context changes through the invocation.
LIFT = ShardSpec(
    "spec-lift",
    "P-TF",
    "inner = Filter_context[P-IR, Ctx, f](ContextEvent)\n"
    "lift = Translate[P-IR, inforequest](ActivityEvent, inner)\n"
    'deliver lift to watchers as "lifted" named AS_Lift\n',
)


def lift_blueprint():
    blueprint = FederationBlueprint()
    blueprint.add_participant("u-watch", "watcher")
    blueprint.add_role("watchers", ["u-watch"])
    blueprint.add_specification(LIFT)
    return blueprint


def invoked_context_event(instance="ir-1", time=5, value=7):
    """The invoked process's ``T_context`` event: its field ``f`` moved."""
    return ContextEventProducer()._translate(
        ContextChange(
            time=time,
            context_id=f"ctx-{instance}",
            context_name="Ctx",
            associations=frozenset({("P-IR", instance)}),
            field_name="f",
            old_value=None,
            new_value=value,
        )
    )


class TestTranslateSnapshot:
    def test_a_restored_host_still_knows_the_invocation(self):
        """The learned invocation is operator state: it crosses the
        snapshot codec and a fresh host restored from it translates."""
        first = ShardHost(0, 1)
        first.apply_blueprint(lift_blueprint())
        first.ingest([invocation_event()])
        state = first.snapshot_state()
        first.close()
        data = encode_standalone({"state": state})
        decoded = BinaryDecoder().decode_payload(data[4:])["state"]

        restored = ShardHost(0, 1)
        restored.apply_blueprint(lift_blueprint())
        restored.restore_state(decoded)
        restored.ingest([invoked_context_event()])
        results = restored.drain_results()
        restored.close()
        assert [r["schema"] for r in results] == ["AS_Lift"]


#: The measured count (see the test below); a change that adds a call
#: per event must say why there.
LIFT_DOOR_BUDGET = 4.12


def test_an_activity_event_reaches_its_translate_leaf_in_one_call():
    """Count-based pin on a producer -> non-segment leaf door:
    :func:`python_calls` per activity event between ``ShardHost.ingest``
    and ``LIFT``'s ``Translate`` learning the invocation, 100 events in
    one frame.  ``Translate`` is multi-input, so it roots no segment and
    its producer registers its slot-0 entry itself.  That door was two
    calls — a step wrapper (guard, count, span) around the kernel — and
    the whole took 5.12; with the generated entry the only way into a
    slot it is one call, 4.12."""
    host = ShardHost(0, 1)
    host.apply_blueprint(lift_blueprint())
    events = [invocation_event(f"ir-{index}") for index in range(100)]
    calls = python_calls(host.ingest, events)
    (lift,) = [
        entry.operator
        for entry in host.system.awareness.planner.plans()[0].entries
        if entry.operator.family == "Translate"
    ]
    host.close()
    assert lift.partition_count() == 100
    assert calls / len(events) <= LIFT_DOOR_BUDGET


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)
def test_a_compacted_invocation_frame_survives_sigkill(tmp_path):
    """A cadence snapshot covers the invocation frames and compaction
    drops them from the journal; a SIGKILLed worker recovers from that
    snapshot, and the invoked processes' events still reach the
    invoking instances, exactly as on an uncrashed federation."""
    learned = [invocation_event("ir-1", "tf-1"), invocation_event("ir-2", "tf-2")]
    invoked = [invoked_context_event("ir-1", 5), invoked_context_event("ir-2", 6)]

    def config(**durable):
        return ShardConfig(
            shards=1,
            backend="process",
            instrument=True,
            join_timeout=10.0,
            batch_size=1,
            **durable,
        )

    with ShardedFederation(lift_blueprint(), config()) as reference:
        reference.ingest(learned)
        reference.ingest(invoked)
        expected = reference.drain()
    assert len(expected) == 2

    durable = config(durable_dir=str(tmp_path / "durable"), snapshot_every=2)
    with ShardedFederation(lift_blueprint(), durable) as federation:
        federation.ingest(learned)
        federation.drain()
        shard = federation.shards[0]
        assert shard.journal.base >= len(learned)  # compacted away
        worker = shard.inner
        worker.process._popen._send_signal(signal.SIGKILL)  # noqa: SLF001
        worker.process.join(10.0)
        federation.ingest(invoked)
        federation.drain()
        assert federation.stats()["recoveries"] == 1
        merged = list(federation.delivered)
    assert signatures(merged) == signatures(expected)


# -- the templates against the kernels they replaced ---------------------------
#
# The DSL fuzzer of the linked-plan differential never draws Translate or
# an external filter, so each gets a reference here: verbatim copies of
# the hand-written closure Translate's ``bind`` built and of the external
# filter's ``_apply`` under the default ``bind`` loop.  Two changes: the
# reference Translate learns into ``_partitions``, where the template
# keeps what it learns, so the two states compare; and ``_apply`` no
# longer passes its output type to ``canonical_event``, which looks the
# same cached ``C_P`` object up itself.


def reference_translate(self, emit):
    mapping, name = self._partitions, self.instance_name
    invoking, invoked = self.process_schema_id, self.invoked_schema_id
    variable = self.activity_variable

    def learn(event):
        """Record invoked->invoking instance pairs from activity events."""
        params = event._params
        if (
            params["parentProcessSchemaId"] == invoking
            and params["activityVariableId"] == variable
            and params["activityProcessSchemaId"] == invoked
        ):
            mapping[params["activityInstanceId"]] = params[
                "parentProcessInstanceId"
            ]

    def translate(event):
        invoked_instance = event.processInstanceId
        invoking_instance = mapping.get(invoked_instance)
        if invoking_instance is None:
            return
        emit(
            canonical_event(
                invoking,
                invoking_instance,
                time=event.time,
                source=name,
                int_info=event.intInfo,
                str_info=event.strInfo,
                description=(
                    f"translated from {invoked} instance "
                    f"{invoked_instance}: {event.description}"
                ),
                # The one mapping a canonical hop builds: the
                # invoked event is carried whole.
                source_event=event.params,
            ),
            event,
        )

    return (learn, translate)


def reference_external_filter(self, emit):
    partitions = self._partitions

    def _apply(slot, event, state):
        if not self.matches(event):
            return []
        instance_id = self.instance_for(event)
        if instance_id is None:
            return []
        if not isinstance(instance_id, str):
            raise _not_an_instance_id(self.instance_name, "instance_for", instance_id)
        return [
            canonical_event(
                self.process_schema_id,
                instance_id,
                time=event.time,
                source=self.instance_name,
                str_info=event.get("headline"),
                description=self.digest(event),
                source_event=event.params,
            )
        ]

    def kernel(event):
        # ``partition_key`` None, ``new_state`` None: the default hooks.
        state = partitions.get(None)
        if state is None:
            state = partitions[None] = None
        for output in _apply(0, event, state):
            emit(output, event)

    return (kernel,)


class Side:
    """A Translate and a news filter, linked or run by the references."""

    def __init__(self, linked):
        self.linked = linked
        self.translate = Translate("P-TF", "P-IR", "inforequest", "lift")
        self.news = QueryCorrelationFilter("P-TF", "news")
        self.outputs = {"lift": [], "news": []}
        self.kernels = {}
        if not linked:
            for op, bind in (
                (self.translate, reference_translate),
                (self.news, reference_external_filter),
            ):
                self.kernels[op.instance_name] = bind(op, self._emitter(op))

    def _emitter(self, op):
        def emit(output, cause):
            op.produced += 1
            self.outputs[op.instance_name].append(output)
            if OBS.enabled and output.provenance is None:
                OBS.provenance.record_operator(
                    output,
                    op.instance_name,
                    op.family,
                    cause if type(cause) is tuple else (cause,),
                )

        return emit

    def feed(self, op, slot, event):
        if OBS.enabled:
            OBS.provenance.record_primitive(event, "E_test")
        if self.linked:
            self.outputs[op.instance_name] += op.consume(slot, event)
        else:
            op.consumed += 1
            self.kernels[op.instance_name][slot](event)

    def observe(self):
        return [
            (
                op.instance_name,
                [list(output.params.items()) for output in outputs],
                [output.provenance and output.provenance.signature() for output in outputs],
                op.consumed,
                op.produced,
                # The hook loop parked a ``None`` state under the ``None``
                # key of a stateless filter; the template keeps none.
                {key: state for key, state in op._partitions.items() if state is not None},
            )
            for op, outputs in (
                (self.translate, self.outputs["lift"]),
                (self.news, self.outputs["news"]),
            )
        ]


def build(action, position):
    """A fresh event for *action* (each side gets its own, since
    provenance is stamped on the event)."""
    kind = action[0]
    if kind == "invoke":
        __, invoked, invoking, wrong = action
        params = dict(invocation_event(invoked, invoking).params, time=position)
        if wrong is not None:
            params[wrong] = "P-OTHER"
        return Event(ACTIVITY_EVENT_TYPE, params)
    if kind == "invoked":
        __, invoked, value, text = action
        return canonical_event(
            "P-IR",
            invoked,
            time=position,
            source="inner",
            int_info=value,
            str_info=text,
            description=text,
        )
    __, query, headline = action
    return Event(
        NEWS_EVENT_TYPE,
        {"time": position, "source": "E_news", "queryId": query, "headline": headline},
    )


invoked_ids = st.sampled_from(["ir-1", "ir-2", "ir-3"])
queries = st.sampled_from(["q1", "q2", "q3"])
texts = st.one_of(st.none(), st.sampled_from(["a", "b\n'\"{x}"]))
#: Which learning parameter an invocation gets wrong, if any.
mismatches = st.sampled_from(
    [None, None, "parentProcessSchemaId", "activityVariableId", "activityProcessSchemaId"]
)
differential_actions = st.lists(
    st.one_of(
        st.tuples(st.just("invoke"), invoked_ids, st.sampled_from(["tf-1", "tf-2"]), mismatches),
        st.tuples(st.just("invoked"), invoked_ids, st.one_of(st.none(), st.integers(-3, 3)), texts),
        st.tuples(st.just("news"), queries, st.sampled_from(["up", "down"])),
        st.tuples(st.just("bind"), queries, st.sampled_from(["tf-1", "tf-2"])),
        st.tuples(st.just("instrument")),
    ),
    max_size=40,
)

#: Tier-1 runs 100; the nightly ``soak`` profile
#: (``--hypothesis-profile=soak``) runs its own count.
PROFILE_EXAMPLES = settings.default.max_examples
DIFFERENTIAL_EXAMPLES = PROFILE_EXAMPLES if PROFILE_EXAMPLES > 100 else 100


def run_side(linked, instrument, actions):
    side = Side(linked)
    enabled = OBS.enabled
    OBS.enabled = instrument
    try:
        for position, action in enumerate(actions, start=1):
            kind = action[0]
            if kind == "instrument":
                OBS.enabled = not OBS.enabled
            elif kind == "bind":
                side.news.bind_query(action[1], action[2])
            elif kind == "invoke":
                side.feed(side.translate, 0, build(action, position))
            elif kind == "invoked":
                side.feed(side.translate, 1, build(action, position))
            else:
                side.feed(side.news, 0, build(action, position))
    finally:
        OBS.enabled = enabled
    return side.observe()


@given(actions=differential_actions, instrument=st.booleans())
@settings(max_examples=DIFFERENTIAL_EXAMPLES, deadline=None)
def test_templates_agree_with_the_kernels_they_replaced(actions, instrument):
    """Random interleavings of invocations (matching and not), invoked
    events, news articles and query bindings, instrumentation switched
    on and off between events: outputs parameter for parameter,
    provenance signatures, ``_partitions`` and the counters agree."""
    assert run_side(True, instrument, actions) == run_side(False, instrument, actions)
