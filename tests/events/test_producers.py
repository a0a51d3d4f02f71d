"""Tests for the primitive event producers E_activity and E_context."""

import pytest

from repro.awareness.operators.filters import ContextFilter
from repro.core.context import ContextChange
from repro.core.instances import ActivityStateChange
from repro.events.bus import EventBus
from repro.events.event import Event, EventType, base_parameters
from repro.events.external import ExternalEventSource
from repro.errors import EventTypeError
from repro.events.producers import (
    ACTIVITY_EVENT_TYPE,
    CONTEXT_EVENT_TYPE,
    ActivityEventProducer,
    ContextEventProducer,
    EventProducer,
    check_associations,
)


def activity_change(**overrides):
    base = dict(
        time=5,
        activity_instance_id="act-1",
        parent_process_schema_id="P-TF",
        parent_process_instance_id="proc-1",
        user="alice",
        activity_variable_id="assess",
        activity_process_schema_id=None,
        old_state="Ready",
        new_state="Running",
    )
    base.update(overrides)
    return ActivityStateChange(**base)


def context_change(field_name="TaskForceDeadline"):
    return ContextChange(
        time=7,
        context_id="ctx-1",
        context_name="TaskForceContext",
        associations=frozenset({("P-TF", "proc-1"), ("P-IR", "proc-2")}),
        field_name=field_name,
        old_value=100,
        new_value=50,
    )


DEADLINE = ("TaskForceContext", "TaskForceDeadline")
STATUS = ("TaskForceContext", "Status")
PLAIN_TYPE = EventType("T_plain", base_parameters())


class TestActivityProducer:
    def test_event_carries_section_511_parameters(self):
        producer = ActivityEventProducer()
        event = producer.produce(activity_change())
        assert event.type_name == "T_activity"
        assert event["activityInstanceId"] == "act-1"
        assert event["parentProcessSchemaId"] == "P-TF"
        assert event["parentProcessInstanceId"] == "proc-1"
        assert event["user"] == "alice"
        assert event["activityVariableId"] == "assess"
        assert event["oldState"] == "Ready"
        assert event["newState"] == "Running"
        assert event.time == 5

    def test_top_level_process_has_null_parent_fields(self):
        producer = ActivityEventProducer()
        event = producer.produce(
            activity_change(
                parent_process_schema_id=None,
                parent_process_instance_id=None,
                activity_variable_id=None,
                activity_process_schema_id="P-TF",
            )
        )
        assert event["parentProcessSchemaId"] is None
        assert event["activityProcessSchemaId"] == "P-TF"

    def test_publishes_on_attached_bus(self):
        bus = EventBus()
        got = []
        bus.subscribe("T_activity", got.append)
        producer = ActivityEventProducer()
        producer.attach(bus)
        producer.produce(activity_change())
        assert len(got) == 1
        assert producer.emitted == 1

    def test_direct_consumers_receive_without_bus(self):
        producer = ActivityEventProducer()
        got = []
        producer.add_consumer(got.append)
        producer.produce(activity_change())
        assert len(got) == 1


class TestIndexedRouting:
    def test_keyed_consumer_sees_only_matching_key(self):
        producer = ContextEventProducer()
        deadline, status = [], []
        producer.add_consumer(
            deadline.append, keys=[("TaskForceContext", "TaskForceDeadline")]
        )
        producer.add_consumer(
            status.append, keys=[("TaskForceContext", "Status")]
        )
        producer.produce(context_change())  # field TaskForceDeadline
        assert len(deadline) == 1
        assert status == []

    def test_wildcard_consumer_sees_everything(self):
        producer = ContextEventProducer()
        wild = []
        producer.add_consumer(
            [].append, keys=[("Other", "field")]
        )
        producer.add_consumer(wild.append)
        producer.produce(context_change())
        assert len(wild) == 1

    def test_remove_consumer_clears_index_entries(self):
        producer = ContextEventProducer()
        got = []
        handle = producer.add_consumer(
            got.append, keys=[("TaskForceContext", "TaskForceDeadline")]
        )
        producer.remove_consumer(handle)
        producer.produce(context_change())
        assert got == []
        assert producer.consumer_count() == 0
        assert producer.indexed_key_count() == 0

    def test_consumer_under_several_keys_is_called_once_per_match(self):
        producer = ContextEventProducer()
        got = []
        producer.add_consumer(got.append, keys=[DEADLINE, STATUS])
        for field in ("TaskForceDeadline", "Other", "Status"):
            producer.produce(context_change(field))
        assert [e["fieldName"] for e in got] == ["TaskForceDeadline", "Status"]
        assert producer.consumer_count() == 1
        assert producer.indexed_key_count() == 2

    def test_keyed_bucket_runs_before_wildcard_in_registration_order(self):
        producer = ContextEventProducer()
        order = []
        for name, keys in (
            ("wild-1", None),
            ("keyed-1", [DEADLINE]),
            ("wild-2", None),
            ("keyed-2", [DEADLINE]),
        ):
            producer.add_consumer(lambda e, name=name: order.append(name), keys)
        producer.produce(context_change())
        assert order == ["keyed-1", "keyed-2", "wild-1", "wild-2"]

    def test_wildcard_only_producer_delivers_in_registration_order(self):
        producer = ContextEventProducer()
        order = []
        for name in ("a", "b", "c"):
            producer.add_consumer(lambda e, name=name: order.append(name))
        producer.produce(context_change())
        assert order == ["a", "b", "c"]

    def test_keyed_consumer_removing_itself_mid_call_spares_its_siblings(self):
        producer = ContextEventProducer()
        order = []

        def once(event):
            order.append("once")
            producer.remove_consumer(once)

        producer.add_consumer(lambda e: order.append("before"), keys=[DEADLINE])
        producer.add_consumer(once, keys=[DEADLINE])
        producer.add_consumer(lambda e: order.append("after"), keys=[DEADLINE])
        producer.produce(context_change())
        producer.produce(context_change())
        assert order == ["before", "once", "after", "before", "after"]
        assert producer.consumer_count() == 2

    @pytest.mark.parametrize("keys", [[DEADLINE], None])
    def test_a_consumer_added_mid_call_waits_for_the_next_event(self, keys):
        """Buckets are copy-on-write: the dispatch in flight iterates the
        bucket as it was when it began, as the old tuple copy did."""
        producer = ContextEventProducer()
        order = []

        def adder(event):
            order.append("adder")
            if len(order) == 1:
                producer.add_consumer(lambda e: order.append("late"), keys)

        producer.add_consumer(adder, keys)
        producer.produce(context_change())
        assert order == ["adder"]
        producer.produce(context_change())
        assert order == ["adder", "adder", "late"]

    @pytest.mark.parametrize("kind", [EventProducer, ExternalEventSource])
    def test_keys_on_a_producer_without_extractor_file_as_wildcard(self, kind):
        """No extractor, no way to tell an event's key: the consumer must
        see everything rather than nothing."""
        producer = kind("E_plain", PLAIN_TYPE)
        order = []
        producer.add_consumer(lambda e: order.append("keyed"), keys=["k"])
        producer.add_consumer(lambda e: order.append("unkeyed"))
        producer.emit(Event(PLAIN_TYPE, {"time": 1, "source": "test"}))
        assert order == ["keyed", "unkeyed"]
        assert producer.indexed_key_count() == 0
        assert producer.consumer_count() == 2

    @pytest.mark.parametrize("keyed, calls", [(True, 1), (False, 32)])
    def test_index_visits_only_the_matching_leaf(self, keyed, calls):
        """Count-based, no wall clock: 32 ``Filter_context`` leaves on 32
        fields and one event.  Keyed, the index calls exactly one of them;
        registered unkeyed — the linear scan — all 32 are called and 31
        reject the event.  What is recognised is the same."""
        producer = ContextEventProducer()
        filters = [
            ContextFilter("P-TF", "TaskForceContext", f"field{i}")
            for i in range(32)
        ]
        for flt in filters:
            producer.add_consumer(
                flt.step(0), keys=flt.routing_keys(0) if keyed else None
            )
        producer.produce(context_change("field7"))
        assert sum(f.consumed for f in filters) == calls
        assert sum(f.produced for f in filters) == 1
        assert filters[7].produced == 1

    def test_activity_producer_routes_by_schema_and_variable(self):
        producer = ActivityEventProducer()
        assess, other = [], []
        producer.add_consumer(assess.append, keys=[("P-TF", "assess")])
        producer.add_consumer(other.append, keys=[("P-TF", "report")])
        producer.produce(activity_change())
        assert len(assess) == 1
        assert other == []

    def test_produce_batch_emits_all_and_publishes_once_drained(self):
        bus = EventBus()
        got = []
        bus.subscribe("T_context", got.append)
        producer = ContextEventProducer()
        producer.attach(bus)
        direct = []
        producer.add_consumer(direct.append)
        events = producer.produce_batch([context_change(), context_change()])
        assert len(events) == 2
        assert len(direct) == 2
        assert len(got) == 2
        assert producer.emitted == 2


class TestContextProducer:
    def test_event_carries_association_set(self):
        producer = ContextEventProducer()
        event = producer.produce(context_change())
        assert event.type_name == "T_context"
        assert event["contextId"] == "ctx-1"
        assert event["processAssociations"] == frozenset(
            {("P-TF", "proc-1"), ("P-IR", "proc-2")}
        )
        assert event["fieldName"] == "TaskForceDeadline"
        assert event["oldFieldValue"] == 100
        assert event["newFieldValue"] == 50

    def test_type_declarations(self):
        assert ACTIVITY_EVENT_TYPE.has_parameter("newState")
        assert CONTEXT_EVENT_TYPE.has_parameter("processAssociations")


class TestAdmit:
    """The ingest door's check of a producer's input."""

    def test_conforming_events_pass(self):
        producer = ContextEventProducer()
        producer.admit([producer._translate(context_change())])

    def test_a_non_conforming_event_is_refused(self):
        event = Event.trusted(
            CONTEXT_EVENT_TYPE,
            dict(ContextEventProducer()._translate(context_change()).params, time="x"),
        )
        with pytest.raises(EventTypeError, match="'time' expects int"):
            ContextEventProducer().admit([event])

    @pytest.mark.parametrize(
        "associations",
        [
            frozenset({("P-TF", 7)}),
            frozenset({("P-TF", "proc-1"), ("P-TF", 1)}),
            frozenset({("P-TF", "proc-1", "extra")}),
            frozenset({"P-TF"}),
        ],
    )
    def test_an_association_that_is_not_a_str_pair_is_refused(self, associations):
        with pytest.raises(EventTypeError, match="processAssociations"):
            check_associations(associations)
        event = Event.trusted(
            CONTEXT_EVENT_TYPE,
            dict(
                ContextEventProducer()._translate(context_change()).params,
                processAssociations=associations,
            ),
        )
        with pytest.raises(EventTypeError, match="processAssociations"):
            ContextEventProducer().admit([event])

    @pytest.mark.parametrize(
        "associations",
        [
            frozenset({("P-TF", 7)}),
            frozenset({("P-TF", "proc-1"), ("P-TF", 1)}),
            frozenset({("P-TF", "proc-1", "extra")}),
            frozenset({"P-TF"}),
        ],
    )
    def test_the_validating_constructor_refuses_what_the_door_refuses(self, associations):
        """The members belong to ``T_context``: constructing the event
        fails as admitting it does, and so does checking the parameter
        alone."""
        params = dict(
            ContextEventProducer()._translate(context_change()).params,
            processAssociations=associations,
        )
        with pytest.raises(EventTypeError, match="processAssociations"):
            Event(CONTEXT_EVENT_TYPE, params)
        (spec,) = [
            spec
            for spec in CONTEXT_EVENT_TYPE.parameters()
            if spec.name == "processAssociations"
        ]
        with pytest.raises(EventTypeError, match="processAssociations"):
            spec.check(associations)
        good = frozenset({("P-TF", "proc-1"), ("P-Other", "proc-2")})
        assert Event(CONTEXT_EVENT_TYPE, dict(params, processAssociations=good))
