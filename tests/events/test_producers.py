"""Tests for the primitive event producers E_activity and E_context."""

from repro.core.context import ContextChange
from repro.core.instances import ActivityStateChange
from repro.events.bus import EventBus
from repro.events.producers import (
    ACTIVITY_EVENT_TYPE,
    CONTEXT_EVENT_TYPE,
    ActivityEventProducer,
    ContextEventProducer,
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


def context_change():
    return ContextChange(
        time=7,
        context_id="ctx-1",
        context_name="TaskForceContext",
        associations=frozenset({("P-TF", "proc-1"), ("P-IR", "proc-2")}),
        field_name="TaskForceDeadline",
        old_value=100,
        new_value=50,
    )


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

    def test_linear_mode_matches_indexed_mode(self):
        for indexed in (True, False):
            producer = ContextEventProducer()
            producer.indexed = indexed
            matching, other = [], []
            producer.add_consumer(
                matching.append,
                keys=[("TaskForceContext", "TaskForceDeadline")],
            )
            producer.add_consumer(other.append, keys=[("Ctx", "x")])
            producer.produce(context_change())
            assert len(matching) == 1, f"indexed={indexed}"
            # Linear mode scans everyone, but only registration differs;
            # the keyed consumer list is what the filter would reject from.
            if indexed:
                assert other == []

    def test_activity_producer_routes_by_schema_and_variable(self):
        producer = ActivityEventProducer()
        assess, other = [], []
        producer.add_consumer(assess.append, keys=[("P-TF", "assess")])
        producer.add_consumer(other.append, keys=[("P-TF", "report")])
        producer.produce(activity_change())
        assert len(assess) == 1
        assert other == []

    def test_attach_installs_bus_key_extractor(self):
        bus = EventBus()
        producer = ContextEventProducer()
        producer.attach(bus)
        extractor = bus.key_extractor("T_context")
        assert extractor is not None
        event = producer.produce(context_change())
        assert extractor(event) == ("TaskForceContext", "TaskForceDeadline")

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
