"""Tests for recognition provenance chains and the disabled no-op path."""

from repro import EnactmentSystem, Participant
from repro.awareness.operators.count import Count
from repro.awareness.operators.filters import ContextFilter
from repro.awareness.operators.generic import And, Seq
from repro.core.context import ContextChange
from repro.events.canonical import canonical_event
from repro.events.producers import ContextEventProducer
from repro.events.queues import MemoryDeliveryQueue, SqliteDeliveryQueue
from repro.observability import (
    INSTRUMENTATION,
    ProvenanceNode,
    ProvenanceTracker,
    instrumented,
)
from repro.workloads.taskforce import TaskForceApplication


def context_change(index, field="field0"):
    return ContextChange(
        time=index,
        context_id="ctx-1",
        context_name="Ctx",
        associations=frozenset({("P-X", "proc-1")}),
        field_name=field,
        old_value=index,
        new_value=index + 1,
    )


def canonical(time, instance="proc-1", description=None):
    return canonical_event(
        "P-X", instance, time=time, source="test", description=description
    )


class TestPrimitives:
    def test_producer_stamps_primitive_events(self):
        producer = ContextEventProducer()
        with instrumented():
            event = producer.produce(context_change(1))
        node = event.provenance
        assert isinstance(node, ProvenanceNode)
        assert node.is_primitive
        assert node.node == "E_context"
        assert node.event_type == "T_context"
        assert node.inputs == ()
        assert "field0" in node.summary_text()

    def test_summary_text_formats_digests_lazily(self):
        activity = ProvenanceNode(
            1, "E_activity", "primitive", "T_activity", 3,
            ("activity", "Review", "Ready", "Running"),
        )
        context = ProvenanceNode(
            2, "E_context", "primitive", "T_context", 4,
            ("context", "Ctx", "deadline", 99),
        )
        assert activity.summary_text() == "activity 'Review': Ready -> Running"
        assert context.summary_text() == "context 'Ctx'.deadline = 99"


class TestOperatorChains:
    def test_chain_through_count(self):
        producer = ContextEventProducer()
        flt = ContextFilter("P-X", "Ctx", "field0", instance_name="watch")
        count = Count("P-X", instance_name="seen")
        producer.add_consumer(lambda event: flt.consume(0, event))
        outputs = []
        flt.add_consumer(
            lambda slot, event: outputs.extend(count.consume(slot, event)), 0
        )
        with instrumented():
            producer.produce(context_change(1))
        (composite,) = outputs
        chain = composite.provenance
        assert chain.kind == "Count"
        assert chain.node == "seen"
        assert [node.kind for node in chain.primitives()] == ["primitive"]
        assert chain.operator_nodes() == ("seen", "watch")
        assert "count=1" in chain.summary_text()

    def test_and_links_all_constituents(self):
        conjunction = And("P-X", instance_name="both")
        with instrumented():
            first = canonical(1, description="left")
            second = canonical(2, description="right")
            INSTRUMENTATION.provenance.record_operator(
                first, "left-src", "Filter", (first,)
            )
            INSTRUMENTATION.provenance.record_operator(
                second, "right-src", "Filter", (second,)
            )
            assert conjunction.consume(0, first) == []
            (output,) = conjunction.consume(1, second)
        chain = output.provenance
        assert chain.kind == "And"
        # Both constituents' chains hang off the composite's node.
        assert len(chain.inputs) == 2
        assert {node.node for node in chain.inputs} == {
            "left-src",
            "right-src",
        }

    def test_seq_links_all_constituents(self):
        sequence = Seq("P-X", instance_name="ordered")
        with instrumented():
            first = canonical(1)
            second = canonical(2)
            assert sequence.consume(0, first) == []
            (output,) = sequence.consume(1, second)
        chain = output.provenance
        assert chain.kind == "Seq"
        assert len(chain.inputs) == 0 or len(chain.inputs) <= 2
        # Constituent events carried no chains (built outside a producer),
        # but the node itself still records the operator hop.
        assert chain.node == "ordered"

    def test_render_and_to_dict(self):
        tracker = ProvenanceTracker()
        event = canonical(5, description="leaf")
        leaf = tracker.record_operator(event, "op-leaf", "Filter", (event,))
        composite = canonical(6, description="top")
        composite.provenance = None
        node = tracker.record_operator(
            composite, "op-top", "Count", (event,)
        )
        rendered = node.render()
        assert "op-top" in rendered and "op-leaf" in rendered
        assert "ev-" in rendered
        payload = node.to_dict()
        assert payload["node"] == "op-top"
        assert payload["inputs"][0]["node"] == "op-leaf"
        assert payload["event_id"].startswith("ev-")
        assert leaf.event_id < node.event_id


class TestDeliveryRingBuffer:
    def test_recent_deliveries_bounded(self):
        tracker = ProvenanceTracker(max_deliveries=3)
        for index in range(5):
            event = canonical(index)
            tracker.record_primitive(event, "E")
            tracker.record_delivery(
                f"n-{index}", "user", "AS_X", "desc", index, event
            )
        records = tracker.recent_deliveries()
        assert len(records) == 3
        assert [record.notification_id for record in records] == [
            "n-2",
            "n-3",
            "n-4",
        ]
        assert all(record.chain is not None for record in records)
        assert "notification n-4" in records[-1].render()

    def test_clear_resets_ids_and_buffer(self):
        tracker = ProvenanceTracker()
        event = canonical(1)
        tracker.record_primitive(event, "E")
        tracker.record_delivery("n-1", "u", "AS", "d", 1, event)
        tracker.clear()
        assert tracker.recent_deliveries() == ()
        fresh = canonical(2)
        node = tracker.record_primitive(fresh, "E")
        assert node.event_id == 1


class TestDisabledPath:
    def test_disabled_pipeline_stamps_nothing(self):
        assert not INSTRUMENTATION.enabled
        producer = ContextEventProducer()
        flt = ContextFilter("P-X", "Ctx", "field0")
        count = Count("P-X")
        producer.add_consumer(lambda event: flt.consume(0, event))
        outputs = []
        flt.add_consumer(
            lambda slot, event: outputs.extend(count.consume(slot, event)), 0
        )
        before_spans = INSTRUMENTATION.tracer.completed_spans
        before_deliveries = len(INSTRUMENTATION.provenance.recent_deliveries())
        event = producer.produce(context_change(1))
        assert event.provenance is None
        (composite,) = outputs
        assert composite.provenance is None
        assert INSTRUMENTATION.tracer.completed_spans == before_spans
        assert (
            len(INSTRUMENTATION.provenance.recent_deliveries())
            == before_deliveries
        )

    def test_instrumented_scope_restores_previous_state(self):
        assert not INSTRUMENTATION.enabled
        with instrumented():
            assert INSTRUMENTATION.enabled
            with instrumented():
                assert INSTRUMENTATION.enabled
            # The inner scope restores the outer scope's enabled state.
            assert INSTRUMENTATION.enabled
        assert not INSTRUMENTATION.enabled


class TestViewerOverAPersistentQueue:
    """"Why was I notified" survives the §6.5 persistent queue."""

    @staticmethod
    def viewer(queue):
        system = EnactmentSystem(queue=queue)
        lee = system.register_participant(Participant("u-lee", "dr-lee"))
        kim = system.register_participant(Participant("u-kim", "dr-kim"))
        role = system.core.roles.define_role("epidemiologist")
        role.add_member(lee)
        role.add_member(kim)
        app = TaskForceApplication(system)
        app.install_awareness()
        with instrumented():
            task_force = app.create_task_force(lee, [lee, kim], deadline=200)
            app.request_information(task_force, kim, deadline=150)
            app.change_task_force_deadline(task_force, 120)
        viewer = system.awareness.viewer_for(kim)
        viewer.retrieve()
        return viewer

    def test_the_chain_renders_as_it_does_from_memory(self):
        persisted = self.viewer(SqliteDeliveryQueue())
        live = self.viewer(MemoryDeliveryQueue())
        (notification,) = persisted.received()
        chain = persisted.provenance_for(notification)
        assert chain is not None
        (original,) = live.received()
        assert chain.signature() == live.provenance_for(original).signature()
        assert persisted.render(provenance=True) == live.render(provenance=True)
        assert chain.render(indent=2) in persisted.render(provenance=True)
