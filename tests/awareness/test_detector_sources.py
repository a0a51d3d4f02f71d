"""Unit tests for detector agents and event source agents (§6.3, §6.4)."""

import pytest

from repro.awareness.detector import DetectorAgent
from repro.awareness.planner import PlanCache
from repro.awareness.sources import ActivitySourceAgent, ContextSourceAgent
from repro.awareness.specification import SpecificationWindow
from repro.core import (
    ActivityVariable,
    BasicActivitySchema,
    CoreEngine,
    ContextSchema,
    ProcessActivitySchema,
)
from repro.core.context import ContextFieldSpec
from repro.core.roles import RoleRef
from repro.errors import SpecificationError
from repro.events.bus import EventBus
from repro.events.producers import ActivityEventProducer, ContextEventProducer

from tests.awareness.test_routing import python_calls


def window_with_schema(producers=None):
    window = SpecificationWindow(
        "P-X",
        producers
        or {
            "ActivityEvent": ActivityEventProducer(),
            "ContextEvent": ContextEventProducer(),
        },
    )
    flt = window.place("Filter_context", "Ctx", "deadline")
    window.connect(window.source("ContextEvent"), flt, 0)
    window.output(flt, RoleRef("watchers"), schema_name="AS_W")
    return window


class TestDetectorAgent:
    def test_validates_window_at_construction(self):
        window = SpecificationWindow(
            "P-X", {"ContextEvent": ContextEventProducer()}
        )
        with pytest.raises(SpecificationError):
            DetectorAgent(window, PlanCache())

    def test_forwards_recognized_events_to_all_sinks(self):
        window = window_with_schema()
        sink_a, sink_b = [], []
        detector = DetectorAgent(window, PlanCache(), sink=sink_a.append)
        detector.add_sink(sink_b.append)

        from repro.core.context import ContextChange

        window.source("ContextEvent").produce(
            ContextChange(
                time=1,
                context_id="c1",
                context_name="Ctx",
                associations=frozenset({("P-X", "i1")}),
                field_name="deadline",
                old_value=None,
                new_value=5,
            )
        )
        assert detector.recognized == 1
        assert len(sink_a) == len(sink_b) == 1
        assert sink_a[0]["schemaName"] == "AS_W"

    def test_bus_sink_publishes_delivery_events(self):
        window = window_with_schema()
        bus = EventBus()
        got = []
        bus.subscribe("T_delivery", got.append)
        DetectorAgent(window, PlanCache()).add_sink(bus.publish)

        from repro.core.context import ContextChange

        window.source("ContextEvent").produce(
            ContextChange(
                time=1,
                context_id="c1",
                context_name="Ctx",
                associations=frozenset({("P-X", "i1")}),
                field_name="deadline",
                old_value=None,
                new_value=5,
            )
        )
        assert len(got) == 1

    def test_schema_names_and_process(self):
        detector = DetectorAgent(window_with_schema(), PlanCache())
        assert detector.schema_names() == ("AS_W",)
        assert detector.process_schema_id == "P-X"


class TestSourceAgents:
    def _engine_with_process(self):
        engine = CoreEngine()
        process = ProcessActivitySchema("P-X", "x")
        process.add_context_schema(
            ContextSchema("Ctx", [ContextFieldSpec("deadline", "int")])
        )
        process.add_activity_variable(
            ActivityVariable("w", BasicActivitySchema("b-w", "w"))
        )
        process.mark_entry("w")
        engine.register_schema(process)
        return engine, process

    def test_activity_agent_gathers_state_changes(self):
        engine, process = self._engine_with_process()
        agent = ActivitySourceAgent(engine)
        got = []
        agent.producer.add_consumer(got.append)
        instance = engine.create_process_instance(process)
        engine.change_state(instance, "Ready")
        assert agent.gathered == 1
        assert got[0]["newState"] == "Ready"

    def test_context_agent_gathers_field_changes(self):
        engine, process = self._engine_with_process()
        agent = ContextSourceAgent(engine)
        got = []
        agent.producer.add_consumer(got.append)
        instance = engine.create_process_instance(process)
        instance.context("Ctx").set("deadline", 9)
        assert agent.gathered == 1
        assert got[0]["newFieldValue"] == 9

    def test_agents_publish_on_bus_when_given(self):
        engine, process = self._engine_with_process()
        bus = EventBus()
        activity_events, context_events = [], []
        bus.subscribe("T_activity", activity_events.append)
        bus.subscribe("T_context", context_events.append)
        ActivitySourceAgent(engine, bus=bus)
        ContextSourceAgent(engine, bus=bus)
        instance = engine.create_process_instance(process)
        engine.change_state(instance, "Ready")
        instance.context("Ctx").set("deadline", 1)
        assert len(activity_events) == 1
        assert len(context_events) == 1

    def test_a_change_reaches_its_producer_in_a_fixed_number_of_calls(self):
        """Counts, not wall clock: each agent registers its producer's
        ``produce`` on the engine, so a change costs the engine's calls,
        the translation's and ``emit``'s, with one emission count, up to
        the producer's ``_dispatch`` (no consumer, no bus, so nothing
        runs after it): 20 from ``change_state``, 16 from a context
        field ``set``."""
        engine, process = self._engine_with_process()
        activity = ActivitySourceAgent(engine)
        context = ContextSourceAgent(engine)
        instance = engine.create_process_instance(process)
        ref = instance.context("Ctx")
        ref.set("deadline", 1)
        engine.change_state(instance, "Ready")

        assert python_calls(engine.change_state, instance, "Running") == 20
        assert python_calls(ref.set, "deadline", 2) == 16
        assert (activity.gathered, context.gathered) == (2, 2)

    def test_an_untapped_bus_adds_no_call(self):
        """The same counts with a bus attached that no one taps: the
        producers reach it only while their topic has a subscriber (the
        parent published every event, 24 and 20 calls)."""
        engine, process = self._engine_with_process()
        bus = EventBus()
        activity = ActivitySourceAgent(engine, bus=bus)
        context = ContextSourceAgent(engine, bus=bus)
        instance = engine.create_process_instance(process)
        ref = instance.context("Ctx")
        ref.set("deadline", 1)
        engine.change_state(instance, "Ready")

        assert python_calls(engine.change_state, instance, "Running") == 20
        assert python_calls(ref.set, "deadline", 2) == 16
        assert (activity.gathered, context.gathered) == (2, 2)
        assert bus.delivered_count() == 0


class TestCustomOperatorExtension:
    """AM is open: applications add their own operator families (§5.1)."""

    def test_register_and_use_custom_operator(self):
        from repro.awareness.operators.base import (
            EventOperator,
            OperatorSignature,
        )
        from repro.awareness.operators.registry import default_registry
        from repro.awareness.operators.segments import Template
        from repro.events.canonical import canonical_type

        class EveryNth(EventOperator):
            """Pass every n-th event per process instance."""

            family = "EveryNth"
            template = Template(
                cells=("_partitions", "n", "instance_name"),
                body="""
$seen = $_partitions.get(@processInstanceId, 0) + 1
$_partitions[@processInstanceId] = $seen
if $seen % $n:
    $skip
$emit
""",
                output={"source": "$instance_name"},
            )

            def __init__(self, process_schema_id, n, instance_name=None):
                ctype = canonical_type(process_schema_id)
                super().__init__(
                    process_schema_id,
                    OperatorSignature((ctype,), ctype),
                    instance_name,
                )
                self.n = n

        registry = default_registry()
        registry.register("EveryNth", EveryNth)
        assert "EveryNth" in registry

        window = SpecificationWindow(
            "P-X",
            {"ContextEvent": ContextEventProducer()},
            registry=registry,
        )
        flt = window.place("Filter_context", "Ctx", "deadline")
        nth = window.place("EveryNth", 3)
        window.connect(window.source("ContextEvent"), flt, 0)
        window.connect(flt, nth, 0)
        window.output(nth, RoleRef("watchers"), schema_name="AS_N")
        detected = []
        DetectorAgent(window, PlanCache(), sink=detected.append)

        from repro.core.context import ContextChange

        for tick in range(1, 10):
            window.source("ContextEvent").produce(
                ContextChange(
                    time=tick,
                    context_id="c1",
                    context_name="Ctx",
                    associations=frozenset({("P-X", "i1")}),
                    field_name="deadline",
                    old_value=None,
                    new_value=tick,
                )
            )
        assert [event.time for event in detected] == [3, 6, 9]
        assert nth.partition_count() == 1

    def test_a_family_without_a_template_is_refused(self):
        from repro.awareness.operators.base import EventOperator, OperatorSignature
        from repro.awareness.operators.registry import OperatorRegistry
        from repro.errors import ReproError
        from repro.events.canonical import canonical_type

        class Untemplated(EventOperator):
            family = "Untemplated"

            def __init__(self, process_schema_id):
                ctype = canonical_type(process_schema_id)
                super().__init__(process_schema_id, OperatorSignature((ctype,), ctype))

        with pytest.raises(SpecificationError, match="Untemplated"):
            OperatorRegistry().register("Untemplated", Untemplated)
        # Never registered, wired by hand: linking it is a typed error.
        with pytest.raises(ReproError, match="Untemplated"):
            Untemplated("P-X").step(0)

    def test_duplicate_family_rejected(self):
        from repro.awareness.operators import Count
        from repro.awareness.operators.registry import default_registry

        registry = default_registry()
        with pytest.raises(SpecificationError):
            registry.register("Count", Count)

    def test_non_operator_class_rejected(self):
        from repro.awareness.operators.registry import OperatorRegistry

        with pytest.raises(SpecificationError):
            OperatorRegistry().register("Thing", object)  # type: ignore[arg-type]
