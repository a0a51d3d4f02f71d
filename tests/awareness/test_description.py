"""Tests for awareness description DAGs (Section 5.1)."""

import pytest

from repro.awareness.description import AwarenessDescription, EventGraph
from repro.awareness.operators import And, ContextFilter, Count, Or
from repro.errors import DagValidationError, SlotError
from repro.events.producers import ContextEventProducer


def graph_with_filter():
    graph = EventGraph()
    producer = graph.add_producer(ContextEventProducer())
    flt = graph.add_operator(
        ContextFilter("P", "Ctx", "deadline", instance_name="flt")
    )
    graph.connect(producer, flt, 0)
    return graph, producer, flt


class TestGraphConstruction:
    def test_connect_type_checked(self):
        graph = EventGraph()
        producer = graph.add_producer(ContextEventProducer())
        conjunction = graph.add_operator(And("P"))
        with pytest.raises(SlotError):
            graph.connect(producer, conjunction, 0)  # T_context != C[P]

    def test_slot_cardinality_one_producer_per_slot(self):
        graph, producer, flt = graph_with_filter()
        conjunction = graph.add_operator(And("P"))
        graph.connect(flt, conjunction, 0)
        with pytest.raises(SlotError):
            graph.connect(flt, conjunction, 0)

    def test_unknown_nodes_rejected(self):
        graph = EventGraph()
        flt = ContextFilter("P", "Ctx", "f")
        other = And("P")
        graph.add_operator(other)
        with pytest.raises(DagValidationError):
            graph.connect(flt, other, 0)

    def test_cycle_rejected_at_connect(self):
        graph = EventGraph()
        a = graph.add_operator(Count("P", instance_name="a"))
        b = graph.add_operator(Count("P", instance_name="b"))
        graph.connect(a, b, 0)
        with pytest.raises(DagValidationError):
            graph.connect(b, a, 0)

    def test_duplicate_operator_rejected(self):
        graph = EventGraph()
        op = Count("P")
        graph.add_operator(op)
        with pytest.raises(DagValidationError):
            graph.add_operator(op)

    def test_roots_are_operators_without_outgoing_edges(self):
        graph, producer, flt = graph_with_filter()
        count = graph.add_operator(Count("P"))
        graph.connect(flt, count, 0)
        assert graph.roots() == (count,)


class TestDescription:
    def test_validate_requires_wired_slots(self):
        graph, producer, flt = graph_with_filter()
        conjunction = graph.add_operator(And("P"))
        graph.connect(flt, conjunction, 0)  # slot 1 left unwired
        description = AwarenessDescription(graph, conjunction)
        with pytest.raises(DagValidationError):
            description.validate()

    def test_validate_requires_primitive_leaves(self):
        graph = EventGraph()
        count = graph.add_operator(Count("P"))
        description = AwarenessDescription(graph, count)
        with pytest.raises(DagValidationError):
            description.validate()

    def test_depth_of_chain(self):
        graph, producer, flt = graph_with_filter()
        count = graph.add_operator(Count("P"))
        graph.connect(flt, count, 0)
        description = AwarenessDescription(graph, count)
        assert description.depth() == 2
        assert AwarenessDescription(graph, flt).depth() == 1

    def test_operators_and_producers_of_subgraph(self):
        graph, producer, flt = graph_with_filter()
        other = graph.add_operator(
            ContextFilter("P", "Ctx", "other", instance_name="other")
        )
        graph.connect(producer, other, 0)
        description = AwarenessDescription(graph, flt)
        assert set(description.operators()) == {flt}
        assert set(description.producers()) == {producer}

    def test_shared_nodes_between_descriptions(self):
        """Interior nodes may be shared amongst schemata (Section 6.2)."""
        graph, producer, flt = graph_with_filter()
        count_a = graph.add_operator(Count("P", instance_name="count-a"))
        count_b = graph.add_operator(Count("P", instance_name="count-b"))
        graph.connect(flt, count_a, 0)
        graph.connect(flt, count_b, 0)
        description_a = AwarenessDescription(graph, count_a)
        description_b = AwarenessDescription(graph, count_b)
        description_a.validate()
        description_b.validate()
        assert flt in description_a.operators()
        assert flt in description_b.operators()
