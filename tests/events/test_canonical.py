"""Tests for the canonical event type C_P (Section 5.1.2)."""

import pytest

from repro.awareness.operators import And, Or
from repro.awareness.operators.compare import Compare2
from repro.awareness.operators.count import Count
from repro.errors import EventTypeError
from repro.events.canonical import (
    CANONICAL_KEYS,
    CanonicalEvent,
    canonical_event,
    canonical_type,
    canonical_type_name,
    is_canonical,
)
from repro.events.event import Event
from repro.parallel.codec import BinaryDecoder, encode_standalone


class TestCanonicalType:
    def test_name_encodes_process_schema(self):
        assert canonical_type_name("P-TF") == "C[P-TF]"
        assert is_canonical("C[P-TF]")
        assert not is_canonical("T_activity")

    def test_types_cached_and_equal_per_schema(self):
        assert canonical_type("P-A") is canonical_type("P-A")
        assert canonical_type("P-A") != canonical_type("P-B")

    def test_declares_generic_information_parameters(self):
        event_type = canonical_type("P-A")
        for name in ("intInfo", "strInfo", "description", "sourceEvent"):
            assert event_type.has_parameter(name)

    def test_declares_partitioning_parameters(self):
        event_type = canonical_type("P-A")
        assert event_type.has_parameter("processSchemaId")
        assert event_type.has_parameter("processInstanceId")


class TestCanonicalEvent:
    def test_construction(self):
        event = canonical_event(
            "P-A", "proc-1", time=9, source="op", int_info=5,
            description="count=5",
        )
        assert event.type_name == "C[P-A]"
        assert event["processInstanceId"] == "proc-1"
        assert event["intInfo"] == 5
        assert event["description"] == "count=5"

    def test_source_event_copied_to_plain_dict(self):
        event = canonical_event(
            "P-A", "proc-1", time=1, source="op",
            source_event={"a": 1},
        )
        assert event["sourceEvent"] == {"a": 1}

    def test_optional_parameters_default_to_none(self):
        event = canonical_event("P-A", "proc-1", time=1, source="op")
        assert event["intInfo"] is None
        assert event["strInfo"] is None


# -- records ------------------------------------------------------------------
#: A ``C_P`` mapping of its own shape: ``type`` first, no optional
#: parameter but ``intInfo``.
OWN_SHAPE = {
    "type": "C[P-A]",
    "processInstanceId": "proc-1",
    "time": 3,
    "intInfo": 2,
    "source": "app",
    "processSchemaId": "P-A",
}


class TestRecords:
    """Every ``C_P`` event is a record, whichever door built it; its
    mapping is built on demand, and equals what the event held when it
    held a mapping — key order included."""

    def test_every_constructor_builds_a_record(self):
        ctype = canonical_type("P-A")
        built = [
            canonical_event("P-A", "proc-1", time=1, source="op"),
            Event(ctype, OWN_SHAPE),
            Event.trusted(ctype, dict(OWN_SHAPE)),
            Event(ctype, OWN_SHAPE).derive(intInfo=5),
            BinaryDecoder().decode_payload(
                encode_standalone({"e": Event(ctype, OWN_SHAPE)})[4:]
            )["e"],
        ]
        assert [type(event) for event in built] == [CanonicalEvent] * len(built)

    def test_the_mapping_is_built_once_on_demand(self):
        event = canonical_event("P-A", "proc-1", time=1, source="op", int_info=4)
        assert event._mapping is None  # fields only, until someone asks
        assert (event.processInstanceId, event.intInfo, event.time) == ("proc-1", 4, 1)
        assert event._mapping is None
        params = event.params
        assert event.params is params
        assert tuple(params) == CANONICAL_KEYS
        assert params["type"] == "C[P-A]" and params["intInfo"] == 4

    def test_a_mapping_keeps_its_shape(self):
        event = Event(canonical_type("P-A"), OWN_SHAPE)
        assert list(event.params.items()) == list(OWN_SHAPE.items())
        assert event.strInfo is None and event.get("strInfo", "absent") == "absent"
        assert "description" not in event

    @pytest.mark.parametrize("door", ["validating", "trusted"])
    def test_an_undeclared_parameter_is_refused(self, door):
        ctype = canonical_type("P-A")
        params = dict(OWN_SHAPE, stray="x")
        with pytest.raises(EventTypeError, match="declares no parameter 'stray'"):
            if door == "validating":
                Event(ctype, params)
            else:
                Event.trusted(ctype, params)

    @pytest.mark.parametrize(
        "operator, overrides",
        [
            (lambda: Count("P-A"), {"intInfo": 1, "description": "count=1"}),
            (lambda: Or("P-A"), {}),
            (lambda: And("P-A"), {}),
            (
                lambda: Compare2("P-A", "<="),
                {"description": "comparison satisfied: 2 vs 2 (None)"},
            ),
        ],
    )
    def test_a_kernel_output_keeps_its_inputs_shape(self, operator, overrides):
        """An output built from an input of its own shape maps to what
        ``params | overrides`` gave when events held mappings: the
        input's keys in its order, then what the kernel set that the
        input lacked."""
        op = operator()
        event = Event(canonical_type("P-A"), OWN_SHAPE)
        outputs = []
        for slot in range(op.arity):
            outputs += op.consume(slot, event)
        output = outputs[-1]
        expected = dict(OWN_SHAPE) | {"source": op.instance_name} | overrides
        assert list(output.params.items()) == list(expected.items())
