"""Wire vocabulary through the one codec: every primitive plane,
composites, the event-type registry, framing."""

import io

import pytest

from repro.errors import WireError
from repro.awareness.operators.output import DELIVERY_EVENT_TYPE
from repro.events.canonical import canonical_type
from repro.events.event import Event, EventType, ParameterSpec, base_parameters
from repro.events.external import NEWS_EVENT_TYPE
from repro.events.producers import (
    ACTIVITY_EVENT_TYPE,
    CONTEXT_EVENT_TYPE,
    SYSTEM_EVENT_TYPE,
)
from repro.observability.provenance import ProvenanceNode
from repro.parallel.codec import (
    BinaryDecoder,
    BinaryEncoder,
    BinaryFrameReader,
    encode_standalone,
)
from repro.parallel.wire import (
    MAX_FRAME_BYTES,
    register_event_type,
    resolve_event_type,
)

from tests.exact import exactly


def roundtrip(value):
    """*value* through one self-contained codec record and back."""
    data = encode_standalone({"v": value})
    return BinaryDecoder().decode_payload(data[4:])["v"]


def frame_bytes(frame):
    return BinaryEncoder().encode_frame(frame)


class TestEventRoundTrips:
    def test_activity_event(self):
        event = Event.trusted(
            ACTIVITY_EVENT_TYPE,
            {
                "time": 41,
                "source": "E_activity",
                "activityInstanceId": "act-1",
                "activityVariableId": "State",
                "parentProcessSchemaId": "P-TF",
                "parentProcessInstanceId": "tf-001",
                "oldValue": "Running",
                "newValue": "Completed",
            },
        )
        back = roundtrip(event)
        assert back.event_type is ACTIVITY_EVENT_TYPE
        assert dict(back.params) == dict(event.params)

    def test_context_event_restores_association_frozenset(self):
        associations = frozenset({("P-TF", "tf-001"), ("P-TF", "tf-002")})
        event = Event.trusted(
            CONTEXT_EVENT_TYPE,
            {
                "time": 7,
                "source": "E_context",
                "contextId": "ctx-1",
                "contextName": "TaskForceCtx",
                "processAssociations": associations,
                "fieldName": "Deadline",
                "oldFieldValue": 10,
                "newFieldValue": 20,
            },
        )
        back = roundtrip(event)
        restored = back.params["processAssociations"]
        assert isinstance(restored, frozenset)
        assert restored == associations
        assert all(isinstance(pair, tuple) for pair in restored)

    def test_system_event(self):
        event = Event.trusted(
            SYSTEM_EVENT_TYPE,
            {
                "time": 3,
                "source": "E_system",
                "systemId": "cmi-1",
                "metric": "queue_depth",
                "seriesLabel": "delivery",
                "value": 12,
            },
        )
        back = roundtrip(event)
        assert dict(back.params) == dict(event.params)

    def test_external_news_event(self):
        event = Event.trusted(
            NEWS_EVENT_TYPE,
            {
                "time": 9,
                "source": "E_news",
                "queryId": "query-3",
                "headline": "outbreak contained",
                "relevance": 0.75,
            },
        )
        back = roundtrip(event)
        assert back.params["queryId"] == "query-3"
        assert back.params["relevance"] == pytest.approx(0.75)

    def test_canonical_event_type_is_minted_from_the_name(self):
        event = Event.trusted(
            canonical_type("P-TF"),
            {
                "time": 55,
                "source": "detector",
                "processSchemaId": "P-TF",
                "processInstanceId": "tf-001",
                "intInfo": 4,
                "description": "deadline churn",
            },
        )
        back = roundtrip(event)
        assert back.type_name == "C[P-TF]"
        assert back.event_type is canonical_type("P-TF")
        assert back.params["intInfo"] == 4

    def test_delivery_event_with_payload_clock_and_provenance(self):
        chain = ProvenanceNode(
            event_id=12,
            node="Output:AS_TF",
            kind="composite",
            event_type="T_delivery",
            logical_time=90,
            summary="delivered",
            inputs=(
                ProvenanceNode(
                    event_id=3,
                    node="source:E_context",
                    kind="primitive",
                    event_type="T_context",
                    logical_time=88,
                    summary=("context", "TaskForceCtx", "Deadline", 20),
                ),
            ),
        )
        event = Event.trusted(
            DELIVERY_EVENT_TYPE,
            {
                "time": 90,
                "source": "awareness",
                "schemaName": "AS_TF",
                "deliveryRole": "team-1",
                "deliveryContext": None,
                "assignment": "identity",
                "processSchemaId": "P-TF",
                "processInstanceId": "tf-001",
                "userDescription": "deadline churn",
                "intInfo": 4,
            },
        )
        event.provenance = chain
        back = roundtrip(event)
        assert back.params["time"] == 90
        assert back.params["intInfo"] == 4
        assert back.provenance is not None
        assert back.provenance.signature() == chain.signature()
        primitive = back.provenance.inputs[0]
        assert primitive.summary == ("context", "TaskForceCtx", "Deadline", 20)

    def test_unknown_type_name_raises(self):
        unheard_of = EventType("T_unheard_of", base_parameters())
        data = encode_standalone(
            {"v": Event.trusted(unheard_of, {"time": 1, "source": "s"})}
        )
        with pytest.raises(WireError, match="T_unheard_of"):
            BinaryDecoder().decode_payload(data[4:])

    def test_registered_custom_type_resolves(self):
        custom = EventType(
            "T_custom_wire",
            (*base_parameters(), ParameterSpec("payload", "str")),
        )
        register_event_type(custom)
        assert resolve_event_type("T_custom_wire") is custom


class TestValueEncoding:
    def test_dollar_keys_in_payload_mappings_are_protected(self):
        value = {"$fs": "not a frozenset", "$m": [1, 2], "plain": 1}
        assert exactly(roundtrip(value), value)

    def test_nested_structures(self):
        value = (1, frozenset({("a", 2)}), [None, {"k": (3,)}, {7: "int key"}])
        assert exactly(roundtrip(value), value)

    def test_unencodable_value_raises(self):
        with pytest.raises(WireError):
            encode_standalone({"v": object()})


class TestFraming:
    def test_round_trip(self):
        reader = BinaryFrameReader(
            io.BytesIO(
                frame_bytes({"kind": "stats", "n": 3})
                + frame_bytes({"kind": "flush"})
            )
        )
        assert reader.read() == {"kind": "stats", "n": 3}
        assert reader.read() == {"kind": "flush"}
        assert reader.read() is None  # clean EOF

    def test_truncated_payload_raises(self):
        data = frame_bytes({"kind": "events", "events": list(range(50))})
        truncated = io.BytesIO(data[: len(data) - 5])
        with pytest.raises(WireError):
            BinaryFrameReader(truncated).read()

    def test_truncated_header_raises(self):
        with pytest.raises(WireError):
            BinaryFrameReader(io.BytesIO(b"\x00\x00")).read()

    def test_oversized_length_prefix_is_refused(self):
        import struct

        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError, match="exceeds"):
            BinaryFrameReader(io.BytesIO(header)).read()
