"""Binary codec round-trips: values, events, interning, negotiation."""

import io

import pytest

from repro.errors import WireError
from repro.events.event import Event
from repro.events.producers import ACTIVITY_EVENT_TYPE, CONTEXT_EVENT_TYPE
from repro.observability.provenance import ProvenanceNode
from repro.parallel.codec import (
    HELLO_MAGIC,
    INTERN_MAX,
    BinaryDecoder,
    BinaryEncoder,
    BinaryFrameReader,
    BinaryFrameWriter,
    T_DICT,
    T_SELF,
    T_STR,
    encode_standalone,
    events_frame,
    frame_to_jsonable,
    hello_bytes,
    read_hello,
)
from repro.parallel.wire import event_to_wire


#: A few KB of nesting run the recursive decoder out of interpreter
#: stack: ``{"a": [[[...]]]}`` 5 000 lists, tuples, bare ``CDEF`` tags deep.
DEEP_PAYLOADS = [
    b"\x0b\x01\x05\x01a" + nesting * 5000 + b"\x00"
    for nesting in (b"\x08\x01", b"\x09\x01", b"\x0e")
]


def roundtrip(frame, encoder=None, decoder=None):
    encoder = encoder if encoder is not None else BinaryEncoder()
    decoder = decoder if decoder is not None else BinaryDecoder()
    data = encoder.encode_frame(frame)
    return decoder.decode_payload(memoryview(data)[4:])


def activity_event(instance="tf-001", time=41, provenance=None):
    event = Event.trusted(
        ACTIVITY_EVENT_TYPE,
        {
            "time": time,
            "source": "E_activity",
            "activityInstanceId": "act-1",
            "activityVariableId": "State",
            "parentProcessSchemaId": "P-TF",
            "parentProcessInstanceId": instance,
            "oldValue": "Running",
            "newValue": "Completed",
        },
    )
    if provenance is not None:
        event.provenance = provenance
    return event


class TestValueRoundTrips:
    def test_scalars(self):
        frame = {
            "none": None,
            "yes": True,
            "no": False,
            "int": 41,
            "big": 1 << 80,
            "neg": -(1 << 80),
            "negsmall": -1,
            "float": 2.5,
            "str": "hello",
            "empty": "",
        }
        assert roundtrip(frame) == frame

    def test_bool_is_not_confused_with_int(self):
        back = roundtrip({"a": True, "b": 1, "c": False, "d": 0})
        assert back["a"] is True
        assert back["b"] == 1 and type(back["b"]) is int
        assert back["c"] is False
        assert back["d"] == 0 and type(back["d"]) is int

    def test_composites(self):
        frame = {
            "list": [1, "two", [3, None]],
            "tuple": (1, 2, ("nested", 3)),
            "fset": frozenset({("P-TF", "tf-001"), ("P-TF", "tf-002")}),
            "dict": {"inner": {"$fs": "not a tag here"}},
        }
        back = roundtrip(frame)
        assert back == frame
        assert type(back["tuple"]) is tuple
        assert type(back["tuple"][2]) is tuple
        assert type(back["fset"]) is frozenset

    def test_dollar_keys_survive_without_tag_collision(self):
        # The JSON path must wrap these in "$d"; the binary path carries
        # them natively.
        frame = {"$fs": [1], "$t": "x", "$d": {"$fs": 2}}
        assert roundtrip(frame) == frame

    def test_long_strings_are_not_interned(self):
        long = "x" * (INTERN_MAX + 1)
        encoder = BinaryEncoder()
        decoder = BinaryDecoder()
        assert roundtrip({"a": long}, encoder, decoder) == {"a": long}
        assert decoder.interned_strings == ["a"]

    def test_unencodable_value_raises_wire_error(self):
        with pytest.raises(WireError):
            BinaryEncoder().encode_frame({"bad": object()})


class TestEventRoundTrips:
    def test_event_params_and_type(self):
        frame = events_frame([activity_event()], "binary")
        back = roundtrip(frame)
        event = back["events"][0]
        assert event.event_type is ACTIVITY_EVENT_TYPE
        assert dict(event.params) == dict(activity_event().params)

    def test_context_event_frozenset_parameter(self):
        associations = frozenset({("P-TF", "tf-001"), ("P-TF", "tf-002")})
        event = Event.trusted(
            CONTEXT_EVENT_TYPE,
            {
                "time": 7,
                "source": "E_context",
                "contextName": "Shared",
                "contextId": "ctx-1",
                "fieldName": "status",
                "oldValue": None,
                "newValue": "ok",
                "processAssociations": associations,
            },
        )
        back = roundtrip(events_frame([event], "binary"))
        assert back["events"][0].params["processAssociations"] == associations

    def test_provenance_chain(self):
        leaf = ProvenanceNode(
            event_id=1,
            node="producer",
            kind="primitive",
            event_type="T_activity",
            logical_time=41,
            summary=("activity", "act-1", "Running", "Completed"),
        )
        root = ProvenanceNode(
            event_id=2,
            node="detector",
            kind="operator",
            event_type="C[P-TF]",
            logical_time=41,
            summary="matched",
            inputs=(leaf,),
        )
        event = activity_event(provenance=root)
        back = roundtrip(events_frame([event], "binary"))
        chain = back["events"][0].provenance
        assert chain.signature() == root.signature()
        assert chain.event_id == 2
        assert chain.inputs[0].summary == leaf.summary

    def test_steady_state_events_shrink(self):
        encoder = BinaryEncoder()
        first = encoder.encode_frame(
            events_frame([activity_event("tf-001", 1)], "binary")
        )
        second = encoder.encode_frame(
            events_frame([activity_event("tf-001", 2)], "binary")
        )
        # Every string and the key schema are interned after frame one.
        assert len(second) < len(first) / 3


class TestInterning:
    def test_tables_persist_across_frames(self):
        encoder = BinaryEncoder()
        decoder = BinaryDecoder()
        for time in range(5):
            back = roundtrip(
                events_frame([activity_event(time=time)], "binary"),
                encoder,
                decoder,
            )
            assert back["events"][0].params["time"] == time
        assert "T_activity" in decoder.interned_strings

    def test_reset_forgets_the_tables(self):
        encoder = BinaryEncoder()
        decoder = BinaryDecoder()
        roundtrip({"k": "shared-string"}, encoder, decoder)
        # The only reset there is: discard both sides, build new ones.
        encoder = BinaryEncoder()
        decoder = BinaryDecoder()
        assert roundtrip({"k": "shared-string"}, encoder, decoder) == {
            "k": "shared-string"
        }
        assert decoder.interned_strings == ["k", "shared-string"]

    def test_stale_decoder_without_reset_misreads_refs(self):
        # Documents WHY respawn must replace both sides together: a fresh
        # encoder speaking to a stale decoder (or vice versa) is a
        # protocol error surfaced as WireError/garbage, which is exactly
        # what the worker-respawn fresh-channel rule prevents.
        encoder = BinaryEncoder()
        decoder = BinaryDecoder()
        roundtrip({"k": "v"}, encoder, decoder)
        fresh_encoder = BinaryEncoder()
        data = fresh_encoder.encode_frame({"k": "v"})
        # The stale decoder re-appends defines: tables now disagree with
        # the fresh encoder's (lengths differ), the canary of a skew.
        decoder.decode_payload(memoryview(data)[4:])
        assert len(decoder.interned_strings) != len(
            fresh_encoder._refs
        )

    def test_nested_compound_ids_agree(self):
        # Post-order id assignment: a frozenset of tuples defines the
        # member tuples first on both sides.
        inner_a = ("P-TF", "tf-001")
        inner_b = ("P-TF", "tf-002")
        outer = frozenset({inner_a, inner_b})
        encoder = BinaryEncoder()
        decoder = BinaryDecoder()
        assert roundtrip({"s": outer}, encoder, decoder) == {"s": outer}
        # Second frame: everything is refs, and they resolve correctly.
        back = roundtrip(
            {"s": outer, "a": inner_a, "b": inner_b}, encoder, decoder
        )
        assert back == {"s": outer, "a": inner_a, "b": inner_b}

    def test_unhashable_tuple_encodes_inline(self):
        value = ("key", {"nested": "dict"})
        assert roundtrip({"v": value}) == {"v": value}


class TestDecodeErrors:
    def encoded(self, frame):
        return BinaryEncoder().encode_frame(frame)[4:]

    def test_truncation_raises_wire_error_at_every_cut(self):
        payload = self.encoded(
            events_frame(
                [activity_event()],
                "binary",
            )
        )
        for cut in range(len(payload)):
            with pytest.raises(WireError):
                BinaryDecoder().decode_payload(payload[:cut])

    def test_trailing_bytes_raise(self):
        payload = self.encoded({"k": 1})
        with pytest.raises(WireError):
            BinaryDecoder().decode_payload(payload + b"\x00")

    def test_unknown_tag_raises(self):
        with pytest.raises(WireError):
            BinaryDecoder().decode_payload(bytes((200,)))

    def test_undefined_ref_raises(self):
        from repro.parallel.codec import T_DICT, T_REF

        with pytest.raises(WireError):
            BinaryDecoder().decode_payload(bytes((T_DICT, 1, T_REF, 5)))

    def test_non_dict_frame_raises(self):
        payload = bytes((1,))  # T_TRUE: a bare scalar, not a frame
        with pytest.raises(WireError):
            BinaryDecoder().decode_payload(payload)

    def test_event_with_a_non_string_type_name_raises(self):
        from repro.parallel.codec import T_EVENT, T_INT, T_NONE

        # Found by the arbitrary-bytes property: the type name of an
        # event decodes to None (or an int), not a string.
        for name in (bytes((T_NONE,)), bytes((T_INT, 10))):
            with pytest.raises(WireError):
                BinaryDecoder().decode_payload(bytes((T_EVENT,)) + name)


    @pytest.mark.parametrize("payload", DEEP_PAYLOADS)
    def test_nesting_beyond_the_stack_raises_wire_error(self, payload):
        with pytest.raises(WireError, match="RecursionError"):
            BinaryDecoder().decode_payload(payload)
        with pytest.raises(WireError, match="RecursionError"):
            BinaryDecoder().decode_payload(bytes((T_SELF,)) + payload)

    def test_encoding_beyond_the_stack_raises_wire_error(self):
        deep = []
        for __ in range(3000):
            deep = [deep]
        for encode in (BinaryEncoder().encode_frame, encode_standalone):
            with pytest.raises(WireError, match="not wire-encodable"):
                encode({"a": deep})

    def test_self_contained_tag_is_refused_past_offset_zero(self):
        inner = encode_standalone({"k": 1})[4:]
        assert inner[0] == T_SELF
        nested = bytes((T_SELF,)) + inner  # scoped inside scoped
        member = bytes((T_DICT, 1, T_STR, 1)) + b"a" + inner
        for payload in (nested, member, bytes((T_SELF,)) + member):
            with pytest.raises(WireError, match="self-contained tag"):
                BinaryDecoder().decode_payload(payload)

    def test_a_corrupt_self_contained_frame_spares_the_stream_tables(self):
        encoder, decoder = BinaryEncoder(), BinaryDecoder()
        roundtrip({"k": "v"}, encoder, decoder)
        payload = encode_standalone(events_frame([activity_event()]))[4:]
        for cut in range(len(payload)):
            with pytest.raises(WireError):
                decoder.decode_payload(payload[:cut])
        assert decoder.interned_strings == ["k", "v"]
        assert decoder.standalone_frames == 0
        assert roundtrip({"k": "v", "n": "k"}, encoder, decoder) == {
            "k": "v",
            "n": "k",
        }


class TestSelfContainedFrames:
    def test_decodes_in_any_table_state_and_defines_nothing(self):
        frame = events_frame([activity_event(time=t) for t in range(3)])
        data = encode_standalone(frame)
        assert data[4] == T_SELF
        assert int.from_bytes(data[:4], "big") == len(data) - 4
        encoder, decoder = BinaryEncoder(), BinaryDecoder()
        roundtrip(events_frame([activity_event()]), encoder, decoder)
        before = decoder.interned_strings, decoder.interned_compounds
        for reader in (BinaryDecoder(), decoder, decoder):
            back = reader.decode_payload(memoryview(data)[4:])
            assert frame_to_jsonable(back) == frame_to_jsonable(frame)
        assert (decoder.interned_strings, decoder.interned_compounds) == before
        assert decoder.standalone_frames == 2
        # The stream the decoder mirrors carries on undisturbed.
        again = roundtrip(events_frame([activity_event()]), encoder, decoder)
        assert dict(again["events"][0].params) == dict(activity_event().params)

    def test_every_call_starts_from_empty_tables(self):
        frame = events_frame([activity_event()])
        assert encode_standalone(frame) == encode_standalone(frame)
        stream = BinaryEncoder()
        stream.encode_frame(frame)
        # What interning buys a stream, a self-contained frame forgoes.
        assert len(stream.encode_frame(frame)) < len(encode_standalone(frame))

    def test_table_definitions_use_the_precomputed_small_ids(self):
        from repro.parallel import codec

        encoder = BinaryEncoder()
        encoder.encode_frame({"k": ("a", "b"), "big": 1})
        assert encoder._refs["k"] is codec._REF_CACHE[0]
        assert encoder._crefs[("a", "b")] is codec._CREF_CACHE[0]
        for table, tag in (
            (codec._INT_CACHE, codec.T_INT),
            (codec._REF_CACHE, codec.T_REF),
            (codec._CREF_CACHE, codec.T_CREF),
        ):
            shift = 1 if tag == codec.T_INT else 0
            assert len(table) == codec._SMALL
            assert all(
                table[n] == codec._ref_bytes(tag, n << shift)
                for n in (0, 1, 127, 128, codec._SMALL - 1)
            )


class TestChannelWrappers:
    def test_writer_reader_round_trip(self):
        stream = io.BytesIO()
        writer = BinaryFrameWriter(stream)
        frames = [
            events_frame([activity_event(time=t)], "binary")
            for t in range(3)
        ] + [{"kind": "stats"}]
        for frame in frames:
            writer.write(frame)
        stream.seek(0)
        reader = BinaryFrameReader(stream)
        for frame in frames:
            back = reader.read()
            assert back["kind"] == frame["kind"]
        assert reader.read() is None

    def test_unknown_codec_rejected(self):
        # ``perf/`` still spells the codec; anything but "binary" is
        # refused rather than silently ignored.
        assert events_frame([], "binary") == events_frame([])
        with pytest.raises(WireError):
            events_frame([], "json")

    def test_hello_negotiation(self):
        # One protocol byte, still checked: the hello round-trips.
        read_hello(io.BytesIO(hello_bytes()))

    def test_bad_hello_raises(self):
        stream = io.BytesIO(b"XXXX\x01")
        with pytest.raises(WireError, match="bad channel hello"):
            read_hello(stream)
        # Byte 0 is what a JSON-wire peer of an older build announced.
        for byte in (b"\x00", b"\x09"):
            with pytest.raises(WireError, match="protocol byte"):
                read_hello(io.BytesIO(HELLO_MAGIC + byte))


class TestDebugRendering:
    def test_frame_to_jsonable_matches_the_json_path(self):
        event = activity_event()
        rendered = frame_to_jsonable(events_frame([event]))
        # What a JSON-era journal holds for the same frame.
        assert rendered == {"kind": "events", "events": [event_to_wire(event)]}

    def test_frame_to_jsonable_is_json_serializable(self):
        import json

        event = activity_event(
            provenance=ProvenanceNode(
                event_id=1,
                node="p",
                kind="primitive",
                event_type="T_activity",
                logical_time=1,
                summary=("activity", "a", "x", "y"),
            )
        )
        frame = {
            "kind": "events",
            "events": [event],
            "extra": (1, frozenset({"a"})),
        }
        text = json.dumps(frame_to_jsonable(frame))
        assert "T_activity" in text
