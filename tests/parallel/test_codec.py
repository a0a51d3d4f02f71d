"""Binary codec round-trips: values, events, event runs, interning,
negotiation."""

import hashlib
import io
import sys
from types import MappingProxyType

import pytest

from repro.errors import WireError
from repro.events.canonical import CanonicalEvent, canonical_event, canonical_type
from repro.events.event import Event
from repro.events.producers import ACTIVITY_EVENT_TYPE, CONTEXT_EVENT_TYPE
from repro.observability.provenance import ProvenanceNode
from repro.parallel import codec
from repro.parallel.codec import (
    C_CONST,
    C_DICT,
    C_INT,
    C_VALUES,
    HELLO_MAGIC,
    INTERN_MAX,
    ROWS_MAX,
    ROWS_MIN,
    BinaryDecoder,
    BinaryEncoder,
    BinaryFrameReader,
    BinaryFrameWriter,
    T_DICT,
    T_FALSE,
    T_LIST,
    T_NONE,
    T_ROWS,
    T_SELF,
    T_STR,
    T_TRUE,
    T_TUPLE,
    encode_standalone,
    events_frame,
    hello_bytes,
    read_hello,
)
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

from tests.exact import as_decoded, exactly


#: A few KB of nesting run the recursive decoder out of interpreter
#: stack: ``{"a": [[[...]]]}`` 5 000 lists, tuples, bare ``CDEF`` tags deep.
DEEP_PAYLOADS = [
    b"\x0b\x01\x05\x01a" + nesting * 5000 + b"\x00"
    for nesting in (b"\x08\x01", b"\x09\x01", b"\x0e")
]


class RowwiseEncoder(BinaryEncoder):
    """Test-local: the encoder of the builds before event runs — every
    event of a list is an ``EVENT`` record.  What it writes is what those
    builds left in journals (``TestRowwiseBuilds`` holds it to bytes the
    parent commit produced)."""

    def _records(self, buf, members):
        codec._varint(buf, len(members))
        for member in members:
            self._value(buf, member)


def rowwise_standalone(frame):
    """``encode_standalone`` as the parent build ran it."""
    return RowwiseEncoder()._frame(frame, codec._SELF_HEAD)


def _text(text):
    return bytes((T_STR, len(text))) + text.encode()


def _varint(n):
    out = bytearray()
    codec._varint(out, n)
    return bytes(out)


def run_payload(rows, columns, keys=("a", "b"), lead=None):
    """A frame payload written by hand: ``{"e": [<one ROWS record>]}``
    of *rows* ``T_activity`` rows under the key schema *keys*, the
    record's columns being *columns* verbatim.  *lead* replaces the
    ``LIST`` header (a run where no list is)."""
    lead = bytes((T_LIST, 1)) if lead is None else lead
    return (
        bytes((T_DICT, 1)) + _text("e") + lead + bytes((T_ROWS,))
        + _text("T_activity")
        + bytes((T_TUPLE, len(keys))) + b"".join(map(_text, keys))
        + _varint(rows) + columns
    )


NONE_COLUMN = bytes((C_CONST, T_NONE))

#: name -> a payload holding a corrupt ``ROWS`` record (three rows, two
#: columns unless said otherwise).  All must end in ``WireError``: on a
#: decoder, in a journal (the torn point), on a channel (that channel).
HOSTILE_RUNS = {
    "truncated column": run_payload(3, bytes((C_INT, 1, 1, 0, 2))),
    # A column's length is the record's row count, so columns cannot
    # disagree; one byte per row under a two-byte width code swallows
    # the column behind it and runs off the end.
    "columns of disagreeing length": run_payload(
        3, bytes((C_INT, 1, 1, 2, 3)) + NONE_COLUMN
    ),
    "id past the table": run_payload(
        3, bytes((C_DICT, 2, T_TRUE, T_FALSE, 0, 0, 1, 2)) + NONE_COLUMN
    ),
    "empty table": run_payload(3, bytes((C_DICT, 0, 0, 0, 0, 0)) + NONE_COLUMN),
    "unknown column kind": run_payload(3, bytes((9,)) + NONE_COLUMN),
    "unknown width code": run_payload(3, bytes((C_INT, 8, 1, 2, 3)) + NONE_COLUMN),
    "id width that is no id width": run_payload(
        3, bytes((C_DICT, 1, T_TRUE, 4, 0, 0, 0)) + NONE_COLUMN
    ),
    "row count past the cap": run_payload(ROWS_MAX + 1, NONE_COLUMN * 2),
    "astronomic row count": run_payload(1 << 60, NONE_COLUMN * 2),
    "a run where no list is": run_payload(3, NONE_COLUMN * 2, lead=b""),
    "key schema that is no tuple": (
        bytes((T_DICT, 1)) + _text("e") + bytes((T_LIST, 1, T_ROWS))
        + _text("T_activity") + _text("a") + _varint(3) + NONE_COLUMN
    ),
    "unknown event type": run_payload(3, NONE_COLUMN * 2).replace(
        b"T_activity", b"T_nonesuch"
    ),
}


#: Pairs ``==`` folds and the wire must not.
CONFUSABLE = [
    (1, "a"),
    (True, "a"),
    (1.0, "a"),
    frozenset({0}),
    frozenset({False}),
    (0.0,),
    (-0.0,),
    ((1,), "n"),
    ((True,), "n"),
    frozenset({(0, "x")}),
    frozenset({(0.0, "x")}),
]


def stream_events(count, forces=4):
    """The head of the seeded ``T_context`` stream: the hot run shape."""
    events = ShardStreamWorkload(
        ShardStreamConfig(
            forces=forces,
            windows_per_force=1,
            events_per_force=max(2, -(-count // forces)),
        )
    ).events()
    return events[:count]


def leaf():
    return ProvenanceNode(
        event_id=1,
        node="producer",
        kind="primitive",
        event_type="T_activity",
        logical_time=41,
        summary=("activity", "act-1", "Running", "Completed"),
    )


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
            assert exactly(back, as_decoded(frame))
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
        # A compound entry also keeps the value that defined it, for the
        # type-exact check of a later hit.
        ref, defined = encoder._crefs[("a", "b")]
        assert ref is codec._CREF_CACHE[0] and defined == ("a", "b")
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


class TestTypeExactInterning:
    """``==`` folds ``1`` / ``True`` / ``1.0`` and ``0.0`` / ``-0.0``; the
    tables (and a run's column dictionaries) must not."""

    def test_equal_compounds_of_other_types_keep_their_types(self):
        frame = {"values": CONFUSABLE, "again": CONFUSABLE[::-1]}
        encoder, decoder = BinaryEncoder(), BinaryDecoder()
        for __ in range(2):  # defining frame, then all-refs frame
            assert exactly(roundtrip(frame, encoder, decoder), frame)
        assert exactly(
            BinaryDecoder().decode_payload(encode_standalone(frame)[4:]), frame
        )

    def test_the_first_comer_keeps_the_table_slot(self):
        encoder, decoder = BinaryEncoder(), BinaryDecoder()
        roundtrip({"v": [(1, "a"), (True, "a"), (1, "a")]}, encoder, decoder)
        # One definition; the bool twin travelled inline both times.
        assert decoder.interned_compounds == [(1, "a")]
        assert type(decoder.interned_compounds[0][0]) is int
        back = roundtrip({"v": [(True, "a"), (1, "a")]}, encoder, decoder)
        assert exactly(back, {"v": [(True, "a"), (1, "a")]})
        assert len(decoder.interned_compounds) == 1

    @pytest.mark.parametrize("size", [1, ROWS_MIN - 1, ROWS_MIN, 40])
    def test_inside_events_as_rows_and_as_a_run(self, size):
        values = CONFUSABLE + [1, True, 1.0, 0, False, 0.0, -0.0, None]
        events = [
            Event.trusted(
                ACTIVITY_EVENT_TYPE,
                {
                    "time": index,
                    "source": "E_activity",
                    "newValue": values[index % len(values)],
                    "oldValue": values[-1 - index % len(values)],
                    "flag": index % 3 == 0 if index % 2 else index % 3,
                },
            )
            for index in range(size)
        ]
        for encode in (BinaryEncoder().encode_frame, encode_standalone):
            back = BinaryDecoder().decode_payload(encode(events_frame(events))[4:])
            assert exactly(back["events"], events)

    def test_a_column_of_ints_and_bools_is_no_int_array(self):
        columns = {
            "mixed": [1, True] * 8,
            "zeros": [0, False] * 8,
            "ones": [1] * 15 + [True],
            "floats": [1, 1.0] * 8,
            "signs": [0.0, -0.0] * 8,
            "bools": [True, False] * 8,
        }
        events = [
            Event.trusted(
                ACTIVITY_EVENT_TYPE,
                {"time": 1, "source": "s", **{k: v[i] for k, v in columns.items()}},
            )
            for i in range(16)
        ]
        back = roundtrip(events_frame(events))["events"]
        assert exactly(back, events)
        assert [e["mixed"] for e in back[:2]] == [1, True]
        assert type(back[0]["mixed"]) is int and back[1]["mixed"] is True


class TestEventRuns:
    def rows_calls(self, monkeypatch):
        """Row counts of the ``ROWS`` records the encoder writes."""
        calls = []
        real = BinaryEncoder._rows

        def counted(encoder, buf, events, keys):
            calls.append(len(events))
            return real(encoder, buf, events, keys)

        monkeypatch.setattr(BinaryEncoder, "_rows", counted)
        return calls

    def test_a_uniform_wave_is_one_record(self, monkeypatch):
        calls = self.rows_calls(monkeypatch)
        events = stream_events(128)
        encoder, decoder = BinaryEncoder(), BinaryDecoder()
        first = encoder.encode_frame(events_frame(events))
        back = decoder.decode_payload(first[4:])["events"]
        assert calls == [128]
        assert exactly(back, events)
        assert all(e.event_type is CONTEXT_EVENT_TYPE for e in back)
        assert list(back[0].params)[-1] == "type"
        # Steady state: a third of the row-wise bytes, or less.
        again = encoder.encode_frame(events_frame(events))
        rowwise = RowwiseEncoder()
        rowwise.encode_frame(events_frame(events))
        assert len(again) * 3 < len(rowwise.encode_frame(events_frame(events)))
        assert exactly(decoder.decode_payload(again[4:])["events"], events)

    def test_short_stretches_stay_row_wise(self, monkeypatch):
        calls = self.rows_calls(monkeypatch)
        for size in (1, 2, ROWS_MIN - 1):
            events = stream_events(size)
            data = BinaryEncoder().encode_frame(events_frame(events))
            assert data == RowwiseEncoder().encode_frame(events_frame(events))
            assert exactly(
                BinaryDecoder().decode_payload(data[4:])["events"], events
            )
        assert calls == []
        roundtrip(events_frame(stream_events(ROWS_MIN)))
        assert calls == [ROWS_MIN]

    def test_a_mixed_list_keeps_its_order(self, monkeypatch):
        calls = self.rows_calls(monkeypatch)
        context = stream_events(30)
        activity = [activity_event(time=t) for t in range(12)]
        reordered = [
            Event.trusted(
                ACTIVITY_EVENT_TYPE, dict(reversed(list(e.params.items())))
            )
            for e in activity
        ]
        optional = [
            Event.trusted(
                ACTIVITY_EVENT_TYPE,
                {k: v for k, v in e.params.items() if k != "oldValue"},
            )
            for e in activity
        ]
        stamped = activity_event(time=99, provenance=leaf())
        members = (
            context[:10]
            + activity
            + [stamped]
            + reordered
            + context[10:12]  # too short for a run
            + [7, "text", None, (1, 2)]
            + optional
            + context[12:]
        )
        for encode in (BinaryEncoder().encode_frame, encode_standalone):
            del calls[:]
            back = BinaryDecoder().decode_payload(
                encode({"kind": "events", "events": members})[4:]
            )["events"]
            assert calls == [10, 12, 12, 12, 18]
            events = [m for m in members if isinstance(m, Event)]
            others = [m for m in members if not isinstance(m, Event)]
            assert exactly(
                [m for m in back if isinstance(m, Event)],
                list(map(as_decoded, events)),
            )
            assert exactly([m for m in back if not isinstance(m, Event)], others)
            assert [type(m) for m in back] == [type(m) for m in members]
            assert exactly(back[22].provenance, leaf())

    def test_events_anywhere_in_a_list_find_their_run(self, monkeypatch):
        calls = self.rows_calls(monkeypatch)
        members = ["head", *stream_events(ROWS_MIN), "tail"]
        back = roundtrip({"kind": "x", "members": members})["members"]
        assert calls == [ROWS_MIN]
        assert exactly(back, members)

    def test_column_kinds(self):
        """One column of each kind, by the bytes it takes."""

        def column_bytes(values):
            buf = bytearray()
            BinaryEncoder()._column(buf, tuple(values))
            return bytes(buf)

        assert column_bytes([5] * 9) == bytes((C_CONST, 3, 10))
        assert column_bytes([None] * 9) == bytes((C_CONST, T_NONE))
        assert column_bytes([1, 2, 255]) == bytes((C_INT, 0, 1, 2, 255))
        assert column_bytes([1, 2, 256]) == bytes((C_INT, 1, 1, 0, 2, 0, 0, 1))
        assert column_bytes([0, 1 << 16])[:2] == bytes((C_INT, 2))
        assert column_bytes([0, 1 << 32])[:2] == bytes((C_INT, 3))
        assert column_bytes([-1, 1]) == bytes((C_INT, 4, 255, 1))
        assert column_bytes([-129, 1])[:2] == bytes((C_INT, 5))
        assert column_bytes([-(1 << 31) - 1, 1])[:2] == bytes((C_INT, 7))
        assert column_bytes([(1 << 64) - 1, 0])[:2] == bytes((C_INT, 3))
        # Past 64 bits either way: the values, one by one.
        assert column_bytes([1 << 64, 0])[0] == C_VALUES
        assert column_bytes([-(1 << 63) - 1, 0])[0] == C_VALUES
        assert column_bytes(["a", "b", "a"]) == (
            bytes((C_DICT, 2)) + b"\x06\x01a\x06\x01b" + bytes((0, 0, 1, 0))
        )
        assert column_bytes(["a", None, "a"])[:2] == bytes((C_DICT, 2))
        wide = [f"v{index % 300}" for index in range(600)]
        assert column_bytes(wide)[:3] == bytes((C_DICT, 0xAC, 0x02))
        assert column_bytes(wide)[-1201] == 1  # two-byte ids
        # All distinct, or unhashable: nothing to fold.
        assert column_bytes(["a", "b", "c"])[0] == C_VALUES
        assert column_bytes([[1], [1], [1]])[0] == C_VALUES
        assert column_bytes([{"k": 1}, {"k": True}])[0] == C_VALUES
        same = [1]
        assert column_bytes([same, same, same])[0] == C_CONST

    def test_every_int_width_round_trips(self):
        edges = [0, 1, 255, 256, 65535, 65536, (1 << 32) - 1, 1 << 32]
        edges += [(1 << 63) - 1, 1 << 63, (1 << 64) - 1, 1 << 64, 1 << 80]
        edges += [-value for value in edges] + [-(1 << 63) - 1]
        for low in edges:
            for high in edges:
                events = [
                    Event.trusted(
                        ACTIVITY_EVENT_TYPE,
                        {"time": low if index % 2 else high, "source": "s"},
                    )
                    for index in range(ROWS_MIN)
                ]
                back = roundtrip(events_frame(events))["events"]
                assert exactly(back, events), (low, high)

    def test_long_strings_and_unhashable_values_ride_in_a_run(self):
        long = "x" * (INTERN_MAX + 1)
        events = [
            Event.trusted(
                ACTIVITY_EVENT_TYPE,
                {
                    "time": index,
                    "source": long,
                    "newValue": long if index % 2 else "short",
                    "oldValue": {"nested": [index % 2, (1, [2])]},
                    "unique": f"id-{index}",
                },
            )
            for index in range(20)
        ]
        encoder, decoder = BinaryEncoder(), BinaryDecoder()
        for __ in range(2):
            back = roundtrip(events_frame(events), encoder, decoder)
            assert exactly(back["events"], events)
        assert long not in decoder.interned_strings

    def test_a_long_stretch_is_split_at_the_cap(self, monkeypatch):
        calls = self.rows_calls(monkeypatch)
        monkeypatch.setattr(codec, "ROWS_MAX", 10)
        events = stream_events(35)
        data = BinaryEncoder().encode_frame(events_frame(events))
        assert calls == [10, 10, 10, 5]
        assert exactly(BinaryDecoder().decode_payload(data[4:])["events"], events)
        # The decoder holds the same line: what was legal at 35 is not at 9.
        monkeypatch.setattr(codec, "ROWS_MAX", 9)
        with pytest.raises(WireError, match="exceeds 9"):
            BinaryDecoder().decode_payload(data[4:])

    def test_rows_cost_no_bytes_when_every_column_is_constant(self):
        # Which is why the row count has a cap of its own.
        payload = run_payload(ROWS_MAX, NONE_COLUMN * 2)
        assert len(payload) < 40
        events = BinaryDecoder().decode_payload(payload)["e"]
        assert len(events) == ROWS_MAX
        assert dict(events[-1].params) == {"a": None, "b": None, "type": "T_activity"}

    def test_a_hand_written_run_decodes(self):
        payload = run_payload(
            3,
            bytes((C_INT, 1, 1, 0, 2, 0, 3, 1))
            + bytes((C_DICT, 2, T_TRUE, T_NONE, 0, 1, 0, 1)),
            keys=("a", "type", "b"),
        )
        events = BinaryDecoder().decode_payload(payload)["e"]
        assert [dict(e.params) for e in events] == [
            {"a": 1, "b": None, "type": "T_activity"},
            {"a": 2, "b": True, "type": "T_activity"},
            {"a": 259, "b": None, "type": "T_activity"},
        ]
        assert all(e.event_type is ACTIVITY_EVENT_TYPE for e in events)
        assert all(e.provenance is None for e in events)


class TestHostileRuns:
    @pytest.mark.parametrize("name", sorted(HOSTILE_RUNS))
    def test_a_corrupt_run_raises_wire_error(self, name):
        payload = HOSTILE_RUNS[name]
        for data in (payload, bytes((T_SELF,)) + payload, memoryview(payload)):
            with pytest.raises(WireError):
                BinaryDecoder().decode_payload(data)

    def test_the_cap_is_checked_before_anything_is_built(self):
        with pytest.raises(WireError, match=f"exceeds {ROWS_MAX}"):
            BinaryDecoder().decode_payload(HOSTILE_RUNS["astronomic row count"])

    def test_a_bare_run_is_no_frame(self):
        record = run_payload(3, NONE_COLUMN * 2)
        bare = record[record.index(bytes((T_ROWS,))):]
        with pytest.raises(WireError, match="event run outside a list"):
            BinaryDecoder().decode_payload(bare)

    def test_truncation_raises_wire_error_at_every_cut(self):
        events = stream_events(24) + [activity_event(time=t) for t in range(9)]
        for encode in (BinaryEncoder().encode_frame, encode_standalone):
            payload = encode(events_frame(events))[4:]
            for cut in range(len(payload)):
                with pytest.raises(WireError):
                    BinaryDecoder().decode_payload(payload[:cut])

    def test_a_flipped_byte_never_escapes_as_another_error(self):
        payload = bytearray(encode_standalone(events_frame(stream_events(16)))[4:])
        for position in range(len(payload)):
            for flip in (0x01, 0x80, 0xFF):
                mangled = bytearray(payload)
                mangled[position] ^= flip
                try:
                    BinaryDecoder().decode_payload(bytes(mangled))
                except WireError:
                    pass


def mapping_backed(event_type, params):
    """Test-local: an event holding its parameter mapping whatever its
    type, as ``C_P`` events were held before they became records."""
    event = object.__new__(Event)
    event._event_type = event_type
    event._params = MappingProxyType(dict(params))
    event.provenance = None
    return event


def records(n, instance="tf-001"):
    """*n* ``C_P`` records as the filters build them."""
    return [
        canonical_event(
            "P-TF",
            instance,
            time=time,
            source="f0",
            int_info=time,
            description=f"context 'Ctx' field 'Deadline' = {time!r}",
            source_event={"time": time, "type": "T_context"},
        )
        for time in range(n)
    ]


class TestCanonicalRecords:
    """A ``C_P`` record travels as its parameter mapping: the bytes a
    mapping-backed event of the same parameters writes, and back as a
    record."""

    @pytest.mark.parametrize("n", [1, ROWS_MIN - 1, ROWS_MIN, 3 * ROWS_MIN])
    def test_a_record_writes_the_bytes_of_a_mapping_backed_event(self, n):
        events = records(n)
        twins = [mapping_backed(e.event_type, e.params) for e in events]
        leaf = ProvenanceNode(1, "f0", "primitive", "T_context", 0, "")
        events[0].provenance = twins[0].provenance = leaf
        for frame in ({"e": events[0]}, events_frame(events)):
            twin = {"e": twins[0]} if "e" in frame else events_frame(twins)
            assert encode_standalone(frame) == encode_standalone(twin)
            encoder, twin_encoder = BinaryEncoder(), BinaryEncoder()
            for __ in range(2):  # a frame that defines, then one that refers
                assert encoder.encode_frame(frame) == twin_encoder.encode_frame(twin)

    def test_a_record_of_its_own_shape_writes_that_shape(self):
        ctype = canonical_type("P-TF")
        params = {"type": ctype.name, "time": 4, "source": "app"}
        params |= {"processInstanceId": "tf-1", "processSchemaId": "P-TF"}
        event = Event(ctype, params)
        assert type(event) is CanonicalEvent
        assert list(event.params) == list(params)
        twin = mapping_backed(ctype, params)
        assert encode_standalone({"e": event}) == encode_standalone({"e": twin})
        back = BinaryDecoder().decode_payload(encode_standalone({"e": event})[4:])["e"]
        assert type(back) is CanonicalEvent
        # As any event decodes: ``type`` last, every other key in order.
        assert exactly(back, as_decoded(event))

    @pytest.mark.parametrize("n", [1, ROWS_MIN, 3 * ROWS_MIN])
    def test_records_decode_to_records(self, n):
        events = records(n, instance="tf-002")
        for encode in (BinaryEncoder().encode_frame, encode_standalone):
            back = BinaryDecoder().decode_payload(encode(events_frame(events))[4:])["events"]
            assert all(type(e) is CanonicalEvent for e in back)
            assert exactly(back, as_decoded(events))
            assert [e.intInfo for e in back] == list(range(n))
            assert [e.processInstanceId for e in back] == ["tf-002"] * n

    @pytest.mark.parametrize("n", [1, ROWS_MIN])
    def test_an_undeclared_parameter_is_a_wire_error(self, n):
        ctype = canonical_type("P-TF")
        hostile = [mapping_backed(ctype, dict(e.params, stray=1)) for e in records(n)]
        payload = encode_standalone(events_frame(hostile))[4:]
        with pytest.raises(WireError, match="declares no parameter 'stray'"):
            BinaryDecoder().decode_payload(payload)


class TestRowwiseBuilds:
    """What the builds before event runs wrote still reads."""

    #: ``encode_standalone(FRAME)`` as the parent commit produced it.
    PARENT_STANDALONE = bytes.fromhex(
        "000001be100b0306046b696e6406066576656e7473070108090c0609545f636f"
        "6e746578740e0909060474696d650606736f757263650609636f6e7465787449"
        "64060b636f6e746578744e616d65061370726f636573734173736f6369617469"
        "6f6e7306096669656c644e616d65060d6f6c644669656c6456616c7565060d6e"
        "65774669656c6456616c756506047479706503020609455f636f6e7465787406"
        "0a6374782d74662d303030060f5461736b466f7263654374783030300e0a010e"
        "09020609502d53686172645446060674662d3030300608446561646c696e6503"
        "000302000c07020f000304070c060a6374782d74662d303031060f5461736b46"
        "6f7263654374783030310e0a010e0902070f060674662d303031071103000302"
        "000c07020f000306070c071207130f04071103020304000c07020f000308070c"
        "070d070e0f02071103020304000c07020f00030a070c070d070e0f0207110304"
        "0306000c07020f00030c070c071207130f04071103040306000c07020f00030e"
        "070c070d070e0f02071103060308000c07020f000310070c071207130f040711"
        "03060308000c07020f000312070c070d070e0f0207110308030a000603736571"
        "030e"
    )
    #: sha256 of the parent's first two stream frames of ``FRAME``.
    PARENT_STREAM_SHA = (
        "fef3e51be21b18d9683d88dfcb45c0e3c0842900da526227bcf4271ab76858a3"
    )

    def frame(self):
        events = ShardStreamWorkload(
            ShardStreamConfig(forces=2, events_per_force=8)
        ).events()[:9]
        return dict(events_frame(events), seq=7)

    def test_the_test_local_encoder_writes_the_parents_bytes(self):
        frame = self.frame()
        assert rowwise_standalone(frame) == self.PARENT_STANDALONE
        stream = RowwiseEncoder()
        digest = hashlib.sha256(
            stream.encode_frame(frame) + stream.encode_frame(frame)
        )
        assert digest.hexdigest() == self.PARENT_STREAM_SHA

    def test_the_parents_bytes_decode_to_the_same_events(self):
        frame = self.frame()
        decoder = BinaryDecoder()
        old = decoder.decode_payload(self.PARENT_STANDALONE[4:])
        new = decoder.decode_payload(encode_standalone(frame)[4:])
        assert exactly(old, new) and exactly(new["events"], frame["events"])
        assert len(encode_standalone(frame)) < len(self.PARENT_STANDALONE)

    def test_rows_and_runs_share_one_stream(self):
        # An upgraded facade keeps a channel's tables: row-wise frames
        # and run frames define and use the same ids.
        frame = self.frame()
        encoder, decoder = RowwiseEncoder(), BinaryDecoder()
        assert exactly(roundtrip(frame, encoder, decoder), frame)
        encoder.__class__ = BinaryEncoder
        assert exactly(roundtrip(frame, encoder, decoder), frame)


class TestRunCallBudget:
    """Count-based pin (no wall clock): Python-level calls
    (``sys.setprofile`` ``call`` events — interpreter frames, not C
    builtins; the codec's own, so a ``gc`` callback some plugin hooked
    is not counted) to encode and to decode one uniform frame do not
    grow with its length: per-event work is ``map`` / ``zip`` /
    ``array``, and the decoder builds its events in one loop, no call
    each."""

    def python_calls(self, fn):
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename == codec.__file__:
                calls += 1

        sys.setprofile(profiler)
        try:
            result = fn()
        finally:
            sys.setprofile(None)
        return calls, result

    def budget(self, size):
        # Enough forces that every batch holds every distinct value.
        frame = events_frame(stream_events(size, forces=4))
        encoder, decoder = BinaryEncoder(), BinaryDecoder()
        decoder.decode_payload(encoder.encode_frame(frame)[4:])  # warm tables
        encode_calls, data = self.python_calls(lambda: encoder.encode_frame(frame))
        decode_calls, back = self.python_calls(
            lambda: decoder.decode_payload(memoryview(data)[4:])
        )
        assert exactly(back["events"], frame["events"])
        return encode_calls, decode_calls

    def test_a_uniform_frame_costs_the_same_calls_at_any_length(self):
        small, large = self.budget(128), self.budget(1024)
        assert small == large
        # A handful per column (eight of them), none per event.
        assert small[0] <= 80 and small[1] <= 50

    def test_the_row_path_it_replaces_pays_per_event(self):
        frame = events_frame(stream_events(128))
        encoder = RowwiseEncoder()
        encoder.encode_frame(frame)
        calls, __ = self.python_calls(lambda: encoder.encode_frame(frame))
        assert calls > 128 * 8


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

