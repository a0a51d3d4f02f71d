"""Property tests for the binary codec (Hypothesis).

Five invariants, fuzzed:

* **round-trip** — any frame built from wire-encodable values (nested
  tuples, frozensets, ``$``-prefixed keys included) decodes to the same
  value — compared type for type and key order for key order
  (:func:`tests.exact.exactly`; ``==`` cannot tell ``1``
  from ``True`` from ``1.0``) — across multi-frame streams and
  fresh-pair boundaries;
* **event runs** — any list of events (uniform waves, two types
  interleaved, key orders and optional keys that differ, a provenance
  carrier in the middle, columns that mix ``bool`` / ``int`` / ``float``,
  wide and negative ints, ``None``, unhashable and over-long values)
  comes back event for event, as a stream frame and self-contained,
  interleaved on one decoder;
* **every frame kind** — the protocol frames the worker channel and the
  journal actually carry survive the codec unchanged;
* **self-contained frames** — stream-interned and self-contained frames
  interleave through one decoder in any order; a self-contained frame's
  bytes decode the same whatever the decoder has seen and leave its
  stream tables alone;
* **corruption safety** — truncated or torn payloads raise
  :class:`~repro.errors.WireError`, never ``IndexError`` or another
  crash.
"""

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import WireError
from repro.events.event import Event
from repro.events.producers import ACTIVITY_EVENT_TYPE, CONTEXT_EVENT_TYPE
from repro.parallel.codec import (
    INTERN_MAX,
    ROWS_MIN,
    T_SELF,
    BinaryDecoder,
    BinaryEncoder,
    encode_standalone,
)

from tests.exact import as_decoded, exactly
from tests.parallel.test_codec import CONFUSABLE, leaf, run_payload

SELF = bytes((T_SELF,))

# Floats are restricted to non-NaN (NaN != NaN breaks equality-based
# round-trip assertions; the codec itself carries NaN fine).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.floats(allow_nan=False),
    st.text(max_size=80),
)

# Keys include "$fs" / "$t" / "$d" lookalikes: the binary codec needs no
# escaping, so they must pass through verbatim.
keys = st.one_of(
    st.text(max_size=20),
    st.sampled_from(["$fs", "$t", "$d", "$", "type", "params"]),
)


# Frozenset members must be hashable: nested tuples/frozensets of
# scalars only.
hashables = st.recursive(
    scalars,
    lambda child: st.one_of(
        st.tuples(child, child), st.frozensets(child, max_size=4)
    ),
    max_leaves=8,
)


def _extend(children):
    return st.one_of(
        st.lists(children, max_size=4),
        # Tuples may hold unhashable members (a list, a dict) — the
        # encoder must fall back to inline encoding there.
        st.tuples(children, children),
        st.frozensets(hashables, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    )


values = st.recursive(scalars, _extend, max_leaves=12)

frames = st.dictionaries(keys, values, max_size=5)


def _roundtrip(encoder, decoder, frame):
    data = encoder.encode_frame(frame)
    return decoder.decode_payload(memoryview(data)[4:])


@settings(max_examples=60, deadline=None)
@given(frames)
@example({"values": CONFUSABLE, "again": CONFUSABLE[::-1]})
def test_single_frame_round_trip(frame):
    assert exactly(_roundtrip(BinaryEncoder(), BinaryDecoder(), frame), frame)


@settings(max_examples=30, deadline=None)
@given(st.lists(frames, min_size=1, max_size=5))
def test_stream_round_trip_shares_tables(stream):
    encoder = BinaryEncoder()
    decoder = BinaryDecoder()
    for frame in stream:
        assert exactly(_roundtrip(encoder, decoder, frame), frame)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(frames, min_size=1, max_size=3),
    st.lists(frames, min_size=1, max_size=3),
)
def test_reset_boundary_keeps_streams_decodable(before, after):
    # Respawn/compaction/reopen: the only reset is a fresh pair, both
    # sides replaced together.
    encoder = BinaryEncoder()
    decoder = BinaryDecoder()
    for frame in before:
        assert exactly(_roundtrip(encoder, decoder, frame), frame)
    encoder = BinaryEncoder()
    decoder = BinaryDecoder()
    for frame in after:
        assert exactly(_roundtrip(encoder, decoder, frame), frame)


#: More examples under a loaded profile that asks for them (``soak``).
PROFILE_EXAMPLES = settings.default.max_examples
INTERLEAVINGS = PROFILE_EXAMPLES if PROFILE_EXAMPLES > 100 else 40


def _tables(decoder):
    return decoder.interned_strings, decoder.interned_compounds


@settings(max_examples=INTERLEAVINGS, deadline=None)
@given(st.data())
def test_self_contained_frames_interleave_with_a_stream(data):
    # Declared below, drawn here: generic frames and every protocol kind.
    stream = data.draw(
        st.lists(
            st.tuples(st.booleans(), st.one_of(frames, protocol_frames)),
            min_size=1,
            max_size=8,
        ),
        "(self-contained?, frame)",
    )
    encoder = BinaryEncoder()
    decoder = BinaryDecoder()
    standalone = []
    for alone, frame in stream:
        before = _tables(decoder)
        if alone:
            payload = memoryview(encode_standalone(frame))[4:]
            standalone.append((payload, frame))
        else:
            payload = memoryview(encoder.encode_frame(frame))[4:]
        back = decoder.decode_payload(payload)
        assert exactly(back, as_decoded(frame))
        if alone:
            assert _tables(decoder) == before
    # The same bytes again: fresh decoder, mid-stream decoder, after
    # other self-contained frames — one answer, no table moved.
    settled = _tables(decoder)
    for payload, frame in standalone + standalone[::-1]:
        for reader in (BinaryDecoder(), decoder):
            back = reader.decode_payload(payload)
            assert exactly(back, as_decoded(frame))
    assert _tables(decoder) == settled
    assert decoder.standalone_frames == 3 * len(standalone)


# -- event lists ---------------------------------------------------------------

#: Column flavours: what one parameter holds down a stretch of events.
#: Few distinct values each, so columns fold, stay constant or mix types.
column_values = st.one_of(
    st.sampled_from(
        [
            [0, 1, 2, 255],
            [-1, 0, 300, 70000, -70000],
            [1 << 40, -(1 << 40), (1 << 63) - 1, -(1 << 63)],
            [1 << 64, -(1 << 64), 1 << 70, 5],
            [True, False],
            [0, False, 1, True],
            [1, 1.0, 2, 2.5],
            [0.0, -0.0],
            [None],
            [None, "a"],
            ["E_context"],
            ["a", "b", "c"],
            ["x" * (INTERN_MAX + 1), "y" * (INTERN_MAX + 1)],
            [[1], [1], {"k": [2]}, ("t", [3])],
        ]
        + [CONFUSABLE]
    ),
    st.lists(hashables, min_size=1, max_size=3),
    st.lists(scalars, min_size=1, max_size=3),
)

param_names = ["time", "source", "a", "b", "c", "type"]

stretch_sizes = st.sampled_from(
    [1, 2, ROWS_MIN - 1, ROWS_MIN, ROWS_MIN + 1, 3 * ROWS_MIN]
)


@st.composite
def stretches(draw):
    """Events of one type and one key schema; now and then one of them
    carries provenance, or drops a key, or lists its keys backwards."""
    event_type = draw(st.sampled_from([ACTIVITY_EVENT_TYPE, CONTEXT_EVENT_TYPE]))
    names = draw(st.permutations(param_names))[: draw(st.integers(1, 6))]
    columns = {name: draw(column_values) for name in names if name != "type"}
    size = draw(stretch_sizes)
    odd = draw(st.sampled_from(["none", "provenance", "fewer keys", "reversed"]))
    odd_at = draw(st.integers(0, size - 1))
    picks = draw(
        st.lists(st.integers(0, 7), min_size=size * len(names), max_size=size * len(names))
    )
    events = []
    for row in range(size):
        params = {}
        for position, name in enumerate(names):
            if name == "type":
                params["type"] = event_type.name
            else:
                values = columns[name]
                pick = picks[row * len(names) + position]
                params[name] = values[pick % len(values)]
        if row == odd_at and odd == "fewer keys":
            params.pop(next(iter(params)))
        if row == odd_at and odd == "reversed":
            params = dict(reversed(list(params.items())))
        event = Event.trusted(event_type, params)
        if row == odd_at and odd == "provenance":
            event.provenance = leaf()
        events.append(event)
    return events


event_lists = st.lists(stretches(), min_size=1, max_size=3).map(
    lambda parts: [event for part in parts for event in part]
)


@settings(max_examples=INTERLEAVINGS, deadline=None)
@given(st.lists(st.tuples(st.booleans(), event_lists), min_size=1, max_size=4))
def test_event_lists_round_trip_event_for_event(stream):
    encoder = BinaryEncoder()
    decoder = BinaryDecoder()
    for alone, events in stream:
        frame = {"kind": "events", "events": events, "seq": len(events)}
        encode = encode_standalone if alone else encoder.encode_frame
        data = encode(frame)
        back = decoder.decode_payload(memoryview(data)[4:])
        assert exactly(back["events"], list(map(as_decoded, events)))
        assert exactly(
            {k: v for k, v in back.items() if k != "events"},
            {"kind": "events", "seq": len(events)},
        )
        if alone:
            # The same bytes under a decoder that has seen nothing.
            again = BinaryDecoder().decode_payload(data[4:])
            assert exactly(again["events"], back["events"])


@settings(max_examples=30, deadline=None)
@given(event_lists, st.booleans(), st.data())
def test_truncated_event_list_raises_wire_error(events, alone, data):
    encode = encode_standalone if alone else BinaryEncoder().encode_frame
    payload = encode({"kind": "events", "events": events})[4:]
    cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    with pytest.raises(WireError):
        BinaryDecoder().decode_payload(payload[:cut])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.binary(max_size=120))
def test_arbitrary_columns_never_crash(rows, garbage):
    # A well-formed record header, then whatever: decodes, or WireError.
    payload = run_payload(rows, garbage, keys=("a", "b", "c"))
    for data in (payload, SELF + payload):
        try:
            events = BinaryDecoder().decode_payload(data)["e"]
        except WireError:
            continue
        assert len(events) == rows


@settings(max_examples=30, deadline=None)
@given(frames, st.data())
def test_truncated_payload_raises_wire_error(frame, data):
    payload = BinaryEncoder().encode_frame(frame)[4:]
    cut = data.draw(st.integers(min_value=0, max_value=max(len(payload) - 1, 0)))
    with pytest.raises(WireError):
        BinaryDecoder().decode_payload(payload[:cut])


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=200))
def test_arbitrary_bytes_never_crash(garbage):
    # Fuzzed payloads either decode (to *something* dict-shaped) or
    # raise WireError; any other exception is a bug.  Led by the
    # self-contained tag they also leave the stream tables alone.
    decoder = BinaryDecoder()
    tables = None
    for payload in (garbage, SELF + garbage):
        try:
            decoder.decode_payload(payload)
        except WireError:
            pass
        assert tables is None or _tables(decoder) == tables
        tables = _tables(decoder)  # whatever the plain garbage defined


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(
            [
                "time",
                "source",
                "activityInstanceId",
                "activityVariableId",
                "parentProcessSchemaId",
                "parentProcessInstanceId",
                "oldValue",
                "newValue",
            ]
        ),
        st.one_of(
            st.text(max_size=30),
            st.integers(min_value=0, max_value=1 << 40),
            st.tuples(st.text(max_size=10), st.text(max_size=10)),
            st.frozensets(
                st.tuples(st.text(max_size=8), st.text(max_size=8)),
                max_size=3,
            ),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_event_payload_round_trip(params):
    event = Event.trusted(ACTIVITY_EVENT_TYPE, params)
    encoder = BinaryEncoder()
    decoder = BinaryDecoder()
    frame = {"kind": "events", "events": [event, event]}
    back = _roundtrip(encoder, decoder, frame)
    for got in back["events"]:
        assert got.event_type is ACTIVITY_EVENT_TYPE
        assert dict(got.params) == dict(event.params)
    # Steady state: the same event again, now fully interned.
    again = _roundtrip(encoder, decoder, frame)
    assert dict(again["events"][0].params) == dict(event.params)


# Every frame kind the worker channel and journal actually carry.
protocol_frames = st.one_of(
    st.builds(
        lambda n: {
            "kind": "events",
            "events": [
                Event.trusted(
                    ACTIVITY_EVENT_TYPE, {"time": n, "source": "E_activity"}
                )
            ],
            "trace": ["t" * 16, "s" * 8, 1],
        },
        st.integers(min_value=0, max_value=1000),
    ),
    st.builds(
        lambda sid: {"kind": "deploy", "spec": {"spec_id": sid, "plan": [1]}},
        st.text(min_size=1, max_size=10),
    ),
    st.builds(lambda sid: {"kind": "undeploy", "spec_id": sid}, st.text()),
    st.just({"kind": "stats"}),
    st.just({"kind": "flush"}),
    st.just({"kind": "snapshot"}),
    st.builds(
        lambda state: {"kind": "restore", "state": state},
        st.dictionaries(st.text(max_size=8), st.integers(), max_size=3),
    ),
    st.just({"kind": "shutdown"}),
    st.just({"kind": "bye"}),
    st.builds(lambda m: {"kind": "error", "error": m}, st.text(max_size=40)),
    st.builds(lambda b: {"kind": "compacted", "base": b}, st.integers(0, 99)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(protocol_frames, min_size=1, max_size=6))
def test_every_protocol_frame_kind_round_trips(stream):
    encoder = BinaryEncoder()
    decoder = BinaryDecoder()
    for frame in stream:
        assert exactly(_roundtrip(encoder, decoder, frame), frame)
