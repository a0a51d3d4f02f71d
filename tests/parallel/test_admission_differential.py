"""The ingest door admits by column; the row-wise check is its reference.

``ShardHost.ingest`` judges each same-type run of a frame on *covers*
(``EventType.admits``) and checks a run event by event only when its
covers cannot pass it.  These properties hold it to a test-local
row-wise door — every event's ``conforms`` plus ``T_activity``'s parent
pair, run by run in frame order, as the door checked before columns —
through both of its doors: a list of events (the serial backend; the
door transposes the run) and a decoded frame (the decoder's covers),
fed the frames the encoder writes and ``ROWS`` records built byte by
byte, whose ``DICT`` tables hold entries no row refers to; now and then
a frame holds a member that is no event at all.  Both sides agree on
admit or refuse and on the error's text, and a refused frame leaves
every operator's state as it was.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import EventTypeError, FrameRefusedError, WireError
from repro.events.event import Event
from repro.events.producers import (
    ACTIVITY_EVENT_TYPE,
    CONTEXT_EVENT_TYPE,
    SYSTEM_EVENT_TYPE,
)
from repro.parallel.codec import (
    C_DICT,
    T_DICT,
    T_LIST,
    T_ROWS,
    BinaryDecoder,
    BinaryEncoder,
    _varint,
    events_frame,
)

from tests.parallel.test_ingest_door import (
    GOOD,
    INSTANCE,
    SCHEMA,
    door_host,
    operator_state,
)

#: The types a shard's producers serve, by name.
SERVED = {"T_context": CONTEXT_EVENT_TYPE, "T_activity": ACTIVITY_EVENT_TYPE}
SYSTEM_GOOD = {
    "time": 1,
    "source": "E_system",
    "systemId": "cmi",
    "metric": "queue_depth",
    "seriesLabel": None,
    "value": 3,
}


class Text(str):
    """A ``str`` subclass: the row-wise check admits it, as ``str``."""


#: Association sets a run draws from, so a column folds to a table.
SETS = [
    frozenset({(SCHEMA, INSTANCE)}),
    frozenset({(SCHEMA, "tf-001")}),
    frozenset({(SCHEMA, INSTANCE), ("P-Other", "x-1")}),
]

#: What a perturbation writes, by kind and type: ``(name, value)``
#: pairs, a ``None`` value under ``"missing"`` meaning the key goes.
PERTURBATIONS = {
    "bool": {"T_context": [("time", True)], "T_activity": [("time", False)]},
    "null": {
        "T_context": [("contextId", None), ("fieldName", None)],
        "T_activity": [("activityInstanceId", None), ("oldState", None)],
    },
    "missing": {
        "T_context": [("contextName", None), ("source", None)],
        "T_activity": [("newState", None), ("time", None)],
    },
    "subclass": {
        "T_context": [("contextName", Text("TaskForceCtx000"))],
        "T_activity": [("user", Text("u-1"))],
    },
    "member": {
        "T_context": [
            ("processAssociations", frozenset({(SCHEMA, 7)})),
            ("processAssociations", frozenset({(SCHEMA,)})),
        ],
        "T_activity": [
            ("parentProcessInstanceId", None),
            ("parentProcessSchemaId", None),
        ],
    },
}

#: Entries a hand-built ``DICT`` table may hold that no row refers to:
#: each one alone would refuse an event that carried it.
UNREFERENCED = [
    frozenset({(SCHEMA, 7)}),
    True,
    None,
    3.5,
    frozenset({(None, None)}),
]


def reference_refusal(events, shard_id=0):
    """The row-wise door: the refusal text, or ``None`` to admit.  A
    frame with a member that is no event is refused at the first such
    member before any event of it is checked."""
    n = len(events)
    for k, event in enumerate(events):
        if not isinstance(event, Event):
            return (
                f"shard {shard_id} refused a frame of {n} events at item "
                f"{k}: not an event but a {type(event).__name__!r} value"
            )
    i = 0
    while i < n:
        type_name = events[i].type_name
        j = i + 1
        while j < n and events[j].type_name == type_name:
            j += 1
        event_type = SERVED.get(type_name)
        try:
            if event_type is None:
                raise EventTypeError("no source producer is registered")
            for event in events[i:j]:
                params = event.params
                event_type.conforms(params)
                if type_name == "T_activity":
                    schema = params["parentProcessSchemaId"]
                    instance = params["parentProcessInstanceId"]
                    if (schema is None) != (instance is None):
                        raise EventTypeError(
                            f"parameters 'parentProcessSchemaId' ({schema!r}) "
                            f"and 'parentProcessInstanceId' ({instance!r}) "
                            f"must both be null or both be set"
                        )
        except EventTypeError as error:
            return (
                f"shard {shard_id} refused a frame of {n} events at a "
                f"{type_name!r} event: {error}"
            )
        i = j
    return None


def door_refusal(host, events, covers=None):
    """The column door's answer; a refusal must move no state."""
    before = operator_state(host)
    try:
        host.ingest(events, None, covers)
    except FrameRefusedError as error:
        assert operator_state(host) == before
        return str(error)
    return None


def decoded(payload):
    """*payload* through a fresh decoder: its events and covers."""
    decoder = BinaryDecoder()
    frame = decoder.decode_payload(payload)
    return frame["events"], decoder.covers


def encoded(events):
    """The payload the encoder writes for *events*."""
    return BinaryEncoder().encode_frame(events_frame(events))[4:]


def hand_built(events, unreferenced):
    """*events* (one type, one key order) as a frame payload holding one
    ``ROWS`` record built byte by byte: every column a ``DICT`` whose
    table is the column's values, one entry per distinct object, and
    then the *unreferenced* entries, which no row's id names."""
    encoder = BinaryEncoder()
    value = encoder._value
    buf = bytearray((T_DICT,))
    _varint(buf, 2)
    value(buf, "kind")
    value(buf, "events")
    value(buf, "events")
    buf.append(T_LIST)
    _varint(buf, 1)
    buf.append(T_ROWS)
    value(buf, events[0].type_name)
    keys = tuple(events[0].params)
    value(buf, keys)
    _varint(buf, len(events))
    for key in keys:
        if key == "type":
            continue
        table, ids = [], []
        for event in events:
            column_value = event.params[key]
            for index, entry in enumerate(table):
                if entry is column_value:
                    break
            else:
                index = len(table)
                table.append(column_value)
            ids.append(index)
        table += unreferenced
        buf.append(C_DICT)
        _varint(buf, len(table))
        for entry in table:
            value(buf, entry)
        encoder._array(buf, "BH", int(len(table) > 256), ids)
    return bytes(buf)


@st.composite
def runs(draw):
    """One same-type run: good events, 0-2 of them perturbed."""
    type_name = draw(st.sampled_from(["T_context", "T_activity", "T_context"]))
    size = draw(st.sampled_from([1, 3, 8, 12, 16, 20]))
    events = []
    for tick in range(size):
        params = dict(GOOD[type_name], time=tick + 1)
        if type_name == "T_context":
            params["processAssociations"] = SETS[draw(st.integers(0, 2))]
            params["newFieldValue"] = draw(st.sampled_from([tick, None, True, "x"]))
        events.append(params)
    for __ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(sorted(PERTURBATIONS)))
        name, value = draw(st.sampled_from(PERTURBATIONS[kind][type_name]))
        params = events[draw(st.integers(0, size - 1))]
        if kind == "missing":
            params.pop(name, None)
        else:
            params[name] = value
    return [Event.trusted(SERVED[type_name], params) for params in events]


#: Wire values a decoded frame's list may hold where an event belongs.
NON_EVENTS = [7, None, dict(SYSTEM_GOOD)]


@st.composite
def frames(draw):
    """1-3 runs, now and then one of an unserved type or a member that
    is no event between them."""
    events = []
    for run in draw(st.lists(runs(), min_size=1, max_size=3)):
        between = draw(st.integers(0, 15))
        if between < 2:
            events.append(Event.trusted(SYSTEM_EVENT_TYPE, dict(SYSTEM_GOOD)))
        elif between == 2:
            events.append(draw(st.sampled_from(NON_EVENTS)))
        events += run
    return events


#: More examples under a loaded profile that asks for them (``soak``).
PROFILE_EXAMPLES = settings.default.max_examples
EXAMPLES = PROFILE_EXAMPLES if PROFILE_EXAMPLES > 100 else 40

SETTINGS = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestAdmissionDifferential:
    @SETTINGS
    @given(stream=st.lists(frames(), min_size=1, max_size=3))
    def test_both_doors_answer_as_the_row_wise_door(self, stream):
        """Frames through the list door and, encoded, through the
        decoded door: the same admit or refuse and the same text as the
        row-wise door, state unmoved by a refusal, and the same
        notifications from both hosts at the end."""
        listed, received = door_host(), door_host()
        try:
            for events in stream:
                expected = reference_refusal(events)
                assert door_refusal(listed, events) == expected
                try:
                    payload = encoded(events)
                except WireError:
                    # A ``str`` subclass does not cross the wire: the
                    # other host takes the frame as a list too.
                    assert any(
                        type(value) is Text
                        for event in events
                        if isinstance(event, Event)
                        for value in event.params.values()
                    )
                    assert door_refusal(received, events) == expected
                    continue
                events, covers = decoded(payload)
                assert reference_refusal(events) == expected
                assert door_refusal(received, events, covers) == expected
            assert signatures(received) == signatures(listed)
        finally:
            listed.close()
            received.close()

    @SETTINGS
    @given(
        run=runs(),
        unreferenced=st.lists(st.sampled_from(UNREFERENCED), max_size=2),
    )
    def test_hand_built_rows_answer_as_the_row_wise_door(self, run, unreferenced):
        """A ``ROWS`` record whose tables hold entries no row takes: the
        covers may fail on such an entry, and the run is then checked
        row by row, so it is admitted exactly when its rows conform."""
        if len({tuple(event.params) for event in run}) != 1:
            return  # one record holds one key order
        try:
            payload = hand_built(run, unreferenced)
        except WireError:
            return  # a ``str`` subclass does not cross the wire
        host = door_host()
        try:
            events, covers = decoded(payload)
            assert [(start, stop) for __, start, stop, ___ in covers] == [
                (0, len(run))
            ]
            expected = reference_refusal(run)
            assert reference_refusal(events) == expected
            assert door_refusal(host, events, covers) == expected
        finally:
            host.close()


def signatures(host):
    return [
        (record["participant"], record["schema"], record["description"], record["time"])
        for record in host.drain_results()
    ]


def test_an_unreferenced_bad_table_entry_is_admitted():
    """The row-wise door admits a run whose rows conform whatever its
    table holds besides; the covers cannot tell (they hold the bad set),
    so the door checks the run row by row and admits it too."""
    run = [
        Event.trusted(CONTEXT_EVENT_TYPE, dict(GOOD["T_context"], time=tick))
        for tick in range(1, 9)
    ]
    events, covers = decoded(hand_built(run, [frozenset({(SCHEMA, 7)})]))
    (( __, start, stop, columns),) = covers
    assert (start, stop) == (0, 8)
    assert not CONTEXT_EVENT_TYPE.admits(columns)
    host = door_host()
    try:
        assert door_refusal(host, events, covers) is None
        assert host.stats()["events_ingested"] == 8
    finally:
        host.close()


@pytest.mark.parametrize(
    "kind", ["bool", "null", "missing", "subclass", "member"]
)
def test_each_perturbation_is_judged_as_the_row_wise_door_judges_it(kind):
    """One perturbed event in the middle of a 20-event run, on the list
    door, where the run is transposed: the same answer and text."""
    for type_name, pairs in PERTURBATIONS[kind].items():
        for name, value in pairs:
            params = [dict(GOOD[type_name], time=tick) for tick in range(1, 21)]
            if kind == "missing":
                del params[10][name]
            else:
                params[10][name] = value
            events = [Event.trusted(SERVED[type_name], p) for p in params]
            host = door_host()
            try:
                expected = reference_refusal(events)
                assert (expected is None) == (kind == "subclass")
                assert door_refusal(host, events) == expected
            finally:
                host.close()
