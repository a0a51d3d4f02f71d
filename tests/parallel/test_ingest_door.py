"""The ingest door: a frame's events are checked once, where they enter.

``ShardHost.ingest`` is the one door serial frames, process frames and
journal replays all pass through.  Every event of a frame is checked
against its producer's type before any of them reaches a producer, so a
malformed primitive is refused with the whole frame — whatever window
shape sits behind the producer — and inside the linked plan the kernels
build their outputs from values that are already typed.

The hostile primitives are ``T_context`` events a decoder (or a
hand-built trusted event) can carry but the engine never produces: a
non-int ``time``, a non-str process instance id, and a mixed association
set that cannot be sorted.  A decoded frame's list may also hold a wire
value that is no event at all.
"""

import copy
import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.awareness.operators.count import Count
from repro.awareness.operators.filters import ActivityFilter, ContextFilter
from repro.errors import EventTypeError, FrameRefusedError, ParallelError, ReproError
from repro.events.canonical import canonical_type
from repro.events.event import Event, EventType
from repro.events.producers import (
    ACTIVITY_EVENT_TYPE,
    CONTEXT_EVENT_TYPE,
    SYSTEM_EVENT_TYPE,
    check_associations,
)
from repro.parallel import ShardConfig, ShardedFederation, ShardSpec
from repro.parallel.codec import BinaryDecoder, BinaryEncoder, events_frame
from repro.parallel.host import ShardHost
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

from tests.durability.test_supervised_federation import kill_worker
from tests.exact import signatures

SCHEMA = "P-ShardTF"
CONTEXT = "TaskForceCtx000"
INSTANCE = "tf-000"

#: Three ways a ``T_context`` event can be wrong below its declared type.
HOSTILE = {
    "time": {"time": "x"},
    "instance": {"processAssociations": frozenset({(SCHEMA, 7)})},
    "mixed": {
        "processAssociations": frozenset({(SCHEMA, INSTANCE), (SCHEMA, 1)})
    },
}

#: A window that counts (Filter -> Count -> Edge, firing at the second
#: event) and one that delivers every filtered event (Filter -> Output).
RAW_SPEC = ShardSpec(
    spec_id="spec-raw",
    process_schema_id=SCHEMA,
    text=(
        f"d0 = Filter_context[{CONTEXT}, Deadline](ContextEvent)\n"
        'deliver d0 to team-000 as "raw deadline" named AS_RAW'
    ),
)
SHAPES = ("count", "output")


def workload(windows=1, forces=1, events=4):
    return ShardStreamWorkload(
        ShardStreamConfig(
            forces=forces,
            windows_per_force=windows,
            events_per_force=events,
            members_per_team=1,
        )
    )


def blueprint(shape):
    plan = workload().blueprint()
    if shape == "output":
        plan.specifications = [RAW_SPEC]
    return plan


def context_event(tick, **changes):
    params = {
        "time": tick,
        "source": "E_context",
        "contextId": "ctx-tf-000",
        "contextName": CONTEXT,
        "processAssociations": frozenset({(SCHEMA, INSTANCE)}),
        "fieldName": "Deadline",
        "oldFieldValue": tick - 1,
        "newFieldValue": tick,
    }
    params.update(changes)
    # Built the way the decoder builds a received event: trusted.
    return Event.trusted(CONTEXT_EVENT_TYPE, params)


#: Every hostile kind, and a frame member that is no event.
KINDS = sorted(HOSTILE) + ["non-event"]


def hostile_frame(kind):
    """``[good, good, bad]``: two events the windows would act on first."""
    bad = 7 if kind == "non-event" else context_event(4, **HOSTILE[kind])
    return [context_event(2), context_event(3), bad]


def operator_state(host):
    return [
        (op.instance_name, op.consumed, op.produced, copy.deepcopy(op._partitions))
        for op in host.live_operators()
    ]


class TestSerialDoor:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_malformed_primitive_refuses_its_frame_whole(self, shape, kind):
        with ShardedFederation(blueprint(shape), ShardConfig(shards=1)) as federation:
            host = federation.shards[0].host
            federation.ingest([context_event(1)])
            primed = federation.drain()
            before = operator_state(host)
            counts = [
                op.current_count(INSTANCE)
                for op in host.live_operators()
                if op.family == "Count"
            ]

            federation.ingest(hostile_frame(kind))
            with pytest.raises(FrameRefusedError, match="shard 0 refused"):
                federation.drain()

            assert operator_state(host) == before
            assert counts == [
                op.current_count(INSTANCE)
                for op in host.live_operators()
                if op.family == "Count"
            ]
            assert host.stats()["notifications"] == len(primed)
            assert host.stats()["events_ingested"] == 1


    def test_a_parent_schema_without_its_instance_refuses_its_frame(self):
        """``parentProcessInstanceId`` is nullable in ``T_activity``; the
        engine sets it exactly when it sets the parent schema, and the
        door holds a frame to that, so the filter never meets the half
        parent mid-frame."""
        plan = blueprint("count")
        plan.specifications = [ACTIVITY_SPEC]
        with ShardedFederation(plan, ShardConfig(shards=1)) as federation:
            host = federation.shards[0].host
            good = Event.trusted(ACTIVITY_EVENT_TYPE, dict(GOOD["T_activity"]))
            bad = Event.trusted(
                ACTIVITY_EVENT_TYPE,
                dict(GOOD["T_activity"], parentProcessInstanceId=None),
            )
            before = operator_state(host)
            federation.ingest([good, bad])
            with pytest.raises(FrameRefusedError, match="both be null or both be set"):
                federation.drain()
            assert operator_state(host) == before
            assert host.stats()["events_ingested"] == 0


fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)


@fork_only
class TestProcessDoor:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_the_refusal_is_reported_and_the_worker_stays_alive(
        self, shape, kind
    ):
        config = ShardConfig(shards=1, backend="process", join_timeout=10.0)
        with ShardedFederation(blueprint(shape), config) as federation:
            federation.ingest([context_event(1)])
            federation.drain()

            federation.ingest(hostile_frame(kind))
            assert federation.drain() == []
            with pytest.raises(
                ParallelError, match=r"shard 0 .*FrameRefusedError: shard 0 refused"
            ):
                federation.stats()
            assert federation.healthy()

            # Refused whole: the worker's state is where the first event
            # left it, so the next good event is the count's second (its
            # edge fires) and the raw window delivers it once.
            federation.ingest([context_event(2)])
            assert len(federation.drain()) == 1
            assert federation.stats()["events_ingested"] == 2


    def test_a_replayed_refusal_is_a_no_op(self, tmp_path):
        """The facade journals a frame before the worker refuses it, so
        recovery replays the refusal: it moves no state and is not
        reported again, and the recovered stream is the one the frame
        never entered."""
        plan = workload(forces=2, events=8)
        events = plan.events()
        cut = len(events) // 2
        with ShardedFederation(plan.blueprint(), ShardConfig(shards=1)) as oracle:
            oracle.ingest(events)
            oracle.drain()
            expected = list(oracle.delivered)
        assert len(expected) == plan.expected_notifications()
        for kind in ("mixed", "non-event"):
            config = ShardConfig(
                shards=1,
                backend="process",
                join_timeout=10.0,
                durable_dir=str(tmp_path / kind),
                snapshot_every=0,
            )
            with ShardedFederation(plan.blueprint(), config) as federation:
                federation.ingest(events[:cut])
                federation.drain()
                federation.ingest(hostile_frame(kind))
                assert federation.drain() == []
                with pytest.raises(ParallelError, match="FrameRefusedError"):
                    federation.stats()
                kill_worker(federation.shards[0])
                federation.ingest(events[cut:])
                federation.drain()
                stats = federation.stats()
                merged = list(federation.delivered)
            assert stats["recoveries"] == 1, kind
            assert signatures(merged) == signatures(expected), kind


    def test_an_unserved_type_is_refused_and_its_replay_recovers(self, tmp_path):
        """No producer of a shard serves ``T_system``: the door refuses
        its frame as a :class:`FrameRefusedError`, so the journaled
        frame's replay is a no-op too, and a SIGKILLed worker recovers
        (a bare ``ParallelError`` there was reported by the replay, and
        ``recover()`` raised it, so the shard could never recover)."""
        sample = Event.trusted(
            SYSTEM_EVENT_TYPE,
            {
                "time": 2,
                "source": "E_system",
                "systemId": "cmi",
                "metric": "queue_depth",
                "seriesLabel": None,
                "value": 3,
            },
        )

        def run(durable_dir=None):
            config = ShardConfig(
                shards=1,
                backend="process",
                join_timeout=10.0,
                batch_size=1,
                durable_dir=durable_dir,
                snapshot_every=0,
            )
            with ShardedFederation(blueprint("count"), config) as federation:
                federation.ingest([context_event(1)])
                federation.ingest([sample])
                assert federation.drain() == []
                with pytest.raises(
                    ParallelError,
                    match=r"FrameRefusedError: shard 0 refused a frame of 1 "
                    r"events at a 'T_system' event: no source producer",
                ):
                    federation.stats()
                if durable_dir is not None:
                    kill_worker(federation.shards[0])
                federation.ingest([context_event(2)])
                merged = federation.drain()
                stats = federation.stats()
            return merged, stats

        expected, plain = run()
        merged, stats = run(str(tmp_path / "durable"))
        assert stats["recoveries"] == 1
        assert len(expected) == 1
        assert signatures(merged) == signatures(expected)
        assert stats["events_ingested"] == plain["events_ingested"] == 2


class TestConformanceCount:
    """Counts, not wall clock: an admitted frame is checked by column.

    A run of a frame is judged on its covers — the decoder's for a run
    that arrived as one ``ROWS`` record, its own transposed columns for
    a list of events — so a conforming frame makes no row-wise
    ``conforms`` call, however many windows sit behind its producer, and
    the association members run once per distinct set (the parent made
    one ``conforms`` and one members call per event)."""

    @staticmethod
    def frame(windows):
        plan = workload(windows, forces=2, events=32)
        host = ShardHost(0, 1)
        host.apply_blueprint(plan.blueprint())
        return plan, host, plan.events()

    @staticmethod
    def decoded(events):
        """*events* across the codec: the decoded list and its covers."""
        decoder = BinaryDecoder()
        data = BinaryEncoder().encode_frame(events_frame(events))
        frame = decoder.decode_payload(memoryview(data)[4:])
        return frame["events"], decoder.covers

    @pytest.mark.parametrize("door", ["events", "decoded"])
    @pytest.mark.parametrize("windows", [1, 8])
    def test_an_admitted_frame_makes_no_row_wise_check(self, door, windows, monkeypatch):
        plan, host, events = self.frame(windows)
        covers = None
        if door == "decoded":
            events, covers = self.decoded(events)
            assert [(start, stop) for __, start, stop, ___ in covers] == [(0, 64)]
        calls = 0
        conforms = EventType.conforms

        def counting(self, params):
            nonlocal calls
            calls += 1
            conforms(self, params)

        monkeypatch.setattr(EventType, "conforms", counting)
        host.ingest(events, None, covers)
        assert len(host.drain_results()) == plan.expected_notifications()
        assert calls == 0
        host.close()

    def test_a_decoded_frame_checks_each_distinct_association_set_once(
        self, monkeypatch
    ):
        plan, host, events = self.frame(1)
        events, covers = self.decoded(events)
        distinct = {event["processAssociations"] for event in events}
        assert len(distinct) == 2 < len(events)
        checked = []

        def counting(associations):
            checked.append(associations)
            check_associations(associations)

        monkeypatch.setattr(
            CONTEXT_EVENT_TYPE, "_members", (("processAssociations", counting),)
        )
        host.ingest(events, None, covers)
        assert len(host.drain_results()) == plan.expected_notifications()
        assert sorted(map(sorted, checked)) == sorted(map(sorted, distinct))
        host.close()


class TestOperatorDoors:
    """``consume`` is a door from outside the linked plan; the filters
    are where a primitive value becomes ``processInstanceId``."""

    def test_a_malformed_event_through_consume_is_refused(self):
        flt = ContextFilter(SCHEMA, CONTEXT, "Deadline")
        with pytest.raises(EventTypeError, match="'time' expects int"):
            flt.consume(0, context_event(4, **HOSTILE["time"]))
        assert flt.produced == 0
        count = Count(SCHEMA)
        (output,) = flt.consume(0, context_event(4))
        bad = Event.trusted(canonical_type(SCHEMA), dict(output.params, intInfo="4"))
        with pytest.raises(EventTypeError, match="'intInfo' expects int"):
            count.consume(0, bad)
        assert count.partition_count() == 0

    @pytest.mark.parametrize("kind", ["instance", "mixed"])
    def test_the_context_lift_refuses_a_non_str_pair(self, kind):
        """A non-str pair never reaches the lift: ``T_context`` declares
        its association members, so the validating constructor, the
        ``consume`` door and the ingest door each refuse the event, and
        the filter (which no longer checks) meets only pairs of str."""
        hostile = dict(context_event(4).params, **HOSTILE[kind])
        with pytest.raises(EventTypeError, match="processAssociations"):
            Event(CONTEXT_EVENT_TYPE, hostile)

        flt = ContextFilter(SCHEMA, CONTEXT, "Deadline")
        with pytest.raises(EventTypeError, match="processAssociations"):
            flt.consume(0, context_event(4, **HOSTILE[kind]))
        assert (flt.consumed, flt.produced) == (0, 0)

        host = ShardHost(0, 1)
        host.apply_blueprint(blueprint("count"))
        before = operator_state(host)
        with pytest.raises(FrameRefusedError, match="processAssociations"):
            host.ingest([context_event(3), context_event(4, **HOSTILE[kind])])
        assert operator_state(host) == before
        assert host.stats()["events_ingested"] == 0
        host.close()

    def test_the_activity_lift_refuses_a_null_parent_instance(self):
        flt = ActivityFilter(SCHEMA, "work")
        event = Event.trusted(
            ACTIVITY_EVENT_TYPE, dict(GOOD["T_activity"], parentProcessInstanceId=None)
        )
        with pytest.raises(EventTypeError, match="parentProcessInstanceId"):
            flt.consume(0, event)
        assert flt.produced == 0


# -- generated input at the door ----------------------------------------------

#: A parameter map the door must accept, per type; the property perturbs it.
GOOD = {
    "T_context": dict(context_event(1).params),
    "T_activity": {
        "time": 1,
        "source": "E_activity",
        "activityInstanceId": "act-1",
        "parentProcessSchemaId": SCHEMA,
        "parentProcessInstanceId": INSTANCE,
        "user": None,
        "activityVariableId": "work",
        "activityProcessSchemaId": None,
        "oldState": "Ready",
        "newState": "Running",
    },
}
EVENT_TYPES = {"T_context": CONTEXT_EVENT_TYPE, "T_activity": ACTIVITY_EVENT_TYPE}
ACTIVITY_SPEC = ShardSpec(
    spec_id="spec-activity",
    process_schema_id=SCHEMA,
    text=(
        "a0 = Filter_activity[work, *, *](ActivityEvent)\n"
        "n0 = Count[](a0)\n"
        "g0 = Edge[>=, 2](n0)\n"
        'deliver g0 to team-000 as "work moved" named AS_WORK'
    ),
)

pair_members = st.one_of(
    st.sampled_from([SCHEMA, "P-Other", INSTANCE, "tf-001"]),
    st.integers(-2, 2),
    st.none(),
)
values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, width=32),
    st.text(max_size=2),
    st.sampled_from(
        [SCHEMA, CONTEXT, INSTANCE, "Deadline", "work", "Ready", "Running"]
    ),
    st.tuples(pair_members, pair_members),
    st.frozensets(
        st.one_of(
            st.tuples(pair_members, pair_members),
            st.tuples(pair_members),
            st.integers(0, 2),
        ),
        max_size=3,
    ),
)


@st.composite
def perturbed_events(draw):
    type_name = draw(st.sampled_from(sorted(GOOD)))
    params = dict(GOOD[type_name])
    names = sorted(params) + ["type", "unexpected"]
    for name in draw(st.lists(st.sampled_from(names), max_size=4)):
        if name in params and draw(st.booleans()):
            del params[name]
        else:
            params[name] = draw(values)
    return Event.trusted(EVENT_TYPES[type_name], params)


def door_host():
    host = ShardHost(0, 1)
    plan = workload(windows=2).blueprint()
    plan.specifications += [RAW_SPEC, ACTIVITY_SPEC]
    host.apply_blueprint(plan)
    return host


#: More examples under a loaded profile that asks for them (``soak``).
PROFILE_EXAMPLES = settings.default.max_examples
DOOR_EXAMPLES = PROFILE_EXAMPLES if PROFILE_EXAMPLES > 100 else 40


@settings(
    max_examples=DOOR_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(frames=st.lists(st.lists(perturbed_events(), min_size=1, max_size=5), max_size=4))
def test_any_parameter_map_is_ingested_or_refused_typed(frames):
    """Whatever the parameters, a frame is ingested or refused with a
    :class:`ReproError` — never a ``TypeError`` / ``KeyError`` from a
    kernel — and a refused frame moves no operator state."""
    host = door_host()
    try:
        for frame in frames:
            before = operator_state(host)
            try:
                host.ingest(frame)
            except ReproError:
                assert operator_state(host) == before
        host.drain_results()
    finally:
        host.close()
