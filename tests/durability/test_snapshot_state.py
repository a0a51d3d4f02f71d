"""Operator state through the codec, the snapshot file, and host-level
snapshot/restore determinism."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.awareness.operators import And, Seq
from repro.awareness.operators.compare import Compare2, Edge
from repro.awareness.operators.count import Count
from repro.cli import main
from repro.durability.log import LAST_JSON_ERA_BUILD, FrameLog
from repro.durability.snapshot import SNAPSHOT_MAGIC, SNAPSHOT_VERSION, ShardSnapshot
from repro.durability.state import capture_operator, restore_operator
from repro.durability.supervisor import JOURNAL_FILENAME, SNAPSHOT_FILENAME
from repro.errors import DurabilityError, SnapshotUnsupportedError, WireError
from repro.events.canonical import CanonicalEvent, canonical_event
from repro.events.event import Event
from repro.observability import instrumented
from repro.observability.provenance import ProvenanceNode
from repro.parallel import ShardSpec
from repro.parallel.codec import T_LIST, T_SELF, BinaryDecoder, BinaryEncoder, encode_standalone
from repro.parallel.host import ShardHost
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

from tests.exact import as_decoded, exactly


def workload():
    return ShardStreamWorkload(
        ShardStreamConfig(forces=3, windows_per_force=2, events_per_force=24)
    )


def booted_host(wl, shard_id=0, shard_count=1):
    host = ShardHost(shard_id, shard_count)
    host.apply_blueprint(wl.blueprint())
    return host


def through_codec(value):
    """*value* as the worker pipe and the snapshot file carry it."""
    data = encode_standalone({"value": value})
    return BinaryDecoder().decode_payload(data[4:])["value"]


class TestStateCodec:
    def test_scalars_and_containers_round_trip(self):
        state = {
            "count": 3,
            "flags": [True, False],
            "pair": (1, "two"),
            "keys": frozenset({1, 2}),
            7: {"nested": None},
        }
        decoded = through_codec(state)
        assert decoded == state
        assert exactly(decoded, state)

    def test_dollar_prefixed_string_keys_survive(self):
        state = {"$ev": "not an event", "$m": [1, 2]}
        assert through_codec(state) == state

    def test_held_events_keep_their_provenance(self):
        wl = workload()
        event = wl.events()[0]
        with instrumented():
            host = booted_host(wl)
            host.ingest([event])
            held = None
            for operator in host.live_operators():
                for value in operator._partitions.values():
                    held = value
            assert held is not None  # count state exists after one event
        decoded = through_codec(event)
        assert decoded.type_name == event.type_name
        assert dict(decoded.params) == dict(event.params)
        host.close()

    def test_unencodable_state_raises(self):
        with pytest.raises(WireError):
            encode_standalone({"handle": object()})


# -- every stateful family ------------------------------------------------------

#: The built-in families whose kernels keep per-instance state.
FAMILIES = {
    "Count": lambda: Count("P"),
    "Edge": lambda: Edge("P", lambda value: value > 1),
    "Compare2": lambda: Compare2("P", "<="),
    "And": lambda: And("P", copy=2, arity=3),  # int-keyed slot memory
    "Seq": lambda: Seq("P", arity=3),  # held events in a list
}

feeds = st.lists(
    st.tuples(
        st.integers(0, 2),  # slot (modulo the family's arity)
        st.sampled_from(["tf-1", "tf-2"]),
        st.one_of(st.none(), st.integers(-3, 3)),
        st.booleans(),  # carries a provenance chain
    ),
    max_size=24,
)


def traced(time):
    leaf = ProvenanceNode(
        event_id=time,
        node="source:E_context",
        kind="primitive",
        event_type="T_context",
        logical_time=time,
        summary=("context", "Ctx", "Deadline", time),
    )
    return ProvenanceNode(
        event_id=time + 1000,
        node="Filter_context:Deadline",
        kind="composite",
        event_type="C[P]",
        logical_time=time,
        summary="filtered",
        inputs=(leaf,),
    )


def feed_events(feed, start=0):
    for time, (slot, instance, value, chained) in enumerate(feed, start):
        event = canonical_event("P", instance, time=time, source="t", int_info=value)
        if chained:
            event.provenance = traced(time)
        yield slot, event


def held(value):
    """Every event held anywhere in operator state *value*."""
    if isinstance(value, Event):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [event for member in value for event in held(member)]
    return []


def drive(operator, steps):
    outputs = []
    for slot, event in steps:
        outputs += operator.consume(slot % operator.arity, event)
    return [dict(output.params) for output in outputs]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), feeds, feeds)
def test_every_stateful_family_round_trips_exactly(family, head, tail):
    operator = FAMILIES[family]()
    drive(operator, feed_events(head))
    record = capture_operator(operator)
    restored = FAMILIES[family]()
    partitions = restored._partitions
    restore_operator(restored, through_codec(record))
    assert restored._partitions is partitions
    assert exactly(restored._partitions, as_decoded(operator._partitions))
    # Held C_P events (And, Seq) come back as records, as they were held.
    assert all(type(event) is CanonicalEvent for event in held(restored._partitions))
    assert len(held(restored._partitions)) == len(held(operator._partitions))
    assert (restored.consumed, restored.produced) == (
        operator.consumed,
        operator.produced,
    )
    # And the restored replica continues as the original does.
    steps = list(feed_events(tail, start=len(head)))
    assert drive(restored, steps) == drive(operator, steps)


# -- the snapshot file ----------------------------------------------------------


def saved_snapshot(tmp_path):
    """A real snapshot file: a host part-way through the seeded stream."""
    wl = workload()
    events = wl.events()[:12]
    host = booted_host(wl)
    host.ingest(events)
    state = host.snapshot_state()
    host.close()
    path = tmp_path / SNAPSHOT_FILENAME
    ShardSnapshot(0, len(events), wl.blueprint().to_wire(), state).save(str(path))
    return path


def framed(payload):
    return SNAPSHOT_MAGIC + len(payload).to_bytes(4, "big") + payload


#: What version 1 wrote: the record as JSON, no header.
V1_SNAPSHOT = (
    b'{"version":1,"shard_id":0,"frame_index":6,"blueprint":{},'
    b'"state":{"operators":[],"seq":0}}'
)


def hostile_snapshots(good):
    record = {"shard_id": 0, "frame_index": 6, "blueprint": {}, "state": {}}
    return {
        "empty file": b"",
        "wrong magic": b"\xc3RJ1" + good[len(SNAPSHOT_MAGIC):],
        "v1 JSON body": V1_SNAPSHOT,
        "record not SELF-led": SNAPSHOT_MAGIC + BinaryEncoder().encode_frame(record),
        "record decoding to a non-dict": framed(bytes((T_SELF, T_LIST, 0))),
        "record missing a field": SNAPSHOT_MAGIC
        + encode_standalone({"shard_id": 0, "frame_index": 6, "state": {}}),
        "field of the wrong type": SNAPSHOT_MAGIC
        + encode_standalone(dict(record, frame_index="6")),
        "trailing bytes": good + b"\x00",
    }


class TestShardSnapshotFile:
    def test_save_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        snapshot = ShardSnapshot(
            shard_id=1,
            frame_index=42,
            blueprint={"participants": []},
            state={"seq": 7},
        )
        snapshot.save(path)
        loaded = ShardSnapshot.load(path)
        assert loaded == snapshot

    def test_a_host_snapshot_round_trips_exactly(self, tmp_path):
        path = saved_snapshot(tmp_path)
        data = path.read_bytes()
        assert data.startswith(SNAPSHOT_MAGIC)
        loaded = ShardSnapshot.load(str(path))
        again = tmp_path / "again"
        loaded.save(str(again))
        assert again.read_bytes() == data

    def test_missing_snapshot_is_none(self, tmp_path):
        assert ShardSnapshot.load(str(tmp_path / "nope.json")) is None

    def test_corrupt_snapshot_is_an_error(self, tmp_path):
        path = tmp_path / "snapshot.json"
        path.write_text("{broken")
        with pytest.raises(DurabilityError):
            ShardSnapshot.load(str(path))

    def test_version_drift_is_an_error(self, tmp_path):
        path = tmp_path / "snapshot.json"
        ShardSnapshot(0, 0, {}, {}).save(str(path))
        data = path.read_bytes()
        drifted = str(SNAPSHOT_VERSION + 1).encode()
        path.write_bytes(SNAPSHOT_MAGIC[:-1] + drifted + data[len(SNAPSHOT_MAGIC):])
        with pytest.raises(DurabilityError, match="version-2 snapshot"):
            ShardSnapshot.load(str(path))

    def test_a_v1_json_snapshot_is_refused_by_name(self, tmp_path):
        path = tmp_path / "snapshot.json"
        path.write_bytes(V1_SNAPSHOT)
        with pytest.raises(DurabilityError) as refused:
            ShardSnapshot.load(str(path))
        message = str(refused.value)
        assert str(path) in message
        assert "version-1 JSON snapshot" in message
        assert LAST_JSON_ERA_BUILD in message


class TestHostileSnapshotBytes:
    """Whatever the bytes, ``load`` answers a snapshot or a
    :class:`DurabilityError` — never ``IndexError``, ``RecursionError``
    or ``MemoryError`` — and ``repro journal`` exits 1 on the error."""

    @pytest.mark.parametrize("name", sorted(hostile_snapshots(b"")))
    def test_named_corruptions_are_refused(self, tmp_path, name, capsys):
        good = saved_snapshot(tmp_path).read_bytes()
        shard = tmp_path / "durable" / "shard-0"
        shard.mkdir(parents=True)
        FrameLog(str(shard / JOURNAL_FILENAME)).close()
        path = shard / SNAPSHOT_FILENAME
        path.write_bytes(hostile_snapshots(good)[name])
        with pytest.raises(DurabilityError):
            ShardSnapshot.load(str(path))
        assert main(["journal", str(tmp_path / "durable")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_a_file_cut_at_every_byte_is_refused(self, tmp_path):
        path = saved_snapshot(tmp_path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(DurabilityError):
                ShardSnapshot.load(str(path))

    def test_a_flipped_byte_never_escapes_as_another_error(self, tmp_path):
        path = saved_snapshot(tmp_path)
        data = path.read_bytes()
        for index in range(len(data)):
            flipped = bytearray(data)
            flipped[index] ^= 0xFF
            path.write_bytes(bytes(flipped))
            try:
                loaded = ShardSnapshot.load(str(path))
            except DurabilityError:
                continue
            assert type(loaded.state) is dict and type(loaded.shard_id) is int


class TestHostSnapshotRestore:
    # Undrained: the snapshot covers frames whose notifications no flush
    # has reported yet; the restored host reports them first.
    @pytest.mark.parametrize("drained", [True, False])
    def test_snapshot_plus_replay_matches_uninterrupted_run(self, drained):
        wl = workload()
        events = wl.events()
        cut = len(events) // 2

        with instrumented():
            reference = booted_host(wl)
            reference.ingest(events)
            expected = reference.drain_results()
            reference.close()

            first = booted_host(wl)
            first.ingest(events[:cut])
            before = first.drain_results() if drained else []
            state = first.snapshot_state()
            assert state is not None
            first.close()

            # The crash-recovery shape: a fresh host from the same
            # blueprint, the snapshot restored, the tail replayed.
            recovered = booted_host(wl)
            recovered.restore_state(through_codec(state))
            recovered.ingest(events[cut:])
            after = recovered.drain_results()
            recovered.close()

        combined = before + after
        assert [r["seq"] for r in combined] == list(range(len(combined)))
        assert [r["signature"] for r in combined] == [
            r["signature"] for r in expected
        ]

    def test_restore_reaches_the_linked_kernels(self):
        """Restore refills each operator's partition map in place.

        The linked kernels close over ``operator._partitions``; a restore
        that rebound the attribute would leave them counting into the
        fresh host's empty dict — the armed Edge below would fire again
        and every Count would restart at 1.
        """
        wl = ShardStreamWorkload(
            ShardStreamConfig(forces=1, windows_per_force=2, events_per_force=12)
        )
        events = wl.events()
        first_threshold, second_threshold = wl.thresholds(0)
        cut = first_threshold + 1  # first Edge has fired; second has not
        assert cut < second_threshold

        reference = booted_host(wl)
        reference.ingest(events)
        expected = reference.drain_results()
        reference.close()

        first = booted_host(wl)
        first.ingest(events[:cut])
        before = first.drain_results()
        edges = [op for op in first.live_operators() if op.family == "Edge"]
        assert [op._partitions["tf-000"] for op in edges] == [[True], [False]]
        state = first.snapshot_state()
        first.close()

        recovered = booted_host(wl)
        held = [op._partitions for op in recovered.live_operators()]
        recovered.restore_state(json.loads(json.dumps(state)))
        assert all(
            op._partitions is partitions
            for op, partitions in zip(recovered.live_operators(), held)
        )
        recovered.ingest(events[cut:])
        after = recovered.drain_results()
        counts = [
            op.current_count("tf-000")
            for op in recovered.live_operators()
            if op.family == "Count"
        ]
        recovered.close()

        assert counts == [len(events), len(events)]
        assert len(before) + len(after) == wl.expected_notifications()
        assert [(r["seq"], r["schema"], r["time"]) for r in before + after] == [
            (r["seq"], r["schema"], r["time"]) for r in expected
        ]

    def test_restored_stats_continue_the_counters(self):
        wl = workload()
        events = wl.events()
        host = booted_host(wl)
        host.ingest(events)
        host.drain_results()
        full = host.stats()
        state = host.snapshot_state()
        host.close()

        recovered = booted_host(wl)
        recovered.restore_state(state)
        stats = recovered.stats()
        recovered.close()
        for key in (
            "events_ingested",
            "composites_recognized",
            "notifications",
            "bus_published",
        ):
            assert stats[key] == full[key], key

    def test_a_snapshot_carrying_the_old_published_count_restores(self):
        """Snapshots written before the bus lost its own count carry a
        ``"published"`` field; restore ignores it, and ``bus_published``
        reads the events ingested."""
        wl = workload()
        host = booted_host(wl)
        host.ingest(wl.events())
        full = host.stats()
        state = host.snapshot_state()
        host.close()
        assert "published" not in state
        state["published"] = full["events_ingested"]

        recovered = booted_host(wl)
        recovered.restore_state(state)
        stats = recovered.stats()
        recovered.close()
        assert stats["bus_published"] == stats["events_ingested"] == full["events_ingested"]

    def test_unencodable_operator_state_degrades_to_none(self):
        wl = workload()
        host = booted_host(wl)
        host.live_operators()[0]._partitions["poison"] = object()
        assert host.snapshot_state() is None
        host.close()

    def test_restore_refuses_a_diverged_blueprint(self):
        wl = workload()
        host = booted_host(wl)
        state = host.snapshot_state()
        host.close()
        state["operators"] = state["operators"][:-1]
        other = booted_host(wl)
        with pytest.raises(SnapshotUnsupportedError):
            other.restore_state(state)
        other.close()



# -- bytes against the parent representation -------------------------------------

#: Joins that hold filtered and counted ``C_P`` events, a comparison and
#: a merge, over two contexts of the seeded stream.
HELD_SPEC = ShardSpec(
    spec_id="spec-held",
    process_schema_id="P-ShardTF",
    text=(
        "d0 = Filter_context[TaskForceCtx000, Deadline](ContextEvent)\n"
        "d1 = Filter_context[TaskForceCtx001, Deadline](ContextEvent)\n"
        "n0 = Count[](d0)\n"
        "s0 = Seq[2](d0, n0, d1)\n"
        "a0 = And[1](n0, d1)\n"
        "c0 = Compare2[<=](d0, n0)\n"
        "o0 = Or[](s0, a0, c0)\n"
        'deliver o0 to team-000 as "held" named AS_HELD'
    ),
)


class TestSnapshotBytes:
    """``C_P`` events are records; a snapshot of operator state holding
    them is the bytes the build before records wrote for the same input
    (SHA-256 of ``encode_standalone`` of the host's state after each
    frame, recorded by that build)."""

    def test_held_records_snapshot_to_the_bytes_of_held_mappings(self):
        wl = workload()
        plan = wl.blueprint()
        plan.specifications = [HELD_SPEC]
        host = ShardHost(0, 1)
        host.apply_blueprint(plan)
        events = wl.events()
        digests, holding = [], []
        for frame in (events[:5], events[5:9], events[9:24]):
            host.ingest(frame)
            state = host.snapshot_state()
            holding.append(len(held([op["partitions"] for op in state["operators"]])))
            # That build also wrote "published", a second count of
            # "ingested", right after it (DESIGN note 33).
            recorded = {}
            for key, value in state.items():
                recorded[key] = value
                if key == "ingested":
                    recorded["published"] = value
            digests.append(hashlib.sha256(encode_standalone(recorded)).hexdigest())
        assert len(host.drain_results()) > 0
        host.close()
        assert all(holding)  # the joins did hold records at every cut
        assert digests == [
            "5a7259fb9783c530d6471dbecc1f2def9e17d6f45a79f377e0fe83bb7bb4b5b6",
            "73a95a377503ddebdc888d8718877e02ed5494606becb9416d7888a78c5bb5ea",
            "d0c115afe9fba9e9465c533c7ff8451d565efcf295e3d4cbaeea2332fadca258",
        ]
