"""Snapshot codec and host-level snapshot/restore determinism."""

import json

import pytest

from repro.durability.snapshot import SNAPSHOT_VERSION, ShardSnapshot
from repro.durability.state import encode_state
from repro.errors import DurabilityError, SnapshotUnsupportedError
from repro.observability import instrumented
from repro.parallel.host import ShardHost
from repro.parallel.wire import decode_value as decode_state
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload


def workload():
    return ShardStreamWorkload(
        ShardStreamConfig(forces=3, windows_per_force=2, events_per_force=24)
    )


def booted_host(wl, shard_id=0, shard_count=1):
    host = ShardHost(shard_id, shard_count)
    host.apply_blueprint(wl.blueprint())
    return host


class TestStateCodec:
    def test_scalars_and_containers_round_trip(self):
        state = {
            "count": 3,
            "flags": [True, False],
            "pair": (1, "two"),
            "keys": frozenset({1, 2}),
            7: {"nested": None},
        }
        decoded = decode_state(json.loads(json.dumps(encode_state(state))))
        assert decoded == state

    def test_dollar_prefixed_string_keys_survive(self):
        state = {"$ev": "not an event", "$m": [1, 2]}
        assert decode_state(encode_state(state)) == state

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
        decoded = decode_state(
            json.loads(json.dumps(encode_state(event)))
        )
        assert decoded.type_name == event.type_name
        assert dict(decoded.params) == dict(event.params)
        host.close()

    def test_unencodable_state_raises(self):
        with pytest.raises(SnapshotUnsupportedError):
            encode_state({"handle": object()})


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

    def test_missing_snapshot_is_none(self, tmp_path):
        assert ShardSnapshot.load(str(tmp_path / "nope.json")) is None

    def test_corrupt_snapshot_is_an_error(self, tmp_path):
        path = tmp_path / "snapshot.json"
        path.write_text("{broken")
        with pytest.raises(DurabilityError):
            ShardSnapshot.load(str(path))

    def test_version_drift_is_an_error(self):
        data = ShardSnapshot(0, 0, {}, {}).to_dict()
        data["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(DurabilityError):
            ShardSnapshot.from_dict(data)


class TestHostSnapshotRestore:
    def test_snapshot_plus_replay_matches_uninterrupted_run(self):
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
            before = first.drain_results()
            state = first.snapshot_state()
            assert state is not None
            first.close()

            # The crash-recovery shape: a fresh host from the same
            # blueprint, the snapshot restored, the tail replayed.
            recovered = booted_host(wl)
            recovered.restore_state(json.loads(json.dumps(state)))
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
