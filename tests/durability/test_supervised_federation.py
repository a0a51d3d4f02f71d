"""Crash recovery through the shard supervisor (process backend).

Every test SIGKILLs a live worker and asserts the supervised federation
continues as if nothing happened: same merged notification stream (the
exact-continuation contract QE12 measures at scale), counters intact,
journals and snapshots on disk where the issue says they must be.
"""

import multiprocessing
import os
import signal

import pytest

from repro.durability.log import JOURNAL_MAGIC, load_journal
from repro.durability.snapshot import ShardSnapshot
from repro.durability.supervisor import JOURNAL_FILENAME, SNAPSHOT_FILENAME
from repro.errors import DurabilityError, ParallelError, ShardCrashError
from repro.parallel import ShardConfig, ShardSpec, ShardedFederation
from repro.parallel.codec import T_DICT, T_SELF
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

from tests.durability.test_frame_log import (
    JSON_ERA_JOURNAL,
    MALFORMED_BASES,
    journal_with_base,
)
from tests.durability.test_journal_writers import decode_each_record_alone
from tests.exact import assert_same_stream, decoded, exactly, signatures
from tests.parallel.test_process_backend import (
    assert_pipe_bounds_the_stall,
    busiest_shard,
    live_workers,
    pipe_filling_workload,
    serial_stream,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)


def small_workload(seed=23):
    return ShardStreamWorkload(
        ShardStreamConfig(
            forces=4, windows_per_force=2, events_per_force=30, seed=seed
        )
    )


def durable_config(tmp_path, **overrides):
    defaults = dict(
        shards=2,
        backend="process",
        instrument=True,
        join_timeout=10.0,
        durable_dir=str(tmp_path / "durable"),
        batch_size=16,
    )
    defaults.update(overrides)
    return ShardConfig(**defaults)


def kill_worker(shard):
    worker = shard.inner
    worker.process._popen._send_signal(signal.SIGKILL)  # noqa: SLF001
    worker.process.join(10.0)


def reference_run(workload):
    with ShardedFederation(
        workload.blueprint(),
        ShardConfig(
            shards=2, backend="process", instrument=True, join_timeout=10.0
        ),
    ) as federation:
        federation.ingest(workload.events())
        return federation.drain()


class TestCrashRecovery:
    def test_recovered_stream_equals_the_uninterrupted_one(self, tmp_path):
        workload = small_workload()
        events = workload.events()
        cut = len(events) // 2
        with ShardedFederation(
            workload.blueprint(), durable_config(tmp_path)
        ) as federation:
            federation.ingest(events[:cut])
            federation.drain()
            kill_worker(federation.shards[0])
            federation.ingest(events[cut:])
            federation.drain()
            stats = federation.stats()
            merged = list(federation.delivered)
        assert stats["recoveries"] == 1
        assert len(merged) == workload.expected_notifications()
        assert signatures(merged) == signatures(reference_run(workload))

    def test_per_instance_order_survives_recovery(self, tmp_path):
        workload = small_workload(seed=31)
        events = workload.events()
        cut = len(events) // 3
        with ShardedFederation(
            workload.blueprint(), durable_config(tmp_path)
        ) as federation:
            federation.ingest(events[:cut])
            federation.drain()
            kill_worker(federation.shards[1])
            federation.ingest(events[cut:])
            federation.drain()
            merged = list(federation.delivered)
        by_instance = {}
        for notification in merged:
            by_instance.setdefault(
                notification.process_instance_id, []
            ).append(notification)
        reference = {}
        for notification in reference_run(workload):
            reference.setdefault(
                notification.process_instance_id, []
            ).append(notification)
        assert by_instance.keys() == reference.keys()
        for instance, sequence in reference.items():
            assert [n.signature for n in by_instance[instance]] == [
                n.signature for n in sequence
            ]

    def test_double_crash_of_the_same_shard(self, tmp_path):
        workload = small_workload()
        events = workload.events()
        third = len(events) // 3
        with ShardedFederation(
            workload.blueprint(), durable_config(tmp_path)
        ) as federation:
            federation.ingest(events[:third])
            federation.drain()
            kill_worker(federation.shards[0])
            federation.ingest(events[third : 2 * third])
            federation.drain()
            kill_worker(federation.shards[0])
            federation.ingest(events[2 * third :])
            federation.drain()
            stats = federation.stats()
            merged = list(federation.delivered)
        assert stats["recoveries"] == 2
        assert signatures(merged) == signatures(reference_run(workload))

    def test_recovery_replays_a_runtime_deploy(self, tmp_path):
        workload = small_workload()
        events = workload.events()
        cut = len(events) // 2
        extra = ShardSpec(
            spec_id="spec-extra",
            process_schema_id=workload.config.process_schema_id,
            text=workload.specification_text(0).replace("AS_TF", "AS_XX"),
        )
        with ShardedFederation(
            workload.blueprint(), durable_config(tmp_path)
        ) as federation:
            federation.ingest(events[:cut])
            federation.drain()
            federation.deploy(extra)
            kill_worker(federation.shards[0])
            federation.ingest(events[cut:])
            federation.drain()
            merged = list(federation.delivered)
            assert federation.healthy()
        with ShardedFederation(
            workload.blueprint(),
            ShardConfig(
                shards=2,
                backend="process",
                instrument=True,
                join_timeout=10.0,
            ),
        ) as reference:
            reference.ingest(events[:cut])
            reference.drain()
            reference.deploy(extra)
            reference.ingest(events[cut:])
            reference.drain()
            expected = list(reference.delivered)
        assert signatures(merged) == signatures(expected)
        assert any(n.schema_name.startswith("AS_XX") for n in merged)

    def test_snapshot_then_crash_recovers_from_the_snapshot(self, tmp_path):
        workload = small_workload()
        events = workload.events()
        cut = 2 * len(events) // 3
        config = durable_config(tmp_path, snapshot_every=2, batch_size=8)
        with ShardedFederation(workload.blueprint(), config) as federation:
            federation.ingest(events[:cut])
            federation.drain()
            shard = federation.shards[0]
            # The cadence fired: a snapshot exists and the journal was
            # compacted down to the frames it does not cover.
            assert os.path.exists(shard.snapshot_path)
            assert shard.journal.base > 0
            kill_worker(federation.shards[0])
            federation.ingest(events[cut:])
            federation.drain()
            stats = federation.stats()
            merged = list(federation.delivered)
        assert stats["recoveries"] == 1
        assert signatures(merged) == signatures(reference_run(workload))

    def test_crash_during_idle_read_is_recovered_too(self, tmp_path):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), durable_config(tmp_path)
        ) as federation:
            federation.ingest(workload.events())
            federation.drain()
            kill_worker(federation.shards[0])
            stats = federation.stats()  # read path: retried after recovery
            assert stats["recoveries"] == 1
            assert stats["shards_alive"] == 2
            assert federation.healthy()

    def test_max_recoveries_is_a_hard_stop(self, tmp_path):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), durable_config(tmp_path, max_recoveries=1)
        ) as federation:
            federation.ingest(workload.events())
            federation.drain()
            kill_worker(federation.shards[0])
            assert federation.stats()["recoveries"] == 1  # recovered once
            kill_worker(federation.shards[0])
            # The per-shard rows (like the aggregate below) degrade
            # instead of raising ...
            assert federation.shard_stats()[0]["alive"] is False
            assert not federation.healthy()
            # ... and a collective that needs every shard says why.
            with pytest.raises(ShardCrashError, match="giving up"):
                federation.drain()
            assert federation.stats()["shards_alive"] == 1


class TestDurableLifecycle:
    def test_serial_backend_refuses_durability(self, tmp_path):
        with pytest.raises(ParallelError, match="process backend"):
            ShardConfig(
                shards=2, backend="serial", durable_dir=str(tmp_path)
            )

    def test_journals_and_snapshots_land_on_disk(self, tmp_path):
        workload = small_workload()
        config = durable_config(tmp_path, snapshot_every=2, batch_size=8)
        with ShardedFederation(workload.blueprint(), config) as federation:
            federation.ingest(workload.events())
            federation.drain()
            rows = federation.shard_stats()
        for row in rows:
            assert row["recoveries"] == 0
            assert row["journal_frames"] > 0
        root = tmp_path / "durable"
        for shard_id in range(2):
            journal = root / f"shard-{shard_id}" / JOURNAL_FILENAME
            snapshot = root / f"shard-{shard_id}" / SNAPSHOT_FILENAME
            assert journal.is_file()
            assert snapshot.is_file()
            assert not load_journal(str(journal)).torn
            loaded = ShardSnapshot.load(str(snapshot))
            assert loaded.shard_id == shard_id
            assert loaded.frame_index > 0

    def test_torn_journal_tail_is_repaired_on_boot(self, tmp_path):
        workload = small_workload()
        root = tmp_path / "durable"
        journal_dir = root / "shard-0"
        journal_dir.mkdir(parents=True)
        journal_path = journal_dir / JOURNAL_FILENAME
        # A previous facade died mid-append: a complete frame would have
        # been longer than what hit the disk.
        with open(journal_path, "wb") as handle:
            handle.write(JOURNAL_MAGIC + (1 << 16).to_bytes(4, "big"))
            handle.write(bytes((T_SELF, T_DICT, 1)))
        with ShardedFederation(
            workload.blueprint(), durable_config(tmp_path)
        ) as federation:
            assert federation.shards[0].journal.frame_count == 0
            federation.ingest(workload.events())
            merged = federation.drain()
        assert len(merged) == workload.expected_notifications()
        frames = load_journal(str(journal_path)).frames
        assert frames and all(f["kind"] == "events" for f in frames)

    def test_journaled_frames_replay_byte_for_byte(self, tmp_path):
        # The journal speaks the worker wire protocol: what is on disk
        # is exactly what the replacement worker is fed.
        workload = small_workload()
        events = workload.events()
        with ShardedFederation(
            workload.blueprint(), durable_config(tmp_path)
        ) as federation:
            federation.ingest(events)
            federation.drain()
            shard = federation.shards[0]
            shard.journal.sync()
            frames = decoded(shard.journal.tail(0))
            shipped = sum(len(frame["events"]) for frame in frames)
            assert shipped == (
                federation.shard_stats()[0]["events_ingested"]
            )
            assert all(frame["kind"] == "events" for frame in frames)


class TestBinaryChannelRecovery:
    def test_crash_mid_wave_resets_the_intern_tables(self, tmp_path):
        # Recovery builds a fresh multiplexer channel — stream tables
        # born empty on both ends — and there is no other table state
        # to lose: journaled frames are self-contained, each carrying
        # its own definitions, so neither the dead channel nor the
        # journal holds any.  The decoded tail replays through the new
        # channel's stream tables; the waves after it are
        # self-contained again.  Crash mid-wave — frames
        # in flight, nothing drained — and the continued stream must
        # still match the uninterrupted run.
        workload = small_workload(seed=47)
        events = workload.events()
        cut = len(events) // 2
        with ShardedFederation(
            workload.blueprint(), durable_config(tmp_path)
        ) as federation:
            shard = federation.shards[0]
            federation.ingest(events[:cut])  # no drain: waves in flight
            old_channel = shard.inner.channel
            kill_worker(shard)
            federation.ingest(events[cut:])  # first send recovers
            merged = federation.drain()
            assert shard.inner.channel is not old_channel
            assert federation.stats()["recoveries"] == 1
            merged = list(federation.delivered)
            shard.journal.sync()
            journal = load_journal(shard.journal.path)
            # Every record written before, during and after the crash
            # decodes on its own, under a decoder that has seen nothing.
            assert journal.self_contained == len(journal.frames) > 0
            assert exactly(
                decode_each_record_alone(shard.journal.path), journal.frames
            )
        assert len(merged) == workload.expected_notifications()
        assert signatures(merged) == signatures(reference_run(workload))

    @pytest.mark.parametrize("base", MALFORMED_BASES, ids=repr)
    def test_a_malformed_compaction_base_is_refused_at_boot(
        self, tmp_path, base
    ):
        # The supervisor's open raises the typed error, so the facade
        # reaps every worker it forked before re-raising.
        workload = small_workload(seed=53)
        shard = tmp_path / "durable" / "shard-0"
        shard.mkdir(parents=True)
        journal_with_base(shard / JOURNAL_FILENAME, base)
        before = live_workers()
        with pytest.raises(DurabilityError, match="base"):
            ShardedFederation(workload.blueprint(), durable_config(tmp_path))
        assert live_workers() == before

    def test_a_json_era_journal_is_refused_at_boot(self, tmp_path):
        # A durable directory written before the binary codec existed is
        # refused by the supervisor opening it, with every worker reaped
        # and the journal untouched (DESIGN note 22).
        workload = small_workload(seed=53)
        config = durable_config(tmp_path)
        shard = tmp_path / "durable" / "shard-1"
        shard.mkdir(parents=True)
        (shard / JOURNAL_FILENAME).write_bytes(JSON_ERA_JOURNAL)
        children = len(multiprocessing.active_children())
        with pytest.raises(DurabilityError, match="JSON-era journal"):
            ShardedFederation(workload.blueprint(), config)
        assert len(multiprocessing.active_children()) == children
        assert (shard / JOURNAL_FILENAME).read_bytes() == JSON_ERA_JOURNAL


class TestInflightRecovery:
    def test_sigkill_with_a_full_pipe_recovers_exactly(self, tmp_path):
        # The overlapped-I/O recovery contract: stop a worker so its
        # pipe fills and batches defer facade-side, SIGKILL it with a
        # pipe's worth of frames unread, and continue.  The journal
        # holds every queued frame (journal-before-send), the
        # replacement worker replays them — the final stream must equal
        # the serial backend's, multiset and per-instance order both.
        workload = pipe_filling_workload(seed=61)
        events = workload.events()
        cut = len(events) // 2
        victim = busiest_shard(workload)
        config = durable_config(tmp_path)
        with ShardedFederation(workload.blueprint(), config) as federation:
            shard = federation.shards[victim]
            shard.inner.process._popen._send_signal(signal.SIGSTOP)  # noqa: SLF001
            federation.ingest(events[:cut])  # fills the pipe, defers
            assert_pipe_bounds_the_stall(federation, victim)
            kill_worker(shard)
            federation.ingest(events[cut:])  # first send recovers
            federation.drain()
            stats = federation.stats()
            merged = list(federation.delivered)
        assert stats["recoveries"] == 1
        assert len(merged) == workload.expected_notifications()
        assert_same_stream(merged, serial_stream(workload))
