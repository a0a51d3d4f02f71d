"""Recovery must not double-count shipped observability data.

A recovered worker replays the journal tail: the same events run again,
the same structured-log records are re-emitted, and — without care —
the same sampled waves would re-ship their span batches.  The defenses
under test: the worker ingests every event frame below the supervisor's
``replay`` mark with its trace sampling decision forced off (spans ship
once, pre-crash), and the supervisor filters re-shipped log records
through the ``_seq`` high-watermark (the snapshot restores
the worker's emission counter, so replayed records collide exactly with
the sequence numbers already merged).
"""

import multiprocessing
import os
import signal

import pytest

from repro.durability.supervisor import SNAPSHOT_FILENAME
from repro.parallel import ShardConfig, ShardedFederation
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

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
        trace_sample_every=1,
        join_timeout=10.0,
        durable_dir=str(tmp_path / "durable"),
        snapshot_every=0,
    )
    defaults.update(overrides)
    return ShardConfig(**defaults)


def kill_worker(shard):
    worker = shard.inner
    worker.process._popen._send_signal(signal.SIGKILL)  # noqa: SLF001
    worker.process.join(10.0)


def chunks(sequence, size):
    for start in range(0, len(sequence), size):
        yield sequence[start : start + size]


def drive(federation, events, wave_size=30):
    """Feed *events* in waves: each drain flushes one batch per shard,
    so every assembled trace holds at most one span tree per shard."""
    merged = []
    for chunk in chunks(events, wave_size):
        federation.ingest(chunk)
        merged.extend(federation.drain())
    return merged


def assert_no_double_counting(federation):
    assembler = federation.trace_assembler
    # Replayed waves ship no span batches (sampling stripped), so no
    # trace holds two trees from the same shard and nothing is orphaned.
    for trace in federation.traces():
        shards = [entry["shard"] for entry in trace["spans"]]
        assert len(shards) == len(set(shards))
    assert assembler.orphaned == 0
    # Replayed log records are filtered by the high-watermark, so each
    # shard's merged stream has strictly unique sequence numbers.
    view = federation.logs()
    for shard in {record["shard"] for record in view.records()}:
        seqs = [record["_seq"] for record in view.records(shard=shard)]
        assert len(seqs) == len(set(seqs))
    assert view.dropped() == {}


class TestRecoveryDoubleCounting:
    def test_journal_replay_does_not_reship_spans_or_logs(self, tmp_path):
        workload = small_workload()
        events = workload.events()
        half = len(events) // 2
        with ShardedFederation(
            workload.blueprint(), durable_config(tmp_path)
        ) as federation:
            merged = drive(federation, events[:half])
            federation.refresh_observability()
            shipped_before = {
                shard: len(federation.logs().records(shard=shard))
                for shard in (0, 1)
            }
            assert any(shipped_before.values())
            traces_before = len(federation.traces())
            assert traces_before > 0

            kill_worker(federation.shards[0])
            merged.extend(drive(federation, events[half:]))
            federation.refresh_observability()

            assert federation.shards[0].recoveries == 1
            assert_no_double_counting(federation)
            # The plane kept moving after the crash.
            assert len(federation.traces()) > traces_before
            assert len(merged) == workload.expected_notifications()

    def test_snapshot_restore_keeps_log_watermark_aligned(self, tmp_path):
        # A tight snapshot cadence: recovery boots from a snapshot whose
        # restored emission counter makes replayed record seqs collide
        # with the already-shipped ones.
        workload = small_workload()
        events = workload.events()
        half = len(events) // 2
        with ShardedFederation(
            workload.blueprint(),
            durable_config(tmp_path, snapshot_every=2),
        ) as federation:
            drive(federation, events[:half])
            federation.refresh_observability()
            shard = federation.shards[0]
            assert os.path.exists(
                os.path.join(
                    str(tmp_path / "durable"), "shard-0", SNAPSHOT_FILENAME
                )
            )
            kill_worker(shard)
            drive(federation, events[half:])
            federation.refresh_observability()

            assert shard.recoveries == 1
            assert shard._snapshot is not None  # recovered from it
            assert_no_double_counting(federation)

    def test_crashed_shards_metrics_resume_under_its_label(self, tmp_path):
        workload = small_workload()
        events = workload.events()
        half = len(events) // 2
        with ShardedFederation(
            workload.blueprint(), durable_config(tmp_path)
        ) as federation:
            drive(federation, events[:half])
            kill_worker(federation.shards[1])
            drive(federation, events[half:])
            federation.refresh_observability()
            registry = federation.metrics_registry()
            emitted = registry.get("producer_emitted_total")
            by_shard: dict = {}
            for labels, value in emitted.series().items():
                by_shard[labels[0]] = by_shard.get(labels[0], 0) + value
            # The replacement worker's registry replays to the full
            # per-shard count: replay rebuilds state, and the latest
            # snapshot per shard replaces (never adds to) the old one.
            assert by_shard["0"] + by_shard["1"] == len(events)


class TestSnapshotCount:
    def test_each_federation_counts_its_own_snapshots(self, tmp_path):
        """Two durable federations in one process, one snapshot each:
        each facade row reads its own one, and no worker ships the
        counter under its shard label (a worker forked after the first
        federation counted does not inherit the count)."""
        workload = small_workload()
        counts = []
        for name in ("first", "second"):
            config = durable_config(tmp_path / name, shards=1, instrument=False)
            with ShardedFederation(workload.blueprint(), config) as federation:
                drive(federation, workload.events())
                assert federation.shards[0].take_snapshot() is not None
                federation.refresh_observability()
                counter = federation.metrics_registry().get(
                    "shard_snapshots_total"
                )
                counts.append(counter.series())
        assert counts == [{("facade",): 1.0}, {("facade",): 1.0}]
