"""The one shard protocol: three implementations, one behaviour.

``ShardedFederation`` drives every shard through
:class:`repro.parallel.federation.Shard` alone.  These tests drive the
protocol *directly* — no facade logic in between — on a serial, a
process and a supervised shard, and require the same answers.
"""

import dataclasses
import multiprocessing
from collections import Counter

import pytest

from repro.durability.supervisor import SupervisedShard
from repro.parallel import ShardConfig, ShardSpec, ShardedFederation
from repro.parallel.federation import ProcessShard, SerialShard
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)

KINDS = {
    "serial": (SerialShard, {"backend": "serial"}),
    "process": (ProcessShard, {"backend": "process"}),
    "supervised": (SupervisedShard, {"backend": "process", "durable": True}),
}

DELETED = (
    "flush",
    "stats",
    "sync",
    "begin_flush",
    "end_flush",
    "begin_stats",
    "end_stats",
    "_stats_round_trip",
)


def run_script(kind, tmp_path):
    """ingest, deploy, ingest, undeploy, drain, stats, close — on the
    shard itself; returns ``(records, stats, errors)``."""
    shard_class, options = KINDS[kind]
    workload = ShardStreamWorkload(
        ShardStreamConfig(forces=4, windows_per_force=2, events_per_force=30)
    )
    events = workload.events()
    half = len(events) // 2
    extra = ShardSpec(
        spec_id="spec-extra",
        process_schema_id=workload.config.process_schema_id,
        text=workload.specification_text(0).replace("AS_TF", "AS_XX"),
    )
    config = ShardConfig(
        shards=1,
        backend=options["backend"],
        instrument=True,
        join_timeout=10.0,
        durable_dir=str(tmp_path) if options.get("durable") else None,
    )
    with ShardedFederation(workload.blueprint(), config) as federation:
        (shard,) = federation.shards
        assert type(shard) is shard_class
        assert (shard.channel is None) == (kind == "serial")
        assert shard.alive and shard.shard_id == 0

        def send(batch):
            for start in range(0, len(batch), 16):
                shard.send_events(batch[start : start + 16])

        send(events[:half])
        shard.deploy(extra)
        send(events[half:])
        shard.undeploy(extra.spec_id)
        shard.begin("flush")
        records = shard.end("flush")
        shard.begin("flush")
        assert shard.end("flush") == []  # a drain hands over once
        shard.begin("stats")
        stats, errors = shard.end("stats")
    assert not shard.alive
    return records, stats, errors


@needs_fork
def test_three_shards_one_behaviour(tmp_path):
    runs = {kind: run_script(kind, tmp_path / kind) for kind in KINDS}
    records, stats, errors = runs["serial"]
    assert errors == []
    assert any(r["schema"].startswith("AS_XX") for r in records)
    assert all(r["signature"] is not None for r in records)

    def per_instance(records):
        streams = {}
        for record in records:
            streams.setdefault(record["instance"], []).append(
                record["signature"]
            )
        return streams

    for kind in ("process", "supervised"):
        other_records, other_stats, other_errors = runs[kind]
        assert other_errors == []
        assert per_instance(other_records) == per_instance(records), kind
        assert Counter(r["signature"] for r in other_records) == Counter(
            r["signature"] for r in records
        ), kind
        assert [r["seq"] for r in other_records] == [
            r["seq"] for r in records
        ], kind
        extras = {"recoveries", "journal_frames"} if kind == "supervised" else set()
        assert set(other_stats) == set(stats) | extras, kind
        for key in ("events_ingested", "notifications", "specs_deployed"):
            assert other_stats[key] == stats[key], (kind, key)


def test_the_shard_surface_is_begin_and_end():
    for shard_class, __ in KINDS.values():
        for name in ("begin", "end", "send_events", "deploy", "undeploy", "close"):
            assert callable(getattr(shard_class, name)), (shard_class, name)
        for name in DELETED:
            assert not hasattr(shard_class, name), (shard_class, name)


def test_shard_config_has_ten_fields():
    assert len(dataclasses.fields(ShardConfig)) == 10
    # Log shipping was folded into ``instrument``.
    with pytest.raises(TypeError, match="ship_logs"):
        ShardConfig(ship_logs=True)
