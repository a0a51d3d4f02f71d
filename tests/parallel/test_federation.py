"""The sharding facade: API, merge, differential (serial backend unless
a test names another)."""

import multiprocessing

import pytest

from repro.errors import ParallelError
from repro.parallel import (
    FederationBlueprint,
    ShardConfig,
    ShardSpec,
    ShardedFederation,
)
from repro.parallel.host import ShardHost
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload


def small_workload(**overrides):
    defaults = dict(forces=4, windows_per_force=2, events_per_force=30)
    defaults.update(overrides)
    return ShardStreamWorkload(ShardStreamConfig(**defaults))


def run(workload, shards, instrument=True, backend="serial"):
    with ShardedFederation(
        workload.blueprint(),
        ShardConfig(shards=shards, backend=backend, instrument=instrument),
    ) as federation:
        federation.ingest(workload.events())
        return federation.drain(), federation.stats()


class TestShardConfig:
    def test_rejects_zero_shards(self):
        with pytest.raises(ParallelError):
            ShardConfig(shards=0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ParallelError):
            ShardConfig(backend="threads")

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ParallelError):
            ShardConfig(batch_size=0)


class TestSerialFederation:
    def test_every_expected_notification_is_delivered(self):
        workload = small_workload()
        notifications, stats = run(workload, shards=2)
        assert len(notifications) == workload.expected_notifications()
        assert stats["composites_recognized"] == (
            workload.expected_recognitions()
        )
        assert stats["shards_alive"] == 2

    def test_merge_order_is_the_merge_key_order(self):
        notifications, __ = run(small_workload(), shards=3)
        keys = [n.merge_key for n in notifications]
        assert keys == sorted(keys)

    def test_signatures_present_when_instrumented(self):
        notifications, __ = run(small_workload(), shards=2, instrument=True)
        assert all(n.signature is not None for n in notifications)

    def test_sharded_is_a_reordering_of_serial(self):
        workload = small_workload()
        base, __ = run(workload, shards=1)
        sharded, __ = run(workload, shards=3)
        assert sorted(map(repr, (n.signature for n in sharded))) == (
            sorted(map(repr, (n.signature for n in base)))
        )

    def test_per_instance_order_is_preserved(self):
        workload = small_workload(windows_per_force=3)

        def per_instance(notifications):
            streams = {}
            for n in notifications:
                streams.setdefault(n.process_instance_id, []).append(
                    n.signature
                )
            return streams

        base, __ = run(workload, shards=1)
        sharded, __ = run(workload, shards=3)
        assert per_instance(sharded) == per_instance(base)

    def test_runtime_deploy_and_undeploy_fan_out(self):
        workload = small_workload(windows_per_force=1)
        blueprint = workload.blueprint()
        extra = ShardSpec(
            spec_id="spec-extra",
            process_schema_id=workload.config.process_schema_id,
            text=workload.specification_text(0).replace("AS_TF", "AS_XX"),
        )
        with ShardedFederation(
            blueprint, ShardConfig(shards=2, backend="serial")
        ) as federation:
            before = federation.stats()["specs_deployed"]
            federation.deploy(extra)
            assert federation.stats()["specs_deployed"] == before + 2
            assert extra in federation.blueprint.specifications
            federation.undeploy("spec-extra")
            assert federation.stats()["specs_deployed"] == before
            assert extra not in federation.blueprint.specifications

    def test_duplicate_deploy_raises(self):
        workload = small_workload(windows_per_force=1)
        with ShardedFederation(
            workload.blueprint(), ShardConfig(shards=2)
        ) as federation:
            with pytest.raises(ParallelError):
                federation.deploy(workload.blueprint().specifications[0])

    def test_buffering_respects_batch_size(self):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(),
            ShardConfig(shards=2, batch_size=1000),
        ) as federation:
            federation.ingest(workload.events()[:10])
            assert sum(
                row["buffered"] for row in federation.shard_stats()
            ) == 10
            federation.flush_buffers()
            assert sum(
                row["buffered"] for row in federation.shard_stats()
            ) == 0

    def test_healthy_and_close_idempotent(self):
        workload = small_workload(windows_per_force=1)
        federation = ShardedFederation(
            workload.blueprint(), ShardConfig(shards=2)
        )
        assert federation.healthy()
        federation.close()
        federation.close()


class TestShardHost:
    def test_blueprint_with_unknown_member_is_rejected(self):
        blueprint = FederationBlueprint()
        blueprint.add_participant("u-1", "analyst")
        blueprint.add_role("team", ["u-1", "u-ghost"])
        host = ShardHost(0, 1)
        with pytest.raises(ParallelError):
            host.apply_blueprint(blueprint)

    def test_unregistered_event_type_is_rejected(self):
        from repro.events.event import Event
        from repro.events.external import NEWS_EVENT_TYPE

        host = ShardHost(0, 1)
        event = Event.trusted(
            NEWS_EVENT_TYPE,
            {"time": 1, "source": "E_news", "queryId": "q", "headline": "h"},
        )
        with pytest.raises(ParallelError):
            host.ingest([event])

    def test_blueprint_wire_round_trip(self):
        workload = small_workload(windows_per_force=1)
        blueprint = workload.blueprint()
        back = FederationBlueprint.from_wire(blueprint.to_wire())
        assert back.participants == blueprint.participants
        assert back.roles == blueprint.roles
        assert back.specifications == blueprint.specifications


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_a_drained_shard_holds_nothing(backend):
    """A notification leaves its shard with the drain that merges it, so
    a drained federation reads zero depth and lag and stays healthy."""
    if backend == "process" and (
        "fork" not in multiprocessing.get_all_start_methods()
    ):
        pytest.skip("the process backend requires the fork start method")
    workload = small_workload(
        forces=2, windows_per_force=60, events_per_force=80
    )
    config = ShardConfig(shards=2, backend=backend)
    with ShardedFederation(workload.blueprint(), config) as federation:
        federation.ingest(workload.events())
        merged = federation.drain()
        stats = federation.stats()
        health = federation.health()
    assert len(merged) == stats["notifications"] > 0
    assert len(merged) == workload.expected_notifications()
    assert stats["queue_depth"] == 0
    assert health.status == "ok"
    readings = {state.rule.metric: state.last_value for state in health.rules}
    assert readings["queue_depth"] == readings["delivery_lag"] == 0
