"""Federation-wide observability, end to end over real shards.

Both backends run the same assertions where the semantics coincide: a
ship wave's trace context fans out to every shard it touches, sampled
waves come back as one assembled trace holding spans from multiple
shards, worker registries aggregate under ``shard`` labels, and
structured-log records ship over the frame protocol with honest loss
accounting.  Sampling determinism is the key cross-backend contract:
the facade's head decision is honored verbatim by the workers — no
worker re-samples with its own cadence.
"""

import gc
import multiprocessing

import pytest

from repro.errors import ShardCrashError, SpecificationError
from repro.observability import INSTRUMENTATION, STRUCTURED_LOG, stage_p95
from repro.parallel import ShardConfig, ShardedFederation, ShardSpec
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="the process backend requires the fork start method"
)

BACKENDS = ("serial", pytest.param("process", marks=needs_fork))


def small_workload(seed=23):
    return ShardStreamWorkload(
        ShardStreamConfig(
            forces=4, windows_per_force=2, events_per_force=30, seed=seed
        )
    )


def observability_config(backend, **overrides):
    defaults = dict(
        shards=2,
        backend=backend,
        batch_size=16,
        instrument=True,
        trace_sample_every=1,
        join_timeout=10.0,
    )
    defaults.update(overrides)
    return ShardConfig(**defaults)


def run_workload(federation, workload):
    federation.ingest(workload.events())
    notifications = federation.drain()
    federation.refresh_observability()
    return notifications


class TestTraceAssembly:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sampled_waves_assemble_across_shards(self, backend):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), observability_config(backend)
        ) as federation:
            notifications = run_workload(federation, workload)
            traces = federation.traces()
            assembler = federation.trace_assembler
            assert len(notifications) == workload.expected_notifications()
            assert traces, "every wave is sampled at trace_sample_every=1"
            multi = [
                trace
                for trace in traces
                if len(assembler.shards_of(trace)) >= 2
            ]
            assert multi, "a full ingest wave must touch both shards"
            for trace in traces:
                for entry in trace["spans"]:
                    # Correct parent/child linkage: every shipped worker
                    # tree hangs off the wave's root span, and its own
                    # root is the shard-side ingest span.
                    assert entry["span"]["name"] == "shard.ingest"
                    assert entry["shard"] in (0, 1)
            assert assembler.orphaned == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_facade_decision_is_honored_verbatim(self, backend):
        # A huge assembler cadence means no wave is ever sampled —
        # workers must not record spans on their own (their local
        # tracer's default cadence would otherwise sample wave 16).
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(),
            observability_config(backend, trace_sample_every=10_000),
        ) as federation:
            run_workload(federation, workload)
            assert federation.traces() == ()
            assert federation.trace_assembler.orphaned == 0
            assert federation.spans_dropped == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sampling_cadence_is_deterministic(self, backend):
        # Same workload, same cadence -> the same waves are sampled, so
        # two runs assemble the same trace ids with the same shard sets.
        def run():
            workload = small_workload()
            with ShardedFederation(
                workload.blueprint(),
                observability_config(backend, trace_sample_every=2),
            ) as federation:
                run_workload(federation, workload)
                assembler = federation.trace_assembler
                return [
                    (trace["trace_id"], assembler.shards_of(trace))
                    for trace in federation.traces()
                ]

        first, second = run(), run()
        assert first == second
        assert first, "cadence 2 must sample at least one wave"


class TestMetricsPlane:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_registries_aggregate_under_shard_labels(self, backend):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), observability_config(backend)
        ) as federation:
            run_workload(federation, workload)
            registry = federation.metrics_registry()
            emitted = registry.get("producer_emitted_total")
            assert emitted is not None
            by_shard: dict = {}
            for labels, value in emitted.series().items():
                by_shard[labels[0]] = by_shard.get(labels[0], 0) + value
            assert set(by_shard) >= {"0", "1"}
            # Every routed event is emitted once by its shard's producer.
            assert by_shard["0"] + by_shard["1"] == len(workload.events())
            text = federation.render_metrics()
            assert 'producer_emitted_total{shard="0"' in text
            assert 'producer_emitted_total{shard="1"' in text

    @needs_fork
    def test_process_workers_ship_stage_histograms(self):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), observability_config("process")
        ) as federation:
            run_workload(federation, workload)
            p95 = stage_p95(federation.metrics_view.registry())
        stages = {stage for __, stage in p95}
        assert "shard.ingest" in stages
        assert {shard for shard, __ in p95} == {"0", "1"}
        assert all(value >= 0 for value in p95.values())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stage_rows_sit_where_the_stages_ran(self, backend):
        """Serial shards run in the facade's process and record into the
        facade's registry; a worker records into its own system's."""
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), observability_config(backend)
        ) as federation:
            run_workload(federation, workload)
            p95 = stage_p95(federation.metrics_registry())
        shards = {shard for shard, __ in p95}
        assert shards == ({"facade"} if backend == "serial" else {"0", "1"})

    @needs_fork
    def test_a_fork_after_an_instrumented_serial_federation_ships_no_stage_row(
        self,
    ):
        """A worker ships what its own system measured: the stages an
        instrumented serial federation timed earlier in this process
        reach neither the workers of an uninstrumented process
        federation forked after it nor that federation's facade row."""
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), observability_config("serial")
        ) as serial:
            run_workload(serial, workload)
            assert "pipeline_stage_us_count" in serial.render_metrics()
        with ShardedFederation(
            workload.blueprint(),
            observability_config("process", instrument=False),
        ) as federation:
            run_workload(federation, workload)
            text = federation.render_metrics()
        assert 'producer_emitted_total{shard="0"' in text
        assert "pipeline_stage_us" not in text

    def test_a_refused_serial_construction_restores_the_process_planes(self):
        """A serial federation that switched the instrumentation plane
        and the structured log on hands both back when its construction
        raises, and leaves the tracer bound to no dead facade's
        registry."""
        workload = small_workload()
        blueprint = workload.blueprint()
        schema = blueprint.specifications[0].process_schema_id
        blueprint.add_specification(ShardSpec("bad", schema, "not a spec"))
        assert not INSTRUMENTATION.enabled and not STRUCTURED_LOG.enabled
        with pytest.raises(SpecificationError):
            ShardedFederation(blueprint, observability_config("serial"))
        assert not INSTRUMENTATION.enabled
        assert not STRUCTURED_LOG.enabled
        assert INSTRUMENTATION.tracer.registry is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_federation_health_sees_worker_breaches(self, backend):
        from repro.observability.health import threshold_rule

        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), observability_config(backend)
        ) as federation:
            federation.ingest(workload.events())
            # No drain: the workers' participant queues stay loaded, so
            # the worker-side queue-depth gauge is breachable.
            federation.flush_buffers()
            breached = federation.health(
                rules=(threshold_rule("queue-depth", "queue_depth", ">", 0),)
            )
            relaxed = federation.health(
                rules=(
                    threshold_rule(
                        "queue-depth", "queue_depth", ">", 1_000_000
                    ),
                )
            )
        assert breached.status == "degraded"
        assert breached.exit_code == 1
        assert relaxed.status == "ok"
        assert relaxed.exit_code == 0


def counting_updates(federation):
    """Record the shard of every ``FederationMetricsView.update``."""
    updates = []
    update = federation.metrics_view.update

    def counting(shard, snapshot):
        updates.append(shard)
        update(shard, snapshot)

    federation.metrics_view.update = counting
    return updates


def collector_off(function, *args):
    """Run *function* with the garbage collector off (as the call
    counts are taken)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return function(*args)
    finally:
        if collecting:
            gc.enable()


class TestRegistryPull:
    """Count pins of the pulled registry: a drain, a deploy, an
    undeploy and ``shard_stats()`` carry no registry snapshot, and a
    registry read pulls one per live shard, in one round trip."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_write_and_stats_paths_pull_no_registry(self, backend):
        workload = small_workload()
        blueprint = workload.blueprint()
        spec = blueprint.specifications[0]
        extra = ShardSpec("extra", spec.process_schema_id, spec.text)
        with ShardedFederation(
            blueprint, observability_config(backend)
        ) as federation:
            updates = counting_updates(federation)
            federation.ingest(workload.events())
            collector_off(federation.drain)
            collector_off(federation.deploy, extra)
            collector_off(federation.undeploy, "extra")
            collector_off(federation.shard_stats)
            assert updates == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_registry_read_pulls_once_per_live_shard(self, backend):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), observability_config(backend)
        ) as federation:
            updates = counting_updates(federation)
            federation.ingest(workload.events())
            federation.drain()
            collector_off(federation.refresh_observability)
            assert updates == [0, 1]
            collector_off(federation.metrics_registry)
            assert updates == [0, 1] * 2
            collector_off(federation.render_metrics)
            collector_off(federation.health)
            assert updates == [0, 1] * 4

    @needs_fork
    def test_a_registry_read_skips_a_dead_shard(self):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), observability_config("process")
        ) as federation:
            federation.ingest(workload.events())
            federation.drain()
            federation.metrics_registry()
            federation.shards[1].process.kill()
            federation.shards[1].process.join()
            with pytest.raises(ShardCrashError):
                federation.drain()
            updates = counting_updates(federation)
            emitted = federation.metrics_registry().get("producer_emitted_total")
            assert updates == [0]
            # The dead shard keeps the row of its last pulled snapshot.
            assert {labels[0] for labels in emitted.series()} == {"0", "1"}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_read_after_a_drain_is_current_without_a_refresh(self, backend):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), observability_config(backend)
        ) as federation:
            federation.ingest(workload.events())
            federation.drain()
            emitted = federation.metrics_registry().get("producer_emitted_total")
            assert sum(emitted.series().values()) == len(workload.events())


class TestLogShipping:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_records_reach_the_merged_view(self, backend):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), observability_config(backend)
        ) as federation:
            run_workload(federation, workload)
            view = federation.logs()
        records = view.records()
        assert records, "an instrumented run emits structured records"
        assert all("shard" in record for record in records)
        assert all("_seq" in record for record in records)
        keys = [
            (record.get("tick") or 0, record["shard"], record["_seq"])
            for record in records
        ]
        assert keys == sorted(keys)

    @needs_fork
    def test_per_shard_streams_have_no_duplicate_seq(self):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), observability_config("process")
        ) as federation:
            run_workload(federation, workload)
            # A second refresh must not re-ship already-drained records.
            federation.refresh_observability()
            view = federation.logs()
        for shard in {record["shard"] for record in view.records()}:
            seqs = [
                record["_seq"] for record in view.records(shard=shard)
            ]
            assert len(seqs) == len(set(seqs))
        assert view.dropped() == {}

    def test_ship_logs_off_ships_nothing(self):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(),
            observability_config("serial", instrument=False),
        ) as federation:
            run_workload(federation, workload)
            view = federation.logs()
        assert view.records() == ()


class TestStatsAggregation:
    def test_non_numeric_worker_stats_are_namespaced_not_dropped(self):
        # Regression: stats() used to sum int values and silently drop
        # everything else a shard reported.
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(),
            ShardConfig(shards=2, backend="serial"),
        ) as federation:
            federation.ingest(workload.events())
            federation.drain()
            original = federation.shards[1].host.stats

            def odd_stats():
                stats = dict(original())
                stats["wal_state"] = "compacting"
                stats["degraded"] = True
                return stats

            federation.shards[1].host.stats = odd_stats
            totals = federation.stats()
        assert totals["shard1/wal_state"] == "compacting"
        # Booleans are flags, not counters: sum(True) would read as 1.
        assert totals["shard1/degraded"] is True
        assert totals["events_ingested"] == len(workload.events())
        assert "wal_state" not in totals
        assert totals["notifications_merged"] == (
            workload.expected_notifications()
        )

    def test_numeric_stats_still_sum_across_shards(self):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), ShardConfig(shards=3, backend="serial")
        ) as federation:
            federation.ingest(workload.events())
            federation.drain()
            totals = federation.stats()
            rows = federation.shard_stats()
        assert totals["events_ingested"] == sum(
            row["events_ingested"] for row in rows
        )
        assert totals["shards"] == 3
        assert totals["shards_alive"] == 3
