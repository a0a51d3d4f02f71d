"""The federation observability plane, unit level.

Covers the facade-side pieces in isolation: registry snapshot/merge
round trips through the pipe codec (property-tested — the trip must be
lossless for the metrics plane to aggregate honestly), the trace assembler's stitching
and accounting, the structured-log drain cursor and the merged log
view's ordering, and SLO evaluation over the shards' snapshots.
The end-to-end paths (real shards shipping over the wire) live in
``tests/parallel/test_federated_observability.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import (
    DEFAULT_SAMPLE_EVERY,
    FederationLogView,
    MetricsError,
    MetricsRegistry,
    StructuredLog,
    TraceAssembler,
    TraceContext,
    stage_p95,
)
from repro.observability.health import threshold_rule
from repro.observability.registry import Gauge, Histogram
from repro.observability.selfawareness import FederationMetricsView
from repro.parallel.codec import BinaryDecoder, BinaryEncoder


# -- snapshot / merge round trips (property-tested) ------------------------

label_values = st.text(
    alphabet="abcdefXYZ-_.0123456789", min_size=0, max_size=8
)


def label_tuples(arity):
    return st.lists(
        st.tuples(*[label_values] * arity), min_size=1, max_size=4, unique=True
    )


@st.composite
def registries(draw):
    """A registry with a few counters, gauges, and histograms, each
    carrying randomly labelled series."""
    registry = MetricsRegistry()
    for index in range(draw(st.integers(0, 3))):
        arity = draw(st.integers(0, 2))
        counter = registry.counter(
            f"counter_{index}", f"c{index}", tuple(f"l{i}" for i in range(arity))
        )
        for labels in draw(label_tuples(arity)):
            counter.inc(draw(st.integers(0, 1000)), labels)
    for index in range(draw(st.integers(0, 3))):
        arity = draw(st.integers(0, 2))
        gauge = registry.gauge(
            f"gauge_{index}", f"g{index}", tuple(f"l{i}" for i in range(arity))
        )
        for labels in draw(label_tuples(arity)):
            gauge.set(draw(st.integers(-500, 500)), labels)
    for index in range(draw(st.integers(0, 2))):
        arity = draw(st.integers(0, 1))
        edges = sorted(
            draw(
                st.lists(
                    st.integers(1, 10_000), min_size=1, max_size=5, unique=True
                )
            )
        )
        histogram = registry.histogram(
            f"hist_{index}",
            edges,
            f"h{index}",
            tuple(f"l{i}" for i in range(arity)),
        )
        for labels in draw(label_tuples(arity)):
            for value in draw(
                st.lists(st.integers(0, 20_000), min_size=0, max_size=10)
            ):
                histogram.observe(value, labels)
    return registry


def series_of(registry):
    """Every series of every instrument, in comparable form."""
    out = {}
    for name in registry.names():
        instrument = registry.get(name)
        if isinstance(instrument, Histogram):
            out[name] = {
                labels: instrument.snapshot(labels)
                for labels in instrument.series_labels()
            }
        else:
            out[name] = dict(instrument.series())
    return out


def piped(snapshot, times=2):
    """*snapshot* after the trip a stats reply takes: the pipe's
    stream-interned codec, *times* frames over one channel (so the later
    trips read interned label tuples)."""
    encoder, decoder = BinaryEncoder(), BinaryDecoder()
    for __ in range(times):
        decoded = decoder.decode_payload(encoder.encode_frame(snapshot)[4:])
    return decoded


class TestSnapshotMergeRoundTrip:
    @given(registry=registries(), shard=st.one_of(st.none(), label_values))
    @settings(deadline=None)
    def test_snapshot_codec_merge_reproduces_every_series(
        self, registry, shard
    ):
        # The trip every worker snapshot takes: snapshot -> pipe codec ->
        # merge into an empty facade registry, with or without a shard.
        rebuilt = MetricsRegistry()
        rebuilt.merge(piped(registry.snapshot()), shard=shard)
        prefix = () if shard is None else (shard,)
        assert series_of(rebuilt) == {
            name: {prefix + labels: value for labels, value in series.items()}
            for name, series in series_of(registry).items()
        }
        for name in registry.names():
            original = registry.get(name)
            copy = rebuilt.get(name)
            assert copy.label_names == ("shard",) * len(prefix) + (
                original.label_names
            )
            if isinstance(original, Histogram):
                assert copy.buckets == original.buckets

    @given(registry=registries())
    @settings(max_examples=40, deadline=None)
    def test_shard_label_prefixes_every_series(self, registry):
        rebuilt = MetricsRegistry()
        rebuilt.merge(registry.snapshot(), shard="7")
        for name in registry.names():
            original = registry.get(name)
            copy = rebuilt.get(name)
            assert copy.label_names == ("shard",) + original.label_names
            if isinstance(original, Histogram):
                expected = {
                    ("7",) + labels: original.snapshot(labels)
                    for labels in original.series_labels()
                }
                actual = {
                    labels: copy.snapshot(labels)
                    for labels in copy.series_labels()
                }
            else:
                expected = {
                    ("7",) + labels: value
                    for labels, value in original.series().items()
                }
                actual = dict(copy.series())
            assert actual == expected

    @given(registry=registries())
    @settings(max_examples=30, deadline=None)
    def test_merging_the_same_shard_twice_doubles_counters_only(
        self, registry
    ):
        snapshot = registry.snapshot()
        rebuilt = MetricsRegistry()
        rebuilt.merge(snapshot, shard="0")
        rebuilt.merge(snapshot, shard="0")
        for name in registry.names():
            original = registry.get(name)
            copy = rebuilt.get(name)
            if isinstance(original, Histogram):
                for labels in original.series_labels():
                    __, total, count = original.snapshot(labels)
                    __, merged_total, merged_count = copy.snapshot(
                        ("0",) + labels
                    )
                    assert merged_total == 2 * total
                    assert merged_count == 2 * count
                continue
            for labels, value in original.series().items():
                if original.kind == "counter":
                    assert copy.value(("0",) + labels) == 2 * value
                elif isinstance(copy, Gauge):
                    # Gauges overwrite: merging twice is idempotent.
                    assert copy.value(("0",) + labels) == value

    def test_callback_gauges_decode_as_plain_gauges(self):
        registry = MetricsRegistry()
        registry.callback_gauge("depth", lambda: 17.0, "live depth")
        registry.multi_callback_gauge(
            "queue_depth",
            lambda: {("lee",): 3.0, ("kim",): 9.0},
            "per participant",
            ("participant",),
        )
        rebuilt = MetricsRegistry()
        rebuilt.merge(piped(registry.snapshot()), shard="2")
        depth = rebuilt.get("depth")
        assert isinstance(depth, Gauge)
        assert depth.value(("2",)) == 17.0
        queue = rebuilt.get("queue_depth")
        assert isinstance(queue, Gauge)
        assert queue.series() == {("2", "lee"): 3.0, ("2", "kim"): 9.0}

    def test_bucket_layout_mismatch_refuses_to_merge(self):
        ours = MetricsRegistry()
        ours.histogram("lat", (1, 10), "latency").observe(5)
        theirs = MetricsRegistry()
        theirs.histogram("lat", (1, 100), "latency").observe(5)
        with pytest.raises(MetricsError, match="bucket layout"):
            ours.merge(theirs.snapshot())

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(MetricsError, match="unknown kind"):
            MetricsRegistry().merge(
                {"x": {"kind": "summary", "series": []}}
            )


class TestHistogramQuantile:
    def test_p95_interpolates_within_the_bucket(self):
        histogram = MetricsRegistry().histogram("h", (10, 100, 1000))
        for value in (5, 5, 50, 50, 50, 50, 500, 500, 500, 500):
            histogram.observe(value)
        # p50 falls in the (10, 100] bucket, p95 in the (100, 1000] one.
        assert 10 < histogram.quantile(0.5) <= 100
        assert 100 < histogram.quantile(0.95) <= 1000

    def test_empty_series_is_zero(self):
        assert MetricsRegistry().histogram("h", (1,)).quantile(0.95) == 0.0

    def test_overflow_clamps_to_the_last_finite_edge(self):
        histogram = MetricsRegistry().histogram("h", (1, 10))
        histogram.observe(50_000)
        assert histogram.quantile(0.95) == 10.0


# -- trace context + assembler ---------------------------------------------


class TestTraceContext:
    def test_wire_round_trip(self):
        context = TraceContext("t000007", "t000007.root", True)
        assert TraceContext.from_wire(context.to_wire()) == context
        assert TraceContext.from_wire(None) is None

    def test_unsampled_flag_survives(self):
        context = TraceContext("t1", "t1.root", False)
        assert TraceContext.from_wire(context.to_wire()).sampled is False


class TestTraceAssembler:
    def batch(self, context, shard=0, name="shard.ingest"):
        return {
            "trace": context.trace_id,
            "parent": context.parent_span_id,
            "shard": shard,
            "span": {"name": name, "duration_us": 1.0, "children": []},
        }

    def test_head_sampling_matches_the_tracer_cadence(self):
        assembler = TraceAssembler(sample_every=4)
        decisions = [
            assembler.begin("op").sampled for __ in range(12)
        ]
        assert decisions == [False, False, False, True] * 3
        assert len(assembler.traces()) == 3

    def test_default_cadence_is_the_tracers(self):
        assert TraceAssembler().sample_every == DEFAULT_SAMPLE_EVERY

    def test_batches_from_many_shards_stitch_into_one_trace(self):
        assembler = TraceAssembler(sample_every=1)
        context = assembler.begin("federation.ingest")
        assert assembler.add_batch(self.batch(context, shard=0))
        assert assembler.add_batch(self.batch(context, shard=2))
        (trace,) = assembler.traces()
        assert assembler.shards_of(trace) == (0, 2)
        assert trace["root_span_id"] == context.parent_span_id
        rendered = assembler.render(trace)
        assert "shards=[0, 2]" in rendered
        assert "shard.ingest" in rendered

    def test_wrong_parent_is_orphaned_not_misattached(self):
        assembler = TraceAssembler(sample_every=1)
        context = assembler.begin("op")
        bad = self.batch(context)
        bad["parent"] = "someone.else"
        assert not assembler.add_batch(bad)
        assert assembler.orphaned == 1
        (trace,) = assembler.traces()
        assert trace["spans"] == []

    def test_unknown_trace_is_orphaned(self):
        assembler = TraceAssembler(sample_every=1)
        assembler.begin("op")
        stray = self.batch(TraceContext("t999999", "t999999.root", True))
        assert not assembler.add_batch(stray)
        assert assembler.orphaned == 1

    def test_window_evicts_oldest_and_counts_it(self):
        assembler = TraceAssembler(max_traces=2, sample_every=1)
        contexts = [assembler.begin("op") for __ in range(5)]
        assert assembler.evicted == 3
        assert [trace["trace_id"] for trace in assembler.traces()] == [
            contexts[3].trace_id,
            contexts[4].trace_id,
        ]
        # A batch for an evicted trace has no home left.
        assert not assembler.add_batch(self.batch(contexts[0]))
        assert assembler.orphaned == 1


# -- structured-log drain + merged view ------------------------------------


class TestStructuredLogDrain:
    def test_cursor_walks_the_stream_without_duplicates(self):
        log = StructuredLog()
        log.enabled = True
        for index in range(5):
            log.emit("bus", "published", n=index)
        records, dropped, cursor = log.drain(0)
        assert [record["n"] for record in records] == [0, 1, 2, 3, 4]
        assert dropped == 0 and cursor == 5
        log.emit("bus", "published", n=5)
        records, dropped, cursor = log.drain(cursor)
        assert [record["n"] for record in records] == [5]
        assert dropped == 0 and cursor == 6

    def test_ring_overflow_is_counted_as_dropped(self):
        log = StructuredLog(max_records=3)
        log.enabled = True
        for index in range(10):
            log.emit("bus", "published", n=index)
        records, dropped, cursor = log.drain(0)
        assert [record["n"] for record in records] == [7, 8, 9]
        assert dropped == 7
        assert cursor == 10

    def test_clear_preserves_the_cursor_space(self):
        log = StructuredLog()
        log.enabled = True
        log.emit("bus", "published")
        log.clear()
        log.emit("bus", "published")
        records, dropped, __ = log.drain(1)
        assert len(records) == 1
        assert dropped == 0

    def test_set_seq_renumbers_for_replay(self):
        log = StructuredLog()
        log.enabled = True
        log.emit("bus", "published")
        log.emit("bus", "published")
        log.set_seq(0)
        replayed = log.emit("bus", "published")
        assert replayed["_seq"] == 1  # collides with the shipped stream


class TestFederationLogView:
    def record(self, seq, tick, **fields):
        return {"_seq": seq, "tick": tick, "component": "bus",
                "event": "published", **fields}

    def test_merged_order_is_tick_shard_seq(self):
        view = FederationLogView()
        view.extend(1, [self.record(1, 5), self.record(2, 2)])
        view.extend(0, [self.record(1, 2), self.record(2, 9)])
        keys = [
            (record["tick"], record["shard"], record["_seq"])
            for record in view.records()
        ]
        assert keys == [(2, 0, 1), (2, 1, 2), (5, 1, 1), (9, 0, 2)]

    def test_filters_by_component_and_shard(self):
        view = FederationLogView()
        view.extend(0, [self.record(1, 1)])
        view.extend(1, [dict(self.record(1, 1), component="delivery")])
        assert len(view.records(component="bus")) == 1
        assert len(view.records(shard=1)) == 1
        assert view.records(shard=1)[0]["component"] == "delivery"

    def test_worker_drops_accumulate_per_shard(self):
        view = FederationLogView()
        view.extend(0, [], dropped=3)
        view.extend(0, [], dropped=2)
        view.extend(1, [], dropped=1)
        assert view.dropped() == {0: 5, 1: 1}

    def test_bounded_ring_counts_evictions(self):
        view = FederationLogView(max_records=2)
        view.extend(0, [self.record(seq, 1) for seq in range(1, 5)])
        assert view.evicted == 2
        assert len(view.records()) == 2
        assert "published" in view.render_lines()


# -- SLO evaluation over the shards' snapshots ------------------------------


class TestFederationHealth:
    def rules(self):
        return (
            threshold_rule("queue-depth", "queue_depth", ">", 50),
            threshold_rule(
                "dead-shards", "dead_shards", ">", 0, severity="failing"
            ),
        )

    def view(self, depths, dead=()):
        """One snapshot per shard: its queue depth, and a dead-shards
        gauge of 1 on the shards listed in *dead*."""
        view = FederationMetricsView()
        for shard, depth in depths.items():
            worker = MetricsRegistry()
            worker.gauge("queue_depth").set(depth)
            if shard in dead:
                worker.gauge("dead_shards").set(1)
            view.update(shard, worker.snapshot())
        return view

    def test_all_quiet_is_ok(self):
        health = self.view({0: 3, 1: 7}).health(rules=self.rules())
        assert health.status == "ok"
        assert health.exit_code == 0
        assert not health.firing()

    def test_one_breaching_shard_degrades_the_federation(self):
        health = self.view({0: 3, 1: 99}).health(rules=self.rules(), tick=12)
        assert health.status == "degraded"
        assert health.exit_code == 1
        (firing,) = health.firing()
        assert firing.rule.name == "queue-depth"
        assert firing.last_value == 99
        assert firing.last_breach_tick == 12

    def test_failing_severity_dominates(self):
        health = self.view({0: 99}, dead=(0,)).health(rules=self.rules())
        assert health.status == "failing"
        assert health.exit_code == 2

    def test_non_threshold_rules_are_skipped(self):
        from repro.observability.health import rate_rule

        health = self.view({0: 99}).health(
            rules=(rate_rule("failures", "bus_failed_total", 5, ">", 0),),
        )
        assert health.rules == ()
        assert health.status == "ok"


class TestFederationMetricsView:
    def worker_snapshot(self, events, stage_us):
        registry = MetricsRegistry()
        registry.counter("events_total").inc(events)
        histogram = registry.histogram(
            "pipeline_stage_us", (10, 100, 1000), "stage", ("stage",)
        )
        for value in stage_us:
            histogram.observe(value, ("bus.dispatch",))
        return registry.snapshot()

    def test_latest_snapshot_per_shard_wins(self):
        view = FederationMetricsView()
        view.update(0, self.worker_snapshot(10, [5]))
        view.update(0, self.worker_snapshot(25, [5, 50]))
        view.update(1, self.worker_snapshot(7, [500]))
        assert view.shards() == (0, 1)
        registry = view.registry()
        counter = registry.get("events_total")
        # Snapshots are cumulative: the rebuild must not double-count
        # shard 0's first generation.
        assert counter.series() == {("0",): 25.0, ("1",): 7.0}
        assert "events_total" in registry.render_text()

    def test_stage_p95_per_shard(self):
        view = FederationMetricsView()
        view.update(0, self.worker_snapshot(1, [5] * 20))
        view.update(1, self.worker_snapshot(1, [500] * 20))
        p95 = stage_p95(view.registry())
        assert set(p95) == {("0", "bus.dispatch"), ("1", "bus.dispatch")}
        assert p95[("0", "bus.dispatch")] <= 10
        assert p95[("1", "bus.dispatch")] > 100

    def test_health_sees_worker_breaches(self):
        view = FederationMetricsView()
        worker = MetricsRegistry()
        worker.gauge("queue_depth").set(80)
        view.update(3, worker.snapshot())
        health = view.health(
            rules=(threshold_rule("queue-depth", "queue_depth", ">", 50),)
        )
        assert health.status == "degraded"
