"""Tests for the metrics registry (counters, gauges, histograms, labels)."""

import threading

import pytest

from repro.observability import (
    MetricsError,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_value_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "events", ("topic",))
        counter.inc(1, ("a",))
        counter.inc(2, ("a",))
        counter.inc(5, ("b",))
        assert counter.value(("a",)) == 3
        assert counter.value(("b",)) == 5
        assert counter.total() == 8

    def test_counter_cannot_decrease(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(MetricsError, match="cannot decrease"):
            counter.inc(-1)

    def test_label_arity_mismatch_rejected(self):
        counter = MetricsRegistry().counter("c", label_names=("topic",))
        with pytest.raises(MetricsError, match="declares labels"):
            counter.inc(1, ())
        with pytest.raises(MetricsError, match="declares labels"):
            counter.inc(1, ("a", "b"))

    def test_bound_child_shares_the_series(self):
        counter = MetricsRegistry().counter("c", label_names=("topic",))
        child = counter.child(("a",))
        child.inc()
        child.inc(4)
        counter.inc(1, ("a",))
        assert child.value() == 6
        assert counter.value(("a",)) == 6

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c")
        with pytest.raises(MetricsError, match="not a gauge"):
            registry.gauge("c")

    def test_label_redeclaration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c", label_names=("topic",))
        with pytest.raises(MetricsError, match="registered with labels"):
            registry.counter("c", label_names=("queue",))


class TestLabelCardinality:
    def test_series_bound_enforced(self):
        registry = MetricsRegistry(max_series=3)
        counter = registry.counter("c", label_names=("key",))
        for index in range(3):
            counter.inc(1, (f"k{index}",))
        with pytest.raises(MetricsError, match="cardinality"):
            counter.inc(1, ("one-too-many",))
        # Existing series still work after the rejection.
        counter.inc(1, ("k0",))
        assert counter.value(("k0",)) == 2

    def test_child_creation_respects_the_bound(self):
        registry = MetricsRegistry(max_series=1)
        histogram = registry.histogram(
            "h", buckets=(1.0,), label_names=("stage",)
        )
        histogram.child(("a",))
        with pytest.raises(MetricsError, match="cardinality"):
            histogram.child(("b",))


class TestGauges:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12

    def test_callback_gauge_evaluates_at_collection(self):
        registry = MetricsRegistry()
        holder = {"value": 1}
        registry.callback_gauge("g", lambda: holder["value"])
        assert registry.value("g") == 1
        holder["value"] = 7
        assert registry.value("g") == 7

    def test_registry_value_of_unknown_instrument_is_zero(self):
        assert MetricsRegistry().value("nope") == 0.0


class TestHistogramBuckets:
    def test_observation_on_the_edge_lands_in_that_bucket(self):
        """`le` semantics: v <= edge counts toward the edge's bucket."""
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 5.0, 10.0))
        histogram.observe(1.0)  # exactly the first edge
        histogram.observe(0.5)  # below the first edge
        histogram.observe(5.0)  # exactly the second edge
        histogram.observe(5.1)  # just above the second edge
        histogram.observe(99.0)  # above the last edge -> overflow
        counts, total, count = histogram.snapshot()
        assert counts == (2, 1, 1, 1)
        assert count == 5
        assert total == pytest.approx(110.6)

    def test_bucket_placement_exhaustive(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (1.0, 0.5):
            histogram.observe(value)
        assert histogram.snapshot()[0] == (2, 0, 0, 0)
        histogram.observe(5.0)
        assert histogram.snapshot()[0] == (2, 1, 0, 0)
        histogram.observe(5.1)
        assert histogram.snapshot()[0] == (2, 1, 1, 0)
        histogram.observe(10.0)
        assert histogram.snapshot()[0] == (2, 1, 2, 0)
        histogram.observe(10.0001)
        assert histogram.snapshot()[0] == (2, 1, 2, 1)

    def test_cumulative_counts(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0, 0.1):
            histogram.observe(value)
        assert histogram.cumulative() == (2, 3, 4)

    def test_edges_must_ascend(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError, match="ascending"):
            registry.histogram("h", buckets=(5.0, 1.0))
        with pytest.raises(MetricsError, match="ascending"):
            registry.histogram("h2", buckets=(1.0, 1.0))
        with pytest.raises(MetricsError, match="at least one bucket"):
            registry.histogram("h3", buckets=())

    def test_relaxed_observe_matches_locked(self):
        histogram = MetricsRegistry().histogram(
            "h", buckets=(1.0, 2.0), label_names=("s",)
        )
        locked = histogram.child(("locked",))
        relaxed = histogram.child(("relaxed",))
        for value in (0.5, 1.5, 9.0):
            locked.observe(value)
            relaxed.observe_relaxed(value)
        assert histogram.snapshot(("locked",)) == histogram.snapshot(
            ("relaxed",)
        )


class TestConcurrency:
    def test_concurrent_increments_are_exact(self):
        counter = MetricsRegistry().counter("c", label_names=("t",))
        child = counter.child(("x",))
        n_threads, per_thread = 8, 5_000

        def work():
            for __ in range(per_thread):
                child.inc()
                counter.inc(1, ("x",))

        threads = [threading.Thread(target=work) for __ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(("x",)) == n_threads * per_thread * 2

    def test_concurrent_histogram_observes_are_exact(self):
        histogram = MetricsRegistry().histogram("h", buckets=(0.5,))
        child = histogram.child()
        n_threads, per_thread = 8, 2_000

        def work():
            for __ in range(per_thread):
                child.observe(1.0)

        threads = [threading.Thread(target=work) for __ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counts, __, count = histogram.snapshot()
        assert count == n_threads * per_thread
        assert counts[-1] == n_threads * per_thread


class TestRendering:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("events_total", "all events", ("topic",)).inc(
            3, ("t1",)
        )
        registry.gauge("depth").set(2)
        registry.histogram("lat_us", buckets=(1.0, 10.0)).observe(5.0)
        return registry

    def test_text_exposition(self):
        text = self.make_registry().render_text()
        assert "# TYPE events_total counter" in text
        assert 'events_total{topic="t1"} 3' in text
        assert "# HELP events_total all events" in text
        assert "depth 2" in text
        assert 'lat_us_bucket{le="10"} 1' in text
        assert 'lat_us_bucket{le="+Inf"} 1' in text
        assert "lat_us_count 1" in text

    def test_reset_and_unregister(self):
        registry = self.make_registry()
        registry.unregister("depth")
        assert registry.get("depth") is None
        registry.reset()
        assert registry.names() == ()


class TestMultiCallbackGauge:
    def make(self, registry=None, max_series=None):
        if registry is None:
            registry = (
                MetricsRegistry()
                if max_series is None
                else MetricsRegistry(max_series=max_series)
            )
        self.depths = {("alice",): 3, ("bob",): 1}
        return registry.multi_callback_gauge(
            "queue_depth",
            lambda: self.depths,
            "pending notifications per participant",
            ("participant",),
        )

    def test_series_computed_at_collection_time(self):
        gauge = self.make()
        assert gauge.series() == {("alice",): 3.0, ("bob",): 1.0}
        self.depths[("carol",)] = 7
        assert gauge.value(("carol",)) == 7.0

    def test_missing_series_reads_zero(self):
        gauge = self.make()
        assert gauge.value(("nobody",)) == 0.0

    def test_cardinality_bound_enforced(self):
        gauge = self.make(max_series=1)
        with pytest.raises(MetricsError, match="cardinality bound"):
            gauge.series()

    def test_replacing_a_non_gauge_name_rejected(self):
        registry = MetricsRegistry()
        registry.counter("queue_depth")
        with pytest.raises(MetricsError, match="not a multi-callback gauge"):
            registry.multi_callback_gauge("queue_depth", dict)

    def test_rendered_in_text_and_snapshot(self):
        registry = MetricsRegistry()
        self.make(registry)
        text = registry.render_text()
        assert 'queue_depth{participant="alice"} 3' in text
        assert registry.snapshot()["queue_depth"]["series"] == {
            ("alice",): 3.0,
            ("bob",): 1.0,
        }


class TestReadings:
    def test_unlabelled_instrument_reads_as_its_total(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.callback_gauge("g", lambda: 4)
        registry.gauge("unset")
        assert registry.readings("c") == [(None, 3.0)]
        assert registry.readings("g") == [(None, 4.0)]
        assert registry.readings("unset") == [(None, 0)]

    def test_labelled_instrument_reads_series_then_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", label_names=("topic", "kind"))
        counter.inc(2, ("b", "x"))
        counter.inc(5, ("a", "y"))
        registry.multi_callback_gauge(
            "depth", lambda: {("kim",): 9, ("lee",): 3}, "", ("participant",)
        )
        assert registry.readings("c") == [
            ("a,y", 5.0),
            ("b,x", 2.0),
            (None, 7.0),
        ]
        assert registry.readings("depth") == [
            ("kim", 9.0),
            ("lee", 3.0),
            (None, 12.0),
        ]

    def test_histograms_and_absent_names_have_no_readings(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1.0,)).observe(0.5)
        assert registry.readings("h") == []
        assert registry.readings("nope") == []
        with pytest.raises(MetricsError, match="histogram"):
            registry.value("h")


def fixed_registry():
    """Every instrument kind, labelled and not."""
    registry = MetricsRegistry()
    registry.counter("plain_total").inc(3)
    labelled = registry.counter("labelled_total", "by topic", ("topic",))
    labelled.inc(2, ("b",))
    labelled.inc(5, ("a",))
    registry.gauge("plain_gauge", "a level").set(1.5)
    gauge = registry.gauge("labelled_gauge", "", ("shard", "stage"))
    gauge.set(-2, ("1", "x"))
    gauge.set(4, ("0", "y"))
    registry.callback_gauge("computed", lambda: 7, "computed at collection")
    registry.multi_callback_gauge(
        "per_participant",
        lambda: {("lee",): 3, ("kim",): 9},
        "per participant",
        ("participant",),
    )
    histogram = registry.histogram(
        "stage_us", (1, 10, 100), "stages", ("stage",)
    )
    for value in (0.5, 5, 50, 500):
        histogram.observe(value, ("s1",))
    histogram.observe(2, ("s0",))
    registry.histogram("plain_us", (0.5, 2.5)).observe(1.0)
    return registry


#: `fixed_registry()`'s snapshot as one self-contained codec record (a
#: drain reply carries the same values, stream-interned).
SNAPSHOT_BYTES = bytes.fromhex(
    "000002a2100b080608636f6d70757465640b0406046b696e6406056761756765"
    "060b6465736372697074696f6e0616636f6d707574656420617420636f6c6c65"
    "6374696f6e060b6c6162656c5f6e616d65730e090006067365726965730b010f"
    "0004401c000000000000060e6c6162656c6c65645f67617567650b0407010702"
    "0703060007050e0902060573686172640605737461676507060b020e09020601"
    "3006017903080e09020601310601780303060e6c6162656c6c65645f746f7461"
    "6c0b0407010607636f756e74657207030608627920746f70696307050e090106"
    "05746f70696307060b020e09010601610440140000000000000e090106016204"
    "4000000000000000060f7065725f7061727469636970616e740b040701070207"
    "03060f706572207061727469636970616e7407050e0901060b70617274696369"
    "70616e7407060b020e090106036b696d0440220000000000000e090106036c65"
    "65044008000000000000060b706c61696e5f67617567650b0407010702070306"
    "0761206c6576656c07050f0007060b010f00043ff8000000000000060b706c61"
    "696e5f746f74616c0b04070107100703070807050f0007060b010f0004400800"
    "00000000000608706c61696e5f75730b0507010609686973746f6772616d0703"
    "070807050f0006076275636b6574730e0902043fe00000000000000440040000"
    "0000000007060b010f000e09030e0903030003020300043ff000000000000003"
    "02060873746167655f75730b050701071e0703060673746167657307050e0901"
    "070a071f0e0903043ff000000000000004402400000000000004405900000000"
    "000007060b020e0901060273300e09030e090403000302030003000440000000"
    "0000000003020e0901060273310e09030e090403020302030203020440815c00"
    "000000000308"
)

#: The Prometheus page of `fixed_registry()`.
RENDERED_TEXT = """\
# HELP computed computed at collection
# TYPE computed gauge
computed 7
# TYPE labelled_gauge gauge
labelled_gauge{shard="0",stage="y"} 4
labelled_gauge{shard="1",stage="x"} -2
# HELP labelled_total by topic
# TYPE labelled_total counter
labelled_total{topic="a"} 5
labelled_total{topic="b"} 2
# HELP per_participant per participant
# TYPE per_participant gauge
per_participant{participant="kim"} 9
per_participant{participant="lee"} 3
# HELP plain_gauge a level
# TYPE plain_gauge gauge
plain_gauge 1.5
# TYPE plain_total counter
plain_total 3
# TYPE plain_us histogram
plain_us_bucket{le="0.5"} 0
plain_us_bucket{le="2.5"} 1
plain_us_bucket{le="+Inf"} 1
plain_us_sum 1
plain_us_count 1
# HELP stage_us stages
# TYPE stage_us histogram
stage_us_bucket{stage="s1",le="1"} 1
stage_us_bucket{stage="s1",le="10"} 2
stage_us_bucket{stage="s1",le="100"} 3
stage_us_bucket{stage="s1",le="+Inf"} 4
stage_us_sum{stage="s1"} 555.5
stage_us_count{stage="s1"} 4
stage_us_bucket{stage="s0",le="1"} 0
stage_us_bucket{stage="s0",le="10"} 1
stage_us_bucket{stage="s0",le="100"} 1
stage_us_bucket{stage="s0",le="+Inf"} 1
stage_us_sum{stage="s0"} 2
stage_us_count{stage="s0"} 1"""


class TestWireAndPagePins:
    """The snapshot is the drain-reply payload and the page is parsed by
    scrapers, so both are held to fixed bytes."""

    def test_snapshot_bytes(self):
        from repro.parallel.codec import encode_standalone

        assert encode_standalone(fixed_registry().snapshot()) == SNAPSHOT_BYTES

    def test_rendered_text(self):
        assert fixed_registry().render_text() == RENDERED_TEXT
