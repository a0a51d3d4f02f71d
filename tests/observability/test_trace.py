"""Tests for the span tracer: nesting, ring buffer, sampling, histograms."""

from repro.metrics.latency import STAGE_LATENCY_BUCKETS_US
from repro.observability import (
    INSTRUMENTATION,
    MetricsRegistry,
    Tracer,
    instrumented,
    stage_summary,
)


def record_one_trace(tracer, name="root", children=()):
    root = tracer.begin(name, logical_time=1)
    for child in children:
        span = tracer.begin(child)
        tracer.end(span)
    tracer.end(root)
    return root


class TestNesting:
    def test_children_nest_under_the_active_span(self):
        tracer = Tracer(sample_every=1)
        with tracer.span("root", logical_time=3, topic="T"):
            with tracer.span("middle"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("sibling"):
                pass
        (root,) = tracer.recent()
        assert root.name == "root"
        assert root.logical_time == 3
        assert [child.name for child in root.children] == [
            "middle",
            "sibling",
        ]
        assert [leaf.name for leaf in root.children[0].children] == ["leaf"]
        assert root.duration_us >= root.children[0].duration_us

    def test_begin_end_matches_context_manager(self):
        tracer = Tracer(sample_every=1)
        record_one_trace(tracer, children=("a", "b"))
        (root,) = tracer.recent()
        assert [child.name for child in root.children] == ["a", "b"]
        assert tracer.active_depth == 0

    def test_render_and_json_export(self):
        tracer = Tracer(sample_every=1)
        with tracer.span("root", logical_time=9, node="op1"):
            with tracer.span("leaf"):
                pass
        rendered = tracer.recent()[0].render()
        assert "root" in rendered and "leaf" in rendered
        assert "t=9" in rendered and "node=op1" in rendered
        (payload,) = tracer.export_json()
        assert payload["name"] == "root"
        assert payload["attributes"] == {"node": "op1"}
        assert payload["children"][0]["name"] == "leaf"


class TestRingBuffer:
    def test_oldest_roots_are_evicted(self):
        tracer = Tracer(max_traces=4, sample_every=1)
        for index in range(7):
            record_one_trace(tracer, name=f"trace-{index}")
        recent = tracer.recent()
        assert len(recent) == 4
        assert [span.name for span in recent] == [
            "trace-3",
            "trace-4",
            "trace-5",
            "trace-6",
        ]
        assert tracer.completed_spans == 7

    def test_clear_drops_traces_and_counters(self):
        tracer = Tracer(sample_every=1)
        record_one_trace(tracer)
        tracer.clear()
        assert tracer.recent() == ()
        assert tracer.completed_spans == 0


class TestSampling:
    def test_one_in_n_traces_recorded(self):
        tracer = Tracer(sample_every=4)
        for __ in range(8):
            record_one_trace(tracer, children=("stage",))
        # Traces 4 and 8 (the multiples of sample_every) are recorded.
        assert len(tracer.recent()) == 2
        assert tracer.completed_spans == 4  # 2 roots + 2 children

    def test_unsampled_traces_cost_no_state(self):
        tracer = Tracer(sample_every=2)
        root = tracer.begin("root")
        inner = tracer.begin("inner")
        tracer.end(inner)
        tracer.end(root)
        assert tracer.recent() == ()
        assert tracer._light_depth == 0
        assert tracer.active_depth == 0
        # The next trace is the sampled one.
        record_one_trace(tracer)
        assert len(tracer.recent()) == 1

    def test_context_manager_spans_respect_sampling(self):
        tracer = Tracer(sample_every=2)
        with tracer.span("root"):
            with tracer.span("inner"):
                pass
        assert tracer.recent() == ()
        with tracer.span("root"):
            pass
        assert len(tracer.recent()) == 1

    def test_sample_every_one_records_everything(self):
        tracer = Tracer(sample_every=1)
        for __ in range(5):
            record_one_trace(tracer)
        assert len(tracer.recent()) == 5

    def test_an_instrumented_scope_restores_the_sampling_period(self):
        """The process tracer's period is scope state, like the flag and
        the registry: a scope that samples everything leaves later
        callers sampling as they did."""
        tracer = INSTRUMENTATION.tracer
        before = tracer.sample_every
        with instrumented(MetricsRegistry()) as obs:
            obs.tracer.sample_every = before + 7
        assert tracer.sample_every == before


class TestStageHistograms:
    def test_spans_feed_the_stage_histogram(self):
        registry = MetricsRegistry()
        tracer = Tracer(sample_every=1)
        tracer.bind_registry(registry)
        record_one_trace(tracer, name="source.emit", children=("bus.dispatch",))
        record_one_trace(tracer, name="source.emit")
        summary = stage_summary(registry)
        assert summary["source.emit"][0] == 2
        assert summary["bus.dispatch"][0] == 1
        assert summary["source.emit"][1] >= 0.0
        histogram = registry.get("pipeline_stage_us")
        assert histogram.buckets == STAGE_LATENCY_BUCKETS_US
        __, ___, count = histogram.snapshot(("source.emit",))
        assert count == 2

    def test_unregistered_tracer_has_empty_summary(self):
        registry = MetricsRegistry()
        tracer = Tracer(sample_every=1)
        tracer.bind_registry(registry)
        tracer.bind_registry(None)
        record_one_trace(tracer)
        assert tracer.registry is None
        assert stage_summary(registry) == {}
