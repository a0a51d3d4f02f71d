"""Tests for the self-awareness event plane: ``T_system`` telemetry.

Covers the telemetry source agent (sampling, derivations, delta
suppression), the ``Filter_system`` and ``Edge`` operators, the
``E_system`` producer, and the DSL spelling of a health schema.
"""

import pytest

from repro.awareness.detector import DetectorAgent
from repro.awareness.dsl import compile_specification, window_to_dsl
from repro.awareness.operators import Edge, SystemFilter
from repro.awareness.planner import PlanCache
from repro.awareness.sources import (
    DEFAULT_SYSTEM_METRICS,
    SystemTelemetrySource,
)
from repro.awareness.specification import SpecificationWindow
from repro.clock import LogicalClock
from repro.errors import ParameterError
from repro.events.bus import EventBus
from repro.events.event import Event
from repro.events.producers import SYSTEM_EVENT_TYPE, SystemEventProducer
from repro.observability import MetricsRegistry


def system_event(**overrides):
    params = dict(
        time=3,
        source="E_system",
        systemId="alpha",
        metric="queue_depth",
        seriesLabel=None,
        value=7,
    )
    params.update(overrides)
    return Event(SYSTEM_EVENT_TYPE, params)


class TestSystemEventProducer:
    def test_produce_builds_a_self_contained_event(self):
        bus = EventBus()
        seen = []
        bus.subscribe("T_system", seen.append)
        producer = SystemEventProducer(system_id="alpha")
        producer.attach(bus)
        event = producer.produce(4, "queue_depth", "alice", 12)
        assert event.type_name == "T_system"
        assert event["systemId"] == "alpha"
        assert event["metric"] == "queue_depth"
        assert event["seriesLabel"] == "alice"
        assert event["value"] == 12
        assert seen == [event]

    def test_produce_batch_is_one_bus_batch(self):
        bus = EventBus()
        producer = SystemEventProducer(system_id="alpha")
        producer.attach(bus)
        events = producer.produce_batch(
            5, [("queue_depth", None, 3), ("timer_backlog", None, 1)]
        )
        assert [event["metric"] for event in events] == [
            "queue_depth",
            "timer_backlog",
        ]


class TestSystemFilter:
    def test_matching_metric_passes_as_canonical(self):
        operator = SystemFilter("P-Health", "queue_depth")
        out = operator.consume(0, system_event())
        assert len(out) == 1
        event = out[0]
        assert event.type_name == "C[P-Health]"
        assert event["processInstanceId"] == "alpha"
        assert event["intInfo"] == 7
        assert event["sourceEvent"]["metric"] == "queue_depth"

    def test_other_metric_blocked(self):
        operator = SystemFilter("P-Health", "queue_depth")
        assert operator.consume(0, system_event(metric="timer_backlog")) == []

    def test_series_label_selects_one_series(self):
        operator = SystemFilter("P-Health", "queue_depth", "alice")
        assert operator.consume(0, system_event()) == []
        out = operator.consume(0, system_event(seriesLabel="alice", value=9))
        assert out[0]["intInfo"] == 9
        assert out[0]["strInfo"] == "alice"

    def test_any_series_wildcard(self):
        operator = SystemFilter(
            "P-Health", "queue_depth", SystemFilter.ANY_SERIES
        )
        assert operator.consume(0, system_event())
        assert operator.consume(0, system_event(seriesLabel="bob"))

    def test_routing_keys_are_the_metric(self):
        operator = SystemFilter("P-Health", "queue_depth")
        assert operator.routing_keys(0) == ["queue_depth"]

    def test_empty_metric_rejected(self):
        with pytest.raises(ParameterError):
            SystemFilter("P-Health", "")


class TestEdgeOperator:
    def canonical(self, value, instance="alpha"):
        operator = SystemFilter("P-Health", "queue_depth")
        return operator.consume(
            0, system_event(value=value, systemId=instance)
        )[0]

    def test_emits_only_on_rising_edge(self):
        edge = Edge("P-Health", lambda v: v > 50)
        assert len(edge.consume(0, self.canonical(60))) == 1
        # Still breached: suppressed.
        assert edge.consume(0, self.canonical(61)) == []
        assert edge.consume(0, self.canonical(70)) == []
        # Recovers, then breaches again: re-armed, emits once more.
        assert edge.consume(0, self.canonical(10)) == []
        assert len(edge.consume(0, self.canonical(80))) == 1

    def test_partitions_are_independent(self):
        edge = Edge("P-Health", lambda v: v > 50)
        assert len(edge.consume(0, self.canonical(60, "alpha"))) == 1
        # A different process instance has its own edge state.
        assert len(edge.consume(0, self.canonical(60, "beta"))) == 1
        assert edge.consume(0, self.canonical(61, "alpha")) == []

    def test_requires_callable(self):
        with pytest.raises(ParameterError):
            Edge("P-Health", 50)


class TestTelemetrySource:
    def make(self, **kwargs):
        clock = LogicalClock()
        metrics = MetricsRegistry()
        bus = EventBus()
        seen = []
        bus.subscribe("T_system", seen.append)
        source = SystemTelemetrySource(
            clock, metrics, bus=bus, system_id="alpha", **kwargs
        )
        return clock, metrics, source, seen

    def test_interval_must_be_positive(self):
        clock = LogicalClock()
        with pytest.raises(ValueError):
            SystemTelemetrySource(clock, MetricsRegistry(), interval=0)

    def test_samples_registered_counters(self):
        clock, metrics, source, seen = self.make(
            interval=1, sampled_metrics=("bus_failed_total",)
        )
        metrics.counter("bus_failed_total", "failures", ("topic",)).inc(
            2, ("T_x",)
        )
        samples = source.sample_now()
        assert ("bus_failed_total", None, 2) in samples
        assert any(event["metric"] == "bus_failed_total" for event in seen)

    def test_absent_metrics_skipped(self):
        __, __, source, seen = self.make(
            interval=1, sampled_metrics=("no_such_metric",)
        )
        assert source.sample_now() == []
        assert seen == []

    def test_clock_driven_sampling_honours_interval(self):
        clock, metrics, source, seen = self.make(
            interval=3, sampled_metrics=("ticks_total",)
        )
        ticks = metrics.counter("ticks_total", "ticks")
        ticks.inc()
        clock.advance(1)
        clock.advance(1)
        assert seen == []  # not yet due
        clock.advance(1)
        assert len(seen) == 1  # one pass at tick 3

    def test_delta_suppression_republishes_only_changes(self):
        clock, metrics, source, seen = self.make(
            interval=1, sampled_metrics=("a_total", "b_total")
        )
        a = metrics.counter("a_total", "a")
        metrics.counter("b_total", "b")
        a.inc()
        source.sample_now()
        first = len(seen)
        assert first == 2  # both metrics published on the first pass
        # Nothing changed: the pass publishes no events at all.
        samples = source.sample_now()
        assert len(samples) == 2  # observers still see the full set
        assert len(seen) == first
        # One metric moves: only that reading is re-published.
        a.inc()
        source.sample_now()
        assert len(seen) == first + 1
        assert seen[-1]["metric"] == "a_total"

    def test_watch_rate_derives_increase_over_window(self):
        clock, metrics, source, __ = self.make(
            interval=1, sampled_metrics=("ops_total",)
        )
        ops = metrics.counter("ops_total", "ops")
        name = source.watch_rate("ops_total", 2)
        assert name == "rate[ops_total/2]"

        def rate():
            return dict(
                (metric, value)
                for metric, label, value in source.sample_now()
                if label is None
            )[name]

        assert rate() == 0  # baseline pass
        ops.inc(5)
        assert rate() == 5
        assert rate() == 5  # still within the 2-pass window
        assert rate() == 0  # aged out

    def test_watch_rate_validates_window(self):
        __, __, source, __ = self.make(interval=1)
        with pytest.raises(ValueError):
            source.watch_rate("ops_total", 0)

    def test_watch_staleness_counts_silent_passes(self):
        clock, metrics, source, __ = self.make(
            interval=1, sampled_metrics=("beats_total",)
        )
        beats = metrics.counter("beats_total", "heartbeats")
        name = source.watch_staleness("beats_total")
        assert name == "stale[beats_total]"

        def stale():
            return dict(
                (metric, value)
                for metric, label, value in source.sample_now()
                if label is None
            )[name]

        beats.inc()
        assert stale() == 0  # moving
        assert stale() == 1
        assert stale() == 2
        beats.inc()
        assert stale() == 0  # moving again resets the watchdog

    def test_default_metric_set_covers_the_health_surface(self):
        assert {
            "queue_depth",
            "delivery_lag",
            "bus_failed_total",
            "timer_backlog",
        } <= set(DEFAULT_SYSTEM_METRICS)


HEALTH_SPEC = """
depth = Filter_system[queue_depth](SystemEvent)
breach = Edge[>, 50](depth)
deliver breach to TaskForceContext.Manager using identity \\
    as "queue depth SLO breached" named AS_QueueDepth
"""


class TestHealthDsl:
    def make_window(self):
        return SpecificationWindow(
            "P-Health",
            {"SystemEvent": SystemEventProducer(system_id="alpha")},
        )

    def test_compiles_and_detects_on_rising_edge(self):
        window = self.make_window()
        compile_specification(window, HEALTH_SPEC)
        detected = []
        DetectorAgent(window, PlanCache(), sink=detected.append)
        producer = window.source("SystemEvent")
        producer.produce(1, "queue_depth", None, 10)
        producer.produce(2, "queue_depth", None, 60)
        producer.produce(3, "queue_depth", None, 61)  # suppressed
        producer.produce(4, "timer_backlog", None, 99)  # wrong metric
        assert len(detected) == 1
        assert detected[0]["intInfo"] == 60

    def test_round_trip_is_stable(self):
        window_a = self.make_window()
        compile_specification(window_a, HEALTH_SPEC)
        text_a = window_to_dsl(window_a)
        assert "Filter_system[queue_depth]" in text_a
        assert "Edge[>, 50]" in text_a

        window_b = self.make_window()
        compile_specification(window_b, text_a)
        assert window_to_dsl(window_b) == text_a
