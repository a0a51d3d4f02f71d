"""Tests for the pub/sub event bus."""

import pytest

from repro.core.context import ContextChange
from repro.events import bus as bus_module
from repro.events.bus import EventBus
from repro.events.event import Event, EventType, base_parameters
from repro.events.producers import EventProducer
from repro.observability import instrumented
from tests.awareness.test_routing import (
    build_system,
    deploy_field_watcher,
    python_calls,
)


def make_event(type_name="T_a", time=1):
    return Event(
        EventType(type_name, base_parameters()),
        {"time": time, "source": "test"},
    )


class TestSubscribe:
    def test_subscriber_receives_matching_topic_only(self):
        bus = EventBus()
        got_a, got_b = [], []
        bus.subscribe("T_a", got_a.append)
        bus.subscribe("T_b", got_b.append)
        bus.publish(make_event("T_a"))
        assert len(got_a) == 1
        assert got_b == []

    def test_multiple_subscribers_all_receive(self):
        bus = EventBus()
        got1, got2 = [], []
        bus.subscribe("T_a", got1.append)
        bus.subscribe("T_a", got2.append)
        bus.publish(make_event())
        assert len(got1) == len(got2) == 1

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        got = []
        subscription = bus.subscribe("T_a", got.append)
        bus.unsubscribe(subscription)
        bus.publish(make_event())
        assert got == []
        assert bus.subscriber_count("T_a") == 0

    def test_subscriptions_are_unkeyed(self):
        """Routing lives on the producers; a tap sees its whole topic."""
        with pytest.raises(TypeError):
            EventBus().subscribe("T_a", lambda e: None, keys=[1])


class TestDispatchOrder:
    def test_nested_publish_is_queued_not_reentrant(self):
        """An event published from within a handler is delivered after the
        current dispatch completes (FIFO), so handlers observe a consistent
        global order."""
        bus = EventBus()
        order = []

        def handler_a(event):
            order.append(("a", event.time))
            if event.time == 1:
                bus.publish(make_event("T_a", time=2))

        def handler_b(event):
            order.append(("b", event.time))

        bus.subscribe("T_a", handler_a)
        bus.subscribe("T_a", handler_b)
        bus.publish(make_event("T_a", time=1))
        assert order == [("a", 1), ("b", 1), ("a", 2), ("b", 2)]

    def test_subscription_during_dispatch_applies_to_later_events(self):
        bus = EventBus()
        late = []

        def handler(event):
            if not late:
                bus.subscribe("T_a", late.append)

        bus.subscribe("T_a", handler)
        bus.publish(make_event())
        # The late subscriber was added mid-dispatch; publish again:
        bus.publish(make_event(time=2))
        assert len(late) >= 1


class TestUnsubscribeDuringDispatch:
    def test_unsubscribe_from_handler_stops_future_delivery(self):
        bus = EventBus()
        got = []
        subscription = None

        def once(event):
            got.append(event)
            bus.unsubscribe(subscription)

        subscription = bus.subscribe("T_a", once)
        bus.publish(make_event(time=1))
        bus.publish(make_event(time=2))
        assert len(got) == 1

    def test_stale_entry_is_reaped_on_next_dispatch(self):
        """Unsubscribing mid-dispatch only flips ``active``; the list entry
        must be reaped lazily so it does not accumulate forever."""
        bus = EventBus()
        subscription = None

        def once(event):
            bus.unsubscribe(subscription)

        subscription = bus.subscribe("T_a", once)
        keep = bus.subscribe("T_a", lambda e: None)
        bus.publish(make_event(time=1))
        # The inactive subscription may linger until the next dispatch...
        bus.publish(make_event(time=2))
        # ...after which it must be gone from the subscriber list.
        entry = bus._topics["T_a"]
        assert subscription not in entry.subscriptions
        assert keep in entry.subscriptions

    def test_subscribe_and_unsubscribe_same_dispatch(self):
        bus = EventBus()
        late_events = []

        def handler(event):
            if event.time == 1:
                late = bus.subscribe("T_a", late_events.append)
                bus.unsubscribe(late)

        bus.subscribe("T_a", handler)
        bus.publish(make_event(time=1))
        bus.publish(make_event(time=2))
        assert late_events == []


class TestPublishBatch:
    def test_batch_delivers_in_order(self):
        bus = EventBus()
        got = []
        bus.subscribe("T_a", got.append)
        bus.publish_batch([make_event(time=t) for t in (1, 2, 3)])
        assert [e.time for e in got] == [1, 2, 3]
        assert bus.delivered_count("T_a") == 3

    def test_batch_from_handler_is_queued(self):
        bus = EventBus()
        order = []

        def handler(event):
            order.append(event.time)
            if event.time == 1:
                bus.publish_batch([make_event(time=2), make_event(time=3)])

        bus.subscribe("T_a", handler)
        bus.publish(make_event(time=1))
        assert order == [1, 2, 3]


class TestErrorIsolation:
    """A tap is an observer: its error is recorded, never raised into
    the publisher."""

    @staticmethod
    def raising_at_one(bus):
        seen = []

        def handler(event):
            seen.append((event.type_name, event.time))
            if event.time == 1:
                raise ValueError("boom")

        bus.subscribe("T_a", handler)
        bus.subscribe("T_b", handler)
        return seen

    def test_isolated_handler_error_loses_no_event_of_the_batch(self):
        bus = EventBus()
        seen = self.raising_at_one(bus)
        batch = [make_event("T_a", t) for t in (1, 2, 3)] + [make_event("T_b", 4)]
        bus.publish_batch(batch)
        assert seen == [("T_a", 1), ("T_a", 2), ("T_a", 3), ("T_b", 4)]
        assert bus.delivered_count() == 3
        assert bus.failed_count() == 1
        assert not bus._queue

    def test_isolated_errors_are_recorded_and_dispatch_continues(self):
        bus = EventBus()
        got = []

        def broken(event):
            raise ValueError("boom")

        bus.subscribe("T_a", broken)
        bus.subscribe("T_a", got.append)
        bus.publish(make_event())
        assert len(got) == 1  # the healthy subscriber still ran
        assert len(bus.handler_errors) == 1
        topic, error = bus.handler_errors[0]
        assert topic == "T_a"
        assert isinstance(error, ValueError)

    def test_isolated_failures_do_not_count_as_delivered(self):
        bus = EventBus()
        bus.subscribe("T_a", lambda e: (_ for _ in ()).throw(ValueError()))
        bus.publish(make_event())
        assert bus.delivered_count("T_a") == 0
        assert bus.failed_count("T_a") == 1

    def test_failed_counter_tracks_partial_failures(self):
        """A partially-failing topic is not silently undercounted: the
        failures show up in their own counter."""
        bus = EventBus()
        bus.subscribe("T_a", lambda e: (_ for _ in ()).throw(ValueError()))
        bus.subscribe("T_a", lambda e: None)
        bus.publish(make_event(time=1))
        bus.publish(make_event(time=2))
        assert bus.delivered_count("T_a") == 2
        assert bus.failed_count("T_a") == 2
        assert bus.failed_count() == 2
        assert bus.failed_count("T_other") == 0

    def test_a_tap_that_always_fails_retains_bounded_memory(self):
        """Every failure is counted; only the newest few are kept, and
        without their tracebacks (the parent kept all 20 000, each
        with its frames: 21 MB)."""
        import tracemalloc

        bus = EventBus()
        bus.subscribe("T_a", lambda e: 1 / 0)
        events = [make_event(time=t) for t in range(20_000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bus.publish_batch(events)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert bus.failed_count("T_a") == 20_000
        assert len(bus.handler_errors) == bus_module.HANDLER_ERRORS_KEPT
        assert bus.handler_errors[-1][1].__traceback__ is None
        assert retained < 1 << 20


class TestStatistics:
    def test_counters(self):
        bus = EventBus()
        bus.subscribe("T_a", lambda e: None)
        bus.subscribe("T_a", lambda e: None)
        bus.publish(make_event())
        bus.publish(make_event("T_b"))
        assert bus.delivered_count("T_a") == 2
        assert bus.delivered_count("T_b") == 0
        assert bus.delivered_count() == 2
        assert bus.subscriber_count("T_a") == 2
        assert bus.subscriber_count("T_b") == 0


class TestTapContract:
    """The bus as the system uses it: an unkeyed tap on a producer's
    stream, fed after the producer routed the event to the detectors."""

    def test_tap_sees_each_event_once_in_order_after_its_detector_steps(self):
        system, process = build_system()
        detector = deploy_field_watcher(system, "alpha", "alpha")
        tapped = []
        system.bus.subscribe(
            "T_context",
            lambda e: tapped.append(
                (e["fieldName"], e["newFieldValue"], detector.recognized)
            ),
        )
        instance = system.coordination.start_process(process)
        ref = instance.context("Ctx")

        # produce(): one event per field change, tapped right after the
        # detector recognised it (only alpha is watched).
        ref.set("alpha", 1)
        ref.set("beta", 2)
        ref.set("alpha", 3)
        assert tapped == [("alpha", 1, 1), ("beta", 2, 1), ("alpha", 3, 2)]

        # produce_batch(): the whole batch is routed first, then tapped.
        del tapped[:]
        producer = system.awareness.context_source.producer
        changes = [
            ContextChange(
                time=system.core.clock.now(),
                context_id=ref.context_id,
                context_name="Ctx",
                associations=frozenset({("P-X", instance.instance_id)}),
                field_name=name,
                old_value=None,
                new_value=value,
            )
            for name, value in (("alpha", 4), ("beta", 5), ("alpha", 6))
        ]
        emitted = producer.produce_batch(changes)
        assert tapped == [("alpha", 4, 4), ("beta", 5, 4), ("alpha", 6, 4)]
        assert producer.emitted == 3 + len(emitted)
        assert system.bus.delivered_count("T_context") == 6
        assert system.bus.handler_errors == []

    def test_only_a_tapped_event_opens_a_bus_dispatch_span(self):
        """In a sampled trace a tapped event opens its ``bus.dispatch``
        span; an untapped one never reaches the bus, so none opens."""
        bus = EventBus()
        tapped = EventProducer("tapped", EventType("T_a", base_parameters()))
        untapped = EventProducer("untapped", EventType("T_b", base_parameters()))
        tapped.attach(bus)
        untapped.attach(bus)
        bus.subscribe("T_a", lambda e: None)
        with instrumented() as obs:
            tracer = obs.tracer
            tracer.sample_every = 1
            tracer._trace_count = 0
            root = tracer.begin("test.root")
            tapped.emit(make_event("T_a"))
            untapped.emit(make_event("T_b"))
            tracer.end(root)
        emits = root.children
        assert [span.name for span in emits] == ["source.emit"] * 2
        assert [child.name for child in emits[0].children] == ["bus.dispatch"]
        assert emits[1].children == []


class TestSubscriberlessRun:
    """Counts, not wall clock: an event published directly (a
    ``T_delivery`` sink, say) on a topic no one taps is dropped in the
    drain loop, with no call and no span of its own.  The parent counted
    the run and dropped it in one step, in 5 calls."""

    #: Python calls of one ``publish_batch`` of a subscriber-less run,
    #: whatever its length: the publish and the drain.
    CALLS = 2

    @staticmethod
    def events(n, topic="T_a"):
        return [make_event(topic, time) for time in range(1, n + 1)]

    @pytest.mark.parametrize("n", [1, 8, 128])
    def test_a_subscriberless_run_costs_no_call_per_event(self, n):
        bus = EventBus()
        assert python_calls(bus.publish_batch, self.events(n)) == self.CALLS
        assert bus.delivered_count() == 0
        assert not bus._queue

    def test_runs_around_a_subscribed_one_keep_their_counts_and_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe("T_b", seen.append)
        batch = self.events(3) + self.events(2, "T_b") + self.events(4)
        bus.publish_batch(batch)
        assert seen == batch[3:5]
        assert bus.delivered_count("T_b") == bus.delivered_count() == 2

    def test_a_run_published_from_a_handler_is_dropped_after_it(self):
        bus = EventBus()
        late = self.events(5, "T_c")
        seen = []

        def handler(event):
            seen.append(event)
            bus.publish_batch(late)

        bus.subscribe("T_b", handler)
        bus.publish_batch(self.events(2, "T_b"))
        assert len(seen) == 2
        assert bus.delivered_count() == 2
        assert not bus._queue

    @pytest.mark.parametrize("sampled", [True, False])
    def test_no_span_opens_for_it_in_any_trace(self, sampled):
        """In a sampled trace and in a skipped one alike, an untapped run
        opens no ``bus.dispatch`` span and costs no call per event; a
        tapped event still opens its span (:class:`TestTapContract`)."""
        bus = EventBus()
        with instrumented() as obs:
            tracer = obs.tracer
            tracer.sample_every = 1 if sampled else 1 << 20
            tracer._trace_count = 0
            root = tracer.begin("test.root")
            calls = python_calls(bus.publish_batch, self.events(16))
            tracer.end(root)
        if sampled:
            assert root.children == []
        assert calls == self.CALLS


def bus_calls(function, *args):
    """Python calls made into ``bus.py`` by ``function(*args)``."""
    return python_calls(function, *args, within=bus_module)


class TestUntappedProducer:
    """Counts, not wall clock: a producer attached to a bus reaches it
    only while its topic has an active subscription.  The parent
    published every emitted event."""

    @staticmethod
    def attached():
        bus = EventBus()
        producer = EventProducer("p", EventType("T_a", base_parameters()))
        producer.attach(bus)
        return bus, producer

    @pytest.mark.parametrize("n", [1, 8, 128])
    def test_an_untapped_batch_makes_no_call_into_the_bus(self, n):
        bus, producer = self.attached()
        events = TestSubscriberlessRun.events(n)
        assert bus_calls(producer.emit_batch, events) == 0
        assert bus_calls(producer.emit, events[0]) == 0

        subscription = bus.subscribe("T_a", lambda e: None)
        assert bus_calls(producer.emit_batch, events) > 0
        bus.unsubscribe(subscription)
        assert bus_calls(producer.emit_batch, events) == 0
        assert bus.delivered_count() == n
        assert producer.emitted == 3 * n + 1

    def test_the_last_unsubscribe_unlinks_even_inside_a_handler(self):
        bus, producer = self.attached()
        first = bus.subscribe("T_a", lambda e: None)
        seen = []

        def once(event):
            seen.append(event)
            bus.unsubscribe(second)

        second = bus.subscribe("T_a", once)
        bus.unsubscribe(first)
        producer.emit_batch(TestSubscriberlessRun.events(3))
        assert len(seen) == 1
        assert bus_calls(producer.emit, make_event()) == 0
        assert bus.subscriber_count("T_a") == 0

        # A later tap links the producer again and sees what follows.
        tapped = []
        bus.subscribe("T_a", tapped.append)
        producer.emit(make_event(time=9))
        assert [event.time for event in tapped] == [9]

    def test_attaching_twice_files_the_producer_once(self):
        bus, producer = self.attached()
        producer.attach(bus)
        assert bus.producers() == (producer,)
