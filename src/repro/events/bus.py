"""The agent fabric's event tap: topic → subscriber list, nothing more.

The CMI Enactment System is "a collection of communicating agents acting as
a single server" (Section 6.1).  In this reproduction the agents of the
event path do not talk through the bus: a source agent's producer routes
each primitive event straight to the detector steps registered on its key
index (:meth:`repro.events.producers.EventProducer.add_consumer`), and a
detector agent hands recognitions to the delivery agent by direct call.
The bus is what is left of the fabric for everyone *else*: every producer
attached to it publishes each event it emits, after that event's detector
steps ran, and whoever wants to watch a stream — a monitor, a test, an
observer of ``T_context`` — subscribes to the topic and sees every event
of it.  No agent in ``src/`` subscribes; the bus routes nothing and has no
key index.  The one routing index lives on the producers.

Topics are event type names.  Dispatch is synchronous but *queued*: an event
published while another event is being dispatched is appended to a FIFO and
delivered after the current dispatch completes, so cascades triggered by
handlers (e.g. a tap reacting to an event by modifying a context, which
publishes another event) see a consistent, non-reentrant order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..observability import INSTRUMENTATION as _OBS
from ..observability import MetricsRegistry
from ..observability import STRUCTURED_LOG as _SLOG
from .event import Event

Handler = Callable[[Event], None]


@dataclass
class Subscription:
    """A handle returned by :meth:`EventBus.subscribe`; use to unsubscribe."""

    topic: str
    handler: Handler
    active: bool = True


class _Topic:
    """One topic's subscribers, in subscription order.

    Dispatch iterates a cached tuple snapshot so the hot path never
    copies a list; the snapshot is rebuilt lazily after a
    subscribe/unsubscribe invalidates it.
    """

    __slots__ = ("subscriptions", "_snapshot", "needs_reap")

    def __init__(self) -> None:
        self.subscriptions: List[Subscription] = []
        self._snapshot: Optional[Tuple[Subscription, ...]] = None
        #: Set by an unsubscribe during dispatch; see :meth:`reap`.
        self.needs_reap = False

    def add(self, subscription: Subscription) -> None:
        self.subscriptions.append(subscription)
        self._snapshot = None

    def discard(self, subscription: Subscription) -> None:
        if subscription in self.subscriptions:
            self.subscriptions.remove(subscription)
            self._snapshot = None

    def reap(self) -> None:
        """Drop inactive subscriptions left by unsubscribe-during-dispatch."""
        self.subscriptions = [s for s in self.subscriptions if s.active]
        self._snapshot = None
        self.needs_reap = False

    def snapshot(self) -> Tuple[Subscription, ...]:
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = tuple(self.subscriptions)
        return snap


class EventBus:
    """Synchronous, queue-draining pub/sub bus with per-topic statistics.

    With ``isolate_errors=True`` a failing handler no longer aborts the
    dispatch: the exception is recorded in :attr:`handler_errors` (and the
    per-topic ``failed`` counter), and the remaining subscribers still
    receive the event.  The default is fail-fast, which is what unit tests
    want (see :meth:`_drain` for what an abort leaves behind: nothing); a
    long-running federation turns isolation on so one broken tap cannot
    fail the enactment operation whose event it was watching.
    """

    def __init__(
        self,
        isolate_errors: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._topics: Dict[str, _Topic] = {}
        self._queue: Deque[Event] = deque()
        self._dispatching = False
        #: Per-topic counters live in the metrics registry (the system's
        #: registry when the bus belongs to an EnactmentSystem, a private
        #: one otherwise) so `stats()` surfaces are views over instruments.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._published = self.metrics.counter(
            "bus_published_total",
            "Events published on the bus, by topic",
            ("topic",),
        )
        self._delivered = self.metrics.counter(
            "bus_delivered_total",
            "Successful handler deliveries, by topic",
            ("topic",),
        )
        self._failed = self.metrics.counter(
            "bus_failed_total",
            "Handler deliveries that raised under error isolation, by topic",
            ("topic",),
        )
        self._isolate_errors = isolate_errors
        #: (topic, exception) pairs collected under error isolation.
        self.handler_errors: List[Tuple[str, Exception]] = []
        #: Shared per-topic attribute dicts for ``bus.dispatch`` spans.
        self._span_attrs: Dict[str, Dict[str, object]] = {}

    # -- subscription ----------------------------------------------------------

    def subscribe(self, topic: str, handler: Handler) -> Subscription:
        """Register *handler* for every event whose type name equals *topic*."""
        subscription = Subscription(topic=topic, handler=handler)
        self._topics.setdefault(topic, _Topic()).add(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Deactivate and remove *subscription*.

        Safe to call from inside a handler: the in-flight dispatch checks
        the ``active`` flag, and the list entry is reaped lazily on the
        next dispatch of the topic (removing it immediately could race
        with the dispatch snapshot).
        """
        subscription.active = False
        entry = self._topics.get(subscription.topic)
        if entry is None:
            return
        if self._dispatching:
            entry.needs_reap = True
        else:
            entry.discard(subscription)

    def subscriber_count(self, topic: str) -> int:
        entry = self._topics.get(topic)
        if entry is None:
            return 0
        return sum(1 for s in entry.subscriptions if s.active)

    # -- publication -------------------------------------------------------------

    def publish(self, event: Event) -> None:
        """Enqueue *event* and drain the queue unless a drain is running."""
        self._queue.append(event)
        if self._dispatching:
            return
        self._drain()

    def publish_batch(self, events: Iterable[Event]) -> None:
        """Enqueue several events and drain once.

        Used by the event source agents for bulk updates (e.g. a context
        source agent forwarding a burst of field changes): the whole batch
        joins the FIFO before dispatch starts, and a single drain loop
        delivers it — same ordering guarantees as repeated :meth:`publish`
        with less per-event overhead.
        """
        self._queue.extend(events)
        if self._dispatching:
            return
        self._drain()

    def _drain(self) -> None:
        """Dispatch the queue until it is empty.

        A handler that raises on a fail-fast bus *aborts* the drain: the
        exception reaches the publisher and every event still queued is
        dropped with it, so nothing is left behind to surface inside a
        later, unrelated publish.  ``bus_published_total`` counts the
        events whose dispatch was attempted — the one that raised
        included, the dropped ones not.
        """
        self._dispatching = True
        queue = self._queue
        try:
            while queue:
                # A run of consecutive same-topic events (the common shape
                # after publish_batch) shares one topic resolution and one
                # counter update.  Handlers still see one call per event
                # in FIFO order.
                topic = queue[0].type_name
                entry = self._topics.get(topic)
                attempted = 0
                try:
                    # The slot, not the property: one call fewer an event.
                    while queue and queue[0]._event_type.name == topic:
                        attempted += 1
                        self._dispatch(entry, topic, queue.popleft())
                finally:
                    self._published.inc(attempted, (topic,))
        finally:
            queue.clear()
            self._dispatching = False

    def _dispatch(self, entry: Optional[_Topic], topic: str, event: Event) -> None:
        # Inside a trace the sampler skipped, no span opens (see
        # Tracer._light_depth).
        if _OBS.enabled and not _OBS.tracer._light_depth:
            tracer = _OBS.tracer
            attrs = self._span_attrs.get(topic)
            if attrs is None:
                attrs = self._span_attrs[topic] = {"topic": topic}
            span = tracer.begin("bus.dispatch", event._params["time"], attrs)
            try:
                if entry is not None:
                    self._deliver(entry, topic, event)
            finally:
                tracer.end(span)
        elif entry is not None:
            self._deliver(entry, topic, event)

    def _deliver(self, entry: _Topic, topic: str, event: Event) -> None:
        if entry.needs_reap:
            entry.reap()
        for subscription in entry.snapshot():
            if not subscription.active:
                continue
            try:
                subscription.handler(event)
            except Exception as error:
                if not self._isolate_errors:
                    raise
                self._failed.inc(1, (topic,))
                self.handler_errors.append((topic, error))
                if _SLOG.enabled:
                    _SLOG.emit(
                        "bus",
                        "handler_error",
                        level="error",
                        tick=event.time,
                        topic=topic,
                        error=repr(error),
                    )
                continue
            self._delivered.inc(1, (topic,))

    # -- statistics ------------------------------------------------------------------

    def published_count(self, topic: Optional[str] = None) -> int:
        if topic is None:
            return int(self._published.total())
        return int(self._published.value((topic,)))

    def delivered_count(self, topic: Optional[str] = None) -> int:
        if topic is None:
            return int(self._delivered.total())
        return int(self._delivered.value((topic,)))

    def failed_count(self, topic: Optional[str] = None) -> int:
        """Deliveries that raised under ``isolate_errors=True``."""
        if topic is None:
            return int(self._failed.total())
        return int(self._failed.value((topic,)))

    def topics(self) -> Tuple[str, ...]:
        return tuple(self._topics)
