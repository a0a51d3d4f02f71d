"""The agent fabric's event tap: topic → subscriber list, nothing more.

The CMI Enactment System is "a collection of communicating agents acting as
a single server" (Section 6.1).  In this reproduction the agents of the
event path do not talk through the bus: a source agent's producer routes
each primitive event straight to the detector steps registered on its key
index (:meth:`repro.events.producers.EventProducer.add_consumer`), and a
detector agent hands recognitions to the delivery agent by direct call.
The bus is what is left of the fabric for everyone *else*: whoever wants
to watch a stream — a monitor, a test, an observer of ``T_context`` —
subscribes to the topic and sees every event of it, after that event's
detector steps ran.  No agent in ``src/`` subscribes; the bus routes
nothing and has no key index.  The one routing index lives on the
producers.

The bus costs nothing while no one watches.  A producer attached to it
(:meth:`~repro.events.producers.EventProducer.attach`) is filed under
its event type, and it is *linked* — publishes what it emits — only while
that topic has an active subscription: the first :meth:`subscribe` to a
topic links its filed producers, and the :meth:`unsubscribe` of the last
one unlinks them.  An unlinked producer makes no call into this module.
An event published directly (a ``T_delivery`` sink, say) on a topic no
one watches is dropped in the drain loop, without a handler call or a
span.

Topics are event type names.  Dispatch is synchronous but *queued*: an event
published while another event is being dispatched is appended to a FIFO and
delivered after the current dispatch completes, so cascades triggered by
handlers (e.g. a tap reacting to an event by modifying a context, which
publishes another event) see a consistent, non-reentrant order.

A tap is an observer: the operation whose event it watched has already
taken effect, so a handler that raises must not fail it.  Its error is
recorded (:attr:`EventBus.handler_errors`, ``bus_failed_total`` per topic,
a ``handler_error`` structured-log record), the default ``failure-rate``
SLO rule fires on it, and the remaining subscribers still receive the
event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..observability import INSTRUMENTATION as _OBS
from ..observability import MetricsRegistry
from ..observability import STRUCTURED_LOG as _SLOG
from .event import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .producers import EventProducer

Handler = Callable[[Event], None]


@dataclass
class Subscription:
    """A handle returned by :meth:`EventBus.subscribe`; use to unsubscribe."""

    topic: str
    handler: Handler
    active: bool = True


class _Topic:
    """One tapped topic's subscribers, in subscription order.

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
    """Synchronous, queue-draining pub/sub tap with per-topic statistics."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        #: The tapped topics: a topic is here exactly while it has an
        #: active subscription.
        self._topics: Dict[str, _Topic] = {}
        #: Attached producers by output type name, linked while tapped.
        self._producers: Dict[str, List["EventProducer"]] = {}
        self._queue: Deque[Event] = deque()
        self._dispatching = False
        #: Per-topic counters live in the metrics registry (the system's
        #: registry when the bus belongs to an EnactmentSystem, a private
        #: one otherwise) so `stats()` surfaces are views over instruments.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._delivered = self.metrics.counter(
            "bus_delivered_total",
            "Successful handler deliveries, by topic",
            ("topic",),
        )
        self._failed = self.metrics.counter(
            "bus_failed_total",
            "Handler deliveries that raised, by topic",
            ("topic",),
        )
        #: (topic, exception) pairs, one per handler call that raised.
        self.handler_errors: List[Tuple[str, Exception]] = []
        #: Shared per-topic attribute dicts for ``bus.dispatch`` spans.
        self._span_attrs: Dict[str, Dict[str, object]] = {}

    # -- producers -------------------------------------------------------------

    def file_producer(self, producer: "EventProducer") -> None:
        """File *producer* under its output type, linked at once when the
        topic is tapped (a producer feeds one bus)."""
        topic = producer.output_type.name
        filed = self._producers.setdefault(topic, [])
        if producer not in filed:
            filed.append(producer)
        producer._bus = self if topic in self._topics else None

    def producers(self) -> Tuple["EventProducer", ...]:
        """The attached producers, tapped or not."""
        return tuple(p for filed in self._producers.values() for p in filed)

    def _link(self, topic: str, bus: Optional["EventBus"]) -> None:
        for producer in self._producers.get(topic, ()):
            producer._bus = bus

    # -- subscription ----------------------------------------------------------

    def subscribe(self, topic: str, handler: Handler) -> Subscription:
        """Register *handler* for every event whose type name equals *topic*."""
        subscription = Subscription(topic=topic, handler=handler)
        entry = self._topics.get(topic)
        if entry is None:
            entry = self._topics[topic] = _Topic()
            self._link(topic, self)
        entry.add(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Deactivate and remove *subscription*; the topic's last one
        unlinks its producers.

        Safe to call from inside a handler: the in-flight dispatch checks
        the ``active`` flag, and the list entry is reaped lazily on the
        next dispatch of the topic (removing it immediately could race
        with the dispatch snapshot).
        """
        if not subscription.active:
            return
        subscription.active = False
        topic = subscription.topic
        entry = self._topics.get(topic)
        if entry is None:
            return
        if not any(s.active for s in entry.subscriptions):
            del self._topics[topic]
            self._link(topic, None)
        elif self._dispatching:
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

        A producer hands its batch over here whole, after routing all of
        it: the batch joins the FIFO before dispatch starts, and a single
        drain loop delivers it — same ordering guarantees as repeated
        :meth:`publish` with less per-event overhead.
        """
        self._queue.extend(events)
        if self._dispatching:
            return
        self._drain()

    def _drain(self) -> None:
        """Dispatch the queue until it is empty; an event of an untapped
        topic is dropped.  Whatever escapes (a handler's ``Exception``
        does not) leaves nothing queued behind it."""
        self._dispatching = True
        queue = self._queue
        topics = self._topics
        try:
            while queue:
                event = queue.popleft()
                # The slot, not the property: one call fewer an event.
                topic = event._event_type.name
                entry = topics.get(topic)
                if entry is not None:
                    self._dispatch(entry, topic, event)
        finally:
            queue.clear()
            self._dispatching = False

    def _dispatch(self, entry: _Topic, topic: str, event: Event) -> None:
        # Inside a trace the sampler skipped, no span opens (see
        # Tracer._light_depth).
        if _OBS.enabled and not _OBS.tracer._light_depth:
            tracer = _OBS.tracer
            attrs = self._span_attrs.get(topic)
            if attrs is None:
                attrs = self._span_attrs[topic] = {"topic": topic}
            span = tracer.begin("bus.dispatch", event._params["time"], attrs)
            try:
                self._deliver(entry, topic, event)
            finally:
                tracer.end(span)
        else:
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

    def delivered_count(self, topic: Optional[str] = None) -> int:
        if topic is None:
            return int(self._delivered.total())
        return int(self._delivered.value((topic,)))

    def failed_count(self, topic: Optional[str] = None) -> int:
        """Handler calls that raised."""
        if topic is None:
            return int(self._failed.total())
        return int(self._failed.value((topic,)))
