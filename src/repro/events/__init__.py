"""Event substrate (the CEDMOS role in Figure 5).

CMI's Awareness Engine is built on a general event processing system
(CEDMOS [3] in the prototype).  This package is our from-scratch
implementation of that substrate:

* self-contained events carrying name-value parameters
  (:mod:`repro.events.event`);
* the canonical event type ``C_P`` of Section 5.1.2
  (:mod:`repro.events.canonical`);
* a publish/subscribe bus with typed topics (:mod:`repro.events.bus`);
* the primitive event producers ``E_activity`` and ``E_context`` of
  Section 5.1.1 (:mod:`repro.events.producers`);
* application-specific external event sources such as the news service of
  Section 5.1.1 (:mod:`repro.events.external`);
* persistent per-participant delivery queues of Section 6.5
  (:mod:`repro.events.queues`).
"""

from .bus import EventBus, Subscription
from .canonical import (
    CANONICAL_PREFIX,
    canonical_event,
    canonical_type,
    canonical_type_name,
    is_canonical,
)
from .event import Event, EventType, ParameterSpec
from .external import ExternalEventSource, NewsServiceSource
from .producers import (
    ACTIVITY_EVENT_TYPE,
    CONTEXT_EVENT_TYPE,
    ActivityEventProducer,
    ContextEventProducer,
    EventProducer,
)
from .queues import (
    DeliveryQueue,
    MemoryDeliveryQueue,
    Notification,
    SqliteDeliveryQueue,
)

__all__ = [
    "ACTIVITY_EVENT_TYPE",
    "ActivityEventProducer",
    "CANONICAL_PREFIX",
    "CONTEXT_EVENT_TYPE",
    "ContextEventProducer",
    "DeliveryQueue",
    "Event",
    "EventBus",
    "EventProducer",
    "EventType",
    "ExternalEventSource",
    "MemoryDeliveryQueue",
    "NewsServiceSource",
    "Notification",
    "ParameterSpec",
    "SqliteDeliveryQueue",
    "Subscription",
    "canonical_event",
    "canonical_type",
    "canonical_type_name",
    "is_canonical",
]
