"""Sharded multi-core enactment (the scale-out layer).

The paper's Enactment System is "a collection of communicating agents
acting as a single server" (Section 6.1) — a logical architecture that
never required a single interpreter.  This package partitions one
federation's work across N shards by *affinity key* (the process
instance id for activity/canonical planes, the context name for
``T_context``, the correlation id for external planes), each shard
hosting a full producers → bus → detectors → delivery pipeline, with a
facade that keeps the single-system API and merges the notification
streams deterministically.

Entry points:

* :class:`~repro.parallel.federation.ShardedFederation` — the facade;
* :class:`~repro.parallel.federation.ShardConfig` — shard count and the
  ``serial`` / ``process`` backend switch;
* :class:`~repro.parallel.host.FederationBlueprint` /
  :class:`~repro.parallel.host.ShardSpec` — the data-only bootstrap;
* :class:`~repro.parallel.router.ShardRouter` — affinity routing;
* :mod:`~repro.parallel.codec` — the binary wire codec, the one
  value encoding shard channels, write-ahead journals and snapshots
  write (``repro journal --dump`` renders it for a human).
"""

from .codec import BinaryDecoder, BinaryEncoder
from .federation import (
    BACKENDS,
    Shard,
    ShardConfig,
    ShardedFederation,
    ShardNotification,
)
from .host import FederationBlueprint, ShardHost, ShardOutbox, ShardSpec
from .router import ShardRouter
from .wire import register_event_type

__all__ = [
    "BACKENDS",
    "BinaryDecoder",
    "BinaryEncoder",
    "FederationBlueprint",
    "Shard",
    "ShardConfig",
    "ShardHost",
    "ShardNotification",
    "ShardOutbox",
    "ShardRouter",
    "ShardSpec",
    "ShardedFederation",
    "register_event_type",
]
