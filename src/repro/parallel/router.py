"""Affinity routing: which shard owns an event?

QE2 established that operator state is partitioned per process instance
(Section 5.1.2 "process instance replication"), so the natural shard
affinity of the ``T_activity`` plane and of every canonical ``C[P]``
plane is the *process instance id*: all the state an event can touch
lives under that key, and co-locating the key co-locates the state.

``T_context`` events route by **context name**, not instance id: a
context resource can be associated with *several* process instances at
once (Figure 3's task-force context is shared with its information
request subprocesses), so an instance-keyed route would be ill-defined —
the same event would belong to several shards.  Routing the whole named
context to one shard keeps every observer of that context, whichever
instance it watches, on the shard that sees the context's events (see
DESIGN note 9).

External planes (``T_external``) route by correlation id — the paper's
news service stamps a ``queryId`` relating articles back to the
registering task force — and anything unrecognized falls back to the
event's ``source``, so routing is always total.  All defaults are
replaceable per type name via :meth:`ShardRouter.register` (the same
shape as ``EventOperator.routing_keys``: a callable from event to
hashable key).

Hashing is ``zlib.crc32`` over the key's string form: Python's ``hash``
is salted per process, and the router must agree with itself across the
facade and every worker.

A wave is routed by column (:meth:`ShardRouter.shard_indices`, DESIGN
note 36): each same-type run's keys are read in one pass — an
``itemgetter`` where a built-in affinity reads one parameter, the
extractor mapped over the run otherwise — and looked up in a memo of
string keys, so only the misses are hashed.  :meth:`ShardRouter.shard_for`
is the one-event case of the same code.
"""

from __future__ import annotations

import zlib
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional

from ..events.canonical import is_canonical
from ..events.event import Event
from ..events.external import NEWS_EVENT_TYPE_NAME
from ..events.producers import (
    ACTIVITY_EVENT_TYPE_NAME,
    CONTEXT_EVENT_TYPE_NAME,
    SYSTEM_EVENT_TYPE_NAME,
)

KeyExtractor = Callable[[Event], Hashable]

#: Entries kept in a key-to-shard memo of the router before it resets.
#: Affinity keys are heavily repeated (every event of one process
#: instance, context, or system carries the same key), so a small cache
#: absorbs nearly all the ``repr`` + crc32 work on the ingest hot path.
ROUTER_CACHE_MAX = 4096


def activity_affinity(event: Event) -> Hashable:
    """``T_activity``: the owning process instance (QE2's partition key)."""
    params = event.params
    return params.get("parentProcessInstanceId") or params["activityInstanceId"]


def context_affinity(event: Event) -> Hashable:
    """``T_context``: the context *name* (associations may span instances)."""
    return event.params["contextName"]


def system_affinity(event: Event) -> Hashable:
    """``T_system``: the reporting system — its series are one state."""
    return event.params["systemId"]


def external_affinity(event: Event) -> Hashable:
    """External planes: correlation id, with a total fallback chain."""
    params = event.params
    for name in ("correlationId", "queryId"):
        value = params.get(name)
        if value is not None:
            return value
    return params["source"]


def canonical_affinity(event: Event) -> Hashable:
    """``C[P]`` planes: the process instance the state is replicated on."""
    return event.params["processInstanceId"]


#: An event's type name and parameter mapping, read in C (the mapping of
#: a ``C_P`` record is its property's).
_type_name = attrgetter("_event_type.name")
_get_params = attrgetter("_params")

#: The built-in affinities that read one parameter, each with that read
#: as an ``itemgetter`` over a run's mappings: a run's keys are one
#: column, and a missing parameter raises what the extractor raises.
_ONE_PARAMETER: Dict[KeyExtractor, Callable[[Mapping[str, Any]], Hashable]] = {
    context_affinity: itemgetter("contextName"),
    system_affinity: itemgetter("systemId"),
    canonical_affinity: itemgetter("processInstanceId"),
}


class ShardRouter:
    """Deterministic event-to-shard assignment by affinity key."""

    def __init__(self) -> None:
        self._extractors: Dict[str, KeyExtractor] = {
            ACTIVITY_EVENT_TYPE_NAME: activity_affinity,
            CONTEXT_EVENT_TYPE_NAME: context_affinity,
            SYSTEM_EVENT_TYPE_NAME: system_affinity,
            NEWS_EVENT_TYPE_NAME: external_affinity,
        }
        #: Memoized ``key -> shard`` results, one memo per shard count.
        #: Purely a cache of :meth:`shard_for_key` (which depends on
        #: nothing but its arguments), so extractor registration never
        #: invalidates it.  Bounded: a full memo is cleared, not evicted
        #: — the hot keys repopulate it within one batch.
        self._shard_cache: Dict[int, Dict[Hashable, int]] = {}

    def register(self, type_name: str, extractor: KeyExtractor) -> None:
        """Install (or replace) the affinity extractor for *type_name*.

        Applications with custom external event types register the
        extractor that names their correlation parameter, exactly as
        operators declare ``routing_keys``.
        """
        self._extractors[type_name] = extractor

    def extractor_for(self, type_name: str) -> Optional[KeyExtractor]:
        extractor = self._extractors.get(type_name)
        if extractor is None and is_canonical(type_name):
            return canonical_affinity
        return extractor

    def affinity_key(self, event: Event) -> Hashable:
        """The hashable affinity key of *event* (total: always returns)."""
        return self._keys(event.type_name, [event])[0]

    def _keys(self, type_name: str, run: List[Event]) -> List[Hashable]:
        """The affinity keys of *run*, whose events share *type_name*."""
        extractor = self.extractor_for(type_name) or external_affinity
        read = _ONE_PARAMETER.get(extractor)
        if read is None:
            return list(map(extractor, run))
        return list(map(read, map(_get_params, run)))

    def shard_for(self, event: Event, shard_count: int) -> int:
        """The shard index in ``[0, shard_count)`` owning *event*."""
        return self.shard_indices([event], shard_count)[0]

    def shard_indices(self, events: List[Event], shard_count: int) -> List[int]:
        """The owning shard of each of *events*, in order.

        Each same-type run's keys are read as one column, and mapped to
        shards through the memo; only the keys it misses are hashed.
        """
        if shard_count <= 1:
            return [0] * len(events)
        memo = self._shard_cache.get(shard_count)
        if memo is None:
            memo = self._shard_cache[shard_count] = {}
        indices: List[int] = []
        i = 0
        for type_name, group in groupby(map(_type_name, events)):
            j = i + len(list(group))
            keys = self._keys(type_name, events[i:j])
            shards: List[Any]
            try:
                shards = list(map(memo.get, keys))
            except TypeError:
                # An unhashable custom key: every key of the run misses.
                shards = [None] * len(keys)
            if None in shards:
                for k, shard in enumerate(shards):
                    if shard is None:
                        key = keys[k]
                        shards[k] = shard = self.shard_for_key(key, shard_count)
                        # Only strings are memoized: keys of other types
                        # can be equal and still hash apart (``1``,
                        # ``1.0`` and ``True`` have three reprs).
                        if type(key) is str:
                            if len(memo) >= ROUTER_CACHE_MAX:
                                memo.clear()
                            memo[key] = shard
            indices += shards
            i = j
        return indices

    @staticmethod
    def shard_for_key(key: Hashable, shard_count: int) -> int:
        """Hash an affinity key; stable across processes and runs."""
        if shard_count <= 1:
            return 0
        digest = zlib.crc32(repr(key).encode("utf-8"))
        return digest % shard_count
