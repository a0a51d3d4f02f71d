"""Affinity routing: deterministic, plane-aware, overridable."""

from repro.events.canonical import canonical_type
from repro.events.event import Event
from repro.events.external import NEWS_EVENT_TYPE
from repro.events.producers import (
    ACTIVITY_EVENT_TYPE,
    CONTEXT_EVENT_TYPE,
    SYSTEM_EVENT_TYPE,
)
from repro.parallel.router import ShardRouter
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload


def activity_event(instance="tf-001"):
    return Event.trusted(
        ACTIVITY_EVENT_TYPE,
        {
            "time": 1,
            "source": "E_activity",
            "activityInstanceId": "act-1",
            "activityVariableId": "State",
            "parentProcessSchemaId": "P",
            "parentProcessInstanceId": instance,
            "oldValue": "a",
            "newValue": "b",
        },
    )


def context_event(context="Ctx", instance="tf-001"):
    return Event.trusted(
        CONTEXT_EVENT_TYPE,
        {
            "time": 1,
            "source": "E_context",
            "contextId": "ctx-1",
            "contextName": context,
            "processAssociations": frozenset({("P", instance)}),
            "fieldName": "Deadline",
            "oldFieldValue": 1,
            "newFieldValue": 2,
        },
    )


class TestAffinityKeys:
    def test_activity_routes_by_process_instance(self):
        router = ShardRouter()
        assert router.affinity_key(activity_event("tf-001")) == "tf-001"

    def test_context_routes_by_context_name(self):
        # The context, not the instance, is the affinity key: one context
        # may be associated with several process instances (DESIGN note 9).
        router = ShardRouter()
        a = context_event("SharedCtx", "tf-001")
        b = context_event("SharedCtx", "tf-002")
        assert router.affinity_key(a) == "SharedCtx"
        assert router.shard_for(a, 8) == router.shard_for(b, 8)

    def test_system_routes_by_system_id(self):
        router = ShardRouter()
        event = Event.trusted(
            SYSTEM_EVENT_TYPE,
            {
                "time": 1,
                "source": "E_system",
                "systemId": "cmi-3",
                "metric": "m",
                "seriesLabel": "s",
                "value": 1,
            },
        )
        assert router.affinity_key(event) == "cmi-3"

    def test_external_routes_by_correlation_chain(self):
        router = ShardRouter()
        event = Event.trusted(
            NEWS_EVENT_TYPE,
            {
                "time": 1,
                "source": "E_news",
                "queryId": "query-9",
                "headline": "h",
            },
        )
        assert router.affinity_key(event) == "query-9"

    def test_canonical_routes_by_process_instance(self):
        router = ShardRouter()
        event = Event.trusted(
            canonical_type("P"),
            {
                "time": 1,
                "source": "detector",
                "processSchemaId": "P",
                "processInstanceId": "tf-007",
            },
        )
        assert router.affinity_key(event) == "tf-007"

    def test_registered_extractor_overrides_the_default(self):
        router = ShardRouter()
        router.register("T_context", lambda event: event.params["contextId"])
        assert router.affinity_key(context_event()) == "ctx-1"


class TestShardAssignment:
    def test_same_key_same_shard(self):
        for n in (1, 2, 4, 7):
            assert ShardRouter.shard_for_key("tf-001", n) == (
                ShardRouter.shard_for_key("tf-001", n)
            )

    def test_single_shard_short_circuits(self):
        assert ShardRouter.shard_for_key("anything", 1) == 0
        assert ShardRouter.shard_for_key("anything", 0) == 0

    def test_assignment_is_stable_across_processes(self):
        # crc32, not the salted builtin hash: the parent's routing
        # decision must agree with any worker recomputing it.
        import zlib

        key = ("P", "tf-042")
        expected = zlib.crc32(repr(key).encode("utf-8")) % 4
        assert ShardRouter.shard_for_key(key, 4) == expected

    def test_events_spread_across_shards(self):
        router = ShardRouter()
        shards = {
            router.shard_for(context_event(f"Ctx{i}"), 4) for i in range(32)
        }
        assert len(shards) > 1


class TestShardSlices:
    def test_union_of_slices_is_the_unsharded_stream(self):
        workload = ShardStreamWorkload(
            ShardStreamConfig(forces=5, windows_per_force=2, events_per_force=20)
        )
        full = workload.events()
        slices = [workload.shard_slice(3, i) for i in range(3)]
        assert sum(len(s) for s in slices) == len(full)
        merged = sorted(
            (e for s in slices for e in s), key=lambda e: e.params["time"]
        )
        assert [e.params for e in merged] == [e.params for e in full]

    def test_slices_preserve_per_force_order(self):
        workload = ShardStreamWorkload(
            ShardStreamConfig(forces=4, windows_per_force=1, events_per_force=12)
        )
        for shard in range(2):
            sliced = workload.shard_slice(2, shard)
            by_force = {}
            for event in sliced:
                by_force.setdefault(event.params["contextName"], []).append(
                    event.params["newFieldValue"]
                )
            for values in by_force.values():
                assert values == sorted(values)

    def test_slice_matches_router_decision(self):
        workload = ShardStreamWorkload(
            ShardStreamConfig(forces=4, windows_per_force=1, events_per_force=8)
        )
        router = ShardRouter()
        for event in workload.shard_slice(4, 2, router=router):
            assert router.shard_for(event, 4) == 2


class TestShardCache:
    def test_cached_assignment_matches_the_uncached_hash(self):
        router = ShardRouter()
        events = [activity_event(f"tf-{i:03d}") for i in range(20)]
        # First pass populates the memo, second pass serves from it;
        # both must agree with the pure hash.
        for _pass in range(2):
            for event in events:
                shard = router.shard_for(event, 4)
                key = router.affinity_key(event)
                assert shard == ShardRouter.shard_for_key(key, 4)
        assert len(router._shard_cache[4]) == 20

    def test_cache_keys_include_the_shard_count(self):
        router = ShardRouter()
        event = activity_event("tf-007")
        key = router.affinity_key(event)
        for count in (2, 3, 4, 5):
            assert router.shard_for(event, count) == (
                ShardRouter.shard_for_key(key, count)
            )
        # One memo per shard count, each holding the one key.
        assert sorted(router._shard_cache) == [2, 3, 4, 5]
        assert all(len(memo) == 1 for memo in router._shard_cache.values())

    def test_full_cache_clears_instead_of_evicting(self):
        from repro.parallel.router import ROUTER_CACHE_MAX

        router = ShardRouter()
        router._shard_cache = {
            4: {("warm", index): 0 for index in range(ROUTER_CACHE_MAX)}
        }
        router.shard_for(activity_event("tf-new"), 4)
        # The overflowing insert reset the memo to just itself.
        assert router._shard_cache[4] == {
            "tf-new": ShardRouter.shard_for_key("tf-new", 4)
        }

    def test_unhashable_keys_fall_through_to_the_hash(self):
        from repro.events.external import NEWS_EVENT_TYPE_NAME

        router = ShardRouter()
        router.register(
            NEWS_EVENT_TYPE_NAME, lambda event: ["q", "1"]  # unhashable
        )
        event = Event.trusted(
            NEWS_EVENT_TYPE,
            {
                "time": 1,
                "source": "news",
                "queryId": "q-1",
                "articleId": "a-1",
                "relevance": 1.0,
            },
        )
        shard = router.shard_for(event, 4)
        assert shard == ShardRouter.shard_for_key(["q", "1"], 4)
        assert not any(router._shard_cache.values())
