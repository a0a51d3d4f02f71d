"""Predicate-indexed routing through the full awareness pipeline.

These tests exercise the tentpole property end to end: a primitive event
is dispatched only to the operators whose static parameters can match it.
Filters expose their match key via ``EventOperator.routing_keys`` and the
shared event source producers index deployed consumers by that key, so
independently deployed specification windows never see each other's
events — and retiring a window removes its index entries.
"""

import pytest

from repro import (
    ActivityVariable,
    BasicActivitySchema,
    ContextFieldSpec,
    ContextSchema,
    EnactmentSystem,
    Participant,
    ProcessActivitySchema,
    RoleRef,
)


def build_system(fields=("alpha", "beta")):
    system = EnactmentSystem()
    watcher = system.register_participant(Participant("u-w", "watcher"))
    system.core.roles.define_role("watchers").add_member(watcher)
    process = ProcessActivitySchema("P-X", "watched")
    process.add_context_schema(
        ContextSchema("Ctx", [ContextFieldSpec(f, "int") for f in fields])
    )
    process.add_activity_variable(
        ActivityVariable("w", BasicActivitySchema("b-w", "w"))
    )
    process.mark_entry("w")
    system.core.register_schema(process)
    return system, process


def deploy_field_watcher(system, field_name, name):
    window = system.awareness.create_window("P-X")
    flt = window.place(
        "Filter_context", "Ctx", field_name, instance_name=f"flt-{name}"
    )
    window.connect(window.source("ContextEvent"), flt, 0)
    window.output(flt, RoleRef("watchers"), schema_name=f"AS_{name}")
    return system.awareness.deploy(window)


class TestZeroCrossTalk:
    def test_two_fields_two_schemas_no_cross_talk(self):
        """Each deployed window recognizes exactly its own field's changes
        even though both windows hang off the same shared producer."""
        system, process = build_system()
        det_alpha = deploy_field_watcher(system, "alpha", "alpha")
        det_beta = deploy_field_watcher(system, "beta", "beta")

        ref = system.coordination.start_process(process).context("Ctx")
        for value in range(5):
            ref.set("alpha", value)
        ref.set("beta", 99)

        assert det_alpha.recognized == 5
        assert det_beta.recognized == 1

    def test_filters_only_visited_for_matching_key(self):
        """The index routes around non-matching filters entirely: the beta
        filter's consumed-event counter stays at exactly its own events,
        proving it was never dispatched alpha's changes."""
        system, process = build_system()
        deploy_field_watcher(system, "alpha", "alpha")
        det_beta = deploy_field_watcher(system, "beta", "beta")
        beta_filter = next(iter(det_beta.window.graph.operators()))

        ref = system.coordination.start_process(process).context("Ctx")
        for value in range(4):
            ref.set("alpha", value)
        ref.set("beta", 7)

        assert beta_filter.consumed == 1

    def test_activity_filters_keyed_by_schema_and_variable(self):
        """Activity filters route on (parentProcessSchemaId,
        activityVariableId); a filter for a different variable is never
        visited."""
        from repro.awareness.operators.filters import ActivityFilter

        flt_w = ActivityFilter("P-X", "w")
        flt_other = ActivityFilter("P-X", "other")
        assert flt_w.routing_keys(0) == [("P-X", "w")]
        assert flt_other.routing_keys(0) == [("P-X", "other")]

        system, process = build_system()
        producer = system.awareness.activity_source.producer
        producer.add_consumer(
            lambda event: flt_w.consume(0, event), keys=flt_w.routing_keys(0)
        )
        producer.add_consumer(
            lambda event: flt_other.consume(0, event),
            keys=flt_other.routing_keys(0),
        )
        system.coordination.start_process(process)

        assert flt_w.consumed >= 1  # "w" was started by the entry mark
        assert flt_other.consumed == 0


class TestWildcardSubscribers:
    def test_bus_wildcard_subscriber_sees_all_events(self):
        """A plain (unkeyed) bus subscription still observes the complete
        ``T_context`` stream regardless of how filters are keyed."""
        system, process = build_system()
        deploy_field_watcher(system, "alpha", "alpha")
        seen = []
        system.awareness.bus.subscribe("T_context", seen.append)

        ref = system.coordination.start_process(process).context("Ctx")
        ref.set("alpha", 1)
        ref.set("beta", 2)

        assert [e["fieldName"] for e in seen] == ["alpha", "beta"]

    def test_dynamic_predicate_operators_stay_wildcard(self):
        """Operators whose match predicate is runtime state (bound queries)
        report no static routing key, so the producer keeps them in the
        wildcard bucket and they see every event."""
        from repro.awareness.operators.filters import ExternalFilter

        flt = ExternalFilter("P-X", "NewsEvent")
        assert flt.routing_keys(0) is None


class TestUndeploy:
    def test_undeploy_removes_index_entries(self):
        system, process = build_system()
        producer = system.awareness.context_source.producer
        baseline_consumers = producer.consumer_count()
        baseline_keys = producer.indexed_key_count()

        detector = deploy_field_watcher(system, "alpha", "alpha")
        assert producer.consumer_count() == baseline_consumers + 1
        assert producer.indexed_key_count() == baseline_keys + 1

        system.awareness.undeploy(detector)
        assert producer.consumer_count() == baseline_consumers
        assert producer.indexed_key_count() == baseline_keys
        assert detector not in system.awareness.detectors()

    def test_no_ghost_deliveries_after_undeploy(self):
        """Events arriving after undeploy are not dispatched to the retired
        window's operators, while surviving windows keep working."""
        system, process = build_system()
        det_alpha = deploy_field_watcher(system, "alpha", "alpha")
        det_beta = deploy_field_watcher(system, "beta", "beta")

        ref = system.coordination.start_process(process).context("Ctx")
        ref.set("alpha", 1)
        assert det_alpha.recognized == 1

        system.awareness.undeploy(det_alpha)
        ref.set("alpha", 2)
        ref.set("beta", 3)

        assert det_alpha.recognized == 1  # frozen: no ghost deliveries
        assert det_beta.recognized == 1  # survivor unaffected

    def test_undeploy_is_idempotent(self):
        system, process = build_system()
        detector = deploy_field_watcher(system, "alpha", "alpha")
        system.awareness.undeploy(detector)
        system.awareness.undeploy(detector)  # second call is a no-op
        assert detector not in system.awareness.detectors()

    def test_redeploy_rewires_without_double_delivery(self):
        """deploy -> undeploy -> deploy restores exactly one leaf link and
        one detection listener: events flow again and are delivered once."""
        system, process = build_system()
        producer = system.awareness.context_source.producer
        window = system.awareness.create_window("P-X")
        flt = window.place("Filter_context", "Ctx", "alpha")
        window.connect(window.source("ContextEvent"), flt, 0)
        window.output(flt, RoleRef("watchers"), schema_name="AS_alpha")

        first = system.awareness.deploy(window)
        system.awareness.undeploy(first)
        before = producer.consumer_count()
        second = system.awareness.deploy(window)
        assert producer.consumer_count() == before + 1

        ref = system.coordination.start_process(process).context("Ctx")
        ref.set("alpha", 1)
        assert first.recognized == 0  # the retired agent stays silent
        assert second.recognized == 1
        participant = system.core.roles.participant("u-w")
        notifications = system.awareness.viewer_for(participant).retrieve()
        assert len(notifications) == 1  # delivered once, not once per deploy


class TestBoundedMemory:
    def test_recognitions_leave_no_per_event_container(self):
        """A deployed window counts what it recognises and keeps none of
        it: no sequence field of the detector or its descriptions grows
        with the stream."""
        from collections import deque

        system, process = build_system()
        detector = deploy_field_watcher(system, "alpha", "alpha")
        holders = [detector] + [
            schema.description for schema in detector.window.schemas()
        ]

        def container_sizes():
            return {
                (type(holder).__name__, name): len(value)
                for holder in holders
                for name, value in vars(holder).items()
                if isinstance(value, (list, tuple, deque))
            }

        ref = system.coordination.start_process(process).context("Ctx")
        ref.set("alpha", -1)
        before = container_sizes()
        assert before  # the scan does look at something (sinks, listeners)
        for value in range(1000):
            ref.set("alpha", value)

        assert detector.recognized == 1001
        assert container_sizes() == before


class TestCallBudget:
    """Count-based pin on the linked detector plan (no wall clock).

    One filter -> count -> edge chain, fed through a shard host with
    windows on other contexts deployed beside it.  Counted: Python-level
    calls (``sys.setprofile`` ``call`` events — interpreter frames, not C
    builtins) per event that runs the chain, everything between
    ``ShardHost.ingest`` and the delivery queue included.  The
    per-operator ``consume`` dispatch the linked kernels replaced took
    37.  The linked kernels took 19.25 while ``Count`` re-checked each
    output through ``derive``, and 17.25 once conformance was checked at
    the ingest door alone.  With each operator -> operator hop one call,
    every ``C_P`` event a record and the DSL's predicate a C call, the
    chain takes 12.24: the door (2: the type check and ``T_context``'s
    association members), the bus's dispatch of the event (1), the
    routing dispatch and key (2), the filter (3: its step, kernel and
    ``emit``), the count (3: kernel, ``relayed`` and ``emit``) and the
    edge (1: its kernel), plus the frame's share of the bus batch and
    the one delivery.
    """

    #: The measured count; a change that adds a call per
    #: chain-event must say why here.
    BUDGET = 12.24

    EVENTS = 200

    def chain_frame(self, bystanders):
        """A shard host with the chain and *bystanders* windows beside
        it, and the frame of the chain's events."""
        from repro.parallel.host import ShardHost
        from repro.workloads.generator import (
            ShardStreamConfig,
            ShardStreamWorkload,
        )

        workload = ShardStreamWorkload(
            ShardStreamConfig(
                forces=1 + bystanders,
                windows_per_force=1,
                events_per_force=self.EVENTS,
                members_per_team=1,
            )
        )
        host = ShardHost(0, 1)
        host.apply_blueprint(workload.blueprint())
        events = [
            event
            for event in workload.events()
            if event["contextName"] == workload.context_name(0)
        ]
        return host, events

    def python_calls_per_event(self, bystanders):
        import sys

        host, events = self.chain_frame(bystanders)
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profiler)
        try:
            host.ingest(events)
        finally:
            sys.setprofile(None)
        # The chain did run: its one window fired its one notification.
        assert [r["schema"] for r in host.drain_results()] == ["AS_TF000_0"]
        host.close()
        return calls / len(events)

    def test_one_chain_event_stays_within_the_call_budget(self):
        assert self.python_calls_per_event(bystanders=8) <= self.BUDGET

    @pytest.mark.parametrize("instrument", [False, True])
    def test_a_chain_event_builds_no_parameter_mapping(self, instrument, monkeypatch):
        """``C_P`` events are records: the filter's and the count's
        outputs, the edge's one firing and the ``Output`` reading it —
        traced or not — build no parameter mapping.  (Each chain-event
        built two, the filter's and the count's, while every ``C_P``
        event held one.)"""
        from types import MappingProxyType

        from repro.events import canonical, event
        from repro.events.canonical import is_canonical
        from repro.observability import instrumented

        host, events = self.chain_frame(bystanders=8)
        built = 0

        def counting(mapping):
            nonlocal built
            if is_canonical(mapping.get("type", "")):
                built += 1
            return MappingProxyType(mapping)

        # Every ``C_P`` parameter mapping in the package is born here.
        monkeypatch.setattr(event, "MappingProxyType", counting)
        monkeypatch.setattr(canonical, "MappingProxyType", counting, raising=False)
        if instrument:
            with instrumented():
                host.ingest(events)
        else:
            host.ingest(events)
        assert [r["schema"] for r in host.drain_results()] == ["AS_TF000_0"]
        host.close()
        assert built == 0

    def test_windows_on_other_contexts_cost_the_chain_nothing(self):
        """The routing index still does its job after the re-wire: the
        chain's cost does not depend on how many windows it never
        matches are deployed beside it."""
        assert self.python_calls_per_event(8) == self.python_calls_per_event(64)
