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


def python_calls(function, *args, within=None):
    """Python-level calls (``sys.setprofile`` ``call`` events: interpreter
    frames, not C builtins) made by ``function(*args)``, that one
    included; with *within* (a module), only calls into that module's
    file.  The collector is off while counting: a collection would
    add a call to each Python callback a library left in
    ``gc.callbacks`` (Hypothesis leaves one) whenever it happened to
    run."""
    import gc
    import sys

    calls = 0
    filename = None if within is None else within.__file__

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and filename in (None, frame.f_code.co_filename):
            calls += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def attached(build):
    """A fresh ``(host, events)`` from *build* and :func:`python_calls`
    per event of ``host.ingest(events)`` with instrumentation on.  A
    first pair ingests its stream beforehand: a process's first sampled
    trace also creates the tracer's per-stage histogram children, and
    ``instrumented()`` restarts the 1-in-16 sampler, so both runs sample
    the same events."""
    from repro.observability import instrumented

    warm, events = build()
    with instrumented():
        warm.ingest(events)
    warm.close()
    host, events = build()
    with instrumented():
        calls = python_calls(host.ingest, events)
    return host, calls / len(events)


def decoded_runs(events):
    """*events* across the codec as a shard worker decodes them: the
    frame's list, each ``ROWS`` record one run, and the covers."""
    from repro.parallel.codec import BinaryDecoder, BinaryEncoder, events_frame

    decoder = BinaryDecoder()
    data = BinaryEncoder().encode_frame(events_frame(events))
    frame = decoder.decode_runs(memoryview(data)[4:])
    return frame["events"], decoder.covers


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
    windows on other contexts deployed beside it.  Counted:
    :func:`python_calls` per event that runs the chain, everything between
    ``ShardHost.ingest`` and the delivery queue included.  The
    per-operator ``consume`` dispatch the linked kernels replaced took
    37.  The linked kernels took 19.25 while ``Count`` re-checked each
    output through ``derive``, and 17.25 once conformance was checked at
    the ingest door alone.  With each operator -> operator hop one call,
    every ``C_P`` event a record and the DSL's predicate a C call, the
    chain took 12.24, 7 of them the filter (its step, kernel and
    ``emit``), the count (kernel, ``relayed`` and ``emit``) and the
    edge (its kernel).  Linked as one generated segment, the chain is 1
    call, and the whole takes 6.24: the door (2: the type check and
    ``T_context``'s association members), the bus's dispatch of the
    event (1), the routing dispatch and key (2), the segment (1), plus
    the frame's share of the bus batch and the one delivery.  With
    ``Output`` on its generated hop kernel, that delivery is three calls
    fewer: 6.23 -> 6.215 measured.  Admitted by column, the door makes
    no call per event (its type check and the association members run
    per run and per distinct set), and the bus drops a run no one
    subscribed to without a dispatch call per event: 3.225.

    Attached — instrumentation on, one trace in 16 sampled — the chain
    runs hop by hop (the segment hands each event to the filter's
    entry), building every hop's record for provenance.  That path took
    20.875 calls while each hop's kernel sat behind a step wrapper that
    bumped the tracer's light depth inside a skipped trace; with the
    generated entry the only way into a slot (guard, count, and a span
    only in a sampled trace) it takes 19.755, and 17.765 with the door
    admitting by column and the bus dropping the skipped traces' runs.
    This is the baseline an attached run that stays fused is measured
    against.

    Decoded — the frame across the codec as a shard worker reads it,
    its one ``ROWS`` record a run of columns — the producer walks the
    rows and calls the segment's column entry with the run and the row:
    one call per chain-event, with no event, routing key call or bus
    call per row, and the run's share of the door.  The same frame took
    3.2 as events.
    """

    #: The measured counts, detached, attached and decoded; a change that
    #: adds a call per chain-event must say why here.
    BUDGET = 3.225
    ATTACHED = 17.765
    DECODED = 1.25

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
        # The chain's segment shape is compiled when its first event
        # arrives in a process: do that outside the count.
        warm, events = self.chain_frame(0)
        warm.ingest(events[:1])
        warm.close()
        host, events = self.chain_frame(bystanders)
        calls = python_calls(host.ingest, events)
        # The chain did run: its one window fired its one notification.
        assert [r["schema"] for r in host.drain_results()] == ["AS_TF000_0"]
        host.close()
        return calls / len(events)

    def test_one_chain_event_stays_within_the_call_budget(self):
        assert self.python_calls_per_event(bystanders=8) <= self.BUDGET

    @pytest.mark.parametrize("bystanders", [8, 64])
    def test_a_decoded_chain_event_stays_within_its_call_budget(self, bystanders):
        warm, events = self.chain_frame(0)
        warm.ingest(events[:1])
        warm.close()
        host, events = self.chain_frame(bystanders)
        items, covers = decoded_runs(events)
        calls = python_calls(host.ingest, items, None, covers)
        assert [r["schema"] for r in host.drain_results()] == ["AS_TF000_0"]
        host.close()
        assert calls / len(events) <= self.DECODED

    def test_an_attached_chain_event_stays_within_its_call_budget(self):
        host, calls = attached(lambda: self.chain_frame(bystanders=8))
        assert calls <= self.ATTACHED
        assert [r["schema"] for r in host.drain_results()] == ["AS_TF000_0"]
        host.close()

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

    @pytest.mark.parametrize("instrument", [False, True])
    def test_a_record_is_built_only_where_the_event_escapes(
        self, instrument, monkeypatch
    ):
        """Inside the chain's segment the filter's and the count's
        outputs are locals: uninstrumented, the one record built is the
        edge's firing, which leaves the segment for its ``Output``.
        Instrumented, the chain runs hop by hop and every hop builds its
        record, as before: the filter's and the count's for each event,
        and the edge's one firing."""
        from repro.awareness.operators import Count, ContextFilter, Edge, Output, segments
        from repro.observability import instrumented

        built = 0

        def counting(cls):
            nonlocal built
            built += 1
            return object.__new__(cls)

        # Fresh factories, compiled with the counting constructor: every
        # record a kernel or segment builds is born there.
        monkeypatch.setitem(segments._GLOBALS, "_new", counting)
        monkeypatch.setattr(segments, "_FACTORIES", {})
        for family in (ContextFilter, Count, Edge, Output):
            segments._compile(family.template, "hop", (family.template,))
        host, events = self.chain_frame(bystanders=8)
        if instrument:
            with instrumented():
                host.ingest(events)
        else:
            host.ingest(events)
        assert [r["schema"] for r in host.drain_results()] == ["AS_TF000_0"]
        host.close()
        assert built == (2 * len(events) + 1 if instrument else 1)

    def test_windows_on_other_contexts_cost_the_chain_nothing(self):
        """The routing index still does its job after the re-wire: the
        chain's cost does not depend on how many windows it never
        matches are deployed beside it."""
        assert self.python_calls_per_event(8) == self.python_calls_per_event(64)


class TestCompare2CallBudget:
    """Count-based pin on the ``Compare2`` path, measured as
    :class:`TestCallBudget` measures: Python calls per event between
    ``ShardHost.ingest`` and the delivery queue, on one window of two
    context filters -> ``Compare2`` -> ``Output``, fed alternating
    changes of the two fields.

    With ``Compare2`` and ``Output`` on hand-written closures and the
    generic hook loop, an event took 8.06 calls when the comparison
    never held and 40.905 when it held on every event (after the
    first).  On their generated hop kernels a firing is four calls
    fewer: no ``relayed``, and no ``partition_key`` / ``new_state`` /
    ``_apply`` hooks in ``Output``.

    Attached (instrumentation on, measured as :func:`attached` measures
    the chain of :class:`TestCallBudget`) the two paths took 17.155 and
    83.555 calls behind the step wrappers, and took 16.095 and 82.435
    with the generated entry the only way into a slot.

    Each event here carries its own association set, so the door still
    runs the members check once per event; its type check and the bus's
    dispatch of a run no one subscribed to are per run now: 6.065 and
    34.93 detached, 15.1 and 81.44 attached.
    """

    #: The measured counts per event: the comparison never holds, and it
    #: holds on every event (after the first); then the same attached.
    #: A change that adds a call must say why here.
    NEVER, EVERY = 6.065, 34.93
    ATTACHED_NEVER, ATTACHED_EVERY = 15.1, 81.44

    EVENTS = 200

    SPEC = (
        "lo = Filter_context[Ctx, lo](ContextEvent)\n"
        "hi = Filter_context[Ctx, hi](ContextEvent)\n"
        "cmp = Compare2[<=](lo, hi)\n"
        'deliver cmp to watchers as "order" named AS_Order\n'
    )

    def host_and_events(self, fires):
        from repro.core.context import ContextChange
        from repro.events.producers import ContextEventProducer
        from repro.parallel import ShardSpec
        from repro.parallel.host import FederationBlueprint, ShardHost

        blueprint = FederationBlueprint()
        blueprint.add_participant("u-watch", "watcher")
        blueprint.add_role("watchers", ["u-watch"])
        blueprint.add_specification(ShardSpec("spec-order", "P-X", self.SPEC))
        host = ShardHost(0, 1)
        host.apply_blueprint(blueprint)
        producer = ContextEventProducer()
        events = []
        for tick in range(self.EVENTS):
            field = ("lo", "hi")[tick % 2]
            # lo <= hi once both are set, or never.
            if fires:
                value = tick if field == "hi" else 0
            else:
                value = -tick if field == "hi" else 1
            events.append(
                producer._translate(
                    ContextChange(
                        time=tick + 1,
                        context_id="c1",
                        context_name="Ctx",
                        associations=frozenset({("P-X", "i1")}),
                        field_name=field,
                        old_value=None,
                        new_value=value,
                    )
                )
            )
        return host, events

    def python_calls_per_event(self, fires):
        # Compile the filters' segment shape outside the count.
        warm, events = self.host_and_events(fires)
        warm.ingest(events[:2])
        warm.close()
        host, events = self.host_and_events(fires)
        calls = python_calls(host.ingest, events)
        delivered = len(host.drain_results())
        host.close()
        assert delivered == (self.EVENTS - 1 if fires else 0)
        return calls / len(events)

    def test_a_quiet_comparison_stays_within_the_call_budget(self):
        assert self.python_calls_per_event(fires=False) <= self.NEVER

    def test_a_firing_comparison_stays_within_the_call_budget(self):
        assert self.python_calls_per_event(fires=True) <= self.EVERY

    @pytest.mark.parametrize("fires", [False, True])
    def test_an_attached_comparison_stays_within_its_call_budget(self, fires):
        host, calls = attached(lambda: self.host_and_events(fires))
        assert calls <= (self.ATTACHED_EVERY if fires else self.ATTACHED_NEVER)
        assert len(host.drain_results()) == (self.EVENTS - 1 if fires else 0)
        host.close()


class TestDeployCallBudget:
    """Count-based pin on the write path: :func:`python_calls` of one
    ``ShardHost.deploy_spec`` — DSL compile, plan-cache interning,
    wiring and the segment relink — on a host that deployed, ran and
    undeployed the same specification once before.

    A filter -> count -> ``Compare1`` window took 521 calls, and the
    ``Compare2`` window of :class:`TestCompare2CallBudget` 564, while
    every slot was linked as a kernel plus a step wrapper and a segment
    had a door and a link variant; with one generated entry per slot
    and one segment variant they take 506 and 544.
    """

    #: The measured counts; a change that adds calls to a deploy must
    #: say why here.
    BUDGETS = {"compare1": 506, "compare2": 544}

    SPECS = {
        "compare1": (
            "d = Filter_context[Ctx, lo](ContextEvent)\n"
            "n = Count[](d)\n"
            "c = Compare1[>=, 3](n)\n"
            'deliver c to watchers as "many" named AS_Many\n'
        ),
        "compare2": TestCompare2CallBudget.SPEC,
    }

    @pytest.mark.parametrize("spec", sorted(SPECS))
    def test_a_deploy_stays_within_its_call_budget(self, spec):
        from repro.parallel import ShardSpec
        from repro.parallel.host import FederationBlueprint, ShardHost

        blueprint = FederationBlueprint()
        blueprint.add_participant("u-watch", "watcher")
        blueprint.add_role("watchers", ["u-watch"])
        host = ShardHost(0, 1)
        host.apply_blueprint(blueprint)
        text = self.SPECS[spec]
        # A first deploy whose first events compile the window's segment
        # shape, as any earlier window of that shape in the process would.
        scratch, events = TestCompare2CallBudget().host_and_events(fires=True)
        scratch.close()
        host.deploy_spec(ShardSpec("warm", "P-X", text))
        host.ingest(events[:2])
        host.undeploy_spec("warm")
        calls = python_calls(host.deploy_spec, ShardSpec("spec", "P-X", text))
        host.undeploy_spec("spec")
        host.close()
        assert calls <= self.BUDGETS[spec]

    #: :func:`python_calls` of ``ShardHost.apply_blueprint`` with the
    #: 16-force stream blueprint (one window a force), measured as the
    #: column entries came in: a worker's boot does no more work for them.
    APPLY = 8289

    @staticmethod
    def stream_blueprint():
        from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

        workload = ShardStreamWorkload(
            ShardStreamConfig(forces=16, windows_per_force=1, events_per_force=8)
        )
        return workload, workload.blueprint()

    def test_applying_a_stream_blueprint_stays_within_its_call_budget(self):
        from repro.parallel.host import ShardHost

        workload, plan = self.stream_blueprint()
        warm = ShardHost(0, 2)
        warm.apply_blueprint(plan)
        warm.ingest(workload.events())
        warm.close()
        host = ShardHost(0, 2)
        calls = python_calls(host.apply_blueprint, plan)
        host.close()
        assert calls <= self.APPLY

    def test_apply_and_deploy_compile_nothing(self, monkeypatch):
        """Segment shapes, column entries included, are compiled when
        the first event or run reaches them, never at deploy."""
        from repro.awareness.operators import segments
        from repro.parallel import ShardSpec
        from repro.parallel.host import ShardHost

        hops = {
            key: factory
            for key, factory in segments._FACTORIES.items()
            if isinstance(key, segments.Template)
        }
        monkeypatch.setattr(segments, "_FACTORIES", hops)
        workload, plan = self.stream_blueprint()
        host = ShardHost(0, 2)
        compiled = segments.shapes_compiled()
        host.apply_blueprint(plan)
        host.deploy_spec(ShardSpec("more", "P-X", self.SPECS["compare1"]))
        assert segments.shapes_compiled() == compiled
        items, covers = decoded_runs(workload.events())
        host.ingest(items, None, covers)
        assert segments.shapes_compiled() > compiled
        host.close()
