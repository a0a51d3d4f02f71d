"""Shared detector plans: interning, refcounts, and batch dispatch.

The plan cache must make N structurally-identical windows cost one shared
operator chain plus a per-window output layer — without changing what any
single window recognizes, and without leaking events into retired
windows.
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
)
from repro.awareness.dsl import compile_specification
from repro.awareness.operators.count import Count
from repro.errors import SpecificationError
from repro.events.canonical import canonical_event


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


TEMPLATE = """
hits = Filter_context[Ctx, alpha](ContextEvent)
total = Count[](hits)
ready = Compare1[>=, 2](total)
deliver ready to watchers as "alpha moved twice" named AS_T_{index}
"""


def deploy_template(system, index):
    window = system.awareness.create_window("P-X")
    compile_specification(window, TEMPLATE.format(index=index))
    return window, system.awareness.deploy(window)


class TestInterning:
    def test_identical_windows_share_every_non_output_node(self):
        system, __ = build_system()
        for index in range(4):
            deploy_template(system, index)
        stats = system.awareness.planner.stats()
        assert stats["windows_deployed"] == 4
        assert stats["nodes_live"] == 3  # hits, total, ready — shared
        assert stats["operators_resolved"] == 12
        assert stats["operators_deduped"] == 9

    def test_shared_chain_runs_once_and_fans_out(self):
        """Each event traverses the shared prefix once; every window's
        output operator still receives (and delivers) its own copy."""
        system, process = build_system()
        detectors = [deploy_template(system, i)[1] for i in range(4)]
        ref = system.coordination.start_process(process).context("Ctx")
        ref.set("alpha", 1)
        ref.set("alpha", 2)

        for detector in detectors:
            assert detector.recognized == 1  # Count reached 2 exactly once
        rows = {row["instance"]: row for row in system.awareness.planner.describe()}
        assert rows["hits"]["consumed"] == 2  # not 2 * windows
        assert rows["ready"]["consumers"] == 4  # per-window Output fan-out

    def test_different_parameters_do_not_share(self):
        system, __ = build_system()
        window_a = system.awareness.create_window("P-X")
        compile_specification(
            window_a,
            "f = Filter_context[Ctx, alpha](ContextEvent)\n"
            'deliver f to watchers as "a" named AS_A\n',
        )
        window_b = system.awareness.create_window("P-X")
        compile_specification(
            window_b,
            "f = Filter_context[Ctx, beta](ContextEvent)\n"
            'deliver f to watchers as "b" named AS_B\n',
        )
        system.awareness.deploy(window_a)
        system.awareness.deploy(window_b)
        assert system.awareness.planner.stats()["nodes_live"] == 2

    def test_different_instance_names_do_not_share(self):
        """The instance name is part of the structural key: provenance
        chains must read identically with and without sharing."""
        system, __ = build_system()
        for name in ("f1", "f2"):
            window = system.awareness.create_window("P-X")
            compile_specification(
                window,
                f"{name} = Filter_context[Ctx, alpha](ContextEvent)\n"
                f'deliver {name} to watchers as "x" named AS_{name}\n',
            )
            system.awareness.deploy(window)
        assert system.awareness.planner.stats()["operators_deduped"] == 0

    def test_or_is_commutative_in_the_plan_key(self):
        system, __ = build_system()
        for inputs in ("fa, fb", "fb, fa"):
            window = system.awareness.create_window("P-X")
            compile_specification(
                window,
                "fa = Filter_context[Ctx, alpha](ContextEvent)\n"
                "fb = Filter_context[Ctx, beta](ContextEvent)\n"
                f"any = Or[]({inputs})\n"
                'deliver any to watchers as "either" named AS_O\n',
            )
            system.awareness.deploy(window)
        # fa, fb, and the mirrored Or all intern to one node each.
        assert system.awareness.planner.stats()["nodes_live"] == 3

    def test_and_is_not_commutative_in_the_plan_key(self):
        """And's copy parameter is slot-positional, so mirrored wirings
        must stay separate nodes."""
        system, __ = build_system()
        for inputs in ("fa, fb", "fb, fa"):
            window = system.awareness.create_window("P-X")
            compile_specification(
                window,
                "fa = Filter_context[Ctx, alpha](ContextEvent)\n"
                "fb = Filter_context[Ctx, beta](ContextEvent)\n"
                f"both = And[]({inputs})\n"
                'deliver both to watchers as "both" named AS_A2\n',
            )
            system.awareness.deploy(window)
        assert system.awareness.planner.stats()["nodes_live"] == 4  # fa, fb, 2x And


class TestLifecycle:
    def test_undeploy_keeps_shared_nodes_while_referenced(self):
        system, process = build_system()
        __, det_a = deploy_template(system, 0)
        __, det_b = deploy_template(system, 1)
        system.awareness.undeploy(det_a)

        ref = system.coordination.start_process(process).context("Ctx")
        ref.set("alpha", 1)
        ref.set("alpha", 2)
        assert det_b.recognized == 1
        assert det_a.recognized == 0
        assert system.awareness.planner.stats()["nodes_live"] == 3

    def test_undeploying_the_last_window_unwires_the_producers(self):
        system, __ = build_system()
        producer = system.awareness.context_source.producer
        baseline = producer.consumer_count()
        __, det_a = deploy_template(system, 0)
        __, det_b = deploy_template(system, 1)
        system.awareness.undeploy(det_a)
        assert producer.consumer_count() > baseline
        system.awareness.undeploy(det_b)
        assert producer.consumer_count() == baseline
        assert system.awareness.planner.stats()["nodes_live"] == 0

    def test_redeploy_after_undeploy_recognizes_again(self):
        system, process = build_system()
        window, detector = deploy_template(system, 0)
        system.awareness.undeploy(detector)
        redeployed = system.awareness.deploy(window)
        assert redeployed is not detector

        ref = system.coordination.start_process(process).context("Ctx")
        ref.set("alpha", 1)
        ref.set("alpha", 2)
        assert redeployed.recognized == 1
        assert detector.recognized == 0

    def test_deploy_is_idempotent_for_a_live_window(self):
        system, process = build_system()
        window, detector = deploy_template(system, 0)
        again = system.awareness.deploy(window)
        assert again is detector

        ref = system.coordination.start_process(process).context("Ctx")
        ref.set("alpha", 1)
        ref.set("alpha", 2)
        assert detector.recognized == 1  # no double wiring, no double count

    def test_composites_recognized_is_monotonic_across_undeploy(self):
        system, process = build_system()
        __, detector = deploy_template(system, 0)
        ref = system.coordination.start_process(process).context("Ctx")
        ref.set("alpha", 1)
        ref.set("alpha", 2)
        before = system.awareness.stats()["composites_recognized"]
        assert before == 1
        system.awareness.undeploy(detector)
        assert system.awareness.stats()["composites_recognized"] == before
        system.awareness.undeploy(detector)  # idempotent: no double fold
        assert system.awareness.stats()["composites_recognized"] == before


class TestAuthoringIsInert:
    """A window is a description until deployed: it sees no event and
    registers nothing on the engine's producers."""

    THIRD = """
flt = Filter_context[Ctx, alpha](ContextEvent)
total = Count[](flt)
fire = Compare1[==, 3](total)
deliver fire to watchers as "third" named AS_Third
"""

    def _notifications_after_prefix(self, authored_early):
        system, process = build_system()
        ref = system.coordination.start_process(process).context("Ctx")
        window = system.awareness.create_window("P-X")
        if authored_early:
            compile_specification(window, self.THIRD)
        ref.set("alpha", 1)
        ref.set("alpha", 2)
        if not authored_early:
            compile_specification(window, self.THIRD)
        assert all(op.consumed == 0 for op in window.operators())
        system.awareness.deploy(window)
        delivered = []
        for value in (3, 4, 5):
            ref.set("alpha", value)
            delivered.append(system.awareness.stats()["notifications_delivered"])
        return delivered

    def test_deploy_time_does_not_matter(self):
        """Events produced between authoring and deploy are not counted:
        the third event *after deploy* fires, whenever the window was
        drawn."""
        assert self._notifications_after_prefix(authored_early=True) == [0, 0, 1]
        assert self._notifications_after_prefix(authored_early=False) == [0, 0, 1]

    def test_authoring_leaves_no_trace_on_the_producers(self):
        system, __ = build_system()
        producers = (
            system.awareness.activity_source.producer,
            system.awareness.context_source.producer,
        )

        def registrations():
            return [(p.consumer_count(), p.indexed_key_count()) for p in producers]

        baseline = registrations()
        abandoned = system.awareness.create_window("P-X")
        compile_specification(abandoned, self.THIRD)
        assert registrations() == baseline

        invalid = system.awareness.create_window("P-X")
        compile_specification(invalid, self.THIRD)
        dangling = invalid.place("Filter_activity", "w")
        invalid.connect(invalid.source("ActivityEvent"), dangling, 0)
        with pytest.raises(SpecificationError):
            system.awareness.deploy(invalid)
        assert registrations() == baseline
        assert system.awareness.detectors() == ()
        assert system.awareness.planner.stats()["nodes_live"] == 0


class TestBatchPath:
    def _events(self, count, instance="i-1"):
        return [
            canonical_event(
                "P-X", instance, time=t, source="test", int_info=t
            )
            for t in range(count)
        ]

    def test_consume_batch_equals_per_event_consume(self):
        batched, unbatched = Count("P-X", "c"), Count("P-X", "c")
        out_batch = batched.consume_batch(0, self._events(5))
        out_single = []
        for event in self._events(5):
            out_single.extend(unbatched.consume(0, event))
        assert [e.get("intInfo") for e in out_batch] == [1, 2, 3, 4, 5]
        assert [e.params for e in out_batch] == [e.params for e in out_single]
        assert batched.consumed == unbatched.consumed == 5
        assert batched.produced == unbatched.produced == 5

    def test_consume_batch_forwards_downstream_as_batch(self):
        upstream, downstream = Count("P-X"), Count("P-X")
        upstream.add_consumer(downstream.consume, 0)
        upstream.consume_batch(0, self._events(3))
        assert downstream.consumed == 3
        assert downstream.current_count("i-1") == 3

    def test_consume_batch_type_checks_like_consume(self):
        from repro.errors import SlotError

        operator = Count("P-X")
        wrong = canonical_event("P-Y", "i-1", time=0, source="test")
        with pytest.raises(SlotError):
            operator.consume_batch(0, [wrong])

    def test_producer_batch_runs_reach_shared_chain_once(self):
        """A same-key run in a produced batch walks the shared chain
        event by event; recognition output is unchanged."""
        from repro.core.context import ContextChange

        system, process = build_system()
        __, detector = deploy_template(system, 0)
        instance = system.coordination.start_process(process)
        ref = instance.context("Ctx")
        changes = [
            ContextChange(
                time=v,
                context_id=ref.context_id,
                context_name="Ctx",
                associations=frozenset({("P-X", instance.instance_id)}),
                field_name="alpha",
                old_value=v,
                new_value=v + 1,
            )
            for v in range(3)
        ]
        system.awareness.context_source.gather_batch(changes)
        hits = next(
            row
            for row in system.awareness.planner.describe()
            if row["instance"] == "hits"
        )
        assert hits["consumed"] == 3
        assert detector.recognized == 2  # counts 2 and 3 pass the >= gate


class TestFailedDeploy:
    """A deploy that fails leaves the cache as it found it."""

    def test_unhashable_predicate_is_refused_before_anything_is_interned(self):
        from repro.core.roles import RoleRef

        class Predicate:
            __hash__ = None  # an unhashable hand-wired callable

            def __call__(self, value):
                return value >= 1

        system, process = build_system()
        planner = system.awareness.planner
        window = system.awareness.create_window("P-X")
        hits = window.place("Filter_context", "Ctx", "alpha", instance_name="hits")
        total = window.place("Count", instance_name="total")
        ready = window.place("Compare1", Predicate(), instance_name="ready")
        window.connect(window.source("ContextEvent"), hits)
        window.connect(hits, total)
        window.connect(total, ready)
        window.output(ready, RoleRef("watchers"), schema_name="AS_Bad")
        with pytest.raises(SpecificationError, match="'ready'"):
            system.awareness.deploy(window)
        assert planner.stats()["nodes_live"] == 0
        assert planner.stats()["windows_deployed"] == 0

        # A valid window with the same filter and count keys interns its
        # own, wired nodes and sees every event.
        __, detector = deploy_template(system, 0)
        ref = system.coordination.start_process(process).context("Ctx")
        for value in (1, 2, 3):
            ref.set("alpha", value)
        assert planner.stats()["nodes_live"] == 3
        assert detector.recognized == 2  # total reached 2, then 3


class TestSegments:
    """Runs of single-consumer hops are linked as one segment, and the
    segments follow every deploy and undeploy."""

    SPLIT = """
hits = Filter_context[Ctx, alpha](ContextEvent)
total = Count[](hits)
deliver total to watchers as "every alpha" named AS_Split
"""

    def segments(self, system):
        return {
            row["instance"]: row["segment"]
            for row in system.awareness.planner.describe()
        }

    def test_a_window_on_a_live_shared_node_splits_and_merges_the_run(self):
        system, process = build_system()
        __, detector = deploy_template(system, 0)
        rows = {row["instance"]: row for row in system.awareness.planner.describe()}
        root = rows["hits"]["node_id"]
        assert self.segments(system) == {"hits": root, "total": root, "ready": root}

        window = system.awareness.create_window("P-X")
        compile_specification(window, self.SPLIT)
        split = system.awareness.deploy(window)
        # ``total`` now has two consumers: the run ends there.
        assert self.segments(system) == {
            "hits": root,
            "total": root,
            "ready": rows["ready"]["node_id"],
        }
        ref = system.coordination.start_process(process).context("Ctx")
        ref.set("alpha", 1)
        ref.set("alpha", 2)
        assert (detector.recognized, split.recognized) == (1, 2)

        system.awareness.undeploy(split)
        assert self.segments(system) == {"hits": root, "total": root, "ready": root}
        ref.set("alpha", 3)
        assert (detector.recognized, split.recognized) == (2, 2)

    def test_a_segment_guards_its_root_slot_wherever_it_is_called(self):
        """A segment stands in for its root's entry, so it runs the
        root's slot type guard itself: where the producer calls it and
        where the upstream ``emit`` does.  A mistyped event is refused
        before anything counts it."""
        from repro.errors import SlotError

        system, process = build_system()
        deploy_template(system, 0)
        window = system.awareness.create_window("P-X")
        compile_specification(window, self.SPLIT)
        system.awareness.deploy(window)  # [hits, total] and [ready]
        ref = system.coordination.start_process(process).context("Ctx")
        ref.set("alpha", 1)  # compiles both shapes and swaps them in
        nodes = {
            entry.operator.instance_name: entry.operator
            for plan in system.awareness.planner.plans()
            for entry in plan.entries
        }
        (door,) = system.awareness.context_source.producer._index[("Ctx", "alpha")]
        (link,) = [link for link in nodes["total"]._fanout if link[0] is nodes["ready"]]
        stray = canonical_event("P-Y", "i-1", time=9, source="x", int_info=1)
        for segment, root in ((door, "hits"), (link[2], "ready")):
            assert segment.__name__ == "_run"
            with pytest.raises(SlotError, match=f"'{root}' slot 0 expects"):
                segment(stray)
        assert [nodes[name].consumed for name in ("hits", "total", "ready")] == [1, 1, 1]

    def test_a_segment_compiles_at_its_first_event_and_swaps_itself_in(
        self, monkeypatch
    ):
        """Deploys compile nothing: a segment of a shape not yet compiled
        is a stand-in until its first event, which compiles the shape and
        puts the segment where the stand-in was.  Stand-ins replaced by a
        relink before any event are simply dropped."""
        from repro.awareness.operators import segments

        hops = {
            key: factory
            for key, factory in segments._FACTORIES.items()
            if isinstance(key, segments.Template)
        }
        monkeypatch.setattr(segments, "_FACTORIES", dict(hops))
        system, process = build_system()
        producer = system.awareness.context_source.producer

        def door():
            (entry,) = producer._index[("Ctx", "alpha")]
            return entry.__name__

        __, detector = deploy_template(system, 0)
        window = system.awareness.create_window("P-X")
        compile_specification(window, self.SPLIT)
        split = system.awareness.deploy(window)  # relinked before any event
        assert door() == "first"
        assert segments.shapes_compiled() == len(hops)

        ref = system.coordination.start_process(process).context("Ctx")
        ref.set("alpha", 1)
        # The [hits, total] door and the [ready] link compiled and swapped in.
        assert door() == "_run"
        assert segments.shapes_compiled() == len(hops) + 2
        ref.set("alpha", 2)
        assert (detector.recognized, split.recognized) == (1, 2)

        system.awareness.undeploy(split)  # merged: a shape never run yet
        assert door() == "first"
        ref.set("alpha", 3)
        assert door() == "_run"
        assert segments.shapes_compiled() == len(hops) + 3
        assert (detector.recognized, split.recognized) == (2, 2)

    def test_non_templated_families_run_outside_any_segment(self):
        system, __ = build_system()
        window = system.awareness.create_window("P-X")
        compile_specification(
            window,
            """
a = Filter_context[Ctx, alpha](ContextEvent)
b = Filter_context[Ctx, beta](ContextEvent)
both = And[2](a, b)
n = Count[](both)
deliver n to watchers as "both" named AS_And
""",
        )
        system.awareness.deploy(window)
        rows = {row["instance"]: row for row in system.awareness.planner.describe()}
        assert rows["both"]["segment"] is None
        assert rows["a"]["segment"] == rows["a"]["node_id"]
        assert rows["n"]["segment"] == rows["n"]["node_id"]

    def test_a_second_federation_compiles_no_segment(self, monkeypatch):
        """Code is compiled once per segment shape, not per deploy, and
        not at deploy at all: ``inproc_stream``'s 16 forces x 8 filter ->
        count -> edge chains compile the chain's one segment shape when
        the first event arrives (the hop forms were compiled with their
        families: 13 built-in templates, every family of the palette and
        the external filter base), and a second host in the same process
        compiles nothing."""
        from repro.awareness.operators import segments
        from repro.awareness.operators.registry import default_registry
        from repro.parallel.host import ShardHost
        from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

        hops = {
            key: factory
            for key, factory in segments._FACTORIES.items()
            if isinstance(key, segments.Template)
        }
        registry = default_registry()
        builtin = {registry.lookup(name).template for name in registry.names()}
        # A family defined by a test that ran earlier adds its own.
        assert len(builtin) == 13 and builtin <= hops.keys()
        monkeypatch.setattr(segments, "_FACTORIES", dict(hops))
        workload = ShardStreamWorkload(
            ShardStreamConfig(forces=16, windows_per_force=8, events_per_force=40)
        )
        events = workload.events()
        first = ShardHost(0, 1)
        first.apply_blueprint(workload.blueprint())
        assert segments.shapes_compiled() == len(hops)
        first.ingest(events)
        assert segments.shapes_compiled() == len(hops) + 1
        second = ShardHost(0, 1)
        second.apply_blueprint(workload.blueprint())
        second.ingest(workload.events())
        assert segments.shapes_compiled() == len(hops) + 1
        # Both ran the stream whole.
        expected = workload.expected_notifications()
        assert len(first.drain_results()) == len(second.drain_results()) == expected
        first.close()
        second.close()
