"""Tests for the CORE engine: registries, instances, contexts, events."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import EnactmentSystem
from repro.core import (
    ActivityVariable,
    BasicActivitySchema,
    ContextSchema,
    CoreEngine,
    Participant,
    ProcessActivitySchema,
)
from repro.core.context import ContextFieldSpec, ContextResource
from repro.core.roles import RoleRef
from repro.errors import (
    ContextError,
    EnactmentError,
    RoleResolutionError,
    SchemaError,
)
from repro.workloads.taskforce import TaskForceApplication


def build_process(engine, with_context=False):
    basic = BasicActivitySchema("b-work", "work")
    process = ProcessActivitySchema("p-main", "main")
    if with_context:
        process.add_context_schema(
            ContextSchema(
                "Ctx",
                [
                    ContextFieldSpec("deadline", "int"),
                    ContextFieldSpec("owner", "role"),
                ],
            )
        )
    process.add_activity_variable(ActivityVariable("work", basic))
    process.mark_entry("work")
    engine.register_schema(process)
    return process


class TestSchemaRegistry:
    def test_recursive_registration(self):
        engine = CoreEngine()
        process = build_process(engine)
        assert engine.schema("p-main") is process
        assert engine.schema("b-work").name == "work"

    def test_same_object_reregistration_is_noop(self):
        engine = CoreEngine()
        process = build_process(engine)
        engine.register_schema(process)

    def test_different_object_same_id_rejected(self):
        engine = CoreEngine()
        build_process(engine)
        with pytest.raises(SchemaError):
            engine.register_schema(BasicActivitySchema("b-work", "impostor"))

    def test_unknown_schema_lookup(self):
        with pytest.raises(SchemaError):
            CoreEngine().schema("ghost")

    def test_unregistered_schema_cannot_instantiate(self):
        engine = CoreEngine()
        process = ProcessActivitySchema("p", "x")
        process.add_activity_variable(
            ActivityVariable("a", BasicActivitySchema("b", "a"))
        )
        process.mark_entry("a")
        with pytest.raises(SchemaError):
            engine.create_process_instance(process)


class TestInstances:
    def test_create_process_and_child(self):
        engine = CoreEngine()
        process_schema = build_process(engine)
        instance = engine.create_process_instance(process_schema)
        child = engine.create_activity_instance(instance, "work")
        assert child.parent is instance
        assert instance.child("work") is child
        assert child.activity_variable_id == "work"
        assert engine.instance(child.instance_id) is child

    def test_duplicate_child_rejected(self):
        engine = CoreEngine()
        process_schema = build_process(engine)
        instance = engine.create_process_instance(process_schema)
        engine.create_activity_instance(instance, "work")
        with pytest.raises(EnactmentError):
            engine.create_activity_instance(instance, "work")

    def test_top_level_processes_tracked(self):
        engine = CoreEngine()
        process_schema = build_process(engine)
        a = engine.create_process_instance(process_schema)
        b = engine.create_process_instance(process_schema)
        assert engine.top_level_processes() == (a, b)


class TestEventHooks:
    def test_state_change_publishes_activity_event(self):
        engine = CoreEngine()
        process_schema = build_process(engine)
        seen = []
        engine.on_activity_change(seen.append)
        instance = engine.create_process_instance(process_schema)
        engine.change_state(instance, "Ready", user="alice")
        assert len(seen) == 1
        change = seen[0]
        assert change.activity_instance_id == instance.instance_id
        assert change.old_state == "Uninitialized"
        assert change.new_state == "Ready"
        assert change.user == "alice"
        assert change.parent_process_schema_id is None

    def test_child_change_carries_parent_fields(self):
        engine = CoreEngine()
        process_schema = build_process(engine)
        seen = []
        engine.on_activity_change(seen.append)
        instance = engine.create_process_instance(process_schema)
        child = engine.create_activity_instance(instance, "work")
        engine.change_state(child, "Ready")
        change = seen[-1]
        assert change.parent_process_schema_id == "p-main"
        assert change.parent_process_instance_id == instance.instance_id
        assert change.activity_variable_id == "work"
        assert change.activity_process_schema_id is None

    def test_context_change_hook(self):
        engine = CoreEngine()
        process_schema = build_process(engine, with_context=True)
        seen = []
        engine.on_context_change(seen.append)
        instance = engine.create_process_instance(process_schema)
        instance.context("Ctx").set("deadline", 10)
        assert len(seen) == 1
        assert seen[0].field_name == "deadline"

    def test_clock_timestamps_are_monotone(self):
        engine = CoreEngine()
        process_schema = build_process(engine)
        seen = []
        engine.on_activity_change(seen.append)
        instance = engine.create_process_instance(process_schema)
        engine.change_state(instance, "Ready")
        engine.change_state(instance, "Running")
        assert seen[0].time < seen[1].time


class TestContexts:
    def test_process_contexts_created_at_instantiation(self):
        engine = CoreEngine()
        process_schema = build_process(engine, with_context=True)
        instance = engine.create_process_instance(process_schema)
        ref = instance.context("Ctx")
        assert ref.context_name == "Ctx"

    def test_share_context_adds_association(self):
        engine = CoreEngine()
        process_schema = build_process(engine, with_context=True)
        parent = engine.create_process_instance(process_schema)
        other = engine.create_process_instance(process_schema)
        ref = parent.context("Ctx")
        engine.share_context(ref, other)
        contexts = engine.contexts_for_instance(other.instance_id)
        # `other` now sees both its own Ctx and the shared one.
        assert len(contexts) == 2

    def test_contexts_for_instance_skips_destroyed(self):
        engine = CoreEngine()
        process_schema = build_process(engine, with_context=True)
        instance = engine.create_process_instance(process_schema)
        engine.destroy_context(instance.context("Ctx"))
        assert engine.contexts_for_instance(instance.instance_id) == ()

    def test_unknown_context_lookup(self):
        with pytest.raises(EnactmentError):
            CoreEngine().context_resource("ghost")


class TestScopedRolesViaEngine:
    def test_create_and_resolve_scoped_role(self):
        engine = CoreEngine()
        alice = engine.roles.register_participant(Participant("u1", "alice"))
        process_schema = build_process(engine, with_context=True)
        instance = engine.create_process_instance(process_schema)
        engine.create_scoped_role(instance.context("Ctx"), "owner", (alice,))
        resolved = engine.resolve_role(
            RoleRef("owner", "Ctx"), instance.instance_id
        )
        assert resolved == frozenset({alice})

    def test_scoped_resolution_requires_instance(self):
        engine = CoreEngine()
        with pytest.raises(RoleResolutionError):
            engine.resolve_role(RoleRef("owner", "Ctx"))

    def test_global_resolution_ignores_instance(self):
        engine = CoreEngine()
        alice = engine.roles.register_participant(Participant("u1", "alice"))
        engine.roles.define_role("analyst").add_member(alice)
        assert engine.resolve_role(RoleRef("analyst")) == frozenset({alice})


def scan_contexts_for_instance(engine, instance_id):
    """Reference for the scope index: the scan over every context the
    engine ever created, in creation order, that the index replaced."""
    return tuple(
        context
        for context in engine._contexts.values()
        if not context.destroyed
        and any(i == instance_id for __, i in context.associations())
    )


#: ``(operation, a, b)``; a and b pick instances/contexts modulo the
#: number that exist when the step runs.
SCOPE_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["create", "share", "destroy", "raw_destroy"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
    ),
    max_size=24,
)


class TestScopeIndex:
    """``contexts_for_instance`` reads a per-instance index; it must stay
    indistinguishable from the scan, order included."""

    @given(steps=SCOPE_STEPS)
    # An older context shared into an instance that already owns a newer
    # one of the same name: it must come first.
    @example(steps=[("create", 0, 0), ("create", 0, 0), ("share", 0, 1)])
    # Shared twice, destroyed behind the engine's back, destroyed again.
    @example(
        steps=[
            ("create", 0, 0),
            ("create", 0, 0),
            ("share", 1, 0),
            ("share", 1, 0),
            ("raw_destroy", 1, 0),
            ("destroy", 1, 0),
            ("share", 1, 0),
        ]
    )
    @settings(max_examples=200, deadline=None)
    def test_index_equals_scan_after_every_step(self, steps):
        engine = CoreEngine()
        process_schema = build_process(engine, with_context=True)
        instances = [engine.create_process_instance(process_schema)]
        for operation, a, b in steps:
            owner = instances[a % len(instances)]
            ref = owner.context("Ctx")
            if operation == "create":
                instances.append(engine.create_process_instance(process_schema))
            elif operation == "share":
                target = instances[b % len(instances)]
                if ref._resource.destroyed:
                    with pytest.raises(ContextError):
                        engine.share_context(ref, target)
                else:
                    engine.share_context(ref, target)
            elif operation == "destroy":
                engine.destroy_context(ref)
            else:
                ref._resource._destroy()
            for instance in instances:
                assert engine.contexts_for_instance(
                    instance.instance_id
                ) == scan_contexts_for_instance(engine, instance.instance_id)

    def test_older_shared_context_resolves_first(self):
        """``RoleDirectory.resolve`` takes the first matching context, so
        the order of the scope is semantics, not presentation."""
        engine = CoreEngine()
        alice = engine.roles.register_participant(Participant("u1", "alice"))
        bob = engine.roles.register_participant(Participant("u2", "bob"))
        process_schema = build_process(engine, with_context=True)
        older = engine.create_process_instance(process_schema)
        newer = engine.create_process_instance(process_schema)
        engine.create_scoped_role(older.context("Ctx"), "owner", (alice,))
        engine.create_scoped_role(newer.context("Ctx"), "owner", (bob,))
        engine.share_context(older.context("Ctx"), newer)
        assert engine.resolve_role(
            RoleRef("owner", "Ctx"), newer.instance_id
        ) == frozenset({alice})
        engine.destroy_context(older.context("Ctx"))
        assert engine.resolve_role(
            RoleRef("owner", "Ctx"), newer.instance_id
        ) == frozenset({bob})
        # Destroyed contexts leave the index, not the store.
        assert engine.context_resource(older.context("Ctx").context_id).destroyed

    @staticmethod
    def destroyed_reads_for_one_deadline_change(finished, monkeypatch):
        """Reads of ``ContextResource.destroyed`` during one
        ``change_task_force_deadline`` on a system that already hosted
        *finished* task forces (each with a completed request)."""
        system = EnactmentSystem()
        member = system.register_participant(Participant("u-a", "a"))
        system.core.roles.define_role("epidemiologist").add_member(member)
        app = TaskForceApplication(system)
        app.install_awareness()
        for __ in range(finished):
            force = app.create_task_force(member, [member], 100)
            app.complete_request(app.request_information(force, member, 80))
        force = app.create_task_force(member, [member], 100)
        app.request_information(force, member, 80)
        viewer = system.awareness.viewer_for(member)
        before = len(viewer.retrieve())
        reads = []
        with monkeypatch.context() as patch:
            patch.setattr(
                ContextResource,
                "destroyed",
                property(lambda self: reads.append(1) or self._destroyed),
            )
            app.change_task_force_deadline(force, 50)
        # The scoped delivery did happen: the requestor was notified.
        assert len(viewer.retrieve()) == before + 1
        return len(reads)

    def test_scoped_delivery_cost_is_independent_of_history(self, monkeypatch):
        """A count, not a clock: resolving the requestor touches the
        contexts in the request's scope, however many the system hosted."""
        few = self.destroyed_reads_for_one_deadline_change(20, monkeypatch)
        many = self.destroyed_reads_for_one_deadline_change(400, monkeypatch)
        assert few > 0
        assert many == few
