"""Tests for context resources, references, and scoping (Section 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import LogicalClock
from repro.core.context import (
    ContextFieldSpec,
    ContextReference,
    ContextResource,
    ContextSchema,
)
from repro.errors import ContextError, ScopeError, UnknownFieldError


def make_context(fields=None):
    schema = ContextSchema(
        "TaskForceContext",
        fields
        or [
            ContextFieldSpec("TaskForceDeadline", "int"),
            ContextFieldSpec("Status", "str"),
        ],
    )
    return ContextResource("ctx-1", schema)


def make_ref(context, holder="proc-1", clock=None):
    clock = clock or LogicalClock()
    return ContextReference(context, holder, clock.now)


class TestContextSchema:
    def test_duplicate_field_rejected(self):
        schema = ContextSchema("C", [ContextFieldSpec("a")])
        with pytest.raises(ContextError):
            schema.declare_field(ContextFieldSpec("a"))

    def test_unknown_field_lookup_raises(self):
        schema = ContextSchema("C", [ContextFieldSpec("a")])
        with pytest.raises(UnknownFieldError):
            schema.field_spec("b")

    def test_field_type_check(self):
        spec = ContextFieldSpec("deadline", "int")
        spec.check(5)
        with pytest.raises(ContextError):
            spec.check("soon")
        with pytest.raises(ContextError):
            spec.check(True)

    def test_unknown_field_type_rejected(self):
        with pytest.raises(ContextError):
            ContextFieldSpec("x", "datetime").check(1)


class TestContextAccess:
    def test_set_and_get_via_reference(self):
        context = make_context()
        ref = make_ref(context)
        ref.set("TaskForceDeadline", 100)
        assert ref.get("TaskForceDeadline") == 100

    def test_unset_field_raises(self):
        ref = make_ref(make_context())
        assert not ref.is_set("Status")
        with pytest.raises(UnknownFieldError):
            ref.get("Status")

    def test_type_checked_assignment(self):
        ref = make_ref(make_context())
        with pytest.raises(ContextError):
            ref.set("TaskForceDeadline", "friday")

    def test_revoked_reference_raises_scope_error(self):
        ref = make_ref(make_context())
        ref.revoke()
        with pytest.raises(ScopeError):
            ref.get("Status")
        with pytest.raises(ScopeError):
            ref.set("Status", "x")

    def test_destroyed_context_rejects_access(self):
        context = make_context()
        ref = make_ref(context)
        context._destroy()
        with pytest.raises(ContextError):
            ref.set("Status", "late")

    def test_pass_to_creates_subprocess_reference(self):
        context = make_context()
        parent_ref = make_ref(context, holder="proc-parent")
        child_ref = parent_ref.pass_to("proc-child")
        assert child_ref.holder_process_instance_id == "proc-child"
        child_ref.set("Status", "shared")
        assert parent_ref.get("Status") == "shared"

    def test_revoked_reference_cannot_be_passed_on(self):
        parent_ref = make_ref(make_context())
        parent_ref.revoke()
        with pytest.raises(ScopeError):
            parent_ref.pass_to("proc-child")

    def test_revoking_child_leaves_parent_usable(self):
        context = make_context()
        parent_ref = make_ref(context)
        child_ref = parent_ref.pass_to("proc-child")
        child_ref.revoke()
        parent_ref.set("Status", "still-fine")
        with pytest.raises(ScopeError):
            child_ref.get("Status")


class TestChangeEvents:
    def test_change_record_has_section_511_parameters(self):
        context = make_context()
        context._associate("P-TF", "proc-1")
        context._associate("P-IR", "proc-2")
        changes = []
        context.add_listener(changes.append)
        ref = make_ref(context)
        ref.set("TaskForceDeadline", 50)
        assert len(changes) == 1
        change = changes[0]
        assert change.context_id == "ctx-1"
        assert change.context_name == "TaskForceContext"
        assert change.field_name == "TaskForceDeadline"
        assert change.old_value is None
        assert change.new_value == 50
        assert change.associations == frozenset(
            {("P-TF", "proc-1"), ("P-IR", "proc-2")}
        )

    def test_old_value_tracks_previous_assignment(self):
        context = make_context()
        changes = []
        context.add_listener(changes.append)
        ref = make_ref(context)
        ref.set("TaskForceDeadline", 50)
        ref.set("TaskForceDeadline", 40)
        assert changes[1].old_value == 50
        assert changes[1].new_value == 40

    def test_write_time_comes_from_clock(self):
        clock = LogicalClock()
        context = make_context()
        changes = []
        context.add_listener(changes.append)
        ref = make_ref(context, clock=clock)
        clock.advance(9)
        ref.set("TaskForceDeadline", 1)
        assert changes[0].time == 9


class TestContextProperties:
    @given(
        values=st.lists(
            st.integers(min_value=-10_000, max_value=10_000),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=100)
    def test_change_stream_reconstructs_field_history(self, values):
        """Replaying old->new values of the change stream always matches
        the direct assignment history (no lost or reordered updates)."""
        context = make_context()
        changes = []
        context.add_listener(changes.append)
        ref = make_ref(context)
        for value in values:
            ref.set("TaskForceDeadline", value)
        assert [c.new_value for c in changes] == values
        expected_old = [None] + values[:-1]
        assert [c.old_value for c in changes] == expected_old
        assert ref.get("TaskForceDeadline") == values[-1]
