"""Tests for audit journaling and recovery (durable enactment)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EnactmentSystem, Participant
from repro import ActivityVariable, BasicActivitySchema, ProcessActivitySchema
from repro.core.context import ContextFieldSpec, ContextSchema
from repro.core.engine import CoreEngine
from repro.core.roles import RoleRef
from repro.errors import RoleResolutionError
from repro.federation.journal import (
    Journal,
    RecoveryError,
    attach_journal,
    recover_core,
)
from repro.workloads.taskforce import (
    INFO_REQUEST_CONTEXT,
    REQUESTOR,
    TASK_FORCE_CONTEXT,
    TASK_FORCE_MEMBERS,
    TaskForceApplication,
)


def run_scenario(journal=None):
    """A Section 5.4 run on a journaled system; returns (system, journal)."""
    journal = journal if journal is not None else Journal()
    system = EnactmentSystem(journal=journal)
    leader = system.register_participant(Participant("u-lead", "lead"))
    member = system.register_participant(Participant("u-mem", "mem"))
    system.core.roles.define_role("epidemiologist").add_member(leader)
    system.core.roles.role("epidemiologist").add_member(member)
    app = TaskForceApplication(system)
    task_force = app.create_task_force(leader, [leader, member], 100)
    request = app.request_information(task_force, member, 80)
    app.change_task_force_deadline(task_force, 50)
    # Complete the assessment through the worklist.
    system.participant_client(leader).claim_and_complete_all()
    system.participant_client(member).claim_and_complete_all()
    app.complete_request(request)
    return system, journal


def snapshot(core: CoreEngine):
    """A comparable snapshot of the CORE state."""
    instances = {}
    for instance in core.instances():
        instances[instance.instance_id] = (
            instance.schema.schema_id,
            instance.current_state,
            tuple(
                (c.time, c.old_state, c.new_state, c.user)
                for c in instance.state_machine.history
            ),
            instance.parent.instance_id if instance.parent else None,
        )
    contexts = {}
    for instance in core.instances():
        if not hasattr(instance, "context_refs"):
            continue
        for ref in instance.context_refs.values():
            resource = ref._resource
            fields = {}
            for field_name in resource.schema.field_names():
                if resource.destroyed:
                    continue
                if resource._is_set(field_name):
                    value = resource._get(field_name)
                    fields[field_name] = (
                        sorted(p.participant_id for p in value.members())
                        if hasattr(value, "members")
                        else value
                    )
            contexts[resource.context_id] = (
                resource.name,
                resource.destroyed,
                frozenset(resource.associations()),
                tuple(sorted(fields.items())),
            )
    roles = {
        role.name: sorted(p.participant_id for p in role.members())
        for role in core.roles.roles()
    }
    return instances, contexts, roles


class TestJournaling:
    def test_journal_records_operations(self):
        __, journal = run_scenario()
        ops = [record["op"] for record in journal.records()]
        for expected in (
            "register_schema",
            "register_participant",
            "define_role",
            "add_role_member",
            "create_process_instance",
            "change_state",
            "set_field",
            "share_context",
            "create_scoped_role",
            "destroy_context",
        ):
            assert expected in ops, f"missing {expected}"

    def test_attach_requires_fresh_engine(self):
        core = CoreEngine()
        core.roles.register_participant(Participant("u1", "x"))
        with pytest.raises(RecoveryError):
            attach_journal(core)

    def test_subschemas_journaled_once(self):
        __, journal = run_scenario()
        payload_roots = [
            record["payload"]["root"]
            for record in journal.records()
            if record["op"] == "register_schema"
        ]
        assert len(payload_roots) == len(set(payload_roots))


class TestRecovery:
    def test_recovered_state_matches_original(self):
        system, journal = run_scenario()
        recovered = recover_core(journal)
        assert snapshot(recovered) == snapshot(system.core)

    def test_recovery_preserves_instance_ids_and_histories(self):
        system, journal = run_scenario()
        recovered = recover_core(journal)
        for original in system.core.instances():
            twin = recovered.instance(original.instance_id)
            assert twin.schema.schema_id == original.schema.schema_id
            assert twin.current_state == original.current_state
            assert len(twin.state_machine.history) == len(
                original.state_machine.history
            )

    def test_recovered_scopes_resolve_like_the_original(self):
        """Replay goes through create/share/destroy_context, so the scope
        index comes back with it: the request process sees the task-force
        context shared into it, not its own destroyed one."""
        system, journal = run_scenario()
        recovered = recover_core(journal)
        for original in system.core.instances():
            assert [
                c.context_id
                for c in recovered.contexts_for_instance(original.instance_id)
            ] == [
                c.context_id
                for c in system.core.contexts_for_instance(original.instance_id)
            ]
        request = next(
            instance
            for instance in system.core.instances()
            if INFO_REQUEST_CONTEXT in getattr(instance, "context_refs", {})
        )
        members = RoleRef(TASK_FORCE_MEMBERS, TASK_FORCE_CONTEXT)
        for core in (system.core, recovered):
            assert sorted(
                p.participant_id
                for p in core.resolve_role(members, request.instance_id)
            ) == ["u-lead", "u-mem"]
            with pytest.raises(RoleResolutionError):
                core.resolve_role(
                    RoleRef(REQUESTOR, INFO_REQUEST_CONTEXT), request.instance_id
                )

    def test_recovered_engine_continues_running(self):
        """Recovery is not a museum piece: enactment continues on the
        recovered engine (start new instances, change states)."""
        system, journal = run_scenario()
        recovered = recover_core(journal)
        schema = recovered.schema(
            system.core.top_level_processes()[0].schema.schema_id
        )
        from repro.coordination import CoordinationEngine

        coordination = CoordinationEngine(recovered)
        instance = coordination.start_process(schema)
        assert instance.current_state == "Running"

    def test_recovery_survives_save_load_round_trip(self, tmp_path):
        """Field values come back as they were set: a tuple stays a
        tuple and a frozenset a frozenset."""
        system, journal = run_scenario()
        schema = ProcessActivitySchema("p-notes", "notes")
        schema.add_activity_variable(
            ActivityVariable("jot", BasicActivitySchema("b-jot", "jot"))
        )
        schema.mark_entry("jot")
        schema.add_context_schema(
            ContextSchema(
                "Notes", [ContextFieldSpec("pair"), ContextFieldSpec("tags")]
            )
        )
        system.core.register_schema(schema)
        instance = system.core.create_process_instance(schema)
        instance.context("Notes").set("pair", ("a", 1))
        instance.context("Notes").set("tags", frozenset({"x", ("y", 2)}))
        path = str(tmp_path / "audit.log")
        journal.save(path)
        reloaded = Journal.load(path)
        assert reloaded.records() == journal.records()
        recovered = recover_core(reloaded)
        assert snapshot(recovered) == snapshot(system.core)
        notes = recovered.instance(instance.instance_id).context("Notes")
        assert type(notes.get("pair")) is tuple
        assert notes.get("tags") == frozenset({"x", ("y", 2)})

    def test_a_removed_role_member_stays_removed(self, tmp_path):
        journal = Journal()
        system = EnactmentSystem(journal=journal)
        first = system.register_participant(Participant("u-a", "a"))
        second = system.register_participant(Participant("u-b", "b"))
        role = system.core.roles.define_role("auditor")
        role.add_member(first)
        role.add_member(second)
        role.remove_member(second)
        assert [p.participant_id for p in role.members()] == ["u-a"]
        path = str(tmp_path / "audit.log")
        journal.save(path)
        for replayed in (journal, Journal.load(path)):
            members = recover_core(replayed).roles.role("auditor").members()
            assert [p.participant_id for p in members] == ["u-a"]

    def test_corrupt_journal_fails_loudly(self):
        journal = Journal()
        journal.append({"op": "change_state", "instance_id": "ghost",
                        "new_state": "Ready", "time": 1, "user": None})
        with pytest.raises(RecoveryError, match="record 0"):
            recover_core(journal)

    def test_unknown_op_rejected(self):
        journal = Journal()
        journal.append({"op": "time-travel"})
        with pytest.raises(RecoveryError, match="unknown journal op"):
            recover_core(journal)


def find_live_scoped_role(core: CoreEngine):
    """The first alive scoped role stored in any live context field."""
    for instance in core.instances():
        for ref in getattr(instance, "context_refs", {}).values():
            resource = ref._resource
            if resource.destroyed:
                continue
            for field_name in resource.schema.field_names():
                if resource._is_set(field_name):
                    value = resource._get(field_name)
                    if hasattr(value, "add_member") and value.alive:
                        return value
    return None


class TestScopedRoleMembership:
    """Post-creation membership changes: audited, but refused on recovery."""

    def test_membership_change_is_journaled(self):
        system, journal = run_scenario()
        role = find_live_scoped_role(system.core)
        assert role is not None, "scenario should leave a live scoped role"
        extra = system.register_participant(Participant("u-extra", "extra"))
        role.add_member(extra)
        role.remove_member(extra)
        records = [
            record
            for record in journal.records()
            if record["op"] == "scoped_role_membership"
        ]
        assert [r["action"] for r in records] == ["add", "remove"]
        assert all(r["participant"] == "u-extra" for r in records)

    def test_recovery_refuses_membership_change_records(self):
        system, journal = run_scenario()
        role = find_live_scoped_role(system.core)
        extra = system.register_participant(Participant("u-extra", "extra"))
        role.add_member(extra)
        with pytest.raises(
            RecoveryError, match="scoped-role\\s+membership change"
        ):
            recover_core(journal)

    def test_initial_members_do_not_trip_the_refusal(self):
        """create_scoped_role's initial member set replays fine; only
        *post-creation* mutations are refused."""
        system, journal = run_scenario()
        ops = [record["op"] for record in journal.records()]
        assert "create_scoped_role" in ops
        assert "scoped_role_membership" not in ops
        recovered = recover_core(journal)
        assert snapshot(recovered) == snapshot(system.core)

    def test_failed_membership_change_not_journaled(self):
        """A membership change that raises (dead context) leaves no record."""
        system, journal = run_scenario()
        role = find_live_scoped_role(system.core)
        assert role is not None
        ref = next(
            ref
            for instance in system.core.instances()
            for ref in getattr(instance, "context_refs", {}).values()
            if ref._resource is role.context
        )
        system.core.destroy_context(ref)
        extra = system.register_participant(Participant("u-extra", "extra"))
        before = len(journal)
        with pytest.raises(Exception):
            role.add_member(extra)
        assert len(journal) == before


class TestRecoveryProperties:
    @given(
        n_forces=st.integers(min_value=1, max_value=3),
        moves=st.lists(
            st.integers(min_value=-60, max_value=60), max_size=4
        ),
        complete=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_runs_recover_exactly(self, n_forces, moves, complete):
        journal = Journal()
        system = EnactmentSystem(journal=journal)
        leader = system.register_participant(Participant("u0", "lead"))
        member = system.register_participant(Participant("u1", "mem"))
        role = system.core.roles.define_role("epidemiologist")
        role.add_member(leader)
        role.add_member(member)
        app = TaskForceApplication(system)
        for __ in range(n_forces):
            task_force = app.create_task_force(leader, [leader, member], 100)
            request = app.request_information(task_force, member, 80)
            for move in moves:
                system.clock.advance(1)
                app.change_task_force_deadline(task_force, 100 + move)
            if complete:
                app.complete_request(request)
        recovered = recover_core(journal)
        assert snapshot(recovered) == snapshot(system.core)
