"""Durable enactment: audit journaling and recovery.

The paper's prototype ran its processes on IBM FlowMark — a *persistent*
commercial WfMS: enactment state survived server restarts.  Our
from-scratch substrate provides the same guarantee through a write-ahead
audit journal:

* a :class:`Journal` records every state-affecting CORE operation —
  participant/role definitions, role member additions and removals,
  schema registrations (as interchange payloads, reusing
  :mod:`repro.core.serialization`), instance creations, activity state
  changes, context creation/sharing/destruction, field assignments,
  and scoped-role creation;
* :func:`recover_core` replays a journal into a fresh
  :class:`~repro.core.engine.CoreEngine`, reproducing instance trees,
  state machines (including histories), context contents, associations,
  and scoped-role membership.

Identifier determinism makes this simple: the CORE engine assigns ids from
per-prefix counters, so replaying the same creation sequence yields the
same ids, and journaled references resolve exactly.

Journal records are dicts of codec values; :class:`Journal` keeps them in
memory and persists them as a durability frame log.  Scoped-role *membership
changes after creation* go through :meth:`CoreEngine.create_scoped_role`'s
returned object and are outside the recoverable surface: the journal
records them (``scoped_role_membership``) so the audit trail is complete,
and :func:`recover_core` **refuses** a journal containing them — a clear
:class:`RecoveryError` instead of a silently diverging recovery — use
engine APIs for anything that must survive recovery.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from ..core.context import ContextChange
from ..core.engine import CoreEngine
from ..core.roles import Participant, ParticipantKind
from ..core.serialization import (
    ConditionRegistry,
    schema_from_dict,
    schema_to_dict,
)
from ..errors import ReproError


class RecoveryError(ReproError):
    """The journal could not be replayed."""


class Journal:
    """An append-only log of CORE operations."""

    def __init__(self) -> None:
        self._records: List[Dict[str, Any]] = []

    def append(self, record: Dict[str, Any]) -> None:
        self._records.append(record)

    def records(self) -> Tuple[Dict[str, Any], ...]:
        return tuple(self._records)

    def audit_only_count(self) -> int:
        """Records outside the recoverable surface (see module docstring).

        Currently the post-creation ``scoped_role_membership`` changes:
        they complete the audit trail but :func:`recover_core` refuses
        them, so a non-zero count means this journal can no longer be
        replayed — the basis of the ``journal_divergence`` health metric.
        """
        return sum(
            1
            for record in self._records
            if record.get("op") == "scoped_role_membership"
        )

    def __len__(self) -> int:
        return len(self._records)

    # -- persistence -------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist as a durability frame log.

        Same on-disk format as the shard write-ahead journals
        (:class:`~repro.durability.log.FrameLog`): length-prefixed codec
        frames, torn-tail tolerant, inspectable with ``repro journal``.
        Each CORE record is one frame, its values carried as they are.
        """
        from ..durability.log import FrameLog

        if os.path.exists(path):
            os.remove(path)
        with FrameLog(path, fsync_every=0) as log:
            for record in self._records:
                log.append(record)

    @classmethod
    def load(cls, path: str) -> "Journal":
        """Load a :meth:`save` file (replayable via :func:`recover_core`
        exactly like an in-memory journal).  A JSON-lines file, the
        format of earlier builds, is refused."""
        from ..durability.log import load_journal

        with open(path, "rb") as handle:
            if handle.read(1) == b"{":
                raise RecoveryError(
                    f"{path!r} is a JSON-lines audit journal, the format of "
                    f"earlier builds; build 1f2fb7c is the last that reads it"
                )
        journal = cls()
        for frame in load_journal(path).payload:
            journal.append(frame)
        return journal


def attach_journal(
    core: CoreEngine,
    journal: Optional[Journal] = None,
    conditions: Optional[ConditionRegistry] = None,
) -> Journal:
    """Instrument *core* so every state-affecting operation is journaled.

    Must be attached to a **fresh** engine (before any schemas, instances,
    or participants exist); replay correctness depends on the journal
    covering the engine's whole life.
    """
    if core.schemas() or core.instances() or core.roles.participants():
        raise RecoveryError(
            "attach_journal requires a fresh CORE engine (the journal must "
            "cover the engine's entire history)"
        )
    journal = journal if journal is not None else Journal()

    # -- wrap the mutators --------------------------------------------------------

    original_register = core.register_schema
    register_depth = {"value": 0}

    def register_schema(schema):
        # register_schema recurses into subschemas (each recursive call
        # lands back here because the engine dispatches through the
        # instance attribute); journal only the outermost registration —
        # its interchange payload already contains the whole subtree.
        known = schema.schema_id in {s.schema_id for s in core.schemas()}
        register_depth["value"] += 1
        try:
            result = original_register(schema)
        finally:
            register_depth["value"] -= 1
        if not known and register_depth["value"] == 0:
            journal.append(
                {
                    "op": "register_schema",
                    "payload": schema_to_dict(schema, conditions),
                }
            )
        return result

    core.register_schema = register_schema  # type: ignore[method-assign]

    original_register_participant = core.roles.register_participant

    def register_participant(participant):
        result = original_register_participant(participant)
        journal.append(
            {
                "op": "register_participant",
                "id": participant.participant_id,
                "name": participant.name,
                "kind": participant.kind.name,
            }
        )
        return result

    core.roles.register_participant = register_participant  # type: ignore[method-assign]

    original_define_role = core.roles.define_role

    def define_role(name):
        role = original_define_role(name)
        journal.append({"op": "define_role", "name": name})

        original_add_member = role.add_member
        original_remove_member = role.remove_member

        def add_member(participant):
            original_add_member(participant)
            journal.append(
                {
                    "op": "add_role_member",
                    "role": name,
                    "participant": participant.participant_id,
                }
            )

        def remove_member(participant):
            original_remove_member(participant)
            journal.append(
                {
                    "op": "remove_role_member",
                    "role": name,
                    "participant": participant.participant_id,
                }
            )

        role.add_member = add_member  # type: ignore[method-assign]
        role.remove_member = remove_member  # type: ignore[method-assign]
        return role

    core.roles.define_role = define_role  # type: ignore[method-assign]

    original_create_process = core.create_process_instance

    def create_process_instance(schema, parent=None, activity_variable=None):
        instance = original_create_process(schema, parent, activity_variable)
        journal.append(
            {
                "op": "create_process_instance",
                "schema_id": schema.schema_id,
                "parent": parent.instance_id if parent else None,
                "variable": activity_variable.name if activity_variable else None,
                "instance_id": instance.instance_id,
            }
        )
        return instance

    core.create_process_instance = create_process_instance  # type: ignore[method-assign]

    original_create_activity = core.create_activity_instance

    def create_activity_instance(parent, activity_variable_name):
        instance = original_create_activity(parent, activity_variable_name)
        # Subprocess creation already journaled via create_process_instance.
        if instance.instance_id.startswith("act-"):
            journal.append(
                {
                    "op": "create_activity_instance",
                    "parent": parent.instance_id,
                    "variable": activity_variable_name,
                    "instance_id": instance.instance_id,
                }
            )
        return instance

    core.create_activity_instance = create_activity_instance  # type: ignore[method-assign]

    original_change_state = core.change_state

    def change_state(instance, new_state, user=None):
        change = original_change_state(instance, new_state, user)
        journal.append(
            {
                "op": "change_state",
                "instance_id": instance.instance_id,
                "new_state": new_state,
                "time": change.time,
                "user": user,
            }
        )
        return change

    core.change_state = change_state  # type: ignore[method-assign]

    original_share = core.share_context

    def share_context(ref, subprocess):
        result = original_share(ref, subprocess)
        journal.append(
            {
                "op": "share_context",
                "context_id": ref.context_id,
                "holder": ref.holder_process_instance_id,
                "subprocess": subprocess.instance_id,
            }
        )
        return result

    core.share_context = share_context  # type: ignore[method-assign]

    original_destroy = core.destroy_context

    def destroy_context(ref):
        journal.append({"op": "destroy_context", "context_id": ref.context_id})
        return original_destroy(ref)

    core.destroy_context = destroy_context  # type: ignore[method-assign]

    original_scoped_role = core.create_scoped_role

    def create_scoped_role(ref, field_name, members=()):
        role = original_scoped_role(ref, field_name, members)
        journal.append(
            {
                "op": "create_scoped_role",
                "context_id": ref.context_id,
                "field": field_name,
                "members": [p.participant_id for p in members],
            }
        )
        _journal_scoped_membership(role, ref.context_id, field_name)
        return role

    core.create_scoped_role = create_scoped_role  # type: ignore[method-assign]

    def _journal_scoped_membership(role, context_id, field_name):
        # Membership changes after creation are recorded so the audit
        # trail is complete, but they are not replayable state (see the
        # module docstring): recover_core refuses a journal containing
        # them rather than silently recovering without the change.
        original_add = role.add_member
        original_remove = role.remove_member

        def add_member(participant):
            original_add(participant)
            journal.append(
                {
                    "op": "scoped_role_membership",
                    "action": "add",
                    "context_id": context_id,
                    "field": field_name,
                    "participant": participant.participant_id,
                }
            )

        def remove_member(participant):
            original_remove(participant)
            journal.append(
                {
                    "op": "scoped_role_membership",
                    "action": "remove",
                    "context_id": context_id,
                    "field": field_name,
                    "participant": participant.participant_id,
                }
            )

        role.add_member = add_member
        role.remove_member = remove_member

    # Context field assignments: observe the change stream, skipping the
    # role-valued writes that create_scoped_role journals itself.
    def on_context_change(change: ContextChange) -> None:
        from ..core.roles import ScopedRole

        if isinstance(change.new_value, ScopedRole):
            return
        journal.append(
            {
                "op": "set_field",
                "context_id": change.context_id,
                "field": change.field_name,
                "value": change.new_value,
                "time": change.time,
            }
        )

    core.on_context_change(on_context_change)
    return journal


def recover_core(
    journal: Journal,
    conditions: Optional[ConditionRegistry] = None,
) -> CoreEngine:
    """Replay *journal* into a fresh CORE engine.

    The recovered engine has the same schemas, participants, roles,
    instance trees (ids included), state machines, context contents,
    associations, and scoped roles as the journaled one at the moment the
    journal ends.  Coordination worklists and awareness operator state are
    *not* part of the CORE surface; they re-derive at run time.
    """
    core = CoreEngine()
    contexts_by_id: Dict[str, Any] = {}

    def ref_for(context_id: str):
        try:
            return contexts_by_id[context_id]
        except KeyError:
            raise RecoveryError(
                f"journal references unknown context {context_id!r}"
            ) from None

    def capture_contexts(instance) -> None:
        for ref in instance.context_refs.values():
            contexts_by_id[ref.context_id] = ref

    for index, record in enumerate(journal.records()):
        op = record.get("op")
        try:
            if op == "register_schema":

                def resolver(schema_id):
                    try:
                        return core.schema(schema_id)
                    except ReproError:
                        return None

                core.register_schema(
                    schema_from_dict(
                        record["payload"], conditions, resolver=resolver
                    )
                )
            elif op == "register_participant":
                core.roles.register_participant(
                    Participant(
                        record["id"],
                        record["name"],
                        ParticipantKind[record["kind"]],
                    )
                )
            elif op == "define_role":
                core.roles.define_role(record["name"])
            elif op == "add_role_member":
                core.roles.role(record["role"]).add_member(
                    core.roles.participant(record["participant"])
                )
            elif op == "remove_role_member":
                core.roles.role(record["role"]).remove_member(
                    core.roles.participant(record["participant"])
                )
            elif op == "create_process_instance":
                schema = core.schema(record["schema_id"])
                parent = (
                    core.instance(record["parent"])
                    if record["parent"]
                    else None
                )
                variable = (
                    parent.schema.activity_variable(record["variable"])
                    if parent is not None
                    else None
                )
                instance = core.create_process_instance(
                    schema, parent=parent, activity_variable=variable
                )
                if instance.instance_id != record["instance_id"]:
                    raise RecoveryError(
                        f"id drift: expected {record['instance_id']!r}, "
                        f"got {instance.instance_id!r}"
                    )
                capture_contexts(instance)
            elif op == "create_activity_instance":
                parent = core.instance(record["parent"])
                instance = core.create_activity_instance(
                    parent, record["variable"]
                )
                if instance.instance_id != record["instance_id"]:
                    raise RecoveryError(
                        f"id drift: expected {record['instance_id']!r}, "
                        f"got {instance.instance_id!r}"
                    )
            elif op == "change_state":
                core.clock.advance_to(max(core.clock.now(), record["time"] - 1))
                core.change_state(
                    core.instance(record["instance_id"]),
                    record["new_state"],
                    user=record["user"],
                )
            elif op == "set_field":
                core.clock.advance_to(max(core.clock.now(), record["time"]))
                ref_for(record["context_id"]).set(
                    record["field"], record["value"]
                )
            elif op == "share_context":
                core.share_context(
                    ref_for(record["context_id"]),
                    core.instance(record["subprocess"]),
                )
            elif op == "destroy_context":
                core.destroy_context(ref_for(record["context_id"]))
            elif op == "create_scoped_role":
                members = tuple(
                    core.roles.participant(pid) for pid in record["members"]
                )
                core.create_scoped_role(
                    ref_for(record["context_id"]), record["field"], members
                )
            elif op == "scoped_role_membership":
                # Audit-only record (see the module docstring): replaying
                # it cannot reproduce the engine's state, so fail loudly
                # instead of recovering something that silently diverges.
                raise RecoveryError(
                    "journal contains a post-creation scoped-role "
                    f"membership change ({record.get('action')!r} "
                    f"{record.get('participant')!r} on "
                    f"{record.get('context_id')}.{record.get('field')}); "
                    "such changes are outside the recoverable surface — "
                    "set the membership via CoreEngine.create_scoped_role "
                    "so it survives recovery"
                )
            else:
                raise RecoveryError(f"unknown journal op {op!r}")
        except ReproError as error:
            raise RecoveryError(
                f"replay failed at record {index} ({op}): {error}"
            ) from error
    return core
