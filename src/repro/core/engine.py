"""The CORE Engine (Figure 5).

The CORE engine is the bottom layer of the CMI Enactment System.  It owns:

* the schema registries (activity schemas, activity state schemas, context
  schemas are carried inside process schemas);
* the live object stores: activity/process instances and context resources;
* the role directory (organizational roles + participants);
* the logical clock shared by the whole federation;
* the primitive-event hook points: every activity state change and every
  context field change is handed to registered listeners — the awareness
  event source agents of Section 6.3 attach here.

The coordination engine drives state transitions *through* the CORE engine;
the awareness delivery agent asks the CORE engine to resolve delivery roles
(Section 6.5: "resolves the awareness delivery role ... through an
interaction with the CORE Engine").
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..clock import LogicalClock
from ..errors import EnactmentError, RoleResolutionError, SchemaError
from ..ids import IdFactory
from .context import ContextChange, ContextReference, ContextResource, ContextSchema
from .instances import ActivityInstance, ActivityStateChange, ProcessInstance
from .roles import (
    Participant,
    RoleDirectory,
    RoleRef,
    ScopedRole,
)
from .schema import ActivitySchema, ActivityVariable, ProcessActivitySchema

ActivityListener = Callable[[ActivityStateChange], None]
ContextListener = Callable[[ContextChange], None]


class CoreEngine:
    """Schema registry, instance factory, context store, and event hub."""

    def __init__(self, clock: Optional[LogicalClock] = None) -> None:
        self.clock = clock or LogicalClock()
        self.roles = RoleDirectory()
        self._ids = IdFactory()
        self._schemas: Dict[str, ActivitySchema] = {}
        self._instances: Dict[str, ActivityInstance] = {}
        self._top_level: List[ProcessInstance] = []
        self._contexts: Dict[str, ContextResource] = {}
        # Scope index: instance id -> the contexts associated with it, in
        # creation order (``_context_rank``); destroyed contexts leave it.
        self._scopes: Dict[str, List[ContextResource]] = {}
        self._context_rank: Dict[str, int] = {}
        self._activity_listeners: List[ActivityListener] = []
        self._context_listeners: List[ContextListener] = []

    # -- schema registry ------------------------------------------------------

    def register_schema(self, schema: ActivitySchema) -> ActivitySchema:
        """Validate and register an activity schema (basic or process).

        Registration is recursive: the schemas of a process's activity
        variables are registered too, so an application only hands its
        top-level schemas to the engine.  Re-registering the *same* schema
        object is a no-op; a different object under an existing id is an
        error.
        """
        existing = self._schemas.get(schema.schema_id)
        if existing is schema:
            return schema
        if existing is not None:
            raise SchemaError(f"duplicate schema id {schema.schema_id!r}")
        schema.validate()
        self._schemas[schema.schema_id] = schema
        if isinstance(schema, ProcessActivitySchema):
            for variable in schema.activity_variables():
                self.register_schema(variable.activity_schema)
        return schema

    def schema(self, schema_id: str) -> ActivitySchema:
        try:
            return self._schemas[schema_id]
        except KeyError:
            raise SchemaError(f"unknown schema {schema_id!r}") from None

    def schemas(self) -> Tuple[ActivitySchema, ...]:
        return tuple(self._schemas.values())

    def new_schema_id(self, name: str) -> str:
        return self._ids.new(f"schema-{name}")

    # -- event listeners ---------------------------------------------------------

    def on_activity_change(self, listener: ActivityListener) -> None:
        self._activity_listeners.append(listener)

    def on_context_change(self, listener: ContextListener) -> None:
        self._context_listeners.append(listener)

    # -- instance management -------------------------------------------------------

    def create_process_instance(
        self,
        schema: ProcessActivitySchema,
        parent: Optional[ProcessInstance] = None,
        activity_variable: Optional[ActivityVariable] = None,
    ) -> ProcessInstance:
        """Instantiate a process schema; creates its declared contexts."""
        self._require_registered(schema)
        instance = ProcessInstance(
            instance_id=self._ids.new("proc"),
            schema=schema,
            parent=parent,
            activity_variable=activity_variable,
        )
        self._instances[instance.instance_id] = instance
        if parent is None:
            self._top_level.append(instance)
        else:
            assert activity_variable is not None
            parent.add_child(activity_variable.name, instance)
        for context_schema in schema.context_schemas():
            self.create_context(context_schema, instance)
        return instance

    def create_activity_instance(
        self,
        parent: ProcessInstance,
        activity_variable_name: str,
    ) -> ActivityInstance:
        """Instantiate a subactivity of *parent* (basic or nested process)."""
        variable = parent.schema.activity_variable(activity_variable_name)
        child_schema = variable.activity_schema
        self._require_registered(child_schema)
        if isinstance(child_schema, ProcessActivitySchema):
            return self.create_process_instance(
                child_schema, parent=parent, activity_variable=variable
            )
        instance = ActivityInstance(
            instance_id=self._ids.new("act"),
            schema=child_schema,
            parent=parent,
            activity_variable=variable,
        )
        self._instances[instance.instance_id] = instance
        parent.add_child(variable.name, instance)
        return instance

    def instance(self, instance_id: str) -> ActivityInstance:
        try:
            return self._instances[instance_id]
        except KeyError:
            raise EnactmentError(f"unknown instance {instance_id!r}") from None

    def instances(self) -> Tuple[ActivityInstance, ...]:
        return tuple(self._instances.values())

    def top_level_processes(self) -> Tuple[ProcessInstance, ...]:
        return tuple(self._top_level)

    # -- state transitions --------------------------------------------------------

    def change_state(
        self,
        instance: ActivityInstance,
        new_state: str,
        user: Optional[str] = None,
    ) -> ActivityStateChange:
        """Perform a state transition and publish the primitive event."""
        change = instance.change_state(new_state, time=self.clock.tick(), user=user)
        for listener in list(self._activity_listeners):
            listener(change)
        return change

    # -- contexts ---------------------------------------------------------------------

    def create_context(
        self,
        schema: ContextSchema,
        owner: ProcessInstance,
    ) -> ContextReference:
        """Create a context resource associated with (and held by) *owner*."""
        context = ContextResource(self._ids.new("ctx"), schema)
        context._associate(owner.schema.schema_id, owner.instance_id)
        context.add_listener(self._publish_context_change)
        self._context_rank[context.context_id] = len(self._contexts)
        self._contexts[context.context_id] = context
        self._scopes.setdefault(owner.instance_id, []).append(context)
        ref = ContextReference(context, owner.instance_id, self.clock.now)
        owner.hold_context(ref)
        return ref

    def share_context(
        self, ref: ContextReference, subprocess: ProcessInstance
    ) -> ContextReference:
        """Pass a context into a subprocess scope (Section 5.4 pattern).

        The subprocess gains a reference and the context records the new
        process association, so subsequent field-change events list both
        processes.
        """
        context = ref._resource
        context._associate(subprocess.schema.schema_id, subprocess.instance_id)
        scope = self._scopes.setdefault(subprocess.instance_id, [])
        if context not in scope:
            # An older context may arrive after newer ones: role resolution
            # takes the first match, so creation order is semantics.
            scope.append(context)
            scope.sort(key=lambda c: self._context_rank[c.context_id])
        child_ref = ref.pass_to(subprocess.instance_id)
        subprocess.hold_context(child_ref)
        return child_ref

    def destroy_context(self, ref: ContextReference) -> None:
        """Destroy the context; its scoped roles expire immediately."""
        context = ref._resource
        context._destroy()
        for __, instance_id in context.associations():
            scope = self._scopes[instance_id]
            if context in scope:
                scope.remove(context)

    def context_resource(self, context_id: str) -> ContextResource:
        try:
            return self._contexts[context_id]
        except KeyError:
            raise EnactmentError(f"unknown context {context_id!r}") from None

    def contexts_for_instance(
        self, process_instance_id: str
    ) -> Tuple[ContextResource, ...]:
        """All live contexts associated with a process instance.

        The awareness delivery agent uses this to resolve scoped delivery
        roles against the triggering process instance's scope.
        """
        scope = self._scopes.get(process_instance_id, ())
        return tuple([c for c in scope if not c.destroyed])

    # -- scoped roles -----------------------------------------------------------------

    def create_scoped_role(
        self,
        ref: ContextReference,
        field_name: str,
        members: Tuple[Participant, ...] = (),
    ) -> ScopedRole:
        """Create a scoped role stored in a role-valued context field."""
        role = ScopedRole(field_name, ref._resource)
        for member in members:
            role.add_member(member)
        ref.set(field_name, role)
        return role

    def resolve_role(
        self,
        role_ref: RoleRef,
        process_instance_id: Optional[str] = None,
    ) -> FrozenSet[Participant]:
        """Resolve a (possibly scoped) role reference at call time."""
        contexts = ()
        if role_ref.is_scoped:
            if process_instance_id is None:
                raise RoleResolutionError(
                    f"scoped role {role_ref} requires a process instance scope"
                )
            contexts = self.contexts_for_instance(process_instance_id)
        return self.roles.resolve(role_ref, contexts)

    # -- internals ---------------------------------------------------------------------

    def _publish_context_change(self, change: ContextChange) -> None:
        for listener in list(self._context_listeners):
            listener(change)

    def _require_registered(self, schema: ActivitySchema) -> None:
        if schema.schema_id not in self._schemas:
            raise SchemaError(
                f"schema {schema.name!r} ({schema.schema_id!r}) is not "
                f"registered with the CORE engine"
            )
