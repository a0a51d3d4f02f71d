"""Context resources and context references (Section 4, Section 5.1.1).

A *context resource* is a collection of named resources organised into
name-value pairs called *fields* — similar to a record structure.  Contexts
are the CORE's novel scoping mechanism:

* Contexts can be **accessed only via context references**
  (:class:`ContextReference`); holding a reference is what puts an activity
  instance "in scope".  The engine hands references to the process instances
  a context is associated with, and a parent process may pass its reference
  down to subprocesses (the Section 5.4 example passes ``TaskForceContext``
  to the information-request subprocess).
* A context may therefore be **associated with several process instances**;
  the association set ``{(processSchemaId, processInstanceId)}`` is carried
  on every context field change event.
* **Scoped roles** live inside contexts as role-valued fields
  (see :mod:`repro.core.roles`); destroying the context destroys the roles.

Every field modification produces a *context field change event* with the
exact parameters of Section 5.1.1: time, contextId, the process association
set, fieldName, oldFieldValue and newFieldValue.  The CORE engine forwards
these change records to the awareness event source agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Tuple,
)

from ..errors import ContextError, ScopeError, UnknownFieldError


@dataclass(frozen=True)
class ContextFieldSpec:
    """Declaration of one context field: a name plus a value-type tag.

    ``field_type`` is one of ``"int"``, ``"str"``, ``"float"``, ``"bool"``,
    ``"role"`` (a scoped role), or ``"any"``.
    """

    name: str
    field_type: str = "any"

    _SIMPLE: Tuple[Tuple[str, type], ...] = (
        ("int", int),
        ("str", str),
        ("float", float),
        ("bool", bool),
    )

    def check(self, value: Any) -> None:
        if self.field_type in ("any", "role"):
            return
        expected = dict(self._SIMPLE).get(self.field_type)
        if expected is None:
            raise ContextError(
                f"field {self.name!r} declares unknown type {self.field_type!r}"
            )
        if expected is int and isinstance(value, bool):
            raise ContextError(f"field {self.name!r} expects int, got bool")
        if not isinstance(value, expected):
            raise ContextError(
                f"field {self.name!r} expects {self.field_type}, got "
                f"{type(value).__name__} {value!r}"
            )


class ContextSchema:
    """An application-specific context type: a set of field declarations."""

    def __init__(
        self, name: str, fields: Optional[List[ContextFieldSpec]] = None
    ) -> None:
        self.name = name
        self._fields: Dict[str, ContextFieldSpec] = {}
        for spec in fields or []:
            self.declare_field(spec)

    def declare_field(self, spec: ContextFieldSpec) -> None:
        if spec.name in self._fields:
            raise ContextError(
                f"duplicate field {spec.name!r} in context schema {self.name!r}"
            )
        self._fields[spec.name] = spec

    def field_spec(self, name: str) -> ContextFieldSpec:
        try:
            return self._fields[name]
        except KeyError:
            raise UnknownFieldError(
                f"context schema {self.name!r} has no field {name!r}"
            ) from None

    def field_names(self) -> Tuple[str, ...]:
        return tuple(self._fields)

    def has_field(self, name: str) -> bool:
        return name in self._fields


@dataclass(frozen=True)
class ContextChange:
    """Record of one field modification — the payload of ``E_context``.

    ``associations`` is the set of ``(processSchemaId, processInstanceId)``
    tuples of the processes associated with the context at the time of the
    change, exactly as required by the event parameters of Section 5.1.1.
    """

    time: int
    context_id: str
    context_name: str
    associations: FrozenSet[Tuple[str, str]]
    field_name: str
    old_value: Any
    new_value: Any


ChangeListener = Callable[[ContextChange], None]


class ContextResource:
    """A run-time context instance.

    Direct mutation methods are underscore-private: clients must go through
    a :class:`ContextReference`, which is how the scope rule is enforced.
    The engine (or tests) may register change listeners; the awareness
    event source agent is one such listener.
    """

    def __init__(self, context_id: str, schema: ContextSchema) -> None:
        self.context_id = context_id
        self.schema = schema
        self._fields: Dict[str, Any] = {}
        self._associations: FrozenSet[Tuple[str, str]] = frozenset()
        self._listeners: List[ChangeListener] = []
        self._destroyed = False

    # -- association & lifecycle -------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    def associations(self) -> FrozenSet[Tuple[str, str]]:
        return self._associations

    def _associate(self, process_schema_id: str, process_instance_id: str) -> None:
        self._check_alive()
        # Rebuilt here only: every change record shares the current
        # (immutable) set instead of copying it per field write.
        self._associations |= {(process_schema_id, process_instance_id)}

    def _destroy(self) -> None:
        """Mark the context destroyed; scoped roles inside it disappear."""
        self._destroyed = True

    def add_listener(self, listener: ChangeListener) -> None:
        self._listeners.append(listener)

    # -- field access (package-private; called via ContextReference) --------

    def _get(self, field_name: str) -> Any:
        self._check_alive()
        self.schema.field_spec(field_name)
        if field_name not in self._fields:
            raise UnknownFieldError(
                f"field {field_name!r} of context {self.name!r} is unset"
            )
        return self._fields[field_name]

    def _is_set(self, field_name: str) -> bool:
        self.schema.field_spec(field_name)
        return field_name in self._fields

    def _set(self, field_name: str, value: Any, time: int) -> ContextChange:
        self._check_alive()
        spec = self.schema.field_spec(field_name)
        spec.check(value)
        old = self._fields.get(field_name)
        self._fields[field_name] = value
        change = ContextChange(
            time=time,
            context_id=self.context_id,
            context_name=self.name,
            associations=self._associations,
            field_name=field_name,
            old_value=old,
            new_value=value,
        )
        for listener in list(self._listeners):
            listener(change)
        return change

    def _check_alive(self) -> None:
        if self._destroyed:
            raise ContextError(
                f"context {self.name!r} ({self.context_id}) has been destroyed"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ContextResource({self.name!r}, id={self.context_id!r})"


class ContextReference:
    """A capability handle over a context resource.

    All reads and writes flow through references, which lets the engine
    associate a *scope* with any context resource: only holders of a
    reference can touch the context.  References know which process
    instance they were issued to, and writes are stamped with the engine
    clock by the issuing engine.
    """

    def __init__(
        self,
        context: ContextResource,
        holder_process_instance_id: Optional[str],
        clock_now: Callable[[], int],
    ) -> None:
        self._context = context
        self.holder_process_instance_id = holder_process_instance_id
        self._clock_now = clock_now
        self._revoked = False

    @property
    def context_id(self) -> str:
        return self._context.context_id

    @property
    def context_name(self) -> str:
        return self._context.name

    def get(self, field_name: str) -> Any:
        self._check()
        return self._context._get(field_name)

    def is_set(self, field_name: str) -> bool:
        self._check()
        return self._context._is_set(field_name)

    def set(self, field_name: str, value: Any) -> ContextChange:
        self._check()
        return self._context._set(field_name, value, self._clock_now())

    def update(self, fields: Dict[str, Any]) -> List[ContextChange]:
        """Set several fields in one call; one change record per field.

        All writes share the scope check and are stamped in mapping order.
        Each write is published through the engine's listeners like a
        :meth:`set`, so the returned records are already events: they
        are for the caller to read, not to emit again.
        """
        self._check()
        return [
            self._context._set(name, value, self._clock_now())
            for name, value in fields.items()
        ]

    def pass_to(self, process_instance_id: str) -> "ContextReference":
        """Hand a reference to a subprocess (Section 5.4 passes the task
        force context to the information-request subprocess this way)."""
        self._check()
        return ContextReference(self._context, process_instance_id, self._clock_now)

    def revoke(self) -> None:
        """Invalidate this handle; later access raises :class:`ScopeError`."""
        self._revoked = True

    def _check(self) -> None:
        if self._revoked:
            raise ScopeError(
                f"reference to context {self._context.name!r} was revoked"
            )

    # Engine-internal accessor (the delivery agent resolves scoped roles).
    @property
    def _resource(self) -> ContextResource:
        return self._context

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContextReference({self._context.name!r}, "
            f"holder={self.holder_process_instance_id!r})"
        )
