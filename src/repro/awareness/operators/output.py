"""The special output event operator (Section 6.2).

"The root is a special output event operator that adds delivery
instructions to its input event.  This operator ... is an artifact of the
implementation that simplifies the awareness specification user interface.
The output operator's delivery instructions include the awareness delivery
role and awareness role assignment ... as well as a user-friendly
description of the event."

Every awareness schema's DAG is rooted by exactly one :class:`Output`
instance.  Its output events are of the shared :data:`DELIVERY_EVENT_TYPE`;
the awareness delivery agent subscribes to that single type (Section 6.5:
"the awareness delivery agent consumes all composite events of the type
produced by the special output operator").
"""

from __future__ import annotations

from typing import Any, List, Optional

from ...core.roles import RoleRef
from ...errors import ParameterError
from ...events.canonical import CanonicalEvent, canonical_type
from ...events.event import Event, EventType, ParameterSpec, base_parameters
from .base import EventOperator, OperatorSignature

#: The event type consumed by the awareness delivery agent.
DELIVERY_EVENT_TYPE = EventType(
    "T_delivery",
    (
        *base_parameters(),
        ParameterSpec("schemaName", "str", nullable=False),
        ParameterSpec("deliveryRole", "str", nullable=False),
        ParameterSpec("deliveryContext", "str"),
        ParameterSpec("assignment", "str", nullable=False),
        ParameterSpec("processSchemaId", "str", nullable=False),
        ParameterSpec("processInstanceId", "str", nullable=False),
        ParameterSpec("userDescription", "str", nullable=False),
        ParameterSpec("intInfo", "int", required=False),
        ParameterSpec("strInfo", "str", required=False),
        ParameterSpec("sourceEvent", "any", required=False),
    ),
)


class Output(EventOperator):
    """Attach delivery instructions to detected composite events.

    Parameters:

    * ``delivery_role`` — a :class:`~repro.core.roles.RoleRef`; may be an
      organizational role or a scoped role reference, resolved by the
      delivery agent at detection time (Section 5.2);
    * ``assignment_name`` — the name of the awareness role assignment
      function (Section 5.3; ``"identity"`` is the paper's implemented one);
    * ``user_description`` — the designer's user-friendly text, rendered in
      the awareness information viewer.
    """

    family = "Output"

    def __init__(
        self,
        process_schema_id: str,
        delivery_role: RoleRef,
        assignment_name: str = "identity",
        user_description: str = "",
        schema_name: str = "",
        instance_name: Optional[str] = None,
    ) -> None:
        if not isinstance(delivery_role, RoleRef):
            raise ParameterError(
                f"Output requires a RoleRef delivery role, got {delivery_role!r}"
            )
        if not assignment_name:
            raise ParameterError("Output requires an assignment function name")
        super().__init__(
            process_schema_id,
            OperatorSignature(
                (canonical_type(process_schema_id),), DELIVERY_EVENT_TYPE
            ),
            instance_name,
        )
        self.delivery_role = delivery_role
        self.assignment_name = assignment_name
        self.user_description = user_description
        self.schema_name = schema_name or f"AS_{process_schema_id}"

    def partition_key(self, slot: int, event: Event) -> Any:
        return None  # stateless decoration

    # plan_params stays the base-class None by design: the output operator
    # *is* the window's delivery identity (role, assignment, description,
    # schema name), so the plan cache always keeps one per window — the
    # paper's per-participant customization survives any amount of
    # upstream sharing.

    def _apply(self, slot: int, event: Event, state: Any) -> List[Event]:
        # Decorating an already-validated canonical event (a record: its
        # fields are read, no mapping is built); the trusted constructor
        # skips a third per-event conformance pass.
        record: CanonicalEvent = event  # type: ignore[assignment]
        return [
            Event.trusted(
                DELIVERY_EVENT_TYPE,
                {
                    "time": record.time,
                    "source": self.instance_name,
                    "schemaName": self.schema_name,
                    "deliveryRole": self.delivery_role.role_name,
                    "deliveryContext": self.delivery_role.context_name,
                    "assignment": self.assignment_name,
                    "processSchemaId": record.processSchemaId,
                    "processInstanceId": record.processInstanceId,
                    "userDescription": self.user_description
                    or (record.description or "awareness event"),
                    "intInfo": record.intInfo,
                    "strInfo": record.strInfo,
                    "sourceEvent": record.sourceEvent,
                },
            )
        ]

    def describe(self) -> str:
        return (
            f"Output[{self.schema_name}, role={self.delivery_role}, "
            f"{self.assignment_name}]"
        )
