"""The process invocation event operator (Section 5.1.3).

``Translate[P_invoking, P_invoked, Av](T_activity, C_P_invoked) ->
C_P_invoking`` is "the only operator that allows events associated with one
process schema to be translated into events associated with a different
process schema.  This translation is only meaningful if one process
instance invokes the other as a subprocess."

Mechanics, per the paper: the first input (the primitive activity event
type) provides "the necessary information for the translation between
process instances" — when an activity event shows that activity variable
*Av* of an instance of *P_invoking* is an invocation of *P_invoked*, the
operator learns the mapping ``invoked instance id -> invoking instance
id``.  Canonical events of the invoked process arriving on the second slot
are then re-issued as canonical events of the invoking instance; events of
unmapped instances are ignored.

To combine events from two processes not directly related through a
sub-activity invocation, processing must occur in a common ancestor, with
one Translate per invocation hop — the DAG validator does not enforce that
modelling guideline, but the EX54/FIG6 tests demonstrate it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ...errors import ParameterError
from ...events.canonical import CanonicalEvent, canonical_event, canonical_type
from ...events.event import Event
from ...events.producers import ACTIVITY_EVENT_TYPE
from .base import Emit, EventOperator, OperatorSignature, Step


class Translate(EventOperator):
    """Lift canonical events of an invoked subprocess into the invoker."""

    family = "Translate"

    #: Slot indices, named for readability at call sites.
    SLOT_ACTIVITY = 0
    SLOT_INVOKED = 1

    def __init__(
        self,
        invoking_schema_id: str,
        invoked_schema_id: str,
        activity_variable: str,
        instance_name: Optional[str] = None,
    ) -> None:
        if not invoked_schema_id:
            raise ParameterError("Translate requires the invoked process schema")
        if not activity_variable:
            raise ParameterError("Translate requires the invoking activity variable")
        super().__init__(
            invoking_schema_id,
            OperatorSignature(
                (ACTIVITY_EVENT_TYPE, canonical_type(invoked_schema_id)),
                canonical_type(invoking_schema_id),
            ),
            instance_name,
        )
        self.invoked_schema_id = invoked_schema_id
        self.activity_variable = activity_variable
        # invoked process instance id -> invoking process instance id.
        # The mapping is global to the operator instance (it *defines* the
        # per-instance relation), so partitioned state is not used.
        self._mapping: Dict[str, str] = {}

    def plan_params(self) -> Tuple[Any, ...]:
        # The invocation mapping is learned deterministically from the
        # activity stream on slot 0, which shared deployments also share —
        # so equal-parameter Translates converge on the same mapping and
        # may intern.  (A late-deployed window adopts invocations learned
        # before it arrived, same as every partitioned stateful operator.)
        return (
            self.process_schema_id,
            self.invoked_schema_id,
            self.activity_variable,
        )

    def bind(self, emit: Emit) -> Sequence[Step]:
        mapping, name = self._mapping, self.instance_name
        invoking, invoked = self.process_schema_id, self.invoked_schema_id
        variable = self.activity_variable

        def learn(event: Event) -> None:
            """Record invoked->invoking instance pairs from activity events."""
            params = event._params
            if (
                params["parentProcessSchemaId"] == invoking
                and params["activityVariableId"] == variable
                and params["activityProcessSchemaId"] == invoked
            ):
                mapping[params["activityInstanceId"]] = params[
                    "parentProcessInstanceId"
                ]

        def translate(event: CanonicalEvent) -> None:
            invoked_instance = event.processInstanceId
            invoking_instance = mapping.get(invoked_instance)
            if invoking_instance is None:
                return
            emit(
                canonical_event(
                    invoking,
                    invoking_instance,
                    time=event.time,
                    source=name,
                    int_info=event.intInfo,
                    str_info=event.strInfo,
                    description=(
                        f"translated from {invoked} instance "
                        f"{invoked_instance}: {event.description}"
                    ),
                    # The one mapping a canonical hop builds: the
                    # invoked event is carried whole.
                    source_event=event.params,
                ),
                event,
            )

        return (learn, translate)

    def known_invocations(self) -> int:
        """How many subprocess invocations this operator has learned."""
        return len(self._mapping)

    def describe(self) -> str:
        return (
            f"Translate[{self.process_schema_id}, {self.invoked_schema_id}, "
            f"{self.activity_variable}]"
        )
