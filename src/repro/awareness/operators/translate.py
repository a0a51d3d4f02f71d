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
id``, kept in the operator's partitions (keyed by the invoked instance),
so a shard snapshot carries it.  Canonical events of the invoked process
arriving on the second slot are then re-issued as canonical events of the
invoking instance; events of unmapped instances are ignored.

To combine events from two processes not directly related through a
sub-activity invocation, processing must occur in a common ancestor, with
one Translate per invocation hop — the DAG validator does not enforce that
modelling guideline, but the EX54/FIG6 tests demonstrate it.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ...errors import ParameterError
from ...events.canonical import canonical_type
from ...events.producers import ACTIVITY_EVENT_TYPE
from .base import EventOperator, OperatorSignature
from .segments import Template


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

    # Slot 0 learns invoked instance -> invoking instance (one partition
    # per invocation); slot 1 re-issues an invoked instance's events.
    # The invoked event is carried whole: the one mapping a canonical
    # hop builds.
    template = Template(
        cells=(
            "_partitions",
            "process_schema_id",
            "invoked_schema_id",
            "activity_variable",
            "instance_name",
            "output_type",
        ),
        body="""
if $slot == 0:
    $params = event._params
    if (
        $params["parentProcessSchemaId"] == $process_schema_id
        and $params["activityVariableId"] == $activity_variable
        and $params["activityProcessSchemaId"] == $invoked_schema_id
    ):
        $_partitions[$params["activityInstanceId"]] = $params["parentProcessInstanceId"]
    $skip
$invoking = $_partitions.get(@processInstanceId)
if $invoking is None:
    $skip
$emit
""",
        output={
            "_event_type": "$output_type",
            "time": "@time",
            "source": "$instance_name",
            "processSchemaId": "$process_schema_id",
            "processInstanceId": "$invoking",
            "intInfo": "@intInfo",
            "strInfo": "@strInfo",
            "description": (
                'f"translated from {$invoked_schema_id} instance'
                ' {@processInstanceId}: {@description}"'
            ),
            "sourceEvent": "event.params",
            "_keys": "CANONICAL_KEYS",
        },
        lift=True,
    )

    def describe(self) -> str:
        return (
            f"Translate[{self.process_schema_id}, {self.invoked_schema_id}, "
            f"{self.activity_variable}]"
        )
