"""The count event operator (Section 5.1.3).

``Count[P](C_P) -> C_P`` "maintains a count of the number of input events
seen (per process instance) and emits that value as the intInfo parameter
on its canonical output event ... outputs an event for every input seen.
The count operator is most useful when combined with the comparison
operators."

Example from the paper's domain: counting positive lab-test completions in
one crisis-response instance, feeding ``Compare1[>= 1]`` so the first
positive result triggers awareness that the remaining tests are
unnecessary.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ...events.canonical import canonical_type
from .base import EventOperator, OperatorSignature
from .segments import Template


class Count(EventOperator):
    """Per-process-instance event counter."""

    family = "Count"

    def __init__(
        self, process_schema_id: str, instance_name: Optional[str] = None
    ) -> None:
        ctype = canonical_type(process_schema_id)
        super().__init__(
            process_schema_id,
            OperatorSignature((ctype,), ctype),
            instance_name,
        )

    def plan_params(self) -> Tuple[Any, ...]:
        return (self.process_schema_id,)

    template = Template(
        cells=("_partitions", "instance_name"),
        body="""
$state = $_partitions.get(@processInstanceId)
if $state is None:
    $state = $_partitions[@processInstanceId] = {"count": 0}
$count = $state["count"] = $state["count"] + 1
$emit
""",
        output={
            "source": "$instance_name",
            "intInfo": "$count",
            "description": 'f"count={$count}"',
        },
    )

    def current_count(self, process_instance_id: str) -> int:
        """The running count for one process instance (0 if none seen)."""
        state = self._partitions.get(process_instance_id)
        count: int = state["count"] if state else 0
        return count

    def describe(self) -> str:
        return f"Count[{self.process_schema_id}]"
