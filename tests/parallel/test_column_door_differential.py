"""The column door against the Event-list door.

A shard worker decodes each frame with its ``ROWS`` records kept as
runs, and the producer walks a run's rows through the column entries of
its lifting filters, building an event only for a row that escapes
(``EventProducer.emit_run``).  This property holds it to the door every
in-process caller uses, a list of events: the admission differential's
frames (hostile rows and members that are no event included) go to one
host as events and to the other encoded and decoded as a worker decodes
them, under a scenario both hosts share — a tap subscribed or
unsubscribed mid-run, a wildcard consumer, instrumentation switched on
mid-run or on throughout, an external filter (an entry with no column
variant), a lifting filter's own hop entry, or a consumer that deploys
and undeploys a window mid-run.
The door host's windows share a filter prefix, so that filter runs as a
hop.  Both hosts answer every frame alike (refusal text, state unmoved
by a refusal), and end with the same drain records (sequence numbers and
provenance signatures included), ``stats()``, operator counts and
partitions, and the same events seen by every tap and consumer.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.awareness.operators.filters import ContextFilter, ExternalFilter
from repro.errors import WireError
from repro.events.event import Event
from repro.events.producers import CONTEXT_EVENT_TYPE
from repro.observability import INSTRUMENTATION, instrumented
from repro.parallel import ShardSpec

from tests.awareness.test_routing import decoded_runs
from tests.parallel.test_admission_differential import (
    SETTINGS,
    door_refusal,
    encoded,
    frames,
)
from tests.parallel.test_ingest_door import (
    CONTEXT,
    GOOD,
    INSTANCE,
    SCHEMA,
    door_host,
    operator_state,
)

#: What a run-time consumer does when it sees its row.
SCENARIOS = [
    "none",
    "tap",
    "untap",
    "wildcard",
    "instrument",
    "instrumented",
    "external",
    "hop",
    "deploy",
]

#: The window a consumer deploys, then undeploys, mid-run.
EXTRA_SPEC = ShardSpec(
    spec_id="spec-extra",
    process_schema_id=SCHEMA,
    text=(
        f"e0 = Filter_context[{CONTEXT}, Deadline](ContextEvent)\n"
        "e1 = Count[](e0)\n"
        "e2 = Edge[>=, 3](e1)\n"
        'deliver e2 to team-000 as "extra" named AS_EXTRA'
    ),
)


class Sentinel(ExternalFilter):
    """An external filter over ``T_context``: a wildcard entry with no
    column variant."""

    def __init__(self):
        super().__init__(SCHEMA, CONTEXT_EVENT_TYPE, "sentinel")

    def matches(self, event):
        return event["fieldName"] == "Deadline"

    def instance_for(self, event):
        return INSTANCE


class Scenario:
    """One host under one scenario, acting at its *at*-th row."""

    def __init__(self, kind, at):
        self.kind, self.at = kind, at
        self.host = door_host()
        self.seen = []
        self.rows = 0
        system = self.host.system
        producer = system.awareness.context_source.producer
        if kind in ("tap", "untap", "wildcard", "instrument", "deploy"):
            producer.add_consumer(self.probe, [(CONTEXT, "Deadline")])
        if kind == "untap":
            self.tap = system.bus.subscribe("T_context", self.tapped)
        if kind == "wildcard":
            producer.add_consumer(self.tapped)
        if kind in ("external", "hop"):
            # An external filter (no column entry, wildcard), or a lifting
            # filter's own hop entry outside any segment (its column entry).
            if kind == "external":
                flt = Sentinel()
            else:
                flt = ContextFilter(SCHEMA, CONTEXT, "Deadline", instance_name="hop")
            flt.add_consumer(lambda slot, output: self.seen.append(
                (output.processInstanceId, output.description, output.time,
                 dict(output.sourceEvent))
            ), 0)
            producer.add_consumer(flt.step(0), flt.routing_keys(0))

    def tapped(self, event):
        self.seen.append(dict(event.params))

    def probe(self, event):
        """Act at the row after the *at*-th of its key: once, or (a
        deploy) every eighth row, alternately deploying and
        undeploying."""
        self.rows += 1
        if self.rows % 8 != self.at or (self.kind != "deploy" and self.rows > 8):
            return
        system = self.host.system
        if self.kind == "tap":
            system.bus.subscribe("T_context", self.tapped)
        elif self.kind == "untap":
            system.bus.unsubscribe(self.tap)
        elif self.kind == "instrument":
            INSTRUMENTATION.enable()
        elif self.kind == "deploy":
            if "spec-extra" in self.host._detectors:
                self.host.undeploy_spec("spec-extra")
            else:
                self.host.deploy_spec(EXTRA_SPEC)

    def ingest(self, events, decoded):
        """One frame through the column door (*decoded*) or the list
        door: the refusal text, or ``None``."""
        previous = INSTRUMENTATION.enabled
        try:
            if decoded is None:
                return door_refusal(self.host, events)
            return door_refusal(self.host, decoded)
        finally:
            INSTRUMENTATION.enabled = previous

    def outcome(self):
        host = self.host
        return (
            host.drain_results(),
            host.stats(),
            operator_state(host),
            self.seen,
            self.rows,
        )


def decoded_frame(events):
    """*events* as a worker decodes them, or ``None`` where they cannot
    cross the wire (a ``str`` subclass)."""
    try:
        encoded(events)
    except WireError:
        return None
    return decoded_runs(events)


def both_doors(stream, kind, at):
    """The outcome of *stream* through each door under one scenario."""
    outcomes = []
    for door in ("events", "column"):
        scenario = Scenario(kind, at)
        answers = []
        try:
            with instrumented() if kind == "instrumented" else nullcontext():
                for events in stream:
                    decoded = decoded_frame(events) if door == "column" else None
                    answers.append(scenario.ingest(events, decoded))
                outcomes.append((answers, scenario.outcome()))
        finally:
            scenario.host.close()
    return outcomes


class TestColumnDoorDifferential:
    @SETTINGS
    @given(
        stream=st.lists(frames(), min_size=1, max_size=3),
        kind=st.sampled_from(SCENARIOS),
        at=st.integers(0, 7),
    )
    def test_the_column_door_answers_as_the_event_list_door(self, stream, kind, at):
        events, column = both_doors(stream, kind, at)
        assert column == events

    @pytest.mark.parametrize("kind", SCENARIOS)
    def test_each_scenario_acts_on_a_clean_run(self, kind):
        """Every scenario, on two 20-row runs each of which it acts in:
        the doors agree, and the scenario did act."""
        stream = [
            [
                Event.trusted(CONTEXT_EVENT_TYPE, dict(GOOD["T_context"], time=t))
                for t in range(first, first + 20)
            ]
            for first in (1, 21)
        ]
        events, column = both_doors(stream, kind, 3)
        assert column == events
        answers, (records, stats, __, seen, rows) = events
        assert answers == [None, None]
        assert stats["events_ingested"] == 40
        if kind in ("tap", "wildcard", "external", "hop"):
            assert seen
        if kind == "untap":
            # A run is published once its rows are dispatched: the tap
            # left mid-run, before it.
            assert not seen
        if kind in ("tap", "untap", "wildcard", "instrument", "deploy"):
            assert rows == 40
        if kind in ("instrument", "instrumented"):
            assert any(record["signature"] for record in records)
        if kind == "deploy":
            assert any(record["schema"] == "AS_EXTRA" for record in records)
