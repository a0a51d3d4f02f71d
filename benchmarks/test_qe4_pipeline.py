"""QE4 — awareness pipeline cost vs DAG depth (Section 6).

Measures the wall-clock cost of pushing a primitive event from the source
agent through awareness descriptions of increasing operator depth to the
delivery decision.  The structural latency bound of a distributed
deployment is one hop per DAG level; the reproduction's in-process cost
should grow roughly linearly with depth.
"""

import time

from repro.awareness.detector import DetectorAgent
from repro.awareness.planner import PlanCache
from repro.awareness.specification import SpecificationWindow
from repro.core.context import ContextChange
from repro.core.roles import RoleRef
from repro.events.producers import ContextEventProducer
from repro.metrics.latency import LATENCY_HEADERS, LatencyProbe
from repro.metrics.report import render_table

EVENTS = 2000
DEPTHS = (1, 2, 4, 6)


def build_chain(depth: int):
    """Filter followed by (depth - 1) Count stages; returns (producer, window)."""
    producer = ContextEventProducer()
    window = SpecificationWindow("P", {"ContextEvent": producer})
    tail = window.place("Filter_context", "Ctx", "deadline", instance_name="flt")
    window.connect(producer, tail, 0)
    for level in range(depth - 1):
        stage = window.place("Count", instance_name=f"count-{level}")
        window.connect(tail, stage, 0)
        tail = stage
    schema = window.output(tail, RoleRef("watchers"))
    assert schema.description.depth() == depth + 1  # the chain plus its Output
    return producer, window


def drive(depth: int):
    producer, window = build_chain(depth)
    detected = []
    DetectorAgent(window, PlanCache(), sink=detected.append)
    probe = LatencyProbe(dag_depth=depth)

    def inject() -> int:
        for tick in range(EVENTS):
            producer.produce(
                ContextChange(
                    time=tick,
                    context_id="c1",
                    context_name="Ctx",
                    associations=frozenset({("P", "i1")}),
                    field_name="deadline",
                    old_value=tick - 1,
                    new_value=tick,
                )
            )
        return EVENTS

    summary = probe.measure(inject)
    assert len(detected) == EVENTS
    return summary


def test_qe4_pipeline(benchmark, record_table):
    summaries = [drive(depth) for depth in DEPTHS[:-1]]
    summaries.append(benchmark(drive, DEPTHS[-1]))

    # Cost grows with depth but stays sane: depth-6 within ~20x depth-1.
    assert summaries[-1].per_event_us < max(
        20 * summaries[0].per_event_us, 200.0
    )

    record_table(
        render_table(
            LATENCY_HEADERS,
            [summary.as_row() for summary in summaries],
            title=(
                "QE4 — primitive event -> detection cost vs awareness DAG "
                "depth"
            ),
        )
    )
