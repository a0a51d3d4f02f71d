"""QE10 — shared detector plans vs per-window operator chains.

The paper's customized-awareness model means a fleet deployment holds
many windows that are structurally identical up to the delivery role
(Section 7 ran eight; a production federation runs hundreds).  The plan
cache interns equivalent sub-DAGs once, so N copies of one specification
template cost one shared operator chain plus an O(N) output fan-out.

Two measurements (and one count):

* **Shared-template fleet** — 64 windows compiled from one 8-operator
  template (4 context filters -> Or -> Count -> two Compare1 stages),
  each delivering to its own role.  Driven with an identical primitive
  batch through the production engine and a test-local unshared one
  (a private ``PlanCache`` per window); sharing must be at least 5x
  faster and recognize the identical composites.  The count behind
  the ratio: the live shared nodes take in as many events per primitive
  event with 64 windows as with one.
* **All-unique worst case** — 64 windows with nothing in common (unique
  fields and instance names), where the cache can share nothing.  One
  shared cache must cost essentially nothing over private ones: within
  5% of the unshared engine.
"""

import time

from repro import (
    ActivityVariable,
    BasicActivitySchema,
    ContextFieldSpec,
    ContextSchema,
    EnactmentSystem,
    Participant,
    ProcessActivitySchema,
)
from repro.awareness.dsl import compile_specification
from repro.awareness.planner import PlanCache
from repro.core.context import ContextChange
from repro.metrics.report import render_table

N_WINDOWS = 64
SHARED_FIELDS = 4
EVENTS_PER_FIELD = 60
TRIGGER = 120  # Count value the trigger fires on — once, mid-stream
REPS = 3
WORST_CASE_REPS = 5

#: One 8-operator template; only the delivery clause varies per window.
SHARED_TEMPLATE = """
f0 = Filter_context[Ctx, field0](ContextEvent)
f1 = Filter_context[Ctx, field1](ContextEvent)
f2 = Filter_context[Ctx, field2](ContextEvent)
f3 = Filter_context[Ctx, field3](ContextEvent)
any = Or[](f0, f1, f2, f3)
total = Count[](any)
gate = Compare1[>, 0](total)
fire = Compare1[==, {trigger}](gate)
deliver fire to team-{index} as "activity surge" named AS_Q_{index}
"""

#: Worst case: every operator instance name and filter field is unique,
#: so no two windows share a single node.
UNIQUE_TEMPLATE = """
flt_{index} = Filter_context[Ctx, field{index}](ContextEvent)
total_{index} = Count[](flt_{index})
fire_{index} = Compare1[==, {trigger}](total_{index})
deliver fire_{index} to team-{index} as "surge" named AS_U_{index}
"""


class PrivatePlans(PlanCache):
    """The unshared baseline: one private cache per deployed window."""

    def deploy(self, window, sink):
        return PlanCache().deploy(window, sink)


def build_system(n_windows, n_fields, template, share_plans):
    system = EnactmentSystem()
    if not share_plans:
        system.awareness.planner = PrivatePlans()
    for index in range(n_windows):
        person = system.register_participant(
            Participant(f"u-{index}", f"analyst-{index}")
        )
        system.core.roles.define_role(f"team-{index}").add_member(person)
    process = ProcessActivitySchema("P-Fleet", "watched")
    process.add_context_schema(
        ContextSchema(
            "Ctx",
            [ContextFieldSpec(f"field{i}", "int") for i in range(n_fields)],
        )
    )
    process.add_activity_variable(
        ActivityVariable("w", BasicActivitySchema("b-w", "w"))
    )
    process.mark_entry("w")
    system.core.register_schema(process)

    for index in range(n_windows):
        window = system.awareness.create_window("P-Fleet")
        compile_specification(
            window, template.format(index=index, trigger=TRIGGER)
        )
        system.awareness.deploy(window)
    return system, process


def make_changes(instance, n_fields, events_per_field):
    """Field-major change stream: consecutive same-key runs (the shape
    `ContextReference.update` bursts produce)."""
    associations = frozenset({("P-Fleet", instance.instance_id)})
    return [
        ContextChange(
            time=field_index * events_per_field + round_index,
            context_id=instance.context("Ctx").context_id,
            context_name="Ctx",
            associations=associations,
            field_name=f"field{field_index}",
            old_value=round_index,
            new_value=round_index + 1,
        )
        for field_index in range(n_fields)
        for round_index in range(events_per_field)
    ]


def drive(n_fields, events_per_field, template, share_plans, n_windows=N_WINDOWS):
    system, process = build_system(n_windows, n_fields, template, share_plans)
    instance = system.coordination.start_process(process)
    changes = make_changes(instance, n_fields, events_per_field)
    started = time.perf_counter()
    system.awareness.context_source.producer.produce_batch(changes)
    elapsed = time.perf_counter() - started
    recognized = sum(d.recognized for d in system.awareness.detectors())
    planner = system.awareness.planner
    stats = planner.stats()
    # Operator work as a count: events taken in by the live shared
    # (non-Output) nodes, per primitive event.
    consumed = sum(row["consumed"] for row in planner.describe())
    return {
        "events": len(changes),
        "recognized": recognized,
        "seconds": elapsed,
        "us_per_event": elapsed / len(changes) * 1e6,
        "nodes_live": stats["nodes_live"],
        "consumed_per_event": consumed / len(changes),
    }


def best_of(reps, *args):
    return min((drive(*args) for __ in range(reps)), key=lambda r: r["seconds"])


def shared_fleet(share_plans):
    return drive(SHARED_FIELDS, EVENTS_PER_FIELD, SHARED_TEMPLATE, share_plans)


def test_qe10_plan_sharing(benchmark, record_table):
    drive(SHARED_FIELDS, 2, SHARED_TEMPLATE, True)  # warmup
    plain = best_of(REPS, SHARED_FIELDS, EVENTS_PER_FIELD, SHARED_TEMPLATE, False)
    shared = benchmark(shared_fleet, True)

    # Sharing is behavior-invisible: each of the 64 windows fires exactly
    # once (Count crosses TRIGGER once in the 240-event stream).
    assert shared["recognized"] == N_WINDOWS
    assert plain["recognized"] == N_WINDOWS
    # The 8-operator template interned to exactly 8 live nodes.
    assert shared["nodes_live"] == 8
    # The count equivalent of the speedup below: 64 windows of the
    # template cost the shared chain exactly the operator work of one.
    single = drive(SHARED_FIELDS, EVENTS_PER_FIELD, SHARED_TEMPLATE, True, n_windows=1)
    assert single["recognized"] == 1
    assert shared["consumed_per_event"] == single["consumed_per_event"] > 0

    # The point of the exercise: with 64 structurally-shared windows the
    # chain runs once per event instead of once per window per event.
    speedup = plain["seconds"] / shared["seconds"]
    assert speedup >= 5.0, f"expected >=5x from plan sharing, got {speedup:.1f}x"

    # Worst case — nothing shareable: the cache must not tax deployments
    # it cannot help.  Best-of-N on both sides to keep scheduler noise
    # out of a tight 5% bound.
    unique_plain = best_of(
        WORST_CASE_REPS, N_WINDOWS, EVENTS_PER_FIELD, UNIQUE_TEMPLATE, False
    )
    unique_shared = best_of(
        WORST_CASE_REPS, N_WINDOWS, EVENTS_PER_FIELD, UNIQUE_TEMPLATE, True
    )
    assert unique_shared["recognized"] == unique_plain["recognized"] == 0
    overhead = unique_shared["seconds"] / unique_plain["seconds"]
    assert overhead < 1.05, f"worst-case overhead {overhead:.3f}x exceeds 1.05x"

    record_table(
        render_table(
            ("workload", "windows", "events", "recognized", "us/event"),
            [
                (
                    "shared template, private cache per window",
                    N_WINDOWS,
                    plain["events"],
                    plain["recognized"],
                    f"{plain['us_per_event']:.1f}",
                ),
                (
                    "shared template, one shared cache",
                    N_WINDOWS,
                    shared["events"],
                    shared["recognized"],
                    f"{shared['us_per_event']:.1f}",
                ),
                (
                    "all-unique, private cache per window",
                    N_WINDOWS,
                    unique_plain["events"],
                    unique_plain["recognized"],
                    f"{unique_plain['us_per_event']:.1f}",
                ),
                (
                    "all-unique, one shared cache",
                    N_WINDOWS,
                    unique_shared["events"],
                    unique_shared["recognized"],
                    f"{unique_shared['us_per_event']:.1f}",
                ),
            ],
            title=(
                "QE10 — shared detector plans: 64-window fleet, "
                f"{speedup:.1f}x recognition speedup, "
                f"{overhead:.3f}x worst-case overhead"
            ),
        )
    )
