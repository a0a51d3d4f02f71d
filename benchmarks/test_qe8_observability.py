"""QE8 — pipeline instrumentation overhead: enabled vs disabled.

Observability must be cheap enough to leave on in anger: the hot paths
check one process-wide flag, and when the flag is set every stage records
a span (head-sampled per trace), feeds the per-stage latency histogram,
and stamps events with recognition provenance.

Two measurements, one claim:

* **End-to-end (bounded < 1.3x)** — the Section 7 demonstration workload
  run through the full Figure 5 pipeline (event source agents → bus →
  detector DAGs → delivery agent → participant queues).  Per-event cost
  is wall-clock run time over primitive events published; this is the
  configuration a deployment would actually leave instrumentation on in,
  and the tentpole bounds it at < 1.3x the uninstrumented cost.

* **Operator-chain worst case (reported, sanity-bounded)** — a skeletal
  ``Filter_context`` → ``Count`` → ``Compare1`` → ``Output`` chain driven
  directly, with no engine or delivery work to amortise against.  Almost
  all the per-event time is operator dispatch, so this is the least
  favourable ratio the instrumentation can produce; it is reported in
  the experiment table and guarded by a loose 2x sanity bound.

Measurement protocol: the two modes run *paired*, back to back inside
each repetition, so slow machine drift (frequency scaling, background
load) hits both sides of the ratio equally; each mode's cost is the
best (minimum) time across repetitions — the standard estimator for the
noise-free cost of a CPU-bound loop.

Behavior must be identical in both modes: the same composites are
recognized and the same notifications delivered, and the enabled run
must additionally have produced provenance chains reaching the
primitive events and spans for every stage.
"""

import time

from repro.awareness.operators.compare import Compare1
from repro.awareness.operators.count import Count
from repro.awareness.operators.filters import ContextFilter
from repro.awareness.operators.output import Output
from repro.core.context import ContextChange
from repro.core.roles import RoleRef
from repro.events.producers import ContextEventProducer
from repro.metrics.report import render_table
from repro.observability import INSTRUMENTATION, instrumented, stage_summary
from repro.workloads import build_demonstration

N_EVENTS = 2_000
REPS = 7
SEED = 7

#: Acceptance bound: enabled instrumentation costs < 1.3x disabled on the
#: end-to-end pipeline.
MAX_OVERHEAD = 1.3

#: Sanity bound for the skeletal operator-chain worst case.
MAX_CHAIN_OVERHEAD = 2.0


# -- end-to-end: the Section 7 demonstration workload -----------------------


#: The registry of the last enabled demonstration run's system, whose
#: stage histogram the test reads.
LAST_TRACED = {}


def run_demo(enabled: bool):
    """One full demonstration run; returns (seconds, published, delivered)."""
    builder = build_demonstration(seed=SEED)
    if enabled:
        LAST_TRACED["registry"] = builder.system.metrics
        with instrumented(builder.system.metrics):
            started = time.perf_counter()
            builder.run()
            elapsed = time.perf_counter() - started
    else:
        started = time.perf_counter()
        builder.run()
        elapsed = time.perf_counter() - started
    return (
        elapsed,
        int(builder.system.metrics.get("producer_emitted_total").total()),
        builder.system.awareness.delivery.delivered,
    )


# -- worst case: a skeletal operator chain ----------------------------------


def build_chain():
    producer = ContextEventProducer()
    flt = ContextFilter("P-X", "Ctx", "field0", instance_name="watch-field0")
    count = Count("P-X", instance_name="changes-seen")
    compare = Compare1("P-X", lambda v: v >= 1, instance_name="at-least-one")
    output = Output(
        "P-X",
        RoleRef("reviewers"),
        user_description="field0 changed",
        schema_name="AS_FieldWatch",
        instance_name="notify-reviewers",
    )
    producer.add_consumer(
        lambda event, f=flt: f.consume(0, event), keys=flt.routing_keys(0)
    )
    flt.add_consumer(count.consume, 0)
    count.add_consumer(compare.consume, 0)
    compare.add_consumer(output.consume, 0)
    return producer, output


def make_changes():
    return [
        ContextChange(
            time=index,
            context_id="ctx-1",
            context_name="Ctx",
            associations=frozenset({("P-X", "proc-1")}),
            field_name="field0",
            old_value=index,
            new_value=index + 1,
        )
        for index in range(N_EVENTS)
    ]


def run_chain(changes, enabled: bool):
    """One fresh chain pass; returns (recognized, us_per_event)."""
    producer, output = build_chain()
    if enabled:
        # The chain's stages are recorded (into its producer's private
        # registry), as the demonstration's are.
        with instrumented(producer.metrics):
            started = time.perf_counter()
            producer.produce_batch(changes)
            elapsed = time.perf_counter() - started
    else:
        started = time.perf_counter()
        producer.produce_batch(changes)
        elapsed = time.perf_counter() - started
    return output.produced, elapsed / len(changes) * 1e6


# -- the experiment ---------------------------------------------------------


def drive() -> dict:
    changes = make_changes()
    run_chain(changes, enabled=False)  # warmup
    run_chain(changes, enabled=True)
    run_demo(enabled=False)
    run_demo(enabled=True)

    result: dict = {}
    demo_disabled = demo_enabled = None
    chain_disabled = chain_enabled = None
    for __ in range(REPS):
        result["recognized_disabled"], us = run_chain(changes, False)
        chain_disabled = us if chain_disabled is None else min(chain_disabled, us)
        result["recognized_enabled"], us = run_chain(changes, True)
        chain_enabled = us if chain_enabled is None else min(chain_enabled, us)

        elapsed, published, delivered = run_demo(False)
        result["published"] = published
        result["delivered_disabled"] = delivered
        demo_disabled = (
            elapsed if demo_disabled is None else min(demo_disabled, elapsed)
        )
        # The demo's enabled run goes last so the data the test inspects
        # (stage spans, delivery provenance) is the end-to-end pipeline's:
        # each `instrumented()` scope resets the recorders on entry.
        elapsed, __, delivered = run_demo(True)
        result["delivered_enabled"] = delivered
        demo_enabled = (
            elapsed if demo_enabled is None else min(demo_enabled, elapsed)
        )

    published = result["published"]
    result["demo_disabled_us"] = demo_disabled / published * 1e6
    result["demo_enabled_us"] = demo_enabled / published * 1e6
    result["demo_overhead"] = demo_enabled / demo_disabled
    result["chain_disabled_us"] = chain_disabled
    result["chain_enabled_us"] = chain_enabled
    result["chain_overhead"] = chain_enabled / chain_disabled
    return result


def test_qe8_observability_overhead(benchmark, record_table):
    result = benchmark.pedantic(drive, rounds=3, iterations=1)

    # Behavior-preserving: instrumentation changes nothing downstream.
    assert result["delivered_enabled"] == result["delivered_disabled"] > 0
    assert result["recognized_disabled"] == N_EVENTS
    assert result["recognized_enabled"] == N_EVENTS

    # The enabled runs actually observed the pipeline: spans for every
    # Figure 5 stage, and delivery chains reaching the primitive events.
    # (``bus.dispatch`` opens only for a tapped topic, and the
    # demonstration taps none: ``test_bus.py``'s ``TestTapContract``.)
    summary = stage_summary(LAST_TRACED["registry"])
    for stage in (
        "source.emit",
        "operator.consume",
        "delivery.deliver",
        "queue.append",
    ):
        assert summary[stage][0] > 0, f"no spans recorded for {stage}"
    assert INSTRUMENTATION.tracer.recent(), "no root spans in the ring buffer"
    deliveries = INSTRUMENTATION.provenance.recent_deliveries()
    assert deliveries, "no delivery provenance recorded"
    assert any(
        record.chain is not None and record.chain.primitives()
        for record in deliveries
    ), "no delivery chain reaches a primitive event"

    overhead = result["demo_overhead"]
    record_table(
        render_table(
            ("workload", "mode", "us/event", "overhead"),
            [
                ("end-to-end", "disabled",
                 f"{result['demo_disabled_us']:.2f}", "1.00x"),
                ("end-to-end", "enabled",
                 f"{result['demo_enabled_us']:.2f}", f"{overhead:.2f}x"),
                ("operator-chain", "disabled",
                 f"{result['chain_disabled_us']:.2f}", "1.00x"),
                ("operator-chain", "enabled",
                 f"{result['chain_enabled_us']:.2f}",
                 f"{result['chain_overhead']:.2f}x"),
            ],
            title=(
                "QE8 — per-event cost of pipeline instrumentation "
                "(spans + provenance + stage histograms)"
            ),
        )
    )

    # The tentpole claim: full tracing + provenance costs < 1.3x on the
    # end-to-end pipeline, and stays sane even in the skeletal worst case.
    assert overhead < MAX_OVERHEAD, (
        f"instrumentation overhead {overhead:.2f}x exceeds "
        f"{MAX_OVERHEAD}x bound"
    )
    assert result["chain_overhead"] < MAX_CHAIN_OVERHEAD, (
        f"worst-case operator-chain overhead {result['chain_overhead']:.2f}x "
        f"exceeds {MAX_CHAIN_OVERHEAD}x sanity bound"
    )
