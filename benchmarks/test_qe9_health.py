"""QE9 — self-awareness overhead and alert-detection latency.

The health pipeline must be cheap enough to leave attached in anger: the
``T_system`` telemetry source samples the metrics registry once every
sampling interval, and the SLO detector is an ordinary Figure 5 operator
DAG whose dispatch cost is indexed by metric name — events the rules do
not watch never reach it.

Two measurements, one claim each:

* **End-to-end overhead (bounded < 1.3x)** — the Section 7 demonstration
  workload run plain vs. with :class:`SelfAwareness` attached (telemetry
  source + five default SLO rules + alert delivery), instrumentation off
  in both modes.  Per-event cost is wall-clock run time over primitive
  events published by the *plain* run, so the denominator is identical
  on both sides of the ratio.

* **Alert-detection latency (≤ one sampling interval)** — a queue-depth
  breach is forced at tick T by enqueuing notifications directly, then
  the clock advances tick by tick.  The breach must surface as an alert
  notification timestamped no later than T + interval: detection lag is
  bounded by the sampling cadence, never by queue draining.

Measurement protocol (QE8's): the two modes run *paired*, back to back
inside each repetition, so slow machine drift hits both sides of the
ratio equally; each mode's cost is the best (minimum) time across
repetitions — the standard estimator for the noise-free cost of a
CPU-bound loop.

Behavior must be identical in both modes modulo the health plane itself:
the same workload notifications are delivered (the attached run delivers
those *plus* its own alerts), and the attached run's health verdict must
cover every default rule.
"""

import time

from repro.federation.system import EnactmentSystem
from repro.metrics.report import render_table
from repro.observability.health import default_rules
from repro.observability.selfawareness import SelfAwareness
from repro.workloads import build_demonstration

REPS = 7
SEED = 7

#: Sampling cadence used in both measurements.  The demonstration is a
#: ~300-tick workload, so 10 ticks is an aggressive cadence (~30 passes
#: per run); real deployments sample far less often relative to work.
INTERVAL = 10

#: Acceptance bound: an attached health pipeline costs < 1.3x plain.
MAX_OVERHEAD = 1.3


# -- end-to-end: the Section 7 demonstration workload -----------------------


def run_demo(attached: bool):
    """One full demonstration run; returns (seconds, published, awareness)."""
    builder = build_demonstration(seed=SEED)
    awareness = None
    if attached:
        awareness = SelfAwareness(builder.system, interval=INTERVAL)
    started = time.perf_counter()
    builder.run()
    elapsed = time.perf_counter() - started
    if awareness is not None:
        awareness.sample_now()
    emitted = builder.system.metrics.get("producer_emitted_total").total()
    return elapsed, int(emitted), awareness


# -- latency: forced breach surfaces within one sampling interval -----------


def measure_alert_latency() -> int:
    """Force a queue-depth breach; return alert tick minus breach tick."""
    system = EnactmentSystem(name="qe9")
    awareness = SelfAwareness(system, interval=INTERVAL)
    limit = next(
        rule.limit for rule in default_rules() if rule.name == "queue-depth"
    )
    queue = system.awareness.delivery.queue
    breach_tick = system.clock.now()
    from repro.events.queues import Notification

    for index in range(int(limit) + 1):
        queue.enqueue(
            Notification(
                notification_id=f"qe9-{index}",
                participant_id="flooded",
                time=breach_tick,
                description="synthetic backlog",
                schema_name="AS_Backlog",
                parameters={},
            )
        )
    for __ in range(2 * INTERVAL):
        system.clock.advance(1)
        alerts = [
            alert
            for alert in awareness.alerts()
            if alert.schema_name == "AS_Health_queue-depth"
        ]
        if alerts:
            return min(alert.time for alert in alerts) - breach_tick
    raise AssertionError("queue-depth breach never surfaced as an alert")


# -- the experiment ---------------------------------------------------------


def drive() -> dict:
    run_demo(attached=False)  # warmup
    run_demo(attached=True)

    result: dict = {}
    plain = attached = None
    for __ in range(REPS):
        elapsed, published, __unused = run_demo(False)
        result["published"] = published
        plain = elapsed if plain is None else min(plain, elapsed)
        # The attached run goes last so the health verdict the test
        # inspects is from a complete demonstration run.
        elapsed, __unused, awareness = run_demo(True)
        attached = elapsed if attached is None else min(attached, elapsed)
        result["health"] = awareness.health()
        result["alert_count"] = len(awareness.alerts())

    published = result["published"]
    result["plain_us"] = plain / published * 1e6
    result["attached_us"] = attached / published * 1e6
    result["overhead"] = attached / plain
    result["alert_latency"] = measure_alert_latency()
    return result


def test_qe9_health_overhead_and_latency(benchmark, record_table):
    result = benchmark.pedantic(drive, rounds=3, iterations=1)

    # The attached run actually evaluated the SLO plane: every default
    # rule has a state, and the verdict is a recognised status.
    health = result["health"]
    rule_names = {rule.name for rule in default_rules()}
    assert {state.rule.name for state in health.rules} == rule_names
    assert health.status in ("ok", "degraded", "failing")
    # The demonstration never drains participant queues, so the backlog
    # rules fire and their alerts reach the health agent's queue.
    assert result["alert_count"] > 0, "no alerts delivered to health agent"

    overhead = result["overhead"]
    latency = result["alert_latency"]
    record_table(
        render_table(
            ("workload", "mode", "us/event", "overhead"),
            [
                ("end-to-end", "plain", f"{result['plain_us']:.2f}", "1.00x"),
                ("end-to-end", "attached",
                 f"{result['attached_us']:.2f}", f"{overhead:.2f}x"),
                ("alert latency", f"interval={INTERVAL}",
                 f"{latency} ticks", "-"),
            ],
            title=(
                "QE9 — self-awareness cost (telemetry sampling + SLO "
                "detector + alert delivery) and detection latency"
            ),
        )
    )

    # The tentpole claims: attaching the health pipeline costs < 1.3x,
    # and a breach surfaces within one sampling interval.
    assert overhead < MAX_OVERHEAD, (
        f"self-awareness overhead {overhead:.2f}x exceeds "
        f"{MAX_OVERHEAD}x bound"
    )
    assert latency <= INTERVAL, (
        f"alert latency {latency} ticks exceeds sampling interval "
        f"{INTERVAL}"
    )
