"""Tests for SLO rules, the health evaluator, and the federation rollup."""

import pytest

from repro import EnactmentSystem
from repro.awareness.engine import SYSTEM_SOURCE
from repro.awareness.sources import SystemTelemetrySource
from repro.errors import ReproError, SpecificationError
from repro.events.queues import Notification
from repro.observability import instrumented
from repro.observability.health import (
    STATUS_EXIT_CODES,
    HealthEvaluator,
    SloRule,
    default_rules,
    rate_rule,
    staleness_rule,
    threshold_rule,
    worst_status,
)
from repro.observability.selfawareness import (
    FederationHealthView,
    SelfAwareness,
)


def flood(system, count, time=0, participant="flooded"):
    """Enqueue *count* synthetic notifications to inflate queue_depth."""
    queue = system.awareness.delivery.queue
    for index in range(count):
        queue.enqueue(
            Notification(
                notification_id=f"syn-{participant}-{index}",
                participant_id=participant,
                time=time,
                description="synthetic backlog",
                schema_name="AS_Backlog",
                parameters={},
            )
        )


class TestSloRule:
    def test_breached_uses_named_comparison(self):
        rule = threshold_rule("depth", "queue_depth", ">", 50)
        assert rule.breached(51)
        assert not rule.breached(50)

    def test_unknown_comparison_rejected(self):
        with pytest.raises(SpecificationError, match="unknown comparison"):
            SloRule(name="x", metric="m", comparison="~", limit=1)

    def test_unknown_severity_rejected(self):
        with pytest.raises(SpecificationError, match="severity"):
            SloRule(name="x", metric="m", comparison=">", limit=1, severity="bad")

    def test_schema_and_description(self):
        rule = threshold_rule("depth", "queue_depth", ">", 50)
        assert rule.schema_name() == "AS_Health_depth"
        assert "queue_depth > 50" in rule.user_description()

    def test_rate_factory_derives_metric(self):
        rule = rate_rule("fails", "bus_failed_total", 5, ">", 0)
        assert rule.metric == "rate[bus_failed_total/5]"
        assert rule.kind == "rate"
        assert rule.base_metric == "bus_failed_total"
        assert rule.window == 5

    def test_staleness_factory_derives_metric(self):
        rule = staleness_rule("watchdog", "heartbeats_total", 2)
        assert rule.metric == "stale[heartbeats_total]"
        assert rule.kind == "staleness"
        assert rule.breached(3)
        assert not rule.breached(2)

    def test_default_rules_cover_the_issue_set(self):
        names = {rule.name for rule in default_rules()}
        assert {
            "queue-depth",
            "delivery-lag",
            "failure-rate",
            "timer-backlog",
            "journal-divergence",
        } <= names
        assert len(names) >= 4

    def test_worst_status(self):
        assert worst_status([]) == "ok"
        assert worst_status(["ok", "ok"]) == "ok"
        assert worst_status(["ok", "degraded"]) == "degraded"
        assert worst_status(["degraded", "failing", "ok"]) == "failing"

    def test_exit_codes(self):
        assert STATUS_EXIT_CODES == {"ok": 0, "degraded": 1, "failing": 2}


class TestThresholdFireAndClear:
    def test_queue_depth_fires_then_clears(self):
        system = EnactmentSystem(name="alpha")
        awareness = SelfAwareness(system, interval=2)
        assert awareness.health().status == "ok"

        flood(system, 51, time=system.clock.now())
        system.clock.advance(2)
        health = awareness.health()
        assert health.status == "degraded"
        firing = {state.rule.name for state in health.firing()}
        assert "queue-depth" in firing
        # The breach reached the operator role as a pipeline notification.
        alerts = awareness.alerts()
        assert any(a.schema_name == "AS_Health_queue-depth" for a in alerts)

        # Draining the backlog clears the rule on the next pass.
        system.awareness.delivery.queue.retrieve("flooded")
        awareness.alerts()  # health agent reads its own queue
        system.awareness.delivery.queue.retrieve(SelfAwareness.AGENT_ID)
        system.clock.advance(2)
        health = awareness.health()
        assert health.status == "ok"
        assert not health.firing()

    def test_persistent_breach_alerts_once_per_episode(self):
        system = EnactmentSystem(name="edge")
        awareness = SelfAwareness(system, interval=1)
        flood(system, 60, time=system.clock.now())
        system.clock.advance(5)
        first = [
            a
            for a in awareness.alerts()
            if a.schema_name == "AS_Health_queue-depth"
        ]
        assert len(first) == 1
        # Clear the breach, then breach again: a second episode alerts.
        system.awareness.delivery.queue.retrieve("flooded")
        system.clock.advance(2)
        flood(system, 60, time=system.clock.now(), participant="again")
        system.clock.advance(2)
        second = [
            a
            for a in awareness.alerts()
            if a.schema_name == "AS_Health_queue-depth"
        ]
        assert len(second) == 2


class TestRateFireAndClear:
    def test_bus_failure_rate(self):
        system = EnactmentSystem(name="ratesys")
        rules = (
            rate_rule(
                "failure-rate",
                "bus_failed_total",
                3,
                ">",
                0,
                severity="failing",
            ),
        )
        awareness = SelfAwareness(system, rules=rules, interval=1)
        system.clock.advance(1)  # baseline pass
        assert awareness.health().status == "ok"

        failed = system.metrics.get("bus_failed_total")
        failed.inc(1, ("T_activity",))
        system.clock.advance(1)
        health = awareness.health()
        assert health.status == "failing"
        assert health.exit_code == 2
        assert any(a.schema_name == "AS_Health_failure-rate"
                   for a in awareness.alerts())

        # No further failures: tick-by-tick passes age the increase out
        # of the window.
        for __ in range(4):
            system.clock.advance(1)
        assert awareness.health().status == "ok"


    def test_a_rate_rule_reads_a_labelled_total(self):
        """One series per topic: the rule watches the total, so
        increases on different series add up."""
        system = EnactmentSystem(name="ratesys")
        failed = system.metrics.get("bus_failed_total")
        rule = rate_rule("failure-burst", "bus_failed_total", 3, ">", 5)
        awareness = SelfAwareness(system, rules=(rule,), interval=1)
        system.clock.advance(1)  # baseline pass
        assert awareness.health().status == "ok"

        failed.inc(5, ("T_activity",))  # at the limit, not past it
        system.clock.advance(1)
        assert awareness.health().status == "ok"
        failed.inc(1, ("T_context",))  # six failures across the window
        system.clock.advance(1)
        health = awareness.health()
        assert health.status == "degraded"
        assert any(a.schema_name == "AS_Health_failure-burst"
                   for a in awareness.alerts())

        for __ in range(4):
            system.clock.advance(1)
        assert awareness.health().status == "ok"

    def test_a_rate_rule_over_an_application_counter_fires(self):
        """The rule's metric joins the sampled set, though it is not
        one of ``DEFAULT_SYSTEM_METRICS``."""
        system = EnactmentSystem(name="retries")
        retries = system.metrics.counter("retries_total", "application retries")
        rule = rate_rule("retry-rate", "retries_total", 3, ">", 0)
        awareness = SelfAwareness(system, rules=(rule,), interval=1)
        assert "retries_total" in awareness.source.sampled_metrics
        system.clock.advance(1)  # baseline pass
        assert awareness.health().status == "ok"
        retries.inc()
        system.clock.advance(1)
        health = awareness.health()
        assert [state.rule.name for state in health.firing()] == ["retry-rate"]
        assert any(a.schema_name == "AS_Health_retry-rate"
                   for a in awareness.alerts())

    def test_a_rule_over_an_unknown_metric_is_refused(self):
        system = EnactmentSystem(name="noretries")
        rule = rate_rule("retry-rate", "retries_total", 3, ">", 0)
        with pytest.raises(ReproError, match="'retries_total'"):
            SelfAwareness(system, rules=(rule,), interval=1)
        assert SelfAwareness(system, interval=1).health().status == "ok"
        source = SystemTelemetrySource(system.clock, system.metrics, interval=1)
        evaluator = HealthEvaluator(system.awareness, source, rules=())
        with pytest.raises(ReproError, match="'heartbeats_total'"):
            evaluator.add_rule(threshold_rule("beat", "heartbeats_total", "<", 1))
        assert evaluator.rules() == ()
        assert "heartbeats_total" not in source.sampled_metrics
        # The stage p95 series is derived by the source, not an instrument.
        evaluator.add_rule(threshold_rule("p95", "stage_p95_us", ">", 1000))
        assert "stage_p95_us" not in source.sampled_metrics

    @pytest.mark.parametrize("refusal", ["unknown metric", "second attach"])
    def test_a_refused_attach_leaves_no_source_sampling(self, refusal):
        """The rules and the SystemEvent name are checked before the
        telemetry source hooks the clock and files on the bus: a refused
        attach leaves nothing that samples (the parent's orphan source
        emitted on every tick)."""
        system = EnactmentSystem(name="refused")
        rules = (rate_rule("retry-rate", "retries_total", 3, ">", 0),)
        if refusal == "second attach":
            SelfAwareness(system, interval=1)
            rules = None
        seen = []
        system.bus.subscribe("T_system", seen.append)
        system.clock.advance(1)
        before = len(seen), system.stats()["bus_events_published"]
        with pytest.raises(ReproError):
            SelfAwareness(system, rules=rules, interval=1)
        for __ in range(5):
            system.clock.advance(1)
        # A source publishes a series when its reading changes, so a
        # fresh one (the orphan) would publish every series again.
        assert (len(seen), system.stats()["bus_events_published"]) == before


class TestStalenessFireAndClear:
    def test_watchdog_over_application_counter(self):
        system = EnactmentSystem(name="stale-sys")
        heartbeat = system.metrics.counter(
            "heartbeats_total", "application heartbeats"
        )
        source = SystemTelemetrySource(
            system.clock,
            system.metrics,
            bus=system.bus,
            system_id=system.name,
            interval=1,
            sampled_metrics=("heartbeats_total",),
        )
        system.awareness.register_external_source(
            SYSTEM_SOURCE, source.producer
        )
        evaluator = HealthEvaluator(
            system.awareness,
            source,
            system_name=system.name,
            rules=(staleness_rule("watchdog", "heartbeats_total", 2),),
        )
        heartbeat.inc()
        source.sample_now()  # moving: misses = 0
        assert evaluator.health().status == "ok"
        for __ in range(3):
            source.sample_now()  # silent passes: misses 1, 2, 3
        health = evaluator.health()
        assert health.status == "degraded"
        assert health.firing()[0].rule.name == "watchdog"
        heartbeat.inc()
        source.sample_now()  # moving again clears the watchdog
        assert evaluator.health().status == "ok"


class TestAlertProvenance:
    def test_alert_chain_reaches_the_telemetry_event(self):
        with instrumented():
            system = EnactmentSystem(name="prov")
            awareness = SelfAwareness(system, interval=1)
            flood(system, 60, time=system.clock.now())
            system.clock.advance(1)
            alerts = [
                a
                for a in awareness.alerts()
                if a.schema_name == "AS_Health_queue-depth"
            ]
            assert alerts
            chain = alerts[0].parameters.get("provenance")
            assert chain is not None
            primitives = chain.primitives()
            assert primitives
            assert any(
                node.event_type == "T_system" for node in primitives
            )


class TestEvaluatorLifecycle:
    def test_rules_frozen_after_deploy(self):
        system = EnactmentSystem(name="frozen")
        awareness = SelfAwareness(system, interval=1)
        with pytest.raises(SpecificationError, match="before deploy"):
            awareness.evaluator.add_rule(
                threshold_rule("late", "queue_depth", ">", 1)
            )

    def test_duplicate_rule_rejected(self):
        system = EnactmentSystem(name="dup")
        source = SystemTelemetrySource(
            system.clock, system.metrics, bus=system.bus, interval=1
        )
        evaluator = HealthEvaluator(system.awareness, source, rules=())
        evaluator.add_rule(threshold_rule("once", "queue_depth", ">", 1))
        with pytest.raises(SpecificationError, match="already exists"):
            evaluator.add_rule(threshold_rule("once", "queue_depth", ">", 2))


class TestFederation:
    def test_one_degraded_member_flips_the_rollup(self):
        alpha = EnactmentSystem(name="alpha")
        beta = EnactmentSystem(name="beta")
        view = FederationHealthView(
            [SelfAwareness(alpha, interval=1), SelfAwareness(beta, interval=1)]
        )
        for member in view.members():
            member.sample_now()
        assert view.rollup().status == "ok"
        assert view.rollup().exit_code == 0

        flood(alpha, 60, time=alpha.clock.now())
        alpha.clock.advance(1)
        rollup = view.rollup()
        assert rollup.status == "degraded"
        assert rollup.exit_code == 1
        by_name = {health.system: health for health in rollup.systems}
        assert by_name["alpha"].status == "degraded"
        assert by_name["beta"].status == "ok"

        payload = view.as_dict()
        assert payload["federation"] == "degraded"
        assert {entry["system"] for entry in payload["systems"]} == {
            "alpha",
            "beta",
        }

        rendered = view.render()
        assert "alpha" in rendered and "degraded" in rendered
        assert rendered.strip().endswith("federation: degraded")

    def test_duplicate_system_name_rejected(self):
        alpha = EnactmentSystem(name="alpha")
        clone = EnactmentSystem(name="alpha")
        view = FederationHealthView([SelfAwareness(alpha, interval=1)])
        with pytest.raises(ValueError, match="distinct name"):
            view.add(SelfAwareness(clone, interval=1))
