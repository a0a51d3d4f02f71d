"""Every entry point gives a metric the same reading.

`repro health` (one system, through the telemetry source and the
pipeline-compiled rules) and `repro health --shards` (the federation,
over the workers' registry snapshots) must agree on what a rule sees,
and the ``T_system`` stage-latency sample must be the p95 that
`repro trace --shards` and the federation view report.  Each case here
compares two entry points over one registry, so a second copy of a
reading cannot drift from the first unnoticed.
"""

import dataclasses
import json
import multiprocessing

import pytest

from repro import EnactmentSystem
from repro.awareness.sources import STAGE_P95_METRIC, SystemTelemetrySource
from repro.clock import LogicalClock
from repro.cli import main
from repro.observability import MetricsRegistry, instrumented, stage_p95
from repro.observability.health import default_rules, threshold_rule
from repro.observability.selfawareness import (
    FederationMetricsView,
    SelfAwareness,
)
from repro.parallel.host import ShardHost
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload
from tests.observability.test_health import flood

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)

QUEUE_RULE = threshold_rule("queue-depth", "queue_depth", ">", 50)


def backlog(system, participants, pending):
    """Leave *pending* undelivered notifications in each of
    *participants* queues."""
    for person in range(participants):
        flood(system, pending, participant=f"p-{person}")


class TestOneRuleMeaning:
    def test_self_awareness_and_federation_view_agree(self):
        # Ten participants with six pending each: no single queue
        # breaches 50, the system's total of 60 does.
        system = EnactmentSystem(name="probe")
        backlog(system, participants=10, pending=6)
        awareness = SelfAwareness(system, rules=(QUEUE_RULE,), interval=1)
        # The snapshot first: the pass below alerts, and the alert's own
        # notification joins the health agent's queue.
        view = FederationMetricsView()
        view.update(0, system.metrics.snapshot())
        awareness.sample_now()

        one = awareness.health()
        federated = view.health(rules=(QUEUE_RULE,))
        assert one.status == federated.status == "degraded"
        (one_state,) = one.rules
        (federated_state,) = federated.rules
        assert one_state.last_value == federated_state.last_value == 60
        assert one_state.firing and federated_state.firing

    def test_each_shard_is_read_as_its_own_system(self):
        # Two shards at 30 each: the federation holds 60 pending, but no
        # one system does, so the rule stays quiet — as it would on
        # either shard's own `repro health`.
        view = FederationMetricsView()
        for shard in (0, 1):
            system = EnactmentSystem(name=f"shard-{shard}")
            backlog(system, participants=5, pending=6)
            view.update(shard, system.metrics.snapshot())
        health = view.health(rules=(QUEUE_RULE,))
        assert health.status == "ok"
        assert health.rules[0].last_value == 30


def one_system_health(rules, seed):
    """`repro health --shards 1 --no-drain`'s load on one system."""
    workload = ShardStreamWorkload(
        ShardStreamConfig(
            forces=4, windows_per_force=2, events_per_force=40, seed=seed
        )
    )
    host = ShardHost(0, 1)
    host.apply_blueprint(workload.blueprint())
    host.ingest(workload.events())
    awareness = SelfAwareness(host.system, rules=rules, interval=1)
    awareness.sample_now()
    return awareness.health()


class TestCliAgreesWithOneSystem:
    @pytest.mark.parametrize(
        "backend", ["serial", pytest.param("process", marks=needs_fork)]
    )
    def test_health_shards_matches_a_one_system_run(self, capsys, backend):
        # The load leaves 16 notifications pending, two per participant;
        # a limit of 10 is breached by the system's total only.
        limit = 10
        rules = tuple(
            dataclasses.replace(rule, limit=limit)
            if rule.name == "queue-depth"
            else rule
            for rule in default_rules()
        )
        expected = one_system_health(rules, seed=3)
        code = main(
            [
                "health",
                "--shards",
                "1",
                "--backend",
                backend,
                "--no-drain",
                "--limit",
                f"queue-depth={limit}",
                "--seed",
                "3",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert expected.status == "degraded"
        assert payload["status"] == expected.status
        assert code == expected.exit_code
        states = {state.rule.name: state for state in expected.rules}
        assert payload["rules"]
        for name, shown in payload["rules"].items():
            assert shown["firing"] == states[name].firing, name
            assert shown["last_value"] == states[name].last_value, name
        assert payload["rules"]["queue-depth"]["last_value"] == 16


class TestOneStageP95:
    def registry(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "pipeline_stage_us", (10, 100, 1000), "stage", ("stage",)
        )
        for __ in range(90):
            histogram.observe(5, ("bus.dispatch",))
        for __ in range(10):
            histogram.observe(500, ("bus.dispatch",))
        return registry

    def test_telemetry_sample_is_the_histogram_quantile(self):
        registry = self.registry()
        source = SystemTelemetrySource(
            LogicalClock(), registry, sampled_metrics=()
        )
        samples = {
            label: value
            for metric, label, value in source.sample_now()
            if metric == STAGE_P95_METRIC
        }
        p95 = stage_p95(registry)[("bus.dispatch",)]
        assert samples == {"bus.dispatch": int(p95)}
        assert samples["bus.dispatch"] == 550

    def test_self_awareness_samples_its_instrumented_system_s_stages(self):
        """The plane enabled with a system's registry: the stages it
        times there reach that system's ``SelfAwareness`` as
        ``stage_p95_us`` ``T_system`` samples, one series per stage."""
        system = EnactmentSystem(name="staged")
        SelfAwareness(system, interval=1)
        seen = []
        system.bus.subscribe("T_system", seen.append)
        with instrumented(system.metrics):
            flood(system, 60, time=system.clock.now())
            # The first pass publishes through the health detector (and
            # times it); the second samples those stages.
            system.clock.advance(1)
            system.clock.advance(1)
        stages = {
            event["seriesLabel"]
            for event in seen
            if event["metric"] == STAGE_P95_METRIC
        }
        assert stages
        assert stages <= {labels[0] for labels in stage_p95(system.metrics)}

    def test_federation_view_reads_the_same_p95(self):
        registry = self.registry()
        view = FederationMetricsView()
        view.update(4, registry.snapshot())
        assert stage_p95(view.registry()) == {
            ("4", "bus.dispatch"): stage_p95(registry)[("bus.dispatch",)]
        }
