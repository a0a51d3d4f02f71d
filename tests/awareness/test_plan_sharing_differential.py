"""Plan sharing is behavior-invisible: differential equivalence suite.

Every test here drives the same workload through two engines — the
production one, whose windows share one ``PlanCache``, and a test-local
unshared one (:func:`build_system` gives every window a private cache,
so each keeps its own operator chain) — and asserts the observable
outputs are identical: which participants were notified, in what order,
with what descriptions and parameters, and with byte-equal recognition
provenance chains.  Sharing must be a pure cost optimization.

Provenance chains are compared via ``signature()`` (id-free): a sharing
engine mints one canonical event where an unshared engine mints one per
window, so the allocation-order event ids legitimately differ while the
chain structure must not.
"""

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
from repro.observability import instrumented
from repro.workloads.epidemic import EpidemicScenario
from repro.workloads.taskforce import TaskForceApplication


class PrivatePlans(PlanCache):
    """The unshared baseline: one private cache per deployed window."""

    def deploy(self, window, sink):
        return PlanCache().deploy(window, sink)


def build_system(share_plans):
    system = EnactmentSystem()
    if not share_plans:
        system.awareness.planner = PrivatePlans()
    return system


def note_sig(notification):
    """Id-free identity of one queued notification.

    The raw ``provenance`` parameter holds ProvenanceNode objects whose
    event ids are allocation-order (legitimately different between the
    two engines); chains are compared separately via ``signature()``.
    """
    parameters = {
        key: value
        for key, value in notification.parameters.items()
        if key != "provenance"
    }
    return (
        notification.participant_id,
        notification.time,
        notification.description,
        notification.schema_name,
        parameters,
    )


class TestEpidemicDifferential:
    """The Figure 1 crisis scenario, seeded, through both engine modes."""

    def _run(self, share_plans):
        with instrumented() as obs:
            system = build_system(share_plans)
            report = EpidemicScenario(system, seed=7).run()
            chains = [
                record.signature()
                for record in obs.provenance.recent_deliveries()
            ]
        stats = {
            key: value
            for key, value in system.awareness.stats().items()
            if not key.startswith("plan_")
        }
        return report, chains, stats

    def test_reports_and_provenance_identical(self):
        shared, shared_chains, shared_stats = self._run(True)
        plain, plain_chains, plain_stats = self._run(False)

        assert shared.lab_tests_run == plain.lab_tests_run
        assert shared.positive_test == plain.positive_test
        assert shared.vector_tf_started == plain.vector_tf_started
        assert shared.expertise_rounds == plain.expertise_rounds
        assert (
            shared.notifications_by_participant
            == plain.notifications_by_participant
        )
        assert shared.timeline == plain.timeline
        # Same deliveries, same order, same full recognition chains.
        assert shared_chains == plain_chains
        assert shared_stats == plain_stats


class TestTaskForceDifferential:
    """The Section 5.4 deadline-violation story through both modes."""

    def _run(self, share_plans):
        system = build_system(share_plans)
        leader = system.register_participant(Participant("u-lead", "dr-lee"))
        member = system.register_participant(Participant("u-mem", "dr-kim"))
        system.core.roles.define_role("epidemiologist").add_member(leader)
        system.core.roles.role("epidemiologist").add_member(member)
        app = TaskForceApplication(system)
        app.install_awareness()

        task_force = app.create_task_force(leader, [leader, member], 200)
        request = app.request_information(task_force, member, 150)
        app.change_task_force_deadline(task_force, 120)
        app.change_request_deadline(request, 100)
        app.change_task_force_deadline(task_force, 110)
        app.change_task_force_deadline(task_force, 90)

        streams = {
            participant.participant_id: [
                note_sig(n)
                for n in system.participant_client(
                    participant
                ).check_awareness()
            ]
            for participant in (leader, member)
        }
        stats = {
            key: value
            for key, value in system.awareness.stats().items()
            if not key.startswith("plan_")
        }
        return streams, stats

    def test_notification_streams_identical(self):
        shared_streams, shared_stats = self._run(True)
        plain_streams, plain_stats = self._run(False)
        assert shared_streams == plain_streams
        assert shared_stats == plain_stats
        # The violating moves notified the requestor, so the equality
        # above compared real deliveries, not two empty streams.
        assert len(shared_streams["u-mem"]) == 2
        assert shared_streams["u-lead"] == []


class TestFleetDifferential:
    """N customized copies of one template — the case sharing targets."""

    WINDOWS = 8
    TEMPLATE = """
hits = Filter_context[Ctx, alpha](ContextEvent)
total = Count[](hits)
ready = Compare1[>=, 2](total)
deliver ready to team-{index} as "alpha moved" named AS_F_{index}
"""

    def _run(self, share_plans):
        system = build_system(share_plans)
        people = []
        for index in range(self.WINDOWS):
            person = system.register_participant(
                Participant(f"u-{index}", f"analyst-{index}")
            )
            system.core.roles.define_role(f"team-{index}").add_member(person)
            people.append(person)
        process = ProcessActivitySchema("P-X", "watched")
        process.add_context_schema(
            ContextSchema("Ctx", [ContextFieldSpec("alpha", "int")])
        )
        process.add_activity_variable(
            ActivityVariable("w", BasicActivitySchema("b-w", "w"))
        )
        process.mark_entry("w")
        system.core.register_schema(process)

        for index in range(self.WINDOWS):
            window = system.awareness.create_window("P-X")
            compile_specification(window, self.TEMPLATE.format(index=index))
            system.awareness.deploy(window)

        with instrumented() as obs:
            ref = system.coordination.start_process(process).context("Ctx")
            for value in range(4):
                ref.set("alpha", value)
            chains = [
                record.signature()
                for record in obs.provenance.recent_deliveries()
            ]
        streams = {
            person.participant_id: [
                note_sig(n)
                for n in system.participant_client(person).check_awareness()
            ]
            for person in people
        }
        return streams, chains, system

    def test_fleet_streams_and_chains_identical(self):
        shared_streams, shared_chains, shared_system = self._run(True)
        plain_streams, plain_chains, plain_system = self._run(False)

        assert shared_streams == plain_streams
        assert shared_chains == plain_chains
        # Every window actually fired (counts 2, 3, 4 pass the gate).
        assert all(len(s) == 3 for s in shared_streams.values())
        # And the equivalence was achieved with a genuinely shared plan.
        stats = shared_system.awareness.planner.stats()
        assert stats["nodes_live"] == 3
        assert stats["operators_deduped"] == 3 * (self.WINDOWS - 1)
        assert plain_system.awareness.planner.stats()["nodes_live"] == 0
