"""System-level integration tests across all engines.

These tests exercise whole paper scenarios through the public federation
API — the same paths the examples and benchmarks use.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EnactmentSystem, Participant, RoleRef
from repro.workloads.epidemic import EpidemicScenario
from repro.workloads.taskforce import TaskForceApplication


class TestSection54EndToEnd:
    """The complete deadline-violation story of Section 5.4."""

    def test_full_story(self):
        system = EnactmentSystem()
        leader = system.register_participant(Participant("u-lead", "dr-lee"))
        member = system.register_participant(Participant("u-mem", "dr-kim"))
        system.core.roles.define_role("epidemiologist").add_member(leader)
        system.core.roles.role("epidemiologist").add_member(member)

        app = TaskForceApplication(system)
        app.install_awareness()

        # 1. Health crisis leader creates the task force with a deadline.
        task_force = app.create_task_force(leader, [leader, member], 200)
        # 2. A member requests external information with an earlier deadline.
        request = app.request_information(task_force, member, 150)
        # 3. External situation changes; leader moves the deadline earlier.
        app.change_task_force_deadline(task_force, 120)
        # 4. The requestor (and only the requestor) is notified.
        member_client = system.participant_client(member)
        leader_client = system.participant_client(leader)
        notifications = member_client.check_awareness()
        assert len(notifications) == 1
        assert leader_client.check_awareness() == ()
        # 5. The requestor renegotiates the request deadline below the new
        #    task force deadline; a later harmless move stays silent.
        app.change_request_deadline(request, 100)
        app.change_task_force_deadline(task_force, 110)
        assert member_client.check_awareness() == ()
        # 6. A further violating move notifies again.
        app.change_task_force_deadline(task_force, 90)
        assert len(member_client.check_awareness()) == 1

    def test_awareness_roles_differ_from_coordination_roles(self):
        """Section 5.2: delivery roles may differ from coordination roles.
        The work is offered to epidemiologists; the awareness goes to the
        Requestor scoped role only."""
        system = EnactmentSystem()
        leader = system.register_participant(Participant("u-lead", "lead"))
        member = system.register_participant(Participant("u-mem", "mem"))
        outsider = system.register_participant(Participant("u-out", "out"))
        role = system.core.roles.define_role("epidemiologist")
        for participant in (leader, member, outsider):
            role.add_member(participant)
        app = TaskForceApplication(system)
        app.install_awareness()
        task_force = app.create_task_force(leader, [leader, member], 100)
        app.request_information(task_force, member, 80)
        # Outsider sees work items (coordination role)...
        assert len(system.participant_client(outsider).work_items()) > 0
        app.change_task_force_deadline(task_force, 50)
        # ...but never the scoped awareness.
        assert system.participant_client(outsider).check_awareness() == ()
        assert len(system.participant_client(member).check_awareness()) == 1


class TestMultipleTaskForcesIsolation:
    def test_violations_do_not_cross_task_forces(self):
        system = EnactmentSystem()
        role = system.core.roles.define_role("epidemiologist")
        people = []
        for index in range(4):
            participant = system.register_participant(
                Participant(f"u{index}", f"person-{index}")
            )
            role.add_member(participant)
            people.append(participant)
        app = TaskForceApplication(system)
        app.install_awareness()

        tf_a = app.create_task_force(people[0], people[:2], 100)
        tf_b = app.create_task_force(people[2], people[2:], 100)
        app.request_information(tf_a, people[1], 80)
        app.request_information(tf_b, people[3], 80)

        # Violate only task force A's deadline.
        app.change_task_force_deadline(tf_a, 50)
        assert len(system.participant_client(people[1]).check_awareness()) == 1
        assert system.participant_client(people[3]).check_awareness() == ()

    @given(
        violate_a=st.booleans(),
        violate_b=st.booleans(),
        seed=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_notification_pattern_matches_violations(
        self, violate_a, violate_b, seed
    ):
        system = EnactmentSystem()
        role = system.core.roles.define_role("epidemiologist")
        people = [
            system.register_participant(Participant(f"u{i}", f"p{i}"))
            for i in range(4)
        ]
        for participant in people:
            role.add_member(participant)
        app = TaskForceApplication(system)
        app.install_awareness()
        tf_a = app.create_task_force(people[0], people[:2], 100 + seed)
        tf_b = app.create_task_force(people[2], people[2:], 100 + seed)
        app.request_information(tf_a, people[1], 80)
        app.request_information(tf_b, people[3], 80)
        app.change_task_force_deadline(tf_a, 50 if violate_a else 150)
        app.change_task_force_deadline(tf_b, 50 if violate_b else 150)
        got_a = len(system.participant_client(people[1]).check_awareness())
        got_b = len(system.participant_client(people[3]).check_awareness())
        assert got_a == (1 if violate_a else 0)
        assert got_b == (1 if violate_b else 0)


class TestEpidemicIntegration:
    def test_scenarios_complete_across_seeds(self):
        for seed in (1, 2, 3, 4, 5):
            report = EpidemicScenario(EnactmentSystem(), seed=seed).run()
            assert report.process.current_state == "Completed"
            # The Section 2 invariant: tests stop at the first positive.
            if report.positive_test is not None:
                assert report.positive_test == report.lab_tests_run

    def test_system_stats_consistent(self):
        system = EnactmentSystem()
        EpidemicScenario(system, seed=9).run()
        stats = system.stats()
        emitted = system.metrics.get("producer_emitted_total").total()
        assert stats["activity_events_gathered"] == (
            emitted - stats["context_events_gathered"]
        )
        assert stats["instances_total"] > 10


class TestSignOnLaterDelivery:
    def test_notification_waits_for_sign_on(self):
        """Section 6.5: a participant not logged on still receives the
        awareness event later — the queue is persistent."""
        system = EnactmentSystem()
        leader = system.register_participant(Participant("u1", "lead"))
        member = system.register_participant(Participant("u2", "mem"))
        system.core.roles.define_role("epidemiologist").add_member(leader)
        app = TaskForceApplication(system)
        app.install_awareness()
        task_force = app.create_task_force(leader, [leader, member], 100)
        app.request_information(task_force, member, 80)
        # member is signed off when the violation happens.
        assert not member.signed_on
        app.change_task_force_deadline(task_force, 50)
        # Much later, member signs on and finds the notification.
        client = system.participant_client(member)
        client.sign_on()
        assert len(client.check_awareness()) == 1
