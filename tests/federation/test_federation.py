"""Tests for the Figure 5 architecture: system, clients, monitor."""

import pytest

from repro import (
    ActivityVariable,
    BasicActivitySchema,
    EnactmentSystem,
    Participant,
    ProcessActivitySchema,
    RoleRef,
)
from repro.errors import WorklistError
from repro.events.queues import SqliteDeliveryQueue


class TestEnactmentSystem:
    def test_engines_share_one_clock(self, system):
        assert system.core.clock is system.clock
        assert system.coordination.core is system.core
        assert system.awareness.core is system.core
        assert system.service.coordination is system.coordination

    def test_participant_client_cached(self, system, alice):
        a = system.participant_client(alice)
        b = system.participant_client(alice)
        assert a is b

    def test_a_failing_tap_is_isolated_on_every_system(self):
        system = EnactmentSystem()

        def broken(event):
            raise RuntimeError("boom")

        system.bus.subscribe("T_activity", broken)
        # Driving a state change publishes T_activity; the broken handler
        # is recorded, not raised.
        from repro import (
            ActivityVariable,
            BasicActivitySchema,
            ProcessActivitySchema,
        )

        process = ProcessActivitySchema("p-i", "iso")
        process.add_activity_variable(
            ActivityVariable("a", BasicActivitySchema("b-i", "a"))
        )
        process.mark_entry("a")
        system.core.register_schema(process)
        instance = system.coordination.start_process(process)
        assert instance.current_state == "Running"
        assert len(system.bus.handler_errors) > 0
        assert system.stats()["bus_events_failed"] == len(system.bus.handler_errors)

    def test_stats_keys(self, system):
        stats = system.stats()
        for key in (
            "bus_events_published",
            "processes_started",
            "notifications_delivered",
        ):
            assert key in stats

    def test_sqlite_backed_system(self, tmp_path, epidemiologists, alice, bob):
        """Awareness survives a simulated server restart: the queue is
        durable, so bob's notification outlives the first system."""
        from repro.workloads.taskforce import TaskForceApplication

        path = str(tmp_path / "cmi.db")
        system = EnactmentSystem(queue=SqliteDeliveryQueue(path))
        alice2 = system.register_participant(Participant("u1", "alice"))
        bob2 = system.register_participant(Participant("u2", "bob"))
        system.core.roles.define_role("epidemiologist").add_member(alice2)
        app = TaskForceApplication(system)
        app.install_awareness()
        task_force = app.create_task_force(alice2, [alice2, bob2], 100)
        app.request_information(task_force, bob2, 80)
        app.change_task_force_deadline(task_force, 50)
        system.awareness.delivery.queue.close()

        reopened = SqliteDeliveryQueue(path)
        assert reopened.pending_count("u2") == 1
        reopened.close()


class TestParticipantClient:
    def test_sign_on_off(self, system, alice):
        client = system.participant_client(alice)
        client.sign_on()
        assert alice.signed_on
        client.sign_off()
        assert not alice.signed_on

    def test_complete_requires_claim_by_self(
        self, system, alice, bob, epidemiologists, simple_process
    ):
        system.coordination.start_process(simple_process)
        alice_client = system.participant_client(alice)
        bob_client = system.participant_client(bob)
        item = alice_client.work_items()[0]
        alice_client.claim(item)
        with pytest.raises(WorklistError):
            bob_client.complete(item)
        alice_client.complete(item)

    def test_claim_and_complete_all(
        self, system, alice, epidemiologists, simple_process
    ):
        instance = system.coordination.start_process(simple_process)
        done = system.participant_client(alice).claim_and_complete_all()
        assert done == 2
        assert instance.current_state == "Completed"

    def test_monitor_view(self, system, alice, epidemiologists, simple_process):
        instance = system.coordination.start_process(simple_process)
        view = system.participant_client(alice).monitor_view(instance)
        assert "simple-report" in view
        assert "draft" in view


class TestDesignerClient:
    def test_register_and_deploy(self, system, epidemiologists):
        designer = system.designer_client("hans")
        basic = BasicActivitySchema(
            "b-x", "x", performer=RoleRef("epidemiologist")
        )
        process = ProcessActivitySchema("p-x", "px")
        process.add_activity_variable(ActivityVariable("x", basic))
        process.mark_entry("x")
        designer.register_process(process)
        window = designer.open_awareness_window("p-x")
        flt = window.place("Filter_activity", "x", None, {"Completed"})
        window.connect(window.source("ActivityEvent"), flt, 0)
        window.output(flt, RoleRef("epidemiologist"), schema_name="AS_done")
        detector = designer.deploy_awareness(window)
        assert detector.schema_names() == ("AS_done",)

    def test_advertise_service(self, system):
        from repro.service import QoSAttributes, ServiceDefinition

        designer = system.designer_client()
        process = ProcessActivitySchema("p-s", "svc")
        process.add_activity_variable(
            ActivityVariable("a", BasicActivitySchema("b-s", "a"))
        )
        process.mark_entry("a")
        definition = ServiceDefinition(
            "svc-1", "svc", "provider", process, QoSAttributes(max_duration=10)
        )
        designer.advertise_service(definition)
        assert system.service.registry.service("svc-1") is definition


class TestMonitor:
    def test_log_records_every_state_change(
        self, system, alice, epidemiologists, simple_process
    ):
        instance = system.coordination.start_process(simple_process)
        system.participant_client(alice).claim_and_complete_all()
        log = system.monitor.log()
        assert len(log) >= 8  # process + two activities, several hops each
        process_log = system.monitor.log_for_process(instance)
        assert len(process_log) == len(log)

    def test_status_tree_shows_performer(
        self, system, alice, epidemiologists, simple_process
    ):
        instance = system.coordination.start_process(simple_process)
        client = system.participant_client(alice)
        item = client.work_items()[0]
        client.claim(item)
        tree = system.monitor.status_tree(instance)
        assert "performer: alice" in tree

    def test_timeline_shows_running_intervals(
        self, system, alice, epidemiologists, simple_process
    ):
        instance = system.coordination.start_process(simple_process)
        system.participant_client(alice).claim_and_complete_all()
        timeline = system.monitor.timeline(instance)
        assert "draft" in timeline
        assert "review" in timeline
        assert "─" in timeline

    def test_open_activity_shown_with_ellipsis(
        self, system, alice, epidemiologists, simple_process
    ):
        instance = system.coordination.start_process(simple_process)
        client = system.participant_client(alice)
        client.claim(client.work_items()[0])
        timeline = system.monitor.timeline(instance)
        assert "…" in timeline
