"""Failure-injection tests: the system degrades loudly, never silently."""

import pytest

from repro import (
    ActivityVariable,
    BasicActivitySchema,
    EnactmentSystem,
    Participant,
    ProcessActivitySchema,
    RoleRef,
)
from repro.errors import (
    EnactmentError,
    InvalidTransitionError,
    QueueError,
    ReproError,
    SpecificationError,
    WorklistError,
)
from repro.events.bus import EventBus
from repro.events.queues import SqliteDeliveryQueue
from repro.workloads.taskforce import TaskForceApplication


class TestBrokenDetectorIsolation:
    def test_broken_bus_subscriber_does_not_silence_healthy_ones(self):
        """One faulty tap cannot starve the rest of the bus of events."""
        bus = EventBus()
        healthy = []

        def broken(event):
            raise RuntimeError("detector crashed")

        bus.subscribe("T_context", broken)
        bus.subscribe("T_context", healthy.append)

        from repro.events.event import Event
        from repro.events.producers import CONTEXT_EVENT_TYPE

        for tick in range(5):
            bus.publish(
                Event(
                    CONTEXT_EVENT_TYPE,
                    {
                        "time": tick,
                        "source": "E_context",
                        "contextId": "c",
                        "contextName": "C",
                        "processAssociations": frozenset(),
                        "fieldName": "f",
                        "oldFieldValue": None,
                        "newFieldValue": tick,
                    },
                )
            )
        assert len(healthy) == 5
        assert len(bus.handler_errors) == 5


class TestMisuseIsRejectedNotIgnored:
    def test_completing_unclaimed_activity_fails(
        self, system, alice, epidemiologists, simple_process
    ):
        instance = system.coordination.start_process(simple_process)
        draft = instance.child("draft")
        # Ready -> Completed is not a legal transition: no silent skip.
        with pytest.raises(InvalidTransitionError):
            system.coordination.complete_activity(draft)

    def test_double_claim_races_fail_deterministically(
        self, system, alice, bob, epidemiologists, simple_process
    ):
        system.coordination.start_process(simple_process)
        item = system.participant_client(alice).work_items()[0]
        system.participant_client(alice).claim(item)
        with pytest.raises(WorklistError):
            system.participant_client(bob).claim(item)

    def test_deploying_half_authored_window_fails(self, system):
        window = system.awareness.create_window("P-X")
        window.place("Count")  # never wired, never rooted
        with pytest.raises(SpecificationError):
            system.awareness.deploy(window)

    def test_subprocess_start_on_missing_variable_fails(
        self, system, epidemiologists, simple_process
    ):
        instance = system.coordination.start_process(simple_process)
        with pytest.raises(ReproError):
            system.coordination.start_optional_activity(instance, "ghost")


class TestQueueOutage:
    def test_closed_queue_surfaces_not_swallows(self, tmp_path):
        """If the persistent store is down, delivery raises — awareness is
        never silently dropped."""
        path = str(tmp_path / "cmi.db")
        queue = SqliteDeliveryQueue(path)
        system = EnactmentSystem(queue=queue)
        leader = system.register_participant(Participant("u1", "lead"))
        member = system.register_participant(Participant("u2", "mem"))
        system.core.roles.define_role("epidemiologist").add_member(leader)
        app = TaskForceApplication(system)
        app.install_awareness()
        task_force = app.create_task_force(leader, [leader, member], 100)
        app.request_information(task_force, member, 80)

        queue.close()  # simulated storage outage
        with pytest.raises(QueueError):
            app.change_task_force_deadline(task_force, 50)


class TestScopeViolations:
    def test_revoked_reference_cannot_leak_writes(
        self, system, alice, taskforce_app
    ):
        task_force = taskforce_app.create_task_force(alice, [alice], 100)
        ref = task_force.process.context("TaskForceContext")
        ref.revoke()
        from repro.errors import ScopeError

        with pytest.raises(ScopeError):
            ref.set("TaskForceDeadline", 1)

    def test_awareness_survives_unrelated_process_termination(
        self, system, alice, bob, taskforce_app
    ):
        """Terminating one task force does not disturb another's
        detection state (per-instance replication under failure)."""
        tf_a = taskforce_app.create_task_force(alice, [alice, bob], 100)
        tf_b = taskforce_app.create_task_force(alice, [alice, bob], 100)
        taskforce_app.request_information(tf_a, bob, 80)
        taskforce_app.request_information(tf_b, bob, 80)
        system.coordination.terminate_activity(tf_a.process, user="chief")
        # tf_b's awareness still works.
        taskforce_app.change_task_force_deadline(tf_b, 50)
        notifications = system.participant_client(bob).check_awareness()
        assert len(notifications) == 1
        assert (
            notifications[0].parameters["processInstanceId"]
            != tf_a.process.instance_id
        )
