#!/usr/bin/env python3
"""Durable enactment: surviving a server restart.

The CMI prototype inherited persistence from IBM FlowMark; this
reproduction provides it through two mechanisms shown here end to end:

1. the **audit journal** (`repro.federation.journal`) — every CORE
   operation of the first "server" is journaled to disk; a second
   "server" recovers the exact instance trees, state histories, contexts,
   and scoped roles and *continues the same processes*;
2. the **persistent delivery queue** — awareness detected before the
   crash is still waiting for its participant after the restart.

Run:  python examples/durable_enactment.py
"""

import os
import tempfile

from repro import EnactmentSystem, Participant
from repro.coordination import CoordinationEngine
from repro.events.queues import SqliteDeliveryQueue
from repro.federation.journal import Journal, recover_core
from repro.workloads.taskforce import TaskForceApplication


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="cmi-durable-")
    journal_path = os.path.join(workdir, "audit.log")
    queue_path = os.path.join(workdir, "queue.db")

    # ---- first server lifetime -------------------------------------------------
    journal = Journal()
    system = EnactmentSystem(
        queue=SqliteDeliveryQueue(queue_path), journal=journal
    )
    lee = system.register_participant(Participant("u-lee", "dr-lee"))
    kim = system.register_participant(Participant("u-kim", "dr-kim"))
    role = system.core.roles.define_role("epidemiologist")
    role.add_member(lee)
    role.add_member(kim)

    app = TaskForceApplication(system)
    app.install_awareness()
    task_force = app.create_task_force(lee, [lee, kim], deadline=200)
    app.request_information(task_force, kim, deadline=150)
    app.change_task_force_deadline(task_force, 120)  # violation detected

    print(f"server 1: journaled {len(journal)} operations")
    print(
        f"server 1: task force state = {task_force.process.current_state}, "
        f"kim's pending awareness = "
        f"{system.awareness.delivery.queue.pending_count('u-kim')}"
    )
    journal.save(journal_path)
    system.awareness.delivery.queue.close()
    print("server 1: crashed.\n")

    # ---- second server lifetime ---------------------------------------------------
    recovered_core = recover_core(Journal.load(journal_path))
    coordination = CoordinationEngine(recovered_core)
    queue = SqliteDeliveryQueue(queue_path)

    twin = recovered_core.instance(task_force.process.instance_id)
    print(f"server 2: recovered {len(recovered_core.instances())} instances")
    print(
        f"server 2: task force {twin.instance_id} state = "
        f"{twin.current_state} (history of "
        f"{len(twin.state_machine.history)} transitions intact)"
    )
    deadline = twin.context("TaskForceContext").get("TaskForceDeadline")
    print(f"server 2: TaskForceDeadline = {deadline} (set before the crash)")

    # The queued awareness survived too: kim signs on and reads it.
    pending = queue.retrieve("u-kim")
    print(f"server 2: dr-kim signs on and finds {len(pending)} notification(s):")
    for notification in pending:
        print(f"  [t={notification.time}] {notification.description}")

    # And the recovered engine keeps enacting: both open activities (the
    # assessment and the information request's gathering step) finish, and
    # the whole task force auto-completes — mid-flight work is never lost.
    for instance in [twin, *twin.descendants()]:
        if instance.is_closed() or hasattr(instance, "children"):
            continue
        if instance.current_state == "Ready":
            recovered_core.change_state(instance, "Running", user="dr-lee")
        coordination.complete_activity(instance, user="dr-lee")
    print(f"\nserver 2: open work finished; task force = {twin.current_state}")
    queue.close()


if __name__ == "__main__":
    main()
