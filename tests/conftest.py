"""Shared fixtures for the CMI reproduction test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import (
    ActivityVariable,
    BasicActivitySchema,
    DependencyType,
    DependencyVariable,
    EnactmentSystem,
    Participant,
    ProcessActivitySchema,
    RoleRef,
)
from repro.workloads.taskforce import TaskForceApplication

# ``--hypothesis-profile=soak`` (nightly.yml): long, derandomized runs of
# the properties that read the loaded profile instead of pinning
# ``max_examples`` — among them the journal crash-point property, the
# codec's self-contained/stream-interned interleaving and event-run
# properties, the ingest door's admission differential, the column
# door's differential against the Event-list door, the linked-plan, plan-sharing and Translate / external filter
# differentials, the registry snapshot's codec trip and the persisted
# notification round trip.
settings.register_profile(
    "soak", max_examples=2000, derandomize=True, deadline=None
)


@pytest.fixture
def system():
    """A fresh enactment system (all four engines, memory queue)."""
    return EnactmentSystem()


@pytest.fixture
def alice(system):
    participant = system.register_participant(Participant("u-alice", "alice"))
    return participant


@pytest.fixture
def bob(system):
    participant = system.register_participant(Participant("u-bob", "bob"))
    return participant


@pytest.fixture
def carol(system):
    participant = system.register_participant(Participant("u-carol", "carol"))
    return participant


@pytest.fixture
def epidemiologists(system, alice, bob, carol):
    """The 'epidemiologist' organizational role with three members."""
    role = system.core.roles.define_role("epidemiologist")
    for participant in (alice, bob, carol):
        role.add_member(participant)
    return role


@pytest.fixture
def simple_process(system):
    """A two-step sequential process: draft -> review."""
    draft = BasicActivitySchema("b-draft", "draft", performer=RoleRef("epidemiologist"))
    review = BasicActivitySchema(
        "b-review", "review", performer=RoleRef("epidemiologist")
    )
    process = ProcessActivitySchema("p-simple", "simple-report")
    process.add_activity_variable(ActivityVariable("draft", draft))
    process.add_activity_variable(ActivityVariable("review", review))
    process.add_dependency(
        DependencyVariable(
            "d-seq", DependencyType.SEQUENCE, ("draft",), "review"
        )
    )
    process.mark_entry("draft")
    system.core.register_schema(process)
    return process


@pytest.fixture
def taskforce_app(system, epidemiologists):
    """The Section 5.4 application with AS_InfoRequest deployed."""
    app = TaskForceApplication(system)
    app.install_awareness()
    return app
