"""Tests for activity state schemas and state machines (Figure 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.states import (
    CLOSED,
    COMPLETED,
    GENERIC_STATES,
    READY,
    RUNNING,
    SUSPENDED,
    TERMINATED,
    UNINITIALIZED,
    ActivityStateSchema,
    StateMachine,
    Transition,
    generic_activity_state_schema,
)
from repro.errors import (
    InvalidTransitionError,
    StateError,
    UnknownStateError,
)


class TestGenericSchema:
    def test_contains_all_figure4_states(self):
        schema = generic_activity_state_schema()
        for state in GENERIC_STATES:
            assert schema.has_state(state)

    def test_closed_is_nonleaf_with_two_substates(self):
        schema = generic_activity_state_schema()
        assert set(schema.children_of(CLOSED)) == {COMPLETED, TERMINATED}
        assert CLOSED not in schema.leaves()

    def test_initial_state_is_uninitialized(self):
        schema = generic_activity_state_schema()
        assert schema.initial_state == UNINITIALIZED

    def test_terminal_states_are_completed_and_terminated(self):
        schema = generic_activity_state_schema()
        assert set(schema.terminal_states()) == {COMPLETED, TERMINATED}

    def test_happy_path_transitions_allowed(self):
        schema = generic_activity_state_schema()
        assert schema.can_transition(UNINITIALIZED, READY)
        assert schema.can_transition(READY, RUNNING)
        assert schema.can_transition(RUNNING, COMPLETED)

    def test_suspend_resume_cycle_allowed(self):
        schema = generic_activity_state_schema()
        assert schema.can_transition(RUNNING, SUSPENDED)
        assert schema.can_transition(SUSPENDED, RUNNING)

    def test_illegal_transitions_rejected(self):
        schema = generic_activity_state_schema()
        assert not schema.can_transition(UNINITIALIZED, RUNNING)
        assert not schema.can_transition(COMPLETED, RUNNING)
        assert not schema.can_transition(SUSPENDED, COMPLETED)

    def test_no_transition_touches_nonleaf(self):
        schema = generic_activity_state_schema()
        for transition in schema.transitions():
            assert transition.source in schema.leaves()
            assert transition.target in schema.leaves()

    def test_validate_passes(self):
        generic_activity_state_schema().validate()


class TestSchemaConstruction:
    def test_duplicate_state_rejected(self):
        schema = ActivityStateSchema("s")
        schema.add_state("A")
        with pytest.raises(StateError):
            schema.add_state("A")

    def test_transition_requires_known_states(self):
        schema = ActivityStateSchema("s")
        schema.add_state("A")
        with pytest.raises(UnknownStateError):
            schema.add_transition("A", "B")

    def test_self_transition_rejected(self):
        schema = ActivityStateSchema("s")
        schema.add_state("A")
        with pytest.raises(StateError):
            schema.add_transition("A", "A")

    def test_transition_to_nonleaf_rejected(self):
        schema = ActivityStateSchema("s")
        schema.add_state("A")
        schema.add_state("B")
        schema.add_state("B1", parent="B")
        with pytest.raises(StateError):
            schema.add_transition("A", "B")

    def test_substate_under_transitioned_state_rejected(self):
        schema = ActivityStateSchema("s")
        schema.add_state("A")
        schema.add_state("B")
        schema.add_transition("A", "B")
        with pytest.raises(StateError):
            schema.add_state("B1", parent="B")

    def test_initial_state_must_be_leaf(self):
        schema = ActivityStateSchema("s")
        schema.add_state("A")
        schema.add_state("A1", parent="A")
        with pytest.raises(StateError):
            schema.set_initial("A")

    def test_validate_requires_initial(self):
        schema = ActivityStateSchema("s")
        schema.add_state("A")
        with pytest.raises(StateError):
            schema.validate()


class TestSpecialization:
    """Application-specific substate forests (Section 4)."""

    def test_specialize_running_keeps_leaf_only_rule(self):
        schema = generic_activity_state_schema()
        schema.specialize(
            RUNNING, ["Interviewing", "Summarizing"], default="Interviewing"
        )
        schema.validate()
        assert RUNNING not in schema.leaves()
        assert schema.can_transition(READY, "Interviewing")
        assert schema.can_transition("Interviewing", COMPLETED)

    def test_specialize_retargets_all_transitions_to_default(self):
        schema = generic_activity_state_schema()
        schema.specialize(RUNNING, ["R1", "R2"])
        # R1 is the default: it inherits Running's incoming and outgoing.
        assert schema.can_transition(READY, "R1")
        assert schema.can_transition("R1", SUSPENDED)
        assert not schema.can_transition(READY, "R2")

    def test_substate_ancestry(self):
        schema = generic_activity_state_schema()
        schema.specialize(RUNNING, ["R1"])
        schema.specialize("R1", ["R1a"])
        assert schema.ancestors("R1a") == ("R1", RUNNING)
        assert schema.root_of("R1a") == RUNNING
        assert schema.is_substate_of("R1a", RUNNING)
        assert not schema.is_substate_of("R1a", READY)

    def test_forest_roots_are_generic_states(self):
        schema = generic_activity_state_schema()
        schema.specialize(RUNNING, ["R1", "R2"])
        assert set(schema.roots()) == {
            UNINITIALIZED,
            READY,
            RUNNING,
            SUSPENDED,
            CLOSED,
        }

    def test_specialize_requires_substates(self):
        schema = generic_activity_state_schema()
        with pytest.raises(StateError):
            schema.specialize(RUNNING, [])

    def test_specialize_default_must_be_new(self):
        schema = generic_activity_state_schema()
        with pytest.raises(StateError):
            schema.specialize(RUNNING, ["R1"], default="R2")

    def test_specializing_the_initial_state_repoints_it(self):
        """Regression: specializing Uninitialized must move the initial
        designation onto the default substate (found by the interchange
        fuzzer)."""
        schema = generic_activity_state_schema()
        schema.specialize(UNINITIALIZED, ["Drafted", "Imported"])
        assert schema.initial_state == "Drafted"
        schema.validate()
        machine = StateMachine(schema)
        assert machine.current_state == "Drafted"
        machine.transition_to(READY, time=1)

    def test_schema_mutated_after_validation_is_rechecked(self):
        """Instances skip re-validating a schema that already passed, but
        every mutator re-arms the check."""
        schema = ActivityStateSchema("s")
        schema.add_state("A")
        schema.set_initial("A")
        StateMachine(schema)
        schema.add_state("A1", parent="A")  # the initial state is no leaf now
        with pytest.raises(StateError):
            StateMachine(schema)
        for mutate in (
            lambda s: s.add_state("Extra"),
            lambda s: s.add_transition(READY, SUSPENDED),
            lambda s: s.specialize(RUNNING, ["R1"]),
            lambda s: s.set_initial(READY),
        ):
            schema = generic_activity_state_schema()
            assert schema._validated
            mutate(schema)
            assert not schema._validated

    def test_is_substate_of_completed_under_closed(self):
        schema = generic_activity_state_schema()
        assert schema.is_substate_of(COMPLETED, CLOSED)
        assert schema.is_substate_of(TERMINATED, CLOSED)
        assert not schema.is_substate_of(COMPLETED, TERMINATED)


class TestStateMachine:
    def test_starts_in_initial_state(self):
        machine = StateMachine(generic_activity_state_schema())
        assert machine.current_state == UNINITIALIZED

    def test_valid_walk_records_history(self):
        machine = StateMachine(generic_activity_state_schema())
        machine.transition_to(READY, time=1)
        machine.transition_to(RUNNING, time=2, user="alice")
        machine.transition_to(COMPLETED, time=3, user="alice")
        assert machine.current_state == COMPLETED
        history = machine.history
        assert [c.new_state for c in history] == [READY, RUNNING, COMPLETED]
        assert history[1].user == "alice"
        assert history[0].time == 1

    def test_invalid_transition_raises_and_preserves_state(self):
        machine = StateMachine(generic_activity_state_schema())
        with pytest.raises(InvalidTransitionError):
            machine.transition_to(RUNNING, time=1)
        assert machine.current_state == UNINITIALIZED
        assert machine.history == ()

    def test_unknown_state_raises(self):
        machine = StateMachine(generic_activity_state_schema())
        with pytest.raises(UnknownStateError):
            machine.transition_to("Nirvana", time=1)

    def test_is_in_matches_superstate(self):
        machine = StateMachine(generic_activity_state_schema())
        machine.transition_to(READY, time=1)
        machine.transition_to(RUNNING, time=2)
        machine.transition_to(COMPLETED, time=3)
        assert machine.is_in(COMPLETED)
        assert machine.is_in(CLOSED)
        assert not machine.is_in(TERMINATED)

    def test_is_closed(self):
        machine = StateMachine(generic_activity_state_schema())
        assert not machine.is_closed()
        machine.transition_to(READY, time=1)
        machine.transition_to(TERMINATED, time=2)
        assert machine.is_closed()


@st.composite
def random_walks(draw):
    """A random (possibly invalid) sequence of target states."""
    return draw(
        st.lists(st.sampled_from(GENERIC_STATES), min_size=1, max_size=12)
    )


class TestStateMachineProperties:
    @given(walk=random_walks())
    @settings(max_examples=200)
    def test_machine_never_enters_unreachable_state(self, walk):
        """Whatever is thrown at it, the machine's state is always a leaf
        reachable by declared transitions from the initial state."""
        schema = generic_activity_state_schema()
        machine = StateMachine(schema)
        time = 0
        for target in walk:
            time += 1
            allowed = schema.can_transition(machine.current_state, target)
            if allowed:
                machine.transition_to(target, time=time)
            else:
                with pytest.raises(InvalidTransitionError):
                    machine.transition_to(target, time=time)
            assert machine.current_state in schema.leaves()

    @given(walk=random_walks())
    @settings(max_examples=200)
    def test_history_is_time_monotone_and_chained(self, walk):
        schema = generic_activity_state_schema()
        machine = StateMachine(schema)
        time = 0
        for target in walk:
            time += 1
            if schema.can_transition(machine.current_state, target):
                machine.transition_to(target, time=time)
        history = machine.history
        # Chained: each change's old state is the previous change's new one.
        previous = UNINITIALIZED
        for change in history:
            assert change.old_state == previous
            previous = change.new_state
        times = [c.time for c in history]
        assert times == sorted(times)
