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

Besides the scripted workloads, a Hypothesis property deploys windows
generated from the DSL grammar — a window, a full copy and a prefix —
onto one shared cache and onto private ones, undeploys some mid-stream
and compares every detection, parameter for parameter, with its
provenance.  (Not a redeploy: a window deployed onto live shared nodes
adopts the state they hold, which a private plan starts without.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ActivityVariable,
    BasicActivitySchema,
    ContextFieldSpec,
    ContextSchema,
    EnactmentSystem,
    Participant,
    ProcessActivitySchema,
)
from repro.awareness.detector import DetectorAgent
from repro.awareness.dsl import compile_specification
from repro.awareness.planner import PlanCache
from repro.awareness.specification import SpecificationWindow
from repro.events.producers import ActivityEventProducer, ContextEventProducer
from repro.observability import INSTRUMENTATION as OBS
from repro.observability import instrumented
from repro.workloads.epidemic import EpidemicScenario
from repro.workloads.taskforce import TaskForceApplication

from .test_linked_plan_differential import (
    SCHEMA,
    activity_event,
    context_event,
    instances,
    states,
    values,
)
from .test_dsl_fuzz import close_specification, random_operator_lines


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


# -- generated windows ------------------------------------------------------------


@st.composite
def window_sets(draw):
    """Window A, a full copy B, and C and D, prefixes of A each rooted
    on its own: a prefix's root is often a node inside A's segments."""
    lines, nodes = draw(random_operator_lines())
    windows = {
        "A": close_specification(lines, nodes),
        "B": close_specification(lines, nodes, schema_name="AS_Fuzz_B"),
    }
    for label in ("C", "D"):
        keep = draw(st.integers(min_value=1, max_value=len(lines)))
        prefix = lines[:keep]
        windows[label] = close_specification(
            prefix,
            [line.split(" = ")[0] for line in prefix],
            schema_name=f"AS_Fuzz_{label}",
        )
    return windows


def run_generated(cache, windows, actions):
    """Deploy windows A to D on *cache*, then run *actions*; each
    window's detections, parameters in order, with their provenance
    signatures."""
    producers = {
        "ActivityEvent": ActivityEventProducer(),
        "ContextEvent": ContextEventProducer(),
    }
    plans, detected = {}, {}
    for label in sorted(windows):
        window = SpecificationWindow(SCHEMA, producers)
        compile_specification(window, windows[label])
        sink = detected.setdefault(label, []).append
        plans[label] = DetectorAgent(window, cache, sink=sink).plan

    enabled = OBS.enabled
    try:
        for position, action in enumerate(actions, start=1):
            kind = action[0]
            if kind == "undeploy":
                plan = plans.pop(action[1], None)
                if plan is not None:
                    plan.detach()
            elif kind == "instrument":
                OBS.enabled = not OBS.enabled
            elif kind == "context":
                __, field, members, value = action
                producers["ContextEvent"].emit(
                    context_event(position, f"field{field}", members, value)
                )
            else:
                __, instance, old_state, new_state = action
                producers["ActivityEvent"].emit(
                    activity_event(position, instance, old_state, new_state)
                )
    finally:
        OBS.enabled = enabled
    return {
        label: [
            (list(event.params.items()), event.provenance and event.provenance.signature())
            for event in seen
        ]
        for label, seen in detected.items()
    }


generated_actions = st.lists(
    st.one_of(
        st.tuples(st.just("context"), st.integers(0, 3), instances, values),
        st.tuples(st.just("context"), st.integers(0, 3), instances, values),
        st.tuples(st.just("activity"), st.sampled_from(["i1", "i2"]), states, states),
        st.tuples(st.just("undeploy"), st.sampled_from(["A", "B", "C", "D"])),
        st.tuples(st.just("instrument")),
    ),
    min_size=8,
    max_size=40,
)

#: Tier-1 runs 60; the nightly ``soak`` profile
#: (``--hypothesis-profile=soak``) runs its own count.
PROFILE_EXAMPLES = settings.default.max_examples
GENERATED_EXAMPLES = PROFILE_EXAMPLES if PROFILE_EXAMPLES > 100 else 60


class TestGeneratedWindowsDifferential:
    @given(windows=window_sets(), actions=generated_actions, instrument=st.booleans())
    @settings(max_examples=GENERATED_EXAMPLES, deadline=None)
    def test_shared_and_private_plans_detect_identically(
        self, windows, actions, instrument
    ):
        """Generated windows sharing one plan cache, some undeployed
        mid-stream, detect what private plans detect."""
        observed = []
        for cache in (PlanCache(), PrivatePlans()):
            with instrumented():
                OBS.enabled = instrument
                observed.append(run_generated(cache, windows, actions))
        assert observed[0] == observed[1]
