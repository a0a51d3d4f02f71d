"""Parameterized crisis workload with ground-truth relevance (QE1).

The paper claims (Sections 1, 2, 7) that CMI's customized awareness
"minimizes information overloading" compared with the built-in choices of
existing technology, while still delivering the situations that matter.
This workload makes the claim measurable:

* ``n`` task forces are created, each with ``m`` members drawn from an
  epidemiologist pool; members file information requests with deadlines;
  leaders move task-force deadlines — sometimes violating live request
  deadlines (the Section 5.4 situation), sometimes harmlessly;
* every mechanism under comparison observes the *same* run: CMI's
  ``AS_InfoRequest`` schema plus the five Section 2 baselines;
* the generator records **ground truth**: each deadline violation is a
  relevant fact for exactly the live requestors it affects; each work-item
  offer is a relevant fact for its candidates;
* mechanism deliveries are translated into the ground-truth vocabulary
  under two leniency modes:

  - **raw-signal** mode credits a mechanism when the undigested primitive
    event carrying the situation reached the right user at the right time
    (a manager staring at the monitor *could* derive the violation);
  - **digested** mode credits only mechanisms that delivered the situation
    as composed, digested information (what Section 1 calls awareness) —
    among the implemented mechanisms only CMI can, because the two-source
    deadline comparison is inexpressible in single-event content filters.

Expected shape (DESIGN.md): monitor-everything reaches raw recall 1.0 at an
order of magnitude more deliveries per user; worklist-only is precise but
blind to situations; content filtering sits between; CMI delivers the
situations at near-minimal delivery counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..events.event import Event
from ..events.producers import CONTEXT_EVENT_TYPE
from ..parallel.host import FederationBlueprint, ShardSpec
from ..parallel.router import ShardRouter
from ..baselines import (
    BaselineAdapter,
    ContentFilterPubSub,
    Delivery,
    EmailNotification,
    LogAnalysisAwareness,
    MonitorAllAwareness,
    WorklistOnlyAwareness,
)
from ..core.roles import Participant
from ..errors import WorkloadError
from ..federation.system import EnactmentSystem
from ..metrics.overload import GroundTruth, MechanismScore, score_mechanism
from ..metrics.report import render_table
from .taskforce import (
    INFO_REQUEST_CONTEXT,
    TASK_FORCE_DEADLINE,
    TaskForceApplication,
    InformationRequest,
    TaskForce,
)


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the synthetic crisis workload."""

    task_forces: int = 5
    members_per_force: int = 4
    requests_per_force: int = 2
    deadline_moves_per_force: int = 2
    violation_probability: float = 0.5
    participant_pool: int = 12
    seed: int = 11

    def __post_init__(self) -> None:
        if self.task_forces < 1:
            raise WorkloadError("workload needs at least one task force")
        if self.members_per_force < 2:
            raise WorkloadError("task forces need at least two members")
        if self.participant_pool < self.members_per_force:
            raise WorkloadError(
                "participant pool smaller than a single task force"
            )
        if not 0.0 <= self.violation_probability <= 1.0:
            raise WorkloadError("violation probability must be in [0, 1]")


@dataclass
class WorkloadResult:
    """Scores of every mechanism, in both leniency modes."""

    config: WorkloadConfig
    raw_scores: List[MechanismScore]
    digested_scores: List[MechanismScore]
    violations: int
    work_items: int
    cmi_deliveries: int

    def table(self, mode: str = "raw") -> str:
        from ..metrics.overload import SCORE_HEADERS

        scores = self.raw_scores if mode == "raw" else self.digested_scores
        return render_table(
            SCORE_HEADERS,
            [s.as_row() for s in scores],
            title=f"QE1 information overload — {mode} mode "
            f"({self.violations} violations, {self.work_items} work items)",
        )


class CrisisWorkload:
    """One seeded run of the comparison workload."""

    def __init__(self, config: Optional[WorkloadConfig] = None) -> None:
        self.config = config or WorkloadConfig()
        self.random = random.Random(self.config.seed)
        self.system = EnactmentSystem()
        self.app = TaskForceApplication(self.system)
        self.app.install_awareness()
        self._setup_participants()
        self._setup_baselines()
        #: (tick, context_id, frozenset of violated requestor ids)
        self._violations: List[Tuple[int, str, frozenset]] = []

    # -- setup --------------------------------------------------------------------

    def _setup_participants(self) -> None:
        roles = self.system.core.roles
        role = roles.define_role("epidemiologist")
        self.pool: List[Participant] = []
        for index in range(1, self.config.participant_pool + 1):
            participant = roles.register_participant(
                Participant(f"epi-{index}", f"epidemiologist-{index}")
            )
            role.add_member(participant)
            self.pool.append(participant)

    def _setup_baselines(self) -> None:
        core = self.system.core
        self.worklist_only = WorklistOnlyAwareness(
            core, self.system.coordination.worklists
        )
        self.monitor_all = MonitorAllAwareness(core, self.pool)
        self.content_filter = ContentFilterPubSub(core)
        # Every pool member over-subscribes to all deadline changes — the
        # best a content filter can do without composition or scoped roles.
        for participant in self.pool:
            self.content_filter.subscribe(
                participant.participant_id,
                lambda attrs: attrs.get("kind") == "context"
                and str(attrs.get("fieldName", "")).endswith("Deadline"),
                label="deadline-changes",
            )
        self.email = EmailNotification(core)
        # A static all-hands list notified when any information request
        # completes — the typical InConcert-style rule.
        self.email.add_rule(
            "information-request",
            "Completed",
            tuple(p.participant_id for p in self.pool),
        )
        # The Section 2 do-it-yourself option: a custom application that
        # polls the monitoring logs and reconstructs deadline violations.
        # It CAN derive the situation (custom code), but late (polling)
        # and over-broadly (no scoped roles in the log -> broadcast).
        self.log_analysis = LogAnalysisAwareness(
            core,
            recipients=tuple(p.participant_id for p in self.pool),
            poll_interval=25,
        )
        self.log_analysis.add_analysis(self._make_violation_analysis())

    def _make_violation_analysis(self):
        """Custom log analysis reconstructing Section 5.4 violations.

        State persists across polls: the latest request deadline per live
        information-request instance and the set of closed instances
        (observed through the activity log).
        """
        from ..workloads.taskforce import (
            INFO_REQUEST_CONTEXT,
            REQUEST_DEADLINE,
            TASK_FORCE_CONTEXT,
        )

        request_deadlines: Dict[str, int] = {}
        closed_instances: set = set()
        ir_schema_id = self.app.info_request_schema.schema_id

        def analysis(activity_slice, context_slice):
            detected = []
            # Replay both logs merged in time order, so a request closed
            # *after* a violation inside the same polling window does not
            # retroactively mask it.
            merged = sorted(
                [("activity", c.time, c) for c in activity_slice]
                + [("context", c.time, c) for c in context_slice],
                key=lambda entry: entry[1],
            )
            for kind, __, change in merged:
                if kind == "activity":
                    if (
                        change.activity_process_schema_id == ir_schema_id
                        and change.new_state in ("Completed", "Terminated")
                    ):
                        closed_instances.add(change.activity_instance_id)
                    continue
                if (
                    change.context_name == INFO_REQUEST_CONTEXT
                    and change.field_name == REQUEST_DEADLINE
                ):
                    for schema_id, instance_id in change.associations:
                        if schema_id == ir_schema_id:
                            request_deadlines[instance_id] = change.new_value
                elif (
                    change.context_name == TASK_FORCE_CONTEXT
                    and change.field_name == TASK_FORCE_DEADLINE
                ):
                    new_deadline = change.new_value
                    violated = False
                    for schema_id, instance_id in change.associations:
                        if schema_id != ir_schema_id:
                            continue
                        if instance_id in closed_instances:
                            continue
                        deadline = request_deadlines.get(instance_id)
                        if deadline is not None and new_deadline <= deadline:
                            violated = True
                    if violated:
                        detected.append(
                            (("violation", change.time), change.time)
                        )
            return detected

        return analysis

    # -- scenario -----------------------------------------------------------------------

    def run(self) -> WorkloadResult:
        for __ in range(self.config.task_forces):
            self._run_task_force()
        return self._score()

    def _run_task_force(self) -> None:
        members = self.random.sample(self.pool, self.config.members_per_force)
        leader = members[0]
        clock = self.system.clock
        clock.advance(self.random.randint(1, 4))
        base_deadline = clock.now() + 100
        task_force = self.app.create_task_force(leader, members, base_deadline)

        # Members file information requests with earlier deadlines.
        live_requests: List[InformationRequest] = []
        for index in range(self.config.requests_per_force):
            requestor = members[1 + index % (len(members) - 1)]
            clock.advance(self.random.randint(1, 3))
            request_deadline = base_deadline - self.random.randint(10, 40)
            live_requests.append(
                self.app.request_information(
                    task_force, requestor, request_deadline
                )
            )

        # The leader moves the task-force deadline; some moves violate.
        current_deadline = base_deadline
        for __ in range(self.config.deadline_moves_per_force):
            clock.advance(self.random.randint(1, 5))
            violate = self.random.random() < self.config.violation_probability
            if violate and live_requests:
                target = min(r.deadline for r in live_requests)
                new_deadline = target - self.random.randint(0, 5)
            else:
                new_deadline = current_deadline + self.random.randint(5, 20)
            self.app.change_task_force_deadline(task_force, new_deadline)
            current_deadline = new_deadline
            violated = frozenset(
                r.requestor.participant_id
                for r in live_requests
                if new_deadline <= r.deadline
            )
            if violated:
                context_id = task_force.process.context(
                    "TaskForceContext"
                ).context_id
                self._violations.append((clock.now(), context_id, violated))

        # Requests finish (their scoped Requestor roles expire).
        for request in live_requests:
            clock.advance(1)
            self.app.complete_request(request)

        # Members work the assessment activity.
        for participant in members:
            client = self.system.participant_client(participant)
            client.claim_and_complete_all()

    # -- scoring -----------------------------------------------------------------------

    def _ground_truth(self) -> GroundTruth:
        truth = GroundTruth(p.participant_id for p in self.pool)
        for tick, __, violated in self._violations:
            truth.add_fact(("violation", tick), violated, time=tick)
        for item in self.system.coordination.worklists.all_items():
            truth.add_fact(
                (
                    "work-item",
                    item.activity.parent_process_instance_id
                    or item.activity.instance_id,
                    item.activity.schema.name,
                ),
                (p.participant_id for p in item.candidates),
                time=item.offered_at,
            )
        return truth

    def _violation_ticks(self) -> Set[int]:
        return {tick for tick, __, ___ in self._violations}

    def _cmi_deliveries(self) -> List[Delivery]:
        """CMI's deliveries: worklist items plus awareness notifications.

        The CMI Client for Participants contains the worklist *and* the
        awareness information viewer (Section 6.1), so CMI's information
        channel is the union of both.
        """
        deliveries: List[Delivery] = list(self._translate_raw(self.worklist_only))
        queue = self.system.awareness.delivery.queue
        ticks = self._violation_ticks()
        for participant in self.pool:
            for notification in queue.pending(participant.participant_id):
                if (
                    notification.schema_name == "AS_InfoRequest"
                    and notification.time in ticks
                ):
                    key: Tuple = ("violation", notification.time)
                else:
                    key = ("cmi", notification.schema_name, notification.time)
                deliveries.append(
                    Delivery(participant.participant_id, key, notification.time)
                )
        return deliveries

    def _translate_raw(self, adapter: BaselineAdapter) -> List[Delivery]:
        """Raw-signal translation: primitive events that carried the
        situation at the right tick are credited with the situation key."""
        ticks = self._violation_ticks()
        work_item_keys = {
            (
                "state-change",
                item.activity.instance_id,
                "Ready",
            ): (
                "work-item",
                item.activity.parent_process_instance_id
                or item.activity.instance_id,
                item.activity.schema.name,
            )
            for item in self.system.coordination.worklists.all_items()
        }
        translated: List[Delivery] = []
        for delivery in adapter.deliveries():
            key = delivery.key
            if (
                key[0] == "context-change"
                and key[2] == TASK_FORCE_DEADLINE
                and delivery.time in ticks
            ):
                key = ("violation", delivery.time)
            elif key in work_item_keys:
                key = work_item_keys[key]
            translated.append(
                Delivery(delivery.participant_id, key, delivery.time)
            )
        return translated

    def _score(self) -> WorkloadResult:
        self.log_analysis.finish()  # flush the trailing poll window
        truth = self._ground_truth()
        cmi = self._cmi_deliveries()
        # The Section 2 do-it-yourself stack: the WfMS worklist plus the
        # custom log-analysis application on top (mirroring how CMI's
        # client combines the worklist with the awareness viewer).
        log_deliveries = list(self.log_analysis.deliveries())
        log_deliveries.extend(self._translate_raw(self.worklist_only))
        mechanisms_raw = [
            ("CMI customized awareness", cmi),
            (
                self.worklist_only.mechanism,
                self._translate_raw(self.worklist_only),
            ),
            (self.monitor_all.mechanism, self._translate_raw(self.monitor_all)),
            (
                self.content_filter.mechanism,
                self._translate_raw(self.content_filter),
            ),
            (self.email.mechanism, self._translate_raw(self.email)),
            ("worklist + " + self.log_analysis.mechanism, log_deliveries),
        ]
        raw_scores = [
            score_mechanism(name, deliveries, truth)
            for name, deliveries in mechanisms_raw
        ]
        # Digested mode: baselines keep their raw keys (no situation
        # credit for undigested primitives); work-item keys still count
        # because a worklist entry *is* digested work information.
        mechanisms_digested = [
            ("CMI customized awareness", cmi),
            (
                self.worklist_only.mechanism,
                list(self.worklist_only.deliveries()),
            ),
            (self.monitor_all.mechanism, list(self.monitor_all.deliveries())),
            (
                self.content_filter.mechanism,
                list(self.content_filter.deliveries()),
            ),
            (self.email.mechanism, list(self.email.deliveries())),
            # The log-analysis app *does* digest: its custom code composed
            # the situation, so its deliveries count in both modes.
            ("worklist + " + self.log_analysis.mechanism, log_deliveries),
        ]
        digested_scores = [
            score_mechanism(name, deliveries, truth)
            for name, deliveries in mechanisms_digested
        ]
        return WorkloadResult(
            config=self.config,
            raw_scores=raw_scores,
            digested_scores=digested_scores,
            violations=len(self._violations),
            work_items=len(self.system.coordination.worklists.all_items()),
            cmi_deliveries=len(cmi),
        )


# ---------------------------------------------------------------------------
# Deterministic shard-partitionable stream (QE11)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardStreamConfig:
    """Knobs of the seeded taskforce-style sharding workload.

    Each task force owns one named context (its affinity key), one
    process instance, one delivery team, and ``windows_per_force``
    awareness windows — a filter -> count -> rising-edge chain per
    window, with spread thresholds so every window fires exactly once
    per run.  Distinct context names per force give the router real keys
    to spread; distinct instance names per chain keep the plan cache
    from collapsing the per-event work the benchmark measures.

    ``force_weights`` skews the stream: force ``i`` emits
    ``events_per_force * force_weights[i]`` events (QE15 uses this to
    make one shard's keys hot).  Thresholds stay per-force fractions of
    that force's own stream length, so every window still fires exactly
    once and :meth:`ShardStreamWorkload.expected_notifications` stays
    exact whatever the skew.
    """

    forces: int = 8
    windows_per_force: int = 4
    events_per_force: int = 200
    members_per_team: int = 2
    seed: int = 23
    process_schema_id: str = "P-ShardTF"
    force_weights: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.forces < 1:
            raise WorkloadError("stream needs at least one task force")
        if self.windows_per_force < 1:
            raise WorkloadError("each force needs at least one window")
        if self.members_per_team < 1:
            raise WorkloadError("each team needs at least one member")
        if self.events_per_force < self.windows_per_force + 1:
            raise WorkloadError(
                "events_per_force must exceed windows_per_force so every "
                "edge threshold is crossed"
            )
        if self.force_weights:
            if len(self.force_weights) != self.forces:
                raise WorkloadError(
                    "force_weights must name one weight per force"
                )
            for weight in self.force_weights:
                if not isinstance(weight, int) or weight < 1:
                    raise WorkloadError(
                        "force weights must be positive integers"
                    )

    def events_for_force(self, force: int) -> int:
        """This force's stream length after applying its weight."""
        if self.force_weights:
            return self.events_per_force * self.force_weights[force]
        return self.events_per_force


class ShardStreamWorkload:
    """A seeded primitive-event stream plus the federation that reads it.

    The stream is pure data (``T_context`` events built directly, no
    CORE engine involved), so the identical workload can drive a serial
    engine, a serial-backend federation, and a process-backend
    federation — QE11's differential leans on that.  ``shard_slice``
    partitions the stream exactly as the
    :class:`~repro.parallel.router.ShardRouter` would: the union of the
    ``n`` slices is the unsharded stream, order preserved within each
    slice.
    """

    def __init__(self, config: Optional[ShardStreamConfig] = None) -> None:
        self.config = config or ShardStreamConfig()

    # -- identifiers -------------------------------------------------------

    def context_name(self, force: int) -> str:
        return f"TaskForceCtx{force:03d}"

    def instance_id(self, force: int) -> str:
        return f"tf-{force:03d}"

    def team_role(self, force: int) -> str:
        return f"team-{force:03d}"

    # -- federation bootstrap ----------------------------------------------

    def blueprint(self) -> FederationBlueprint:
        """Participants, teams, and one spec per force, as pure data."""
        config = self.config
        blueprint = FederationBlueprint()
        for force in range(config.forces):
            member_ids = []
            for member in range(config.members_per_team):
                participant_id = f"u-{force:03d}-{member}"
                blueprint.add_participant(
                    participant_id, f"analyst-{force:03d}-{member}"
                )
                member_ids.append(participant_id)
            blueprint.add_role(self.team_role(force), member_ids)
            blueprint.add_specification(
                ShardSpec(
                    spec_id=f"spec-tf-{force:03d}",
                    process_schema_id=config.process_schema_id,
                    text=self.specification_text(force),
                )
            )
        return blueprint

    def thresholds(self, force: int) -> List[int]:
        """Edge thresholds spread across *force*'s own stream length."""
        config = self.config
        windows = config.windows_per_force
        length = config.events_for_force(force)
        return [
            max(1, (length * (index + 1)) // (windows + 1))
            for index in range(windows)
        ]

    def specification_text(self, force: int) -> str:
        """One window: ``windows_per_force`` filter->count->edge chains."""
        context = self.context_name(force)
        lines: List[str] = []
        for index, threshold in enumerate(self.thresholds(force)):
            lines.append(
                f"d{index} = Filter_context[{context}, Deadline]"
                f"(ContextEvent)"
            )
            lines.append(f"n{index} = Count[](d{index})")
            lines.append(f"g{index} = Edge[>=, {threshold}](n{index})")
            lines.append(
                f'deliver g{index} to {self.team_role(force)} '
                f'as "deadline churn {index}" named AS_TF{force:03d}_{index}'
            )
        return "\n".join(lines)

    # -- the stream --------------------------------------------------------

    def events(self) -> List[Event]:
        """The full seeded stream, strictly time-ordered.

        Fresh :class:`Event` objects per call: producers stamp
        provenance onto the events they emit, so reusing one list across
        runs would leak state between them.
        """
        config = self.config
        rng = random.Random(config.seed)
        remaining = {
            force: config.events_for_force(force)
            for force in range(config.forces)
        }
        counts = {force: 0 for force in range(config.forces)}
        associations = {
            force: frozenset(
                {(config.process_schema_id, self.instance_id(force))}
            )
            for force in range(config.forces)
        }
        events: List[Event] = []
        time = 0
        live = list(range(config.forces))
        while live:
            # A seeded interleave: forces take turns in shuffled rounds,
            # so the global stream genuinely mixes affinity keys (the
            # shape a federation of concurrent task forces produces).
            rng.shuffle(live)
            for force in list(live):
                time += 1
                value = counts[force] + 1
                counts[force] = value
                events.append(
                    Event.trusted(
                        CONTEXT_EVENT_TYPE,
                        {
                            "time": time,
                            "source": "E_context",
                            "contextId": f"ctx-{self.instance_id(force)}",
                            "contextName": self.context_name(force),
                            "processAssociations": associations[force],
                            "fieldName": "Deadline",
                            "oldFieldValue": value - 1,
                            "newFieldValue": value,
                        },
                    )
                )
                remaining[force] -= 1
            live = [force for force in live if remaining[force]]
        return events

    def shard_slice(
        self, shard_count: int, shard: int, router: Optional[ShardRouter] = None
    ) -> List[Event]:
        """The sub-stream shard *shard* of *shard_count* would receive.

        Slices preserve stream order, are pairwise disjoint, and their
        union (merged back by ``time``) is exactly :meth:`events` — the
        property that makes a sharded run comparable to a serial one.
        """
        if not 0 <= shard < shard_count:
            raise WorkloadError(
                f"shard index {shard} out of range for {shard_count} shards"
            )
        events = self.events()
        owners = (router or ShardRouter()).shard_indices(events, shard_count)
        return [event for event, owner in zip(events, owners) if owner == shard]

    # -- ground truth ------------------------------------------------------

    def expected_recognitions(self) -> int:
        """Every edge fires exactly once per force (counts only rise)."""
        return self.config.forces * self.config.windows_per_force

    def expected_notifications(self) -> int:
        return self.expected_recognitions() * self.config.members_per_team
