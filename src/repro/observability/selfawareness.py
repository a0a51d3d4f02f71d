"""Wiring health awareness onto enactment systems, and the federation view.

:class:`SelfAwareness` is the one-call attach: given an
:class:`~repro.federation.system.EnactmentSystem` it registers the
``T_system`` telemetry producer as the engine's ``SystemEvent`` source,
deploys the SLO rules as a detector agent, and makes sure the operator
role is deliverable (registering a synthetic PROGRAM participant when the
role is empty — the paper's Section 4 organizational model admits
program participants, and an unattended system still needs its alerts
queued *somewhere* durable).

:class:`FederationHealthView` rolls several systems' health up into one
``ok``/``degraded``/``failing`` verdict — the data model behind
``repro health`` and ``repro top``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..awareness.engine import SYSTEM_SOURCE
from ..awareness.sources import DEFAULT_SAMPLING_INTERVAL, SystemTelemetrySource
from ..core.roles import Participant, ParticipantKind
from ..events.queues import Notification
from ..federation.system import EnactmentSystem
from .health import (
    DEFAULT_HEALTH_ROLE,
    STATUS_EXIT_CODES,
    HealthEvaluator,
    RuleState,
    SloRule,
    SystemHealth,
    check_rule,
    default_rules,
    status_of,
    worst_status,
)
from .registry import MetricsRegistry
from .trace import stage_p95


class SelfAwareness:
    """The health pipeline of one enactment system, fully wired.

    Construction is the deployment: after ``SelfAwareness(system)`` the
    telemetry source samples every *interval* clock ticks, the SLO
    detector is live on the bus, and alerts land in the *role* members'
    persistent queues.  :meth:`health` reads the current status without
    touching the queues; :meth:`alerts` drains the synthetic health
    agent's queue (when this wiring registered one).
    """

    #: Participant id of the synthetic alert receiver.
    AGENT_ID = "health-agent"

    def __init__(
        self,
        system: EnactmentSystem,
        rules: Optional[Tuple[SloRule, ...]] = None,
        interval: int = DEFAULT_SAMPLING_INTERVAL,
        role: str = DEFAULT_HEALTH_ROLE,
    ) -> None:
        self.system = system
        self.role = role
        if rules is None:
            rules = default_rules()
        # The source hooks the clock and files on the bus as it is built,
        # and neither lets go: the rules and the SystemEvent name are
        # checked first, so a refused attach leaves nothing sampling.
        names: Dict[str, SloRule] = {}
        for rule in rules:
            check_rule(rule, names, system.metrics)
            names[rule.name] = rule
        system.awareness.check_source_name(SYSTEM_SOURCE)
        self._ensure_deliverable_role(role)
        self.source = SystemTelemetrySource(
            system.clock,
            system.metrics,
            bus=system.bus,
            system_id=system.name,
            interval=interval,
        )
        self.evaluator = HealthEvaluator(
            system.awareness,
            self.source,
            system_name=system.name,
            role=role,
            rules=rules,
        )
        system.awareness.register_external_source(
            SYSTEM_SOURCE, self.source.producer
        )
        self.detector = self.evaluator.deploy()

    def _ensure_deliverable_role(self, role_name: str) -> None:
        roles = self.system.core.roles
        if roles.has_role(role_name):
            role = roles.role(role_name)
        else:
            role = roles.define_role(role_name)
        if role.members():
            return
        agent = Participant(
            self.AGENT_ID, "Health Agent", ParticipantKind.PROGRAM
        )
        roles.register_participant(agent)
        role.add_member(agent)

    # -- reading -----------------------------------------------------------

    def sample_now(self) -> None:
        """Force one sampling pass at the current tick."""
        self.source.sample_now()

    def health(self) -> SystemHealth:
        return self.evaluator.health()

    def alerts(self) -> Tuple[Notification, ...]:
        """Alert notifications pending in the synthetic agent's queue."""
        return self.system.awareness.delivery.queue.pending(self.AGENT_ID)


@dataclass(frozen=True)
class FederationHealth:
    """The rollup: the federation is as healthy as its sickest member."""

    status: str
    systems: Tuple[SystemHealth, ...]

    @property
    def exit_code(self) -> int:
        return STATUS_EXIT_CODES[self.status]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "federation": self.status,
            "systems": [health.as_dict() for health in self.systems],
        }


class FederationHealthView:
    """Aggregates N systems' self-awareness into one federation verdict."""

    def __init__(self, members: Iterable[SelfAwareness] = ()) -> None:
        self._members: Dict[str, SelfAwareness] = {}
        for member in members:
            self.add(member)

    def add(self, member: SelfAwareness) -> SelfAwareness:
        name = member.system.name
        if name in self._members:
            raise ValueError(
                f"federation already has a system named {name!r}; give "
                f"each EnactmentSystem a distinct name"
            )
        self._members[name] = member
        return member

    def members(self) -> Tuple[SelfAwareness, ...]:
        return tuple(self._members.values())

    def rollup(self) -> FederationHealth:
        healths = tuple(
            member.health() for member in self._members.values()
        )
        return FederationHealth(
            status=worst_status([health.status for health in healths]),
            systems=healths,
        )

    def as_dict(self) -> Dict[str, Any]:
        return self.rollup().as_dict()

    def render(self) -> str:
        """A fixed-width status table, one row per member system."""
        rollup = self.rollup()
        lines: List[str] = [
            f"{'SYSTEM':<12} {'STATUS':<9} {'TICK':>6} {'QUEUE':>6} "
            f"{'LAG':>5}  ALERTS"
        ]
        for health in rollup.systems:
            member = self._members[health.system]
            metrics = member.system.metrics
            queue_depth = int(
                member.system.awareness.delivery.queue.pending_count()
            )
            lag = int(metrics.value("delivery_lag"))
            firing = ", ".join(
                state.rule.name for state in health.firing()
            )
            lines.append(
                f"{health.system:<12} {health.status:<9} "
                f"{health.tick:>6} {queue_depth:>6} {lag:>5}  "
                f"{firing or '-'}"
            )
        lines.append(f"federation: {rollup.status}")
        return "\n".join(lines)


class FederationMetricsView:
    """The facade-side aggregate of every shard's metrics registry.

    Each shard ships a lossless :meth:`MetricsRegistry.snapshot` on its
    stats/flush frames; the view keeps the *latest* snapshot per shard
    and rebuilds a merged registry on demand, every instrument gaining a
    leading ``shard`` label (:meth:`MetricsRegistry.merge`).  Rebuilding
    from the latest snapshots (rather than merging incrementally) is
    what keeps counters correct — snapshots are cumulative, so folding
    two generations of the same shard would double-count.
    """

    def __init__(self) -> None:
        self._snapshots: Dict[int, Dict[str, Any]] = {}

    def update(self, shard: int, snapshot: Dict[str, Any]) -> None:
        """Replace *shard*'s latest registry snapshot."""
        self._snapshots[shard] = snapshot

    def shards(self) -> Tuple[int, ...]:
        return tuple(sorted(self._snapshots))

    def registry(self) -> MetricsRegistry:
        """The merged federation registry (one series per shard)."""
        merged = MetricsRegistry()
        for shard in sorted(self._snapshots):
            merged.merge(self._snapshots[shard], shard=str(shard))
        return merged

    def render_text(self) -> str:
        """Prometheus text exposition across the whole federation."""
        return self.registry().render_text()

    def stage_p95(self) -> Dict[Tuple[str, ...], float]:
        """p95 stage latency (µs) per ``(shard, stage)``: :func:`stage_p95`
        of the merged registry."""
        return stage_p95(self.registry())

    def health(
        self,
        rules: Optional[Tuple[SloRule, ...]] = None,
        tick: int = 0,
    ) -> SystemHealth:
        """Threshold SLO rules over every shard's latest snapshot.

        Each shard is read as its own system, exactly as ``repro health``
        reads one: its snapshot's :meth:`MetricsRegistry.readings`, so a
        rule on a labelled instrument sees that shard's total as well as
        its series.  One rule state per rule takes every shard's
        readings, so a breach in any one shard fires it and the
        federation is as sick as its sickest shard.  Rate and staleness
        rules are skipped: they need the sampling history a telemetry
        source keeps, and a point-in-time snapshot has none.
        """
        shards: List[MetricsRegistry] = []
        for shard in sorted(self._snapshots):
            registry = MetricsRegistry()
            registry.merge(self._snapshots[shard])
            shards.append(registry)
        states = tuple(
            RuleState(rule=rule)
            for rule in (rules if rules is not None else default_rules())
            if rule.kind == "threshold"
        )
        for state in states:
            state.update(
                [
                    (label, int(value))
                    for registry in shards
                    for label, value in registry.readings(state.rule.metric)
                ],
                tick,
            )
        return SystemHealth(
            system="federation",
            status=status_of(states),
            tick=tick,
            rules=states,
        )
