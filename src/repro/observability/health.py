"""Health/SLO evaluation *through* the awareness pipeline itself.

CMI's self-awareness reuses the Figure 5 machinery end to end: the
telemetry source agent publishes ``T_system`` samples on the bus, and each
SLO rule compiles to ordinary awareness operators —
``Filter_system[metric] -> Edge[cmp, limit] -> Output`` — deployed as
a detector agent like any Section 5.1 awareness description.  An alert is
therefore a plain :class:`~repro.events.queues.Notification` in the
operator role's persistent queue, with the same provenance chain every
other notification carries (``repro trace`` resolves it).

Three rule kinds cover the classic SLO shapes:

* **threshold** — the sampled value breaches a limit now
  (:func:`threshold_rule`);
* **rate over window** — the metric increased too fast across the last N
  sampling passes (:func:`rate_rule`, backed by
  :meth:`~repro.awareness.sources.SystemTelemetrySource.watch_rate`);
* **absence/staleness** — a counter that should keep moving has not
  increased for N passes (:func:`staleness_rule`, backed by
  :meth:`~repro.awareness.sources.SystemTelemetrySource.watch_staleness`).

The evaluator additionally mirrors every rule against the sampling passes
(via the source's observer hook) so :meth:`HealthEvaluator.health` can
answer "what is firing right now" without draining any queue — the data
behind ``repro health`` and the federation rollup.  Whether a rule fires
is decided in one place, :meth:`RuleState.update` over an instrument's
:meth:`~repro.observability.registry.MetricsRegistry.readings`, and what
a set of rule states means in one place, :func:`status_of`; the sharded
federation (``repro health --shards``) reaches its verdict through the
same two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..awareness.engine import SYSTEM_SOURCE, AwarenessEngine
from ..awareness.operators.compare import named_bool_func_2
from ..awareness.sources import STAGE_P95_METRIC, Sample, SystemTelemetrySource
from ..core.roles import RoleRef
from ..errors import SpecificationError
from .logging import STRUCTURED_LOG as _LOG

#: Health severities; ``failing`` rules flip the whole system to failing.
SEVERITY_DEGRADED = "degraded"
SEVERITY_FAILING = "failing"

#: System statuses from best to worst (federation rollup takes the max).
STATUS_ORDER: Tuple[str, ...] = ("ok", SEVERITY_DEGRADED, SEVERITY_FAILING)

#: ``repro health`` exit codes per status.
STATUS_EXIT_CODES: Dict[str, int] = {
    "ok": 0,
    SEVERITY_DEGRADED: 1,
    SEVERITY_FAILING: 2,
}

#: Process-schema id the health window is authored against (the canonical
#: events' ``processInstanceId`` is the reporting system's name).
HEALTH_SCHEMA_ID = "SystemHealth"

#: The awareness delivery role health alerts resolve to.
DEFAULT_HEALTH_ROLE = "operator"


@dataclass(frozen=True)
class SloRule:
    """One service-level objective: ``cmp(metric_value, limit)`` = breach.

    ``metric`` is the *sampled* name the rule's filter watches (derived
    rules watch ``rate[m/w]`` / ``stale[m]`` and keep the underlying name
    in ``base_metric``).  ``series_label`` selects which of the metric's
    readings the rule sees: ``None`` is the instrument's total, a label
    string one series, ``"*"`` every reading (the rule breaches when
    *any* reading does).
    """

    name: str
    metric: str
    comparison: str
    limit: int
    severity: str = SEVERITY_DEGRADED
    description: str = ""
    kind: str = "threshold"
    window: Optional[int] = None
    base_metric: Optional[str] = None
    series_label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.severity not in (SEVERITY_DEGRADED, SEVERITY_FAILING):
            raise SpecificationError(
                f"rule {self.name!r}: severity must be "
                f"{SEVERITY_DEGRADED!r} or {SEVERITY_FAILING!r}, "
                f"got {self.severity!r}"
            )
        # Fails loudly on unknown comparison symbols.
        named_bool_func_2(self.comparison)

    def breached(self, value: int) -> bool:
        return bool(named_bool_func_2(self.comparison)(value, self.limit))

    def schema_name(self) -> str:
        return f"AS_Health_{self.name}"

    def user_description(self) -> str:
        if self.description:
            return self.description
        return f"SLO {self.name}: {self.metric} {self.comparison} {self.limit}"


def threshold_rule(
    name: str,
    metric: str,
    comparison: str,
    limit: int,
    severity: str = SEVERITY_DEGRADED,
    description: str = "",
    series_label: Optional[str] = None,
) -> SloRule:
    """A rule over the current sampled value of *metric*."""
    return SloRule(
        name=name,
        metric=metric,
        comparison=comparison,
        limit=limit,
        severity=severity,
        description=description,
        series_label=series_label,
    )


def rate_rule(
    name: str,
    metric: str,
    window: int,
    comparison: str,
    limit: int,
    severity: str = SEVERITY_DEGRADED,
    description: str = "",
) -> SloRule:
    """A rule over the increase of *metric* across *window* passes."""
    return SloRule(
        name=name,
        metric=f"rate[{metric}/{window}]",
        comparison=comparison,
        limit=limit,
        severity=severity,
        description=description,
        kind="rate",
        window=window,
        base_metric=metric,
    )


def staleness_rule(
    name: str,
    metric: str,
    max_stale: int,
    severity: str = SEVERITY_DEGRADED,
    description: str = "",
) -> SloRule:
    """A watchdog: fires when *metric* has not increased for more than
    *max_stale* consecutive sampling passes."""
    return SloRule(
        name=name,
        metric=f"stale[{metric}]",
        comparison=">",
        limit=max_stale,
        severity=severity,
        description=description,
        kind="staleness",
        base_metric=metric,
    )


def default_rules() -> Tuple[SloRule, ...]:
    """The out-of-the-box SLO set over the EnactmentSystem gauges."""
    return (
        threshold_rule(
            "queue-depth",
            "queue_depth",
            ">",
            50,
            description="Pending notifications piling up undelivered",
        ),
        threshold_rule(
            "delivery-lag",
            "delivery_lag",
            ">",
            100,
            description="Oldest pending notification waiting too long",
        ),
        rate_rule(
            "failure-rate",
            "bus_failed_total",
            5,
            ">",
            0,
            severity=SEVERITY_FAILING,
            description="Bus taps raising",
        ),
        threshold_rule(
            "timer-backlog",
            "timer_backlog",
            ">",
            100,
            description="Timer service backlog growing",
        ),
        threshold_rule(
            "journal-divergence",
            "journal_divergence",
            ">",
            0,
            description="Journal contains records recovery would refuse",
        ),
    )


@dataclass
class RuleState:
    """Live evaluation state of one deployed rule."""

    rule: SloRule
    firing: bool = False
    last_value: Optional[int] = None
    last_breach_tick: Optional[int] = None
    fired_count: int = 0

    def as_dict(self) -> Dict[str, Any]:
        rule = self.rule
        return {
            "metric": rule.metric,
            "comparison": rule.comparison,
            "limit": rule.limit,
            "severity": rule.severity,
            "kind": rule.kind,
            "firing": self.firing,
            "last_value": self.last_value,
            "last_breach_tick": self.last_breach_tick,
            "fired_count": self.fired_count,
        }

    def update(
        self, readings: Iterable[Tuple[Optional[str], int]], tick: int
    ) -> bool:
        """Fold one pass's readings of the rule's metric into the state;
        True when the rule fired or cleared.  Readings the rule's
        ``series_label`` does not select are ignored, and a pass with
        none it selects leaves the state as it was."""
        rule = self.rule
        wanted = rule.series_label
        relevant = [
            value
            for label, value in readings
            if wanted == "*" or label == wanted
        ]
        if not relevant:
            return False
        breaching = [value for value in relevant if rule.breached(value)]
        self.last_value = breaching[0] if breaching else max(relevant)
        if breaching:
            self.last_breach_tick = tick
            if self.firing:
                return False
            self.firing = True
            self.fired_count += 1
            return True
        if not self.firing:
            return False
        self.firing = False
        return True


@dataclass(frozen=True)
class SystemHealth:
    """One system's status plus the rule states behind it."""

    system: str
    status: str
    tick: int
    rules: Tuple[RuleState, ...] = field(default_factory=tuple)

    @property
    def exit_code(self) -> int:
        return STATUS_EXIT_CODES[self.status]

    def firing(self) -> Tuple[RuleState, ...]:
        return tuple(state for state in self.rules if state.firing)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "system": self.system,
            "status": self.status,
            "tick": self.tick,
            "rules": {
                state.rule.name: state.as_dict() for state in self.rules
            },
        }


class HealthEvaluator:
    """Compiles SLO rules onto the awareness pipeline and tracks them.

    Requires the telemetry source's producer to be registered on the
    engine as the :data:`~repro.awareness.engine.SYSTEM_SOURCE` diamond
    (``SelfAwareness`` does this wiring).  :meth:`deploy` authors one
    specification window with a ``Filter_system -> Edge -> Output``
    chain per rule and deploys it; alerts then flow to *role*'s queue
    with full provenance, while the evaluator's own rule states refresh
    on every sampling pass via the source observer hook.  ``Edge`` is
    the rising-edge comparison, so a breach episode alerts exactly once
    (at the transition) no matter how long it persists.
    """

    def __init__(
        self,
        awareness: AwarenessEngine,
        source: SystemTelemetrySource,
        system_name: str = "cmi",
        role: str = DEFAULT_HEALTH_ROLE,
        schema_id: str = HEALTH_SCHEMA_ID,
        rules: Optional[Tuple[SloRule, ...]] = None,
    ) -> None:
        self.awareness = awareness
        self.source = source
        self.system_name = system_name
        self.role = role
        self.schema_id = schema_id
        self._states: Dict[str, RuleState] = {}
        self._detector: Optional[Any] = None
        self._last_tick = source.clock.now()
        source.on_sample(self._evaluate)
        for rule in rules if rules is not None else default_rules():
            self.add_rule(rule)

    # -- rule management ---------------------------------------------------

    def add_rule(self, rule: SloRule) -> SloRule:
        """Register a rule (before :meth:`deploy`); derived-metric rules
        also install their rate/staleness watch on the source.

        The instrument the rule reads (a derived rule's ``base_metric``)
        must be on the source's registry, and joins the sampled set: a
        rule over an instrument nothing samples would never fire.
        """
        if self._detector is not None:
            raise SpecificationError(
                "health rules must be added before deploy(); undeploy the "
                "detector and redeploy to change the rule set"
            )
        if rule.name in self._states:
            raise SpecificationError(
                f"health rule {rule.name!r} already exists"
            )
        read = rule.base_metric or rule.metric
        if read != STAGE_P95_METRIC:
            if self.source.metrics.get(read) is None:
                raise SpecificationError(
                    f"health rule {rule.name!r} reads {read!r}, an "
                    f"instrument the system registry does not hold"
                )
            if read not in self.source.sampled_metrics:
                self.source.sampled_metrics += (read,)
        if rule.kind == "rate":
            assert rule.base_metric is not None and rule.window is not None
            self.source.watch_rate(rule.base_metric, rule.window)
        elif rule.kind == "staleness":
            assert rule.base_metric is not None
            self.source.watch_staleness(rule.base_metric)
        self._states[rule.name] = RuleState(rule=rule)
        return rule

    def rules(self) -> Tuple[SloRule, ...]:
        return tuple(state.rule for state in self._states.values())

    # -- deployment --------------------------------------------------------

    def deploy(self) -> Any:
        """Author the health window and deploy it as a detector agent."""
        if self._detector is not None:
            return self._detector
        window = self.awareness.create_window(self.schema_id)
        source_node = window.source(SYSTEM_SOURCE)
        for state in self._states.values():
            rule = state.rule
            watch = window.place(
                "Filter_system",
                rule.metric,
                rule.series_label,
                instance_name=f"watch_{rule.name}",
            )
            window.connect(source_node, watch, 0)
            comparison = named_bool_func_2(rule.comparison)
            check = window.place(
                "Edge",
                lambda value, c=comparison, t=rule.limit: c(value, t),
                instance_name=f"check_{rule.name}",
            )
            # Stash the textual form so window_to_dsl can decompile the
            # deployed health window like a hand-authored one.
            check._dsl_rendering = (  # type: ignore[attr-defined]
                f"Edge[{rule.comparison}, {rule.limit}]"
            )
            window.connect(watch, check, 0)
            window.output(
                check,
                RoleRef(self.role),
                user_description=rule.user_description(),
                schema_name=rule.schema_name(),
            )
        window.validate()
        self._detector = self.awareness.deploy(window)
        if _LOG.enabled:
            _LOG.emit(
                "health",
                "rules_deployed",
                system=self.system_name,
                tick=self.source.clock.now(),
                rules=sorted(self._states),
                role=self.role,
            )
        return self._detector

    # -- evaluation --------------------------------------------------------

    def _evaluate(self, samples: List[Sample], now: int) -> None:
        self._last_tick = now
        by_metric: Dict[str, List[Tuple[Optional[str], int]]] = {}
        for metric, label, value in samples:
            by_metric.setdefault(metric, []).append((label, value))
        for state in self._states.values():
            rule = state.rule
            changed = state.update(by_metric.get(rule.metric, ()), now)
            if not (changed and _LOG.enabled):
                continue
            if state.firing:
                _LOG.emit(
                    "health",
                    "slo_fired",
                    level="warning",
                    system=self.system_name,
                    tick=now,
                    rule=rule.name,
                    metric=rule.metric,
                    value=state.last_value,
                    limit=rule.limit,
                    severity=rule.severity,
                )
            else:
                _LOG.emit(
                    "health",
                    "slo_cleared",
                    system=self.system_name,
                    tick=now,
                    rule=rule.name,
                    metric=rule.metric,
                    value=state.last_value,
                )

    # -- status ------------------------------------------------------------

    def health(self) -> SystemHealth:
        """The system's current status from the mirrored rule states."""
        states = tuple(self._states.values())
        return SystemHealth(
            system=self.system_name,
            status=status_of(states),
            tick=self._last_tick,
            rules=states,
        )


def worst_status(statuses: Iterable[str]) -> str:
    """The worst of *statuses* under :data:`STATUS_ORDER` (ok if empty)."""
    worst = 0
    for status in statuses:
        worst = max(worst, STATUS_ORDER.index(status))
    return STATUS_ORDER[worst]


def status_of(states: Iterable[RuleState]) -> str:
    """What a set of rule states means: the worst severity among the
    firing rules, ``ok`` when none fires."""
    return worst_status(state.rule.severity for state in states if state.firing)
