"""Command-line interface: run the paper's scenarios from a shell.

``python -m repro <command>`` exposes the library's headline flows:

* ``demo`` — the Section 5.4 deadline-violation walkthrough;
* ``epidemic`` — the Figure 1 crisis information-gathering scenario;
* ``overload`` — the QE1 comparison tables (CMI vs baselines);
* ``demonstration`` — the Section 7-scale run with paper-vs-measured rows;
* ``trace`` — the demonstration run under pipeline instrumentation:
  recognition provenance chains for delivered notifications plus the
  per-stage latency summary; ``--shards N`` instead runs the seeded
  shard workload and shows the *assembled cross-shard traces* (one
  logical trace per ship wave, holding every shard's spans) plus the
  per-shard stage p95 table;
* ``health`` — the demonstration run with self-awareness attached: the
  per-system SLO rule states and the federation rollup (exit code 0 =
  ok, 1 = degraded, 2 = failing); ``--shards N`` evaluates the SLO
  rules against the *merged worker registries* of a sharded federation
  instead — a breach inside any one worker sets the exit code;
* ``export`` — a Prometheus text-exposition snapshot: the demonstration
  run's registry, or (``--shards N``) the merged federation registry
  with one ``shard``-labelled series per worker;
* ``top`` — a live federation dashboard driven by CMI's own awareness
  pipeline: queues, delivery lag, firing alerts, hottest detectors;
* ``plans`` — deploy a fleet of per-participant copies of one awareness
  specification and show how the plan cache shares their operator nodes
  and which generated segment each node runs in;
* ``journal`` — inspect (and optionally compact) the write-ahead
  journals and snapshots a durable sharded run left behind;
* ``check-spec`` — parse and validate an awareness specification written
  in the DSL, printing the resulting window (a designer's lint step).

``shards`` and ``top`` accept ``--durable DIR`` to run their sharded
federation with per-shard write-ahead journaling and crash recovery
(process backend).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from . import EnactmentSystem, Participant
from .errors import ReproError
from .events.event import Event
from .observability.provenance import ProvenanceNode


def _cmd_demo(args: argparse.Namespace) -> int:
    from .workloads.taskforce import TaskForceApplication

    system = EnactmentSystem()
    lee = system.register_participant(Participant("u-lee", "dr-lee"))
    kim = system.register_participant(Participant("u-kim", "dr-kim"))
    role = system.core.roles.define_role("epidemiologist")
    role.add_member(lee)
    role.add_member(kim)
    app = TaskForceApplication(system)
    app.install_awareness()
    print(app.window.render())
    task_force = app.create_task_force(lee, [lee, kim], deadline=200)
    request = app.request_information(task_force, kim, deadline=150)
    print("\ntask force deadline 200; dr-kim's request deadline 150")
    app.change_task_force_deadline(task_force, 120)
    print("dr-lee moves the task force deadline to 120 -> violation\n")
    for notification in system.participant_client(kim).check_awareness():
        print(f"[dr-kim's viewer] {notification.description}")
    app.complete_request(request)
    return 0


def _cmd_epidemic(args: argparse.Namespace) -> int:
    from .workloads.epidemic import EpidemicScenario

    report = EpidemicScenario(EnactmentSystem(), seed=args.seed).run()
    print(report.timeline)
    print(
        f"\nlab tests: {report.lab_tests_run} (positive at "
        f"{report.positive_test}); vector task force: "
        f"{report.vector_tf_started}; expertise rounds: "
        f"{report.expertise_rounds}"
    )
    print(f"awareness: {report.notifications_by_participant}")
    return 0


def _cmd_overload(args: argparse.Namespace) -> int:
    from .workloads.generator import CrisisWorkload, WorkloadConfig

    config = WorkloadConfig(task_forces=args.task_forces, seed=args.seed)
    result = CrisisWorkload(config).run()
    print(result.table("raw"))
    print()
    print(result.table("digested"))
    return 0


def _cmd_demonstration(args: argparse.Namespace) -> int:
    from .metrics.report import render_table
    from .workloads.demonstration import build_demonstration

    report = build_demonstration(seed=args.seed).run()
    rows = [
        ("collaboration processes", "9", report.process_schemas),
        ("CMM activities", "> 50", report.cmm_activities),
        ("WfMS activities", "a few hundred", report.wfms_activities),
        ("awareness specifications", "8", report.awareness_specifications),
        ("context scripts", "30", report.context_scripts),
        (
            "all functionality provided",
            "yes",
            "yes" if report.all_functionality_provided else "NO",
        ),
    ]
    print(render_table(("statistic", "paper", "measured"), rows))
    return 0


@contextmanager
def _observed_federation(args: argparse.Namespace) -> Iterator[Any]:
    """The seeded shard workload, ingested into a federation that traces
    every wave and ships its workers' logs — what ``trace``, ``health``
    and ``export`` read with ``--shards``."""
    from .parallel import ShardConfig, ShardedFederation
    from .workloads.generator import ShardStreamConfig, ShardStreamWorkload

    workload = ShardStreamWorkload(
        ShardStreamConfig(
            forces=max(4, args.shards * 2),
            windows_per_force=2,
            events_per_force=40,
            seed=args.seed,
        )
    )
    config = ShardConfig(
        shards=args.shards,
        backend=args.backend,
        batch_size=32,
        instrument=True,
        ship_logs=True,
        trace_sample_every=1,
    )
    with ShardedFederation(workload.blueprint(), config) as federation:
        federation.ingest(workload.events())
        yield federation


def _cmd_trace_shards(args: argparse.Namespace) -> int:
    import json

    from .metrics.report import render_table
    from .observability import stage_p95

    with _observed_federation(args) as federation:
        federation.drain()
        federation.refresh_observability()
        assembler = federation.trace_assembler
        traces = federation.traces()
        p95 = stage_p95(federation.metrics_registry())

    shown = list(traces[-args.limit :] if args.limit else traces)
    if args.json:
        print(
            json.dumps(
                {
                    "traces": [
                        dict(
                            trace,
                            shards=list(assembler.shards_of(trace)),
                        )
                        for trace in shown
                    ],
                    "orphaned": assembler.orphaned,
                    "evicted": assembler.evicted,
                    "stage_p95_us": {
                        f"shard={shard}/{stage}": round(value, 3)
                        for (shard, stage), value in p95.items()
                    },
                },
                indent=2,
                default=str,
            )
        )
        return 0
    if not traces:
        print("no traces were assembled; nothing to show")
        return 1
    print(
        f"{len(traces)} cross-shard trace(s) assembled; "
        f"showing the last {len(shown)}:\n"
    )
    for trace in shown:
        print(assembler.render(trace))
        print()
    if p95:
        rows = [
            (shard, stage, f"{value:.1f}")
            for (shard, stage), value in p95.items()
        ]
        print(
            render_table(
                ("shard", "stage", "p95 us"),
                rows,
                title="stage p95 per shard",
            )
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .metrics.report import render_table
    from .observability import instrumented
    from .workloads.demonstration import build_demonstration

    if args.shards > 0:
        return _cmd_trace_shards(args)
    with instrumented() as obs:
        build_demonstration(seed=args.seed).run()

    deliveries = obs.provenance.recent_deliveries()
    shown = deliveries[-args.limit :] if args.limit else deliveries
    if args.json:
        print(
            json.dumps(
                {
                    "deliveries": [record.to_dict() for record in shown],
                    "stages": {
                        stage: {"spans": count, "mean_us": round(mean, 3)}
                        for stage, (count, mean) in obs.tracer.stage_summary().items()
                    },
                    "traces": obs.tracer.export_json(),
                },
                indent=2,
                default=str,
            )
        )
        return 0
    if not deliveries:
        print("no notifications were delivered; nothing to trace")
        return 1
    print(
        f"{len(deliveries)} notification(s) delivered; "
        f"showing the last {len(shown)} with recognition provenance:\n"
    )
    for record in shown:
        print(record.render())
        print()
    rows = [
        (stage, count, f"{mean:.1f}")
        for stage, (count, mean) in sorted(obs.tracer.stage_summary().items())
    ]
    print(render_table(("stage", "spans", "mean us"), rows, title="pipeline stages"))
    return 0


def _parse_limit_overrides(pairs: List[str]) -> dict:
    overrides = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ReproError(
                f"--limit takes rule=value pairs, got {pair!r}"
            )
        try:
            overrides[name] = int(value)
        except ValueError:
            raise ReproError(
                f"--limit value for {name!r} must be an integer, "
                f"got {value!r}"
            ) from None
    return overrides


def _cmd_health_shards(args: argparse.Namespace, rules: list) -> int:
    import json

    with _observed_federation(args) as federation:
        if args.no_drain:
            # Leave the participant queues full: worker-side backpressure
            # gauges (queue depth, delivery lag) stay observable so their
            # SLO rules can actually fire.
            federation.flush_buffers()
        else:
            federation.drain()
        health = federation.health(tuple(rules))
        stats = federation.stats()
        dropped = federation.logs().dropped()

    if args.json:
        payload = health.as_dict()
        payload["federation"] = {
            "shards": args.shards,
            "backend": args.backend,
            "stats": stats,
            "logs_dropped": {
                str(shard): count for shard, count in dropped.items()
            },
        }
        print(json.dumps(payload, indent=2, default=str))
    else:
        firing = health.firing()
        print(
            f"federation: {health.status} — {len(firing)} rule(s) firing, "
            f"{stats['shards_alive']}/{args.shards} shard(s) alive "
            f"({args.backend} backend)"
        )
        for state in health.rules:
            print(
                f"  {state.rule.name:<20} "
                f"{'FIRING' if state.firing else 'ok':<6} "
                f"last={state.last_value}"
            )
    return health.exit_code


def _cmd_health(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from .observability import instrumented
    from .observability.health import default_rules
    from .observability.selfawareness import (
        FederationHealthView,
        SelfAwareness,
    )
    from .workloads.demonstration import build_demonstration

    overrides = _parse_limit_overrides(args.limit)
    rules = []
    for rule in default_rules():
        if rule.name in overrides:
            rule = dataclasses.replace(rule, limit=overrides.pop(rule.name))
        rules.append(rule)
    if overrides:
        known = ", ".join(r.name for r in default_rules())
        raise ReproError(
            f"unknown rule(s) in --limit: {sorted(overrides)}; "
            f"default rules: {known}"
        )

    if args.shards > 0:
        return _cmd_health_shards(args, rules)
    with instrumented():
        builder = build_demonstration(seed=args.seed)
        awareness = SelfAwareness(
            builder.system, rules=tuple(rules), interval=args.interval
        )
        builder.run()
        awareness.sample_now()
        view = FederationHealthView([awareness])
        rollup = view.rollup()
        alerts = awareness.alerts()
        if args.json:
            payload = view.as_dict()
            payload["alerts"] = [
                {
                    "participant": alert.participant_id,
                    "time": alert.time,
                    "schema": alert.schema_name,
                    "description": alert.description,
                    "provenance": alert.parameters.get("provenance"),
                }
                for alert in alerts
            ]
            print(json.dumps(payload, indent=2, default=str))
        else:
            print(view.render())
            if alerts:
                print(f"\n{len(alerts)} alert notification(s):")
                for alert in alerts:
                    print(f"  t={alert.time} [{alert.schema_name}] "
                          f"{alert.description}")
    return rollup.exit_code


def _cmd_export(args: argparse.Namespace) -> int:
    if args.shards > 0:
        with _observed_federation(args) as federation:
            federation.drain()
            federation.refresh_observability()
            text = federation.render_metrics()
        print(text)
        return 0

    from .workloads.demonstration import build_demonstration

    builder = build_demonstration(seed=args.seed)
    builder.run()
    print(builder.system.metrics.render_text())
    return 0


#: The per-shard table's columns: header, ``shard_stats()`` key.
_SHARD_COLUMNS = (
    ("shard", "shard"),
    ("alive", "alive"),
    ("events", "events_ingested"),
    ("queue", "queue_depth"),
    ("recognized", "composites_recognized"),
    ("notifs", "notifications"),
)
_PROCESS_COLUMNS = (("stalls", "stalls"),)
_DURABLE_COLUMNS = (("journal", "journal_frames"), ("recovered", "recoveries"))


def _shard_table(
    rows: List[Dict[str, Any]], process: bool, durable: bool, title: str = ""
) -> str:
    """The per-shard gauge table of ``repro shards`` and ``repro top``:
    ``stalls`` on the process backend, journal columns when durable."""
    from .metrics.report import render_table

    columns = list(_SHARD_COLUMNS)
    if process:
        columns += _PROCESS_COLUMNS
    if durable:
        columns += _DURABLE_COLUMNS
    body = [
        [
            ("yes" if row["alive"] else "NO") if key == "alive"
            else row.get(key, 0)
            for __, key in columns
        ]
        for row in rows
    ]
    return render_table([header for header, __ in columns], body, title)


def _cmd_shards(args: argparse.Namespace) -> int:
    import json

    from .parallel import ShardConfig, ShardedFederation
    from .workloads.generator import ShardStreamConfig, ShardStreamWorkload

    workload = ShardStreamWorkload(
        ShardStreamConfig(
            forces=args.forces,
            windows_per_force=args.windows,
            events_per_force=args.events,
            seed=args.seed,
        )
    )
    config = ShardConfig(
        shards=args.shards,
        backend=args.backend,
        durable_dir=args.durable,
        snapshot_every=args.snapshot_every,
    )
    with ShardedFederation(workload.blueprint(), config) as federation:
        federation.ingest(workload.events())
        notifications = federation.drain()
        rows = federation.shard_stats()
        totals = federation.stats()

    if args.json:
        print(
            json.dumps(
                {
                    "config": {
                        "shards": args.shards,
                        "backend": args.backend,
                        "forces": args.forces,
                        "windows_per_force": args.windows,
                        "events_per_force": args.events,
                        "seed": args.seed,
                        "durable": args.durable,
                    },
                    "shards": rows,
                    "totals": totals,
                    "notifications_merged": len(notifications),
                },
                indent=2,
            )
        )
        return 0

    print(
        f"{args.shards} shard(s), {args.backend} backend — "
        f"{totals['events_ingested']} events over {args.forces} task "
        f"forces, {len(notifications)} notifications merged\n"
    )
    print(
        _shard_table(
            rows, args.backend == "process", bool(args.durable),
            title="per-shard gauges",
        )
    )
    if not all(row["alive"] for row in rows):
        return 1
    return 0


def _displayable(value: Any) -> Any:
    """A decoded journal value as plain JSON for ``repro journal --dump``.

    Display only, owing no round trip: events become their type name
    and parameters (plus provenance), tuples lists, frozensets lists in
    ``repr`` order, non-string mapping keys their ``repr``.
    """
    if isinstance(value, Event):
        params = {k: v for k, v in value.params.items() if k != "type"}
        shown = {"type": value.type_name, "params": _displayable(params)}
        if value.provenance is not None:
            shown["provenance"] = _displayable(value.provenance)
        return shown
    if isinstance(value, ProvenanceNode):
        return {
            name: _displayable(getattr(value, name))
            for name in ProvenanceNode.__slots__
        }
    if isinstance(value, dict):
        return {
            key if isinstance(key, str) else repr(key): _displayable(member)
            for key, member in value.items()
        }
    if isinstance(value, frozenset):
        value = sorted(value, key=repr)
    if isinstance(value, (list, tuple)):
        return [_displayable(member) for member in value]
    return value


def _cmd_journal(args: argparse.Namespace) -> int:
    import json
    import os

    from .durability.log import compact_journal, load_journal
    from .durability.snapshot import ShardSnapshot
    from .durability.supervisor import JOURNAL_FILENAME, SNAPSHOT_FILENAME
    from .metrics.report import render_table

    targets: List[tuple] = []
    if os.path.isfile(args.dir):
        targets.append((os.path.basename(args.dir), args.dir, None))
    elif os.path.isdir(args.dir):
        for name in sorted(os.listdir(args.dir)):
            journal_path = os.path.join(args.dir, name, JOURNAL_FILENAME)
            if os.path.isfile(journal_path):
                targets.append(
                    (
                        name,
                        journal_path,
                        os.path.join(args.dir, name, SNAPSHOT_FILENAME),
                    )
                )
        if not targets and os.path.isfile(
            os.path.join(args.dir, JOURNAL_FILENAME)
        ):
            targets.append(
                (
                    os.path.basename(args.dir.rstrip(os.sep)),
                    os.path.join(args.dir, JOURNAL_FILENAME),
                    os.path.join(args.dir, SNAPSHOT_FILENAME),
                )
            )
    if not targets:
        print(f"error: no frame logs under {args.dir!r}", file=sys.stderr)
        return 1

    reports = []
    for name, journal_path, snapshot_path in targets:
        # One decoding pass per file; everything below reads from it.
        loaded = load_journal(journal_path)
        base = loaded.base
        payload_frames = len(loaded.payload)
        kinds: dict = {}
        frame_dump: List[dict] = []
        for frame in loaded.payload:
            kind = str(frame.get("kind"))
            kinds[kind] = kinds.get(kind, 0) + 1
            if args.dump:
                frame_dump.append(_displayable(frame))
        snapshot = None
        if snapshot_path is not None and os.path.exists(snapshot_path):
            snapshot = ShardSnapshot.load(snapshot_path)
        report = {
            "name": name,
            "path": journal_path,
            "frames": payload_frames,
            "base": base,
            "next_index": base + payload_frames,
            "bytes": os.path.getsize(journal_path),
            "torn_tail": loaded.torn,
            # Physical frames (a control frame included) by encoding: a
            # binary file no FrameLog has opened since an earlier build
            # wrote it still holds stream-interned frames.
            "self_contained": loaded.self_contained,
            "stream_interned": len(loaded.frames) - loaded.self_contained,
            "kinds": kinds,
            "snapshot_frame": (
                snapshot.frame_index if snapshot is not None else None
            ),
        }
        if args.dump:
            report["frame_list"] = frame_dump
        if args.compact:
            keep_from = (
                snapshot.frame_index if snapshot is not None else None
            )
            if keep_from is not None and keep_from > base:
                survivors = compact_journal(journal_path, loaded, keep_from)
                report["compacted_to"] = keep_from
                report["frames"] = survivors
                report["base"] = keep_from
                report["bytes"] = os.path.getsize(journal_path)
                report["self_contained"] = survivors + 1
                report["stream_interned"] = 0
        reports.append(report)

    if args.json:
        print(json.dumps({"journals": reports}, indent=2))
        return 0
    print(
        render_table(
            ("journal", "frames", "self-cont.", "interned", "base", "bytes",
             "torn", "snapshot@"),
            [
                (
                    report["name"],
                    report["frames"],
                    report["self_contained"],
                    report["stream_interned"],
                    report["base"],
                    report["bytes"],
                    "YES" if report["torn_tail"] else "no",
                    report["snapshot_frame"]
                    if report["snapshot_frame"] is not None
                    else "-",
                )
                for report in reports
            ],
            title="write-ahead journals",
        )
    )
    for report in reports:
        kinds = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(report["kinds"].items())
        )
        print(f"  {report['name']}: {kinds or 'empty'}")
        for frame in report.get("frame_list", ()):
            print(f"    {json.dumps(frame, sort_keys=True)}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .observability.selfawareness import (
        FederationHealthView,
        SelfAwareness,
    )
    from .workloads.taskforce import TaskForceApplication

    view = FederationHealthView()
    drivers = []
    for index in range(1, args.systems + 1):
        system = EnactmentSystem(name=f"cmi-{index}")
        lead = system.register_participant(
            Participant(f"lead-{index}", f"lead-{index}")
        )
        aide = system.register_participant(
            Participant(f"aide-{index}", f"aide-{index}")
        )
        role = system.core.roles.define_role("epidemiologist")
        role.add_member(lead)
        role.add_member(aide)
        app = TaskForceApplication(system)
        app.install_awareness()
        awareness = SelfAwareness(system, interval=args.interval)
        view.add(awareness)
        drivers.append((system, app, lead, aide, awareness))

    # When sharding is active the dashboard also drives a sharded
    # federation (serial backend — the gauges, not the speedup, are the
    # point here) and shows its per-shard column block.
    shard_federation = None
    shard_events: list = []
    shard_cursor = 0
    if args.shards > 1:
        from .parallel import ShardConfig, ShardedFederation
        from .workloads.generator import ShardStreamConfig, ShardStreamWorkload

        shard_workload = ShardStreamWorkload(
            ShardStreamConfig(forces=max(4, args.shards * 2))
        )
        # --durable flips the block to the process backend (the serial
        # loop has no worker to journal for or respawn).
        shard_federation = ShardedFederation(
            shard_workload.blueprint(),
            ShardConfig(
                shards=args.shards,
                backend="process" if args.durable else "serial",
                durable_dir=args.durable,
            ),
        )
        shard_events = shard_workload.events()

    def drive() -> None:
        """One round of load: a task force whose deadline move violates
        an open request deadline, then completion."""
        nonlocal shard_cursor
        for system, app, lead, aide, __ in drivers:
            now = system.clock.now()
            task_force = app.create_task_force(
                lead, [lead, aide], deadline=now + 80
            )
            request = app.request_information(
                task_force, aide, deadline=now + 60
            )
            app.change_task_force_deadline(task_force, now + 40)
            app.complete_request(request)
            system.clock.advance(args.interval)
        if shard_federation is not None and shard_cursor < len(shard_events):
            step = max(1, len(shard_events) // 16)
            chunk = shard_events[shard_cursor:shard_cursor + step]
            shard_cursor += step
            shard_federation.ingest(chunk)
            shard_federation.drain()

    def render() -> str:
        lines = [view.render(), "", "hottest detectors:"]
        for system, __, ___, ____, _____ in drivers:
            detectors = sorted(
                system.awareness.detectors(),
                key=lambda d: d.recognized,
                reverse=True,
            )[:3]
            for detector in detectors:
                names = ", ".join(
                    schema.name for schema in detector.window.schemas()
                )
                lines.append(
                    f"  {system.name:<12} {detector.recognized:>5}  {names}"
                )
        if shard_federation is not None:
            lines.append("")
            lines.append(
                f"shards ({shard_cursor}/{len(shard_events)} events fed):"
            )
            # Only --durable runs the block on the process backend.
            lines.append(
                _shard_table(
                    shard_federation.shard_stats(),
                    bool(args.durable),
                    bool(args.durable),
                )
            )
            health = shard_federation.health()
            lines.append(
                f"  federation health: {health.status} "
                f"({len(health.firing())} rule(s) firing)"
            )
        return "\n".join(lines)

    iteration = 0
    try:
        while args.iterations == 0 or iteration < args.iterations:
            iteration += 1
            drive()
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            print(f"repro top — iteration {iteration}")
            print(render())
            if args.refresh > 0:
                time.sleep(args.refresh)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        if shard_federation is not None:
            shard_federation.close()
    return 0


#: The fleet template used by ``repro plans``: every window shares the
#: same three-operator recognition chain; only the delivery role (and the
#: schema name) is customized per participant.
_FLEET_SPEC_TEMPLATE = """
spike = Filter_context[CrisisContext, CaseCount](ContextEvent)
surge = Count[](spike)
breach = Compare1[>=, 3](surge)
deliver breach to analysts-{index} using identity \\
    as "case count surged" named AS_Surge_{index}
"""


def _cmd_plans(args: argparse.Namespace) -> int:
    import json

    from .awareness.dsl import compile_specification
    from .metrics.report import render_table

    system = EnactmentSystem()
    planner = system.awareness.planner
    for index in range(args.windows):
        analyst = system.register_participant(
            Participant(f"u-{index}", f"analyst-{index}")
        )
        role = system.core.roles.define_role(f"analysts-{index}")
        role.add_member(analyst)
        window = system.awareness.create_window("P-Fleet")
        compile_specification(window, _FLEET_SPEC_TEMPLATE.format(index=index))
        system.awareness.deploy(window)
    stats = planner.stats()
    nodes = planner.describe()
    if args.json:
        print(json.dumps({"stats": stats, "nodes": nodes}, indent=2))
        return 0
    print(
        f"{stats['windows_deployed']} windows deployed; "
        f"{stats['operators_resolved']} operators resolved, "
        f"{stats['operators_deduped']} shared "
        f"({stats['nodes_live']} live plan nodes):\n"
    )
    rows = [
        (
            row["node_id"],
            row["instance"],
            row["operator"],
            row["segment"] or "-",
            row["refs"],
            row["consumers"],
        )
        for row in nodes
    ]
    print(
        render_table(
            ("node", "instance", "operator", "segment", "refs", "consumers"),
            rows,
        )
    )
    return 0


def _cmd_check_spec(args: argparse.Namespace) -> int:
    from .awareness.dsl import compile_specification
    from .awareness.specification import SpecificationWindow
    from .events.producers import ActivityEventProducer, ContextEventProducer

    with open(args.file) as handle:
        text = handle.read()
    window = SpecificationWindow(
        args.process_schema,
        {
            "ActivityEvent": ActivityEventProducer(),
            "ContextEvent": ContextEventProducer(),
        },
    )
    schemas = compile_specification(window, text)
    window.validate()
    print(f"OK: {len(schemas)} awareness schema(s)")
    print(window.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CMI reproduction: run the paper's scenarios",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="the Section 5.4 walkthrough")
    demo.set_defaults(handler=_cmd_demo)

    epidemic = commands.add_parser(
        "epidemic", help="the Figure 1 crisis scenario"
    )
    epidemic.add_argument("--seed", type=int, default=7)
    epidemic.set_defaults(handler=_cmd_epidemic)

    overload = commands.add_parser(
        "overload", help="the QE1 overload comparison"
    )
    overload.add_argument("--task-forces", type=int, default=6)
    overload.add_argument("--seed", type=int, default=11)
    overload.set_defaults(handler=_cmd_overload)

    demonstration = commands.add_parser(
        "demonstration", help="the Section 7-scale run"
    )
    demonstration.add_argument("--seed", type=int, default=3)
    demonstration.set_defaults(handler=_cmd_demonstration)

    trace = commands.add_parser(
        "trace",
        help="demonstration run with provenance chains + stage latencies",
    )
    trace.add_argument("--seed", type=int, default=3)
    trace.add_argument(
        "--limit",
        type=int,
        default=5,
        help="how many recent deliveries to show (0 = all recorded)",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit deliveries, stage summary, and raw traces as JSON",
    )
    trace.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run the seeded shard workload instead and show assembled "
        "cross-shard traces + per-shard stage p95 (>0 activates)",
    )
    trace.add_argument(
        "--backend",
        choices=("serial", "process"),
        default="serial",
        help="shard backend for --shards (serial = in-process loop)",
    )
    trace.set_defaults(handler=_cmd_trace)

    health = commands.add_parser(
        "health",
        help="demonstration run with self-awareness: SLO states + rollup",
    )
    health.add_argument("--seed", type=int, default=3)
    health.add_argument(
        "--interval",
        type=int,
        default=5,
        help="telemetry sampling interval in clock ticks",
    )
    health.add_argument(
        "--limit",
        action="append",
        default=[],
        metavar="RULE=VALUE",
        help="override a default rule's limit (repeatable), e.g. "
        "--limit queue-depth=10",
    )
    health.add_argument(
        "--json",
        action="store_true",
        help="emit the per-system states, rollup, and alerts as JSON",
    )
    health.add_argument(
        "--shards",
        type=int,
        default=0,
        help="evaluate the SLO rules against the merged worker registries "
        "of a sharded federation instead (>0 activates)",
    )
    health.add_argument(
        "--backend",
        choices=("serial", "process"),
        default="serial",
        help="shard backend for --shards (serial = in-process loop)",
    )
    health.add_argument(
        "--no-drain",
        action="store_true",
        help="with --shards: leave the participant queues undrained so "
        "worker-side backpressure SLOs (queue depth, delivery lag) are "
        "observable",
    )
    health.set_defaults(handler=_cmd_health)

    top = commands.add_parser(
        "top", help="live federation dashboard over the awareness pipeline"
    )
    top.add_argument(
        "--systems", type=int, default=2, help="federation size"
    )
    top.add_argument(
        "--interval",
        type=int,
        default=5,
        help="telemetry sampling interval in clock ticks",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="dashboard redraws before exiting (0 = until interrupted)",
    )
    top.add_argument(
        "--refresh",
        type=float,
        default=1.0,
        help="seconds between redraws",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append dashboards instead of clearing the screen",
    )
    top.add_argument(
        "--shards",
        type=int,
        default=1,
        help="also drive a sharded federation and show per-shard gauges "
        "(>1 activates the shard column block)",
    )
    top.add_argument(
        "--durable",
        metavar="DIR",
        default=None,
        help="journal the shard block's mutations under DIR and recover "
        "crashed workers (switches the block to the process backend)",
    )
    top.set_defaults(handler=_cmd_top)

    export = commands.add_parser(
        "export",
        help="Prometheus text snapshot: demonstration registry, or the "
        "merged federation registry with --shards",
    )
    export.add_argument("--seed", type=int, default=3)
    export.add_argument(
        "--shards",
        type=int,
        default=0,
        help="export the merged registry of a sharded run instead: one "
        "shard-labelled series per worker plus the facade's own "
        "(>0 activates)",
    )
    export.add_argument(
        "--backend",
        choices=("serial", "process"),
        default="serial",
        help="shard backend for --shards (serial = in-process loop)",
    )
    export.set_defaults(handler=_cmd_export)

    shards = commands.add_parser(
        "shards",
        help="run the seeded shard workload and show per-shard gauges",
    )
    shards.add_argument(
        "--shards", type=int, default=2, help="how many shards to run"
    )
    shards.add_argument(
        "--backend",
        choices=("serial", "process"),
        default="serial",
        help="serial = in-process loop; process = forked workers",
    )
    shards.add_argument(
        "--forces", type=int, default=8, help="task forces in the workload"
    )
    shards.add_argument(
        "--windows",
        type=int,
        default=4,
        help="awareness windows (detector chains) per force",
    )
    shards.add_argument(
        "--events", type=int, default=200, help="context events per force"
    )
    shards.add_argument("--seed", type=int, default=23)
    shards.add_argument(
        "--durable",
        metavar="DIR",
        default=None,
        help="write per-shard journals and snapshots under DIR and "
        "recover crashed workers (requires --backend process)",
    )
    shards.add_argument(
        "--snapshot-every",
        type=int,
        default=256,
        help="journal frames between shard snapshots (0 = never; "
        "only meaningful with --durable)",
    )
    shards.add_argument(
        "--json",
        action="store_true",
        help="emit per-shard gauges, totals, and the config as JSON",
    )
    shards.set_defaults(handler=_cmd_shards)

    journal = commands.add_parser(
        "journal",
        help="inspect the write-ahead journals of a durable shard run",
    )
    journal.add_argument(
        "dir",
        help="durable root directory (shard-N subdirectories), one "
        "shard directory, or a single frame-log file",
    )
    journal.add_argument(
        "--compact",
        action="store_true",
        help="drop journal frames the shard's snapshot already covers; "
        "it upgrades nothing (a journal or snapshot from before the "
        "binary codec is refused)",
    )
    journal.add_argument(
        "--dump",
        action="store_true",
        help="print every payload frame as JSON for reading (events "
        "render as type and parameters, tuples and frozensets as lists)",
    )
    journal.add_argument(
        "--json",
        action="store_true",
        help="emit the journal reports as JSON",
    )
    journal.set_defaults(handler=_cmd_journal)

    plans = commands.add_parser(
        "plans",
        help="deploy a fleet of customized windows and show plan sharing and segments",
    )
    plans.add_argument(
        "--windows",
        type=int,
        default=16,
        help="how many per-participant copies of the template to deploy",
    )
    plans.add_argument(
        "--json",
        action="store_true",
        help="emit the sharing stats and live plan nodes as JSON",
    )
    plans.set_defaults(handler=_cmd_plans)

    check = commands.add_parser(
        "check-spec", help="validate a DSL awareness specification"
    )
    check.add_argument("file", help="path to the specification text")
    check.add_argument(
        "--process-schema",
        default="P",
        help="process schema id the window is associated with",
    )
    check.set_defaults(handler=_cmd_check_spec)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
