"""``enactment_taskforce``: the paper's §5.4 path through the full
``EnactmentSystem``.

Task forces run in sequence on one system, so state accumulates as in a
long-lived federation: each one is ``create_task_force``, 6 ×
``request_information``, 6 × (``clock.advance(1)``;
``change_task_force_deadline``), 6 × ``complete_request`` — 19
application operations, deadlines seeded in 900–1100.  ``core`` and
``coordination`` carry the load here (``Compare2``, scoped-role
delivery, instance and context bookkeeping); router, codec, pipes and
journal do nothing.

The phases mirror the stream workloads, in rounds with a fresh system
each: **bulk** (closed loop), **paced** (open loop over the next slice
of the operation sequence; latency is return of the operation minus the
time it was due — delivery is synchronous, so that is when its
notification sits in the requestor's queue), **churn** (deploy and
undeploy an extra awareness window that sees no events between task
forces).
"""

from __future__ import annotations

import gc
import random
import resource
import time
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from repro import EnactmentSystem, Participant
from repro.awareness.dsl import compile_specification
from repro.workloads.taskforce import TaskForceApplication

from harness import (
    Harness,
    open_loop,
    paced_health,
    paced_layers,
    paired_ratio,
    peak_rss_mb,
    record_churn,
    record_latencies,
    percentile,
    typical,
)
from oracle import DeadlineOracle

MEMBERS = 3
REQUESTS = 6
BASE_DEADLINE = 1000
OPS_PER_FORCE = 1 + 3 * REQUESTS

#: Task forces per bulk repetition.  The cost per task force grows with
#: the number already on the system (200 take ~2.5x what 100 take).
BULK_FORCES = 200
PACED_RATE = 800

#: The extra window of the churn phase: a context no process creates.
CHURN_SPEC = (
    "d0 = Filter_context[NoSuchContext, Deadline](ContextEvent)\n"
    "n0 = Count[](d0)\n"
    "g0 = Edge[>=, 3](n0)\n"
    'deliver g0 to epidemiologist as "never" named AS_Churn_{index}'
)

Op = Tuple[str, int, int]


def operations(seed: int, forces: int) -> List[Op]:
    """The seeded operation sequence: ``(kind, index, deadline)``."""
    rng = random.Random(seed)
    ops: List[Op] = []
    for __ in range(forces):
        ops.append(("create_task_force", 0, BASE_DEADLINE))
        for k in range(REQUESTS):
            ops.append(("request_information", k, rng.randint(900, 1100)))
        for __ in range(REQUESTS):
            ops.append(("change_deadline", 0, rng.randint(900, 1100)))
        for k in range(REQUESTS):
            ops.append(("complete_request", k, 0))
    return ops


def predict(ops: List[Op]) -> DeadlineOracle:
    oracle = DeadlineOracle(MEMBERS)
    for kind, index, deadline in ops:
        if kind == "create_task_force":
            oracle.create_task_force()
        elif kind == "request_information":
            oracle.request(index % MEMBERS, deadline)
        elif kind == "change_deadline":
            oracle.move(deadline)
        else:
            oracle.complete(index)
    return oracle


class Application:
    """One system with the §5.4 application installed, and its driver."""

    def __init__(self, harness: Harness) -> None:
        self.h = harness
        started = time.perf_counter()
        self.system = harness.call("app.build", EnactmentSystem)
        role = self.system.core.roles.define_role("epidemiologist")
        self.members: List[Participant] = []
        for index in range(MEMBERS):
            participant = self.system.register_participant(
                Participant(f"u{index}", f"member-{index}")
            )
            role.add_member(participant)
            self.members.append(participant)
        self.app = TaskForceApplication(self.system, max_requests=REQUESTS)
        harness.call("app.install_awareness", self.app.install_awareness)
        self.setup_s = time.perf_counter() - started
        self._force: Any = None
        self._requests: List[Any] = []
        self._steps = {
            "create_task_force": self._create,
            "request_information": self._request,
            "change_deadline": self._move,
            "complete_request": self._complete,
        }

    # -- the four operation kinds --------------------------------------------

    def _create(self, index: int, deadline: int) -> None:
        self._force = self.app.create_task_force(
            self.members[0], self.members, deadline
        )
        self._requests = []

    def _request(self, index: int, deadline: int) -> None:
        self._requests.append(
            self.app.request_information(
                self._force, self.members[index % MEMBERS], deadline
            )
        )

    def _move(self, index: int, deadline: int) -> None:
        self.system.clock.advance(1)
        self.app.change_task_force_deadline(self._force, deadline)

    def _complete(self, index: int, deadline: int) -> None:
        self.app.complete_request(self._requests[index])

    def step(self, op: Op) -> None:
        kind, index, deadline = op
        self.h.call("app." + kind, self._steps[kind], index, deadline)

    # -- the oracle ------------------------------------------------------------

    def check(self, what: str, ops: List[Op]) -> Dict[str, int]:
        oracle = predict(ops)
        queue = self.system.awareness.delivery.queue
        got = [
            len(queue.pending(member.participant_id)) for member in self.members
        ]
        for index in range(MEMBERS):
            self.h.check_count(
                f"{what}: member {index}", got[index], oracle.expected[index]
            )
        stats = self.system.stats()
        self.h.check(
            f"{what}: {stats['undeliverable_events']} undeliverable events, "
            f"oracle says {oracle.undeliverable}",
            stats["undeliverable_events"] == oracle.undeliverable,
        )
        return stats


class EnactmentRun:
    """One run: rounds of bulk, bulk → paced → churn.

    A round runs the bulk sequence on two fresh systems (two samples);
    the paced and churn phases continue on the second, as they would on
    a long-lived federation: their latencies are those of a system that
    already holds a few hundred task forces, which is where this
    workload's cost is.
    """

    def __init__(self, harness: Harness) -> None:
        self.h = harness
        self.bulk_forces = BULK_FORCES // 20 if harness.smoke else BULK_FORCES
        self.paced_forces = (
            int(PACED_RATE * harness.paced_seconds) // OPS_PER_FORCE
        )
        self.ops = operations(
            harness.seed,
            self.bulk_forces + self.paced_forces + harness.churn_deploys,
        )
        self.stats: Dict[str, int] = {}

    def bulk(
        self, rep: str, plain: bool, samples: Dict[str, List[float]]
    ) -> Application:
        """A fresh system, the bulk sequence in a closed loop."""
        h = self.h
        ops = self.ops[:self.bulk_forces * OPS_PER_FORCE]
        recorder = h.spans
        if plain:
            h.spans = None
        gc.collect()
        with h.span("bulk.rep", rep=rep):
            application = Application(h)
            samples["setup_s"].append(application.setup_s)
            cpu_started = time.process_time()
            started = time.perf_counter()
            with h.span("app.ops"):
                for op in ops:
                    application.step(op)
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu_started
        h.spans = recorder
        samples["plain_wall_s" if plain else "wall_s"].append(wall)
        samples["events_per_s"].append(len(ops) / wall)
        samples["cpu_us_per_event"].append(cpu / len(ops) * 1e6)
        samples["cpu_s"].append(cpu)
        self.stats = application.check(f"{rep}", ops)
        return application

    def paced(
        self, application: Application, ops: List[Op], samples: Dict[str, List[float]]
    ) -> Dict[str, Any]:
        done: List[float] = []

        def serve(first: int, end: int) -> None:
            for k in range(first, end):
                application.step(ops[k])
                done.append(time.perf_counter())

        with self.h.span("paced"):
            t0, ticks = open_loop(len(ops), PACED_RATE, serve)
        latencies = [at - t0 - k / PACED_RATE for k, at in enumerate(done)]
        # The operations that trigger notifications are the deadline moves.
        samples["notify_ms"].extend(
            latencies[k] * 1e3
            for k, op in enumerate(ops)
            if op[0] == "change_deadline"
        )
        record_latencies(samples, latencies)
        return paced_health(ticks, t0, PACED_RATE)

    def churn(
        self, application: Application, ops: List[Op], samples: Dict[str, List[float]]
    ) -> None:
        """Deploy/undeploy an extra window between task forces, the way
        an application does on an ``EnactmentSystem``: create the
        window, compile the specification into it, deploy."""
        h = self.h
        awareness = application.system.awareness
        schema_id = application.app.info_request_schema.schema_id

        def deploy(index: int) -> Any:
            window = awareness.create_window(schema_id)
            compile_specification(window, CHURN_SPEC.format(index=index))
            return awareness.deploy(window)

        deploys: List[float] = []
        undeploys: List[float] = []
        with h.span("churn"):
            for index in range(h.churn_deploys):
                for op in ops[index * OPS_PER_FORCE:(index + 1) * OPS_PER_FORCE]:
                    application.step(op)
                started = time.perf_counter()
                detector = h.call("app.deploy", deploy, index)
                deployed = time.perf_counter()
                h.call("app.undeploy", awareness.undeploy, detector)
                undeploys.append(time.perf_counter() - deployed)
                deploys.append(deployed - started)
        record_churn(samples, deploys, undeploys)

    def one_round(self, index: int, samples: Dict[str, List[float]]) -> Dict[str, Any]:
        first = self.bulk_forces * OPS_PER_FORCE
        second = first + self.paced_forces * OPS_PER_FORCE
        # In the traced run the second repetition runs with the recorder
        # off: what the overhead ratio compares against.
        self.bulk(f"bulk-{index}", False, samples)
        application = self.bulk(
            f"plain-{index}", self.h.spans is not None, samples
        )
        health = self.paced(application, self.ops[first:second], samples)
        application.check(f"paced-{index}", self.ops[:second])
        self.churn(application, self.ops[second:], samples)
        application.check(f"churn-{index}", self.ops)
        for __ in range(self.h.setups_per_round):
            samples["setup_s"].append(Application(self.h).setup_s)
        return health


def run_enactment(harness: Harness, seconds: float) -> Dict[str, Any]:
    run = EnactmentRun(harness)
    samples: Dict[str, List[float]] = defaultdict(list)

    # A reduced repetition first: imports, allocator and code paths warm.
    recorder, harness.spans = harness.spans, None
    warm = Application(harness)
    for op in run.ops[:max(10, run.bulk_forces // 8) * OPS_PER_FORCE]:
        warm.step(op)
    del warm
    harness.spans = recorder

    health = harness.run_rounds(
        seconds, PACED_RATE, lambda index: run.one_round(index, samples)
    )
    return {
        "run": run,
        "rounds": len(health),
        "samples": samples,
        "health": health,
        "forces": run.bulk_forces,
        "stats": run.stats,
    }


def enactment_layers(harness: Harness, result: Dict[str, Any]) -> Dict[str, float]:
    spans = harness.spans
    samples, stats = result["samples"], result["stats"]
    ops = result["forces"] * OPS_PER_FORCE
    # The operation spans of the traced bulk repetitions.
    parents = {
        index for index, row in enumerate(spans.rows)
        if row[0] == "app.ops" and str(row[4]).startswith("bulk-")
    }
    by_kind: Dict[str, List[float]] = {}
    in_ops: Dict[int, float] = dict.fromkeys(parents, 0.0)
    for row in spans.rows:
        if row[3] in parents:
            by_kind.setdefault(row[0], []).append(row[2] - row[1])
            in_ops[row[3]] += row[2] - row[1]
    outside = [
        (spans.rows[index][2] - spans.rows[index][1] - inside) / ops * 1e6
        for index, inside in in_ops.items()
    ]

    def p50_us(kind: str) -> float:
        return percentile(sorted(by_kind["app." + kind]), 0.5) * 1e6

    layers = paced_layers(result)
    layers.update(
        {
            "facade.ingest_s": typical(list(in_ops.values())),
            "facade.cpu_s": typical(samples["cpu_s"]),
            "facade.peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
            "awareness.recognitions": float(stats["composites_recognized"]),
            "awareness.deploy_ms": typical(samples["deploy_ms_p50"]),
            "awareness.undeploy_ms": typical(samples["undeploy_ms"]),
            "events.bus_published": float(stats["bus_events_published"]),
            "app.create_task_force_us": p50_us("create_task_force"),
            "app.request_information_us": p50_us("request_information"),
            "app.change_deadline_us": p50_us("change_deadline"),
            "app.complete_request_us": p50_us("complete_request"),
            "core.contexts_total": float(result["forces"] * (1 + REQUESTS)),
            "core.instances_total": float(stats["instances_total"]),
            "coordination.work_items_total": float(stats["work_items_total"]),
            # What the operation spans do not explain: the harness's loop.
            "fabric.unattributed_us_per_event": typical(outside),
            "trace.overhead_ratio": paired_ratio(
                samples["wall_s"], samples["plain_wall_s"]
            ),
            "trace.coverage_share": spans.coverage_share("bulk.rep"),
        }
    )
    return layers
