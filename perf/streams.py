"""The three stream workloads: ``inproc_stream``, ``sharded_stream``,
``durable_stream``.

All three push the seeded ``ShardStreamWorkload`` stream through a
``ShardedFederation``; they differ in which layers the events cross:

* ``inproc_stream`` — serial backend, one shard, 8 windows per force:
  ``events`` + ``awareness`` do the work, no router fan-out, no codec,
  no pipe, no journal.
* ``sharded_stream`` — process backend, two workers, 1 window per force
  (the paper's §7 ratio): the fabric (route → encode → pipe → decode →
  gather → merge) is a large share of the per-event cost.
* ``durable_stream`` — the same plus ``durable_dir``: journal append,
  fsync and snapshots sit in the facade's hot path, and a SIGKILLed
  worker is recovered.

A run is a sequence of **rounds**; every round runs each phase once on
a fresh federation.  Each phase yields a few samples per round (a
slice, a window, a group of calls) that all do the same work, and each
metric is the mean of the better quarter of its samples over the run
(``harness.typical``): the box has slow stretches, seconds to minutes
long, and spread over the rounds they cost every metric some of its
samples.  The phases:

* **bulk** — closed loop, one client: ``ingest(slice)`` then ``drain()``,
  ``BULK_SLICES`` slices of one stream; a sample is one slice.  On the
  process backend a slice is one full snapshot period
  (``snapshot_every`` frames on every shard), so every ``durable_stream``
  sample pays for exactly one snapshot and journal compaction per
  shard, wherever in the slice they fall.
* **paced** — open loop at a fixed rate with a 5 ms tick: each tick
  ingests every event due by now, then drains.  Latency is per event:
  return of the ``drain()`` covering it minus the time it was *due*;
  a sample is the p50 (p90) of one window of the segment.
* **churn** — ``drain(); deploy(spec); undeploy(spec_id)`` between
  chunks, with specs of forces that receive no events so the
  notification oracle stays exact; a sample is the median of four
  consecutive deploys.
* **recovery** (durable only, once, after the rounds) — SIGKILL a
  worker at fixed event indices, then time ``ingest(next chunk);
  drain()``.

Events are generated before the clock starts, a fresh ``events()`` list
per federation.  Set-up of every federation ends with one empty
``drain()`` so worker boot and spec deploy never leak into a timed
phase.
"""

from __future__ import annotations

import gc
import os
import signal
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.parallel import ShardConfig, ShardedFederation
from repro.parallel.host import FederationBlueprint, ShardSpec
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

from oracle import check_differential, check_recovered_stream
from harness import (
    Harness,
    median,
    open_loop,
    paced_health,
    process_cpu_seconds,
    record_churn,
    record_latencies,
)

FORCES = 16
BULK_SLICES = 2
RECOVERY_CHUNK = 2048
#: Events between two snapshots of every shard of a two-shard durable
#: federation (the stream routes half of its events to each shard).
SNAPSHOT_PERIOD = 2 * ShardConfig().snapshot_every * ShardConfig().batch_size


@dataclass(frozen=True)
class StreamSizes:
    """What one workload pushes through which configuration."""

    backend: str
    shards: int
    durable: bool
    windows: int
    #: Events of one bulk slice; a bulk stream is ``BULK_SLICES`` of them.
    bulk_slice: int
    #: Events the layer replay pushes through each layer per round.  The
    #: in-process replay is the bulk stream itself, so that it sees the
    #: same share of events that end in a notification; where there is
    #: one window per force that share is negligible either way.
    replay_events: int
    #: Open-loop rate (events/s) of the paced segment.
    paced_rate: int
    #: Events between two deploy/undeploy pairs of the churn segment.
    churn_chunk: int
    #: Events per force of the recovery stream (durable only).
    recovery_events_per_force: int = 0


SIZES: Dict[str, StreamSizes] = {
    "inproc_stream": StreamSizes(
        backend="serial",
        shards=1,
        durable=False,
        windows=8,
        bulk_slice=4096,
        replay_events=BULK_SLICES * 4096,
        paced_rate=5000,
        churn_chunk=128,
    ),
    "sharded_stream": StreamSizes(
        backend="process",
        shards=2,
        durable=False,
        windows=1,
        bulk_slice=SNAPSHOT_PERIOD,
        replay_events=16384,
        paced_rate=20000,
        churn_chunk=512,
    ),
    "durable_stream": StreamSizes(
        backend="process",
        shards=2,
        durable=True,
        windows=1,
        bulk_slice=SNAPSHOT_PERIOD,
        replay_events=16384,
        paced_rate=20000,
        churn_chunk=512,
        recovery_events_per_force=6000,
    ),
}


def smoke_sizes(sizes: StreamSizes) -> StreamSizes:
    """About 1/20 of the work, every phase and oracle still on."""
    return replace(
        sizes,
        bulk_slice=sizes.bulk_slice // 8,
        replay_events=sizes.replay_events // 8,
        churn_chunk=sizes.churn_chunk // 4,
        recovery_events_per_force=sizes.recovery_events_per_force // 8,
    )


def worker_pids(federation: ShardedFederation) -> List[int]:
    """Pids of the federation's workers (none on the serial backend)."""
    pids = []
    for shard in federation.shards:
        process = getattr(getattr(shard, "inner", shard), "process", None)
        if process is not None:
            pids.append(process.pid)
    return pids


def snapshots_taken(federation: ShardedFederation) -> int:
    """Snapshots this process's facades persisted so far, from the
    metrics page (its shard-labelled rows are what the forked workers
    inherited)."""
    for line in federation.render_metrics().splitlines():
        if line.startswith('shard_snapshots_total{shard="facade"}'):
            return int(float(line.rsplit(" ", 1)[1]))
    return 0


class StreamRun:
    """One run of one stream workload."""

    def __init__(self, harness: Harness, sizes: StreamSizes) -> None:
        self.h = harness
        self.sizes = smoke_sizes(sizes) if harness.smoke else sizes
        self.setup_s: List[float] = []
        self.detail: Dict[str, Any] = {}

    # -- building blocks ---------------------------------------------------

    def workload(
        self, events_per_force: int, forces: int = FORCES
    ) -> ShardStreamWorkload:
        return ShardStreamWorkload(
            ShardStreamConfig(
                forces=forces,
                windows_per_force=self.sizes.windows,
                events_per_force=max(self.sizes.windows + 1, events_per_force),
                seed=self.h.seed,
            )
        )

    def bulk_workload(self) -> ShardStreamWorkload:
        return self.workload(BULK_SLICES * self.sizes.bulk_slice // FORCES)

    def config(self, **overrides: Any) -> ShardConfig:
        sizes = self.sizes
        return ShardConfig(
            shards=sizes.shards,
            backend=sizes.backend,
            durable_dir=self.h.fresh_dir() if sizes.durable else None,
            **overrides,
        )

    def build(
        self,
        blueprint: FederationBlueprint,
        sample: bool = True,
        **overrides: Any,
    ) -> ShardedFederation:
        """Blueprint → federation → first empty drain returns.

        With *sample* the time is one ``setup_s`` sample (the churn
        phase's wider blueprint is not: the samples are to be alike).
        """
        config = self.config(**overrides)
        started = time.perf_counter()
        federation = self.h.call(
            "facade.build", ShardedFederation, blueprint, config
        )
        self.h.call("facade.drain", federation.drain)
        if sample:
            self.setup_s.append(time.perf_counter() - started)
        return federation

    def churn_blueprint(
        self, events_per_force: int, extra: int
    ) -> Tuple[FederationBlueprint, List[ShardSpec]]:
        """The blueprint of ``FORCES + extra`` forces with only the first
        ``FORCES`` specs deployed, and the *extra* specs: their forces
        have teams but receive no events, so deploying them changes no
        notification."""
        blueprint = self.workload(
            events_per_force, forces=FORCES + extra
        ).blueprint()
        spare = blueprint.specifications[FORCES:]
        blueprint.specifications = blueprint.specifications[:FORCES]
        return blueprint, spare

    # -- bulk --------------------------------------------------------------

    def bulk(
        self, rep: str, samples: Dict[str, List[float]], plain: bool = False
    ) -> None:
        """One federation, ``BULK_SLICES`` closed-loop slices of equal work.

        CPU per slice is the harness's own ``process_time`` plus what
        the workers spent on a CPU meanwhile, read from outside.  In the
        traced run every other repetition is *plain*: the recorder is
        off, which is what the overhead ratio and the cost model compare
        against.
        """
        h = self.h
        size = self.sizes.bulk_slice
        workload = self.bulk_workload()
        events = workload.events()
        recorder = h.spans
        if plain:
            h.spans = None
        with h.span("bulk.rep", rep=rep):
            federation = self.build(workload.blueprint())
            try:
                pids = worker_pids(federation)
                traced = recorder is not None and bool(pids)
                # The metrics registry is the process's: count from here.
                snapshots = snapshots_taken(federation) if traced else 0
                for index in range(BULK_SLICES):
                    batch = events[index * size:(index + 1) * size]
                    own = time.process_time()
                    workers = process_cpu_seconds(pids)
                    started = time.perf_counter()
                    h.call("facade.ingest", federation.ingest, batch)
                    ingested = time.perf_counter()
                    h.call("facade.drain", federation.drain)
                    finished = time.perf_counter()
                    workers = process_cpu_seconds(pids) - workers
                    own = time.process_time() - own
                    wall = finished - started
                    samples["plain_wall_us" if plain else "wall_us"].append(
                        wall / size * 1e6
                    )
                    samples["events_per_s"].append(size / wall)
                    samples["cpu_us_per_event"].append(
                        (own + workers) / size * 1e6
                    )
                    samples["ingest_s"].append(ingested - started)
                    samples["drain_wait_s"].append(finished - ingested)
                    samples["facade_cpu_s"].append(own)
                    samples["worker_cpu_s"].append(workers)
                delivered = len(federation.delivered)
                if traced:
                    rows = h.call("facade.stats", federation.shard_stats)
                    self.detail["stalls"] = sum(r.get("stalls", 0) for r in rows)
                    self.detail["frames_sent"] = sum(
                        r.get("frames_ingested", 0) for r in rows
                    )
                    self.detail["snapshots"] = (
                        h.call("facade.metrics", snapshots_taken, federation)
                        - snapshots
                    )
            finally:
                h.call("facade.close", federation.close)
        h.spans = recorder
        h.check_count(f"bulk {rep}", delivered, workload.expected_notifications())

    # -- paced -------------------------------------------------------------

    def paced(self, rep: str, samples: Dict[str, List[float]]) -> Dict[str, Any]:
        h = self.h
        rate = self.sizes.paced_rate
        workload = self.workload(int(rate * h.paced_seconds) // FORCES)
        events = workload.events()
        #: ``(event index the notification is about, drain return)``.
        notified: List[Tuple[int, float]] = []
        # An fsync every 16th frame (and a snapshot every 256th) makes
        # the tail a measure of the disk and unrepeatable (p90 55-136 ms
        # across runs on ext4): the paced journal appends and writes
        # every frame but leaves flushing to the OS.
        durable = {"fsync_every": 0, "snapshot_every": 0} if self.sizes.durable else {}
        with h.span("paced", rep=rep):
            federation = self.build(workload.blueprint(), **durable)

            def serve(first: int, end: int) -> None:
                h.call("facade.ingest", federation.ingest, events[first:end])
                merged = h.call("facade.drain", federation.drain)
                done = time.perf_counter()
                for notification in merged:
                    # Stream times are 1-based event positions.
                    notified.append((notification.time - 1, done))

            try:
                t0, ticks = open_loop(len(events), rate, serve)
                delivered = len(federation.delivered)
            finally:
                h.call("facade.close", federation.close)
        h.check_count("paced", delivered, workload.expected_notifications())
        latencies: List[float] = []
        for first, end, __, ___, finished in ticks:
            base = finished - t0
            latencies.extend(base - k / rate for k in range(first, end))
        samples["notify_ms"].extend(
            (done - (t0 + k / rate)) * 1e3 for k, done in notified
        )
        record_latencies(samples, latencies)
        return paced_health(ticks, t0, rate)

    # -- churn -------------------------------------------------------------

    def churn(self, rep: str, samples: Dict[str, List[float]]) -> None:
        """Deploy/undeploy between chunks: the plan cache's write path
        beside its read path (and, sharded, a fan-out + sync round trip)."""
        h = self.h
        chunk = self.sizes.churn_chunk
        rounds = h.churn_deploys
        per_force = rounds * chunk // FORCES
        workload = self.workload(per_force)
        events = workload.events()
        blueprint, spare = self.churn_blueprint(per_force, rounds)
        deploys: List[float] = []
        undeploys: List[float] = []
        with h.span("churn", rep=rep):
            federation = self.build(blueprint, sample=False)
            try:
                for index, spec in enumerate(spare):
                    h.call(
                        "facade.ingest",
                        federation.ingest,
                        events[index * chunk:(index + 1) * chunk],
                    )
                    h.call("facade.drain", federation.drain)
                    started = time.perf_counter()
                    h.call("facade.deploy", federation.deploy, spec)
                    deployed = time.perf_counter()
                    h.call("facade.undeploy", federation.undeploy, spec.spec_id)
                    undeploys.append(time.perf_counter() - deployed)
                    deploys.append(deployed - started)
                h.call("facade.ingest", federation.ingest, events[rounds * chunk:])
                h.call("facade.drain", federation.drain)
                delivered = len(federation.delivered)
            finally:
                h.call("facade.close", federation.close)
        h.check_count("churn", delivered, workload.expected_notifications())
        record_churn(samples, deploys, undeploys)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Set up and close once more: one more ``setup_s`` sample."""
        blueprint = self.bulk_workload().blueprint()
        with self.h.span("setup"):
            federation = self.build(blueprint)
            self.h.call("facade.close", federation.close)

    # -- recovery ----------------------------------------------------------

    def recovery(self) -> Dict[str, Any]:
        """SIGKILL workers mid-stream; the stream must come out exact."""
        h = self.h
        workload = self.workload(self.sizes.recovery_events_per_force)
        events = workload.events()
        total = len(events)
        kills = [total * share // 100 for share in (20, 35, 50, 65, 80)]
        chunk = min(RECOVERY_CHUNK, total // 10)
        cycles: List[float] = []
        with h.span("recovery", rep="recovery"):
            federation = self.build(workload.blueprint(), sample=False)
            try:
                sent = 0
                for index, at in enumerate(kills):
                    h.call("facade.ingest", federation.ingest, events[sent:at])
                    h.call("facade.drain", federation.drain)
                    worker = federation.shards[index % self.sizes.shards].inner
                    os.kill(worker.process.pid, signal.SIGKILL)
                    worker.process.join(10.0)
                    sent = at + chunk
                    started = time.perf_counter()
                    h.call("facade.ingest", federation.ingest, events[at:sent])
                    h.call("facade.drain", federation.drain)
                    cycles.append(time.perf_counter() - started)
                h.call("facade.ingest", federation.ingest, events[sent:])
                h.call("facade.drain", federation.drain)
                crashed = list(federation.delivered)
                recoveries = h.call("facade.stats", federation.stats)["recoveries"]
            finally:
                h.call("facade.close", federation.close)
        h.check("recovery: one recovery per kill", recoveries == len(kills))
        return {
            "recovery_s": median(cycles),
            "cycles": cycles,
            "recoveries": recoveries,
            "crashed": crashed,
            "workload": workload,
        }


def run_stream(harness: Harness, name: str, seconds: float) -> Dict[str, Any]:
    """Run every phase of stream workload *name*; returns its samples."""
    # Here, not at the top: replay.py imports this module.
    from replay import LayerReplay

    run = StreamRun(harness, SIZES[name])
    replay = LayerReplay(harness, run) if harness.spans is not None else None
    samples: Dict[str, List[float]] = defaultdict(list)

    # A reduced repetition first: imports, allocator and code paths warm.
    if not harness.smoke:
        StreamRun(harness, smoke_sizes(SIZES[name])).bulk(
            "warmup", defaultdict(list), plain=True
        )

    def one_round(index: int) -> Dict[str, Any]:
        gc.collect()
        run.bulk(f"bulk-{index}", samples)
        if harness.spans is not None:
            run.bulk(f"plain-{index}", samples, plain=True)
        health = run.paced(f"paced-{index}", samples)
        run.churn(f"churn-{index}", samples)
        for __ in range(harness.setups_per_round):
            run.setup()
        if replay is not None:
            replay.round()
        return health

    health = harness.run_rounds(seconds, run.sizes.paced_rate, one_round)
    recovery: Optional[Dict[str, Any]] = None
    if run.sizes.durable:
        recovery = run.recovery()
        check_recovered_stream(harness, run, recovery)
    samples["setup_s"] = list(run.setup_s)
    check_differential(harness, run)
    return {
        "run": run,
        "rounds": len(health),
        "samples": samples,
        "health": health,
        "replay": replay,
        "recovery": recovery,
        "detail": run.detail,
    }
