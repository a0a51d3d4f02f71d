"""The layer replay of the traced run.

A slice of the workload's own seeded stream is cut into the batches the
facade ships (routed per shard, 128 events each) and pushed through
**one public function at a time**, in the harness process, with a timer
around every group of 16 batches.  That prices every layer on exactly
the data the workload gives it; the spans around the harness's calls
into the facade then say which of these prices can move the end-to-end
numbers.  The replay runs once per round, beside the phases it is
compared with, and a price is the mean of the better quarter of its
groups over all rounds, as every other number of the benchmark
(``harness.typical``).

Only the layers a workload's events actually cross are replayed: codec
costs are 0 on ``inproc_stream`` because no event is ever encoded
there, not because the codec is free.
"""

from __future__ import annotations

import os
import resource
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.durability.log import FrameLog
from repro.durability.snapshot import ShardSnapshot
from repro.events.producers import ContextEventProducer
from repro.parallel import ShardConfig, ShardedFederation
from repro.parallel.codec import BinaryDecoder, BinaryEncoder, events_frame
from repro.parallel.host import ShardHost
from repro.parallel.router import ShardRouter

from harness import (
    Harness,
    by_round,
    paced_layers,
    paired_ratio,
    peak_rss_mb,
    typical,
)
from streams import BULK_SLICES, FORCES, StreamRun

BATCH = ShardConfig().batch_size
FSYNC_EVERY = ShardConfig().fsync_every
SNAPSHOT_EVERY = ShardConfig().snapshot_every
#: Batches per timed group: 2 048 events, 5-200 ms depending on the layer.
GROUP = 16
#: Accounting limit of the traced run: how far the replay's sum may be
#: from the untraced wall clock where nothing overlaps.
MODEL_TOLERANCE = 0.10


def _batches(events: List[Any]) -> List[List[Any]]:
    return [events[i:i + BATCH] for i in range(0, len(events), BATCH)]


class LayerReplay:
    """Per-layer cost samples of one stream workload, round by round."""

    def __init__(self, harness: Harness, run: StreamRun) -> None:
        self.h = harness
        self.run = run
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Counts and sizes: the same every round.
        self.facts: Dict[str, float] = {}
        #: Σ of the replay costs (µs per event) of each round on its own.
        self.modelled: List[float] = []

    def _time(
        self,
        name: str,
        items: Sequence[Any],
        fn: Callable[[Any], Any],
        events_of: Callable[[Any], int] = len,
    ) -> None:
        """Time ``fn(item)`` over *items* in groups of ``GROUP``; one
        µs-per-event sample per group."""
        for start in range(0, len(items), GROUP):
            group = items[start:start + GROUP]
            count = sum(events_of(item) for item in group)
            started = time.perf_counter()
            for item in group:
                fn(item)
            self.samples[name].append(
                (time.perf_counter() - started) / count * 1e6
            )

    def round(self) -> None:
        sizes = self.run.sizes
        facts = self.facts
        shards = sizes.shards
        sharded = sizes.backend == "process"
        workload = self.run.workload(sizes.replay_events // FORCES)
        marks = {name: len(values) for name, values in self.samples.items()}

        # router: the facade asks for a shard per event, whatever the backend.
        events = workload.events()
        count = len(events)
        router = ShardRouter()
        slices: List[List[Any]] = [[] for __ in range(shards)]

        def route(batch: List[Any]) -> None:
            for event in batch:
                slices[router.shard_for(event, shards)].append(event)

        self._time("router.route_us_per_event", _batches(events), route)
        facts["router.shard_skew"] = max(map(len, slices)) / (count / shards)
        batches = [_batches(events_of_shard) for events_of_shard in slices]

        # codec: one encoder/decoder pair per channel, as on the pipes.
        if sharded:
            wire_bytes = 0
            for shard_batches in batches:
                encoder, decoder = BinaryEncoder(), BinaryDecoder()
                frames: List[bytes] = []
                self._time(
                    "codec.encode_us_per_event",
                    shard_batches,
                    lambda batch: frames.append(
                        encoder.encode_frame(events_frame(batch, "binary"))
                    ),
                )
                wire_bytes += sum(map(len, frames))
                self._time(
                    "codec.decode_us_per_event",
                    list(zip(frames, map(len, shard_batches))),
                    lambda pair: decoder.decode_payload(memoryview(pair[0])[4:]),
                    events_of=lambda pair: pair[1],
                )
            facts["codec.wire_bytes_per_event"] = wire_bytes / count

        # durability: the write-ahead journal of each shard over one bulk
        # slice — one snapshot period — then the compaction that follows
        # a snapshot: the journal is as long as the one the facade compacts.
        if sizes.durable:
            journaled = self.run.workload(sizes.bulk_slice // FORCES).events()
            directory = self.h.fresh_dir()
            written = fsyncs = 0
            for shard in range(shards):
                journal = FrameLog(
                    os.path.join(directory, f"journal-{shard}.log"),
                    fsync_every=FSYNC_EVERY,
                    codec="binary",
                )
                self._time(
                    "durability.append_us_per_event",
                    _batches(
                        [e for e in journaled if router.shard_for(e, shards) == shard]
                    ),
                    lambda batch: journal.append(events_frame(batch, "binary")),
                )
                journal.sync()
                written += journal.bytes_written
                # With fsync batching on, every physical write is
                # followed by one fsync.
                fsyncs += journal.writes_total
                started = time.perf_counter()
                journal.compact(journal.frame_count)
                self.samples["durability.compact_ms"].append(
                    (time.perf_counter() - started) * 1e3
                )
                journal.close()
            facts["durability.journal_bytes_per_event"] = written / len(journaled)
            facts["durability.fsyncs"] = float(fsyncs)

        # events: the source producer alone, nobody listening.
        self._time(
            "events.emit_us_per_event",
            _batches(workload.events()),
            ContextEventProducer().emit_batch,
        )

        # awareness: one host per shard with the specs deployed, fed its
        # slice batch by batch — producers, bus, detector plans, delivery.
        slices = [[] for __ in range(shards)]
        route(workload.events())
        blueprint, spare = self.run.churn_blueprint(
            workload.config.events_per_force, 4
        )
        hosts = []
        for shard in range(shards):
            host = ShardHost(shard, shards)
            host.wire_raw = sharded
            host.apply_blueprint(blueprint)
            hosts.append(host)
            self._time(
                "awareness.pipeline_us_per_event",
                _batches(slices[shard]),
                host.ingest,
            )
        stats = [host.stats() for host in hosts]
        facts["awareness.recognitions"] = float(
            sum(s["composites_recognized"] for s in stats)
        )
        facts["events.bus_published"] = float(sum(s["bus_published"] for s in stats))

        # durability: snapshot of a loaded host.
        if sizes.durable:
            path = os.path.join(self.h.fresh_dir(), "snapshot.json")
            started = time.perf_counter()
            ShardSnapshot(
                shard_id=0,
                frame_index=len(batches[0]),
                blueprint=blueprint.to_wire(),
                state=hosts[0].snapshot_state(),
                codec="binary",
            ).save(path)
            self.samples["durability.snapshot_ms"].append(
                (time.perf_counter() - started) * 1e3
            )
            facts["durability.snapshot_bytes"] = float(os.path.getsize(path))

        # host: hand the notifications over.
        started = time.perf_counter()
        notifications = sum(len(host.drain_results()) for host in hosts)
        self.samples["host.drain_us_per_notification"].append(
            (time.perf_counter() - started) / notifications * 1e6
        )
        self.h.check_count(
            "replay", notifications, workload.expected_notifications()
        )
        facts["notifications_per_event"] = notifications / count

        # awareness: deploy and undeploy on a loaded host.
        for spec in spare:
            started = time.perf_counter()
            hosts[0].deploy_spec(spec)
            deployed = time.perf_counter()
            hosts[0].undeploy_spec(spec.spec_id)
            self.samples["awareness.undeploy_ms"].append(
                (time.perf_counter() - deployed) * 1e3
            )
            self.samples["awareness.deploy_ms"].append((deployed - started) * 1e3)
        for host in hosts:
            host.close()

        # federation: the facade's gather + deterministic merge, on the
        # serial backend so nothing but the merge path is in it.
        with ShardedFederation(
            workload.blueprint(), ShardConfig(shards=shards, backend="serial")
        ) as federation:
            federation.ingest(workload.events())
            started = time.perf_counter()
            merged = federation.drain()
            self.samples["federation.merge_us_per_notification"].append(
                (time.perf_counter() - started) / len(merged) * 1e6
            )
        self.modelled.append(modelled_us_per_event(self.prices(marks)))

    def prices(self, since: Optional[Dict[str, int]] = None) -> Dict[str, float]:
        """Every replayed layer's typical cost, plus the counts; with
        *since*, over the samples taken after those marks only."""
        marks = since or {}
        prices = {
            name: typical(values[marks.get(name, 0):])
            for name, values in self.samples.items()
        }
        prices.update(self.facts)
        return prices


def modelled_us_per_event(layers: Dict[str, float]) -> float:
    """Σ of the replay costs, per event (layers not crossed are 0).

    ``federation.merge`` is a facade ``drain()`` on the serial backend
    and so already contains the hosts' ``drain_results``.  A shard
    snapshots and compacts once per ``SNAPSHOT_EVERY`` of its frames.
    """
    snapshot_ms = layers.get("durability.snapshot_ms", 0.0) + layers.get(
        "durability.compact_ms", 0.0
    )
    return (
        layers["router.route_us_per_event"]
        + layers.get("codec.encode_us_per_event", 0.0)
        + layers.get("codec.decode_us_per_event", 0.0)
        + layers.get("durability.append_us_per_event", 0.0)
        + snapshot_ms * 1e3 / (SNAPSHOT_EVERY * BATCH)
        + layers["awareness.pipeline_us_per_event"]
        + layers["federation.merge_us_per_notification"]
        * layers["notifications_per_event"]
    )


def stream_layers(harness: Harness, result: Dict[str, Any]) -> Dict[str, float]:
    layers = result["replay"].prices()
    samples, recovery, detail = result["samples"], result["recovery"], result["detail"]
    modelled = modelled_us_per_event(layers)
    del layers["notifications_per_event"]
    plain_wall = by_round(samples["plain_wall_us"], BULK_SLICES)
    layers.update(paced_layers(result))
    layers.update(
        {
            "durability.recoveries": float(recovery["recoveries"]) if recovery else 0.0,
            "durability.recovery_s": recovery["recovery_s"] if recovery else 0.0,
            "durability.snapshots": float(detail.get("snapshots", 0)),
            "facade.ingest_s": typical(samples["ingest_s"]),
            "facade.drain_wait_s": typical(samples["drain_wait_s"]),
            "facade.cpu_s": typical(samples["facade_cpu_s"]),
            "worker.cpu_s": typical(samples["worker_cpu_s"]),
            "facade.peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
            "worker.peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
            "mux.backpressure_stalls": float(detail.get("stalls", 0)),
            "parallel.frames_sent": float(detail.get("frames_sent", 0)),
            "fabric.unattributed_us_per_event": typical(samples["cpu_us_per_event"])
            - modelled,
            "trace.overhead_ratio": paired_ratio(
                by_round(samples["wall_us"], BULK_SLICES), plain_wall
            ),
            "trace.coverage_share": harness.spans.coverage_share("bulk.rep"),
        }
    )
    result["modelled_us_per_event"] = modelled
    if result["run"].sizes.backend == "serial":
        # One thread, nothing overlaps: the replay must add up to the
        # untraced wall clock, or this is a table and not a cost model.
        # Round by round, each replay against the plain repetition
        # beside it.
        ratio = paired_ratio(result["replay"].modelled, plain_wall)
        harness.account(
            f"cost model: the replay sums to {ratio:.3f} of the untraced bulk "
            f"wall clock per event ({modelled:.2f} us/event; limit "
            f"{MODEL_TOLERANCE:.0%})",
            abs(ratio - 1.0) <= MODEL_TOLERANCE,
        )
        result["model_ratio"] = ratio
    return layers
