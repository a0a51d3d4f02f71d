"""QE12 — crash recovery: exactness and the cost of journaling.

The paper's prototype inherited durability from IBM FlowMark; the shard
supervisor gives the forked federation the same property: every frame is
journaled before dispatch, shard state is snapshotted periodically, and a
SIGKILLed worker is respawned from its snapshot plus journal tail with
already-merged notifications suppressed by ``(time, shard, seq)`` keys.

Two measurements:

* **Exact continuation** — a worker is SIGKILLed mid-stream; the
  crashed-and-recovered run must produce the identical multiset of
  delivery provenance signatures as an uninterrupted run, with
  per-process-instance order preserved.
* **Journaling overhead** — the durable process backend (write-ahead
  journal + snapshot cadence) vs the plain process backend on the same
  stream.  The ratio is recorded, not asserted: a wall-clock ratio
  flakes on parent and change alike, and ``perf/``'s ``durable_stream``
  against ``sharded_stream`` gates the journaling cost.  The durable
  run's timing is what ``BENCH_qe12.json`` gates.

``REPRO_QE12_SMOKE=1`` shrinks the workload for CI.
"""

import multiprocessing
import os
import signal
import tempfile
import time

import pytest

from repro.metrics.report import render_table
from repro.parallel import ShardConfig, ShardedFederation
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)

SMOKE = bool(os.environ.get("REPRO_QE12_SMOKE"))

FORCES = 8 if SMOKE else 16
WINDOWS_PER_FORCE = 3 if SMOKE else 6
EVENTS_PER_FORCE = 120 if SMOKE else 400
SHARDS = 2
REPS = 1 if SMOKE else 3


def make_workload():
    return ShardStreamWorkload(
        ShardStreamConfig(
            forces=FORCES,
            windows_per_force=WINDOWS_PER_FORCE,
            events_per_force=EVENTS_PER_FORCE,
        )
    )


def kill_worker(shard):
    worker = shard.inner
    worker.process._popen._send_signal(signal.SIGKILL)  # noqa: SLF001
    worker.process.join(10.0)


def drive(workload, durable_dir=None, crash_after=None, instrument=False):
    """One timed run; optionally SIGKILL shard 0 after *crash_after* events."""
    events = workload.events()  # generated outside the timed section
    config = ShardConfig(
        shards=SHARDS,
        backend="process",
        durable_dir=durable_dir,
        instrument=instrument,
    )
    with ShardedFederation(workload.blueprint(), config) as federation:
        started = time.perf_counter()
        if crash_after is None:
            federation.ingest(events)
        else:
            federation.ingest(events[:crash_after])
            federation.drain()
            kill_worker(federation.shards[0])
            federation.ingest(events[crash_after:])
        federation.drain()
        notifications = list(federation.delivered)
        elapsed = time.perf_counter() - started
        stats = federation.stats()
    assert len(notifications) == workload.expected_notifications()
    return {
        "events": len(events),
        "notifications": notifications,
        "recoveries": stats.get("recoveries", 0),
        "seconds": elapsed,
        "events_per_s": len(events) / elapsed,
    }


def drive_durable(workload, **kwargs):
    with tempfile.TemporaryDirectory(prefix="qe12-") as durable_dir:
        return drive(workload, durable_dir=durable_dir, **kwargs)


def best_of(reps, run, *args, **kwargs):
    return min(
        (run(*args, **kwargs) for __ in range(reps)),
        key=lambda r: r["seconds"],
    )


def signatures(result):
    return sorted(map(repr, (n.signature for n in result["notifications"])))


def per_instance(result):
    streams = {}
    for n in result["notifications"]:
        streams.setdefault(n.process_instance_id, []).append(n.signature)
    return streams


def test_qe12_recovered_stream_is_an_exact_continuation(record_table):
    workload = make_workload()
    events = workload.events()
    reference = drive(workload, instrument=True)
    crashed = drive_durable(
        workload, crash_after=len(events) // 2, instrument=True
    )

    assert crashed["recoveries"] == 1
    assert all(n.signature is not None for n in reference["notifications"])
    # Identical multiset of delivery provenance signatures...
    assert signatures(crashed) == signatures(reference)
    # ...with per-instance order intact.
    assert per_instance(crashed) == per_instance(reference)

    record_table(
        render_table(
            ("run", "events", "notifications", "recoveries"),
            [
                (
                    "uninterrupted",
                    reference["events"],
                    len(reference["notifications"]),
                    reference["recoveries"],
                ),
                (
                    "SIGKILL + recover",
                    crashed["events"],
                    len(crashed["notifications"]),
                    crashed["recoveries"],
                ),
            ],
            title=f"QE12 crash recovery exactness ({FORCES} forces x "
            f"{WINDOWS_PER_FORCE} windows, {SHARDS} shards)",
        )
    )


def test_qe12_journaling_overhead(benchmark, record_table):
    workload = make_workload()
    plain = best_of(REPS, drive, workload)
    durable = benchmark(drive_durable, workload)
    overhead = durable["seconds"] / plain["seconds"]

    record_table(
        render_table(
            ("backend", "events/s", "seconds", "overhead"),
            [
                (
                    "process",
                    f"{plain['events_per_s'] / 1e3:.1f}k",
                    f"{plain['seconds']:.3f}",
                    "1.00x",
                ),
                (
                    "process + journal",
                    f"{durable['events_per_s'] / 1e3:.1f}k",
                    f"{durable['seconds']:.3f}",
                    f"{overhead:.2f}x",
                ),
            ],
            title="QE12 write-ahead journaling overhead",
        )
    )
