"""The process backend: forked workers, crash containment, differential.

Workloads here are deliberately tiny — these tests check the protocol
and the lifecycle, not throughput (QE11 owns that).
"""

import fcntl
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import ParallelError, ShardCrashError
from repro.parallel import ShardConfig, ShardSpec, ShardedFederation
from repro.parallel.codec import (
    BinaryFrameReader,
    encode_standalone,
    events_frame,
    hello_bytes,
)
from repro.parallel.mux import ChannelMultiplexer, MuxChannel
from repro.parallel.wire import SEQ_KEY
from repro.parallel.worker import worker_main
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

from tests.exact import assert_same_stream

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)


def small_workload():
    return ShardStreamWorkload(
        ShardStreamConfig(forces=4, windows_per_force=2, events_per_force=30)
    )


def pipe_capacity():
    """Bytes one pipe buffers on this kernel (``F_GETPIPE_SZ``)."""
    read, write = os.pipe()
    try:
        return fcntl.fcntl(write, fcntl.F_GETPIPE_SZ)
    finally:
        os.close(read)
        os.close(write)


def pipe_filling_workload(seed=23):
    """Four forces of ``capacity // 8`` events each: the larger of two
    shards' shares (two forces at least) is ``capacity // 4`` events,
    several pipes' worth at the codec's ~9 bytes an event."""
    return ShardStreamWorkload(
        ShardStreamConfig(
            forces=4,
            windows_per_force=1,
            events_per_force=pipe_capacity() // 8,
            seed=seed,
        )
    )


def live_workers():
    """The shard worker processes alive in this process's children."""
    return {
        child.pid
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-shard-")
    }


def busiest_shard(workload, shards=2):
    """The shard the router hands the most of *workload*'s events."""
    return max(
        range(shards), key=lambda k: len(workload.shard_slice(shards, k))
    )


def serial_stream(workload):
    with ShardedFederation(
        workload.blueprint(),
        ShardConfig(shards=1, backend="serial", instrument=True),
    ) as serial:
        serial.ingest(workload.events())
        return serial.drain()


def assert_pipe_bounds_the_stall(federation, index):
    """A stopped worker's pipe is full: its batches wait in the facade
    buffer, the stall is counted, and the channel holds at most one
    queued event frame (the one the full pipe cut short)."""
    channel = federation.shards[index].channel
    assert fcntl.fcntl(channel.in_fd, fcntl.F_GETPIPE_SZ) == pipe_capacity()
    assert channel.stalls > 0
    assert len(federation._buffers[index]) > 0  # noqa: SLF001
    assert not channel.drained
    assert len(channel._outq) <= 1  # noqa: SLF001


def process_config(shards=2, **overrides):
    defaults = dict(
        shards=shards, backend="process", instrument=True, join_timeout=10.0
    )
    defaults.update(overrides)
    return ShardConfig(**defaults)


class TestProcessBackend:
    def test_end_to_end_matches_the_serial_run(self):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(),
            ShardConfig(shards=1, backend="serial", instrument=True),
        ) as serial:
            serial.ingest(workload.events())
            base = serial.drain()
        with ShardedFederation(
            workload.blueprint(), process_config()
        ) as federation:
            federation.ingest(workload.events())
            sharded = federation.drain()
            stats = federation.stats()
        assert len(sharded) == workload.expected_notifications()
        assert stats["shards_alive"] == 2
        assert sorted(map(repr, (n.signature for n in sharded))) == (
            sorted(map(repr, (n.signature for n in base)))
        )

    def test_per_shard_stats_report_live_workers(self):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), process_config()
        ) as federation:
            federation.ingest(workload.events())
            federation.drain()
            rows = federation.shard_stats()
            assert [row["alive"] for row in rows] == [True, True]
            assert sum(row["events_ingested"] for row in rows) == (
                len(workload.events())
            )
            # Workers flip their own instrumentation plane post-fork.
            assert all(row["instrumented"] == 1 for row in rows)

    def test_runtime_deploy_error_surfaces_eagerly(self):
        workload = small_workload()
        with ShardedFederation(
            workload.blueprint(), process_config()
        ) as federation:
            # Re-deploying an existing spec id is a recoverable worker
            # error: the deploy round-trip must raise, not hang or kill
            # the worker.
            with pytest.raises(ParallelError):
                federation.deploy(federation.blueprint.specifications[0])
            assert federation.healthy()
            extra = ShardSpec(
                spec_id="spec-extra",
                process_schema_id=workload.config.process_schema_id,
                text=workload.specification_text(0).replace("AS_TF", "AS_XX"),
            )
            federation.deploy(extra)
            federation.undeploy("spec-extra")
            assert federation.healthy()

    def test_killed_worker_surfaces_as_crash_not_hang(self):
        workload = small_workload()
        federation = ShardedFederation(
            workload.blueprint(), process_config()
        )
        try:
            victim = federation.shards[0]
            victim.process._popen._send_signal(signal.SIGKILL)  # noqa: SLF001
            victim.process.join(10.0)
            with pytest.raises(ShardCrashError):
                victim.begin("stats")
                victim.end("stats")
            assert not victim.alive
            assert not federation.healthy()
            rows = federation.shard_stats()
            assert rows[0]["alive"] is False
            assert rows[1]["alive"] is True
            # The aggregate keeps serving from the survivors.
            assert federation.stats()["shards_alive"] == 1
        finally:
            federation.close()

    def test_close_shuts_workers_down_cleanly(self):
        workload = small_workload()
        federation = ShardedFederation(
            workload.blueprint(), process_config()
        )
        processes = [shard.process for shard in federation.shards]
        federation.ingest(workload.events()[:50])
        federation.close()
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode == 0


    def test_corrupt_hello_surfaces_as_an_attributed_worker_error(self):
        # A worker that refuses the channel hello fails before it has a
        # host, but not before it has a writer: its last words must
        # arrive as a decodable ``error`` frame, attributed — not as a
        # receive failure on bytes the facade cannot parse.
        workload = small_workload()
        in_read, in_write = os.pipe()
        out_read, out_write = os.pipe()
        process = multiprocessing.get_context("fork").Process(
            target=worker_main,
            args=(
                0,
                1,
                in_read,
                out_write,
                [in_write, out_read],
                {},
                workload.blueprint().to_wire(),
            ),
            daemon=True,
        )
        process.start()
        os.close(in_read)
        os.close(out_write)
        os.write(in_write, b"XXXX\x01")
        mux = ChannelMultiplexer()
        channel = MuxChannel(0, in_write, out_read)
        mux.register(channel)
        try:
            frames, crashed = mux.gather({0: "stats"})
            process.join(10.0)
        finally:
            mux.close()
            channel.close_fds()
        assert frames == {}
        assert crashed[0].startswith(
            "worker error: WireError: bad channel hello"
        )
        assert not process.is_alive()
        assert process.exitcode == 1


class TestWireCodecs:
    def test_unknown_codec_is_rejected_at_config_time(self):
        # There is one wire and no knob for it.
        with pytest.raises(TypeError, match="wire_codec"):
            ShardConfig(shards=1, wire_codec="json")


class TestOverlappedIO:
    """Pipe backpressure and the overlapped collective paths."""

    def test_stopped_worker_stalls_only_its_own_queue(self):
        # SIGSTOP one worker and ingest enough to fill its pipe: ingest
        # must return without blocking the wave, the stopped shard's
        # overflow must wait in the facade buffer with at most one
        # event frame queued on its channel (bounded facade memory), the
        # stall must be counted — and after SIGCONT the results must be
        # exactly the serial run's.
        workload = pipe_filling_workload()
        victim = busiest_shard(workload)
        federation = ShardedFederation(workload.blueprint(), process_config())
        try:
            worker = federation.shards[victim]
            worker.process._popen._send_signal(signal.SIGSTOP)  # noqa: SLF001
            federation.ingest(workload.events())  # must not deadlock
            assert_pipe_bounds_the_stall(federation, victim)
            worker.process._popen._send_signal(signal.SIGCONT)  # noqa: SLF001
            sharded = federation.drain()
        finally:
            federation.close()
        assert_same_stream(sharded, serial_stream(workload))

    def test_a_pure_ingest_stream_writes_nothing_back(self):
        # The count pin of "workers write only what they are asked
        # for": N event frames, then one stats request — the stats
        # reply is the first and only frame the worker writes.
        workload = small_workload()
        events = workload.events()
        frames = [
            dict(events_frame(events[index:index + 3]), **{SEQ_KEY: index})
            for index in range(0, len(events), 3)
        ]
        in_read, in_write = os.pipe()
        out_read, out_write = os.pipe()
        process = multiprocessing.get_context("fork").Process(
            target=worker_main,
            args=(
                0,
                1,
                in_read,
                out_write,
                [in_write, out_read],
                {},
                workload.blueprint().to_wire(),
            ),
            daemon=True,
        )
        process.start()
        os.close(in_read)
        os.close(out_write)
        with os.fdopen(in_write, "wb") as stream:
            stream.write(hello_bytes())
            stream.write(b"".join(map(encode_standalone, frames)))
            stream.write(encode_standalone({"kind": "stats"}))
        replies = []
        with os.fdopen(out_read, "rb") as stream:
            reader = BinaryFrameReader(stream)
            while (reply := reader.read()) is not None:
                replies.append(reply)
        process.join(10.0)
        assert [reply["kind"] for reply in replies] == ["stats"]
        assert replies[0]["errors"] == []
        assert replies[0]["stats"]["frames_ingested"] == len(frames) == 40
        assert "acked" not in replies[0]

    def test_close_returns_from_a_stopped_worker(self):
        # A stopped worker never answers the poison pill and never acts
        # on SIGTERM: close() must still return within join_timeout
        # plus a margin, with no worker left alive.  Run in a thread so
        # a hang fails the test instead of stalling the suite.
        join_timeout = 1.0
        before = live_workers()
        federation = ShardedFederation(
            small_workload().blueprint(),
            process_config(join_timeout=join_timeout),
        )
        processes = [shard.process for shard in federation.shards]
        processes[0]._popen._send_signal(signal.SIGSTOP)  # noqa: SLF001
        closer = threading.Thread(target=federation.close, daemon=True)
        started = time.monotonic()
        closer.start()
        closer.join(join_timeout + 2.0)
        elapsed = time.monotonic() - started
        hung = closer.is_alive()
        if hung:
            for process in processes:
                process.kill()
            closer.join(10.0)
        assert not hung, f"close() still blocked after {elapsed:.1f}s"
        assert not any(process.is_alive() for process in processes)
        assert live_workers() == before

    def test_out_of_band_worker_error_is_attributed(self):
        # A frame the worker cannot survive makes it emit a last-words
        # ``error`` frame that races the next collective.  The crash
        # must surface with the worker's reason attributed — not as a
        # protocol violation against the expected response kind.
        workload = small_workload()
        federation = ShardedFederation(
            workload.blueprint(), process_config()
        )
        try:
            victim = federation.shards[0]
            victim.channel.queue({"kind": "events"})  # no payload: fatal
            with pytest.raises(ShardCrashError) as crash:
                federation.drain()
            assert "worker error" in str(crash.value)
            assert "protocol violation" not in str(crash.value)
            assert not victim.alive
        finally:
            federation.close()

    def test_each_collective_is_one_gather_wave(self, monkeypatch):
        # Count-based pin of "one gather": on 4 process shards a drain
        # and a stats each cost exactly one multiplexer gather that
        # names every shard — never a per-shard round trip.
        workload = small_workload()
        waves = []
        gather = ChannelMultiplexer.gather

        def counted(mux, wants):
            waves.append(dict(wants))
            return gather(mux, wants)

        with ShardedFederation(
            workload.blueprint(), process_config(shards=4)
        ) as federation:
            federation.ingest(workload.events())
            federation.flush_buffers()
            monkeypatch.setattr(ChannelMultiplexer, "gather", counted)
            merged = federation.drain()
            assert waves == [dict.fromkeys(range(4), "results")]
            del waves[:]
            federation.stats()
            assert waves == [dict.fromkeys(range(4), "stats")]
            monkeypatch.undo()
        assert len(merged) == workload.expected_notifications()

    def test_the_pipe_is_the_only_window(self):
        # The credit window and its knob are gone: no second bound.
        with pytest.raises(TypeError, match="max_inflight"):
            ShardConfig(shards=1, max_inflight=32)
