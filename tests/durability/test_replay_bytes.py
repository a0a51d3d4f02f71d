"""Recovery replays the journal's bytes (DESIGN note 23).

Count pins on ``SupervisedShard.recover()``: the facade encodes only its
own control frames and decodes only the worker's stats reply — nothing
per replayed frame — never waits for a channel to drain, and queues the
journal file's records as they are.  The worker owns
the replay decision (a raw-pipe test of the ``replay`` mark).  A kill
right after a snapshot replays an empty tail.  A journal damaged behind
a live log ends in a typed error naming the file or the shard, never in
a short replay.
"""

import multiprocessing
import os

import pytest

from repro.durability.log import JOURNAL_MAGIC
from repro.errors import DurabilityError, ShardCrashError
from repro.parallel import ShardedFederation
from repro.parallel.codec import (
    T_SELF,
    BinaryDecoder,
    BinaryEncoder,
    BinaryFrameReader,
    encode_standalone,
    hello_bytes,
)
from repro.parallel.mux import ChannelMultiplexer, MuxChannel
from repro.parallel.wire import MAX_FRAME_BYTES
from repro.parallel.worker import worker_main

from tests.durability.test_journal_writers import journal_records
from tests.durability.test_supervised_federation import (
    durable_config,
    kill_worker,
    reference_run,
    small_workload,
)
from tests.exact import assert_same_stream
from tests.parallel.test_codec import HOSTILE_RUNS

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)


class TestReplayIsAByteCopy:
    def test_recover_forwards_the_journal_and_codes_nothing(
        self, tmp_path, monkeypatch
    ):
        workload = small_workload()
        events = workload.events()
        cut = len(events) // 2
        config = durable_config(tmp_path, snapshot_every=0, batch_size=8)
        with ShardedFederation(workload.blueprint(), config) as federation:
            federation.ingest(events[:cut])
            federation.drain()
            shard = federation.shards[0]
            kill_worker(shard)
            shard.journal.sync()
            records = journal_records(shard.journal.path)
            assert len(records) > 2

            encoded, decoded, waits, queued = [], [], [], []
            real_encode = BinaryEncoder.encode_frame
            real_decode = BinaryDecoder.decode_payload
            real_wait = ChannelMultiplexer.wait_drained
            real_queue = MuxChannel.queue_encoded

            def counted_encode(self, frame):
                encoded.append(frame["kind"])
                return real_encode(self, frame)

            def counted_decode(self, data):
                frame = real_decode(self, data)
                decoded.append(frame["kind"])
                return frame

            def counted_wait(self, channel):
                waits.append(channel.shard_id)
                return real_wait(self, channel)

            def counted_queue(self, data):
                queued.append(data)
                return real_queue(self, data)

            monkeypatch.setattr(BinaryEncoder, "encode_frame", counted_encode)
            monkeypatch.setattr(BinaryDecoder, "decode_payload", counted_decode)
            monkeypatch.setattr(ChannelMultiplexer, "wait_drained", counted_wait)
            monkeypatch.setattr(MuxChannel, "queue_encoded", counted_queue)
            shard.recover()
            monkeypatch.undo()

            # The pins: the facade's only codec work is its own two
            # control frames and the stats reply — the parent decoded
            # every journal record and re-encoded every replayed frame —
            # and it never waited for the pipe.
            assert encoded == ["replay", "stats"]
            assert decoded == ["stats"]
            assert waits == []
            # What reached the channel between them is the file's bytes.
            assert queued[1:-1] == records
            assert all(type(data) is bytes for data in queued)
            # The stats round trip read past the whole tail.
            assert shard.channel.drained

            federation.ingest(events[cut:])
            federation.drain()
            merged = list(federation.delivered)
        assert len(merged) == workload.expected_notifications()
        assert_same_stream(merged, reference_run(workload))

    def test_a_kill_right_after_a_snapshot_replays_an_empty_tail(
        self, tmp_path
    ):
        # Nothing drained before the snapshot: the notifications of the
        # covered frames must survive the kill although no frame that
        # produced them replays.
        workload = small_workload()
        events = workload.events()
        cut = len(events) // 2
        config = durable_config(tmp_path, snapshot_every=0)
        with ShardedFederation(workload.blueprint(), config) as federation:
            federation.ingest(events[:cut])
            federation.flush_buffers()
            shard = federation.shards[0]
            assert shard.take_snapshot() is not None
            assert shard.journal.tail(shard._covered_index()) == []
            kill_worker(shard)
            federation.ingest(events[cut:])
            federation.drain()
            stats = federation.stats()
            merged = list(federation.delivered)
        assert stats["recoveries"] == 1
        assert len(merged) == workload.expected_notifications()
        assert_same_stream(merged, reference_run(workload))


class TestTheWorkerOwnsTheReplayDecision:
    def test_a_replayed_wave_ships_no_spans_and_earns_no_ack(self):
        # A worker over raw pipes: a sampled events frame below the
        # ``replay`` mark is ingested unsampled; one at the mark is a
        # live frame.  Neither is acknowledged: the stats reply is the
        # only frame the worker writes.
        workload = small_workload()
        batch = workload.events()[:8]
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
                {"instrument": True},
                workload.blueprint().to_wire(),
            ),
            daemon=True,
        )
        process.start()
        os.close(in_read)
        os.close(out_write)
        frames = [
            {"kind": "replay", "below": 1},
            {"kind": "events", "events": batch, "seq": 0,
             "trace": ["t-replayed", "p", 1]},
            {"kind": "events", "events": batch, "seq": 1,
             "trace": ["t-live", "p", 1]},
            {"kind": "stats"},
        ]
        with os.fdopen(in_write, "wb") as stream:
            stream.write(hello_bytes())
            stream.write(b"".join(map(encode_standalone, frames)))
        # Closing the pipe is the shutdown: the worker answers, exits.
        replies = []
        with os.fdopen(out_read, "rb") as stream:
            reader = BinaryFrameReader(stream)
            while (reply := reader.read()) is not None:
                replies.append(reply)
        process.join(10.0)
        assert not process.is_alive()
        assert [reply["kind"] for reply in replies] == ["stats"]
        stats = replies[0]
        assert stats["errors"] == []
        assert stats["stats"]["frames_ingested"] == 2
        batches = stats["observability"]["spans"]["batches"]
        assert [entry["trace"] for entry in batches] == ["t-live"]


#: The refusal names the file and the frames it cannot replay.
MISSING_FROM_ONE = r"shard-0/journal\.log' is damaged: frames 1\.\.\d+ are missing"


class TestDamagedJournal:
    """Damage behind a live log, then a SIGKILL: the recovery that
    follows raises, naming the file or the shard."""

    def recover_after(self, tmp_path, damage):
        workload = small_workload()
        events = workload.events()
        config = durable_config(tmp_path, snapshot_every=0, batch_size=8)
        federation = ShardedFederation(workload.blueprint(), config)
        try:
            federation.ingest(events[: len(events) // 2])
            federation.drain()
            shard = federation.shards[0]
            shard.journal.sync()
            records = journal_records(shard.journal.path)
            assert len(records) > 2
            damage(shard.journal.path, records)
            kill_worker(shard)
            federation.drain()  # recovers: tail(0) over the damage
        finally:
            federation.close()

    def test_a_cut_file_is_refused(self, tmp_path):
        def cut(path, records):
            os.truncate(path, len(JOURNAL_MAGIC) + len(records[0]) + 3)

        with pytest.raises(DurabilityError, match=MISSING_FROM_ONE):
            self.recover_after(tmp_path, cut)

    def test_an_oversize_length_prefix_is_refused(self, tmp_path):
        def oversize(path, records):
            with open(path, "r+b") as stream:
                stream.seek(len(JOURNAL_MAGIC) + len(records[0]))
                stream.write((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))

        with pytest.raises(DurabilityError, match=MISSING_FROM_ONE):
            self.recover_after(tmp_path, oversize)

    def test_an_undecodable_record_crashes_the_worker_not_the_stream(
        self, tmp_path
    ):
        payload = bytes((T_SELF,)) + HOSTILE_RUNS["truncated column"]
        hostile = len(payload).to_bytes(4, "big") + payload

        def swap(path, records):
            with open(path, "wb") as stream:  # same inode: the log appends on
                stream.write(JOURNAL_MAGIC + records[0] + hostile)
                stream.writelines(records[2:])

        with pytest.raises(ShardCrashError, match=r"shard 0 .*WireError"):
            self.recover_after(tmp_path, swap)
