"""The channel multiplexer: framing, drain, gather, crash attribution.

These tests drive :class:`MuxChannel` and :class:`ChannelMultiplexer`
over raw ``os.pipe`` pairs with the test playing the worker — no forked
processes, so every byte on the wire is under the test's control
(partial frames, out-of-order responses, last-words error frames).
"""

import fcntl
import os
import threading

import pytest

from repro.parallel.codec import (
    BinaryDecoder,
    BinaryEncoder,
    encode_standalone,
)
from repro.parallel.mux import ChannelMultiplexer, MuxChannel
from repro.parallel.wire import SEQ_KEY

from tests.parallel.test_codec import DEEP_PAYLOADS, HOSTILE_RUNS


class FakeWorker:
    """One channel plus the worker-side pipe ends, with cleanup."""

    def __init__(self, shard_id=0):
        to_worker_read, to_worker_write = os.pipe()
        to_facade_read, to_facade_write = os.pipe()
        self.channel = MuxChannel(shard_id, to_worker_write, to_facade_read)
        #: The worker's read end of the facade-to-worker pipe.
        self.request_fd = to_worker_read
        #: The worker's write end of the worker-to-facade pipe.
        self.response_fd = to_facade_write
        self._encoder = BinaryEncoder()
        self._decoder = BinaryDecoder()

    def respond(self, frame):
        """Write *frame* to the facade as the worker would."""
        os.write(self.response_fd, self._encoder.encode_frame(frame))

    def respond_raw(self, data):
        os.write(self.response_fd, data)

    def read_later(self, count):
        """A started thread that reads *count* request bytes, blocking
        — the worker catching up while the facade waits."""

        def read():
            remaining = count
            while remaining:
                remaining -= len(os.read(self.request_fd, remaining))

        thread = threading.Thread(target=read)
        thread.start()
        return thread

    def sent_frames(self):
        """Decode every complete frame the facade has written so far."""
        os.set_blocking(self.request_fd, False)
        data = bytearray()
        while True:
            try:
                chunk = os.read(self.request_fd, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            data += chunk
        frames = []
        position = 0
        while len(data) - position >= 4:
            length = int.from_bytes(data[position:position + 4], "big")
            payload = bytes(data[position + 4:position + 4 + length])
            position += 4 + length
            frames.append(self._decoder.decode_payload(payload))
        return frames

    def close(self):
        self.channel.close_fds()
        for fd in (self.request_fd, self.response_fd):
            try:
                os.close(fd)
            except OSError:
                pass


def overfull_frame(channel):
    """An events frame larger than *channel*'s pipe buffer, and its size
    on the wire."""
    size = fcntl.fcntl(channel.in_fd, fcntl.F_GETPIPE_SZ)
    frame = {"kind": "events", "blob": "x" * (2 * size)}
    return frame, len(BinaryEncoder().encode_frame(frame))


# One codec; the id keeps these tests' names what they were while
# ``"json"`` was a second parameter.
@pytest.fixture(params=["binary"])
def worker():
    fake = FakeWorker()
    yield fake
    fake.close()


class TestMuxChannel:
    def test_round_trip_both_directions(self, worker):
        worker.channel.queue({"kind": "stats_request"})
        assert worker.sent_frames() == [{"kind": "stats_request"}]
        worker.respond({"kind": "stats", "stats": {"events": 3}})
        worker.channel.pump_reads()
        assert list(worker.channel.inbox) == [
            {"kind": "stats", "stats": {"events": 3}}
        ]

    def test_partial_frames_reassemble_byte_by_byte(self, worker):
        data = worker._encoder.encode_frame({"kind": "stats", "n": 7})
        for index, byte in enumerate(data):
            worker.respond_raw(bytes([byte]))
            worker.channel.pump_reads()
            if index < len(data) - 1:
                assert not worker.channel.inbox
        assert list(worker.channel.inbox) == [{"kind": "stats", "n": 7}]
        assert worker.channel.dead is None

    def test_a_channel_is_drained_until_its_pipe_refuses_bytes(self, worker):
        channel = worker.channel
        assert channel.drained
        channel.queue({"kind": "events", "events": [], SEQ_KEY: 0})
        assert channel.drained  # the pipe took it whole
        frame, size = overfull_frame(channel)
        channel.queue(frame)
        assert not channel.drained
        assert 0 < channel.pending_bytes < size
        # Nothing the worker writes back drains it: only its reading can.
        worker.respond({"kind": "stats", "stats": {}})
        channel.pump_reads()
        assert not channel.drained
        assert [f["kind"] for f in channel.inbox] == ["stats"]

    def test_error_frames_mark_the_channel_dead_with_attribution(
        self, worker
    ):
        worker.respond({"kind": "error", "error": "unknown kind 'x'"})
        worker.channel.pump_reads()
        assert worker.channel.dead == "worker error: unknown kind 'x'"
        assert not worker.channel.inbox

    def test_eof_marks_the_channel_dead(self, worker):
        worker.respond({"kind": "stats", "stats": {}})
        os.close(worker.response_fd)
        worker.channel.pump_reads()
        # Frames already on the wire still parse before the EOF lands
        # (a short read defers the EOF check to the next readiness
        # wake-up, which the selector delivers immediately).
        assert len(worker.channel.inbox) == 1
        worker.channel.pump_reads()
        assert worker.channel.dead == "channel closed"

    def test_oversized_length_prefix_is_rejected(self, worker):
        worker.respond_raw((1 << 30).to_bytes(4, "big"))
        worker.channel.pump_reads()
        assert worker.channel.dead is not None
        assert "receive failed" in worker.channel.dead

    def test_nesting_beyond_the_stack_fails_the_channel_not_the_facade(
        self, worker
    ):
        payload = DEEP_PAYLOADS[0]
        worker.respond({"kind": "stats", "stats": {}})
        worker.respond_raw(len(payload).to_bytes(4, "big") + payload)
        worker.channel.pump_reads()  # returns: no RecursionError escapes
        assert len(worker.channel.inbox) == 1
        assert "receive failed" in worker.channel.dead
        assert "RecursionError" in worker.channel.dead

    @pytest.mark.parametrize("name", sorted(HOSTILE_RUNS))
    def test_a_corrupt_event_run_fails_the_channel_not_the_facade(
        self, worker, name
    ):
        payload = HOSTILE_RUNS[name]
        worker.respond({"kind": "stats", "stats": {}})
        worker.respond_raw(len(payload).to_bytes(4, "big") + payload)
        worker.respond({"kind": "stats", "stats": {}})
        worker.channel.pump_reads()  # returns: nothing but WireError inside
        assert len(worker.channel.inbox) == 1
        assert "receive failed" in worker.channel.dead

    def test_queue_encoded_forwards_the_bytes_it_is_given(self, worker):
        channel = worker.channel
        frame = {"kind": "events", "events": [], SEQ_KEY: 5}
        data = encode_standalone(frame)
        channel.queue({"kind": "stats_request"})
        channel.queue_encoded(data)
        channel.queue({"kind": "stats_request"})
        # The worker's one decoder reads it between stream frames.
        assert worker.sent_frames() == [
            {"kind": "stats_request"},
            frame,
            {"kind": "stats_request"},
        ]

    def test_queueing_on_a_dead_channel_raises(self, worker):
        worker.channel.fail("worker error: boom")
        with pytest.raises(BrokenPipeError):
            worker.channel.queue({"kind": "stats_request"})
        with pytest.raises(BrokenPipeError):
            worker.channel.queue_encoded(encode_standalone({"kind": "x"}))

    def test_partial_writes_resume_where_they_stopped(self):
        worker = FakeWorker()
        try:
            channel = worker.channel
            # Far larger than a pipe buffer, so the first pump stops at
            # a partial write mid-frame.
            frame = {"kind": "events", "blob": "x" * 400_000}
            expected = BinaryEncoder().encode_frame(frame)
            channel.queue(frame)
            assert channel.wants_write
            assert 0 < channel.pending_bytes < len(expected)
            received = bytearray()
            while len(received) < len(expected):
                channel.pump_writes()
                received += os.read(worker.request_fd, 1 << 16)
            assert bytes(received) == expected
            assert not channel.wants_write
            assert channel.pending_bytes == 0
        finally:
            worker.close()


class TestChannelMultiplexer:
    @pytest.fixture
    def pair(self):
        mux = ChannelMultiplexer()
        workers = [FakeWorker(shard_id=index) for index in range(2)]
        for fake in workers:
            mux.register(fake.channel)
        yield mux, workers
        mux.close()
        for fake in workers:
            fake.close()

    def test_gather_collects_out_of_order_responses(self, pair):
        mux, workers = pair
        for fake in workers:
            fake.channel.queue({"kind": "stats_request"})
        # Shard 1 answers before shard 0 — the gather must not care.
        workers[1].respond({"kind": "stats", "stats": {"shard": 1}})
        workers[0].respond({"kind": "stats", "stats": {"shard": 0}})
        frames, crashed = mux.gather({0: "stats", 1: "stats"})
        assert crashed == {}
        assert frames[0]["stats"] == {"shard": 0}
        assert frames[1]["stats"] == {"shard": 1}

    def test_gather_attributes_a_mid_wave_worker_error(self, pair):
        mux, workers = pair
        workers[0].respond({"kind": "stats", "stats": {}})
        workers[1].respond({"kind": "error", "error": "journal torn"})
        frames, crashed = mux.gather({0: "stats", 1: "stats"})
        assert 0 in frames
        assert crashed == {1: "worker error: journal torn"}

    def test_gather_flags_a_genuine_protocol_violation(self, pair):
        mux, workers = pair
        workers[0].respond({"kind": "stats", "stats": {}})
        workers[1].respond({"kind": "results", "results": []})
        frames, crashed = mux.gather({0: "stats", 1: "stats"})
        assert 0 in frames
        assert "protocol violation" in crashed[1]
        assert "'results'" in crashed[1]

    def test_gather_completes_the_wave_despite_one_crash(self, pair):
        mux, workers = pair
        os.close(workers[0].response_fd)
        workers[1].respond({"kind": "stats", "stats": {"ok": True}})
        frames, crashed = mux.gather({0: "stats", 1: "stats"})
        assert crashed == {0: "channel closed"}
        assert frames[1]["stats"] == {"ok": True}

    def test_gather_fails_a_channel_silent_past_the_timeout(self, pair):
        mux, workers = pair
        workers[1].respond({"kind": "stats", "stats": {}})
        frames, crashed = mux.gather({0: "stats", 1: "stats"}, timeout=0.1)
        assert 1 in frames
        assert crashed == {0: "no 'stats' frame within 0.1s"}
        assert workers[0].channel.dead == crashed[0]

    def test_wait_drained_counts_the_stall_and_recovers(self, pair):
        mux, workers = pair
        stalled = []
        mux.on_stall = stalled.append
        channel = workers[0].channel
        frame, size = overfull_frame(channel)
        channel.queue(frame)
        assert not channel.drained
        # The worker reads while the facade waits; the wait pumps.
        reader = workers[0].read_later(size)
        assert mux.wait_drained(channel)
        reader.join()
        assert channel.stalls == 1
        assert stalled == [channel]
        # A drained channel costs no wait — and no new stall.
        assert mux.wait_drained(channel)
        assert channel.stalls == 1

    def test_wait_drained_surfaces_a_dead_channel(self, pair):
        mux, workers = pair
        channel = workers[0].channel
        channel.queue(overfull_frame(channel)[0])
        os.close(workers[0].response_fd)
        assert not mux.wait_drained(channel)
        assert channel.dead == "channel closed"

    def test_unregister_is_idempotent_and_identity_guarded(self, pair):
        mux, workers = pair
        channel = workers[0].channel
        mux.unregister(channel)
        mux.unregister(channel)
        assert mux.channel(0) is None
        assert mux.channel(1) is workers[1].channel
