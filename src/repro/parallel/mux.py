"""Overlapped shard I/O: one selector over every worker pipe pair.

The federation facade talks to N forked workers over N pipe pairs.
Round-tripping the workers *one at a time* would make a 4-shard drain
cost the **sum** of per-shard latencies, and blocking writes would let
a slow shard stall the whole wave (or buffer unboundedly in the pipe).

:class:`ChannelMultiplexer` owns every channel (a :class:`MuxChannel`
per worker) and drives all of them from one ``selectors`` loop:

* **Non-blocking buffered writes.**  Both pipe ends are switched to
  non-blocking mode.  A queued frame is encoded once (here, or by the
  supervisor when it also journals it) and appended to the channel's
  outbound byte queue; :meth:`MuxChannel.pump_writes`
  drains the queue as far as the pipe accepts (partial writes resume at
  the recorded offset).  The facade never sleeps inside a single
  shard's full pipe while other shards starve.

* **Readiness-driven reads.**  Worker responses are parsed out of a
  per-channel inbound buffer as length-prefixed frames whenever the
  read end is ready, regardless of which shard the facade is currently
  waiting on.  Decoded frames land in the channel's inbox in arrival
  order — the frame correlation the broadcast-then-gather collectives
  rely on.

* **Broadcast-then-gather.**  :meth:`ChannelMultiplexer.gather` waits
  for one expected frame per channel while pumping *all* channels, so
  a collective costs the **max** of the per-shard latencies, not the
  sum.  A worker dying mid-gather (EOF, write failure, or an
  out-of-band ``error`` frame racing the collective) marks its channel
  dead with the reason attributed; the gather still completes every
  other channel before the caller surfaces the crash.

* **The pipe is the flow control.**  The facade queues an event
  frame on a channel only while that channel has no unwritten bytes
  (:attr:`MuxChannel.drained`); otherwise ingest defers *only that
  shard's* batches in the facade buffer and the rest of the wave keeps
  shipping.  A stalled worker therefore holds at most one queued event
  frame on the facade plus what its pipe holds — a bound the kernel
  enforces, so workers never write acknowledgements.
  :meth:`ChannelMultiplexer.wait_drained` is the barrier form: it
  keeps pumping every channel until one has written everything.

Everything here is single-threaded: the facade thread drives the loop,
so there is no locking.
"""

from __future__ import annotations

import os
import selectors
from collections import deque
from time import monotonic
from typing import Any, Deque, Dict, Mapping, Optional, Tuple

from ..errors import WireError
from .codec import BinaryDecoder, BinaryEncoder
from .wire import MAX_FRAME_BYTES

#: Bytes requested per ``os.read`` when a channel's read end is ready.
READ_CHUNK = 1 << 16

#: Selector wait (seconds) per pump iteration inside a blocking gather
#: or drain wait.  Short enough that a worker death surfaces quickly,
#: long enough not to spin.
POLL_INTERVAL = 0.05


class MuxChannel:
    """One worker's duplex channel under the multiplexer.

    Owns the raw (non-blocking) pipe fds, the outbound byte queue, the
    inbound parse buffer and the decoded-frame inbox.  All state
    transitions happen on the facade thread via the owning
    :class:`ChannelMultiplexer`.
    """

    def __init__(self, shard_id: int, in_fd: int, out_fd: int) -> None:
        self.shard_id = shard_id
        #: Facade-to-worker pipe end (events, requests).
        self.in_fd = in_fd
        #: Worker-to-facade pipe end (responses, errors).
        self.out_fd = out_fd
        os.set_blocking(in_fd, False)
        os.set_blocking(out_fd, False)
        # A fresh channel means fresh interning tables on both pipe
        # directions — the respawn-resets-the-tables contract of the
        # binary codec holds because the encoder/decoder live here.
        self._encoder = BinaryEncoder()
        self._decoder = BinaryDecoder()
        #: Encoded frames (length prefix included) awaiting pipe space.
        self._outq: Deque[bytes] = deque()
        #: Bytes of the queue head already written to the pipe.
        self._head_offset = 0
        #: Total bytes queued but not yet written (facade-side memory).
        self.pending_bytes = 0
        self._inbuf = bytearray()
        #: Decoded worker frames awaiting correlation, arrival order.
        self.inbox: Deque[Dict[str, Any]] = deque()
        #: Times a send had to wait (or defer) for the pipe to drain.
        self.stalls = 0
        #: Crash attribution; ``None`` while the channel is healthy.
        self.dead: Optional[str] = None
        self._closed = False

    # -- outbound ----------------------------------------------------------

    @property
    def drained(self) -> bool:
        """Whether every queued byte has been written to the pipe."""
        return not self._outq

    def queue(self, frame: Mapping[str, Any]) -> None:
        """Encode *frame* on this channel's stream tables and queue it."""
        self.queue_encoded(self._encoder.encode_frame(frame))

    def queue_encoded(self, data: bytes) -> None:
        """Queue one encoded frame and pump what fits now.

        *data* comes from this channel's stream encoder, in queue order,
        or is self-contained.  Callers that meter event frames check
        :attr:`drained` (or :meth:`ChannelMultiplexer.wait_drained`)
        first.
        """
        if self.dead is not None:
            raise BrokenPipeError(self.dead)
        self._outq.append(data)
        self.pending_bytes += len(data)
        self.pump_writes()

    def pump_writes(self) -> None:
        """Write queued bytes until the pipe is full or the queue dry."""
        while self._outq and self.dead is None:
            head = self._outq[0]
            try:
                written = os.write(
                    self.in_fd, memoryview(head)[self._head_offset:]
                )
            except BlockingIOError:
                return
            except (BrokenPipeError, OSError) as error:
                self.fail(f"send failed: {error}")
                return
            self.pending_bytes -= written
            self._head_offset += written
            if self._head_offset >= len(head):
                self._outq.popleft()
                self._head_offset = 0

    @property
    def wants_write(self) -> bool:
        return bool(self._outq) and self.dead is None

    # -- inbound -----------------------------------------------------------

    def pump_reads(self) -> None:
        """Read whatever the worker sent; parse and dispatch frames."""
        while self.dead is None:
            try:
                chunk = os.read(self.out_fd, READ_CHUNK)
            except BlockingIOError:
                break
            except OSError as error:
                self.fail(f"receive failed: {error}")
                return
            if not chunk:
                self._parse_frames()
                self.fail("channel closed")
                return
            self._inbuf += chunk
            if len(chunk) < READ_CHUNK:
                break
        self._parse_frames()

    def _parse_frames(self) -> None:
        buffer = self._inbuf
        position = 0
        available = len(buffer)
        while self.dead is None and available - position >= 4:
            length = int.from_bytes(buffer[position:position + 4], "big")
            if length > MAX_FRAME_BYTES:
                self.fail(f"receive failed: frame of {length} bytes")
                break
            if available - position - 4 < length:
                break
            payload = bytes(buffer[position + 4:position + 4 + length])
            position += 4 + length
            try:
                frame = self._decoder.decode_payload(payload)
            except WireError as error:
                self.fail(f"receive failed: {error}")
                break
            self._dispatch(frame)
        if position:
            del buffer[:position]

    def _dispatch(self, frame: Dict[str, Any]) -> None:
        """Route one decoded frame to the inbox.

        ``error`` frames — a worker's last words, possibly racing a
        gather for a different response — mark the channel dead with
        the worker's reason attributed instead of being mistaken for a
        protocol violation.
        """
        if frame.get("kind") == "error":
            self.fail(f"worker error: {frame.get('error')}")
            return
        self.inbox.append(frame)

    # -- lifecycle ---------------------------------------------------------

    def fail(self, reason: str) -> None:
        """Mark the channel dead (first reason wins)."""
        if self.dead is None:
            self.dead = reason

    def close_fds(self) -> None:
        """Close both pipe ends (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for fd in (self.in_fd, self.out_fd):
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass


class ChannelMultiplexer:
    """All worker channels behind one ``selectors`` loop."""

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._channels: Dict[int, MuxChannel] = {}
        #: Channels currently registered for write readiness (a pipe
        #: with queued bytes); read registration is permanent.
        self._write_armed: Dict[int, bool] = {}

    # -- registration ------------------------------------------------------

    def register(self, channel: MuxChannel) -> None:
        self._channels[channel.shard_id] = channel
        self._selector.register(
            channel.out_fd, selectors.EVENT_READ, (channel, "read")
        )
        self._write_armed[channel.shard_id] = False

    def unregister(self, channel: MuxChannel) -> None:
        """Detach *channel* (idempotent); fds stay open for the caller."""
        if self._channels.get(channel.shard_id) is not channel:
            return
        del self._channels[channel.shard_id]
        try:
            self._selector.unregister(channel.out_fd)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        if self._write_armed.pop(channel.shard_id, False):
            try:
                self._selector.unregister(channel.in_fd)
            except (KeyError, ValueError):  # pragma: no cover
                pass

    def channel(self, shard_id: int) -> Optional[MuxChannel]:
        return self._channels.get(shard_id)

    # -- the loop ----------------------------------------------------------

    def _arm_writes(self) -> None:
        for shard_id, channel in self._channels.items():
            wants = channel.wants_write
            armed = self._write_armed[shard_id]
            if wants and not armed:
                self._selector.register(
                    channel.in_fd, selectors.EVENT_WRITE, (channel, "write")
                )
                self._write_armed[shard_id] = True
            elif armed and not wants:
                try:
                    self._selector.unregister(channel.in_fd)
                except (KeyError, ValueError):  # pragma: no cover
                    pass
                self._write_armed[shard_id] = False

    def pump(self, timeout: float = 0.0) -> None:
        """One multiplexing step across every channel.

        Flushes what fits, reads what arrived, dispatches inbox frames.
        ``timeout`` is the longest the step may sleep waiting for
        readiness; ``0`` polls.
        """
        self._arm_writes()
        if not self._channels:
            return
        for key, _events in self._selector.select(timeout):
            channel, direction = key.data
            if direction == "read":
                channel.pump_reads()
            else:
                channel.pump_writes()

    # -- collectives -------------------------------------------------------

    def gather(
        self, wants: Mapping[int, str], timeout: Optional[float] = None
    ) -> Tuple[Dict[int, Dict[str, Any]], Dict[int, str]]:
        """Wait for one *expected-kind* frame per channel in *wants*.

        Returns ``(frames, crashed)``: a response frame per shard that
        answered, a reason per shard whose channel died first.  The
        wave always completes — every wanted channel resolves to a
        frame or a crash before this returns, so no stale response is
        left behind to poison the next collective.  A frame of any
        other kind on a gathered channel is the protocol violation it
        always was (out-of-band ``error`` frames are dispatched before
        frames reach the inbox, so they can never be mislabelled here).
        With *timeout*, a channel still silent after that many seconds
        is failed, so a stopped or wedged worker cannot hold the wave.
        """
        deadline = None if timeout is None else monotonic() + timeout
        pending: Dict[int, str] = dict(wants)
        frames: Dict[int, Dict[str, Any]] = {}
        crashed: Dict[int, str] = {}
        while True:
            for shard_id in list(pending):
                channel = self._channels.get(shard_id)
                if channel is None:
                    crashed[shard_id] = "channel unregistered"
                    del pending[shard_id]
                    continue
                while channel.inbox and shard_id in pending:
                    frame = channel.inbox.popleft()
                    kind = frame.get("kind")
                    if kind == pending[shard_id]:
                        frames[shard_id] = frame
                        del pending[shard_id]
                    else:
                        channel.fail(
                            f"protocol violation: expected "
                            f"{pending[shard_id]!r} frame, got {kind!r}"
                        )
                if shard_id in pending and channel.dead is not None:
                    crashed[shard_id] = channel.dead
                    del pending[shard_id]
            if not pending:
                return frames, crashed
            if deadline is not None and monotonic() >= deadline:
                for shard_id, kind in pending.items():
                    self._channels[shard_id].fail(
                        f"no {kind!r} frame within {timeout}s"
                    )
                continue
            self.pump(POLL_INTERVAL)

    # -- backpressure ------------------------------------------------------

    def wait_drained(self, channel: MuxChannel) -> bool:
        """Block until *channel* has written every queued byte;
        ``False`` if it died first.

        A wait that has to block counts one stall.  Every other channel
        keeps pumping meanwhile — responses and crash notices still
        flow — and the wait ends when the worker reads its pipe.
        """
        if channel.drained:
            return True
        channel.stalls += 1
        while not channel.drained:
            if channel.dead is not None:
                return False
            self.pump(POLL_INTERVAL)
        return True

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        for channel in list(self._channels.values()):
            self.unregister(channel)
        self._selector.close()

