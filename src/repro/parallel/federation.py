"""Sharded multi-core enactment: the single-system facade.

:class:`ShardedFederation` partitions one federation's event work across
N shards while keeping the single-system API: events go in
(:meth:`ShardedFederation.ingest`), specifications deploy and undeploy
federation-wide, notifications come back as one deterministically merged
stream, and ``stats()`` aggregates so the observability surfaces
(``repro shards``, ``repro top``, health views) read one federation.

Two backends, selected by :class:`ShardConfig`:

* ``serial`` (default) — every shard is an in-process
  :class:`~repro.parallel.host.ShardHost`; zero IPC, zero encoding.
  Tier-1 tests and the differential suites run here: the routing, the
  merge, and the facade logic are identical to the process backend, so
  correctness is cheap to check.
* ``process`` — each shard is a forked OS worker running
  :func:`~repro.parallel.worker.worker_main`; events cross a
  length-prefixed wire in routed batches, and recognition runs on as
  many cores as there are shards.

**Deterministic merge.**  Each shard reports its notifications with a
per-shard sequence number (enqueue order).  The facade sorts the union
by ``(logical time, shard id, sequence)`` — a total order that depends
only on the event streams, never on worker scheduling.  Because every
affinity key lives on exactly one shard, a process instance's
notifications share a shard and their sequence numbers preserve
recognition order: the merged stream is a deterministic reordering of
the serial stream with per-instance order intact (QE11 asserts this).

**Crash containment.**  A dead worker surfaces as a structured log entry
plus :class:`~repro.errors.ShardCrashError` on the next interaction —
never a hang: reads fail fast on EOF, and shutdown waits for the
poison pill's answer at most ``join_timeout`` seconds before escalating
to ``terminate()`` and then ``kill()`` (a stopped worker never acts on
SIGTERM).

**One shard protocol, overlapped I/O.**  Whatever the backend, the
facade drives its shards through :class:`Shard` alone.  Every collective
— :meth:`ShardedFederation.drain`, deploy/undeploy sync, ``stats()``,
``refresh_observability()`` — calls ``begin`` on every live shard first,
gathers the process shards' responses as they arrive in one
:class:`~repro.parallel.mux.ChannelMultiplexer` wave, and hands each
shard its response through ``end``, so a collective costs the slowest
shard, not the sum of all shards.  Ingest is flow controlled per shard
by the pipe itself: an event frame is queued only on a channel with no
unwritten bytes, so a hot shard whose pipe is full defers *its own*
batches in the facade buffer while the rest of the wave keeps shipping
(see DESIGN note 13).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Tuple, Union

from ..errors import DurabilityError, ParallelError, ShardCrashError
from ..events.event import Event
from ..observability import INSTRUMENTATION as _OBS
from ..observability import STRUCTURED_LOG as _SLOG
from ..observability.health import SloRule, SystemHealth
from ..observability.logging import FederationLogView
from ..observability.registry import MetricsRegistry, default_registry
from ..observability.selfawareness import FederationMetricsView
from ..observability.trace import (
    DEFAULT_SAMPLE_EVERY,
    TraceAssembler,
    TraceContext,
)
from .codec import events_frame, hello_bytes
from .host import FederationBlueprint, ShardHost, ShardSpec
from .mux import ChannelMultiplexer, MuxChannel
from .router import ShardRouter
from .wire import SEQ_KEY, attach_trace

BACKENDS = ("serial", "process")

#: Seconds a worker gets to act on SIGTERM before it is killed.
TERMINATE_GRACE = 0.5

#: Response frame kind per collective operation.
_COLLECTIVE_RESPONSE = {"flush": "results", "stats": "stats"}

#: Shard id under which the facade process's own structured-log records
#: appear in the merged federation view (serial shards share the facade
#: process, so their records land here too).
FACADE_SHARD = -1

#: An observability shipment handler: receives the ``observability``
#: payload a shard piggybacked on a stats/flush exchange.
ObservabilitySink = Optional[Any]


@dataclass(frozen=True)
class ShardConfig:
    """Knobs of the sharded execution layer."""

    shards: int = 1
    backend: str = "serial"
    #: Events buffered per shard before a routed batch is sent.
    batch_size: int = 128
    #: Enable tracing/provenance inside each shard's pipeline (workers
    #: flip their own process-global instrumentation plane).
    instrument: bool = False
    #: Seconds to wait for a worker to answer the poison pill, and then
    #: to exit, before it is terminated (and killed if it stays).
    join_timeout: float = 5.0
    #: Root directory for per-shard journals and snapshots.  Setting it
    #: (process backend only) wraps every shard in a
    #: :class:`~repro.durability.supervisor.SupervisedShard`: mutations
    #: are journaled before dispatch and a crashed worker is respawned
    #: from its latest snapshot plus journal-tail replay.
    durable_dir: Optional[str] = None
    #: fsync the journal once per this many appends (0 = rely on the OS;
    #: a facade-process crash then still loses nothing, only a machine
    #: crash can).
    fsync_every: int = 16
    #: Take a shard snapshot (and compact its journal) every this many
    #: journaled frames; 0 disables snapshots — recovery replays the
    #: whole journal.
    snapshot_every: int = 256
    #: Recoveries allowed per shard before the supervisor gives up and
    #: lets the crash surface (a restart-storm backstop).
    max_recoveries: int = 3
    #: Ship each worker's structured-log ring to the facade's merged
    #: :class:`~repro.observability.logging.FederationLogView` (process
    #: backend; serial shards share the facade's process log, which the
    #: facade drains directly under :data:`FACADE_SHARD`).
    ship_logs: bool = False
    #: Head-sampling period of the facade's trace assembler: one ship
    #: wave in this many is traced end to end across the shards it
    #: touches (1 = trace every wave).  Only meaningful with
    #: ``instrument`` on.
    trace_sample_every: int = DEFAULT_SAMPLE_EVERY

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ParallelError("a federation needs at least one shard")
        if self.backend not in BACKENDS:
            raise ParallelError(
                f"unknown shard backend {self.backend!r}; "
                f"expected one of {BACKENDS}"
            )
        if self.batch_size < 1:
            raise ParallelError("batch_size must be positive")
        if self.durable_dir is not None and self.backend != "process":
            raise ParallelError(
                "durable_dir requires the process backend (a serial "
                "shard dies with the facade; there is no worker to "
                "respawn)"
            )
        if self.fsync_every < 0:
            raise ParallelError("fsync_every must be >= 0 (0 = never)")
        if self.snapshot_every < 0:
            raise ParallelError("snapshot_every must be >= 0 (0 = never)")
        if self.max_recoveries < 0:
            raise ParallelError("max_recoveries must be >= 0")
        if self.trace_sample_every < 1:
            raise ParallelError("trace_sample_every must be >= 1")


@dataclass(frozen=True)
class ShardNotification:
    """One merged notification with its provenance across the shard layer."""

    shard: int
    seq: int
    time: int
    participant_id: str
    schema_name: str
    description: str
    process_instance_id: Optional[str]
    #: Id-free delivery signature (present when shards run instrumented).
    signature: Optional[Tuple[Any, ...]]
    parameters: Dict[str, Any] = field(compare=False, default_factory=dict)

    @property
    def merge_key(self) -> Tuple[int, int, int]:
        return (self.time, self.shard, self.seq)


def _notification_from_record(
    shard: int, record: Dict[str, Any]
) -> ShardNotification:
    """Build one merged notification from a shard's drain record (native
    values: the signature is nested tuples whether the record crossed a
    pipe or not)."""
    return ShardNotification(
        shard=shard,
        seq=record["seq"],
        time=record["time"],
        participant_id=record["participant"],
        schema_name=record["schema"],
        description=record["description"],
        process_instance_id=record.get("instance"),
        signature=record.get("signature"),
        parameters=record.get("parameters") or {},
    )


class Shard(Protocol):
    """What the facade needs of one shard — and all a new transport
    has to implement.

    Collectives are split-phase: ``begin(op)`` sends the request without
    waiting (``op`` is a key of :data:`_COLLECTIVE_RESPONSE`), and
    ``end(op, frame)`` turns the response into the result — the record
    list for ``"flush"``, a ``(stats, errors)`` pair for ``"stats"``.
    The facade gathers the frames of every shard that has a ``channel``
    in one multiplexer wave; ``frame=None`` tells the shard to obtain
    its response itself.
    """

    shard_id: int
    backend: str
    observability_sink: ObservabilitySink

    @property
    def alive(self) -> bool: ...

    @property
    def channel(self) -> Optional[MuxChannel]:
        """The multiplexer channel; ``None`` when there is no pipe."""

    def send_events(
        self, events: List[Event], ctx: Optional[TraceContext] = None
    ) -> None: ...

    def deploy(self, spec: ShardSpec) -> None: ...

    def undeploy(self, spec_id: str) -> None: ...

    def begin(self, op: str) -> None: ...

    def end(self, op: str, frame: Optional[Dict[str, Any]] = None) -> Any: ...

    def close(self) -> None: ...


class SerialShard:
    """An in-process shard: direct calls, no encoding, no IPC."""

    backend = "serial"
    channel = None

    def __init__(
        self,
        shard_id: int,
        config: ShardConfig,
        blueprint: FederationBlueprint,
    ) -> None:
        self.shard_id = shard_id
        self.alive = True
        self.host = ShardHost(shard_id, config.shards)
        self.host.apply_blueprint(blueprint)
        #: Receives this shard's observability payloads (set by the
        #: facade); serial shards harvest straight from the host on
        #: every read, mirroring the frames a worker would send.
        self.observability_sink: ObservabilitySink = None

    def send_events(
        self, events: List[Event], ctx: Optional[TraceContext] = None
    ) -> None:
        self.host.ingest(events, ctx)

    def deploy(self, spec: ShardSpec) -> None:
        self.host.deploy_spec(spec)

    def undeploy(self, spec_id: str) -> None:
        self.host.undeploy_spec(spec_id)

    def begin(self, op: str) -> None:
        """Nothing to send: :meth:`end` computes the answer."""

    def end(self, op: str, frame: Optional[Dict[str, Any]] = None) -> Any:
        result: Any = (
            self.host.drain_results()
            if op == "flush"
            else (self.host.stats(), [])
        )
        self._harvest()
        return result

    def _harvest(self) -> None:
        """Feed the sink what a worker would piggyback on this exchange.

        Only the *system* registry ships: serial shards share the
        facade's process-wide default registry (stage histograms and
        durability counters), which the facade merges once under its own
        shard label instead of once per shard.  Logs likewise live in
        the shared process log, drained centrally by the facade.
        """
        sink = self.observability_sink
        if sink is None:
            return
        sink(
            {
                "registry": self.host.system.metrics.snapshot(),
                "spans": self.host.drain_spans(),
            }
        )

    def close(self) -> None:
        if self.alive:
            self.alive = False
            self.host.close()


class ProcessShard:
    """A forked worker behind two pipes (events in, results out).

    The pipes live inside a :class:`~repro.parallel.mux.MuxChannel`
    owned by the federation's :class:`ChannelMultiplexer`: writes are
    queued and pumped non-blocking, reads are readiness-driven, and the
    channel owns both directions' interning tables (fresh per shard).
    """

    backend = "process"

    def __init__(
        self,
        shard_id: int,
        config: ShardConfig,
        process: Any,
        mux: ChannelMultiplexer,
        channel: MuxChannel,
    ) -> None:
        self.shard_id = shard_id
        self.config = config
        self.process = process
        self.mux = mux
        self.channel = channel
        self.alive = True
        #: Sequence number of the next event frame; survives a respawn
        #: (the supervisor copies it onto the replacement shard) so
        #: journal-replayed frames keep their original numbers.
        self._next_seq = 0
        #: Receives the ``observability`` payloads the worker piggybacks
        #: on stats/results frames (set by the facade).
        self.observability_sink: ObservabilitySink = None

    # -- channel ----------------------------------------------------------

    def _crashed(self, reason: str) -> ShardCrashError:
        if self.alive:
            self.alive = False
            _SLOG.emit(
                "parallel",
                "worker_crashed",
                level="error",
                shard=self.shard_id,
                reason=reason,
                exit_code=self.process.exitcode,
            )
        return ShardCrashError(
            f"shard {self.shard_id} worker died ({reason}; "
            f"exit code {self.process.exitcode})"
        )

    def _send(self, frame: Union[Dict[str, Any], bytes]) -> None:
        """Queue *frame* on the channel (non-blocking).

        A mapping is encoded by the channel; ``bytes`` are a
        self-contained journal record, queued as they are.  Whether an
        event frame may go now is the facade's decision
        (:meth:`ShardedFederation.ingest` checks the channel is drained,
        :meth:`ShardedFederation.flush_buffers` waits until it is).
        """
        if not self.alive:
            raise ShardCrashError(
                f"shard {self.shard_id} worker is not running"
            )
        try:
            if isinstance(frame, bytes):
                self.channel.queue_encoded(frame)
            else:
                self.channel.queue(frame)
        except BrokenPipeError as error:
            raise self._crashed(str(error)) from None
        if self.channel.dead is not None:
            raise self._crashed(self.channel.dead)

    def _receive(
        self, expected: str, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Gather this shard's next response frame (blocking, at most
        *timeout* seconds when given).

        Out-of-band ``error`` frames a dying worker emits while a
        gather is pending are dispatched at the channel layer — they
        mark the channel dead with the worker's reason attributed, and
        surface here as the :class:`ShardCrashError` they are, never as
        a protocol violation.
        """
        frames, crashed = self.mux.gather({self.shard_id: expected}, timeout)
        if self.shard_id in crashed:
            raise self._crashed(crashed[self.shard_id])
        return frames[self.shard_id]

    def make_events_frame(
        self, events: List[Event], ctx: Optional[TraceContext] = None
    ) -> Dict[str, Any]:
        """Build the sequenced events frame (consumes one sequence
        number); the supervisor journals exactly this frame."""
        frame = attach_trace(events_frame(events), ctx)
        frame[SEQ_KEY] = self._next_seq
        self._next_seq += 1
        return frame

    # -- shard surface ----------------------------------------------------

    def send_events(
        self, events: List[Event], ctx: Optional[TraceContext] = None
    ) -> None:
        self._send(self.make_events_frame(events, ctx))

    def deploy(self, spec: ShardSpec) -> None:
        self._send({"kind": "deploy", "spec": spec.to_wire()})

    def undeploy(self, spec_id: str) -> None:
        self._send({"kind": "undeploy", "spec_id": spec_id})

    # -- split-phase collectives ------------------------------------------

    def begin(self, op: str) -> None:
        self._send({"kind": op})

    def end(self, op: str, frame: Optional[Dict[str, Any]] = None) -> Any:
        """Without *frame* this is the one-shard blocking round trip:
        what the supervisor's retry and post-recovery sync use, outside
        any federation-wide wave."""
        if frame is None:
            frame = self._receive(_COLLECTIVE_RESPONSE[op])
        sink = self.observability_sink
        payload = frame.get("observability")
        if sink is not None and payload:
            sink(payload)
        if op == "flush":
            return frame["notifications"]
        return frame["stats"], list(frame.get("errors", ()))

    def close(self) -> None:
        """Shut the worker down: the poison pill, its ``bye`` awaited at
        most ``join_timeout`` seconds, then the reap."""
        grace = 0.0
        if self.alive:
            try:
                self._send({"kind": "shutdown"})
                self._receive("bye", self.config.join_timeout)
                grace = self.config.join_timeout
            except (ShardCrashError, ParallelError):
                pass  # already down (or wedged) is reaped below
        self.discard(grace)

    def discard(self, grace: float = 0.0) -> None:
        """Tear the channel down and reap the worker (no handshake):
        it gets *grace* seconds to exit on its own."""
        self.alive = False
        self.mux.unregister(self.channel)
        self.channel.close_fds()
        self._reap(grace)

    def _reap(self, grace: float) -> None:
        process = self.process
        process.join(grace)
        if not process.is_alive():
            return
        _SLOG.emit(
            "parallel",
            "worker_killed",
            level="error",
            shard=self.shard_id,
            reason=f"still running after {grace}s",
        )
        process.terminate()
        process.join(TERMINATE_GRACE)
        if process.is_alive():
            # SIGTERM stays pending on a stopped process; SIGKILL does not.
            process.kill()
            process.join()


def _spawn_worker(
    shard_id: int,
    config: ShardConfig,
    blueprint_wire: Dict[str, Any],
    close_fds: List[int],
    mux: ChannelMultiplexer,
) -> ProcessShard:
    """Fork one worker booted from *blueprint_wire*.

    ``close_fds`` lists every parent-side fd the child must drop —
    sibling pipes (so a crashed sibling's channel is not held half-open)
    and, under durability, the journal fds.  The new shard's own
    parent-side ends are added automatically.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ParallelError(
            "the process backend requires the fork start method "
            "(POSIX only); use the serial backend here"
        )
    context = multiprocessing.get_context("fork")
    options = {
        "instrument": config.instrument,
        "ship_logs": config.ship_logs,
    }
    from .worker import worker_main

    in_read, in_write = os.pipe()
    out_read, out_write = os.pipe()
    process = context.Process(
        target=worker_main,
        args=(
            shard_id,
            config.shards,
            in_read,
            out_write,
            list(close_fds) + [in_write, out_read],
            options,
            blueprint_wire,
        ),
        daemon=True,
        name=f"repro-shard-{shard_id}",
    )
    process.start()
    os.close(in_read)
    os.close(out_write)
    # The hello bytes are the first thing on the event pipe, before any
    # frame; the worker refuses a channel that opens with anything else.
    # Written before the channel flips the fd non-blocking: five bytes
    # always fit a fresh pipe.
    os.write(in_write, hello_bytes())
    channel = MuxChannel(shard_id, in_write, out_read)
    mux.register(channel)
    return ProcessShard(shard_id, config, process, mux, channel)


def _start_process_shards(
    config: ShardConfig,
    blueprint: FederationBlueprint,
    mux: ChannelMultiplexer,
) -> List[ProcessShard]:
    blueprint_wire = blueprint.to_wire()
    shards: List[ProcessShard] = []
    parent_fds: List[int] = []
    for shard_id in range(config.shards):
        shard = _spawn_worker(
            shard_id, config, blueprint_wire, parent_fds, mux
        )
        # Every parent-side fd opened so far must be closed inside the
        # children forked later (see worker_main).
        parent_fds.extend((shard.channel.in_fd, shard.channel.out_fd))
        shards.append(shard)
    return shards


class ShardedFederation:
    """N shards behind the single-system API."""

    def __init__(
        self,
        blueprint: FederationBlueprint,
        config: Optional[ShardConfig] = None,
        router: Optional[ShardRouter] = None,
    ) -> None:
        self.config = config if config is not None else ShardConfig()
        self.router = router if router is not None else ShardRouter()
        self.blueprint = blueprint
        self._closed = False
        self._restore_instrumentation: Optional[bool] = None
        self._restore_logging: Optional[bool] = None
        #: Federation-wide observability plane, fed by the shards'
        #: piggybacked payloads on every stats/flush exchange.
        self.trace_assembler = TraceAssembler(
            sample_every=self.config.trace_sample_every
        )
        self.metrics_view = FederationMetricsView()
        self.log_view = FederationLogView()
        self.spans_dropped = 0
        #: Start the facade's own drain cursor at the process log's
        #: current position: records emitted before this federation
        #: existed are history, not federation traffic.
        self._local_log_cursor = _SLOG.seq
        self._mux: Optional[ChannelMultiplexer] = None
        if self.config.backend == "process":
            self._mux = ChannelMultiplexer()
            workers = _start_process_shards(
                self.config, blueprint, self._mux
            )
            if self.config.durable_dir is not None:
                from ..durability.supervisor import SupervisedShard

                self.shards: List[Shard] = []
                try:
                    for worker in workers:
                        self.shards.append(
                            SupervisedShard(
                                worker,
                                self.config,
                                blueprint,
                                self._respawn_worker,
                            )
                        )
                except DurabilityError:
                    # A journal this build refuses: reap every worker.
                    for shard in self.shards:
                        shard.journal.close()
                    for worker in workers:
                        worker.discard()
                    raise
            else:
                self.shards = list(workers)
        else:
            if self.config.instrument and not _OBS.enabled:
                # Workers own their instrumentation plane; serial shards
                # share this process's, so flip it here and restore on
                # close.
                self._restore_instrumentation = _OBS.enabled
                _OBS.reset()
                _OBS.enable()
            if self.config.ship_logs and not _SLOG.enabled:
                # Same deal for the structured log: serial shards record
                # into this process's ring, drained by logs().
                self._restore_logging = _SLOG.enabled
                _SLOG.enabled = True
            self.shards = [
                SerialShard(shard_id, self.config, blueprint)
                for shard_id in range(self.config.shards)
            ]
        for shard in self.shards:
            shard.observability_sink = (
                lambda payload, sid=shard.shard_id: self._on_observability(
                    sid, payload
                )
            )
        self._buffers: List[List[Event]] = [
            [] for __ in range(self.config.shards)
        ]
        #: Per-shard flag: the shard's buffer holds at least one full
        #: batch its undrained channel would not take.  Used to count one
        #: stall per deferral episode instead of one per event.
        self._deferred: List[bool] = [False] * self.config.shards
        #: Everything drained so far, in merged order.
        self.delivered: List[ShardNotification] = []

    # -- recovery plumbing --------------------------------------------------

    def _parent_fds(self) -> List[int]:
        """Every parent-side fd a freshly forked worker must close:
        the live siblings' pipe ends and the shards' journal fds."""
        fds: List[int] = []
        for shard in self.shards:
            channel = shard.channel
            if channel is not None and shard.alive:
                fds.extend((channel.in_fd, channel.out_fd))
            journal = getattr(shard, "journal", None)
            if journal is not None:
                try:
                    fds.append(journal.fileno())
                except (OSError, ValueError):  # pragma: no cover
                    pass
        return fds

    def _respawn_worker(
        self, shard_id: int, blueprint_wire: Dict[str, Any]
    ) -> ProcessShard:
        """Fork a replacement worker (the supervisor's respawn hook)."""
        assert self._mux is not None
        return _spawn_worker(
            shard_id,
            self.config,
            blueprint_wire,
            self._parent_fds(),
            self._mux,
        )

    # -- events ------------------------------------------------------------

    def ingest(self, events: List[Event]) -> None:
        """Route events to their shards; ships full batches eagerly.

        Under instrumentation, every batch shipped from one ``ingest``
        call shares a single :class:`TraceContext` — one logical *wave*.
        A wave the assembler samples is recorded end to end: each shard
        the wave reaches opens a ``shard.ingest`` root span under the
        wave's context, and the shipped trees reassemble into one trace
        spanning every shard the wave touched.  Events left buffered
        here ship later under that wave's context (see
        :meth:`flush_buffers`).

        Ingest never blocks on a slow shard: a full batch whose shard's
        channel still holds unwritten bytes (its pipe is full) stays in
        the facade buffer (event references, not copies) and ships once
        the worker has read enough for the channel to drain; meanwhile
        every other shard's batches keep flowing.
        """
        router = self.router
        shard_count = self.config.shards
        batch_size = self.config.batch_size
        buffers = self._buffers
        ctx: Optional[TraceContext] = None
        for event in events:
            index = router.shard_for(event, shard_count)
            buffer = buffers[index]
            buffer.append(event)
            if len(buffer) < batch_size:
                continue
            if not self._can_ship(index):
                # Pipe full: defer this shard's batch, count the stall
                # once per episode, give the pipe a chance to drain,
                # and keep the wave moving.
                if not self._deferred[index]:
                    self._deferred[index] = True
                    channel = self.shards[index].channel
                    assert channel is not None  # no pipe, no stall
                    channel.stalls += 1
                if self._mux is not None:
                    self._mux.pump(0.0)
                if not self._can_ship(index):
                    continue
            if ctx is None and self.config.instrument:
                ctx = self.trace_assembler.begin("federation.ingest")
            self._ship(index, ctx)

    def _can_ship(self, index: int) -> bool:
        """Whether shard *index* accepts an event frame right now.

        A dead channel reports ``True`` so the send attempt surfaces
        the crash (or triggers supervised recovery) instead of
        deferring forever.
        """
        channel = self.shards[index].channel
        return channel is None or channel.dead is not None or channel.drained

    def _ship(self, index: int, ctx: Optional[TraceContext]) -> None:
        """Ship full batches of shard *index* while its pipe takes them."""
        buffer = self._buffers[index]
        shard = self.shards[index]
        batch_size = self.config.batch_size
        start = 0
        while len(buffer) - start >= batch_size and self._can_ship(index):
            shard.send_events(buffer[start:start + batch_size], ctx)
            start += batch_size
        if start:
            self._buffers[index] = buffer = buffer[start:]
        self._deferred[index] = len(buffer) >= batch_size

    def flush_buffers(self) -> None:
        """Ship every partial batch (events keep per-shard order).

        This is a barrier: deferred batches ship too, each send waiting
        until its shard's channel has drained (the multiplexer keeps
        pumping every channel during the wait).
        """
        if not any(self._buffers):
            return
        ctx: Optional[TraceContext] = None
        if self.config.instrument:
            ctx = self.trace_assembler.begin("federation.flush")
        batch_size = self.config.batch_size
        for index, buffer in enumerate(self._buffers):
            if not buffer:
                continue
            shard = self.shards[index]
            # Deferred batches may have stacked past one batch_size;
            # they ship as separate frames, one queued at a time.
            for start in range(0, len(buffer), batch_size):
                # A dead channel returns at once: the send surfaces the
                # crash (or recovers, and the next send sees the new one).
                channel = shard.channel
                if channel is not None and self._mux is not None:
                    self._mux.wait_drained(channel)
                shard.send_events(buffer[start:start + batch_size], ctx)
            self._buffers[index] = []
            self._deferred[index] = False

    # -- specification lifecycle ------------------------------------------

    def deploy(self, spec: ShardSpec) -> None:
        """Fan a specification out to every shard (plan sharing stays
        per-shard: each pipeline interns its own copy)."""
        self.flush_buffers()
        for shard in self.shards:
            shard.deploy(spec)
        self._sync()
        self.blueprint.specifications.append(spec)

    def undeploy(self, spec_id: str) -> None:
        self.flush_buffers()
        for shard in self.shards:
            shard.undeploy(spec_id)
        self._sync()
        self.blueprint.specifications = [
            spec
            for spec in self.blueprint.specifications
            if spec.spec_id != spec_id
        ]

    # -- collectives --------------------------------------------------------

    def _collect(
        self, op: str, tolerant: bool = False
    ) -> List[Tuple[Shard, Any]]:
        """One broadcast-then-gather collective across the federation.

        Broadcasts the *op* request (``"flush"`` or ``"stats"``) to
        every shard first, then gathers the responses as they arrive —
        the collective costs the slowest shard, not the sum.  Returns
        ``[(shard, result), ...]`` in shard order: records lists for
        ``flush``, ``(stats, errors)`` pairs for ``stats``.

        The wave always completes: every broadcast request is matched
        to its response (or its shard's crash) before anything is
        raised, so no stale frame is left behind to poison the next
        collective.  Supervised shards recover-and-retry internally;
        a plain shard's crash raises after the wave, with the shard
        attributed.  With ``tolerant``, dead shards are skipped and
        crashes drop the shard from the result instead of raising.
        """
        begun: List[Shard] = []
        failures: List[ShardCrashError] = []
        for shard in self.shards:
            if tolerant and not shard.alive:
                continue
            try:
                shard.begin(op)
                begun.append(shard)
            except ShardCrashError as error:
                if not tolerant:
                    failures.append(error)
        frames: Dict[int, Dict[str, Any]] = {}
        wants = {
            shard.shard_id: _COLLECTIVE_RESPONSE[op]
            for shard in begun
            if shard.channel is not None
        }
        if wants and self._mux is not None:
            frames, __ = self._mux.gather(wants)
        results: List[Tuple[Shard, Any]] = []
        for shard in begun:
            try:
                results.append(
                    (shard, shard.end(op, frames.get(shard.shard_id)))
                )
            except ShardCrashError as error:
                if not tolerant:
                    failures.append(error)
        if failures:
            raise failures[0]
        return results

    def _sync(self) -> None:
        # Round-trip every shard even when an early one reports errors:
        # stopping at the first failure would leave later shards'
        # deferred errors undrained, poisoning the *next* operation.
        problems: List[str] = []
        for shard, (__, errors) in self._collect("stats"):
            if errors:
                problems.append(
                    f"shard {shard.shard_id} reported errors: {errors}"
                )
        if problems:
            raise ParallelError("; ".join(problems))

    # -- results -----------------------------------------------------------

    def drain(self) -> List[ShardNotification]:
        """Collect and deterministically merge new notifications.

        The flush fans out to every shard before the first response is
        awaited, so the drain costs the slowest shard's flush.  The
        merge key is ``(logical time, shard id, sequence)``: a total
        order independent of worker scheduling — and of gather arrival
        order.  Per-shard sequence numbers increase with enqueue order,
        so notifications of one process instance (always co-sharded)
        keep their recognition order in the merged stream.
        """
        self.flush_buffers()
        merged: List[ShardNotification] = []
        for shard, records in self._collect("flush"):
            merged.extend(
                _notification_from_record(shard.shard_id, record)
                for record in records
            )
        merged.sort(key=lambda n: n.merge_key)
        self.delivered.extend(merged)
        return merged

    # -- observability ------------------------------------------------------

    def _on_observability(self, shard_id: int, payload: Dict[str, Any]) -> None:
        """Route one shard's piggybacked shipment into the facade views."""
        registry = payload.get("registry")
        if registry:
            self.metrics_view.update(shard_id, registry)
        spans = payload.get("spans")
        if spans:
            for batch in spans.get("batches", ()):
                self.trace_assembler.add_batch(batch)
            self.spans_dropped += int(spans.get("dropped", 0))
        logs = payload.get("logs")
        if logs:
            self.log_view.extend(
                shard_id,
                logs.get("records", ()),
                int(logs.get("dropped", 0)),
            )

    def refresh_observability(self) -> None:
        """Round-trip every live shard so the federation views are
        current (each read piggybacks the shard's latest shipment) —
        one overlapped wave, not a per-shard loop."""
        self._collect("stats", tolerant=True)

    def traces(self) -> Tuple[Dict[str, Any], ...]:
        """Assembled cross-shard traces, oldest first."""
        return self.trace_assembler.traces()

    def logs(self) -> FederationLogView:
        """The merged federation log, facade-process records included.

        Worker records arrive through the piggybacked shipments (call
        :meth:`refresh_observability` or any stats/drain first); the
        facade's own process log — which serial shards share — is
        drained here under :data:`FACADE_SHARD`.
        """
        records, dropped, cursor = _SLOG.drain(self._local_log_cursor)
        self._local_log_cursor = cursor
        self.log_view.extend(FACADE_SHARD, records, dropped)
        return self.log_view

    def metrics_registry(self) -> MetricsRegistry:
        """The merged federation registry: every shard's snapshot under
        its ``shard`` label, plus this process's default registry (stage
        histograms of serial shards, journal/supervisor counters) under
        the ``facade`` label."""
        merged = self.metrics_view.registry()
        merged.merge(default_registry().snapshot(), shard="facade")
        return merged

    def render_metrics(self) -> str:
        """Prometheus text exposition across the whole federation."""
        return self.metrics_registry().render_text()

    def health(
        self, rules: Optional[Tuple[SloRule, ...]] = None
    ) -> SystemHealth:
        """Threshold SLO rules evaluated over the merged federation
        registry — a breach inside any one worker surfaces here."""
        self.refresh_observability()
        return self.metrics_view.health(rules)

    def shard_stats(self) -> List[Dict[str, Any]]:
        """Per-shard rows for ``repro shards`` and the dashboard."""
        stats_by_id: Dict[int, Dict[str, Any]] = {}
        for shard, (stats, errors) in self._collect("stats", tolerant=True):
            if errors:
                raise ParallelError(
                    f"shard {shard.shard_id} reported errors: {errors}"
                )
            stats_by_id[shard.shard_id] = dict(stats)
        rows: List[Dict[str, Any]] = []
        for shard in self.shards:
            row: Dict[str, Any] = {
                "shard": shard.shard_id,
                "backend": shard.backend,
                "alive": shard.alive,
                "buffered": len(self._buffers[shard.shard_id]),
            }
            channel = shard.channel
            if channel is not None:
                row["stalls"] = channel.stalls
            row.update(stats_by_id.get(shard.shard_id, {}))
            rows.append(row)
        return rows

    def stats(self) -> Dict[str, Any]:
        """The federation aggregate: counter sums across live shards.

        Numeric stats sum; anything a shard reports that cannot be
        summed (strings, flags, structures) is namespaced per shard as
        ``shard<N>/<key>`` instead of being silently dropped — a worker
        surfacing a non-counter datum deserves to be seen.
        """
        totals: Dict[str, Any] = {}
        alive = 0
        for row in self.shard_stats():
            if row["alive"]:
                alive += 1
            for key, value in row.items():
                if key in ("shard", "backend", "alive"):
                    continue
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    totals[f"shard{row['shard']}/{key}"] = value
                else:
                    totals[key] = totals.get(key, 0) + value
        totals["shards"] = self.config.shards
        totals["shards_alive"] = alive
        totals["notifications_merged"] = len(self.delivered)
        return totals

    def healthy(self) -> bool:
        return all(shard.alive for shard in self.shards)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            try:
                shard.close()
            except ShardCrashError:  # pragma: no cover - already logged
                pass
        if self._mux is not None:
            self._mux.close()
        if self._restore_instrumentation is not None:
            _OBS.enabled = self._restore_instrumentation
        if self._restore_logging is not None:
            _SLOG.enabled = self._restore_logging

    def __enter__(self) -> "ShardedFederation":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
