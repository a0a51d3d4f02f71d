"""The shard supervisor: journal every mutation, respawn the dead.

:class:`SupervisedShard` wraps one process-backend shard with the
durability loop:

* **journal-then-send** — every mutating frame (event batch, deploy,
  undeploy) is encoded once, self-contained, and the same bytes are
  appended to the shard's write-ahead :class:`FrameLog` *before* they
  cross the worker pipe, so the facade can reconstruct the exact frame
  sequence a dead worker had received (or was about to);
* **snapshot cadence** — every ``snapshot_every`` journaled frames the
  worker is asked for its recoverable state (the request rides the
  ordered pipe, so the reply reflects exactly the frames journaled so
  far); the snapshot is persisted atomically and the journal compacts
  down to the frames it does not cover;
* **recovery** — when the worker dies (:class:`ShardCrashError` from any
  interaction), a replacement is forked from the snapshot's blueprint
  (or the genesis blueprint when no snapshot succeeded yet), the
  snapshot state is restored, and the journal tail's bytes replay
  through the rebuilt pipeline.  Replay regenerates the per-shard
  notification stream deterministically, so notifications the facade
  already merged come back with the same ``(time, shard, seq)`` keys —
  the sequence high-watermark in :meth:`SupervisedShard.end` drops
  them, and the merged stream continues exactly where it left off.

The retry discipline is asymmetric by design: **mutations are never
resent** (the journaled frame is part of the replay tail — a resend
would double-apply), while **reads are retried once** after recovery
(they are idempotent against the rebuilt worker).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..errors import ParallelError, ShardCrashError
from ..events.event import Event
from ..observability import STRUCTURED_LOG as _SLOG
from ..observability import default_registry
from ..observability.trace import TraceContext
from ..parallel.codec import encode_standalone
from ..parallel.host import FederationBlueprint, ShardSpec
from .log import FrameLog
from .snapshot import ShardSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..parallel.federation import ProcessShard, ShardConfig
    from ..parallel.mux import MuxChannel

#: A respawn callback: fork a replacement worker for ``shard_id`` booted
#: from ``blueprint_wire`` (the facade supplies it so the child closes
#: every sibling pipe and journal fd it inherits).
Respawn = Callable[[int, Dict[str, Any]], "ProcessShard"]

JOURNAL_FILENAME = "journal.log"
#: The name predates the binary snapshot format and is kept so a leftover
#: version-1 file is met, and refused, by the loader (DESIGN note 22).
SNAPSHOT_FILENAME = "snapshot.json"


def shard_directory(root: str, shard_id: int) -> str:
    """The (created) durable state directory of one shard."""
    path = os.path.join(root, f"shard-{shard_id}")
    os.makedirs(path, exist_ok=True)
    return path


class SupervisedShard:
    """A process shard with a write-ahead journal and crash recovery."""

    backend = "process"

    def __init__(
        self,
        inner: "ProcessShard",
        config: "ShardConfig",
        blueprint: FederationBlueprint,
        respawn: Respawn,
    ) -> None:
        assert config.durable_dir is not None
        self.shard_id = inner.shard_id
        self.config = config
        self.inner = inner
        #: The facade's live blueprint (shared, mutated by deploys);
        #: snapshots serialize its state as of the snapshot request.
        self._blueprint = blueprint
        #: Frozen copy of the blueprint the worker booted with — the
        #: replay starting point until a snapshot succeeds.
        self._genesis = blueprint.to_wire()
        self._respawn = respawn
        directory = shard_directory(config.durable_dir, self.shard_id)
        # Opening the journal of a reused durable directory rewrites it
        # once (a torn tail is dropped, stream-interned records become
        # self-contained); a JSON-era journal is refused.
        self.journal = FrameLog(
            os.path.join(directory, JOURNAL_FILENAME),
            fsync_every=config.fsync_every,
        )
        self.snapshot_path = os.path.join(directory, SNAPSHOT_FILENAME)
        #: Frames below this index predate this federation (a reused
        #: durable directory); the genesis blueprint already covers them.
        self._genesis_index = self.journal.frame_count
        self._snapshot: Optional[ShardSnapshot] = None
        #: Highest notification sequence the facade has merged; replayed
        #: duplicates at or below it are dropped in :meth:`end`.
        self._seq_high = -1
        #: Highest structured-log sequence number forwarded to the
        #: facade; records a recovered worker re-emits during journal
        #: replay carry sequence numbers at or below it (the snapshot
        #: restored the worker's emission counter) and are filtered out
        #: here so the merged log never double-counts.
        self._log_seq_high = 0
        self._sink: Optional[Callable[[Dict[str, Any]], None]] = None
        self.recoveries = 0
        self._snapshots = default_registry().counter(
            "shard_snapshots_total", "Shard snapshots persisted"
        )

    @property
    def alive(self) -> bool:
        return self.inner.alive

    @property
    def channel(self) -> "MuxChannel":
        """The current worker's multiplexer channel (changes on respawn)."""
        return self.inner.channel

    # -- observability forwarding ------------------------------------------

    @property
    def observability_sink(self) -> Optional[Callable[[Dict[str, Any]], None]]:
        return self._sink

    @observability_sink.setter
    def observability_sink(
        self, sink: Optional[Callable[[Dict[str, Any]], None]]
    ) -> None:
        self._sink = sink
        self._install_sink()

    def _install_sink(self) -> None:
        """(Re)attach the log-watermark filter to the current worker."""
        if self._sink is None:
            self.inner.observability_sink = None
            return

        def filtered(payload: Dict[str, Any]) -> None:
            logs = payload.get("logs")
            if logs:
                records = [
                    record
                    for record in logs.get("records", ())
                    if int(record.get("_seq", 0)) > self._log_seq_high
                ]
                if records:
                    self._log_seq_high = max(
                        int(record.get("_seq", 0)) for record in records
                    )
                logs = dict(logs)
                logs["records"] = records
                payload = dict(payload)
                payload["logs"] = logs
            sink = self._sink
            if sink is not None:
                sink(payload)

        self.inner.observability_sink = filtered

    # -- mutations (journal-then-send, replay is the retry) ----------------

    def _journal_and_send(self, frame: Dict[str, Any]) -> None:
        # Encoded once, self-contained: the journal record and the pipe
        # frame are the same bytes, so recovery replays what was sent.
        data = encode_standalone(frame)
        self.journal.append_encoded(data)
        try:
            self.inner._send(data)
        except ShardCrashError:
            # The frame is already in the journal: recovery replays it
            # into the replacement worker.  Resending would double-apply.
            self.recover()

    def send_events(
        self, events: List[Event], ctx: Optional[TraceContext] = None
    ) -> None:
        # The sequence number is assigned before journaling, so a
        # replayed frame keeps it: the worker's replay mark compares it.
        # Journal-before-send holds for queued writes too: a frame
        # enters the channel's outbound queue after the journal has it.
        self._journal_and_send(self.inner.make_events_frame(events, ctx))
        self._maybe_snapshot()

    def deploy(self, spec: ShardSpec) -> None:
        self._journal_and_send({"kind": "deploy", "spec": spec.to_wire()})

    def undeploy(self, spec_id: str) -> None:
        self._journal_and_send({"kind": "undeploy", "spec_id": spec_id})

    # -- reads (idempotent, retried once after recovery) -------------------

    def begin(self, op: str) -> None:
        try:
            self.inner.begin(op)
        except ShardCrashError:
            self.recover()
            self.inner.begin(op)

    def end(self, op: str, frame: Optional[Dict[str, Any]] = None) -> Any:
        try:
            result = self.inner.end(op, frame)
        except ShardCrashError:
            # The worker died between broadcast and gather; the
            # replacement replays the journal, then a fresh blocking
            # round trip re-asks the question (reads are idempotent).
            self.recover()
            self.inner.begin(op)
            result = self.inner.end(op)
        if op == "flush":
            # Drop replayed duplicates at or below the merge watermark.
            fresh = [
                record
                for record in result
                if int(record["seq"]) > self._seq_high
            ]
            if fresh:
                self._seq_high = int(fresh[-1]["seq"])
            return fresh
        stats, errors = result
        stats = dict(stats)
        stats["recoveries"] = self.recoveries
        stats["journal_frames"] = self.journal.frame_count
        return stats, errors

    # -- snapshots ---------------------------------------------------------

    def _covered_index(self) -> int:
        snapshot = self._snapshot
        return (
            snapshot.frame_index
            if snapshot is not None
            else self._genesis_index
        )

    def _maybe_snapshot(self) -> None:
        every = self.config.snapshot_every
        if not every:
            return
        if self.journal.frame_count - self._covered_index() >= every:
            self.take_snapshot()

    def take_snapshot(self) -> Optional[ShardSnapshot]:
        """Snapshot the worker's state now; ``None`` when not possible.

        The round trip rides the ordered pipe, so the reply reflects
        exactly the ``frame_index`` frames journaled before the request.
        A ``None`` state (some live operator is not snapshot-encodable)
        leaves the full journal in place — recovery replays from the
        previous covered index, which is always correct.
        """
        frame_index = self.journal.frame_count
        try:
            self.inner._send({"kind": "snapshot"})
            state = self.inner._receive("snapshot")["state"]
        except ShardCrashError:
            self.recover()
            return None
        if state is None:
            _SLOG.emit(
                "durability",
                "snapshot_unsupported",
                level="warning",
                shard=self.shard_id,
                frame_index=frame_index,
            )
            return None
        snapshot = ShardSnapshot(
            shard_id=self.shard_id,
            frame_index=frame_index,
            blueprint=self._blueprint.to_wire(),
            state=state,
        )
        # Invariant for offline tools: a snapshot on disk never covers
        # frames the journal has not durably written.
        self.journal.sync()
        snapshot.save(self.snapshot_path)
        self._snapshot = snapshot
        self._snapshots.inc()
        self.journal.compact(frame_index)
        if _SLOG.enabled:
            _SLOG.emit(
                "durability",
                "snapshot_taken",
                shard=self.shard_id,
                frame_index=frame_index,
                journal_frames=self.journal.frame_count - frame_index,
            )
        return snapshot

    # -- recovery ----------------------------------------------------------

    def recover(self) -> None:
        """Respawn the worker and replay it back to the present.

        Boot state is the latest snapshot (blueprint + operator state)
        or the genesis blueprint; then every journal record above the
        covered index replays through the rebuilt pipeline in order.
        The final stats round trip surfaces a restore or replay failure
        here — as a recovery error — rather than letting it poison the
        next regular operation; a damaged journal fails :meth:`tail`
        before any worker is forked.
        """
        if self.recoveries >= self.config.max_recoveries:
            raise ShardCrashError(
                f"shard {self.shard_id} crashed again after "
                f"{self.recoveries} recoveries (max_recoveries="
                f"{self.config.max_recoveries}); giving up"
            )
        self.recoveries += 1
        snapshot = self._snapshot
        start = self._covered_index()
        blueprint_wire = (
            snapshot.blueprint if snapshot is not None else self._genesis
        )
        _SLOG.emit(
            "durability",
            "shard_recovery_started",
            level="warning",
            shard=self.shard_id,
            attempt=self.recoveries,
            from_frame=start,
            snapshot=snapshot is not None,
        )
        old = self.inner
        old.discard()
        self.journal.sync()
        tail = self.journal.tail(start)
        self.inner = self._respawn(self.shard_id, blueprint_wire)
        # The replacement continues the old sequence counter, so new
        # frames never collide with the journaled numbers.
        self.inner._next_seq = old._next_seq
        self._install_sink()
        if snapshot is not None:
            self.inner._send({"kind": "restore", "state": snapshot.state})
        # The worker owns the replay decision: event frames below the
        # mark are replays, recorded unsampled (their spans shipped
        # before the crash).  So the tail goes as the journal's bytes,
        # queued like any send; the stats round trip below ingests all
        # of it before any live frame is queued.
        self.inner._send({"kind": "replay", "below": old._next_seq})
        for record in tail:
            self.inner._send(record)
        self.inner.begin("stats")
        __, errors = self.inner.end("stats")
        if errors:
            raise ParallelError(
                f"shard {self.shard_id} reported errors: {errors}"
            )
        _SLOG.emit(
            "durability",
            "shard_recovered",
            level="warning",
            shard=self.shard_id,
            attempt=self.recoveries,
            replayed=len(tail),
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        try:
            self.inner.close()
        finally:
            self.journal.close()
