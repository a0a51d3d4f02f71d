"""The shard supervisor: journal every mutation, restart the dead.

:class:`SupervisedShard` is a :class:`~repro.parallel.federation.ProcessShard`
with the durability loop:

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
  interaction), the shard restarts it in place from the snapshot's
  blueprint (or the genesis blueprint when no snapshot succeeded yet),
  the snapshot state is restored, and the journal tail's bytes replay
  through the rebuilt pipeline.  Replay regenerates the per-shard
  notification stream deterministically, so notifications the facade
  already merged come back with the same ``(time, shard, seq)`` keys —
  the sequence high-watermark in :meth:`SupervisedShard.end` drops
  them, and the merged stream continues exactly where it left off.

The subclass overrides one mutation hook (``_mutate``), the split-phase
``begin``/``end`` and one shipment hook (``_forward``); the worker's
fork, channel and reap are the base class's, and a restart keeps the
object — its frame sequence counter and observability sink with it.

The retry discipline is asymmetric by design: **mutations are never
resent** (the journaled frame is part of the replay tail — a resend
would double-apply), while **reads** (``flush``, ``stats``, ``metrics``)
**are retried once** after recovery (they are idempotent against the
rebuilt worker) and never journaled.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ParallelError, ShardCrashError
from ..observability import STRUCTURED_LOG as _SLOG
from ..observability.registry import MetricsRegistry
from ..parallel.codec import encode_standalone
from ..parallel.federation import ProcessShard, ShardConfig
from ..parallel.host import FederationBlueprint
from ..parallel.mux import ChannelMultiplexer
from .log import FrameLog
from .snapshot import ShardSnapshot

JOURNAL_FILENAME = "journal.log"
#: The name predates the binary snapshot format and is kept so a leftover
#: version-1 file is met, and refused, by the loader (DESIGN note 22).
SNAPSHOT_FILENAME = "snapshot.json"


def shard_directory(root: str, shard_id: int) -> str:
    """The durable state directory of one shard.  Its journal creates
    it, and makes its entry durable with the journal's first synced
    frame (:class:`~repro.durability.log.FrameLog`)."""
    return os.path.join(root, f"shard-{shard_id}")


class SupervisedShard(ProcessShard):
    """A process shard with a write-ahead journal and crash recovery."""

    def __init__(
        self,
        shard_id: int,
        config: ShardConfig,
        blueprint_wire: Dict[str, Any],
        mux: ChannelMultiplexer,
        peers: Sequence[ProcessShard],
        blueprint: FederationBlueprint,
        metrics: MetricsRegistry,
    ) -> None:
        assert config.durable_dir is not None
        directory = shard_directory(config.durable_dir, shard_id)
        # Opened before the fork, so a journal this build refuses starts
        # no worker.  Opening the journal of a reused durable directory
        # rewrites it once (a torn tail is dropped, stream-interned
        # records become self-contained); a JSON-era journal is refused.
        self.journal = FrameLog(
            os.path.join(directory, JOURNAL_FILENAME),
            fsync_every=config.fsync_every,
        )
        self.snapshot_path = os.path.join(directory, SNAPSHOT_FILENAME)
        #: The facade's live blueprint (shared, mutated by deploys);
        #: snapshots serialize its state as of the snapshot request.
        self._blueprint = blueprint
        #: The blueprint the worker booted with (never mutated) — the
        #: replay starting point until a snapshot succeeds.
        self._genesis = blueprint_wire
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
        #: in :meth:`_forward` so the merged log never double-counts.
        self._log_seq_high = 0
        self.recoveries = 0
        #: Counted into the federation's facade registry (*metrics*).
        self._snapshots = metrics.counter(
            "shard_snapshots_total", "Shard snapshots persisted"
        )
        try:
            super().__init__(shard_id, config, blueprint_wire, mux, peers)
        except BaseException:
            self.journal.close()
            raise

    @property
    def inner(self) -> "SupervisedShard":
        """Vestigial: the shard itself (``perf/`` still spells
        ``shard.inner.process``)."""
        return self

    def parent_fds(self) -> List[int]:
        return super().parent_fds() + [self.journal.fileno()]

    # -- hooks (journal-then-send, replay is the retry) --------------------

    def _mutate(self, frame: Dict[str, Any]) -> None:
        # Encoded once, self-contained: the journal record and the pipe
        # frame are the same bytes, so recovery replays what was sent.
        # An events frame's sequence number was assigned before this,
        # so a replayed frame keeps it: the worker's replay mark
        # compares it.  Journal-before-send holds for queued writes
        # too: a frame enters the channel's outbound queue after the
        # journal has it.
        data = encode_standalone(frame)
        self.journal.append_encoded(data)
        try:
            self._send(data)
        except ShardCrashError:
            # The frame is already in the journal: recovery replays it
            # into the restarted worker.  Resending would double-apply.
            self.recover()
        if frame["kind"] == "events":
            self._maybe_snapshot()

    def _forward(self, payload: Dict[str, Any]) -> None:
        """Drop log records at or below the forwarded watermark."""
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
            payload = {**payload, "logs": {**logs, "records": records}}
        super()._forward(payload)

    # -- reads (idempotent, retried once after recovery) -------------------

    def begin(self, op: str) -> None:
        try:
            super().begin(op)
        except ShardCrashError:
            self.recover()
            super().begin(op)

    def end(self, op: str, frame: Optional[Dict[str, Any]] = None) -> Any:
        try:
            result = super().end(op, frame)
        except ShardCrashError:
            # The worker died between broadcast and gather; the
            # restarted one replays the journal, then a fresh blocking
            # round trip re-asks the question (reads are idempotent).
            self.recover()
            super().begin(op)
            result = super().end(op)
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
        if op == "metrics":
            return result
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
            self._send({"kind": "snapshot"})
            state = self._receive("snapshot")["state"]
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
        """Restart the worker and replay it back to the present.

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
        _SLOG.emit(
            "durability",
            "shard_recovery_started",
            level="warning",
            shard=self.shard_id,
            attempt=self.recoveries,
            from_frame=start,
            snapshot=snapshot is not None,
        )
        self.journal.sync()
        tail = self.journal.tail(start)
        self.restart(
            snapshot.blueprint if snapshot is not None else self._genesis
        )
        if snapshot is not None:
            self._send({"kind": "restore", "state": snapshot.state})
        # The worker owns the replay decision: event frames below the
        # mark are replays, recorded unsampled (their spans shipped
        # before the crash).  So the tail goes as the journal's bytes,
        # queued like any send; the stats round trip below ingests all
        # of it before any live frame is queued.
        self._send({"kind": "replay", "below": self._next_seq})
        for record in tail:
            self._send(record)
        # The base class's round trip: a crash here is not retried.
        super().begin("stats")
        __, errors = super().end("stats")
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
            super().close()
        finally:
            self.journal.close()
