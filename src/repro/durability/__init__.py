"""Durable enactment: write-ahead journals, snapshots, crash recovery.

The paper's Enactment System is long-running infrastructure; this
package makes the sharded execution layer (:mod:`repro.parallel`)
survive worker crashes without losing or duplicating notifications:

* :mod:`~repro.durability.log` — the per-shard write-ahead
  :class:`FrameLog`: length-prefixed wire frames on disk, fsync-batched,
  torn-tail tolerant, compactable without renumbering;
* :mod:`~repro.durability.state` — the snapshot codec for live operator
  state (partition maps, counters, held events with provenance);
* :mod:`~repro.durability.snapshot` — :class:`ShardSnapshot`, the
  atomic pairing of a journal position with the blueprint and host
  state that cover it;
* :mod:`~repro.durability.supervisor` — :class:`SupervisedShard`, the
  journal-then-send / respawn-and-replay loop the facade wraps around
  each process shard when :attr:`ShardConfig.durable_dir` is set.

The recovery contract is *exact continuation*: the provenance-signature
multiset of a crashed-and-recovered run equals the uninterrupted run's
(QE12 asserts it), because replay regenerates the per-shard stream
deterministically and the facade's ``(time, shard, seq)`` merge keys
suppress notifications it already merged.
"""

from .log import CONTROL_COMPACTED, FrameLog, load_journal
from .snapshot import SNAPSHOT_VERSION, ShardSnapshot
from .state import (
    capture_operator,
    capture_operators,
    encode_state,
    restore_operator,
    restore_operators,
)
from .supervisor import (
    JOURNAL_FILENAME,
    SNAPSHOT_FILENAME,
    SupervisedShard,
    shard_directory,
)

__all__ = [
    "CONTROL_COMPACTED",
    "FrameLog",
    "JOURNAL_FILENAME",
    "SNAPSHOT_FILENAME",
    "SNAPSHOT_VERSION",
    "ShardSnapshot",
    "SupervisedShard",
    "capture_operator",
    "capture_operators",
    "encode_state",
    "load_journal",
    "restore_operator",
    "restore_operators",
    "shard_directory",
]
