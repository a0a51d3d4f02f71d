"""Durable enactment: write-ahead journals, snapshots, crash recovery.

The paper's Enactment System is long-running infrastructure; this
package makes the sharded execution layer (:mod:`repro.parallel`)
survive worker crashes without losing or duplicating notifications:

* :mod:`~repro.durability.log` — the per-shard write-ahead
  :class:`FrameLog`: length-prefixed wire frames on disk, fsync-batched,
  torn-tail tolerant, compactable without renumbering;
* :mod:`~repro.durability.state` — capture and restore of live operator
  state (partition maps, counters, held events with provenance), raw
  values the binary codec carries as they are;
* :mod:`~repro.durability.snapshot` — :class:`ShardSnapshot`, the
  atomic pairing of a journal position with the blueprint and host
  state that cover it, on disk as one codec record;
* :mod:`~repro.durability.supervisor` — :class:`SupervisedShard`, the
  process shard with the journal-then-send / restart-and-replay loop,
  one per shard when :attr:`ShardConfig.durable_dir` is set.

The recovery contract is *exact continuation*: the provenance-signature
multiset of a crashed-and-recovered run equals the uninterrupted run's
(QE12 asserts it), because replay regenerates the per-shard stream
deterministically and the facade's ``(time, shard, seq)`` merge keys
suppress notifications it already merged.

Every file this package writes or reads speaks the one value codec of
:mod:`repro.parallel.codec`.  A journal or snapshot written in the
JSON-era formats is refused with a :class:`~repro.errors.DurabilityError`
naming the last build that reads it (DESIGN note 22).
"""

from .log import CONTROL_COMPACTED, FrameLog, load_journal
from .snapshot import SNAPSHOT_VERSION, ShardSnapshot
from .state import capture_operator, restore_operator
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
    "load_journal",
    "restore_operator",
    "shard_directory",
]
