"""Shard snapshots: a consistent cut of one shard's recoverable state.

A snapshot pairs a *journal position* with everything a fresh
:class:`~repro.parallel.host.ShardHost` needs to continue as if it had
processed every journal frame below that position:

* the **blueprint** as of the snapshot (participants, roles, and the
  specifications currently deployed — run-time deploys/undeploys
  included), so the rebuilt pipeline wires the same detector DAGs in the
  same order;
* the **host state** (:meth:`ShardHost.snapshot_state`): per-operator
  partition maps and counters, per-detector recognition counts, the
  absolute delivery sequence (so recovered notifications continue the
  per-shard numbering the deterministic merge sorts on), and the ingest
  counters.

Snapshots are written atomically (temp file + ``rename`` after fsync) so
a crash mid-snapshot leaves the previous snapshot intact, and carry the
journal frame index they cover: recovery = boot from snapshot, then
replay the journal tail from that index.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import DurabilityError

SNAPSHOT_VERSION = 1


@dataclass
class ShardSnapshot:
    """One shard's persisted recovery point."""

    shard_id: int
    #: Absolute journal index of the first frame NOT covered: replay
    #: starts here.
    frame_index: int
    #: ``FederationBlueprint.to_wire()`` as of the snapshot.
    blueprint: Dict[str, Any]
    #: ``ShardHost.snapshot_state()`` payload (operators, seq, counters).
    state: Dict[str, Any]
    #: Vestigial — neither stored nor read (a ``codec`` key in an older
    #: snapshot file is ignored); kept only because ``perf/`` still
    #: constructs snapshots with ``codec="binary"``.
    codec: str = "binary"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SNAPSHOT_VERSION,
            "shard_id": self.shard_id,
            "frame_index": self.frame_index,
            "blueprint": self.blueprint,
            "state": self.state,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ShardSnapshot":
        version = data.get("version")
        if version != SNAPSHOT_VERSION:
            raise DurabilityError(
                f"unsupported snapshot version {version!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        return ShardSnapshot(
            shard_id=int(data["shard_id"]),
            frame_index=int(data["frame_index"]),
            blueprint=dict(data["blueprint"]),
            state=dict(data["state"]),
        )

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        """Write atomically: a crash mid-write keeps the old snapshot."""
        replacement = f"{path}.tmp"
        with open(replacement, "w") as handle:
            json.dump(self.to_dict(), handle, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(replacement, path)

    @staticmethod
    def load(path: str) -> Optional["ShardSnapshot"]:
        """The snapshot at *path*, or ``None`` when there is none yet."""
        if not os.path.exists(path):
            return None
        with open(path) as handle:
            try:
                data = json.load(handle)
            except ValueError as error:
                raise DurabilityError(
                    f"snapshot {path!r} is corrupt: {error}"
                ) from None
        return ShardSnapshot.from_dict(data)
