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
  per-shard numbering the deterministic merge sorts on), the
  notifications no flush has reported yet, and the ingest counters.

On disk a snapshot is :data:`SNAPSHOT_MAGIC` followed by one
self-contained codec record
(:func:`~repro.parallel.codec.encode_standalone`) of ``{shard_id,
frame_index, blueprint, state}``: the same value codec as the pipe and
the journal, so the operator state round-trips type for type.  Anything
else is refused with a :class:`DurabilityError` — a version-1 JSON
snapshot (the file starts with ``{``) by name, as the one-way rule of
DESIGN note 22 says.

Snapshots are written atomically (temp file + ``rename`` after fsync) so
a crash mid-snapshot leaves the previous snapshot intact.  Recovery
boots from the in-memory snapshot the supervisor took last, then
replays the journal tail from its frame index; only offline tools
(``repro journal``) read the file back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import DurabilityError, WireError
from ..parallel.codec import T_SELF, BinaryDecoder, encode_standalone
from .log import json_era_refusal, replace_durably

SNAPSHOT_VERSION = 2

#: First bytes of a snapshot file; the last one is the version.
SNAPSHOT_MAGIC = b"\xc3RS" + str(SNAPSHOT_VERSION).encode()

#: The record's fields and their exact types.
_FIELDS = {"shard_id": int, "frame_index": int, "blueprint": dict, "state": dict}


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
    #: Vestigial — neither stored nor read; kept only because ``perf/``
    #: still constructs snapshots with ``codec="binary"``.
    codec: str = "binary"

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        """Write atomically: a crash mid-write keeps the old snapshot."""
        record = {
            "shard_id": self.shard_id,
            "frame_index": self.frame_index,
            "blueprint": self.blueprint,
            "state": self.state,
        }
        replace_durably(path, ".tmp", [SNAPSHOT_MAGIC, encode_standalone(record)])

    @staticmethod
    def load(path: str) -> Optional["ShardSnapshot"]:
        """The snapshot at *path*, or ``None`` when there is none yet."""
        if not os.path.exists(path):
            return None
        with open(path, "rb") as handle:
            data = handle.read()
        if data[:1] == b"{":
            raise json_era_refusal(
                path, "a version-1 JSON snapshot, which is refused"
            )
        start = len(SNAPSHOT_MAGIC)
        if data[:start] != SNAPSHOT_MAGIC:
            raise DurabilityError(
                f"{path!r} is no version-{SNAPSHOT_VERSION} snapshot "
                f"(header {data[:start]!r}, expected {SNAPSHOT_MAGIC!r})"
            )
        length, body = int.from_bytes(data[start:start + 4], "big"), data[start + 4:]
        try:
            if length != len(body) or body[:1] != bytes((T_SELF,)):
                raise WireError("not one whole self-contained record")
            record = BinaryDecoder().decode_payload(body)
            if {name: type(value) for name, value in record.items()} != _FIELDS:
                raise WireError(f"the record's fields are not {list(_FIELDS)}")
        except WireError as error:
            raise DurabilityError(
                f"snapshot {path!r} is corrupt: {error}"
            ) from None
        return ShardSnapshot(**record)
