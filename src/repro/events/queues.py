"""Persistent per-participant delivery queues (Section 6.5).

"The information from the event is then queued for each participant in the
set.  A persistent queue is necessary because a participant is not assumed
to be logged-on to the system when he receives an awareness event."

Two implementations share one interface:

* :class:`MemoryDeliveryQueue` — fast, used by unit tests and benchmarks;
* :class:`SqliteDeliveryQueue` — durable via the standard-library
  ``sqlite3`` module; a queue reopened on the same path sees all
  undelivered notifications, which is the paper's sign-on-later guarantee.
  Each row is one self-contained record of the binary value codec
  (:func:`~repro.parallel.codec.encode_standalone`), so a notification
  reads back type for type: tuples, frozensets, nested mappings and its
  provenance chain.

Awareness information is stored as :class:`Notification` records: the
digested composite-event parameters plus the user-friendly description the
output operator attached (Section 6.2).
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import QueueError


@dataclass(frozen=True)
class Notification:
    """One piece of awareness information queued for one participant."""

    notification_id: str
    participant_id: str
    time: int
    description: str
    schema_name: str
    parameters: Mapping[str, Any] = field(default_factory=dict)


class DeliveryQueue:
    """Interface of a per-participant notification queue.

    Queues are context managers: ``with SqliteDeliveryQueue(path) as q:``
    guarantees :meth:`close` on exit, which matters for the durable
    backend (the memory queue's close is a no-op).
    """

    def enqueue(self, notification: Notification) -> None:
        raise NotImplementedError

    def pending(self, participant_id: str) -> Tuple[Notification, ...]:
        """Notifications queued for a participant, oldest first."""
        raise NotImplementedError

    def retrieve(self, participant_id: str) -> Tuple[Notification, ...]:
        """Return and remove all pending notifications for a participant."""
        raise NotImplementedError

    def pending_count(self, participant_id: Optional[str] = None) -> int:
        raise NotImplementedError

    def pending_by_participant(self) -> Dict[str, int]:
        """Pending notification counts keyed by participant id.

        The telemetry sampler's view: one call yields every queue's depth
        (participants with nothing pending are omitted).
        """
        raise NotImplementedError

    def oldest_pending_time(self) -> Optional[int]:
        """Logical time of the oldest pending notification (None if empty).

        Enqueue order follows the logical clock (the delivery agent is
        the single writer), so this is the enqueue tick of the longest-
        waiting notification — the basis of the delivery-lag gauge.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (no-op for the memory queue)."""

    def __enter__(self) -> "DeliveryQueue":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


class MemoryDeliveryQueue(DeliveryQueue):
    """In-memory queue; contents do not survive the process."""

    def __init__(self) -> None:
        self._queues: Dict[str, List[Notification]] = {}

    def enqueue(self, notification: Notification) -> None:
        self._queues.setdefault(notification.participant_id, []).append(
            notification
        )

    def pending(self, participant_id: str) -> Tuple[Notification, ...]:
        return tuple(self._queues.get(participant_id, ()))

    def retrieve(self, participant_id: str) -> Tuple[Notification, ...]:
        items = tuple(self._queues.pop(participant_id, ()))
        return items

    def pending_count(self, participant_id: Optional[str] = None) -> int:
        if participant_id is not None:
            return len(self._queues.get(participant_id, ()))
        return sum(len(q) for q in self._queues.values())

    def pending_by_participant(self) -> Dict[str, int]:
        return {pid: len(q) for pid, q in self._queues.items() if q}

    def oldest_pending_time(self) -> Optional[int]:
        times = [q[0].time for q in self._queues.values() if q]
        return min(times) if times else None


class SqliteDeliveryQueue(DeliveryQueue):
    """Durable queue backed by SQLite.

    Notifications survive :meth:`close` and reopening the same path; the
    WAL-less default journal is sufficient for the single-writer pattern of
    the delivery agent.  ``":memory:"`` gives a private non-durable queue
    with identical semantics (useful in tests).
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._conn = sqlite3.connect(path)
        self._conn.execute(
            """
            CREATE TABLE IF NOT EXISTS notifications (
                seq INTEGER PRIMARY KEY AUTOINCREMENT,
                participant_id TEXT NOT NULL,
                payload BLOB NOT NULL
            )
            """
        )
        self._conn.execute(
            """
            CREATE INDEX IF NOT EXISTS idx_notifications_participant
            ON notifications (participant_id, seq)
            """
        )
        self._conn.commit()

    def enqueue(self, notification: Notification) -> None:
        self._check_open()
        self._conn.execute(
            "INSERT INTO notifications (participant_id, payload) VALUES (?, ?)",
            (notification.participant_id, _encoded(notification)),
        )
        self._conn.commit()

    def pending(self, participant_id: str) -> Tuple[Notification, ...]:
        self._check_open()
        rows = self._conn.execute(
            "SELECT payload FROM notifications WHERE participant_id = ? "
            "ORDER BY seq",
            (participant_id,),
        ).fetchall()
        return tuple(self._decoded(row[0]) for row in rows)

    def retrieve(self, participant_id: str) -> Tuple[Notification, ...]:
        self._check_open()
        items = self.pending(participant_id)
        self._conn.execute(
            "DELETE FROM notifications WHERE participant_id = ?",
            (participant_id,),
        )
        self._conn.commit()
        return items

    def pending_count(self, participant_id: Optional[str] = None) -> int:
        self._check_open()
        if participant_id is not None:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM notifications WHERE participant_id = ?",
                (participant_id,),
            ).fetchone()
        else:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM notifications"
            ).fetchone()
        return int(row[0])

    def pending_by_participant(self) -> Dict[str, int]:
        self._check_open()
        rows = self._conn.execute(
            "SELECT participant_id, COUNT(*) FROM notifications "
            "GROUP BY participant_id"
        ).fetchall()
        return {row[0]: int(row[1]) for row in rows}

    def oldest_pending_time(self) -> Optional[int]:
        # Enqueue ticks are monotonic with seq (single writer over one
        # logical clock), so the lowest seq is the oldest notification.
        self._check_open()
        row = self._conn.execute(
            "SELECT payload FROM notifications ORDER BY seq LIMIT 1"
        ).fetchone()
        if row is None:
            return None
        return self._decoded(row[0]).time

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def _check_open(self) -> None:
        if self._conn is None:
            raise QueueError(f"queue at {self.path!r} is closed")

    def _decoded(self, payload: object) -> Notification:
        if not isinstance(payload, bytes):
            raise QueueError(
                f"queue at {self.path!r} holds a JSON row, the format of "
                f"earlier builds; build 1f2fb7c is the last that reads it"
            )
        from ..parallel.codec import BinaryDecoder

        return Notification(**BinaryDecoder().decode_payload(payload[4:]))


def _encoded(notification: Notification) -> bytes:
    """*notification* as one self-contained codec frame."""
    from ..parallel.codec import encode_standalone

    return encode_standalone(vars(notification))
