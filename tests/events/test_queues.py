"""Tests for persistent delivery queues (Section 6.5)."""

import json
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueueError, WireError
from repro.events.queues import (
    MemoryDeliveryQueue,
    Notification,
    SqliteDeliveryQueue,
)
from repro.observability import ProvenanceNode


def note(nid="n1", participant="alice", time=1, params=None):
    return Notification(
        notification_id=nid,
        participant_id=participant,
        time=time,
        description="task force deadline moved",
        schema_name="AS_InfoRequest",
        parameters={"intInfo": 50} if params is None else params,
    )


QUEUE_FACTORIES = [MemoryDeliveryQueue, SqliteDeliveryQueue]


@pytest.mark.parametrize("factory", QUEUE_FACTORIES)
class TestQueueSemantics:
    def test_enqueue_pending_retrieve(self, factory):
        queue = factory()
        queue.enqueue(note("n1"))
        queue.enqueue(note("n2", time=2))
        assert queue.pending_count("alice") == 2
        pending = queue.pending("alice")
        assert [n.notification_id for n in pending] == ["n1", "n2"]
        retrieved = queue.retrieve("alice")
        assert retrieved == pending
        assert queue.pending("alice") == ()
        assert queue.pending_count() == 0

    def test_queues_partitioned_by_participant(self, factory):
        queue = factory()
        queue.enqueue(note("n1", "alice"))
        queue.enqueue(note("n2", "bob"))
        assert queue.pending_count("alice") == 1
        assert queue.pending_count("bob") == 1
        queue.retrieve("alice")
        assert queue.pending_count("bob") == 1

    def test_fifo_order_preserved(self, factory):
        queue = factory()
        for index in range(10):
            queue.enqueue(note(f"n{index}", time=index))
        times = [n.time for n in queue.pending("alice")]
        assert times == list(range(10))


class TestSqlitePersistence:
    def test_notifications_survive_reopen(self, tmp_path):
        """A participant signed off when the event was detected still
        receives it after sign-on (the paper's persistence requirement)."""
        path = str(tmp_path / "queue.db")
        queue = SqliteDeliveryQueue(path)
        queue.enqueue(note("n1", params={"sourceEvent": {"a": 1}}))
        queue.close()

        reopened = SqliteDeliveryQueue(path)
        pending = reopened.pending("alice")
        assert len(pending) == 1
        assert pending[0].description == "task force deadline moved"
        assert pending[0].parameters["sourceEvent"] == {"a": 1}
        reopened.close()

    def test_retrieve_is_durable(self, tmp_path):
        path = str(tmp_path / "queue.db")
        queue = SqliteDeliveryQueue(path)
        queue.enqueue(note("n1"))
        queue.retrieve("alice")
        queue.close()
        reopened = SqliteDeliveryQueue(path)
        assert reopened.pending("alice") == ()
        reopened.close()

    def test_closed_queue_raises(self):
        queue = SqliteDeliveryQueue()
        queue.close()
        with pytest.raises(QueueError):
            queue.enqueue(note())
        with pytest.raises(QueueError):
            queue.pending("alice")


def persisted(notification):
    """*notification* as a durable queue hands it back."""
    with SqliteDeliveryQueue() as queue:
        queue.enqueue(notification)
        (restored,) = queue.pending(notification.participant_id)
    return restored


def chain():
    primitive = ProvenanceNode(
        1, "E_context", "primitive", "T_context", 4,
        ("context", "Ctx", "deadline", 99),
    )
    return ProvenanceNode(
        2, "violated", "Compare2", "C_P", 5, "80 > 50", (primitive,)
    )


#: Parameter values a notification may carry: scalars, and tuples,
#: frozensets, lists and string-keyed mappings of them.
parameter_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=20),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=4),
        st.frozensets(st.tuples(st.text(max_size=4), st.integers()), max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)


def same_types(a, b):
    """``a == b`` and every value the same type (``1`` is not ``True``)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_types(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_types, a, b))
    return a == b


class TestNotificationSerialization:
    """A durable queue carries a notification as it is (one codec record
    per row), not a JSON rendering of it."""

    def test_round_trip(self):
        original = note(params={"intInfo": 3, "strInfo": "x"})
        assert persisted(original) == original

    def test_values_come_back_type_for_type(self):
        params = {
            "assoc": frozenset([("b", "2"), ("a", "1")]),
            "pair": ("P-X", 7),
            "nested": {"deadline": (80, 50), "tags": ["x", None]},
        }
        restored = persisted(note(params={**params, "provenance": chain()}))
        provenance = restored.parameters.pop("provenance")
        assert same_types(restored.parameters, params)
        # A chain node compares by identity; its signature is its value.
        assert isinstance(provenance, ProvenanceNode)
        assert provenance.signature() == chain().signature()

    def test_unencodable_values_are_refused(self):
        with SqliteDeliveryQueue() as queue:
            with pytest.raises(WireError, match="not wire-encodable"):
                queue.enqueue(note(params={"obj": object()}))
            assert queue.pending_count() == 0

    @given(
        params=st.dictionaries(st.text(max_size=8), parameter_values, max_size=6),
        time=st.integers(min_value=0, max_value=10**9),
    )
    @settings(deadline=None)
    def test_persisted_parameters_keep_their_types(self, params, time):
        original = note(params=params, time=time)
        restored = persisted(original)
        assert restored.time == time
        assert same_types(restored.parameters, params)

    def test_a_row_of_an_earlier_build_is_refused(self, tmp_path):
        """Earlier builds stored each notification as JSON text."""
        path = str(tmp_path / "queue.db")
        row = {
            "notification_id": "n1",
            "participant_id": "alice",
            "time": 1,
            "description": "task force deadline moved",
            "schema_name": "AS_InfoRequest",
            "parameters": {"assoc": [["a", "1"]]},
        }
        with sqlite3.connect(path) as conn:
            conn.execute(
                "CREATE TABLE notifications (seq INTEGER PRIMARY KEY "
                "AUTOINCREMENT, participant_id TEXT NOT NULL, "
                "payload TEXT NOT NULL)"
            )
            conn.execute(
                "INSERT INTO notifications (participant_id, payload) "
                "VALUES (?, ?)",
                ("alice", json.dumps(row, sort_keys=True)),
            )
        conn.close()
        with SqliteDeliveryQueue(path) as queue:
            assert queue.pending_count("alice") == 1
            for read in (
                lambda: queue.pending("alice"),
                queue.oldest_pending_time,
                lambda: queue.retrieve("alice"),
            ):
                with pytest.raises(QueueError, match="JSON row.*1f2fb7c"):
                    read()
            assert queue.pending_count("alice") == 1


@pytest.mark.parametrize("factory", QUEUE_FACTORIES)
class TestQueueTelemetry:
    """The gauges the self-awareness plane samples (queue depth, lag)."""

    def test_pending_by_participant(self, factory):
        queue = factory()
        queue.enqueue(note("n1", "alice"))
        queue.enqueue(note("n2", "alice", time=2))
        queue.enqueue(note("n3", "bob", time=3))
        assert queue.pending_by_participant() == {"alice": 2, "bob": 1}
        queue.retrieve("alice")
        assert queue.pending_by_participant() == {"bob": 1}

    def test_oldest_pending_time(self, factory):
        queue = factory()
        assert queue.oldest_pending_time() is None
        queue.enqueue(note("n1", "alice", time=5))
        queue.enqueue(note("n2", "bob", time=9))
        assert queue.oldest_pending_time() == 5
        queue.retrieve("alice")
        assert queue.oldest_pending_time() == 9
        queue.retrieve("bob")
        assert queue.oldest_pending_time() is None


class TestQueueContextManager:
    def test_memory_queue_enter_returns_self(self):
        with MemoryDeliveryQueue() as queue:
            queue.enqueue(note())
            assert queue.pending_count("alice") == 1
        # close() is a no-op for the in-memory queue.
        assert queue.pending_count("alice") == 1

    def test_sqlite_queue_closed_on_exit(self):
        with SqliteDeliveryQueue() as queue:
            queue.enqueue(note())
            assert queue.pending_count("alice") == 1
        with pytest.raises(QueueError):
            queue.enqueue(note("n2"))
