"""Tests for persistent delivery queues (Section 6.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueueError
from repro.events.queues import (
    MemoryDeliveryQueue,
    Notification,
    SqliteDeliveryQueue,
)


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


class TestNotificationSerialization:
    def test_round_trip(self):
        original = note(params={"intInfo": 3, "strInfo": "x"})
        restored = Notification.from_json(original.to_json())
        assert restored.notification_id == original.notification_id
        assert restored.parameters == {"intInfo": 3, "strInfo": "x"}

    def test_frozensets_become_sorted_lists(self):
        original = note(params={"assoc": frozenset([("b", "2"), ("a", "1")])})
        restored = Notification.from_json(original.to_json())
        assert restored.parameters["assoc"] == [["a", "1"], ["b", "2"]]

    def test_non_json_values_fall_back_to_repr(self):
        original = note(params={"obj": object()})
        restored = Notification.from_json(original.to_json())
        assert restored.parameters["obj"].startswith("<object object")

    @given(
        params=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.integers(),
                st.text(max_size=20),
                st.none(),
                st.booleans(),
                st.lists(st.integers(), max_size=4),
            ),
            max_size=6,
        ),
        time=st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=100)
    def test_json_round_trip_preserves_jsonable_parameters(self, params, time):
        original = note(params=params, time=time)
        restored = Notification.from_json(original.to_json())
        assert restored.time == time
        assert restored.parameters == {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in params.items()
        }


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
