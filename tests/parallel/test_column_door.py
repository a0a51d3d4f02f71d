"""Counts, not wall clock: a decoded run enters by column.

A shard worker decodes its frames with their ``ROWS`` records kept as
runs (``BinaryDecoder.decode_runs``), and the producer walks each run's
rows through the column entries of the segments and hops its lifting
filters root.  An event is built only for a row that reaches something
else — a tapped bus, a wildcard consumer, an entry with no column
variant — and the routing index is probed once per distinct key of a
run.  The parent decoded every row into an event and probed the index
once per row.  Each count is taken with the collector off.
"""

import gc

import pytest

from repro.events import event as event_module
from repro.events.event import Event
from repro.parallel.host import ShardHost

from tests.awareness import test_routing
from tests.awareness.test_routing import decoded_runs
from tests.parallel.test_ingest_door import workload


@pytest.fixture
def built(monkeypatch):
    """Counts the events a decoded run builds (all are born in
    ``event._new``), with the collector off."""
    count = [0]
    real = event_module._new

    def counting(cls):
        if cls is Event:
            count[0] += 1
        return real(cls)

    monkeypatch.setattr(event_module, "_new", counting)
    collecting = gc.isenabled()
    gc.disable()
    yield count
    if collecting:
        gc.enable()


def chain():
    """A host with the chain and eight windows beside it, warmed (its
    segment shape compiled), and the chain's frame as a worker decodes
    it."""
    budget = test_routing.TestCallBudget()
    warm, events = budget.chain_frame(0)
    warm.ingest(events[:1])
    warm.close()
    host, events = budget.chain_frame(bystanders=8)
    return host, events, decoded_runs(events)


def producer(host):
    return host.system.awareness.context_source.producer


class TestEventsBuilt:
    def test_a_decoded_chain_frame_builds_no_event(self, built):
        host, events, items = chain()
        host.ingest(items)
        assert [r["schema"] for r in host.drain_results()] == ["AS_TF000_0"]
        assert built[0] == 0
        host.close()

    def test_a_tapped_run_builds_each_event_once(self, built):
        host, events, items = chain()
        seen = []
        host.system.bus.subscribe("T_context", seen.append)
        host.ingest(items)
        assert built[0] == len(seen) == len(events)
        assert [e.params for e in seen] == [e.params for e in events]
        host.close()

    @pytest.mark.parametrize("keyed", [False, True])
    def test_a_consumer_without_columns_gets_each_row_it_routes(self, built, keyed):
        """A wildcard consumer sees every row, a keyed one every row of
        its key: each such row is built once, and the chain's segment
        shares it."""
        host, events, items = chain()
        seen = []
        key = (events[0]["contextName"], "Deadline")
        producer(host).add_consumer(seen.append, [key] if keyed else None)
        host.ingest(items)
        expected = [
            e for e in events if not keyed or (e["contextName"], e["fieldName"]) == key
        ]
        assert 0 < len(expected) <= len(events)
        assert [e.params for e in seen] == [e.params for e in expected]
        assert built[0] == len(expected)
        assert [r["schema"] for r in host.drain_results()] == ["AS_TF000_0"]
        host.close()


class CountingIndex(dict):
    """A routing index that counts its probes."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


class TestIndexProbes:
    def test_a_decoded_frame_probes_once_per_distinct_key(self):
        plan = workload(windows=1, forces=4, events=24)
        host = ShardHost(0, 1)
        host.apply_blueprint(plan.blueprint())
        events = plan.events()
        index = producer(host)._index = CountingIndex(producer(host)._index)
        items = decoded_runs(events)
        collecting = gc.isenabled()
        gc.disable()
        try:
            host.ingest(items)
        finally:
            if collecting:
                gc.enable()
        keys = {(e["contextName"], e["fieldName"]) for e in events}
        assert 1 < len(keys) < len(events)
        assert index.probes == len(keys)
        assert len(host.drain_results()) == plan.expected_notifications()
        host.close()

    def test_a_registration_mid_run_is_seen_from_the_next_row(self):
        """A consumer that registers another under its own key at row
        3: the index is probed again, and the newcomer sees rows 4 on."""
        host, events, items = chain()
        key = (events[0]["contextName"], "Deadline")
        source = producer(host)
        late = []
        rows = []

        def registering(event):
            rows.append(event)
            if len(rows) == 3:
                source.add_consumer(late.append, [key])

        source.add_consumer(registering, [key])
        index = source._index = CountingIndex(source._index)
        host.ingest(items)
        keys = [(e["contextName"], e["fieldName"]) for e in events]
        third = [i for i, k in enumerate(keys) if k == key][2]
        assert [e.params for e in late] == [
            e.params for e in events[third + 1:] if (e["contextName"], e["fieldName"]) == key
        ]
        # One probe is ``add_consumer``'s own.
        resolved = len(set(keys[:third + 1])) + len(set(keys[third + 1:]))
        assert index.probes == 1 + resolved
        host.close()
