"""A wave is routed by column, and ships what per-event routing shipped.

``ShardRouter.shard_indices`` reads each same-type run's affinity keys as
one column and looks them up in the memo; ``ShardedFederation.ingest``
partitions a wave ``batch_size × shards`` events at a time and ships the
full batches after each chunk.  Both are held here to test-local
per-event references — the router to the pure hash of each event's key,
the facade to the per-event ingest loop it replaced — on generated
waves: the four built-in types, a ``C_P`` type, a plain event under a
``C_P`` name, a registered custom extractor, an unhashable key, keys of
several types that compare equal, and a memo that fills up mid-wave.
The frames a wave ships (their bytes and ``seq`` numbers) do not depend
on the chunking, with or without a stalled shard.
"""

import multiprocessing
import signal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.events.canonical import canonical_event, canonical_type_name
from repro.events.event import Event, EventType, ParameterSpec, base_parameters
from repro.events.external import NEWS_EVENT_TYPE
from repro.events.producers import (
    ACTIVITY_EVENT_TYPE,
    CONTEXT_EVENT_TYPE,
    SYSTEM_EVENT_TYPE,
)
from repro.parallel import ShardConfig, ShardedFederation
from repro.parallel.codec import encode_standalone
from repro.parallel.federation import ProcessShard
from repro.parallel.host import FederationBlueprint
from repro.parallel.router import ROUTER_CACHE_MAX, ShardRouter, external_affinity
from repro.parallel.wire import SEQ_KEY
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

from tests.awareness.test_routing import python_calls
from tests.parallel.test_admission_differential import SETTINGS
from tests.parallel.test_process_backend import (
    busiest_shard,
    pipe_filling_workload,
    process_config,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

TICKET_TYPE = EventType(
    "T_ticket",
    (*base_parameters(), ParameterSpec("ticket", "any", required=False)),
)
#: A plain event type under a ``C_P`` name: no record class behind it.
PLAIN_CANONICAL_TYPE = EventType(
    canonical_type_name("Plain"),
    (*base_parameters(), ParameterSpec("processInstanceId", "str")),
)

#: Keys of several types, some equal across types (``1``, ``1.0``,
#: ``True``) while their reprs, and so their hashes, differ.
keys = st.one_of(
    st.sampled_from(["tf-000", "tf-001", "Ctx", "cmi-3", "q-9", "1", "True"]),
    st.integers(-2, 2),
    st.booleans(),
    st.sampled_from([1.0, 0.0]),
    st.tuples(st.sampled_from(["P", "Q"]), st.integers(0, 2)),
)


def base(source, time=1):
    return {"time": time, "source": source}


@st.composite
def events(draw):
    """One event of any type the router knows, keyed by a drawn key."""
    kind = draw(
        st.sampled_from(
            ["context", "activity", "system", "news", "canonical", "plain", "ticket"]
        )
    )
    key = draw(keys)
    text = key if isinstance(key, str) else repr(key)
    if kind == "context":
        return Event.trusted(
            CONTEXT_EVENT_TYPE, dict(base("E_context"), contextName=key)
        )
    if kind == "activity":
        parent = draw(st.sampled_from([None, "", key]))
        return Event.trusted(
            ACTIVITY_EVENT_TYPE,
            dict(
                base("E_activity"),
                parentProcessInstanceId=parent,
                activityInstanceId=key,
            ),
        )
    if kind == "system":
        return Event.trusted(SYSTEM_EVENT_TYPE, dict(base("E_system"), systemId=key))
    if kind == "news":
        params = dict(base(text))
        name = draw(st.sampled_from(["correlationId", "queryId", None]))
        if name is not None:
            params[name] = draw(st.sampled_from([None, key]))
        return Event.trusted(NEWS_EVENT_TYPE, params)
    if kind == "canonical":
        return canonical_event("P", text, 1, "detector")
    if kind == "plain":
        return Event.trusted(
            PLAIN_CANONICAL_TYPE, dict(base("detector"), processInstanceId=text)
        )
    ticket = draw(st.one_of(st.just(key), st.just([text, 0])))  # lists: unhashable
    return Event.trusted(TICKET_TYPE, dict(base("E_ticket"), ticket=ticket))


def ticket_router():
    router = ShardRouter()
    router.register("T_ticket", lambda event: event.params["ticket"])
    return router


def reference_shard(router, event, shard_count):
    """The per-event reference: the pure hash of the event's key."""
    if shard_count <= 1:
        return 0
    extractor = router.extractor_for(event.type_name) or external_affinity
    return ShardRouter.shard_for_key(extractor(event), shard_count)


class TestShardIndices:
    @SETTINGS
    @given(
        waves=st.lists(st.lists(events(), max_size=24), min_size=1, max_size=4),
        shard_count=st.integers(1, 5),
        headroom=st.one_of(st.none(), st.integers(0, 3)),
    )
    def test_a_wave_routes_as_its_events_do_one_by_one(
        self, waves, shard_count, headroom
    ):
        router = ticket_router()
        if headroom is not None:
            # A memo *headroom* entries short of full: it clears mid-wave.
            router._shard_cache[shard_count] = {
                f"warm-{k}": 0 for k in range(ROUTER_CACHE_MAX - headroom)
            }
        for wave in waves:
            expected = [reference_shard(router, e, shard_count) for e in wave]
            assert router.shard_indices(wave, shard_count) == expected
            assert [router.shard_for(e, shard_count) for e in wave] == expected
        for memo in router._shard_cache.values():
            assert len(memo) <= ROUTER_CACHE_MAX
            assert all(type(key) is str for key in memo)

    def test_equal_keys_of_other_types_keep_their_own_shard(self):
        """``1`` and ``True`` compare equal; a memo holding one answered
        for the other, so the shard of ``True`` hung on whether ``1``
        came first and on when the memo last cleared."""
        router = ShardRouter()
        first, second = (
            Event.trusted(SYSTEM_EVENT_TYPE, dict(base("E_system"), systemId=key))
            for key in (1, True)
        )
        shard_count = next(
            n
            for n in range(2, 64)
            if ShardRouter.shard_for_key(1, n) != ShardRouter.shard_for_key(True, n)
        )
        one, true = (ShardRouter.shard_for_key(key, shard_count) for key in (1, True))
        assert router.shard_indices([first, second], shard_count) == [one, true]
        # A second wave meets a memo the first one filled.
        assert router.shard_indices([second, first], shard_count) == [true, one]
        assert router.shard_for(second, shard_count) == true


# -- the facade's ingest against the per-event loop it replaced ---------------


class FakeChannel:
    """A channel whose pipe is full while ``stalled``."""

    dead = None

    def __init__(self):
        self.stalled = False
        self.stalls = 0

    @property
    def drained(self):
        return not self.stalled


class FakeMux:
    """Counts pumps; the stalled pipe drains after ``release_after`` of
    them (never, when ``None``), or when a barrier waits on it."""

    def __init__(self, channel, release_after):
        self.channel = channel
        self.release_after = release_after
        self.pumps = 0

    def pump(self, timeout=0.0):
        self.pumps += 1
        if self.release_after is not None and self.pumps >= self.release_after:
            self.channel.stalled = False

    def wait_drained(self, channel):
        if not channel.drained:
            channel.stalls += 1
            channel.stalled = False
        return True

    def close(self):
        pass


class RecordingShard:
    """A process shard's frame building, recording each frame's bytes."""

    backend = "process"
    alive = True
    observability_sink = None

    def __init__(self, shard_id, channel):
        self.shard_id = shard_id
        self.channel = channel
        self._next_seq = 0
        self.frames = []

    def send_events(self, events, ctx=None):
        frame = ProcessShard.make_events_frame(self, events, ctx)
        self.frames.append((frame[SEQ_KEY], encode_standalone(frame)))

    def close(self):
        pass


def reference_ingest(federation, events):
    """The per-event ingest loop: route one event, ship its batch once
    full, pump once per event a full pipe defers."""
    router = federation.router
    shard_count = federation.config.shards
    batch_size = federation.config.batch_size
    ctx = None
    for event in events:
        index = reference_shard(router, event, shard_count)
        buffer = federation._buffers[index]
        buffer.append(event)
        if len(buffer) < batch_size:
            continue
        if not federation._can_ship(index):
            if not federation._deferred[index]:
                federation._deferred[index] = True
                federation.shards[index].channel.stalls += 1
            federation._mux.pump(0.0)
            if not federation._can_ship(index):
                continue
        if ctx is None and federation.config.instrument:
            ctx = federation.trace_assembler.begin("federation.ingest")
        federation._ship(index, ctx)


def shipped(waves, shards, batch_size, stalled, release_after, instrument, ingest):
    """Every shard's ``(seq, bytes)`` frames after *waves* and a flush,
    and the pumps the waves took."""
    config = ShardConfig(shards=shards, batch_size=batch_size, instrument=instrument)
    with ShardedFederation(FederationBlueprint(), config) as federation:
        channels = [FakeChannel() for __ in range(shards)]
        mux = FakeMux(channels[stalled or 0], release_after)
        if stalled is not None:
            channels[stalled].stalled = True
        federation.shards = [
            RecordingShard(index, channel) for index, channel in enumerate(channels)
        ]
        federation._mux = mux
        for wave in waves:
            ingest(federation, wave)
        pumps = mux.pumps
        federation.flush_buffers()
        return [shard.frames for shard in federation.shards], pumps


@st.composite
def context_waves(draw):
    names = st.sampled_from([f"Ctx{k}" for k in range(7)])
    lengths = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    waves, tick = [], 0
    for length in lengths:
        wave = []
        for __ in range(length):
            tick += 1
            params = dict(
                base("E_context", tick),
                contextId="ctx-1",
                contextName=draw(names),
                processAssociations=frozenset({("P", "tf-000")}),
                fieldName="Deadline",
                oldFieldValue=tick - 1,
                newFieldValue=tick,
            )
            wave.append(Event.trusted(CONTEXT_EVENT_TYPE, params))
        waves.append(wave)
    return waves


class TestChunkedIngest:
    @SETTINGS
    @given(
        waves=context_waves(),
        shards=st.integers(1, 4),
        batch_size=st.integers(1, 6),
        stall=st.booleans(),
        stalled=st.integers(0, 3),
        release_after=st.one_of(st.none(), st.integers(1, 5)),
        instrument=st.booleans(),
    )
    def test_a_chunked_wave_ships_the_frames_of_the_per_event_loop(
        self, waves, shards, batch_size, stall, stalled, release_after, instrument
    ):
        # A stalled pipe drains on a pump count, which the chunking
        # changes; the trace context of a wave follows its first
        # shipped batch, so it is compared only where nothing stalls.
        stalled = stalled % shards if stall else None
        instrument = instrument and stalled is None
        arguments = (waves, shards, batch_size, stalled, release_after, instrument)
        chunked, pumps = shipped(
            *arguments, lambda federation, wave: federation.ingest(wave)
        )
        reference, __ = shipped(*arguments, reference_ingest)
        assert chunked == reference
        chunks = sum(-(-len(wave) // (batch_size * shards)) for wave in waves)
        assert pumps <= chunks

    def test_a_stalled_shard_costs_one_pump_per_chunk(self):
        """The per-event loop pumped once per event routed to a shard
        whose pipe stayed full; a wave pumps once per chunk."""
        events = [
            Event.trusted(
                CONTEXT_EVENT_TYPE,
                dict(base("E_context", t), contextName="Ctx0"),
            )
            for t in range(1, 201)
        ]
        stalled = ShardRouter().shard_for(events[0], 2)
        frames, pumps = shipped(
            [events], 2, 4, stalled, None, False, lambda f, w: f.ingest(w)
        )
        assert pumps == 200 // (4 * 2)
        assert [seq for seq, __ in frames[stalled]] == list(range(50))


class TestCallBudget:
    """Count-based pin on the facade's routing (no wall clock).

    Python-level calls of one ``ingest`` whose events stay buffered (no
    batch fills), with a warm memo: a per-wave constant, whatever the
    wave's length.  Routed one event at a time, the same wave took 6.0
    per event (``shard_for``, ``affinity_key``, ``extractor_for``, the
    ``type_name`` property, the extractor and its ``params`` read).
    """

    #: The measured calls of one single-type wave of one chunk: ``ingest``,
    #: ``shard_indices``, the run's ``_keys`` and ``extractor_for``, and
    #: ``_ship_full`` with its two comprehensions (which Python 3.12
    #: inlines: 5 there).
    PER_WAVE = 7

    def calls(self, length):
        workload = ShardStreamWorkload(
            ShardStreamConfig(forces=8, windows_per_force=1, events_per_force=256)
        )
        wave = workload.events()[:length]
        router = ShardRouter()
        router.shard_indices(wave, 2)  # a warm memo
        config = ShardConfig(shards=2, batch_size=4096)
        with ShardedFederation(workload.blueprint(), config, router=router) as federation:
            return python_calls(federation.ingest, wave)

    def test_a_wave_routes_in_a_constant_number_of_calls(self):
        assert self.calls(256) == self.calls(1024) <= self.PER_WAVE


@pytest.mark.skipif(not HAS_FORK, reason="the process backend requires fork")
class TestStalledWorker:
    def test_ingest_into_a_stopped_worker_pumps_once_per_chunk(self):
        """A stopped worker's pipe fills; every later chunk defers its
        batches with one ``ChannelMultiplexer.pump`` (the per-event
        loop took one per event routed to it)."""
        workload = pipe_filling_workload()
        events = workload.events()
        victim = busiest_shard(workload)
        federation = ShardedFederation(workload.blueprint(), process_config())
        try:
            config = federation.config
            chunks = -(-len(events) // (config.batch_size * config.shards))
            pumps = 0
            pump = federation._mux.pump

            def counting(timeout=0.0):
                nonlocal pumps
                pumps += 1
                pump(timeout)

            federation._mux.pump = counting
            worker = federation.shards[victim]
            worker.process._popen._send_signal(signal.SIGSTOP)  # noqa: SLF001
            federation.ingest(events)
            assert federation.shards[victim].channel.stalls == 1
            assert 0 < pumps <= chunks
            worker.process._popen._send_signal(signal.SIGCONT)  # noqa: SLF001
            assert len(federation.drain()) == workload.expected_notifications()
        finally:
            federation.close()
