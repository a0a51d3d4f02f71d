"""A detector step that raises: today's behaviour, pinned.

Several windows hang in one routing bucket of the context producer (each
filters the same context field).  The count of the middle one holds a
corrupted partition, so its step raises on the next event.  Producers
do not isolate a consumer's error: the exception leaves the dispatch
where it was raised.  These tests pin what that means on each door into
a shard host, so that a later decision (count the fault, isolate the
window, or keep propagating it) changes them on purpose:

* the windows registered before the raising one saw the event, the one
  after it did not, and no later event of the frame reached any window;
* the raising window's filter counted the event as consumed and
  produced, its count as consumed but not produced;
* ``ShardHost.ingest`` re-raises the step's own exception, unwrapped,
  after counting the frame but not its events;
* a process worker is not a place it is reported in ``stats`` errors:
  only a :class:`~repro.errors.ReproError` is, so the worker dies with
  its last words, and the facade's next read raises
  :class:`~repro.errors.ShardCrashError` naming the exception.
"""

import pytest

from repro.errors import ShardCrashError
from repro.parallel import ShardConfig, ShardSpec, ShardedFederation
from repro.parallel.host import FederationBlueprint, ShardHost
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

from tests.awareness.test_routing import decoded_runs

WINDOWS = ("A", "B", "C")


def stream():
    return ShardStreamWorkload(
        ShardStreamConfig(forces=1, windows_per_force=1, events_per_force=6)
    )


def blueprint(workload):
    """One process, three windows counting the same field's changes."""
    plan = FederationBlueprint()
    context = workload.context_name(0)
    for name in WINDOWS:
        plan.add_specification(
            ShardSpec(
                name,
                workload.config.process_schema_id,
                f"d{name} = Filter_context[{context}, Deadline](ContextEvent)\n"
                f"n{name} = Count[](d{name})\n"
                f"deliver n{name} to {workload.team_role(0)} named AS_{name}\n",
            )
        )
    return plan


def operators(host):
    """``{instance name: operator}`` of the host's live operators."""
    return {op.instance_name: op for op in host.live_operators()}


def counts(host):
    return {
        name: (op.consumed, op.produced) for name, op in sorted(operators(host).items())
    }


def poisoned_host(workload):
    """A host past the stream's first event, whose window B's count
    holds a partition its step cannot add to."""
    host = ShardHost(0, 1)
    host.apply_blueprint(blueprint(workload))
    events = workload.events()
    host.ingest(events[:1])
    (partition,) = operators(host)["nB"]._partitions.values()
    partition["count"] = "corrupt"
    return host, events


@pytest.mark.parametrize("door", ["events", "columns"])
def test_a_raising_step_stops_the_frame_at_its_window(door):
    workload = stream()
    host, events = poisoned_host(workload)
    frame = events[1:3]
    if door == "columns":
        frame = decoded_runs(frame)
    assert counts(host) == {f"{kind}{name}": (1, 1) for kind in "dn" for name in WINDOWS}
    before = host.stats()
    with pytest.raises(TypeError, match="can only concatenate str"):
        host.ingest(frame)
    assert counts(host) == {
        "dA": (2, 2), "nA": (2, 2),  # registered first: saw the event
        "dB": (2, 2), "nB": (2, 1),  # raised between its counts
        "dC": (1, 1), "nC": (1, 1),  # after it in the bucket: never saw it
    }
    after = host.stats()
    assert after["frames_ingested"] == before["frames_ingested"] + 1
    assert after["events_ingested"] == before["events_ingested"]
    assert after["composites_recognized"] == before["composites_recognized"] + 1
    host.close()


def test_a_raising_step_in_a_process_worker_kills_it():
    workload = stream()
    host, events = poisoned_host(workload)
    state = host.snapshot_state()
    host.close()
    federation = ShardedFederation(
        blueprint(workload), ShardConfig(shards=1, backend="process")
    )
    try:
        (shard,) = federation.shards
        shard._send({"kind": "restore", "state": state})
        federation.ingest(events[1:3])
        with pytest.raises(ShardCrashError, match="TypeError"):
            federation.drain()
        assert not shard.alive
    finally:
        federation.close()
