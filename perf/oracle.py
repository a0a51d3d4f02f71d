"""Oracles: what each workload's output must be.

Every timed stream repetition already checks its notification count
against ``ShardStreamWorkload.expected_notifications()`` (in
``streams.py``, next to the call it checks).  This module holds the
heavier references:

* :func:`check_differential` — once per stream workload, untimed and at
  reduced size with ``instrument=True``: the provenance-signature
  multiset and the per-instance order must equal the serial one-shard
  run's (what QE11/QE12 assert).
* :func:`check_recovered_stream` — the stream that survived five
  SIGKILLs must equal the stream of an uncrashed run.
* :class:`DeadlineOracle` — the ``Compare2`` latest-pair model of the
  §5.4 path (from ``tests/integration/test_model_based.py``), predicting
  per-participant notification counts for ``enactment_taskforce``.

A mismatch is counted by the harness, lands in the failure share and
makes the command exit non-zero.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.parallel import ShardConfig, ShardedFederation
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

from harness import Harness

DIFFERENTIAL_FORCES = 8
DIFFERENTIAL_EVENTS_PER_FORCE = 60


def _drive(workload: ShardStreamWorkload, config: ShardConfig) -> List[Any]:
    events = workload.events()
    with ShardedFederation(workload.blueprint(), config) as federation:
        federation.ingest(events)
        federation.drain()
        return list(federation.delivered)


def _signatures(notifications: Sequence[Any]) -> List[str]:
    return sorted(repr(n.signature) for n in notifications)


def _per_instance(notifications: Sequence[Any]) -> Dict[Any, List[Any]]:
    streams: Dict[Any, List[Any]] = {}
    for notification in notifications:
        streams.setdefault(notification.process_instance_id, []).append(
            notification.signature
        )
    return streams


def check_differential(harness: Harness, run: Any) -> None:
    """The workload's configuration against the serial one-shard run."""
    workload = ShardStreamWorkload(
        ShardStreamConfig(
            forces=DIFFERENTIAL_FORCES,
            windows_per_force=run.sizes.windows,
            events_per_force=DIFFERENTIAL_EVENTS_PER_FORCE,
            seed=harness.seed,
        )
    )
    reference = _drive(
        workload, ShardConfig(shards=1, backend="serial", instrument=True)
    )
    subject = _drive(workload, run.config(instrument=True))
    harness.check_count(
        "differential: reference count",
        len(reference),
        workload.expected_notifications(),
    )
    harness.check(
        "differential: every notification carries a provenance signature",
        all(n.signature is not None for n in reference),
    )
    harness.check(
        "differential: provenance-signature multiset differs from the "
        "serial one-shard run",
        _signatures(subject) == _signatures(reference),
    )
    harness.check(
        "differential: per-instance order differs from the serial "
        "one-shard run",
        _per_instance(subject) == _per_instance(reference),
    )


def check_recovered_stream(
    harness: Harness, run: Any, recovery: Dict[str, Any]
) -> None:
    """The crashed-and-recovered stream against an uncrashed one.

    The uncrashed run uses the serial backend at the same shard count:
    routing, per-shard sequence numbers and the merge are the same code,
    so ``delivered`` must match notification for notification.
    """
    workload = recovery.pop("workload")
    crashed = recovery.pop("crashed")
    uncrashed = _drive(
        workload, ShardConfig(shards=run.sizes.shards, backend="serial")
    )
    harness.check_count(
        "recovery: delivered", len(crashed), workload.expected_notifications()
    )
    harness.check(
        "recovery: the recovered stream differs from the uncrashed one",
        crashed == uncrashed,
    )


class DeadlineOracle:
    """``Compare2`` latest-pair semantics over one task force at a time.

    Per information-request instance, slot 0 holds the latest task-force
    deadline *seen by that instance* (only moves after the request was
    filed reach it), slot 1 the request deadline; a move fires when
    ``slot0 <= slot1``.  A fire for a live request is a notification to
    its requestor; a fire for a completed one would be undeliverable
    (the ``Requestor`` scoped role expired with its context).
    """

    def __init__(self, members: int) -> None:
        self.expected = [0] * members
        self.undeliverable = 0
        #: ``[requestor index, request deadline, live]`` of the current
        #: task force (requests of closed forces see no more moves).
        self._requests: List[List[Any]] = []

    def create_task_force(self) -> None:
        self._requests = []

    def request(self, member: int, deadline: int) -> None:
        self._requests.append([member, deadline, True])

    def move(self, deadline: int) -> None:
        for member, request_deadline, live in self._requests:
            if deadline <= request_deadline:
                if live:
                    self.expected[member] += 1
                else:
                    self.undeliverable += 1

    def complete(self, index: int) -> None:
        self._requests[index][2] = False

    @property
    def total(self) -> int:
        return sum(self.expected)
