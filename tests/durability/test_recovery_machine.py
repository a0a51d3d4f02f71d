"""Generated crash and stall schedules against the serial oracle.

A Hypothesis state machine drives a 2-shard durable process federation
(instrumented, ``batch_size=8``, ``snapshot_every=3``, so snapshots and
journal compactions fall between kills) and, operation for operation, a
serial 1-shard federation.  Rules: ingest the next slice of a seeded
stream, deploy / undeploy / redeploy an extra window, drain, SIGKILL
shard *k*, snapshot shard *k*, SIGSTOP / SIGCONT shard *k*.  After every
drain the two delivered streams must agree: the provenance-signature
multiset and the order within each process instance.

A stopped worker stalls only what waits on its answer.  Ingest does not
(a full pipe defers the shard's batches in the facade buffer), so it
runs against stopped workers; drain, deploy, undeploy, redeploy and
snapshot each wait on every worker, so they resume the stopped ones
first — and so does the cadence snapshot ingest takes every
``snapshot_every`` frames, the one wait inside ingest.  A kill SIGKILLs
a stopped worker as it is; teardown resumes before it closes.

Tier-1 runs twelve programs of 20 steps; ``--hypothesis-profile=soak``
(nightly) runs 2 000.
"""

import multiprocessing
import shutil
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.parallel import ShardConfig, ShardSpec, ShardedFederation

from tests.durability.test_supervised_federation import (
    durable_config,
    kill_worker,
    small_workload,
)
from tests.exact import assert_same_stream

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)

#: Twelve programs keep tier-1 near two seconds; a loaded profile that asks
#: for more than Hypothesis' own default (``soak``, registered in
#: tests/conftest.py) wins.
PROFILE_EXAMPLES = settings.default.max_examples
EXAMPLES = PROFILE_EXAMPLES if PROFILE_EXAMPLES > 100 else 12
STEPS = 20


class RecoveryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.workload = small_workload(seed=67)
        self.events = self.workload.events()
        self.position = 0
        self.extra = ShardSpec(
            spec_id="spec-extra",
            process_schema_id=self.workload.config.process_schema_id,
            text=self.workload.specification_text(0).replace("AS_TF", "AS_XX"),
        )
        self.deployed = False
        self.directory = tempfile.mkdtemp(prefix="recovery-machine-")
        self.oracle = ShardedFederation(
            self.workload.blueprint(),
            ShardConfig(shards=1, backend="serial", instrument=True),
        )
        self.federation = ShardedFederation(
            self.workload.blueprint(),
            durable_config(
                Path(self.directory),
                batch_size=8,
                snapshot_every=3,
                max_recoveries=STEPS,
            ),
        )
        #: Stopped worker processes, by shard.
        self.stopped = {}
        for k, shard in enumerate(self.federation.shards):
            shard.take_snapshot = self.resuming(k, shard.take_snapshot)

    def both(self):
        return self.federation, self.oracle

    def resuming(self, k, wait):
        """*wait*, after resuming shard *k*'s worker if it is stopped."""

        def resumed_first(*args):
            self.resume(k)
            return wait(*args)

        return resumed_first

    def resume_all(self):
        for k in list(self.stopped):
            self.resume(k)

    @precondition(lambda self: self.position < len(self.events))
    @rule(length=st.integers(1, 48))
    def ingest(self, length):
        chunk = self.events[self.position : self.position + length]
        self.position += len(chunk)
        for federation in self.both():
            federation.ingest(chunk)

    @precondition(lambda self: not self.deployed)
    @rule()
    def deploy(self):
        self.resume_all()
        for federation in self.both():
            federation.deploy(self.extra)
        self.deployed = True

    @precondition(lambda self: self.deployed)
    @rule()
    def undeploy(self):
        self.resume_all()
        for federation in self.both():
            federation.undeploy(self.extra.spec_id)
        self.deployed = False

    @precondition(lambda self: self.deployed)
    @rule()
    def redeploy(self):
        self.resume_all()
        for federation in self.both():
            federation.undeploy(self.extra.spec_id)
            federation.deploy(self.extra)

    @rule()
    def drain(self):
        self.resume_all()
        for federation in self.both():
            federation.drain()
        assert_same_stream(self.federation.delivered, self.oracle.delivered)

    @rule(k=st.integers(0, 1))
    def kill(self, k):
        # SIGKILL ends a stopped process too: no resume first.
        self.stopped.pop(k, None)
        kill_worker(self.federation.shards[k])

    @rule(k=st.integers(0, 1))
    def snapshot(self, k):
        self.resume_all()
        self.federation.shards[k].take_snapshot()

    @rule(k=st.integers(0, 1))
    def stop(self, k):
        process = self.federation.shards[k].inner.process
        if process.is_alive():
            process._popen._send_signal(signal.SIGSTOP)  # noqa: SLF001
            self.stopped[k] = process

    @rule(k=st.integers(0, 1))
    def resume(self, k):
        process = self.stopped.pop(k, None)
        if process is not None:
            process._popen._send_signal(signal.SIGCONT)  # noqa: SLF001

    def teardown(self):
        self.resume_all()
        try:
            self.federation.close()
            self.oracle.close()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


RecoveryMachine.TestCase.settings = settings(
    max_examples=EXAMPLES,
    stateful_step_count=STEPS,
    deadline=None,
)
TestRecoveryMachine = RecoveryMachine.TestCase
