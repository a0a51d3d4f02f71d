"""Generated crash schedules against the serial oracle.

A Hypothesis state machine drives a 2-shard durable process federation
(instrumented, ``batch_size=8``, ``snapshot_every=3``, so snapshots and
journal compactions fall between kills) and, operation for operation, a
serial 1-shard federation.  Rules: ingest the next slice of a seeded
stream, deploy / undeploy / redeploy an extra window, drain, SIGKILL
shard *k*, snapshot shard *k*.  After every drain the two delivered
streams must agree: the provenance-signature multiset and the order
within each process instance.

Tier-1 runs twelve programs of 20 steps; ``--hypothesis-profile=soak``
(nightly) runs 2 000.
"""

import multiprocessing
import shutil
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

    def both(self):
        return self.federation, self.oracle

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
        for federation in self.both():
            federation.deploy(self.extra)
        self.deployed = True

    @precondition(lambda self: self.deployed)
    @rule()
    def undeploy(self):
        for federation in self.both():
            federation.undeploy(self.extra.spec_id)
        self.deployed = False

    @precondition(lambda self: self.deployed)
    @rule()
    def redeploy(self):
        for federation in self.both():
            federation.undeploy(self.extra.spec_id)
            federation.deploy(self.extra)

    @rule()
    def drain(self):
        for federation in self.both():
            federation.drain()
        assert_same_stream(self.federation.delivered, self.oracle.delivered)

    @rule(k=st.integers(0, 1))
    def kill(self, k):
        kill_worker(self.federation.shards[k])

    @rule(k=st.integers(0, 1))
    def snapshot(self, k):
        self.federation.shards[k].take_snapshot()

    def teardown(self):
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
