"""A durable shard owns its worker's life.

A SIGKILLed worker is replaced inside the same shard object, which keeps
its frame sequence count and its log watermark.  Every fork — at boot,
where each shard's journal is opened before its worker is forked, and
at a restart — leaves the worker holding its own pipe pair and nothing
else the federation opened: no peer's pipe end, no journal.  A journal
refused at boot leaves no worker running.
"""

import multiprocessing
import os
import sys

import pytest

from repro.durability.log import load_journal
from repro.durability.supervisor import JOURNAL_FILENAME, SupervisedShard
from repro.errors import DurabilityError
from repro.parallel import ShardSpec, ShardedFederation
from repro.parallel.federation import ProcessShard

from tests.durability.test_frame_log import JSON_ERA_JOURNAL
from tests.durability.test_supervised_federation import (
    durable_config,
    kill_worker,
    small_workload,
)
from tests.parallel.test_process_backend import live_workers

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)

linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/fd"
)


def fd_links(pid):
    """What each open fd of process *pid* points at."""
    directory = f"/proc/{pid}/fd"
    links = []
    for name in os.listdir(directory):
        try:
            links.append(os.readlink(os.path.join(directory, name)))
        except OSError:  # closed while listing
            pass
    return links


def pipes_of(shard):
    """The two pipes of *shard*'s channel, as ``/proc`` names them."""
    channel = shard.channel
    return {
        os.readlink(f"/proc/self/fd/{channel.in_fd}"),
        os.readlink(f"/proc/self/fd/{channel.out_fd}"),
    }


def assert_each_worker_holds_only_its_own(federation):
    # A round trip first: a worker drops inherited fds before it serves.
    federation.stats()
    pipes = {shard.shard_id: pipes_of(shard) for shard in federation.shards}
    for shard in federation.shards:
        links = fd_links(shard.process.pid)
        assert pipes[shard.shard_id] <= set(links)
        for peer, peer_pipes in pipes.items():
            if peer != shard.shard_id:
                assert not peer_pipes & set(links), (shard.shard_id, peer)
        assert not [link for link in links if JOURNAL_FILENAME in link]


class TestRestartInPlace:
    def test_a_killed_worker_is_replaced_inside_the_same_shard(self, tmp_path):
        workload = small_workload(seed=29)
        events = workload.events()
        cut = len(events) // 2
        extra = ShardSpec(
            spec_id="spec-extra",
            process_schema_id=workload.config.process_schema_id,
            text=workload.specification_text(0).replace("AS_TF", "AS_XX"),
        )
        config = durable_config(tmp_path, snapshot_every=0)
        with ShardedFederation(workload.blueprint(), config) as federation:
            federation.ingest(events[:cut])
            federation.drain()
            shard = federation.shards[0]
            assert isinstance(shard, SupervisedShard)
            assert isinstance(shard, ProcessShard)
            assert shard.inner is shard
            pid, sent = shard.process.pid, shard._next_seq
            assert sent > 0
            kill_worker(shard)
            federation.deploy(extra)  # the first send recovers
            assert federation.shards[0] is shard
            assert shard.recoveries == 1
            assert shard.process.pid != pid
            federation.ingest(events[cut:])
            federation.drain()
            assert shard._next_seq > sent
            shard.journal.sync()
            seqs = [
                frame["seq"]
                for frame in load_journal(shard.journal.path).frames
                if frame["kind"] == "events"
            ]
            # The count continued across the restart: no reset, no gap.
            assert seqs == list(range(shard._next_seq))
            federation.refresh_observability()
            deployed = [
                record
                for record in federation.logs().records(shard=0)
                if record.get("event") == "window_deployed"
                and any(name.startswith("AS_XX") for name in record["schemas"])
            ]
            # Emitted by the restarted worker, after the replay.
            assert len(deployed) == 1


@linux_only
class TestWorkerFds:
    def test_no_worker_holds_a_peer_pipe_or_a_journal(self, tmp_path):
        workload = small_workload(seed=31)
        events = workload.events()
        cut = len(events) // 2
        config = durable_config(tmp_path, shards=3, snapshot_every=2)
        with ShardedFederation(workload.blueprint(), config) as federation:
            assert_each_worker_holds_only_its_own(federation)
            federation.ingest(events[:cut])
            federation.drain()
            kill_worker(federation.shards[1])
            federation.ingest(events[cut:])
            federation.drain()
            assert federation.shards[1].recoveries == 1
            assert_each_worker_holds_only_its_own(federation)

    def test_a_journal_refused_at_boot_leaves_no_worker(self, tmp_path):
        workload = small_workload(seed=37)
        config = durable_config(tmp_path, shards=3)
        shard = tmp_path / "durable" / "shard-2"
        shard.mkdir(parents=True)
        (shard / JOURNAL_FILENAME).write_bytes(JSON_ERA_JOURNAL)
        before = live_workers()
        with pytest.raises(DurabilityError, match="JSON-era journal"):
            ShardedFederation(workload.blueprint(), config)
        assert live_workers() == before
        # The journals opened before the refusal are closed too.
        assert not [
            link for link in fd_links("self") if str(tmp_path) in link
        ]
