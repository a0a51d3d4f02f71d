"""Encode once: a journaled frame's bytes are the pipe's bytes (DESIGN note 20).

Count pins on a supervised federation (one ``BinaryEncoder._event`` per
ingested event on the facade; the bytes appended to ``journal.log`` are
the bytes queued on the channel), the journal an earlier build left
behind — stream-interned frames, self-contained ones after them — read,
reopened, compacted and replayed into a respawned worker, and what
``repro journal`` says about such a file.
"""

import json
import multiprocessing

import pytest

from repro.cli import main
from repro.durability.log import (
    CONTROL_COMPACTED,
    JOURNAL_MAGIC,
    FrameLog,
    compact_journal,
    load_journal,
)
from repro.errors import WireError
from repro.parallel import ShardSpec, ShardedFederation
from repro.parallel.codec import (
    T_SELF,
    BinaryEncoder,
    encode_standalone,
    events_frame,
)
from repro.parallel.mux import MuxChannel

from tests.parallel.test_codec import DEEP_PAYLOADS
from tests.durability.test_frame_log import rendered
from tests.durability.test_journal_writers import (
    decode_each_record_alone,
    event_batch,
)
from tests.durability.test_supervised_federation import (
    durable_config,
    kill_worker,
    reference_run,
    signatures,
    small_workload,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)

def write_stream_interned(path, frames):
    """*frames* as the parent build journaled them: one encoder along
    the whole file, tables shared from frame to frame.  Written in place
    (same inode), so a live ``FrameLog`` keeps appending after it."""
    encoder = BinaryEncoder()
    with open(path, "wb") as stream:
        stream.write(JOURNAL_MAGIC)
        for frame in frames:
            stream.write(encoder.encode_frame(frame))


@needs_fork
class TestOneEncodePerJournaledFrame:
    def test_events_encode_once_and_the_pipe_carries_the_journals_bytes(
        self, tmp_path, monkeypatch
    ):
        workload = small_workload()
        extra = ShardSpec(
            spec_id="spec-extra",
            process_schema_id=workload.config.process_schema_id,
            text=workload.specification_text(0).replace("AS_TF", "AS_XX"),
        )
        encoded_events = []
        real_event = BinaryEncoder._event
        monkeypatch.setattr(
            BinaryEncoder,
            "_event",
            lambda self, buf, event: (
                encoded_events.append(1),
                real_event(self, buf, event),
            )[1],
        )
        appended, queued = {}, {}
        real_append = FrameLog.append_encoded
        real_queue = MuxChannel.queue_encoded

        def counted_append(self, data):
            appended.setdefault(self.path, []).append(data)
            return real_append(self, data)

        def counted_queue(self, data, seq=None):
            queued.setdefault(self.shard_id, []).append(data)
            return real_queue(self, data, seq)

        monkeypatch.setattr(FrameLog, "append_encoded", counted_append)
        monkeypatch.setattr(MuxChannel, "queue_encoded", counted_queue)
        config = durable_config(tmp_path, snapshot_every=0)
        with ShardedFederation(workload.blueprint(), config) as federation:
            events = workload.events()
            federation.ingest(events[: len(events) // 2])
            federation.drain()
            federation.deploy(extra)
            federation.ingest(events[len(events) // 2 :])
            federation.undeploy(extra.spec_id)
            federation.drain()
            merged = [
                notification
                for notification in federation.delivered
                if not notification.schema_name.startswith("AS_XX")
            ]
            ingested = sum(
                row["events_ingested"] for row in federation.shard_stats()
            )
            for shard in federation.shards:
                shard.journal.sync()
                journaled = appended[shard.journal.path]
                # The pin: the journal's bytes *are* the pipe's bytes —
                # the same objects, in the same order; everything else
                # on the pipe (stats, flush) is stream-interned.
                on_pipe = [
                    data for data in queued[shard.shard_id] if data[4] == T_SELF
                ]
                assert len(on_pipe) == len(journaled) > 2
                assert all(a is b for a, b in zip(on_pipe, journaled))
                with open(shard.journal.path, "rb") as stream:
                    assert stream.read() == JOURNAL_MAGIC + b"".join(journaled)
                kinds = {f["kind"] for f in load_journal(shard.journal.path).frames}
                assert kinds == {"events", "deploy", "undeploy"}
        assert len(merged) == workload.expected_notifications()
        # The pin: one encode per ingested event on the facade (the
        # parent encoded each twice, once for the journal, once for the
        # pipe).  The workers' encoders live in other processes.
        assert len(encoded_events) == ingested > 0


@needs_fork
class TestJournalOfAnEarlierBuild:
    """First half stream-interned, tail self-contained: one reader."""

    def test_recovery_replays_a_mixed_journal_exactly(self, tmp_path):
        workload = small_workload(seed=59)
        events = workload.events()
        cut = len(events) // 2
        config = durable_config(tmp_path, batch_size=8, snapshot_every=0)
        with ShardedFederation(workload.blueprint(), config) as federation:
            federation.ingest(events[:cut])
            federation.drain()
            for shard in federation.shards:
                # What the parent build would have left on disk so far.
                shard.journal.sync()
                old = load_journal(shard.journal.path).frames
                assert len(old) > 1
                write_stream_interned(shard.journal.path, old)
            federation.ingest(events[cut : cut + cut // 2])
            federation.drain()
            shard = federation.shards[0]
            shard.journal.sync()
            mixed = load_journal(shard.journal.path)
            assert 0 < mixed.self_contained < len(mixed.frames)
            assert not mixed.torn
            kill_worker(shard)  # replay: tail(0) over the mixed file
            federation.ingest(events[cut + cut // 2 :])
            federation.drain()
            assert federation.stats()["recoveries"] == 1
            merged = list(federation.delivered)
            path = shard.journal.path
        assert signatures(merged) == signatures(reference_run(workload))
        # The file as the crashed run left it: still mixed, loads whole.
        left = load_journal(path)
        assert left.self_contained < len(left.frames) and not left.torn
        with pytest.raises(WireError):
            decode_each_record_alone(path)  # the old half needs its stream
        # Reopening upgrades it; compaction keeps it upgraded.
        with FrameLog(path) as log:
            assert log.frame_count == len(left.frames)
            assert rendered(log.tail(0)) == rendered(left.frames)
            assert log.compact(2) == len(left.frames) - 2
        upgraded = load_journal(path)
        assert upgraded.self_contained == len(upgraded.frames)
        assert decode_each_record_alone(path) == rendered(
            [{"kind": CONTROL_COMPACTED, "base": 2}] + left.frames[2:]
        )

    def test_offline_compaction_and_the_cli_see_both_kinds(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "journal.log")
        batch = event_batch(8)
        frames = [dict(events_frame(batch), seq=seq) for seq in range(5)]
        write_stream_interned(path, frames[:3])
        with open(path, "ab") as stream:
            for frame in frames[3:]:
                stream.write(encode_standalone(frame))
        assert main(["journal", path, "--json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)["journals"]
        assert (report["codec"], report["frames"]) == ("binary", 5)
        assert (report["self_contained"], report["stream_interned"]) == (2, 3)
        assert main(["journal", path]) == 0
        table = capsys.readouterr().out
        assert "self-cont." in table and "interned" in table
        loaded = load_journal(path)
        assert rendered(loaded.frames) == rendered(frames)
        assert compact_journal(path, loaded, 1) == 4
        assert main(["journal", path, "--json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)["journals"]
        assert (report["frames"], report["base"]) == (4, 1)
        # The control frame is a record too.
        assert (report["self_contained"], report["stream_interned"]) == (5, 0)


class TestHostileJournalBytes:
    def test_nesting_beyond_the_stack_is_the_torn_point(self, tmp_path):
        path = str(tmp_path / "journal.log")
        frames = [{"kind": "events", "n": index} for index in range(3)]
        with FrameLog(path) as log:
            for frame in frames:
                log.append(frame)
        for lead in (b"", bytes((T_SELF,))):
            with open(path, "ab") as stream:
                payload = lead + DEEP_PAYLOADS[0]
                stream.write(len(payload).to_bytes(4, "big") + payload)
                stream.write(encode_standalone({"kind": "events", "n": 99}))
            loaded = load_journal(path)
            assert (loaded.frames, loaded.torn) == (frames, True)
            assert loaded.self_contained == 3
            with FrameLog(path) as log:  # opens; the tail is dropped
                assert log.frame_count == 3
            assert not load_journal(path).torn
