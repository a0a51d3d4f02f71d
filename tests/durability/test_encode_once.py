"""Encode once: a journaled frame's bytes are the pipe's bytes (DESIGN note 20).

Count pins on a supervised federation (every ingested event passes one
of the encoder's two event doors — ``_rows`` for a run, ``_event`` for a
row — exactly once on the facade; the bytes appended to ``journal.log``
are the bytes queued on the channel), the journal an earlier build left
behind — row-wise ``EVENT`` records, stream-interned frames first and
self-contained ones after them — read, reopened and compacted, and what
``repro journal`` says about such a file.  (A live log never replays
such a file: opening it upgrades it first.)
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
    ROWS_MIN,
    T_SELF,
    BinaryEncoder,
    encode_standalone,
    events_frame,
)
from repro.parallel.mux import MuxChannel

from tests.exact import as_decoded, decoded, exactly
from tests.parallel.test_codec import (
    DEEP_PAYLOADS,
    HOSTILE_RUNS,
    RowwiseEncoder,
    rowwise_standalone,
)
from tests.durability.test_journal_writers import (
    decode_each_record_alone,
    event_batch,
)
from tests.durability.test_supervised_federation import (
    durable_config,
    small_workload,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)

def write_as_earlier_builds(path, frames, interned=None):
    """*frames* as earlier builds journaled them, events row by row: the
    first *interned* of them (default: half) under one encoder along the
    file, tables shared from frame to frame; the rest self-contained, as
    the parent build appended to such a file.  Written in place (same
    inode), so a live ``FrameLog`` keeps appending after it."""
    interned = len(frames) // 2 if interned is None else interned
    encoder = RowwiseEncoder()
    with open(path, "wb") as stream:
        stream.write(JOURNAL_MAGIC)
        for frame in frames[:interned]:
            stream.write(encoder.encode_frame(frame))
        for frame in frames[interned:]:
            stream.write(rowwise_standalone(frame))


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
        # The encoder's two doors for an event: a row, or a run's rows.
        as_rows, in_runs = [], []
        real_event, real_rows = BinaryEncoder._event, BinaryEncoder._rows

        def counted_event(self, buf, event):
            as_rows.append(event)
            return real_event(self, buf, event)

        def counted_rows(self, buf, events, keys):
            in_runs.extend(events)
            return real_rows(self, buf, events, keys)

        monkeypatch.setattr(BinaryEncoder, "_event", counted_event)
        monkeypatch.setattr(BinaryEncoder, "_rows", counted_rows)
        appended, queued = {}, {}
        real_append = FrameLog.append_encoded
        real_queue = MuxChannel.queue_encoded

        def counted_append(self, data):
            appended.setdefault(self.path, []).append(data)
            return real_append(self, data)

        def counted_queue(self, data):
            queued.setdefault(self.shard_id, []).append(data)
            return real_queue(self, data)

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
        # The pin: one encode per ingested event on the facade, whichever
        # door it took (encoding a frame twice, once for the journal and
        # once for the pipe, reads 2x here).  The workers' encoders live
        # in other processes.
        assert len(as_rows) + len(in_runs) == ingested > 0
        assert len({id(event) for event in as_rows + in_runs}) == ingested
        # Waves of ``batch_size`` events are uniform: they travel as runs.
        assert len(in_runs) > len(as_rows)


@needs_fork
class TestJournalOfAnEarlierBuild:
    """Row-wise frames, stream-interned then self-contained, and this
    build's runs after them: one reader."""

    def test_a_mixed_journal_loads_reopens_and_compacts(self, tmp_path):
        workload = small_workload(seed=59)
        events = workload.events()
        cut = len(events) // 2
        config = durable_config(tmp_path, batch_size=8, snapshot_every=0)
        with ShardedFederation(workload.blueprint(), config) as federation:
            federation.ingest(events[:cut])
            federation.drain()
            earlier = {}
            for shard in federation.shards:
                # What earlier builds would have left on disk so far.
                shard.journal.sync()
                old = load_journal(shard.journal.path).frames
                assert len(old) > 2
                write_as_earlier_builds(shard.journal.path, old)
                earlier[shard.shard_id] = len(old)
            federation.ingest(events[cut:])
            federation.drain()
            shard = federation.shards[0]
            shard.journal.sync()
            mixed = load_journal(shard.journal.path)
            assert 0 < mixed.self_contained < len(mixed.frames)
            assert not mixed.torn
            # The appends since are this build's: whole waves as runs.
            fresh = mixed.frames[earlier[shard.shard_id]:]
            assert any(len(f.get("events", ())) >= ROWS_MIN for f in fresh)
            with open(shard.journal.path, "rb") as stream:
                assert stream.read().endswith(
                    b"".join(map(encode_standalone, fresh))
                )
            path = shard.journal.path
        # The file as the run left it: still mixed, loads whole.
        left = load_journal(path)
        assert left.self_contained < len(left.frames) and not left.torn
        with pytest.raises(WireError):
            decode_each_record_alone(path)  # the old half needs its stream
        # Reopening upgrades it; compaction keeps it upgraded.
        with FrameLog(path) as log:
            assert log.frame_count == len(left.frames)
            assert exactly(decoded(log.tail(0)), left.frames)
            assert log.compact(2) == len(left.frames) - 2
        upgraded = load_journal(path)
        assert upgraded.self_contained == len(upgraded.frames)
        assert exactly(
            decode_each_record_alone(path),
            [{"kind": CONTROL_COMPACTED, "base": 2}] + left.frames[2:],
        )

    def test_offline_compaction_and_the_cli_see_both_kinds(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "journal.log")
        batch = event_batch(8)
        frames = [dict(events_frame(batch), seq=seq) for seq in range(5)]
        write_as_earlier_builds(path, frames[:4], interned=3)
        with open(path, "ab") as stream:
            stream.write(encode_standalone(frames[4]))
        assert main(["journal", path, "--json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)["journals"]
        assert report["frames"] == 5
        assert (report["self_contained"], report["stream_interned"]) == (2, 3)
        assert main(["journal", path]) == 0
        table = capsys.readouterr().out
        assert "self-cont." in table and "interned" in table
        loaded = load_journal(path)
        assert exactly(loaded.frames, as_decoded(frames))
        assert compact_journal(path, loaded, 1) == 4
        assert main(["journal", path, "--json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)["journals"]
        assert (report["frames"], report["base"]) == (4, 1)
        # The control frame is a record too.
        assert (report["self_contained"], report["stream_interned"]) == (5, 0)
        # One way, as every upgrade so far: what the rewrite leaves is
        # this build's encoding of each frame, runs included.
        with open(path, "rb") as stream:
            assert stream.read() == JOURNAL_MAGIC + b"".join(
                map(
                    encode_standalone,
                    [{"kind": CONTROL_COMPACTED, "base": 1}] + frames[1:],
                )
            )


class TestHostileJournalBytes:
    def test_nesting_beyond_the_stack_is_the_torn_point(self, tmp_path):
        self.torn_at(tmp_path, DEEP_PAYLOADS[0])

    @pytest.mark.parametrize("name", sorted(HOSTILE_RUNS))
    def test_a_corrupt_event_run_is_the_torn_point(self, tmp_path, name):
        self.torn_at(tmp_path, HOSTILE_RUNS[name])

    def torn_at(self, tmp_path, hostile):
        path = str(tmp_path / "journal.log")
        frames = [{"kind": "events", "n": index} for index in range(3)]
        with FrameLog(path) as log:
            for frame in frames:
                log.append(frame)
        for lead in (b"", bytes((T_SELF,))):
            with open(path, "ab") as stream:
                payload = lead + hostile
                stream.write(len(payload).to_bytes(4, "big") + payload)
                stream.write(encode_standalone({"kind": "events", "n": 99}))
            loaded = load_journal(path)
            assert (loaded.frames, loaded.torn) == (frames, True)
            assert loaded.self_contained == 3
            with FrameLog(path) as log:  # opens; the tail is dropped
                assert log.frame_count == 3
            assert not load_journal(path).torn
