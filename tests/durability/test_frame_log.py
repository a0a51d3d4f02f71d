"""The write-ahead frame log: framing, fsync batching, repair, compaction."""

import json
import os

import pytest

from repro.cli import main
from repro.durability.log import (
    CONTROL_COMPACTED,
    FrameLog,
    detect_codec,
    load_journal,
)
from repro.durability.snapshot import ShardSnapshot
from repro.durability.supervisor import JOURNAL_FILENAME, SNAPSHOT_FILENAME
from repro.errors import DurabilityError
from repro.observability.logging import logging_enabled
from repro.parallel.codec import events_frame, frame_to_jsonable
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

from tests.durability.json_era import downgrade_to_json


def frames_for(count, start=0):
    return [{"kind": "events", "n": index} for index in range(start, count)]


def rendered(frames):
    """Frames holding raw events, in a form ``==`` can compare."""
    return [frame_to_jsonable(frame) for frame in frames]


class TestAppendAndScan:
    def test_round_trip_preserves_frames_and_indices(self, tmp_path):
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            indices = [log.append(frame) for frame in frames_for(5)]
        assert indices == [0, 1, 2, 3, 4]
        loaded = load_journal(path)
        assert loaded.frames == frames_for(5)
        assert not loaded.torn

    def test_reopen_continues_the_numbering(self, tmp_path):
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            log.append({"kind": "events", "n": 0})
        with FrameLog(path) as log:
            assert log.frame_count == 1
            assert log.append({"kind": "events", "n": 1}) == 1

    def test_tail_reads_from_an_absolute_index(self, tmp_path):
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            for frame in frames_for(6):
                log.append(frame)
            assert log.tail(4) == frames_for(6)[4:]
            assert log.tail(0) == frames_for(6)


class TestFsyncBatching:
    def test_fsync_runs_once_per_batch(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))
        )
        with FrameLog(str(tmp_path / "journal.log"), fsync_every=4) as log:
            for frame in frames_for(7):
                log.append(frame)
            assert len(calls) == 1  # one batch of 4; 3 appends pending
            log.sync()
            assert len(calls) == 2
            log.sync()  # nothing unsynced: no extra fsync
            assert len(calls) == 2

    def test_fsync_every_zero_never_batches(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))
        )
        log = FrameLog(str(tmp_path / "journal.log"), fsync_every=0)
        for frame in frames_for(10):
            log.append(frame)
        assert calls == []
        log.close()  # close still flushes once
        assert len(calls) == 1

    def test_negative_fsync_every_is_rejected(self, tmp_path):
        with pytest.raises(DurabilityError):
            FrameLog(str(tmp_path / "journal.log"), fsync_every=-1)


class TestTornTailRepair:
    def test_partial_payload_is_truncated_on_reopen(self, tmp_path):
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            for frame in frames_for(3):
                log.append(frame)
        # A crashed writer left a complete header promising more payload
        # than exists.
        with open(path, "ab") as handle:
            handle.write((1 << 16).to_bytes(4, "big"))
            handle.write(b'{"kind": "ev')
        assert load_journal(path).torn is True
        with FrameLog(path) as log:
            assert log.frame_count == 3
            assert log.append({"kind": "events", "n": 3}) == 3
        repaired = load_journal(path)
        assert (repaired.frames, repaired.torn) == (frames_for(4), False)

    def test_partial_header_is_truncated_on_reopen(self, tmp_path):
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            for frame in frames_for(2):
                log.append(frame)
        intact = open(path, "rb").read()
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00")  # 2 of the 4 header bytes
        loaded = load_journal(path)
        assert (len(loaded.frames), loaded.torn) == (2, True)
        with FrameLog(path) as log:
            assert log.frame_count == 2
        # The reopened file holds exactly the complete frames.
        repaired = load_journal(path)
        assert (repaired.frames, repaired.torn) == (frames_for(2), False)
        assert open(path, "rb").read() == intact


class TestCompaction:
    def test_compaction_preserves_absolute_indices(self, tmp_path):
        path = str(tmp_path / "journal.log")
        log = FrameLog(path)
        for frame in frames_for(8):
            log.append(frame)
        survivors = log.compact(5)
        assert survivors == 3
        assert log.base == 5
        assert log.tail(5) == frames_for(8)[5:]
        assert log.tail(6) == frames_for(8)[6:]
        # New appends continue the absolute numbering.
        assert log.append({"kind": "events", "n": 8}) == 8
        log.close()
        # The control frame makes the file self-describing.
        loaded = load_journal(path)
        assert loaded.frames[0] == {"kind": CONTROL_COMPACTED, "base": 5}
        assert loaded.base == 5
        assert loaded.payload == loaded.frames[1:]

    def test_reopen_after_compaction_keeps_the_base(self, tmp_path):
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            for frame in frames_for(6):
                log.append(frame)
            log.compact(4)
        with FrameLog(path) as log:
            assert log.base == 4
            assert log.frame_count == 6
            assert log.tail(4) == frames_for(6)[4:]

    def test_reading_below_the_base_is_refused(self, tmp_path):
        with FrameLog(str(tmp_path / "journal.log")) as log:
            for frame in frames_for(4):
                log.append(frame)
            log.compact(2)
            with pytest.raises(DurabilityError):
                log.tail(1)

    def test_compacting_past_the_end_is_refused(self, tmp_path):
        with FrameLog(str(tmp_path / "journal.log")) as log:
            log.append({"kind": "events", "n": 0})
            with pytest.raises(DurabilityError):
                log.compact(2)

    def test_compacting_below_the_base_is_a_noop(self, tmp_path):
        with FrameLog(str(tmp_path / "journal.log")) as log:
            for frame in frames_for(5):
                log.append(frame)
            log.compact(3)
            assert log.compact(2) == 2  # still 2 payload frames on file
            assert log.base == 3


class TestJsonEraUpgrade:
    """Journals written before the binary codec: read as they are,
    upgraded once on open — the only JSON journal paths left."""

    @staticmethod
    def event_frames(count):
        events = ShardStreamWorkload(
            ShardStreamConfig(forces=2, events_per_force=10)
        ).events()
        assert len(events) >= 2 * count
        return [
            dict(events_frame(events[2 * i : 2 * i + 2]), seq=i)
            for i in range(count)
        ]

    def json_journal(self, tmp_path, frames, compact_to=0):
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            for frame in frames:
                log.append(frame)
            log.compact(compact_to)
        downgrade_to_json(path)
        assert detect_codec(path) == "json"
        return path

    def test_open_upgrades_in_place_and_keeps_the_frames(self, tmp_path):
        frames = self.event_frames(4)
        path = self.json_journal(tmp_path, frames)
        with FrameLog(path) as log:
            assert log.frame_count == 4
            assert rendered(log.tail(0)) == rendered(frames)
            assert log.append(frames[0]) == 4
        assert detect_codec(path) == "binary"

    def test_any_other_codec_is_refused(self, tmp_path):
        with pytest.raises(DurabilityError, match="codec"):
            FrameLog(str(tmp_path / "journal.log"), codec="json")

    def test_torn_tail_dies_with_the_upgrade(self, tmp_path):
        frames = self.event_frames(3)
        path = self.json_journal(tmp_path, frames)
        with open(path, "ab") as handle:
            handle.write((1 << 16).to_bytes(4, "big"))
            handle.write(b'{"kind": "ev')
        loaded = load_journal(path)
        assert (loaded.codec, len(loaded.frames), loaded.torn) == (
            "json",
            3,
            True,
        )
        with FrameLog(path) as log:
            assert log.frame_count == 3
            assert log.append(frames[0]) == 3
        loaded = load_journal(path)
        assert (loaded.codec, len(loaded.frames), loaded.torn) == (
            "binary",
            4,
            False,
        )

    def test_absolute_numbering_survives_a_compacted_json_journal(
        self, tmp_path
    ):
        frames = self.event_frames(6)
        path = self.json_journal(tmp_path, frames, compact_to=4)
        assert load_journal(path).base == 4
        with FrameLog(path) as log:
            assert (log.base, log.frame_count) == (4, 6)
            assert rendered(log.tail(4)) == rendered(frames[4:])
            with pytest.raises(DurabilityError):
                log.tail(3)
            assert log.append(frames[0]) == 6
        assert load_journal(path).frames[0] == {
            "kind": CONTROL_COMPACTED,
            "base": 4,
        }

    def test_the_upgrade_happens_once(self, tmp_path):
        path = self.json_journal(tmp_path, self.event_frames(2))
        with logging_enabled() as log:
            FrameLog(path).close()
            (record,) = log.records(event="journal_recoded")
            assert (record["from_codec"], record["frames"]) == ("json", 2)
            upgraded = open(path, "rb").read()
            FrameLog(path).close()
            assert len(log.records(event="journal_recoded")) == 1
        assert open(path, "rb").read() == upgraded

    def test_repro_journal_inspects_without_upgrading(
        self, tmp_path, capsys
    ):
        frames = self.event_frames(3)
        path = self.json_journal(tmp_path, frames)
        before = open(path, "rb").read()
        assert main(["journal", path, "--json", "--dump"]) == 0
        (report,) = json.loads(capsys.readouterr().out)["journals"]
        assert report["codec"] == "json"
        assert (report["frames"], report["base"]) == (3, 0)
        assert report["kinds"] == {"events": 3}
        assert open(path, "rb").read() == before
        # ... and prints what a binary journal of the same frames does.
        with FrameLog(path):
            pass
        assert main(["journal", path, "--json", "--dump"]) == 0
        (after,) = json.loads(capsys.readouterr().out)["journals"]
        assert after["codec"] == "binary"
        assert after["frame_list"] == report["frame_list"]

    def test_repro_journal_compact_upgrades_what_it_rewrites(
        self, tmp_path, capsys
    ):
        frames = self.event_frames(5)
        shard_dir = tmp_path / "shard-0"
        shard_dir.mkdir()
        path = self.json_journal(shard_dir, frames)
        os.rename(path, shard_dir / JOURNAL_FILENAME)
        path = str(shard_dir / JOURNAL_FILENAME)

        def compact(frame_index):
            ShardSnapshot(0, frame_index, {}, {}).save(
                str(shard_dir / SNAPSHOT_FILENAME)
            )
            code = main(["journal", str(tmp_path), "--compact", "--json"])
            captured = capsys.readouterr()
            return code, captured

        code, captured = compact(3)
        (report,) = json.loads(captured.out)["journals"]
        assert code == 0
        assert report["codec"] == "json"  # what the one pass found
        assert (report["compacted_to"], report["frames"], report["base"]) == (
            3,
            2,
            3,
        )
        loaded = load_journal(path)
        assert (loaded.codec, loaded.base, loaded.torn) == ("binary", 3, False)
        assert rendered(loaded.payload) == rendered(frames[3:])
        assert report["bytes"] == os.path.getsize(path)
        # A snapshot beyond the journal's end is refused, file untouched.
        before = open(path, "rb").read()
        code, captured = compact(9)
        assert code == 1
        assert "cannot compact past the end" in captured.err
        assert open(path, "rb").read() == before
