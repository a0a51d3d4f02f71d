"""The write-ahead frame log: framing, fsync batching, repair, compaction."""

import json
import os
import stat

import pytest

from repro.cli import main
from repro.durability.log import (
    CONTROL_COMPACTED,
    JOURNAL_MAGIC,
    LAST_JSON_ERA_BUILD,
    FrameLog,
    load_journal,
)
from repro.durability.snapshot import ShardSnapshot
from repro.durability.supervisor import JOURNAL_FILENAME
from repro.errors import DurabilityError
from repro.parallel.codec import encode_standalone

from tests.exact import decoded


def frames_for(count, start=0):
    return [{"kind": "events", "n": index} for index in range(start, count)]


#: A journal as builds before the binary codec wrote it: no header, each
#: frame a 4-byte big-endian length and compact UTF-8 JSON, events as
#: tagged wire dicts.  This build refuses it.
JSON_ERA_JOURNAL = (
    b'\x00\x00\x00\x1d{"kind":"compacted","base":2}'
    b'\x00\x00\x00\xd4{"kind":"events","seq":2,"events":[{"type":"T_context",'
    b'"params":{"time":7,"source":"E_context","contextName":"Ctx",'
    b'"processAssociations":{"$fs":[{"$t":["P","tf-1"]}]},'
    b'"fieldName":"Deadline","newFieldValue":20}}]}'
    b'\x00\x00\x00"{"kind":"undeploy","spec_id":"s1"}'
)


#: Compaction bases that are not a frame index.
MALFORMED_BASES = ["x", None, -3, True, 1.5]


def journal_with_base(path, base):
    """A journal whose compaction control frame claims *base*."""
    path.write_bytes(
        JOURNAL_MAGIC
        + encode_standalone({"kind": CONTROL_COMPACTED, "base": base})
        + encode_standalone({"kind": "undeploy", "spec_id": "s"})
    )
    return path


def assert_json_era_refusal(error, path):
    """The refusal names the file, the format and the last reader."""
    message = str(error)
    assert str(path) in message
    assert "JSON-era journal" in message
    assert LAST_JSON_ERA_BUILD in message


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
            assert decoded(log.tail(4)) == frames_for(6)[4:]
            assert decoded(log.tail(0)) == frames_for(6)


def file_fsync(calls, fd):
    """Count an fsync of a file, not of a directory: a new journal's
    first sync also makes its directory entry durable, once
    (:class:`TestNewJournalDirectory`)."""
    if not stat.S_ISDIR(os.fstat(fd).st_mode):
        calls.append(fd)


class TestFsyncBatching:
    def test_fsync_runs_once_per_batch(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (file_fsync(calls, fd), real_fsync(fd))
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
            os, "fsync", lambda fd: (file_fsync(calls, fd), real_fsync(fd))
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
        assert decoded(log.tail(5)) == frames_for(8)[5:]
        assert decoded(log.tail(6)) == frames_for(8)[6:]
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
            assert decoded(log.tail(4)) == frames_for(6)[4:]

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


class TestMalformedCompactionBase:
    """A control frame whose ``base`` is not an ``int`` >= 0 refuses the
    file with a :class:`DurabilityError` naming it — never an untyped
    escape, never a torn tail that would drop the whole journal."""

    @pytest.mark.parametrize("base", MALFORMED_BASES, ids=repr)
    def test_readers_refuse_it_typed(self, tmp_path, base):
        path = journal_with_base(tmp_path / "journal.log", base)
        original = path.read_bytes()
        for reader in (load_journal, FrameLog):
            with pytest.raises(DurabilityError, match="base") as refused:
                reader(str(path))
            assert str(path) in str(refused.value)
        assert path.read_bytes() == original

    @pytest.mark.parametrize("base", MALFORMED_BASES, ids=repr)
    def test_repro_journal_exits_nonzero_without_a_traceback(
        self, tmp_path, capsys, base
    ):
        shard = tmp_path / "shard-0"
        shard.mkdir()
        path = journal_with_base(shard / JOURNAL_FILENAME, base)
        for flags in ([], ["--dump"], ["--compact"], ["--json"]):
            assert main(["journal", str(tmp_path)] + flags) != 0
            err = capsys.readouterr().err
            assert str(path) in err
            assert "Traceback" not in err

    def test_a_base_of_zero_compacts_nothing(self, tmp_path):
        # Its control frame is dropped on open, so a tail never
        # replays it as a payload frame.
        path = journal_with_base(tmp_path / "journal.log", 0)
        with FrameLog(str(path)) as log:
            assert (log.base, log.frame_count) == (0, 1)
            assert decoded(log.tail(0)) == [{"kind": "undeploy", "spec_id": "s"}]
        assert load_journal(str(path)).frames == [
            {"kind": "undeploy", "spec_id": "s"}
        ]


class TestJsonEraRefusal:
    """A journal from before the binary codec is refused, one way, by
    every reader; nothing is rewritten (DESIGN note 22)."""

    def json_era_journal(self, directory):
        path = directory / "journal.log"
        path.write_bytes(JSON_ERA_JOURNAL)
        return path

    def test_the_literal_is_what_that_era_wrote(self):
        # Three whole ``>I``-prefixed JSON frames, nothing else.
        position, kinds = 0, []
        while position < len(JSON_ERA_JOURNAL):
            size = int.from_bytes(JSON_ERA_JOURNAL[position:position + 4], "big")
            frame = json.loads(JSON_ERA_JOURNAL[position + 4:position + 4 + size])
            kinds.append(frame["kind"])
            position += 4 + size
        assert (position, kinds) == (
            len(JSON_ERA_JOURNAL),
            ["compacted", "events", "undeploy"],
        )

    def test_opening_refuses_and_leaves_the_file_alone(self, tmp_path):
        path = self.json_era_journal(tmp_path)
        for reader in (FrameLog, load_journal):
            with pytest.raises(DurabilityError) as refused:
                reader(str(path))
            assert_json_era_refusal(refused.value, path)
        assert path.read_bytes() == JSON_ERA_JOURNAL
        assert os.listdir(tmp_path) == ["journal.log"]

    def test_repro_journal_refuses_it_with_exit_one(self, tmp_path, capsys):
        shard = tmp_path / "shard-0"
        shard.mkdir()
        path = self.json_era_journal(shard)
        os.rename(path, shard / JOURNAL_FILENAME)
        path = shard / JOURNAL_FILENAME
        for flags in ([], ["--dump"], ["--compact"], ["--json"]):
            assert main(["journal", str(tmp_path)] + flags) == 1
            assert_json_era_refusal(capsys.readouterr().err, path)
        assert path.read_bytes() == JSON_ERA_JOURNAL

    def test_a_file_cut_inside_the_header_is_a_fresh_journal(self, tmp_path):
        # A writer killed while creating the file, not an older format.
        path = tmp_path / "journal.log"
        for cut in range(1, len(JOURNAL_MAGIC)):
            path.write_bytes(JOURNAL_MAGIC[:cut])
            assert load_journal(str(path)).torn
            with FrameLog(str(path)) as log:
                assert (log.base, log.frame_count) == (0, 0)
                assert log.append({"kind": "undeploy", "spec_id": "s"}) == 0
            assert load_journal(str(path)).frames == [
                {"kind": "undeploy", "spec_id": "s"}
            ]

    def test_any_other_codec_is_refused(self, tmp_path):
        with pytest.raises(DurabilityError, match="codec"):
            FrameLog(str(tmp_path / "journal.log"), codec="json")


class TestDurableRename:
    """Each atomic rewrite fsyncs the file, renames it, then fsyncs the
    directory: a rename that a machine crash can undo would let a
    compaction survive the snapshot rename it relied on."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            seen.append("fsync-dir" if is_dir else "fsync-file")
            real_fsync(fd)

        def replace(source, target):
            seen.append("replace")
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        return seen

    def test_a_snapshot_save_syncs_its_directory(self, tmp_path, calls):
        snapshot = ShardSnapshot(
            shard_id=0, frame_index=3, blueprint={}, state={"seq": 1}
        )
        snapshot.save(str(tmp_path / "snapshot.json"))
        assert calls == ["fsync-file", "replace", "fsync-dir"]

    def test_a_compaction_syncs_its_directory(self, tmp_path, calls):
        with FrameLog(str(tmp_path / "journal.log"), fsync_every=0) as log:
            for frame in frames_for(4):
                log.append(frame)
            del calls[:]
            log.compact(2)
            assert calls[-3:] == ["fsync-file", "replace", "fsync-dir"]
            assert calls.count("replace") == 1


class TestNewJournalDirectory:
    """A journal a ``FrameLog`` creates is durable once a frame is: the
    first ``sync()`` that forces a frame to disk also fsyncs the file's
    directory and every directory the log had to create, once.  Until
    then a machine crash may drop the file with its directory entry,
    acknowledged frames and all."""

    @pytest.fixture
    def synced(self, monkeypatch):
        """``(kind, inode)`` of every fsync, in order."""
        seen = []
        real_fsync = os.fsync

        def fsync(fd):
            status = os.fstat(fd)
            kind = "dir" if stat.S_ISDIR(status.st_mode) else "file"
            seen.append((kind, status.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return seen

    def test_the_first_sync_makes_the_created_path_durable(self, tmp_path, synced):
        root = tmp_path / "state"
        path = root / "shard-0" / JOURNAL_FILENAME
        with FrameLog(str(path), fsync_every=2) as log:
            assert synced == []  # opening pays nothing
            log.append(frames_for(1)[0])
            assert synced == []
            log.append(frames_for(2)[0])
            inode = lambda p: os.stat(p).st_ino  # noqa: E731
            assert synced == [
                ("file", inode(path)),
                ("dir", inode(root / "shard-0")),
                ("dir", inode(root)),
                ("dir", inode(tmp_path)),
            ]
            del synced[:]
            log.append(frames_for(1)[0])
            log.sync()
            assert synced == [("file", inode(path))]

    def test_a_journal_in_an_existing_directory_syncs_that_one(self, tmp_path, synced):
        with FrameLog(str(tmp_path / JOURNAL_FILENAME), fsync_every=0) as log:
            log.append(frames_for(1)[0])
        assert [kind for kind, __ in synced] == ["file", "dir"]
        assert synced[1][1] == os.stat(tmp_path).st_ino

    def test_a_journal_it_did_not_create_syncs_no_directory(self, tmp_path, synced):
        path = str(tmp_path / JOURNAL_FILENAME)
        with FrameLog(path) as log:
            log.append(frames_for(1)[0])
        del synced[:]
        with FrameLog(path, fsync_every=1) as log:
            del synced[:]  # the reopening rewrite syncs its own rename
            log.append(frames_for(1)[0])
        assert [kind for kind, __ in synced] == ["file"]

    def test_a_durable_shard_directory_is_made_by_its_journal(self, tmp_path):
        from repro.durability.supervisor import shard_directory

        directory = shard_directory(str(tmp_path / "state"), 3)
        assert not os.path.exists(directory)
        FrameLog(os.path.join(directory, JOURNAL_FILENAME)).close()
        assert os.path.isfile(os.path.join(directory, JOURNAL_FILENAME))
