"""The two writers of a journal file: append and rewrite (DESIGN note 19).

Count pins — a snapshot-boundary compaction reads nothing back, and
opening an existing journal decodes each frame exactly once whatever
state the previous writer left it in.  The crash-point property over
the same surface lives in ``test_journal_crash_property.py``.
"""

import builtins
import io

import pytest

from repro.durability.log import CONTROL_COMPACTED, JOURNAL_MAGIC, FrameLog
from repro.errors import DurabilityError
from repro.parallel.codec import BinaryDecoder, BinaryFrameReader, events_frame
from repro.parallel.wire import MAX_FRAME_BYTES
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

from tests.durability.test_frame_log import JSON_ERA_JOURNAL
from tests.exact import as_decoded, decoded, exactly


def event_batch(size):
    events = ShardStreamWorkload(
        ShardStreamConfig(forces=2, events_per_force=size)
    ).events()
    assert len(events) >= size
    return events[:size]


def decode_from_byte_four(path):
    """Every frame of the file, through a reader with empty tables."""
    with open(path, "rb") as stream:
        assert stream.read(len(JOURNAL_MAGIC)) == JOURNAL_MAGIC
        reader = BinaryFrameReader(io.BytesIO(stream.read()))
    frames = []
    while True:
        frame = reader.read()
        if frame is None:
            return frames
        frames.append(frame)


def journal_records(path):
    """The file's records (length prefix + payload), split by hand."""
    with open(path, "rb") as stream:
        data = stream.read()
    assert data[: len(JOURNAL_MAGIC)] == JOURNAL_MAGIC
    records, position = [], len(JOURNAL_MAGIC)
    while position < len(data):
        end = position + 4 + int.from_bytes(data[position:position + 4], "big")
        records.append(data[position:end])
        position = end
    return records


def decode_each_record_alone(path):
    """Every frame of the file, each through a decoder of its own: a
    self-contained record needs nothing that came before it."""
    return [
        BinaryDecoder().decode_payload(record[4:])
        for record in journal_records(path)
    ]


@pytest.fixture
def decode_calls(monkeypatch):
    """Counts ``BinaryDecoder.decode_payload`` calls."""
    calls = []
    real = BinaryDecoder.decode_payload

    def counted(self, data):
        calls.append(len(data))
        return real(self, data)

    monkeypatch.setattr(BinaryDecoder, "decode_payload", counted)
    return calls


class TestSnapshotBoundaryCompaction:
    def test_nothing_is_read_back_when_nothing_is_kept(
        self, tmp_path, monkeypatch, decode_calls
    ):
        path = str(tmp_path / "journal.log")
        batch = event_batch(128)
        log = FrameLog(path, fsync_every=16)
        for seq in range(256):
            log.append(dict(events_frame(batch), seq=seq))
        assert log.frame_count == 256

        reads = []
        real_open = builtins.open

        def counted_open(file, mode="r", *args, **kwargs):
            if file == path and "r" in mode and "+" not in mode:
                reads.append(mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counted_open)
        assert log.compact(log.frame_count) == 0
        monkeypatch.setattr(builtins, "open", real_open)
        assert (decode_calls, reads) == ([], [])

        assert (log.base, log.frame_count) == (256, 256)
        assert decoded(log.tail(256)) == []
        control = {"kind": CONTROL_COMPACTED, "base": 256}
        assert decode_from_byte_four(path) == [control]
        appended = dict(events_frame(batch[:3]), seq=256)
        assert log.append(appended) == 256
        log.close()
        assert exactly(decode_from_byte_four(path), as_decoded([control, appended]))


    @pytest.mark.parametrize("keep_from", [2, 3])
    def test_buffered_frames_do_not_outlive_their_file(self, tmp_path, keep_from):
        # Frames still in the coalescing buffer belong to the file the
        # compaction replaces: covered ones must not be written after
        # the control frame, survivors exactly once — and what follows
        # needs nothing from before the boundary.
        path = str(tmp_path / "journal.log")
        batch = event_batch(8)
        log = FrameLog(path, fsync_every=16)
        written = [dict(events_frame(batch), seq=seq) for seq in range(4)]
        for frame in written[:3]:  # all three still in the buffer
            log.append(frame)
        assert log.compact(keep_from) == 3 - keep_from
        assert log.append(written[3]) == 3
        log.close()
        expected = as_decoded(
            [{"kind": CONTROL_COMPACTED, "base": keep_from}] + written[keep_from:]
        )
        assert exactly(decode_from_byte_four(path), expected)
        assert exactly(decode_each_record_alone(path), expected)


class TestOpenDecodesOnce:
    """Whatever the previous writer left: one decoding pass, one rewrite."""

    FRAMES = 6

    def journal(self, tmp_path):
        path = str(tmp_path / "journal.log")
        batch = event_batch(8)
        with FrameLog(path) as log:
            for seq in range(self.FRAMES):
                log.append(dict(events_frame(batch), seq=seq))
        return path

    def reopen(self, path, decode_calls, binary_decodes=FRAMES):
        del decode_calls[:]
        with FrameLog(path) as log:
            # The pin: opening decoded each complete frame exactly once.
            assert len(decode_calls) == binary_decodes
            assert (log.base, log.frame_count) == (0, self.FRAMES)
            assert log.append({"kind": "undeploy", "spec_id": "s"}) == self.FRAMES
        frames = decode_from_byte_four(path)
        assert [frame.get("seq") for frame in frames[:-1]] == list(
            range(self.FRAMES)
        )
        assert frames[-1] == {"kind": "undeploy", "spec_id": "s"}

    def test_clean_file(self, tmp_path, decode_calls):
        self.reopen(self.journal(tmp_path), decode_calls)

    def test_torn_payload(self, tmp_path, decode_calls):
        path = self.journal(tmp_path)
        with open(path, "ab") as handle:
            handle.write((1 << 16).to_bytes(4, "big"))
            handle.write(b"\x0b\x02\x06")
        self.reopen(path, decode_calls)

    def test_torn_header(self, tmp_path, decode_calls):
        path = self.journal(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00")
        self.reopen(path, decode_calls)

    def test_oversize_length_prefix(self, tmp_path, decode_calls):
        path = self.journal(tmp_path)
        with open(path, "ab") as handle:
            handle.write((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"\x0b" * 64)
        self.reopen(path, decode_calls)

    def test_undecodable_payload(self, tmp_path, decode_calls):
        path = self.journal(tmp_path)
        with open(path, "ab") as handle:
            handle.write((3).to_bytes(4, "big") + b"\xff\xff\xff")
        # The garbage is a whole frame by length: one failed attempt.
        self.reopen(path, decode_calls, binary_decodes=self.FRAMES + 1)

    def test_json_era_file(self, tmp_path, decode_calls):
        # Refused at the first four bytes: nothing decoded, nothing
        # rewritten.
        path = tmp_path / "journal.log"
        path.write_bytes(JSON_ERA_JOURNAL)
        with pytest.raises(DurabilityError, match="JSON-era journal"):
            FrameLog(str(path))
        assert decode_calls == []
        assert path.read_bytes() == JSON_ERA_JOURNAL
