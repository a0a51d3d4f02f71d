"""Kill the writer anywhere: a journal file always reopens (DESIGN note 19).

A Hypothesis property over :class:`FrameLog` alone.  Random frames and a
random sequence of append / ``sync`` / ``compact(frame_count)`` / partial
``compact(k)`` / close-and-reopen run against a list model; after every
step the file is copied, the copy is cut at a drawn byte offset at or
past the last synced length (what a machine crash may leave), a partial
``*.recode`` sibling is optionally dropped beside it (a crash inside the
rewrite), and the copy is reopened: never an exception, absolute indices
preserved, every frame up to the last ``sync()`` present, and frames
appended after the reopen decode from byte four with a fresh reader.

The hand-written cases below it kill the rewrite itself at each of its
three crash points.
"""

import os
import tempfile

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import log as log_module
from repro.durability.log import CONTROL_COMPACTED, FrameLog

from tests.durability.test_frame_log import frames_for
from tests.durability.test_journal_writers import decode_from_byte_four
from tests.exact import as_decoded, decoded, exactly
from tests.parallel.test_codec_property import frames, protocol_frames

#: 30 examples keep tier-1 inside its 3 s budget; a loaded profile that
#: asks for more than Hypothesis' own default (``soak``, registered in
#: tests/conftest.py) wins.
PROFILE_EXAMPLES = settings.default.max_examples
EXAMPLES = PROFILE_EXAMPLES if PROFILE_EXAMPLES > 100 else 30

MARKER = {"kind": "undeploy", "spec_id": "appended-after-the-reopen"}

# A payload frame that looks like the control frame is indistinguishable
# from it at the head of a file — a property of the format, not of the
# writers under test.
journal_frames = st.one_of(frames, protocol_frames).filter(
    lambda frame: frame.get("kind") != CONTROL_COMPACTED
)

steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), journal_frames),
        st.tuples(st.just("append"), journal_frames),
        st.tuples(st.just("sync")),
        st.tuples(st.just("compact_all")),
        st.tuples(st.just("compact"), st.floats(min_value=0, max_value=1)),
        st.tuples(st.just("reopen")),
    ),
    min_size=1,
    max_size=10,
)


def control(base):
    return [{"kind": CONTROL_COMPACTED, "base": base}] if base else []


class Model:
    """What the journal must hold, and how much of it is durable."""

    def __init__(self, path, fsync_every):
        self.path = path
        self.fsync_every = fsync_every
        self.base = 0
        self.frames = []  # payload: frames[i] has index base + i
        self.unsynced = 0
        self.durable = 0  # leading frames of ``frames`` known fsynced
        self.synced_len = 0  # file length at the last fsync

    def synced(self):
        self.unsynced = 0
        self.durable = len(self.frames)
        self.synced_len = os.path.getsize(self.path)

    def apply(self, log, step):
        """Run *step* on *log* and on the model; returns the live log."""
        if step[0] == "append":
            assert log.append(step[1]) == self.base + len(self.frames)
            self.frames.append(step[1])
            self.unsynced += 1
            if self.fsync_every and self.unsynced >= self.fsync_every:
                self.synced()
        elif step[0] == "sync":
            log.sync()
            self.synced()
        elif step[0] == "reopen":
            log.close()
            log = FrameLog(self.path, fsync_every=self.fsync_every)
            self.synced()
        else:
            end = self.base + len(self.frames)
            keep_from = (
                end
                if step[0] == "compact_all"
                else self.base + int(step[1] * len(self.frames))
            )
            survivors = log.compact(keep_from)
            del self.frames[: keep_from - self.base]
            self.base = keep_from
            assert survivors == len(self.frames)
            self.synced()
        assert (log.base, log.frame_count) == (
            self.base,
            self.base + len(self.frames),
        )
        assert exactly(decoded(log.tail(self.base)), as_decoded(self.frames))
        return log


def reopen_after_crash(model, directory, cut, sibling):
    """Copy the journal cut at *cut* bytes (plus an optional partial
    ``.recode`` of *sibling* bytes) into *directory* and reopen it."""
    copy = os.path.join(directory, "crashed.log")
    with open(model.path, "rb") as source:
        data = source.read()
    with open(copy, "wb") as target:
        target.write(data[:cut])
    # The sibling is never read, whatever it holds; the next rewrite
    # overwrites it (opening a *fresh* copy, cut at 0, leaves it be).
    if os.path.exists(copy + ".recode"):
        os.remove(copy + ".recode")
    if sibling is not None:
        with open(copy + ".recode", "wb") as target:
            target.write(data[:sibling])
    with FrameLog(copy) as reopened:
        assert reopened.base == model.base
        survived = reopened.frame_count - model.base
        assert model.durable <= survived <= len(model.frames)
        kept = model.frames[:survived]
        assert exactly(decoded(reopened.tail(model.base)), as_decoded(kept))
        assert reopened.append(MARKER) == model.base + survived
    assert exactly(
        decode_from_byte_four(copy), as_decoded(control(model.base) + kept + [MARKER])
    )


@settings(max_examples=EXAMPLES, deadline=None)
@given(steps, st.sampled_from([0, 1, 3]), st.data())
def test_a_killed_writer_never_costs_a_synced_frame(plan, fsync_every, data):
    with tempfile.TemporaryDirectory() as directory:
        model = Model(os.path.join(directory, "journal.log"), fsync_every)
        log = FrameLog(model.path, fsync_every=fsync_every)
        try:
            for step in plan:
                log = model.apply(log, step)
                size = os.path.getsize(model.path)
                cut = data.draw(st.integers(model.synced_len, size), "cut")
                sibling = data.draw(
                    st.none() | st.integers(0, size), "partial .recode"
                )
                reopen_after_crash(model, directory, cut, sibling)
        finally:
            log.close()


class Killed(Exception):
    """Stands in for SIGKILL at a chosen point of ``_write_journal``."""


def kill_before_temp_write(monkeypatch):
    def killed(path, frame_list):
        raise Killed

    monkeypatch.setattr(log_module, "_write_journal", killed)


def kill_before_rename(monkeypatch):
    def killed(source, target):
        raise Killed

    monkeypatch.setattr(os, "replace", killed)


def kill_after_rename(monkeypatch):
    real = log_module._write_journal

    def killed(path, frame_list):
        real(path, frame_list)
        raise Killed

    monkeypatch.setattr(log_module, "_write_journal", killed)


CRASH_POINTS = [kill_before_temp_write, kill_before_rename, kill_after_rename]


@pytest.mark.parametrize("kill", CRASH_POINTS)
class TestRewriteCrashPoints:
    """One case per crash point of the rewrite: before the temp file is
    written, temp written but not renamed, renamed."""

    def test_killed_while_opening_a_torn_journal(self, tmp_path, monkeypatch, kill):
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            for frame in frames_for(5):
                log.append(frame)
        with open(path, "ab") as handle:
            handle.write((1 << 16).to_bytes(4, "big") + b"\x0b\x02")
        with monkeypatch.context() as patch:
            kill(patch)
            with pytest.raises(Killed):
                FrameLog(path)
        with FrameLog(path) as log:
            assert (log.base, log.frame_count) == (0, 5)
            assert decoded(log.tail(0)) == frames_for(5)
            assert log.append(MARKER) == 5
        assert decode_from_byte_four(path) == frames_for(5) + [MARKER]
        assert not os.path.exists(path + ".recode")

    @pytest.mark.parametrize("keep_from", [4, 7])
    def test_killed_while_compacting(self, tmp_path, monkeypatch, kill, keep_from):
        path = str(tmp_path / "journal.log")
        log = FrameLog(path, fsync_every=3)
        for frame in frames_for(7):
            log.append(frame)
        with monkeypatch.context() as patch:
            kill(patch)
            with pytest.raises(Killed):
                log.compact(keep_from)
        log.close()  # nothing buffered: compact synced before it died
        renamed = kill is kill_after_rename
        with FrameLog(path) as log:
            # Either the old file or the new one, never a mix; the
            # numbering is the same through both.
            assert log.base == (keep_from if renamed else 0)
            assert log.frame_count == 7
            assert decoded(log.tail(keep_from)) == frames_for(7)[keep_from:]
            assert log.append(MARKER) == 7
        assert decode_from_byte_four(path) == (
            control(log.base) + frames_for(7)[log.base:] + [MARKER]
        )
        assert not os.path.exists(path + ".recode")
