"""The write-ahead frame log: length-prefixed frames on disk.

One :class:`FrameLog` is one append-only file of
:mod:`repro.parallel.codec` frames behind the :data:`JOURNAL_MAGIC`
header, every one *self-contained*
(:func:`~repro.parallel.codec.encode_standalone`: its interning tables
are born empty at its first byte and die with it).  A journal is thus a
sequence of independently decodable records — any cut replays — and a
record's bytes are a valid pipe frame: the supervisor encodes a frame
once and hands the same bytes to :meth:`FrameLog.append_encoded` and to
the worker's channel.  That is the only format this module *writes*.

It still *reads* two older ones through the same :func:`load_journal`
pass, and opening such a file as a :class:`FrameLog` upgrades it once,
atomically: binary journals an earlier build wrote *stream-interned*
(tables shared along the file; ``repro journal`` counts both kinds), and
the format from before the binary codec (4-byte length prefix + UTF-8
JSON of :mod:`repro.parallel.wire`, no header, event frames holding wire
dicts; told apart by the first bytes, see :data:`JOURNAL_MAGIC`).

A journal file has exactly two writers (DESIGN notes 19, 20) and neither
owns tables: *append*, and :func:`_write_journal`, which atomically
replaces the whole file.  Compaction is such a rewrite, and so is
opening an existing file: its frames are decoded once and written back.

Write policy is *coalescing with fsync batching*: appends accumulate in
a buffer written with a **single** ``os.write`` per fsync batch
(:attr:`FrameLog.writes_total` counts them), and ``os.fsync`` runs once
per ``fsync_every`` appends and on :meth:`sync`.  A machine or facade
crash mid-batch can lose at most the last ``fsync_every`` frames; with
``fsync_every=0`` every append is written and flushed to the OS at once
(no coalescing, never fsynced): only a machine crash can lose frames.

Frame *indices are absolute* (counted from the journal's creation):
snapshots record the absolute index they cover, and compaction — which
drops covered frames — preserves the numbering by writing a control
frame ``{"kind": "compacted", "base": N}`` as the new first frame, so a
compacted log is self-describing and offline tools need no sidecar.

A killed writer can leave a *torn* final frame (partial header or
payload).  :func:`load_journal` tolerates it: the log is valid up to the
last complete frame, and the rewrite that opening a log for append
performs drops the torn tail with it — atomically and fsynced, so the
next frame starts clean (the standard WAL repair rule).
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional

from ..errors import DurabilityError, WireError
from ..observability import STRUCTURED_LOG as _SLOG
from ..parallel.codec import BinaryFrameReader, encode_standalone
from ..parallel.wire import event_from_wire, read_frame

#: Frame kind of the compaction control frame (never replayed).
CONTROL_COMPACTED = "compacted"

#: First bytes of a binary journal file.  The leading ``0xC3`` byte is
#: deliberate: read as a JSON frame's length prefix it decodes to ~3.2
#: GB — far beyond ``MAX_FRAME_BYTES`` — so a JSON reader fails fast
#: instead of misparsing, and auto-detection is unambiguous.
JOURNAL_MAGIC = b"\xc3RJ1"


def detect_codec(path: str) -> Optional[str]:
    """The codec of the journal at *path*; ``None`` if missing/empty."""
    try:
        with open(path, "rb") as stream:
            head = stream.read(len(JOURNAL_MAGIC))
    except FileNotFoundError:
        return None
    if not head:
        return None
    return "binary" if head == JOURNAL_MAGIC else "json"


class LoadedJournal(NamedTuple):
    """One decoding pass over a journal file."""

    #: ``"binary"``, or ``"json"`` for a file no :class:`FrameLog` has
    #: opened since the binary codec exists.
    codec: str
    #: Every complete frame physically present, a leading control frame
    #: included; JSON-era event frames still hold their wire dicts.
    frames: List[Dict[str, Any]]
    #: Bytes beyond the last complete frame exist but form no whole
    #: frame (a crash mid-append).
    torn: bool
    #: How many of ``frames`` are self-contained records; the rest of a
    #: binary file is stream-interned, written by an earlier build.
    self_contained: int

    def _compacted(self) -> bool:
        return bool(
            self.frames and self.frames[0].get("kind") == CONTROL_COMPACTED
        )

    @property
    def base(self) -> int:
        """The absolute index of the first payload frame in the file."""
        return int(self.frames[0]["base"]) if self._compacted() else 0

    @property
    def payload(self) -> List[Dict[str, Any]]:
        """The frames without the control frame: ``payload[i]`` has
        absolute index ``base + i``."""
        return self.frames[1:] if self._compacted() else self.frames

    def as_binary(self, frames: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Some of this journal's *frames* as a binary journal holds them.

        Only the ``events`` frames of a JSON-era file differ: that
        framing carried ``event_to_wire`` dicts where the codec carries
        the events themselves.  Every other frame passes through.
        """
        if self.codec != "json":
            return frames
        upgraded = []
        for frame in frames:
            if frame.get("kind") == "events":
                wire_events = frame.get("events") or []
                events = [event_from_wire(data) for data in wire_events]
                frame = dict(frame, events=events)
            upgraded.append(frame)
        return upgraded


def load_journal(path: str) -> LoadedJournal:
    """Read a whole journal, whichever era wrote it (torn tail ignored).

    Binary frames decode in file order against one reader (an earlier
    build's stream-interned frames share tables along the file).  Either
    reader answers ``None`` at a clean end of file and raises
    :class:`WireError` at anything that is not a whole frame — a partial
    header, a length prefix beyond ``MAX_FRAME_BYTES``, a partial or
    undecodable payload — which is where a torn file stops being read.
    """
    frames: List[Dict[str, Any]] = []
    torn = False
    read: Callable[[], Optional[Dict[str, Any]]]
    with open(path, "rb") as stream:
        binary = stream.read(len(JOURNAL_MAGIC)) == JOURNAL_MAGIC
        reader = BinaryFrameReader(stream)
        read = reader.read if binary else partial(read_frame, stream)
        if not binary:
            stream.seek(0)
        while True:
            try:
                frame = read()
            except WireError:
                torn = True
                break
            if frame is None:
                break
            frames.append(frame)
    codec = "binary" if binary else "json"
    return LoadedJournal(codec, frames, torn, reader.decoder.standalone_frames)


def _write_journal(path: str, frames: List[Dict[str, Any]]) -> None:
    """Atomically replace *path* with a journal of exactly *frames*."""
    replacement = f"{path}.recode"
    with open(replacement, "wb") as stream:
        stream.write(JOURNAL_MAGIC)
        for frame in frames:
            stream.write(encode_standalone(frame))
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(replacement, path)


def _compact(
    path: str,
    base: int,
    end: int,
    keep_from: int,
    tail: Callable[[int], List[Dict[str, Any]]],
) -> bool:
    """The compaction rule, for a live log and an offline file alike.

    The journal at *path* holds the frames with absolute indices
    ``base .. end - 1``; drop those below *keep_from*.  ``False`` means
    nothing to drop and the file untouched, ``True`` that it was
    rewritten.  *tail* yields the frames from an absolute index on, and
    is only asked when something survives: at a snapshot boundary
    (``keep_from == end``) the old bytes are replaced unread.
    """
    if keep_from <= base:
        return False
    if keep_from > end:
        raise DurabilityError(
            f"cannot compact past the end of the log "
            f"({keep_from} > {end} frames)"
        )
    survivors = tail(keep_from) if keep_from < end else []
    _write_journal(
        path, [{"kind": CONTROL_COMPACTED, "base": keep_from}] + survivors
    )
    return True


def compact_journal(path: str, journal: LoadedJournal, keep_from: int) -> int:
    """Offline :meth:`FrameLog.compact` of an already loaded file.

    No second read: ``repro journal --compact`` reports from, and
    compacts, one :func:`load_journal` pass.  The rewrite is binary, so a
    JSON-era journal comes out upgraded (and a torn tail dropped).
    Returns the surviving payload frame count.
    """
    base, payload = journal.base, journal.payload
    end = base + len(payload)
    _compact(
        path,
        base,
        end,
        keep_from,
        lambda start: journal.as_binary(payload[start - base:]),
    )
    return end - max(base, keep_from)


class FrameLog:
    """An append-only, write-coalescing, fsync-batched log of frames."""

    def __init__(
        self, path: str, fsync_every: int = 16, codec: str = "binary"
    ) -> None:
        if fsync_every < 0:
            raise DurabilityError("fsync_every must be >= 0 (0 = never)")
        # Vestigial: ``perf/`` still spells ``codec="binary"``.
        if codec != "binary":
            raise DurabilityError(
                f"unknown journal codec {codec!r}; expected 'binary'"
            )
        self.path = path
        self.fsync_every = fsync_every
        self._unsynced = 0
        self.bytes_written = 0
        #: Physical write calls issued (appends - writes = syscalls the
        #: coalescing saved).
        self.writes_total = 0
        #: Pending encoded frames awaiting one coalesced write.
        self._buffer = bytearray()
        #: Absolute index of the file's first payload frame (compaction
        #: shifts it forward; indices handed out stay stable).
        self.base = 0
        file_frames = 0
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        if not fresh:
            # Whatever the previous writer left — a clean file, a torn
            # tail, stream-interned frames, the JSON framing — is read
            # once and written back whole, every record self-contained.
            journal = load_journal(path)
            self.base = journal.base
            file_frames = len(journal.payload)
            _write_journal(path, journal.as_binary(journal.frames))
            if journal.codec == "json":
                _SLOG.emit(
                    "durability",
                    "journal_recoded",
                    level="warning",
                    path=path,
                    frames=file_frames,
                    from_codec="json",
                    to_codec="binary",
                )
            elif journal.torn:
                _SLOG.emit(
                    "durability",
                    "journal_tail_truncated",
                    level="warning",
                    path=path,
                    frames=file_frames,
                )
        #: Absolute count of payload frames ever appended (next index).
        self.frame_count = self.base + file_frames
        self._stream = open(path, "ab")
        if fresh:
            self._stream.write(JOURNAL_MAGIC)
            self._stream.flush()

    # -- writing -----------------------------------------------------------

    def append(self, frame: Mapping[str, Any]) -> int:
        """Append one frame, encoded here; returns its absolute index."""
        return self.append_encoded(encode_standalone(frame))

    def append_encoded(self, data: bytes) -> int:
        """Append one self-contained encoded frame; returns its index.

        The bytes land in the coalescing buffer; they reach the OS with
        the batch's single write (at the fsync point, or — with
        ``fsync_every=0`` — immediately).
        """
        self._buffer += data
        self.bytes_written += len(data)
        index = self.frame_count
        self.frame_count += 1
        self._unsynced += 1
        if self.fsync_every:
            if self._unsynced >= self.fsync_every:
                self.sync()
        else:
            # fsync_every=0 keeps the historical per-append OS write:
            # a facade crash then still loses nothing (only a machine
            # crash can).
            self._flush_buffer()
        return index

    def _flush_buffer(self) -> None:
        """One ``os.write`` for every frame buffered since the last."""
        if self._buffer:
            self._stream.write(self._buffer)
            self._stream.flush()
            self.writes_total += 1
            del self._buffer[:]

    def sync(self) -> None:
        """Write the coalesced batch and force the batched fsync now."""
        self._flush_buffer()
        if self._unsynced:
            os.fsync(self._stream.fileno())
            self._unsynced = 0

    # -- reading / maintenance --------------------------------------------

    def tail(self, start: int) -> List[Dict[str, Any]]:
        """Frames from absolute index *start* on (buffered appends included)."""
        if start < self.base:
            raise DurabilityError(
                f"frames before index {self.base} were compacted away; "
                f"cannot read from {start}"
            )
        self._flush_buffer()
        return load_journal(self.path).payload[start - self.base:]

    def compact(self, keep_from: int) -> int:
        """Drop frames below absolute index *keep_from* (atomic rewrite).

        Called after a snapshot: frames the snapshot already covers are
        dead weight for recovery.  Returns the surviving payload frame
        count.
        """
        # The buffered frames belong to the file being replaced.
        self.sync()
        if _compact(
            self.path, self.base, self.frame_count, keep_from, self.tail
        ):
            self._stream.close()
            self._stream = open(self.path, "ab")
            self.base = keep_from
        return self.frame_count - self.base

    def fileno(self) -> int:
        return self._stream.fileno()

    def close(self) -> None:
        if not self._stream.closed:
            self.sync()
            self._stream.close()

    def __enter__(self) -> "FrameLog":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
