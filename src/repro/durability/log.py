"""The write-ahead frame log: length-prefixed frames on disk.

One :class:`FrameLog` is one append-only file of
:mod:`repro.parallel.codec` frames behind the :data:`JOURNAL_MAGIC`
header — byte for byte the encoding the worker pipe speaks, raw events
included.  That is the only format this module *writes*.  It still
*reads* the format journals had before the binary codec existed (the
4-byte length prefix + UTF-8 JSON framing of :mod:`repro.parallel.wire`,
no header): :func:`load_journal` tells the two apart from the first
bytes (the magic's first byte can never begin a valid JSON frame: as a
length prefix it would exceed ``MAX_FRAME_BYTES``), ``repro journal``
inspects such a file as it is, and opening it as a :class:`FrameLog`
upgrades it once, atomically, event frames converting from their wire
dicts to raw events — so old durable directories keep replaying and one
file never mixes encodings.

Binary journals are *self-contained*: the interning tables start empty
at the first frame and every define-record is inline, so a decoder
starting at byte four replays any cut.  A journal file has exactly two
writers (DESIGN note 19): *append*, and :func:`_write_journal`, which
atomically replaces the whole file under a **fresh** encoder and hands
that encoder back to keep appending with.  Compaction is such a rewrite,
and so is opening an existing file: its frames are decoded once and
written back, so the append encoder's tables are never copied from
anywhere — they are the ones that wrote the bytes on disk.

Write policy is *coalescing with fsync batching*: appends accumulate in
a buffer that is written with a **single** ``os.write`` per fsync batch
(:attr:`FrameLog.writes_total` counts the physical writes), and
``os.fsync`` runs once per ``fsync_every`` appends and on :meth:`sync`.
A machine crash — or now a facade-process crash mid-batch — can lose at
most the last ``fsync_every`` frames; with ``fsync_every=0`` every
append is written and flushed to the OS immediately (no coalescing,
never fsynced), preserving the pre-batching process-crash durability.

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
from ..parallel.codec import BinaryEncoder, BinaryFrameReader
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

    Binary frames decode in file order against one reader (the interning
    tables are stream state).  Either reader answers ``None`` at a clean
    end of file and raises :class:`WireError` at anything that is not a
    whole frame — a partial header, a length prefix beyond
    ``MAX_FRAME_BYTES``, a partial or undecodable payload — which is
    where a torn file stops being read.
    """
    codec = detect_codec(path) or "json"
    frames: List[Dict[str, Any]] = []
    torn = False
    read: Callable[[], Optional[Dict[str, Any]]]
    with open(path, "rb") as stream:
        if codec == "binary":
            stream.seek(len(JOURNAL_MAGIC))
            read = BinaryFrameReader(stream).read
        else:
            read = partial(read_frame, stream)
        while True:
            try:
                frame = read()
            except WireError:
                torn = True
                break
            if frame is None:
                break
            frames.append(frame)
    return LoadedJournal(codec, frames, torn)


def _write_journal(path: str, frames: List[Dict[str, Any]]) -> BinaryEncoder:
    """Atomically replace *path* with a journal of exactly *frames*.

    Written under a fresh encoder, which is returned: its tables match
    the new file, so it is the one to keep appending with.
    """
    replacement = f"{path}.recode"
    encoder = BinaryEncoder()
    with open(replacement, "wb") as stream:
        stream.write(JOURNAL_MAGIC)
        for frame in frames:
            stream.write(encoder.encode_frame(frame))
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(replacement, path)
    return encoder


def _compact(
    path: str,
    base: int,
    end: int,
    keep_from: int,
    tail: Callable[[int], List[Dict[str, Any]]],
) -> Optional[BinaryEncoder]:
    """The compaction rule, for a live log and an offline file alike.

    The journal at *path* holds the frames with absolute indices
    ``base .. end - 1``; drop those below *keep_from*.  ``None`` means
    nothing to drop and the file untouched; otherwise the file was
    rewritten and the returned encoder matches it.  *tail* yields the
    frames from an absolute index on, and is only asked when something
    survives: at a snapshot boundary (``keep_from == end``) the old
    bytes are replaced unread.
    """
    if keep_from <= base:
        return None
    if keep_from > end:
        raise DurabilityError(
            f"cannot compact past the end of the log "
            f"({keep_from} > {end} frames)"
        )
    survivors = tail(keep_from) if keep_from < end else []
    return _write_journal(
        path, [{"kind": CONTROL_COMPACTED, "base": keep_from}] + survivors
    )


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
        self._encoder = BinaryEncoder()
        #: Absolute index of the file's first payload frame (compaction
        #: shifts it forward; indices handed out stay stable).
        self.base = 0
        file_frames = 0
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        if not fresh:
            # Whatever the previous writer left — a clean file, a torn
            # tail, the JSON framing — is read once and written back
            # whole: the append encoder is the one that wrote the bytes
            # on disk, never a copy of some decoder's tables.
            journal = load_journal(path)
            self.base = journal.base
            file_frames = len(journal.payload)
            self._encoder = _write_journal(
                path, journal.as_binary(journal.frames)
            )
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
        """Append one frame; returns its absolute index.

        The encoded frame lands in the coalescing buffer; it reaches
        the OS with the batch's single write (at the fsync point, or —
        with ``fsync_every=0`` — immediately).
        """
        data = self._encoder.encode_frame(frame)
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
        dead weight for recovery.  The journal is rewritten under a
        **fresh** encoder — the interning tables are born empty at the
        compaction boundary, so the surviving cut is self-contained —
        and that encoder takes over for subsequent appends.  Returns the
        surviving payload frame count.
        """
        # Nothing buffered may outlive the encoder that encoded it.
        self.sync()
        encoder = _compact(
            self.path, self.base, self.frame_count, keep_from, self.tail
        )
        if encoder is not None:
            self._stream.close()
            self._encoder = encoder
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
