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
at the first frame, every define-record is inline, and compaction
rewrites the file under a fresh encoder — a decoder starting at byte
four replays any cut.  Reopening a binary journal for append decodes
the existing frames once and seeds the append encoder with the decoder's
tables, so new frames keep referencing the established ids.

Write policy is *coalescing with fsync batching*: appends accumulate in
a buffer that is written with a **single** ``os.write`` per fsync batch
(``journal_writes_total`` counts the physical writes), and ``os.fsync``
runs once per ``fsync_every`` appends and on :meth:`sync`.  A machine
crash — or now a facade-process crash mid-batch — can lose at most the
last ``fsync_every`` frames; with ``fsync_every=0`` every append is
written and flushed to the OS immediately (no coalescing, never
fsynced), preserving the pre-batching process-crash durability.

Frame *indices are absolute* (counted from the journal's creation):
snapshots record the absolute index they cover, and compaction — which
drops covered frames — preserves the numbering by writing a control
frame ``{"kind": "compacted", "base": N}`` as the new first frame, so a
compacted log is self-describing and offline tools need no sidecar.

A killed writer can leave a *torn* final frame (partial header or
payload).  :func:`load_journal` tolerates it: the log is valid up to the
last complete frame, and opening a log for append truncates the torn
tail so the next frame starts clean — the standard WAL repair rule.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Mapping, NamedTuple, Optional

from ..errors import DurabilityError, WireError
from ..observability import STRUCTURED_LOG as _SLOG
from ..observability import Counter, default_registry
from ..parallel.codec import BinaryDecoder, BinaryEncoder
from ..parallel.wire import MAX_FRAME_BYTES, event_from_wire, read_frame

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
    #: Offset just past the last complete frame (the magic included).
    valid_bytes: int
    #: Bytes beyond ``valid_bytes`` exist but form no whole frame (a
    #: crash mid-append).
    torn: bool
    #: The binary decoder that read the file: its tables seed an
    #: append-side encoder (``None`` for a JSON file).
    decoder: Optional[BinaryDecoder]

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


def load_journal(path: str) -> LoadedJournal:
    """Read a whole journal, whichever era wrote it (torn tail ignored).

    Binary frames must decode in file order against one decoder (the
    interning tables are stream state).
    """
    codec = detect_codec(path) or "json"
    frames: List[Dict[str, Any]] = []
    torn = False
    decoder: Optional[BinaryDecoder] = None
    with open(path, "rb") as stream:
        if codec == "binary":
            decoder = BinaryDecoder()
            valid = len(stream.read(len(JOURNAL_MAGIC)))
            while True:
                header = stream.read(4)
                if not header:
                    break
                if len(header) < 4:
                    torn = True
                    break
                length = int.from_bytes(header, "big")
                if length > MAX_FRAME_BYTES:
                    torn = True
                    break
                payload = stream.read(length)
                if len(payload) < length:
                    torn = True
                    break
                try:
                    frames.append(decoder.decode_payload(payload))
                except WireError:
                    torn = True
                    break
                valid = stream.tell()
        else:
            valid = 0
            while True:
                try:
                    frame = read_frame(stream)
                except WireError:
                    torn = True
                    break
                if frame is None:
                    break
                frames.append(frame)
                valid = stream.tell()
    if not torn:
        # A clean EOF and a lone partial header both end the loop;
        # compare against the file size to tell them apart.
        torn = os.path.getsize(path) > valid
    return LoadedJournal(codec, frames, valid, torn, decoder)


def _upgraded(frame: Dict[str, Any]) -> Dict[str, Any]:
    """A JSON-era *frame* as the binary journal holds it.

    Only ``events`` frames differ: the JSON framing carried
    ``event_to_wire`` dicts where the codec carries the events
    themselves.  Every other frame kind passes through.
    """
    if frame.get("kind") != "events":
        return frame
    upgraded = dict(frame)
    upgraded["events"] = [
        event_from_wire(data) for data in frame.get("events") or []
    ]
    return upgraded


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


def compact_journal(path: str, journal: LoadedJournal, keep_from: int) -> int:
    """Offline :meth:`FrameLog.compact` of an already loaded file.

    No second read: ``repro journal --compact`` reports from, and
    compacts, one :func:`load_journal` pass.  The rewrite is binary, so a
    JSON-era journal comes out upgraded (and a torn tail dropped).
    Returns the surviving payload frame count.
    """
    payload = journal.payload
    if keep_from <= journal.base:
        return len(payload)
    if keep_from > journal.base + len(payload):
        raise DurabilityError(
            f"cannot compact past the end of the log "
            f"({keep_from} > {journal.base + len(payload)} frames)"
        )
    survivors = payload[keep_from - journal.base:]
    if journal.codec == "json":
        survivors = [_upgraded(frame) for frame in survivors]
    _write_journal(
        path, [{"kind": CONTROL_COMPACTED, "base": keep_from}] + survivors
    )
    return len(survivors)


def _journal_counters() -> Dict[str, Counter]:
    registry = default_registry()
    return {
        "writes": registry.counter(
            "journal_writes_total",
            "Physical journal writes (one per coalesced frame batch)",
        ),
    }


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
        self.appended = 0
        self.bytes_written = 0
        #: Physical write calls issued (appends - writes = syscalls the
        #: coalescing saved); also exported as ``journal_writes_total``.
        self.writes_total = 0
        self._metrics = _journal_counters()
        #: Pending encoded frames awaiting one coalesced write.
        self._buffer = bytearray()
        self._encoder = BinaryEncoder()
        #: Absolute index of the file's first payload frame (compaction
        #: shifts it forward; indices handed out stay stable).
        self.base = 0
        file_frames = 0
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        if not fresh:
            journal = load_journal(path)
            self.base = journal.base
            file_frames = len(journal.payload)
            if journal.codec == "json":
                # A journal from before the binary codec: rewrite it
                # once, so the file never mixes framings; the torn tail
                # (if any) dies with the rewrite.  The fresh encoder
                # used for the rewrite becomes the append encoder (its
                # tables match the file exactly).
                self._encoder = _write_journal(
                    path, [_upgraded(frame) for frame in journal.frames]
                )
                _SLOG.emit(
                    "durability",
                    "journal_recoded",
                    level="warning",
                    path=path,
                    frames=file_frames,
                    from_codec="json",
                    to_codec="binary",
                )
            else:
                decoder = journal.decoder
                if journal.torn:
                    # Torn tail from a previous crashed writer: truncate
                    # to the last complete frame so appends start clean.
                    with open(path, "r+b") as repair:
                        repair.truncate(journal.valid_bytes)
                    _SLOG.emit(
                        "durability",
                        "journal_tail_truncated",
                        level="warning",
                        path=path,
                        frames=file_frames,
                        valid_bytes=journal.valid_bytes,
                    )
                    # A tail torn mid-decode may have polluted the
                    # decoder's intern tables with defines that just
                    # got truncated away; re-read the repaired file
                    # so the seed matches the surviving bytes.
                    decoder = load_journal(path).decoder
                assert decoder is not None
                # Seed the append encoder with the tables the file's
                # frames established, so new refs stay consistent.
                self._encoder.seed(
                    decoder.interned_strings, decoder.interned_compounds
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
        self.appended += 1
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
            self._metrics["writes"].inc()
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
        **fresh** encoder — the interning tables reset at the compaction
        boundary, so the surviving cut is self-contained — and the fresh
        encoder takes over for subsequent appends.  Returns the
        surviving payload frame count.
        """
        if keep_from <= self.base:
            return self.frame_count - self.base
        if keep_from > self.frame_count:
            raise DurabilityError(
                f"cannot compact past the end of the log "
                f"({keep_from} > {self.frame_count} frames)"
            )
        self.sync()
        survivors = self.tail(keep_from)
        self._stream.close()
        self._encoder = _write_journal(
            self.path,
            [{"kind": CONTROL_COMPACTED, "base": keep_from}] + survivors,
        )
        self._stream = open(self.path, "ab")
        self.base = keep_from
        return len(survivors)

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
