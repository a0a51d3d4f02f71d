"""The write-ahead frame log: length-prefixed frames on disk.

One :class:`FrameLog` is one append-only file of
:mod:`repro.parallel.codec` frames behind the :data:`JOURNAL_MAGIC`
header, every one *self-contained*
(:func:`~repro.parallel.codec.encode_standalone`: its interning tables
are born empty at its first byte and die with it).  A journal is thus a
sequence of independently decodable records — any cut replays — and a
record's bytes are a valid pipe frame: the supervisor encodes a frame
once and hands the same bytes to :meth:`FrameLog.append_encoded` and to
the worker's channel, and recovery forwards :meth:`FrameLog.tail`'s
records undecoded.  That is the only format this module *writes*.

It still *reads* one older one through the same :func:`load_journal`
pass, and opening such a file as a :class:`FrameLog` rewrites it once,
atomically: binary journals an earlier build wrote *stream-interned*
(tables shared along the file; ``repro journal`` counts both kinds).
The format from before the binary codec (4-byte length prefix + UTF-8
JSON, no header) is *refused* with a :class:`DurabilityError` naming the
file and :data:`LAST_JSON_ERA_BUILD`, the last build that reads it
(DESIGN note 22): a file that does not start with :data:`JOURNAL_MAGIC`
is never read as anything else.

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
next frame starts clean (the standard WAL repair rule).  A file damaged
behind a live log is refused by :meth:`FrameLog.tail`, never read short.
"""

from __future__ import annotations

import os
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Tuple,
)

from ..errors import DurabilityError, WireError
from ..observability import STRUCTURED_LOG as _SLOG
from ..parallel.codec import BinaryDecoder, encode_standalone
from ..parallel.wire import MAX_FRAME_BYTES

#: Frame kind of the compaction control frame (never replayed).
CONTROL_COMPACTED = "compacted"

#: First bytes of a binary journal file.  The leading ``0xC3`` byte is
#: deliberate: read as a JSON-era frame's length prefix it decodes to
#: ~3.2 GB, so no reader of either era could mistake one for the other.
JOURNAL_MAGIC = b"\xc3RJ1"

#: The last commit whose build reads the JSON-era formats (journals
#: without :data:`JOURNAL_MAGIC`, version-1 JSON snapshots).  A
#: federation of that build opened on a durable directory rewrites its
#: journals in the binary format; a version-1 snapshot is replaced by
#: the next snapshot its shard takes under this build.
LAST_JSON_ERA_BUILD = "7c7dc71"


def json_era_refusal(path: str, what: str) -> DurabilityError:
    """The one-way refusal of a file written in a JSON-era format."""
    return DurabilityError(
        f"{path!r} is {what}; this build reads only the binary codec — "
        f"the last build that reads it is commit {LAST_JSON_ERA_BUILD}"
    )


class LoadedJournal(NamedTuple):
    """One decoding pass over a journal file."""

    #: Every complete frame physically present, a leading control frame
    #: included.
    frames: List[Dict[str, Any]]
    #: Bytes beyond the last complete frame exist but form no whole
    #: frame (a crash mid-append).
    torn: bool
    #: How many of ``frames`` are self-contained records; the rest were
    #: written stream-interned by an earlier build.
    self_contained: int

    def _compacted(self) -> bool:
        return bool(
            self.frames and self.frames[0].get("kind") == CONTROL_COMPACTED
        )

    @property
    def base(self) -> int:
        """The absolute index of the first payload frame in the file
        (:func:`load_journal` checked it is an ``int`` >= 0)."""
        return int(self.frames[0]["base"]) if self._compacted() else 0

    @property
    def payload(self) -> List[Dict[str, Any]]:
        """The frames without the control frame: ``payload[i]`` has
        absolute index ``base + i``."""
        return self.frames[1:] if self._compacted() else self.frames


def _split(data: bytes) -> Tuple[List[bytes], bool]:
    """A journal file's records (length prefix + payload), split on the
    prefixes alone, and whether bytes follow the last whole record."""
    records: List[bytes] = []
    position = len(JOURNAL_MAGIC)
    while position + 4 <= len(data):
        length = int.from_bytes(data[position:position + 4], "big")
        end = position + 4 + length
        if length > MAX_FRAME_BYTES or end > len(data):
            break
        records.append(data[position:end])
        position = end
    return records, position < len(data)


def load_journal(path: str) -> LoadedJournal:
    """Read a whole journal (torn tail ignored).

    Records decode in file order against one decoder (an earlier
    build's stream-interned frames share tables along the file).  A
    torn file stops being read at anything that is not a whole frame —
    a partial header, a length prefix beyond ``MAX_FRAME_BYTES``, a
    partial or undecodable payload.  A file that does not start with
    :data:`JOURNAL_MAGIC` is refused, unless it stops inside it (a
    writer killed while creating the file), and so is a compaction
    control frame whose ``base`` is not an ``int`` >= 0: reading it as
    a torn tail would drop the whole journal.
    """
    with open(path, "rb") as stream:
        data = stream.read()
    head = data[: len(JOURNAL_MAGIC)]
    if head != JOURNAL_MAGIC[: len(head)]:
        raise json_era_refusal(
            path,
            f"no binary journal (header {head!r}, expected "
            f"{JOURNAL_MAGIC!r}): a JSON-era journal is refused",
        )
    records, torn = _split(data)
    decoder = BinaryDecoder()
    frames: List[Dict[str, Any]] = []
    for record in records:
        try:
            frames.append(decoder.decode_payload(record[4:]))
        except WireError:
            torn = True
            break
    torn = torn or 0 < len(head) < len(JOURNAL_MAGIC)
    journal = LoadedJournal(frames, torn, decoder.standalone_frames)
    if journal._compacted():
        base = frames[0].get("base")
        if type(base) is not int or base < 0:
            raise DurabilityError(
                f"journal {path!r} is damaged: its compaction frame's "
                f"base is {base!r}, not a frame index"
            )
    return journal


def replace_durably(path: str, suffix: str, chunks: Iterable[bytes]) -> None:
    """Atomically and durably replace *path* with the bytes *chunks*.

    The bytes go to the sibling ``path + suffix``, are fsynced, and the
    file is renamed over *path*; then the directory is fsynced, so the
    rename itself survives a machine crash, and does so before whatever
    the caller writes next (a compaction after its snapshot).
    """
    replacement = path + suffix
    with open(replacement, "wb") as stream:
        stream.writelines(chunks)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(replacement, path)
    _sync_directory(os.path.dirname(path))


def _sync_directory(path: str) -> None:
    """fsync the directory *path* (``""`` is the current one), so the
    entries created or renamed in it survive a machine crash."""
    directory = os.open(path or ".", os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _make_parents(path: str) -> List[str]:
    """Create the missing directories above *path*; returns every
    directory whose entries that leaves unsynced: *path*'s own, and the
    parent of each directory created."""
    directory = os.path.dirname(path)
    unsynced = [directory]
    while directory and not os.path.isdir(directory):
        directory = os.path.dirname(directory)
        unsynced.append(directory)
    os.makedirs(unsynced[0] or ".", exist_ok=True)
    return unsynced


def _write_journal(path: str, records: List[bytes]) -> None:
    """Atomically replace *path* with a journal of exactly *records*."""
    replace_durably(path, ".recode", [JOURNAL_MAGIC, *records])


def _compact(
    path: str,
    base: int,
    end: int,
    keep_from: int,
    tail: Callable[[int], List[bytes]],
) -> bool:
    """The compaction rule, for a live log and an offline file alike.

    The journal at *path* holds the frames with absolute indices
    ``base .. end - 1``; drop those below *keep_from*.  ``False`` means
    nothing to drop and the file untouched, ``True`` that it was
    rewritten.  *tail* yields the encoded records from an absolute index
    on, and is only asked when something survives: at a snapshot
    boundary (``keep_from == end``) the old bytes are replaced unread.
    """
    if keep_from <= base:
        return False
    if keep_from > end:
        raise DurabilityError(
            f"cannot compact past the end of the log "
            f"({keep_from} > {end} frames)"
        )
    survivors = tail(keep_from) if keep_from < end else []
    control = encode_standalone({"kind": CONTROL_COMPACTED, "base": keep_from})
    _write_journal(path, [control] + survivors)
    return True


def compact_journal(path: str, journal: LoadedJournal, keep_from: int) -> int:
    """Offline :meth:`FrameLog.compact` of an already loaded file.

    No second read: ``repro journal --compact`` reports from, and
    compacts, one :func:`load_journal` pass (a torn tail is dropped with
    the rewrite).  Returns the surviving payload frame count.
    """
    base, payload = journal.base, journal.payload
    end = base + len(payload)

    def survivors(start: int) -> List[bytes]:
        return list(map(encode_standalone, payload[start - base:]))

    _compact(path, base, end, keep_from, survivors)
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
        #: The directories whose entries this log created — the file's
        #: and the missing directories above it — synced once, by the
        #: first :meth:`sync` that forces a frame to disk: until then a
        #: machine crash may lose the whole file with its entry.
        created = not os.path.exists(path)
        self._unsynced_directories = _make_parents(path) if created else []
        fresh = created or os.path.getsize(path) == 0
        if not fresh:
            # Whatever the previous writer left — a clean file, a torn
            # tail, stream-interned frames — is read once and written
            # back whole, every record self-contained.
            journal = load_journal(path)
            self.base = journal.base
            file_frames = len(journal.payload)
            # A control frame at base 0 compacts nothing: it is dropped,
            # so the file leads with one exactly when ``base`` is set.
            kept = journal.frames if self.base else journal.payload
            _write_journal(path, list(map(encode_standalone, kept)))
            if journal.torn:
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
            while self._unsynced_directories:
                _sync_directory(self._unsynced_directories.pop(0))

    # -- reading / maintenance --------------------------------------------

    def tail(self, start: int) -> List[bytes]:
        """Records from absolute index *start* on (buffered appends
        included), as :meth:`append_encoded` took them: opening made
        every record self-contained, so none is decoded.  A file that
        splits into fewer records than were appended is refused."""
        if start < self.base:
            raise DurabilityError(
                f"frames before index {self.base} were compacted away; "
                f"cannot read from {start}"
            )
        self._flush_buffer()
        with open(self.path, "rb") as stream:
            records, __ = _split(stream.read())
        # A compacted file leads with its control record.
        payload = records[1:] if self.base else records
        found = self.base + len(payload)
        if found < self.frame_count:
            raise DurabilityError(
                f"journal {self.path!r} is damaged: frames {found}.."
                f"{self.frame_count - 1} are missing (it splits into "
                f"{len(records)} records)"
            )
        return payload[start - self.base:]

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
