"""The binary wire codec: the one value serialization of shard pipes,
journals and snapshots.

A frame is a 4-byte big-endian length prefix and a compact type-tagged
binary payload, and the values inside are the *native* objects the
pipeline speaks: ``Event`` instances, nested tuples, frozensets,
mappings with keys of any type, and provenance node trees cross the
channel as they are, and come back type for type.

**Value encoding.**  Every value is one tag byte followed by its body:

========  =====================================================
tag       body
========  =====================================================
``NONE``  —
``TRUE``  —
``FALSE`` —
``INT``   zigzag varint (arbitrary precision)
``FLOAT`` IEEE-754 big-endian double
``STR``   varint byte length + UTF-8 (not interned)
``DEF``   varint byte length + UTF-8; *defines* the next string id
``REF``   varint string id (see interning below)
``LIST``  varint record count + records: a member, or a ``ROWS``
          record standing for many
``TUPLE`` varint count + members
``FSET``  varint count + members, sorted by ``repr`` for
          deterministic bytes
``DICT``  varint count + alternating key/value members
``EVENT`` event type name, key-schema tuple, the parameter
          values in key order (``type`` skipped), provenance flag
          byte + optional provenance tree
``PROV``  provenance node: id, node, kind, type, logical time,
          summary, varint child count + children
``CDEF``  *defines* the next compound id; body is the
          TUPLE/FSET it wraps
``CREF``  varint compound id
``SELF``  payload offset 0 only: the frame is *self-contained* —
          its tables are born empty here and die with it; body
          is the frame's ``DICT``
``ROWS``  inside a ``LIST`` only: an *event run* — event type
          name, key-schema tuple, varint row count, then one
          column per key (``type`` skipped); see below
========  =====================================================

**Per-channel interning.**  Each channel direction owns one encoder and
one mirroring decoder.  The first time a short string (≤
:data:`INTERN_MAX` UTF-8 bytes) is encoded it travels as an inline
``DEF`` record and both sides append it to their string table; every
later occurrence is a 2–3 byte ``REF``.  Hashable tuples and frozensets
(association pairs, ``processAssociations`` sets, and — crucially — the
per-event *key schema*, the tuple of parameter names) intern the same
way through ``CDEF``/``CREF``: a steady-state ``EVENT`` is its type-name
ref, its key-schema ref, and its parameter values, nothing else.
Compound ids are assigned in **post-order** (a definition completes,
and numbers, after its members) because that is the only order an
streaming decoder can mirror without backpatching.

Tables are *per channel instance* and only ever **born empty**: there
is no way to reset, copy or seed them.  A fresh worker (a restart after a
crash) gets a fresh writer/reader pair.

**Self-contained frames.**  A frame that must outlive its channel — the
supervisor journals *and* sends it — is encoded once by
:func:`encode_standalone`: a fresh encoder, the payload led by ``SELF``.
Any decoder accepts it in any table state, its stream tables untouched
(only the event-type resolution cache is shared), so the same bytes are
a journal record and a pipe frame.  It pays for its definitions every
time (≈ +0.3 µs and +3.6 B per event on the seeded stream, EXPERIMENTS
PERF3), which is why plain shard traffic keeps the stream tables.  A
shard snapshot file is one such frame behind its own header
(:mod:`repro.durability.snapshot`).

**Event runs.**  A wave's ``events`` list is, on the traffic the paper's
§7 describes, a hundred-odd events of one type and one key schema, and
visiting every value of every event in Python is what the row-wise
``EVENT`` record costs.  So inside a list, every maximal stretch of
:data:`ROWS_MIN` or more events that share their ``EventType``, their
``tuple(params)`` and ``provenance is None`` travels as one ``ROWS``
record, column by column, and the per-event work — the uniformity
checks, the transposition, folding a column's equal values, packing —
is ``map`` / ``zip`` / ``dict.fromkeys`` / ``array``; what is left in
Python is per column.  A decoded record is a
:class:`~repro.events.event.ColumnRun`: :meth:`BinaryDecoder.decode_payload`
expands it into its events, while :meth:`BinaryDecoder.decode_runs` (a
shard worker's reader) hands it to the ingest door as columns, and an
``Event`` is built only for a row that escapes the column entries.
A ``C_P`` record (:class:`~repro.events.canonical.CanonicalEvent`)
travels as its parameter mapping, built for the purpose, so it encodes
to the bytes a mapping-backed event of the same parameters would, and
decodes to a record again (its event type decides, as everywhere).
A column is one kind byte and a body:

===========  ====================================================
kind         body
===========  ====================================================
``CONST``    one value: every row holds it
``VALUES``   the rows' values, one by one (an unhashable value, all
             values distinct, ints past 64 bits, or values that are
             equal but not of one type: ``1`` and ``True``)
``DICT``     varint count + the distinct values in first-seen order,
             a width code (``B`` / ``H``), then one id per row
``INT``      a width code (``B H I Q`` unsigned, ``b h i q`` signed:
             the narrowest holding ``min``..``max``), then the rows
             as a fixed-width **little-endian** ``array``
===========  ====================================================

The distinct values of a ``DICT`` column (and a ``CONST``) go through
the ordinary value encoding, so they intern on the channel like any
other string or compound; the ids are the column's own.  ``type`` is
skipped because the record's type name already says it (the decoder
puts it back, last, as for an ``EVENT``).  An event that carries
provenance, a lone event, a short stretch and anything that is not an
event keep their own records in the same ordered list: a provenance
tree is per event and has no columns, and below :data:`ROWS_MIN` rows
the per-column set-up costs more than it saves.  A constant column
makes a row cost zero bytes, so no payload length bounds the row count:
a record holds at most :data:`ROWS_MAX` rows, the encoder splits a
longer stretch and the decoder refuses a larger count before it builds
anything.  The run is a value like any other — ``encode_frame``,
:func:`encode_standalone`, the journal and the pipe carry it unchanged,
and files holding ``EVENT`` rows (earlier builds) read as before.

**Type-exact tables.**  ``1 == True == 1.0`` and ``0.0 == -0.0``, and
they hash alike: a table keyed by ``==`` would hand ``(1, "a")`` out for
``(True, "a")``.  A compound hit counts only if the stored value is the
same type for type (:func:`_exact`; the first comer keeps the slot, a
confusable twin travels inline), and a column folds equal values only
under the same check.

**Error discipline.**  A truncated, torn, or corrupt payload raises
:class:`~repro.errors.WireError` — never ``IndexError`` or a crash —
and leaves the decoder's stream tables undefined unless the frame was
self-contained: callers must discard the decoder (and its peer encoder)
after an error.  Nesting deeper than the interpreter's recursion limit
is such an error on both sides, never a ``RecursionError``.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import count, groupby, repeat
from operator import attrgetter, is_
from types import MappingProxyType
from typing import Any, Dict, IO, Iterable, List, Mapping, Optional, Tuple

from ..errors import EventTypeError, WireError
from ..events.canonical import CanonicalEvent
from ..events.event import ColumnRun, Event
from ..observability.provenance import ProvenanceNode
from .wire import MAX_FRAME_BYTES, _read_exact, resolve_event_type

#: Strings longer than this many UTF-8 bytes are not interned (one-off
#: payload text should not occupy table slots).
INTERN_MAX = 64

#: Upper bound on interned entries per table; beyond it, values encode
#: inline (correct, just less compact).
INTERN_CAP = 1 << 15

# Value tags.
T_NONE = 0
T_TRUE = 1
T_FALSE = 2
T_INT = 3
T_FLOAT = 4
T_STR = 5
T_DEF = 6
T_REF = 7
T_LIST = 8
T_TUPLE = 9
T_FSET = 10
T_DICT = 11
T_EVENT = 12
T_PROV = 13
T_CDEF = 14
T_CREF = 15
T_SELF = 16
T_ROWS = 17

#: Most events one ``ROWS`` record may hold.  A constant column costs no
#: bytes per row, so the payload length cannot bound the row count: the
#: encoder splits a longer stretch, the decoder refuses a larger count.
ROWS_MAX = 4096

#: Fewest events worth a ``ROWS`` record.  A record pays a fixed price
#: per column (≈ 25 µs for the eight of ``T_context``); below eight rows,
#: encode plus decode, the row-wise ``EVENT`` records are cheaper
#: (EXPERIMENTS PERF4).
ROWS_MIN = 8

# Column kinds of a ``ROWS`` record.
C_CONST = 0
C_VALUES = 1
C_DICT = 2
C_INT = 3

#: ``array`` typecodes by width code; ids use the first two only.  All
#: eight have the same item size on every platform CPython supports.
_INT_CODES = "BHIQbhiq"
_ID_CODES = _INT_CODES[:2]
_BIG_ENDIAN = sys.byteorder == "big"

#: Value types for which ``==`` already is type-exact equality.
_EQ_EXACT = frozenset((str, type(None)))

_get_type = attrgetter("_event_type")
_get_provenance = attrgetter("provenance")
_get_params = attrgetter("_params")
#: Both representations of an event: they encode alike.
_EVENT_CLASSES = frozenset((Event, CanonicalEvent))
#: Unbound, a method descriptor is called at half the cost of a
#: ``methodcaller`` (no attribute lookup per row).
_get_values = MappingProxyType.values

_pack_into = struct.pack_into
_pack_d = struct.Struct(">d").pack
_unpack_d = struct.Struct(">d").unpack_from
_HEADER = struct.Struct(">I")
#: The cover of an ``INT`` column: one int stands for its rows.
_ONE_INT = (0,)

# ---------------------------------------------------------------------------
# Channel opening (the hello bytes)
# ---------------------------------------------------------------------------

#: First bytes on a worker pipe: magic, then the protocol byte.
HELLO_MAGIC = b"RPW1"
#: The one payload encoding this build speaks (the binary codec).  A
#: peer announcing anything else is from another build and is refused.
HELLO_PROTOCOL = 1


def hello_bytes() -> bytes:
    """The channel-opening bytes: magic + protocol byte, before any frame."""
    return HELLO_MAGIC + bytes((HELLO_PROTOCOL,))


def read_hello(stream: IO[bytes]) -> None:
    """Read and check the peer's hello; :class:`WireError` on a mismatch."""
    data = _read_exact(stream, len(HELLO_MAGIC) + 1, allow_eof=False)
    assert data is not None
    if data[: len(HELLO_MAGIC)] != HELLO_MAGIC:
        raise WireError(
            f"bad channel hello {data[:len(HELLO_MAGIC)]!r} "
            f"(expected {HELLO_MAGIC!r})"
        )
    if data[-1] != HELLO_PROTOCOL:
        raise WireError(
            f"unsupported wire protocol byte {data[-1]!r} in hello "
            f"(expected {HELLO_PROTOCOL!r})"
        )


# ---------------------------------------------------------------------------
# Varints
# ---------------------------------------------------------------------------


def _varint(buf: bytearray, n: int) -> None:
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


def _ref_bytes(tag: int, n: int) -> bytes:
    out = bytearray((tag,))
    _varint(out, n)
    return bytes(out)


#: Precomputed encodings of the small ids: ``INT`` for non-negative ints
#: (times, sequence numbers, counters — the bulk of numeric traffic),
#: ``REF`` / ``CREF`` for the definitions every self-contained frame repeats.
_SMALL = 2048
_INT_CACHE = [_ref_bytes(T_INT, n << 1) for n in range(_SMALL)]
_REF_CACHE = [_ref_bytes(T_REF, n) for n in range(_SMALL)]
_CREF_CACHE = [_ref_bytes(T_CREF, n) for n in range(_SMALL)]

_HEAD = b"\x00\x00\x00\x00"
_SELF_HEAD = _HEAD + bytes((T_SELF,))


# ---------------------------------------------------------------------------
# Type-exact equality, and the stretches of a list that travel as runs
# ---------------------------------------------------------------------------


def _exact(a: Any, b: Any) -> bool:
    """Whether ``a == b`` also holds type for type.

    ``1``, ``True`` and ``1.0`` (and ``0.0`` / ``-0.0``) are equal and
    hash alike, so a table keyed by ``==`` alone hands one of them out
    for the other.  Called where ``a == b`` is given; anything but the
    hashable wire values is only ever exactly itself.
    """
    if a is b:
        return True
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is tuple or kind is frozenset:
        if _EQ_EXACT.issuperset(map(type, a)):
            return True
        if kind is tuple:
            return all(map(_exact, a, b))
        twin = {member: member for member in b}
        return all(map(_exact, a, map(twin.__getitem__, a)))
    if kind is float:
        return _pack_d(a) == _pack_d(b)
    return kind in _EQ_EXACT or kind is int or kind is bool


def _exactly(
    column: Tuple[Any, ...], kinds: Any, distinct: List[Any], ids: Iterable[int]
) -> bool:
    """Whether every value of *column* (their types: *kinds*) is, type
    for type, the equal ``distinct[id]`` that *ids* folds it into."""
    return (
        kinds <= _EQ_EXACT
        or kinds == {int}
        or all(map(is_, column, map(distinct.__getitem__, ids)))
        or all(map(_exact, column, map(distinct.__getitem__, ids)))
    )


def _int_code(lo: int, hi: int) -> Optional[int]:
    """The narrowest width code holding ``lo..hi``; ``None`` past 64 bits."""
    if lo >= 0:
        for code, bits in enumerate((8, 16, 32, 64)):
            if hi < 1 << bits:
                return code
    else:
        for code, bits in enumerate((7, 15, 31, 63), 4):
            if -(1 << bits) <= lo and hi < 1 << bits:
                return code
    return None


def _run_key(member: Any) -> Optional[Tuple[Any, Tuple[Any, ...]]]:
    """What consecutive list members share to travel as one run."""
    if type(member) in _EVENT_CLASSES and member.provenance is None:
        return member._event_type, tuple(member._params)
    return None


def _stretches(members: List[Any]) -> List[Tuple[Any, List[Any]]]:
    """*members* cut into ``(key schema or None, stretch)`` pieces: the
    maximal stretches of events of one type, one key schema and no
    provenance, and what lies between them (``None``).  A wave's
    ``events`` list is one stretch, and finding that out is one pass of
    C per condition; only a mixed list is visited member by member.
    """
    n = len(members)
    classes = list(map(type, members))
    if classes.count(Event) == n or classes.count(CanonicalEvent) == n:
        params = list(map(_get_params, members))
        keys = tuple(params[0])
        if (
            list(map(_get_type, members)).count(members[0]._event_type) == n
            and list(map(_get_provenance, members)).count(None) == n
            and list(map(len, params)).count(len(keys)) == n
            # Transposed, every row of keys repeats one name n times.
            and [
                names.count(key) for names, key in zip(zip(*params), keys)
            ] == [n] * len(keys)
        ):
            return [(keys, members)]
    return [
        (key and key[1], list(group)) for key, group in groupby(members, _run_key)
    ]


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


class BinaryEncoder:
    """One channel direction's stateful encoder.

    Reuses a single ``bytearray`` across frames (no per-frame
    allocation growth) and keeps the interning tables between frames —
    the whole point: steady-state frames are almost entirely refs.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        #: str -> precomputed ``REF`` bytes, in id order.
        self._refs: Dict[str, bytes] = {}
        #: hashable tuple/frozenset -> (precomputed ``CREF`` bytes, the
        #: value that defined the id: a later hit must match its types).
        self._crefs: Dict[Any, Tuple[bytes, Any]] = {}

    # -- encoding ----------------------------------------------------------

    def encode_frame(self, frame: Mapping[str, Any]) -> bytes:
        """One length-prefixed binary frame, ready for a single write."""
        return self._frame(frame, _HEAD)

    def _frame(self, frame: Mapping[str, Any], head: bytes) -> bytes:
        buf = self._buf
        del buf[:]
        buf += head
        try:
            self._value(buf, frame if type(frame) is dict else dict(frame))
        except RecursionError:
            raise WireError("nesting too deep: not wire-encodable") from None
        size = len(buf) - 4
        if size > MAX_FRAME_BYTES:
            raise WireError(
                f"frame length {size} exceeds {MAX_FRAME_BYTES}"
            )
        _pack_into(">I", buf, 0, size)
        return bytes(buf)

    def _define(self, buf: bytearray, text: str) -> None:
        raw = text.encode("utf-8")
        size = len(raw)
        count = len(self._refs)  # ids are dense: the next one
        interned = size <= INTERN_MAX and count < INTERN_CAP
        buf.append(T_DEF if interned else T_STR)
        _varint(buf, size)
        buf += raw
        if interned:
            ref = _REF_CACHE[count] if count < _SMALL else None
            self._refs[text] = ref or _ref_bytes(T_REF, count)

    def _value(self, buf: bytearray, value: Any) -> None:
        kind = type(value)
        if kind is str:
            ref = self._refs.get(value)
            if ref is not None:
                buf += ref
            else:
                self._define(buf, value)
        elif kind is int:
            if 0 <= value < _SMALL:
                buf += _INT_CACHE[value]
            else:
                buf.append(T_INT)
                _varint(
                    buf,
                    (value << 1) if value >= 0 else (((-value) << 1) - 1),
                )
        elif kind is Event or kind is CanonicalEvent:
            buf.append(T_EVENT)
            self._event(buf, value)
        elif kind is bool:
            buf.append(T_TRUE if value else T_FALSE)
        elif value is None:
            buf.append(T_NONE)
        elif kind is float:
            buf.append(T_FLOAT)
            buf += _pack_d(value)
        elif kind is tuple or kind is frozenset:
            try:
                hit = self._crefs.get(value)
                intern = hit is None and len(self._crefs) < INTERN_CAP
            except TypeError:  # tuple holding an unhashable member
                hit, intern = None, False
            # A hit that is equal but not type-exact (``(1,)`` found by
            # ``(True,)``) is no hit: the newcomer travels inline.
            if hit is not None and _exact(value, hit[1]):
                buf += hit[0]
                return
            if intern:
                buf.append(T_CDEF)
            members = (
                sorted(value, key=repr) if kind is frozenset else value
            )
            buf.append(T_TUPLE if kind is tuple else T_FSET)
            _varint(buf, len(members))
            encode = self._value
            for member in members:
                encode(buf, member)
            if intern:
                # Post-order id assignment: nested compounds complete
                # (and number) first, matching the decoder's
                # append-after-decode order.
                n = len(self._crefs)
                ref = _CREF_CACHE[n] if n < _SMALL else _ref_bytes(T_CREF, n)
                self._crefs[value] = ref, value
        elif kind is dict:
            buf.append(T_DICT)
            _varint(buf, len(value))
            encode = self._value
            for key, member in value.items():
                encode(buf, key)
                encode(buf, member)
        elif kind is list:
            buf.append(T_LIST)
            if len(value) > 1 and not _EVENT_CLASSES.isdisjoint(map(type, value)):
                self._records(buf, value)
                return
            _varint(buf, len(value))
            encode = self._value
            for member in value:
                encode(buf, member)
        elif kind is ProvenanceNode:
            buf.append(T_PROV)
            self._provenance(buf, value)
        elif isinstance(value, Mapping):
            self._value(buf, dict(value))
        else:
            raise WireError(
                f"value {value!r} ({kind.__name__}) is not wire-encodable"
            )

    def _event(self, buf: bytearray, event: Event) -> None:
        encode = self._value
        encode(buf, event._event_type.name)
        params = event._params
        encode(buf, tuple(params))
        for key, value in params.items():
            if key != "type":
                encode(buf, value)
        chain = event.provenance
        if chain is None:
            buf.append(0)
        else:
            buf.append(1)
            self._provenance(buf, chain)

    def _records(self, buf: bytearray, members: List[Any]) -> None:
        """The body of a ``LIST`` that holds events: its record count,
        then a ``ROWS`` record per stretch of :data:`ROWS_MIN` or more
        (split at :data:`ROWS_MAX`) and every other member as itself."""
        records: List[Tuple[Any, Any]] = []
        for keys, stretch in _stretches(members):
            if keys is None or len(stretch) < ROWS_MIN:
                records += zip(repeat(None), stretch)
            else:
                records += [
                    (keys, stretch[start:start + ROWS_MAX])
                    for start in range(0, len(stretch), ROWS_MAX)
                ]
        _varint(buf, len(records))
        for keys, record in records:
            if keys is None:
                self._value(buf, record)
            else:
                self._rows(buf, record, keys)

    def _rows(
        self, buf: bytearray, events: List[Event], keys: Tuple[Any, ...]
    ) -> None:
        """One ``ROWS`` record: *events* share an event type, the key
        schema *keys* and ``provenance is None``."""
        buf.append(T_ROWS)
        self._value(buf, events[0]._event_type.name)
        self._value(buf, keys)
        _varint(buf, len(events))
        columns = zip(*map(_get_values, map(_get_params, events)))
        for key, column in zip(keys, columns):
            if key != "type":
                self._column(buf, column)

    def _column(self, buf: bytearray, column: Tuple[Any, ...]) -> None:
        first = column[0]
        kinds = set(map(type, column))
        if column.count(first) == len(column):
            if _exactly(column, kinds, [first], repeat(0)):
                buf.append(C_CONST)
                self._value(buf, first)
                return
        elif kinds == {int}:
            code = _int_code(min(column), max(column))
            if code is not None:
                buf.append(C_INT)
                self._array(buf, _INT_CODES, code, column)
                return
        else:
            try:
                distinct = list(dict.fromkeys(column))
            except TypeError:  # an unhashable value
                distinct = column
            if len(distinct) < len(column):
                ids = list(map(dict(zip(distinct, count())).__getitem__, column))
                if _exactly(column, kinds, distinct, ids):
                    buf.append(C_DICT)
                    _varint(buf, len(distinct))
                    for value in distinct:
                        self._value(buf, value)
                    self._array(buf, _ID_CODES, int(len(distinct) > 256), ids)
                    return
        buf.append(C_VALUES)
        encode = self._value
        for value in column:
            encode(buf, value)

    def _array(
        self, buf: bytearray, codes: str, code: int, items: Iterable[int]
    ) -> None:
        packed = array(codes[code], items)
        if _BIG_ENDIAN:
            packed.byteswap()
        buf.append(code)
        buf += packed

    def _provenance(self, buf: bytearray, node: ProvenanceNode) -> None:
        encode = self._value
        encode(buf, node.event_id)
        encode(buf, node.node)
        encode(buf, node.kind)
        encode(buf, node.event_type)
        encode(buf, node.logical_time)
        encode(buf, node.summary)
        inputs = node.inputs
        _varint(buf, len(inputs))
        for child in inputs:
            self._provenance(buf, child)


def encode_standalone(frame: Mapping[str, Any]) -> bytes:
    """*frame* as one self-contained frame: a fresh encoder's whole life."""
    return BinaryEncoder()._frame(frame, _SELF_HEAD)


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------

#: Exceptions a corrupt payload can surface as; all become WireError.
_DECODE_ERRORS = (
    AttributeError,
    IndexError,
    KeyError,
    OverflowError,
    RecursionError,
    TypeError,
    UnicodeDecodeError,
    ValueError,
    struct.error,
)


class BinaryDecoder:
    """The mirror of :class:`BinaryEncoder`: same stream, same tables."""

    def __init__(self) -> None:
        self._strings: List[str] = []
        self._compounds: List[Any] = []
        self._types: Dict[str, Any] = {}
        #: Self-contained payloads decoded (``repro journal`` reports it).
        self.standalone_frames = 0

    @property
    def interned_strings(self) -> List[str]:
        """The string table in define order."""
        return list(self._strings)

    @property
    def interned_compounds(self) -> List[Any]:
        """The compound table in define order."""
        return list(self._compounds)

    # -- decoding ----------------------------------------------------------

    def decode_payload(self, data: Any) -> Dict[str, Any]:
        """Decode one frame payload (``bytes`` or ``memoryview``).

        A self-contained payload (leading ``SELF``) decodes against
        tables of its own and leaves the stream tables as they were,
        whatever happens.  Otherwise :class:`WireError` (truncated,
        trailing or corrupt bytes) means: discard the decoder.
        """
        return self._decode(data, False)

    def decode_runs(self, data: Any) -> Dict[str, Any]:
        """:meth:`decode_payload`, except that the frame's ``events``
        list keeps each ``ROWS`` record of plain events as one
        :class:`~repro.events.event.ColumnRun` in its place, which
        carries its covers: the shard worker's ingest door admits and
        walks it by column.  Every other list, and a run of a record
        type, decodes to events; every decode check is made as there.
        """
        return self._decode(data, True)

    def _decode(self, data: Any, runs: bool) -> Dict[str, Any]:
        stream = self._strings, self._compounds
        try:
            scoped = data[0] == T_SELF
            if scoped:
                self._strings, self._compounds = [], []
            if runs and data[int(scoped)] == T_DICT:
                value, pos = self._frame(data, int(scoped) + 1)
            else:
                value, pos = self._value(data, int(scoped))
        except _DECODE_ERRORS as error:
            raise WireError(
                f"malformed binary frame payload: "
                f"{type(error).__name__}: {error}"
            ) from None
        finally:
            self._strings, self._compounds = stream
        if pos != len(data):
            raise WireError(
                f"binary frame payload has {len(data) - pos} trailing "
                f"bytes"
            )
        if type(value) is not dict:
            raise WireError(
                f"binary frame payload decoded to "
                f"{type(value).__name__}, not a frame mapping"
            )
        self.standalone_frames += scoped
        return value

    def _value(self, data: Any, pos: int) -> Tuple[Any, int]:
        tag = data[pos]
        pos += 1
        if tag == T_REF or tag == T_INT or tag == T_CREF:
            n = data[pos]
            pos += 1
            if n >= 0x80:
                n &= 0x7F
                shift = 7
                while True:
                    b = data[pos]
                    pos += 1
                    n |= (b & 0x7F) << shift
                    if b < 0x80:
                        break
                    shift += 7
            if tag == T_REF:
                return self._strings[n], pos
            if tag == T_INT:
                return (n >> 1) ^ -(n & 1), pos
            return self._compounds[n], pos
        if tag == T_EVENT:
            return self._event(data, pos)
        if tag == T_DEF or tag == T_STR:
            n, pos = self._varint(data, pos)
            end = pos + n
            if end > len(data):
                raise WireError("binary frame truncated inside a string")
            text = str(data[pos:end], "utf-8")
            if tag == T_DEF:
                self._strings.append(text)
            return text, end
        if tag == T_CDEF:
            value, pos = self._value(data, pos)
            self._compounds.append(value)
            return value, pos
        if tag == T_NONE:
            return None, pos
        if tag == T_TRUE:
            return True, pos
        if tag == T_FALSE:
            return False, pos
        if tag == T_FLOAT:
            return _unpack_d(data, pos)[0], pos + 8
        if tag == T_TUPLE or tag == T_FSET:
            n, pos = self._varint(data, pos)
            out, pos = self._values(data, pos, n)
            return (
                tuple(out) if tag == T_TUPLE else frozenset(out)
            ), pos
        if tag == T_DICT:
            n, pos = self._varint(data, pos)
            mapping: Dict[Any, Any] = {}
            decode = self._value
            for __ in range(n):
                key, pos = decode(data, pos)
                member, pos = decode(data, pos)
                mapping[key] = member
            return mapping, pos
        if tag == T_LIST:
            return self._list(data, pos, False)
        if tag == T_PROV:
            return self._provenance(data, pos)
        if tag == T_SELF:
            raise WireError("self-contained tag inside a frame payload")
        if tag == T_ROWS:
            raise WireError("event run outside a list")
        raise WireError(f"unknown binary value tag {tag}")

    def _frame(self, data: Any, pos: int) -> Tuple[Dict[Any, Any], int]:
        """The frame ``DICT`` whose body is at *pos*, its ``events`` list
        decoded with runs kept (:meth:`decode_runs`)."""
        n, pos = self._varint(data, pos)
        frame: Dict[Any, Any] = {}
        decode = self._value
        for __ in range(n):
            key, pos = decode(data, pos)
            if key == "events" and data[pos] == T_LIST:
                frame[key], pos = self._list(data, pos + 1, True)
            else:
                frame[key], pos = decode(data, pos)
        return frame, pos

    def _list(self, data: Any, pos: int, runs: bool) -> Tuple[List[Any], int]:
        """The ``LIST`` whose body is at *pos*; with *runs*, a ``ROWS``
        record of plain events stays one :class:`ColumnRun`."""
        n, pos = self._varint(data, pos)
        items: List[Any] = []
        decode = self._value
        for __ in range(n):
            # A ``ROWS`` record is a list member that is many items.
            if data[pos] == T_ROWS:
                run, pos = self._rows(data, pos + 1)
                if runs and run._event_type.record is None:
                    items.append(run)
                    continue
                try:
                    items += run.events()
                except EventTypeError as error:  # a record's undeclared key
                    raise WireError(f"malformed event run: {error}") from None
            else:
                member, pos = decode(data, pos)
                items.append(member)
        return items, pos

    def _varint(self, data: Any, pos: int) -> Tuple[int, int]:
        n = data[pos]
        pos += 1
        if n < 0x80:
            return n, pos
        n &= 0x7F
        shift = 7
        while True:
            b = data[pos]
            pos += 1
            n |= (b & 0x7F) << shift
            if b < 0x80:
                return n, pos
            shift += 7

    def _values(self, data: Any, pos: int, n: int) -> Tuple[List[Any], int]:
        out: List[Any] = []
        decode = self._value
        for __ in range(n):
            value, pos = decode(data, pos)
            out.append(value)
        return out, pos

    def _head(self, data: Any, pos: int) -> Tuple[Any, Tuple[Any, ...], int]:
        """What ``EVENT`` and ``ROWS`` both open with: the event type
        (resolved from its name, once per decoder) and the key schema."""
        name, pos = self._value(data, pos)
        event_type = self._types.get(name)
        if event_type is None:
            event_type = self._types[name] = resolve_event_type(name)
        keys, pos = self._value(data, pos)
        if type(keys) is not tuple:
            raise WireError("event key schema is not a tuple")
        return event_type, keys, pos

    def _event(self, data: Any, pos: int) -> Tuple[Event, int]:
        decode = self._value
        event_type, keys, pos = self._head(data, pos)
        params: Dict[str, Any] = {}
        for key in keys:
            if key != "type":
                params[key], pos = decode(data, pos)
        # ``type`` was skipped on encode; ``trusted`` puts it back, last.
        try:
            event = Event.trusted(event_type, params)
        except EventTypeError as error:  # a record type's undeclared key
            raise WireError(f"malformed event record: {error}") from None
        flag = data[pos]
        pos += 1
        if flag:
            event.provenance, pos = self._provenance(data, pos)
        return event, pos

    def _rows(self, data: Any, pos: int) -> Tuple[ColumnRun, int]:
        """Decode the ``ROWS`` record at *pos* into a :class:`ColumnRun`;
        the position after it.

        Each column leaves a *cover* on the run: values among which
        every row's is, type for type — a ``CONST`` column's value, one
        int for an ``INT`` column (every row holds an int), a ``DICT``
        column's whole table (an id past it fails the decode), a
        ``VALUES`` column itself.  The ingest door checks a run's types
        and association sets on these, once per distinct value instead
        of once per row (``EventType.admits``).
        """
        event_type, keys, pos = self._head(data, pos)
        n, pos = self._varint(data, pos)
        if n > ROWS_MAX:
            raise WireError(f"event run of {n} rows exceeds {ROWS_MAX}")
        names = [key for key in keys if key != "type"]
        columns: List[Any] = []
        tables: List[Tuple[int, List[Any], Any]] = []
        covers: Dict[Any, Any] = {}
        for name in names:
            kind = data[pos]
            pos += 1
            if kind == C_CONST:
                value, pos = self._value(data, pos)
                columns.append((value,) * n)
                covers[name] = (value,)
            elif kind == C_INT:
                column, pos = self._array(data, pos, n, _INT_CODES)
                columns.append(column)
                covers[name] = _ONE_INT
            elif kind == C_DICT:
                size, pos = self._varint(data, pos)
                table, pos = self._values(data, pos, size)
                ids, pos = self._array(data, pos, n, _ID_CODES)
                tables.append((len(columns), table, ids))
                columns.append(None)
                covers[name] = table
            elif kind == C_VALUES:
                column, pos = self._values(data, pos, n)
                columns.append(column)
                covers[name] = column
            else:
                raise WireError(f"unknown event run column kind {kind}")
        # Ids are looked up once every column is read, so a bad id is
        # found after every malformed column kind, as a row's would be.
        for index, table, ids in tables:
            columns[index] = list(map(table.__getitem__, ids))
        # ``type`` goes last, as ``_event`` puts it.  A name the key
        # schema repeats keeps its first place and its last column, as
        # a row's ``dict`` would.
        names.append("type")
        columns.append((event_type.name,) * n)
        covers["type"] = (event_type.name,)
        return ColumnRun(event_type, dict(zip(names, columns)), covers), pos

    def _array(
        self, data: Any, pos: int, n: int, codes: str
    ) -> Tuple[Any, int]:
        """*n* fixed-width little-endian items led by their width code."""
        code = data[pos]
        if code >= len(codes):
            raise WireError(f"unknown event run width code {code}")
        items = array(codes[code])
        pos += 1
        end = pos + n * items.itemsize
        if end > len(data):
            raise WireError("binary frame truncated inside an event run column")
        items.frombytes(data[pos:end])
        if _BIG_ENDIAN:
            items.byteswap()
        return items, end

    def _provenance(self, data: Any, pos: int) -> Tuple[ProvenanceNode, int]:
        decode = self._value
        event_id, pos = decode(data, pos)
        node, pos = decode(data, pos)
        kind, pos = decode(data, pos)
        event_type, pos = decode(data, pos)
        logical_time, pos = decode(data, pos)
        summary, pos = decode(data, pos)
        count, pos = self._varint(data, pos)
        children: List[ProvenanceNode] = []
        for __ in range(count):
            child, pos = self._provenance(data, pos)
            children.append(child)
        return (
            ProvenanceNode(
                event_id=event_id,
                node=node,
                kind=kind,
                event_type=event_type,
                logical_time=logical_time,
                summary=summary,
                inputs=tuple(children),
            ),
            pos,
        )


# ---------------------------------------------------------------------------
# Channel wrappers: one writer/reader pair per pipe direction
# ---------------------------------------------------------------------------


class BinaryFrameWriter:
    """Writes binary frames to a stream; one encoder, one write per frame."""

    def __init__(self, stream: IO[bytes]) -> None:
        self._stream = stream
        self.encoder = BinaryEncoder()

    def write(self, frame: Mapping[str, Any]) -> None:
        # One buffer, one write call, one flush: a batch frame (a whole
        # dispatch wave) crosses the pipe as a single ``os.write``.
        self._stream.write(self.encoder.encode_frame(frame))
        self._stream.flush()


class BinaryFrameReader:
    """Reads binary frames from a stream; mirrors one writer's tables."""

    def __init__(self, stream: IO[bytes]) -> None:
        self._stream = stream
        self.decoder = BinaryDecoder()

    def read(self, runs: bool = False) -> Optional[Dict[str, Any]]:
        """The next frame, ``None`` at a clean end of stream; with
        *runs*, decoded by :meth:`BinaryDecoder.decode_runs`."""
        header = _read_exact(self._stream, _HEADER.size, allow_eof=True)
        if header is None:
            return None
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise WireError(
                f"frame length {length} exceeds {MAX_FRAME_BYTES}"
            )
        data = _read_exact(self._stream, length, allow_eof=False)
        assert data is not None
        if runs:
            return self.decoder.decode_runs(data)
        return self.decoder.decode_payload(data)


def events_frame(events: List[Event], codec: str = "binary") -> Dict[str, Any]:
    """The ``events`` frame: the events themselves, encoded natively.

    The same frame lands in the write-ahead journal.  ``codec`` is
    vestigial — ``perf/`` still passes ``"binary"``; anything else is
    refused.
    """
    if codec != "binary":
        raise WireError(f"unknown wire codec {codec!r}; expected 'binary'")
    return {"kind": "events", "events": list(events)}

