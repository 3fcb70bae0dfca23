"""Low-level wire codec: bounded readers, field packers, versioned frames.

Every inter-entity message in the system serializes through this module so
that a single set of rules governs the whole protocol surface:

* all integers are big-endian and explicitly sized;
* every variable-length field is length-prefixed (``u16`` for short
  strings/scalars, ``u32`` for payloads), so a frame can be skipped
  without understanding its interior;
* a frame is ``MAGIC || version || type || u32 length || payload`` --
  length-prefixed at the top level so frames can be concatenated on a
  stream transport and split back apart;
* malformed input of any shape raises
  :class:`~repro.errors.SerializationError` -- never ``struct.error`` or
  ``IndexError`` -- so remote peers cannot crash an entity with garbage.

The :class:`Cursor` reader enforces the bounds checking; the ``pack_*`` /
``Cursor.read_*`` pairs are inverses by construction, and every reader
refuses bytes its packer never writes (decoding is canonical).

Records -- every net frame, wire message, store record, OCBE message,
identity token, assertion, broadcast package and keying header --
declare their fields once, in wire order, as
``FIELDS = (("name", codec), ...)``; :func:`pack_fields`,
:func:`read_fields` and :func:`check_fields` are the one walker that
encodes, decodes and validates them all (DESIGN.md "Record codec").
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ReproError, SerializationError
from repro.obs.trace import TRACE_LEN, ZERO_TRACE

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "FRAME_HEADER_SIZE",
    "DEFAULT_MAX_FRAME_PAYLOAD",
    "check_frame_length",
    "Cursor",
    "pack_u8",
    "pack_u16",
    "pack_u32",
    "pack_bool",
    "pack_str",
    "pack_bytes",
    "pack_scalar",
    "pack_element",
    "read_element",
    "pack_trace",
    "read_trace",
    "Field",
    "U8",
    "U16",
    "U32",
    "BOOL",
    "STR",
    "BYTES",
    "SCALAR",
    "ELEMENT",
    "TRACE",
    "seq",
    "fixed",
    "optional",
    "sorted_set",
    "member_of",
    "sized",
    "struct_of",
    "tagged",
    "magic",
    "by_magic",
    "lazy",
    "pack_fields",
    "read_fields",
    "check_fields",
    "decode_fields",
    "decode_value",
    "check_value",
    "Record",
    "encode_frame",
    "decode_frame",
    "iter_frames",
    "parse_frame_header",
]

#: Two-byte frame magic ("repro wire").
WIRE_MAGIC = b"RW"
#: Current protocol version; bumped on any incompatible layout change.
WIRE_VERSION = 1

_FRAME_HEADER = struct.Struct(">2sBBI")  # magic, version, type, payload length
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")

#: Fixed size of the frame header (magic + version + type + u32 length).
FRAME_HEADER_SIZE = _FRAME_HEADER.size

#: Hard ceiling on a frame's declared payload length (16 MiB).  A u32
#: length field lets a hostile peer declare ~4 GiB and force the receiver
#: to allocate it; every decode path rejects lengths above this cap
#: *before* touching (or, on a stream, waiting for) the payload.  Callers
#: with a genuine need can pass a different ``max_payload`` explicitly.
DEFAULT_MAX_FRAME_PAYLOAD = 16 * 1024 * 1024


def check_frame_length(length: int, max_payload: int = DEFAULT_MAX_FRAME_PAYLOAD) -> int:
    """Validate a declared frame payload length against the cap."""
    if length > max_payload:
        raise SerializationError(
            "frame payload of %d bytes exceeds the %d-byte cap"
            % (length, max_payload)
        )
    return length


# -- field packers ----------------------------------------------------------


def pack_u8(value: int) -> bytes:
    if not 0 <= value < (1 << 8):
        raise SerializationError("u8 out of range: %r" % value)
    return struct.pack(">B", value)


def pack_u16(value: int) -> bytes:
    if not 0 <= value < (1 << 16):
        raise SerializationError("u16 out of range: %r" % value)
    return struct.pack(">H", value)


def pack_u32(value: int) -> bytes:
    if not 0 <= value < (1 << 32):
        raise SerializationError("u32 out of range: %r" % value)
    return struct.pack(">I", value)


def pack_bool(value: bool) -> bytes:
    return pack_u8(1 if value else 0)


def pack_str(text: str) -> bytes:
    """``u16`` length-prefixed UTF-8."""
    raw = text.encode("utf-8")
    return pack_u16(len(raw)) + raw


def pack_bytes(raw: bytes) -> bytes:
    """``u32`` length-prefixed octets."""
    return pack_u32(len(raw)) + raw


def pack_scalar(value: int) -> bytes:
    """A non-negative big integer, ``u16`` length-prefixed big-endian.

    Used for openings ``(x, r)`` and signature scalars whose magnitude is
    not bounded by the wire layer (decoy values exceed every group order).
    """
    if value < 0:
        raise SerializationError("scalars on the wire are non-negative")
    raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return pack_u16(len(raw)) + raw


def pack_element(element) -> bytes:
    """A group element via its canonical encoding, length-prefixed."""
    return pack_bytes(element.to_bytes())


def read_element(cursor: "Cursor", group):
    """Read one group element; decode errors surface as library errors.

    ``group.element_from_bytes`` validates membership and raises
    :class:`~repro.errors.GroupError` subclasses itself; anything else a
    hostile encoding provokes is normalized to :class:`SerializationError`.
    """
    raw = cursor.read_bytes()
    try:
        return group.element_from_bytes(raw)
    except ReproError:
        raise
    except Exception as exc:  # defensive: backends must not leak raw errors
        raise SerializationError("undecodable group element") from exc


# -- bounded reader ---------------------------------------------------------


class Cursor:
    """A bounds-checked sequential reader over immutable bytes.

    Every ``read_*`` raises :class:`SerializationError` on truncation; a
    fully-parsed message should end with :meth:`expect_end` so trailing
    garbage is rejected rather than silently ignored.  Each also takes
    (and ignores) the walker's ``group``, so the method itself is a
    field reader: ``Field(pack_u16, Cursor.read_u16)``.
    """

    __slots__ = ("data", "offset", "end")

    def __init__(self, data: bytes, offset: int = 0):
        if type(data) is not bytes:
            if not isinstance(data, (bytes, bytearray, memoryview)):
                raise SerializationError(
                    "wire input must be bytes, got %s" % type(data).__name__
                )
            data = bytes(data)
        self.data = data
        self.offset = offset
        #: Where reading stops: the end of ``data``, or of the
        #: :func:`sized` field being walked.
        self.end = len(self.data)

    def remaining(self) -> int:
        return self.end - self.offset

    def _truncated(self, n: int):
        raise SerializationError(
            "truncated input: need %d bytes at offset %d, have %d"
            % (n, self.offset, self.remaining())
        )

    def take(self, n: int) -> bytes:
        start = self.offset
        if n < 0 or start + n > self.end:
            self._truncated(n)
        self.offset = start + n
        return self.data[start : start + n]

    def read_u8(self, group=None) -> int:
        return self.take(1)[0]

    # Counts and lengths are read dozens of times per frame: these check
    # their own bounds rather than calling take().
    def read_u16(self, group=None) -> int:
        start = self.offset
        if start + 2 > self.end:
            self._truncated(2)
        self.offset = start + 2
        return _U16.unpack_from(self.data, start)[0]

    def read_u32(self, group=None) -> int:
        start = self.offset
        if start + 4 > self.end:
            self._truncated(4)
        self.offset = start + 4
        return _U32.unpack_from(self.data, start)[0]

    def read_bool(self, group=None) -> bool:
        flag = self.read_u8()
        if flag not in (0, 1):
            raise SerializationError("bad boolean byte %#x" % flag)
        return bool(flag)

    def read_str(self, group=None) -> str:
        raw = self.take(self.read_u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError("invalid UTF-8 in string field") from exc

    def read_bytes(self, group=None) -> bytes:
        return self.take(self.read_u32())

    def read_scalar(self, group=None) -> int:
        raw = self.take(self.read_u16())
        if not raw or (raw[0] == 0 and len(raw) > 1):
            raise SerializationError("non-canonical scalar: empty or leading zero")
        return int.from_bytes(raw, "big")

    def expect_end(self) -> None:
        if self.offset != self.end:
            raise SerializationError(
                "%d trailing bytes after message" % self.remaining()
            )


def pack_trace(trace: bytes) -> bytes:
    """Encode a trace id as the optional trailing payload field.

    The no-trace value (empty or all zeros) encodes as *nothing*, so
    untraced frames stay byte-identical to the pre-trace protocol.
    """
    if not trace or not any(trace):
        return b""
    if len(trace) != TRACE_LEN:
        raise SerializationError(
            "trace id must be %d bytes, got %d" % (TRACE_LEN, len(trace))
        )
    return bytes(trace)


def read_trace(cursor: Cursor) -> bytes:
    """Read the optional trailing trace id; call after every other field.

    Nothing left means "no trace" (also how every pre-trace frame
    decodes); exactly :data:`TRACE_LEN` bytes, not all zero, is a trace
    id; any other trailing length is malformed -- an oversized or truncated trace
    id is refused rather than truncated or padded -- and so is an
    explicit all-zero id, which the encoder writes by omission.
    """
    remaining = cursor.remaining()
    if remaining == 0:
        return ZERO_TRACE
    if remaining != TRACE_LEN:
        raise SerializationError(
            "%d trailing bytes are neither empty nor a %d-byte trace id"
            % (remaining, TRACE_LEN)
        )
    trace = cursor.take(TRACE_LEN)
    if trace == ZERO_TRACE:
        raise SerializationError("explicit all-zero trace id (no trace is omitted)")
    return trace


# -- record codec -----------------------------------------------------------


class Field(NamedTuple):
    """One field's wire form: ``pack(value) -> bytes`` and its inverse
    ``read(cursor, group) -> value``.  ``group`` is the commitment group
    (``None`` for net frames); only group-element codecs use it.  The
    optional validate-only reader ``check(cursor, group)`` refuses what
    ``read`` refuses, with the same error, and builds nothing."""

    pack: Callable
    read: Callable
    check: Optional[Callable] = None


U8 = Field(pack_u8, Cursor.read_u8)
U16 = Field(pack_u16, Cursor.read_u16)
U32 = Field(pack_u32, Cursor.read_u32)
BOOL = Field(pack_bool, Cursor.read_bool)
STR = Field(pack_str, Cursor.read_str)
BYTES = Field(pack_bytes, Cursor.read_bytes)
SCALAR = Field(pack_scalar, Cursor.read_scalar)
#: A group element, validated against the commitment group.
ELEMENT = Field(pack_element, read_element)
#: The trailing trace id, encoded by omission; always the last field.
TRACE = Field(pack_trace, lambda cursor, group: read_trace(cursor))


def seq(item: Field, count: Field = U32, bound: Optional[int] = None) -> Field:
    """A tuple of ``item``s behind a ``count`` prefix.  ``bound`` caps the
    count a decoder accepts before it reads a single item."""

    def pack(values) -> bytes:
        return count.pack(len(values)) + b"".join([item.pack(v) for v in values])

    def read(cursor: Cursor, group) -> tuple:
        n = count.read(cursor, group)
        if bound is not None and n > bound:
            raise SerializationError("%d items exceed the %d-item bound" % (n, bound))
        return tuple([item.read(cursor, group) for _ in range(n)])

    return Field(pack, read)


def fixed(*items: Field) -> Field:
    """A fixed-arity tuple, its members back to back."""

    def pack(values) -> bytes:
        return b"".join([f.pack(v) for f, v in zip(items, values, strict=True)])

    def read(cursor: Cursor, group) -> tuple:
        return tuple([f.read(cursor, group) for f in items])

    return Field(pack, read)


def optional(item: Field) -> Field:
    """``None`` or an ``item``, behind a presence flag."""

    def pack(value) -> bytes:
        return pack_bool(False) if value is None else pack_bool(True) + item.pack(value)

    def read(cursor: Cursor, group):
        return item.read(cursor, group) if cursor.read_bool() else None

    return Field(pack, read)


def sorted_set(item: Field) -> Field:
    """A frozenset behind a ``u16`` count, written in ascending order; a
    decoder refuses any other order and any repeat, so a set has exactly
    one encoding."""
    as_seq = seq(item, U16)

    def pack(values) -> bytes:
        return as_seq.pack(sorted(values))

    def read(cursor: Cursor, group) -> frozenset:
        values = as_seq.read(cursor, group)
        if any(a >= b for a, b in zip(values, values[1:])):
            raise SerializationError("set members not strictly ascending")
        return frozenset(values)

    return Field(pack, read)


def member_of(item: Field, allowed: Sequence, what: str) -> Field:
    """An ``item`` whose decoded value must be one of ``allowed``."""

    def read(cursor: Cursor, group):
        value = item.read(cursor, group)
        if value not in allowed:
            raise SerializationError("unknown %s %r" % (what, value))
        return value

    return Field(item.pack, read)


def sized(item: Field) -> Field:
    """An ``item`` behind a ``u32`` length, walked in place -- no copy,
    no second cursor -- and held to exactly that length."""

    def bounded(reader: Callable) -> Callable:
        def read(cursor: Cursor, group):
            length, outer = cursor.read_u32(), cursor.end
            if length > cursor.remaining():
                cursor._truncated(length)
            cursor.end = cursor.offset + length
            value = reader(cursor, group)
            cursor.expect_end()
            cursor.end = outer
            return value

        return read

    return Field(
        lambda value: pack_bytes(item.pack(value)),
        bounded(item.read),
        bounded(item.check or item.read),
    )


def struct_of(factory: Callable, fields=None) -> Field:
    """A nested record: ``fields`` (by default the :class:`Record`
    ``factory``'s own) walked in place, built by ``factory``."""
    fields = factory.FIELDS if fields is None else fields
    return Field(
        lambda value: pack_fields(fields, value),
        lambda cursor, group: read_fields(fields, cursor, group, factory),
    )


def tagged(table, what: str) -> Field:
    """One of several records behind a one-byte tag: ``table`` maps each
    tag to a :class:`Record` class, or to ``None`` for "nothing follows".
    An unknown tag, or a value of a class the table does not name, is
    refused."""
    tags = {cls: tag for tag, cls in table.items()}

    def pack(value) -> bytes:
        tag = tags.get(None if value is None else type(value))
        if tag is None:
            raise SerializationError(
                "unknown %s type %r" % (what, type(value).__name__)
            )
        return pack_u8(tag) + (b"" if value is None else value.to_bytes())

    def read(cursor: Cursor, group):
        tag = cursor.read_u8()
        if tag not in table:
            raise SerializationError("unknown %s tag %d" % (what, tag))
        cls = table[tag]
        return None if cls is None else cls.read_from(cursor, group)

    return Field(pack, read)


def magic(tag: bytes) -> Field:
    """A constant format tag, declared as a group of no attributes --
    ``((), magic(b"ACV1"))`` -- so it adds no field to the record; any
    other bytes are refused."""

    def read(cursor: Cursor, group) -> tuple:
        found = cursor.data[cursor.offset : min(cursor.offset + len(tag), cursor.end)]
        if found != tag:
            raise SerializationError("bad magic %r" % found)
        cursor.offset += len(tag)
        return ()

    return Field(lambda values: tag, read)


def by_magic(table: Dict[bytes, type], what: str) -> Field:
    """One of several :class:`Record` classes, each beginning with its own
    :func:`magic` tag: ``table`` maps each tag to its class.  The record
    reads its tag itself, so nothing is added on the wire."""
    width = len(next(iter(table)))

    def walk(fields_walker: Callable) -> Callable:
        def read(cursor: Cursor, group):
            tag = cursor.data[cursor.offset : min(cursor.offset + width, cursor.end)]
            if tag not in table:
                raise SerializationError("unknown %s magic %r" % (what, tag))
            return fields_walker(table[tag].FIELDS, cursor, group, table[tag])

        return read

    return Field(lambda value: value.to_bytes(), walk(read_fields), walk(check_fields))


#: The bytes a :class:`lazy` field spanned, not decoded yet.
_Pending = NamedTuple("_Pending", [("raw", bytes), ("group", object)])


class lazy:
    """A record attribute validated when read, decoded on first access:
    ``acv: Optional[KeyingHeader] = lazy(KEYING)`` in the class body,
    ``("acv", acv)`` in ``FIELDS``.  ``read`` runs ``field``'s validate-only
    reader and keeps a copy of the bytes it spanned (never a view pinning
    the frame); the first access decodes them into the instance
    ``__dict__``.  There is no class-level default."""

    def __init__(self, field: Field):
        self.field, self.pack, self.check = field, field.pack, field.check
        self._validate = field.check or field.read

    def __set_name__(self, owner, name: str) -> None:
        self.name, self.pending = name, "_%s_pending" % name

    def read(self, cursor: Cursor, group) -> _Pending:
        start = cursor.offset
        self._validate(cursor, group)
        return _Pending(cursor.data[start : cursor.offset], group)

    def __set__(self, record, value) -> None:
        key = self.pending if type(value) is _Pending else self.name
        record.__dict__[key] = value

    def __get__(self, record, owner=None):
        if record is None:
            raise AttributeError(self.name)
        values = record.__dict__
        if self.name not in values:
            raw, group = values.pop(self.pending)
            values[self.name] = decode_value(self.field, raw, group)
        return values[self.name]


def pack_fields(fields, record) -> bytes:
    """The walker's encoder: each declared field of ``record``, in order.

    A grouped entry ``(("a", "b"), codec)`` hands its codec the tuple of
    those attributes, for layouts no one field can express alone."""
    return b"".join([
        field.pack(
            getattr(record, name)
            if isinstance(name, str)
            else tuple([getattr(record, n) for n in name])
        )
        for name, field in fields
    ])


def _refusal(factory: Callable, name, exc: Exception) -> SerializationError:
    """``exc`` re-raised as a refusal of ``factory``'s field ``name``."""
    label = name if isinstance(name, str) else "+".join(name)
    return SerializationError(
        "%s%s: %s" % (factory.__name__, label and "." + label, exc)
    )


def read_fields(fields, cursor: Cursor, group, factory: Callable):
    """The walker's decoder: read each declared field, then build.

    A refusal names the field it happened in; a value the constructor
    refuses is malformed input too, so it surfaces as a
    :class:`SerializationError` like every other.
    """
    values = {}
    try:
        for name, field in fields:
            value = field.read(cursor, group)
            if isinstance(name, str):
                values[name] = value
            elif name:
                values.update(zip(name, value))
    except SerializationError as exc:
        raise _refusal(factory, name, exc) from exc
    try:
        return factory(**values)
    except ReproError as exc:
        raise SerializationError("invalid %s: %s" % (factory.__name__, exc)) from exc


def check_fields(fields, cursor: Cursor, group, factory: Callable) -> None:
    """The walker's validator: every refusal :func:`read_fields` makes
    while reading, with the same error, and nothing built (each field's
    ``check``, or its ``read`` with the value dropped)."""
    try:
        for name, field in fields:
            (field.check or field.read)(cursor, group)
    except SerializationError as exc:
        raise _refusal(factory, name, exc) from exc


def decode_fields(fields, payload: bytes, group, factory: Callable):
    """Decode a whole payload: :func:`read_fields`, then nothing left."""
    cursor = Cursor(payload)
    record = read_fields(fields, cursor, group, factory)
    cursor.expect_end()
    return record


def decode_value(field: Field, data: bytes, group=None):
    """Decode ``data`` as exactly one ``field``, nothing left over."""
    cursor = Cursor(data)
    value = field.read(cursor, group)
    cursor.expect_end()
    return value


def check_value(field: Field, data: bytes, group=None) -> None:
    """Every refusal :func:`decode_value` makes, building nothing."""
    cursor = Cursor(data)
    (field.check or field.read)(cursor, group)
    cursor.expect_end()


class Record:
    """A value that declares its ``FIELDS`` in wire order; its codec
    derives from them (DESIGN.md "Record codec").  ``group`` is the
    commitment group the decoder validates elements against."""

    FIELDS: tuple = ()

    def to_bytes(self) -> bytes:
        return pack_fields(self.FIELDS, self)

    @classmethod
    def from_bytes(cls, data: bytes, group=None):
        return decode_fields(cls.FIELDS, data, group, cls)

    @classmethod
    def read_from(cls, cursor: Cursor, group=None):
        return read_fields(cls.FIELDS, cursor, group, cls)

    @classmethod
    def validate(cls, data: bytes, group=None) -> None:
        """Every refusal :meth:`from_bytes` makes, building nothing."""
        cursor = Cursor(data)
        check_fields(cls.FIELDS, cursor, group, cls)
        cursor.expect_end()

    def byte_size(self) -> int:
        """Exact encoded size: ``len(self.to_bytes())``."""
        return len(self.to_bytes())


# -- frames -----------------------------------------------------------------


def encode_frame(
    type_id: int, payload: bytes, max_payload: int = DEFAULT_MAX_FRAME_PAYLOAD
) -> bytes:
    """Wrap a message payload in the versioned, length-prefixed frame."""
    if not 0 <= type_id < (1 << 8):
        raise SerializationError("frame type out of range: %r" % type_id)
    check_frame_length(len(payload), max_payload)
    return _FRAME_HEADER.pack(WIRE_MAGIC, WIRE_VERSION, type_id, len(payload)) + payload


def decode_frame(
    data: bytes, max_payload: int = DEFAULT_MAX_FRAME_PAYLOAD
) -> Tuple[int, bytes]:
    """Parse exactly one frame; rejects bad magic/version/length."""
    type_id, payload, end = _decode_frame_at(data, 0, max_payload)
    if end != len(data):
        raise SerializationError("%d trailing bytes after frame" % (len(data) - end))
    return type_id, payload


def iter_frames(
    data: bytes, max_payload: int = DEFAULT_MAX_FRAME_PAYLOAD
) -> Iterator[Tuple[int, bytes]]:
    """Split a concatenation of frames (a stream read) back into messages."""
    offset = 0
    while offset < len(data):
        type_id, payload, offset = _decode_frame_at(data, offset, max_payload)
        yield type_id, payload


def parse_frame_header(header: bytes) -> Tuple[int, int]:
    """Validate a raw frame header, returning ``(type_id, payload length)``.

    Shared by the in-memory decoders below and the incremental stream
    decoder in :mod:`repro.net.stream`, so magic/version/length policy
    lives in exactly one place.  The length is *not* checked against any
    cap here -- callers apply :func:`check_frame_length` so a stream can
    reject an oversized declaration before waiting for its payload.
    """
    if len(header) != FRAME_HEADER_SIZE:
        raise SerializationError("frame header must be %d bytes" % FRAME_HEADER_SIZE)
    magic, version, type_id, length = _FRAME_HEADER.unpack(header)
    if magic != WIRE_MAGIC:
        raise SerializationError("bad frame magic %r" % magic)
    if version != WIRE_VERSION:
        raise SerializationError(
            "unsupported wire version %d (speaking %d)" % (version, WIRE_VERSION)
        )
    return type_id, length


def _decode_frame_at(
    data: bytes, offset: int, max_payload: int = DEFAULT_MAX_FRAME_PAYLOAD
) -> Tuple[int, bytes, int]:
    cursor = Cursor(data, offset)
    header = cursor.take(FRAME_HEADER_SIZE)
    type_id, length = parse_frame_header(header)
    check_frame_length(length, max_payload)
    payload = cursor.take(length)
    return type_id, payload, cursor.offset
