"""Length-prefixed binary frames for the wire protocol.

One frame is one protocol message.  The layout (all integers
big-endian) is::

    +-------+------+----------+--------------------+
    | magic | type | body len | body               |
    | 4 B   | 1 B  | 4 B      | body-len bytes     |
    +-------+------+----------+--------------------+

``magic`` is ``b"EDN1"`` (protocol name + version); a connection
presenting anything else is dropped with :class:`FrameError` rather
than mis-parsed.

The body is one of two encodings of the same dict-of-fields model,
selected per frame by the high bit of the type byte (so every frame is
self-describing and the two codecs can share a connection):

- **json** (type bit clear) — a UTF-8 JSON object.  Records and
  channel identifiers are encoded by :func:`encode_payload`, which
  extends JSON with tagged forms for the Python values Eden streams
  actually carry (bytes, tuples, :class:`~repro.core.uid.UID`,
  :class:`~repro.core.capability.ChannelCapability`, and dicts with
  non-string keys).  Every peer speaks it; handshake frames always
  use it.
- **binary** (type bit set) — a compact tagged form (one tag byte per
  value, zigzag varints for integers, length-prefixed UTF-8 for
  strings) that needs no base64 detour for bytes and no tag-escaping
  for dicts.  It is negotiated in the HELLO/WELCOME exchange (see
  :mod:`repro.net.handshake`); a peer that never offers it simply
  keeps receiving JSON — codec mixing is per-connection, never a
  protocol fork.

Encoders append into caller-supplied ``bytearray`` buffers
(:func:`encode_frame_into`) so several frames can be coalesced into
one ``write``; a partial frame is never re-copied while it accumulates,
and a complete body is copied once, to the ``bytes`` the codecs index.

Frame types map one-to-one onto the protocol's messages:

- ``HELLO`` / ``WELCOME`` / ``ERROR`` — connection setup (see
  :mod:`repro.net.handshake`);
- ``READ`` — active input's demand (request);
- ``DATA`` — passive output's reply to a ``READ``;
- ``WRITE`` — active output's push (request);
- ``ACK`` — passive input's credit grant (reply; see
  :mod:`repro.net.protocol` for the credit rules);
- ``END`` — end of stream; a reply when answering a ``READ``, a
  request when pushed by a writer;
- ``CTRL`` / ``CTRL_REPLY`` — out-of-band introspection (STATS /
  SPANS / HEALTH; see :mod:`repro.obs.control`).  Control frames are
  exchanged on a separate listener with the raw :func:`read_frame` /
  :func:`write_frame` helpers, never through a counted
  :class:`~repro.net.protocol.Connection`, so observing a fleet does
  not perturb the frame counts the paper's cost model predicts.

Any frame body may additionally carry a ``trace`` field (see
:data:`TRACE_KEY`): the causal span context ``[trace, span, parent]``
of the request or reply.  Peers that do not do span tracing simply
ignore the key, so traced and untraced stages interoperate.

**Logical channels.**  A frame may belong to a *logical channel* —
one of many multiplexed streams sharing a single TCP connection (see
:mod:`repro.net.mux`).  The channel id travels as a header extension,
not a body field, so a relay (the broker) can route frames without
decoding bodies: when bit :data:`CHAN_FLAG` of the type byte is set, a
4-byte big-endian unsigned channel id immediately follows the 9-byte
header, before the body.  The body-length field still counts only the
body.  Frames without the flag (``Frame.chan is None``) are exactly
the pre-channel wire form, so un-multiplexed peers interoperate
unchanged.
"""

from __future__ import annotations

import asyncio
import base64
import enum
import json
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.capability import ChannelCapability
from repro.core.errors import EdenError
from repro.core.uid import UID
from repro.net.bufpool import POOL, BufferPool
from repro.obs.spans import SpanContext

__all__ = [
    "FrameError",
    "FrameType",
    "Frame",
    "FrameDecoder",
    "BufferedFrameReader",
    "cap_transport_reads",
    "SocketFrameReader",
    "MAGIC",
    "HEADER",
    "MAX_FRAME_BODY",
    "MAX_NESTING",
    "READ_CHUNK",
    "DECODER_SHRINK",
    "CODEC_JSON",
    "CODEC_BINARY",
    "CODECS",
    "BINARY_FLAG",
    "CHAN_FLAG",
    "MAX_CHANNEL_ID",
    "encode_payload",
    "decode_payload",
    "encode_frame",
    "encode_frame_into",
    "decode_frame",
    "read_frame",
    "read_frame_sized",
    "write_frame",
    "write_frames",
    "TRACE_KEY",
    "attach_trace",
    "frame_trace",
]

#: Protocol identifier + version, first on every frame.
MAGIC = b"EDN1"

#: Header layout: magic, frame type (with codec flag), body length.
HEADER = struct.Struct("!4sBI")

#: Upper bound on one frame's body, a defence against a corrupt or
#: hostile length prefix allocating unbounded memory.
MAX_FRAME_BODY = 16 * 1024 * 1024

#: Deepest nesting of lists, tuples and dicts in a body (itself level one),
#: on both codecs, encoding and decoding alike: we never emit what we would
#: refuse, and a hostile body of brackets cannot spend the interpreter's stack.
MAX_NESTING = 64

#: The always-available UTF-8 JSON body encoding.
CODEC_JSON = "json"
#: The negotiated compact tagged body encoding.
CODEC_BINARY = "binary"
#: Every codec this implementation speaks, preference first.
CODECS = (CODEC_BINARY, CODEC_JSON)

#: High bit of the type byte: set when the body is binary-encoded.
BINARY_FLAG = 0x80

#: Type-byte flag: a 4-byte channel id follows the header.
CHAN_FLAG = 0x40

#: The channel-id header extension (big-endian unsigned 32-bit).
_CHAN_EXT = struct.Struct("!I")

#: Largest representable logical-channel id.
MAX_CHANNEL_ID = 2**32 - 1

#: Every bit of the type byte that is a flag, not part of the type.
_FLAG_MASK = BINARY_FLAG | CHAN_FLAG


class FrameError(EdenError):
    """A frame could not be encoded, decoded, or was malformed."""


class FrameType(enum.IntEnum):
    """The wire protocol's message vocabulary."""

    HELLO = 1
    WELCOME = 2
    READ = 3
    DATA = 4
    WRITE = 5
    ACK = 6
    END = 7
    ERROR = 8
    CTRL = 9
    CTRL_REPLY = 10


@dataclass(frozen=True)
class Frame:
    """One decoded protocol message: a type plus its JSON body.

    ``chan`` is the logical-channel id the frame travels on, or
    ``None`` for a frame outside any multiplexed connection (the
    pre-channel wire form).
    """

    type: FrameType
    body: dict[str, Any] = field(default_factory=dict)
    chan: int | None = None

    def __str__(self) -> str:
        inner = " ".join(f"{k}={v!r}" for k, v in sorted(self.body.items()))
        label = self.type.name if self.chan is None else (
            f"{self.type.name}@{self.chan}"
        )
        return f"<{label} {inner}>".replace(" >", ">")


# ---------------------------------------------------------------------------
# Body codecs, each one pass over the value: a table of encoders keyed by
# exact type (subclasses — IntEnum, named tuples — take _for_subclass to the
# same bytes) and a table of decoders, not a ladder walked per value.  Table
# entries carry no annotations: every stage compiles this file at start-up.
# ---------------------------------------------------------------------------


def _for_subclass(table: dict[type, Any], value: Any) -> Any:
    """``table``'s handler for the first base ``value`` is an instance of."""
    for base, handler in table.items():
        if isinstance(value, base):
            return handler
    raise FrameError(f"cannot encode {type(value).__name__} payload: {value!r}")


def _nest(depth: int) -> int:
    """The depth of a container's items; refuses a container past the cap."""
    if depth >= MAX_NESTING:
        raise FrameError(f"frame body nests deeper than MAX_NESTING ({MAX_NESTING})")
    return depth + 1


# -- json: plain JSON plus tagged objects -----------------------------------

#: JSON object keys reserved for the tagged extensions, in decoding order.
_TAGS = ("__bytes__", "__tuple__", "__uid__", "__chan__", "__dict__")
_TAG_SET = frozenset(_TAGS)

#: The types JSON carries as they are.
_PLAIN = frozenset((type(None), bool, int, float, str))

# No cycle check: every container passes _nest first, which refuses a
# cycle as too deep before the encoder sees it.
_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False)


def _json_list(value, depth):
    depth = _nest(depth)
    if type(value) is list and _PLAIN.issuperset(map(type, value)):
        return value
    return [item if type(item) in _PLAIN else _to_json(item, depth) for item in value]


def _json_dict(value, depth):
    depth = _nest(depth)
    exact = {str}.issuperset(map(type, value))
    if _TAG_SET.isdisjoint(value) and (exact or all(isinstance(key, str) for key in value)):
        return {key: item if type(item) in _PLAIN else _to_json(item, depth)
                for key, item in value.items()}
    return {"__dict__": [[_to_json(key, depth), _to_json(item, depth)]
                         for key, item in value.items()]}


#: Exact type -> ``encoder(value, depth)``.
_TO_JSON: dict[type, Any] = dict.fromkeys(_PLAIN, lambda value, depth: value)
_TO_JSON.update({
    bytes: lambda value, depth: {"__bytes__": base64.b64encode(value).decode("ascii")},
    list: _json_list,
    tuple: lambda value, depth: {"__tuple__": _json_list(value, depth)},
    dict: _json_dict,
    UID: lambda value, depth: {"__uid__": [value.space, value.serial, value.nonce]},
    ChannelCapability: lambda value, depth: {"__chan__": {
        "owner": [value.owner.space, value.owner.serial, value.owner.nonce],
        "name": value.name, "secret": value.secret}},
})


def _to_json(value: Any, depth: int) -> Any:
    return (_TO_JSON.get(type(value)) or _for_subclass(_TO_JSON, value))(value, depth)


def encode_payload(value: Any) -> Any:
    """Map ``value`` to a JSON-representable form, tagging extensions.

    Supported beyond plain JSON: ``bytes`` (base64), ``tuple``
    (preserved as tuple, not list), :class:`UID`,
    :class:`ChannelCapability`, and dicts whose keys are non-string or
    collide with a reserved tag.  A scalar, or a list of nothing but
    plain scalars, comes back as it is, not copied.
    """
    return _to_json(value, 0)


#: Tag -> the value its (already revived) content stands for.
_FROM_JSON = {
    "__bytes__": base64.b64decode,
    "__tuple__": tuple,
    "__uid__": lambda fields: UID(*fields),
    "__chan__": lambda inner: ChannelCapability(
        owner=UID(*inner["owner"]), name=inner["name"], secret=inner["secret"]),
    "__dict__": dict,
}


def _revive(obj: dict[str, Any]) -> Any:
    """The JSON decoder's ``object_hook``, called innermost object first."""
    if _TAG_SET.isdisjoint(obj):
        return obj
    tag = next(filter(obj.__contains__, _TAGS))
    try:
        return _FROM_JSON[tag](obj[tag])
    except (LookupError, TypeError, ValueError) as error:  # not what the tag says
        raise FrameError(f"malformed {tag} value: {error}") from error


_JSON_DECODER = json.JSONDecoder(object_hook=_revive)


def decode_payload(value: Any) -> Any:
    """Inverse of :func:`encode_payload`."""
    if type(value) is list:
        return [decode_payload(item) for item in value]
    if type(value) is dict:
        return _revive({key: decode_payload(item) for key, item in value.items()})
    return value


# -- binary: one tag byte per value, varints for integers --------------------

_T_NONE, _T_TRUE, _T_FALSE, _T_INT, _T_FLOAT, _T_STR = range(6)
_T_BYTES, _T_LIST, _T_TUPLE, _T_DICT, _T_UID, _T_CHAN = range(6, 12)

_F64 = struct.Struct("!d")

#: ``tag + one-byte length`` of every string shorter than 128 bytes.
_STR_HEADS = [bytes((_T_STR, size)) for size in range(0x80)]


def _put_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _put_int(out: bytearray, value: int) -> None:
    """Append a signed integer as a zigzag varint (any magnitude)."""
    _put_varint(out, (value << 1) if value >= 0 else ((-value << 1) - 1))


def _put_sized(tag: int, data: bytes, out: bytearray) -> None:
    out.append(tag)
    _put_varint(out, len(data))
    out += data


def _put_seq(value, out, depth):
    depth = _nest(depth)
    out.append(_T_TUPLE if isinstance(value, tuple) else _T_LIST)
    _put_varint(out, len(value))
    run = []  # short strings in a row: heads and texts, joined once
    for item in value:
        if type(item) is str:
            data = item.encode("utf-8")
            if len(data) < 0x80:
                run.append(_STR_HEADS[len(data)])
                run.append(data)
                continue
        if run:
            out += b"".join(run)
            run.clear()
        (_PUT.get(type(item)) or _for_subclass(_PUT, item))(item, out, depth)
    out += b"".join(run)


def _put_dict(value, out, depth):
    depth = _nest(depth)
    out.append(_T_DICT)
    _put_varint(out, len(value))
    for pair in value.items():
        for item in pair:
            (_PUT.get(type(item)) or _for_subclass(_PUT, item))(item, out, depth)


def _put_uid(value, out, depth, tag=_T_UID):
    out.append(tag)
    _put_int(out, value.space)
    _put_int(out, value.serial)
    _put_int(out, value.nonce)


def _put_chan(value, out, depth):
    _put_uid(value.owner, out, depth, _T_CHAN)
    name = value.name
    (_PUT.get(type(name)) or _for_subclass(_PUT, name))(name, out, depth)
    _put_int(out, value.secret)


#: Exact type -> ``encoder(value, out, depth)``.
_PUT: dict[type, Any] = {
    type(None): lambda value, out, depth: out.append(_T_NONE),
    bool: lambda value, out, depth: out.append(_T_TRUE if value else _T_FALSE),
    int: lambda value, out, depth: (out.append(_T_INT), _put_int(out, value)),
    float: lambda value, out, depth: (out.append(_T_FLOAT), out.extend(_F64.pack(value))),
    str: lambda value, out, depth: _put_sized(_T_STR, value.encode("utf-8"), out),
    bytes: lambda value, out, depth: _put_sized(_T_BYTES, value, out),
    list: _put_seq,
    tuple: _put_seq,
    dict: _put_dict,
    UID: _put_uid,
    ChannelCapability: _put_chan,
}


def _get_varint(data: bytes, pos: int) -> tuple[int, int]:
    """The unsigned varint at ``pos``; ``IndexError`` if it runs off the end."""
    value = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7
        if shift > 1024:  # > 1024-bit integer: corrupt, not data
            raise FrameError("binary body varint is implausibly long")


def _get_int(data, pos, depth=0):
    raw, pos = _get_varint(data, pos)
    return (-((raw + 1) >> 1) if raw & 1 else raw >> 1), pos


def _get_sized(data, pos, depth):
    is_text = data[pos - 1] == _T_STR
    size, pos = _get_varint(data, pos)
    if pos + size > len(data):
        raise FrameError("truncated binary body: value runs off the end")
    raw = data[pos:pos + size]
    return (raw.decode() if is_text else raw), pos + size


def _get_seq(data, pos, depth):
    depth = _nest(depth)
    as_tuple = data[pos - 1] == _T_TUPLE
    count, pos = _get_varint(data, pos)
    items = []
    push = items.append
    size = len(data)
    for _ in range(count):  # lazy: a hostile count allocates nothing
        if data[pos] == _T_STR:  # inline: the short string, a batch's record
            end = pos + 2 + data[pos + 1]
            if end - pos < 0x82 and end <= size:
                push(data[pos + 2:end].decode())
                pos = end
                continue
        item, pos = _GET[data[pos]](data, pos + 1, depth)
        push(item)
    return (tuple(items) if as_tuple else items), pos


def _get_dict(data, pos, depth):
    depth = _nest(depth)
    count, pos = _get_varint(data, pos)
    pairs = {}
    for _ in range(count):
        key, pos = _GET[data[pos]](data, pos + 1, depth)
        pairs[key], pos = _GET[data[pos]](data, pos + 1, depth)
    return pairs, pos


def _get_uid(data, pos, depth):
    space, pos = _get_int(data, pos)
    serial, pos = _get_int(data, pos)
    nonce, pos = _get_int(data, pos)
    return UID(space, serial, nonce), pos


def _get_chan(data, pos, depth):
    owner, pos = _get_uid(data, pos, depth)
    name, pos = _GET[data[pos]](data, pos + 1, depth)
    secret, pos = _get_int(data, pos)
    return ChannelCapability(owner=owner, name=name, secret=secret), pos


def _bad_tag(data, pos, depth):
    raise FrameError(f"unknown binary value tag 0x{data[pos - 1]:02x}")


#: Tag byte -> ``decoder(data, pos, depth)``, ``pos`` just past the tag: ``(value, end)``.
_GET = (
    lambda data, pos, depth: (None, pos),
    lambda data, pos, depth: (True, pos),
    lambda data, pos, depth: (False, pos),
    _get_int,
    lambda data, pos, depth: (_F64.unpack_from(data, pos)[0], pos + 8),
    _get_sized, _get_sized, _get_seq, _get_seq, _get_dict, _get_uid, _get_chan,
) + (_bad_tag,) * 244


# ---------------------------------------------------------------------------
# Span-context header field.
# ---------------------------------------------------------------------------

#: Reserved body key carrying a span context as ``[trace, span, parent]``.
TRACE_KEY = "trace"


def attach_trace(body: dict[str, Any], context: Any) -> dict[str, Any]:
    """Return ``body`` with ``context`` attached under :data:`TRACE_KEY`.

    ``context`` is a :class:`repro.obs.spans.SpanContext` (or ``None``,
    in which case ``body`` is returned unchanged).  Mutates and returns
    ``body`` for call-site convenience.
    """
    if context is not None:
        body[TRACE_KEY] = context.as_wire()
    return body


def frame_trace(frame: Frame) -> Any:
    """The span context a frame carries, or ``None``.

    Tolerant by design: an absent, malformed or foreign ``trace`` field
    yields ``None`` rather than an error, so an old peer (or another
    implementation) can never break a traced stage.
    """
    wire = frame.body.get(TRACE_KEY)
    return None if wire is None else SpanContext.from_wire(wire)


# ---------------------------------------------------------------------------
# Frame <-> bytes.
# ---------------------------------------------------------------------------


def encode_frame_into(frame: Frame, out: bytearray,
                      codec: str = CODEC_JSON) -> int:
    """Append one frame's wire form to ``out``; return its byte length.

    Appending into a caller-owned buffer lets several frames coalesce
    into one socket write (see :func:`write_frames`) and avoids the
    header-plus-body concatenation copy of the one-shot path.
    """
    start = len(out)
    head = HEADER.size
    if frame.chan is not None:
        if not 0 <= frame.chan <= MAX_CHANNEL_ID:
            raise FrameError(
                f"channel id {frame.chan} outside [0, {MAX_CHANNEL_ID}]"
            )
        head += _CHAN_EXT.size
    out += b"\x00" * head
    body = frame.body
    try:
        if codec == CODEC_BINARY:
            (_PUT.get(type(body)) or _for_subclass(_PUT, body))(body, out, 0)
            type_code = int(frame.type) | BINARY_FLAG
        elif codec == CODEC_JSON:
            out += _JSON_ENCODER.encode(_to_json(body, 0)).encode("utf-8")
            type_code = int(frame.type)
        else:
            raise FrameError(f"unknown codec {codec!r} (expected one of {CODECS})")
        length = len(out) - start - head
        if length > MAX_FRAME_BODY:
            raise FrameError(f"frame body of {length} bytes exceeds MAX_FRAME_BODY")
    except BaseException as error:
        del out[start:]  # a buffer shared between frames keeps only whole ones
        if isinstance(error, (TypeError, ValueError)):  # NaN, a lone surrogate
            raise FrameError(f"unencodable frame body: {error}") from error
        raise
    if frame.chan is not None:
        type_code |= CHAN_FLAG
        _CHAN_EXT.pack_into(out, start + HEADER.size, frame.chan)
    HEADER.pack_into(out, start, MAGIC, type_code, length)
    return len(out) - start


def encode_frame(frame: Frame, codec: str = CODEC_JSON) -> bytes:
    """Serialize one frame to its wire form."""
    out = bytearray()
    encode_frame_into(frame, out, codec)
    return bytes(out)


def _frame_type(type_code: int) -> FrameType:
    """The type byte's :class:`FrameType`, flags stripped.

    Checked *before* any flag-driven header-extension parsing, so a
    garbage type byte whose bits happen to include :data:`CHAN_FLAG`
    reports "unknown frame type", not a misleading extension error.
    """
    try:
        return FrameType(type_code & ~_FLAG_MASK)
    except ValueError as error:
        raise FrameError(
            f"unknown frame type {type_code & ~_FLAG_MASK}"
        ) from error


def _decode_body(type_code: int, data: bytes,
                 chan: int | None = None) -> Frame:
    """Build a Frame from its raw type byte and body bytes.

    The codec is read off the type byte's :data:`BINARY_FLAG`, so
    every frame is self-describing — a connection can switch codecs
    after negotiation without a parser mode change.  ``chan`` is the
    already-parsed channel-id header extension, if the type byte
    carried :data:`CHAN_FLAG`.
    """
    frame_type = _frame_type(type_code)
    try:
        if type_code & BINARY_FLAG:
            body, end = _GET[data[0]](data, 1, 0)
            if end != len(data):
                raise FrameError(f"binary body has {len(data) - end} trailing byte(s)")
        else:
            body = _JSON_DECODER.decode(data.decode("utf-8"))
            if data.count(b"[") + data.count(b"{") > MAX_NESTING:
                _to_json(body, 0)  # enough brackets to pass the cap: encode's own check
    except (IndexError, TypeError, ValueError, RecursionError, struct.error) as error:
        # Ran off the end; bad UTF-8 or JSON; an unhashable key; brackets past the stack.
        raise FrameError(f"truncated or malformed frame body: {error!r}") from error
    if type(body) is not dict:
        raise FrameError(f"frame body must be an object, got {type(body).__name__}")
    return Frame(type=frame_type, body=body, chan=chan)


def decode_frame(buffer: bytes) -> tuple[Frame, int]:
    """Decode one frame from the head of ``buffer``.

    Returns ``(frame, consumed)``.  Raises :class:`FrameError` on a
    malformed header and ``IndexError``-free ``None`` handling is the
    caller's job via :class:`FrameDecoder`; this low-level form demands
    the buffer hold at least one complete frame.
    """
    if len(buffer) < HEADER.size:
        raise FrameError(f"truncated header: {len(buffer)} bytes")
    magic, type_code, length = HEADER.unpack_from(buffer)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if length > MAX_FRAME_BODY:
        raise FrameError(f"declared body of {length} bytes exceeds MAX_FRAME_BODY")
    _frame_type(type_code)
    head = HEADER.size
    chan: int | None = None
    if type_code & CHAN_FLAG:
        head += _CHAN_EXT.size
        if len(buffer) < head:
            raise FrameError("truncated channel-id extension")
        chan = _CHAN_EXT.unpack_from(buffer, HEADER.size)[0]
    if len(buffer) < head + length:
        raise FrameError("truncated body")
    body = bytes(memoryview(buffer)[head : head + length])
    return _decode_body(type_code, body, chan), head + length


#: Residual-buffer size above which :class:`FrameDecoder` right-sizes
#: its allocation once the pending tail drops back to a fraction of it.
DECODER_SHRINK = 64 * 1024


class FrameDecoder:
    """Incremental decoder for a byte stream of frames.

    Feed arbitrary chunks; complete frames come out.  Tolerates frames
    split across (or packed within) TCP segments.  Consumed bytes are
    tracked by a running offset and the buffer is compacted only once
    the consumed prefix outweighs what remains, so feeding a large
    frame chunk-by-chunk costs O(n), not O(n²) re-copies.

    **Shrink guarantee.**  ``del buffer[:offset]`` compaction trims the
    *length* but may leave the *allocation* at whatever a large frame
    grew it to (a CPython resize keeps capacity within a window of the
    new size).  Once the buffer has ever grown past
    ``shrink_threshold`` and the pending tail falls to a quarter of
    that peak, the residue is rebuilt in a fresh right-sized
    ``bytearray`` — one 16 MB frame no longer pins 16 MB for the life
    of the connection.
    """

    def __init__(self, shrink_threshold: int = DECODER_SHRINK,
                 tee: Any = None) -> None:
        self._buffer = bytearray()
        self._offset = 0
        self._shrink = max(1, shrink_threshold)
        self._peak = 0
        #: Optional per-frame raw-bytes observer: called with a
        #: ``memoryview`` of each decoded frame's full wire form (the
        #: flight recorder's inbound hook).  The view borrows the
        #: decoder's buffer — consume it synchronously, never store it.
        self.tee = tee

    def feed_sized(self, data: Any) -> list[tuple[Frame, int]]:
        """Absorb ``data``; return ``(frame, wire_bytes)`` per frame.

        ``wire_bytes`` is each frame's full on-wire size (header plus
        any channel extension plus body), so byte accounting survives
        segment-oriented reads.  Accepts ``bytes``, ``bytearray`` or
        ``memoryview`` — a ``recv_into`` scratch slice feeds directly.
        """
        self._buffer += data
        buffer = self._buffer
        if len(buffer) > self._peak:
            self._peak = len(buffer)
        offset = self._offset
        frames: list[tuple[Frame, int]] = []
        view = memoryview(buffer)
        try:
            while True:
                if len(buffer) - offset < HEADER.size:
                    break
                magic, type_code, length = HEADER.unpack_from(buffer, offset)
                if magic != MAGIC:
                    raise FrameError(f"bad magic {bytes(magic)!r}")
                if length > MAX_FRAME_BODY:
                    raise FrameError(
                        f"declared body of {length} bytes exceeds cap"
                    )
                _frame_type(type_code)
                body_start = offset + HEADER.size
                chan: int | None = None
                if type_code & CHAN_FLAG:
                    if len(buffer) - body_start < _CHAN_EXT.size:
                        break
                    chan = _CHAN_EXT.unpack_from(buffer, body_start)[0]
                    body_start += _CHAN_EXT.size
                if len(buffer) - body_start < length:
                    break
                frames.append((
                    _decode_body(
                        type_code, bytes(view[body_start:body_start + length]),
                        chan,
                    ),
                    body_start + length - offset,
                ))
                if self.tee is not None:
                    self.tee(view[offset:body_start + length])
                offset = body_start + length
        finally:
            view.release()
        if offset and offset * 2 >= len(buffer):
            del buffer[:offset]
            offset = 0
        if (self._peak > self._shrink
                and (len(buffer) - offset) * 4 <= self._peak):
            self._buffer = bytearray(memoryview(buffer)[offset:])
            self._offset = 0
            self._peak = len(self._buffer)
        else:
            self._offset = offset
        return frames

    def feed(self, data: Any) -> list[Frame]:
        """Absorb ``data``; return every frame completed by it."""
        return [frame for frame, _size in self.feed_sized(data)]

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting a complete frame."""
        return len(self._buffer) - self._offset

    @property
    def buffer_size(self) -> int:
        """Current internal buffer length (shrink-fix observability)."""
        return len(self._buffer)


# ---------------------------------------------------------------------------
# asyncio stream helpers.
# ---------------------------------------------------------------------------


async def read_frame_sized(
    reader: asyncio.StreamReader,
) -> tuple[Frame | None, int]:
    """Read one frame; returns ``(frame, wire_bytes)``, frame None on EOF."""
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None, 0
        raise FrameError("connection closed mid-header") from error
    magic, type_code, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if length > MAX_FRAME_BODY:
        raise FrameError(f"declared body of {length} bytes exceeds cap")
    _frame_type(type_code)
    head = HEADER.size
    chan: int | None = None
    if type_code & CHAN_FLAG:
        try:
            ext = await reader.readexactly(_CHAN_EXT.size)
        except asyncio.IncompleteReadError as error:
            raise FrameError("connection closed mid-channel-id") from error
        chan = _CHAN_EXT.unpack(ext)[0]
        head += _CHAN_EXT.size
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise FrameError("connection closed mid-body") from error
    return _decode_body(type_code, body, chan), head + length


async def read_frame(reader: asyncio.StreamReader) -> Frame | None:
    """Read exactly one frame; ``None`` on clean EOF at a frame edge."""
    frame, _wire_bytes = await read_frame_sized(reader)
    return frame


#: Default segment size for the buffered frame readers: big enough to
#: swallow a pipelined burst in one read, small enough to recycle.
READ_CHUNK = 64 * 1024


def cap_transport_reads(writer: Any) -> None:
    """Make ``writer``'s transport read ``READ_CHUNK`` bytes per wake-up.

    asyncio's selector transport answers every readable event with
    ``sock.recv(256 KiB)``: a fresh 256 KiB ``bytes``, shrunk to what
    arrived.  glibc serves an allocation that size from the top of the
    heap and gives it back, and whether each read then costs a
    grow-and-trim of the heap (a page fault per read) depends on where
    the heap top happens to sit — the same push chain ran at 35k or at
    46k records/s by the length of its command line
    (``docs/performance.md``, "One path per verb").  The frame readers
    take ``READ_CHUNK`` bytes at a time anyway, and an allocation that
    size is recycled, not trimmed.  ``max_size`` is CPython's selector
    transport's attribute, not asyncio API: a transport without it (a
    test double, another loop) is left alone.
    """
    transport = getattr(writer, "transport", None)
    if getattr(transport, "max_size", 0) > READ_CHUNK:
        transport.max_size = READ_CHUNK


class BufferedFrameReader:
    """Frame source that reads whole segments, not exact field sizes.

    :func:`read_frame_sized` awaits ``readexactly`` two or three times
    per frame, and each await returns a fresh ``bytes`` object.  This
    reader instead pulls whatever the transport already has (up to
    ``chunk`` bytes) and runs it through one incremental
    :class:`FrameDecoder`, so a single await — and a single buffer
    append — amortises over every frame the segment carried.  A
    pipelined burst of small DATA frames decodes out of one read.

    :meth:`recv_nowait` hands out frames that are already decoded
    without touching the socket; the pull server uses it to batch all
    the READs one segment carried into a single vectored reply burst.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 chunk: int = READ_CHUNK, tee: Any = None) -> None:
        self._reader = reader
        self._decoder = FrameDecoder(tee=tee)
        self._chunk = chunk
        self._ready: deque[tuple[Frame, int]] = deque()
        self._eof = False

    async def recv(self) -> tuple[Frame | None, int]:
        """Next frame as ``(frame, wire_bytes)``; ``(None, 0)`` on EOF."""
        while not self._ready:
            if self._eof:
                return None, 0
            data = await self._reader.read(self._chunk)
            if not data:
                self._eof = True
                if self._decoder.pending:
                    raise FrameError("connection closed mid-frame")
                return None, 0
            self._ready.extend(self._decoder.feed_sized(data))
        return self._ready.popleft()

    def recv_nowait(self) -> tuple[Frame, int] | None:
        """An already-decoded ``(frame, wire_bytes)``, else ``None``.

        Never performs I/O, so "nothing ready" only means the last
        segment is fully served — more may be sitting in the kernel.
        """
        return self._ready.popleft() if self._ready else None

    @property
    def buffered(self) -> int:
        """Frames decoded and waiting to be served."""
        return len(self._ready)


class SocketFrameReader:
    """The segment-oriented frame source over a plain blocking socket.

    Reads with ``recv_into`` against one reusable scratch buffer, so
    steady-state receiving allocates nothing per segment — the true
    zero-copy read path.  The asyncio data plane cannot use it (a
    transport owns its socket; raw ``recv`` beside it would corrupt
    the stream) and uses :class:`BufferedFrameReader` instead; this
    class serves synchronous tooling, tests, and benchmark probes.
    """

    def __init__(self, sock: Any, chunk: int = READ_CHUNK) -> None:
        self._sock = sock
        self._scratch = bytearray(chunk)
        self._view = memoryview(self._scratch)
        self._decoder = FrameDecoder()
        self._ready: deque[tuple[Frame, int]] = deque()
        self._eof = False

    def recv(self) -> tuple[Frame | None, int]:
        """Next frame as ``(frame, wire_bytes)``; ``(None, 0)`` on EOF."""
        while not self._ready:
            if self._eof:
                return None, 0
            count = self._sock.recv_into(self._view)
            if not count:
                self._eof = True
                if self._decoder.pending:
                    raise FrameError("connection closed mid-frame")
                return None, 0
            self._ready.extend(self._decoder.feed_sized(self._view[:count]))
        return self._ready.popleft()


def _release_after_write(pool: BufferPool | None,
                         writer: asyncio.StreamWriter,
                         out: bytearray) -> None:
    """Recycle ``out`` once the transport can no longer reference it.

    asyncio's built-in transports copy on ``write`` (immediate send,
    or an extend into their own buffer), so recycling after ``drain``
    is safe.  For any transport still holding queued bytes we cannot
    prove the copy, so the buffer is dropped to the allocator instead
    of recycled — correctness over hit rate.
    """
    if pool is None:
        return
    transport = getattr(writer, "transport", None)
    try:
        busy = transport is not None and transport.get_write_buffer_size() > 0
    except Exception:
        busy = True
    if not busy:
        pool.release(out)


async def write_frame(
    writer: asyncio.StreamWriter, frame: Frame, codec: str = CODEC_JSON,
    pool: BufferPool | None = POOL, tee: Any = None,
) -> int:
    """Send one frame; returns the bytes put on the wire.

    The wire form is built in a pooled ``bytearray`` (recycled
    allocation, no per-frame garbage); pass ``pool=None`` to opt out.
    ``tee`` observes the encoded wire bytes before the write — the
    flight recorder's outbound hook, reusing the pooled buffer rather
    than re-encoding or copying the frame.
    """
    return await write_frames(writer, (frame,), codec, pool, tee)


async def write_frames(
    writer: asyncio.StreamWriter,
    frames: Sequence[Frame],
    codec: str = CODEC_JSON,
    pool: BufferPool | None = POOL,
    tee: Any = None,
) -> int:
    """Send several frames in one coalesced write; returns wire bytes.

    One pooled buffer, one ``write``, one ``drain`` — a pipelined
    burst of READs (or a credit window of WRITEs) costs a single
    syscall instead of one per frame.  ``tee`` observes each frame's
    wire slice of the shared buffer individually, so a coalesced burst
    still records one flight event per frame.
    """
    out = pool.acquire() if pool is not None else bytearray()
    try:
        sizes = [encode_frame_into(frame, out, codec) for frame in frames]
    except BaseException:
        if pool is not None:
            pool.release(out)  # nothing was written: the buffer is still ours
        raise
    size = len(out)
    if tee is not None:
        with memoryview(out) as view:
            position = 0
            for frame_size in sizes:
                tee(view[position:position + frame_size])
                position += frame_size
    writer.write(out)
    await writer.drain()
    _release_after_write(pool, writer, out)
    return size
