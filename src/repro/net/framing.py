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
one ``write``.

**Reading frames.**  Every socket receives through one
:class:`FrameProtocol`, installed by the first frame it reads — a
HELLO or WELCOME, a control request or reply, the chaos proxy's first
frame, a broker admission — and kept by the
:class:`~repro.net.protocol.Connection` or
:class:`~repro.net.mux.ChannelMux` that takes the socket over.  It
splits each read into frames in one owned receive buffer, checking
every header in one place (:meth:`FrameDecoder._feed`), and decodes
each body as it is split.  The broker relay and the chaos proxy turn
decoding off and forward each frame's own wire bytes
(:meth:`FrameProtocol.recv_wire`) without decoding its body.

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
  exchanged on a separate listener, written with :func:`write_frame`
  and read through a bare :class:`FrameProtocol`, never through a
  counted :class:`~repro.net.protocol.Connection`, so observing a fleet
  does not perturb the frame counts the paper's cost model predicts.

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
from typing import Any

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
    "FrameProtocol",
    "MAGIC",
    "HEADER",
    "MAX_FRAME_BODY",
    "MAX_NESTING",
    "READ_CHUNK",
    "FRAMES_HIGH_WATER",
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
    "readdress",
    "write_frame",
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


#: The type byte (flags and all) -> its :class:`FrameType`, ``None`` for
#: a byte naming no type: one index per inbound frame, no enum call.
_TYPE_OF = tuple(map({int(t): t for t in FrameType}.get,
                     (code & ~_FLAG_MASK for code in range(256))))


@dataclass(slots=True)
class Frame:
    """One decoded protocol message: a type plus its JSON body.

    ``chan`` is the logical-channel id the frame travels on, or
    ``None`` for a frame outside any multiplexed connection (the
    pre-channel wire form).  Derive a variant with ``replace``.
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

#: ``_JSON_ENCODER`` as chunks: ``JSONEncoder.encode`` builds json's C
#: encoder anew on every call; this is that encoder, built once.
_JSON_CHUNKS = (
    json.encoder.c_make_encoder(
        None, _JSON_ENCODER.default, json.encoder.encode_basestring_ascii,
        None, ":", ",", False, False, False)
    if json.encoder.c_make_encoder is not None
    else lambda value, _level: (_JSON_ENCODER.encode(value),)
)


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
#: The decoder's scanner: one value at an index, no whitespace skipped.
_JSON_SCAN = _JSON_DECODER.scan_once


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

    Appending into a caller-owned (pooled) buffer avoids the
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
            out += "".join(_JSON_CHUNKS(_to_json(body, 0), 0)).encode("utf-8")
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


def readdress(wire: Any, chan: int) -> bytes:
    """The channel-addressed frame ``wire`` moved to channel ``chan``.

    Only the channel extension changes; the body is copied as it was
    encoded, never decoded — how a relay or a splice hands a frame from
    one end of a route to the other.
    """
    head = HEADER.size
    return b"".join((wire[:head], _CHAN_EXT.pack(chan),
                     wire[head + _CHAN_EXT.size:]))


def _decode(wire: bytes) -> Frame:
    """The frame whose whole wire form is ``wire``, its header already
    checked by :meth:`FrameDecoder._feed`.

    The codec is read off the type byte's :data:`BINARY_FLAG`, so
    every frame is self-describing — a connection can switch codecs
    after negotiation without a parser mode change.  The body is the
    tail of ``wire``, decoded where it lies.
    """
    type_code = wire[4]
    head = HEADER.size
    chan = None
    if type_code & CHAN_FLAG:
        chan = _CHAN_EXT.unpack_from(wire, head)[0]
        head += _CHAN_EXT.size
    try:
        if type_code & BINARY_FLAG:
            body, end = _GET[wire[head]](wire, head + 1, 0)
            if end != len(wire):
                raise FrameError(f"binary body has {len(wire) - end} trailing byte(s)")
        else:
            text = wire[head:].decode("utf-8")
            try:
                body, end = _JSON_SCAN(text, 0)
            except StopIteration:
                end = -1
            if end != len(text):  # whitespace around it, or not JSON at all
                body = _JSON_DECODER.decode(text)
            if len(text) > MAX_NESTING and text.count("[") + text.count("{") > MAX_NESTING:
                _to_json(body, 0)  # enough brackets to pass the cap: encode's own check
    except (IndexError, TypeError, ValueError, RecursionError, struct.error) as error:
        # Ran off the end; bad UTF-8 or JSON; an unhashable key; brackets past the stack.
        raise FrameError(f"truncated or malformed frame body: {error!r}") from error
    if type(body) is not dict:
        raise FrameError(f"frame body must be an object, got {type(body).__name__}")
    return Frame(_TYPE_OF[type_code], body, chan)


def decode_frame(buffer: Any) -> tuple[Frame, int]:
    """Decode the frame at the head of ``buffer``: ``(frame, consumed)``.

    ``buffer`` must hold at least one whole frame; a malformed header
    or body, or too few bytes, raises :class:`FrameError`.
    """
    frames: list[tuple[Frame, bytes]] = []
    FrameDecoder()._feed(buffer, frames, 1)
    if not frames:
        raise FrameError(f"truncated frame: {len(buffer)} bytes hold no whole frame")
    frame, wire = frames[0]
    return frame, len(wire)


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

    ``cap`` bounds a declared body (default :data:`MAX_FRAME_BODY`); a
    reader that expects less, such as a control client, refuses more at
    the header.
    """

    def __init__(self, shrink_threshold: int = DECODER_SHRINK,
                 tee: Any = None, cap: int = MAX_FRAME_BODY) -> None:
        self._buffer = bytearray()
        self._offset = 0
        self._shrink = max(1, shrink_threshold)
        self._peak = 0
        self.cap = cap
        #: Optional per-frame raw-bytes observer (the flight recorder's
        #: inbound hook): called with each decoded frame's wire bytes.
        self.tee = tee

    def feed_sized(self, data: Any) -> list[tuple[Frame, int]]:
        """Absorb ``data``; return ``(frame, wire_bytes)`` per frame.

        ``wire_bytes`` is each frame's full on-wire size (header plus
        any channel extension plus body), so byte accounting survives
        segment-oriented reads.  Accepts ``bytes``, ``bytearray`` or
        ``memoryview`` — a ``recv_into`` scratch slice feeds directly.
        While no partial frame is pending, frames are split straight
        out of ``data`` and only an incomplete tail is copied.
        """
        frames: list[tuple[Frame, bytes]] = []
        self._feed(data, frames)
        if self.tee is not None:
            for _frame, wire in frames:
                self.tee(wire)
        return [(frame, len(wire)) for frame, wire in frames]

    def _feed(self, data: Any, out: Any, room: int = -1,
              decoding: bool = True) -> None:
        """Append ``(frame, wire bytes)`` for each whole frame to ``out``
        — up to ``room`` frames, no limit when negative — keeping the
        rest pending.  ``frame`` is ``None`` unless ``decoding``.

        The one place a header is checked: magic, type, the declared
        length against ``cap`` and the channel extension.  A bad header
        raises once the frames before it are in ``out``, before a byte
        of its body is awaited; so does a body that does not decode.
        """
        buffer = self._buffer
        offset = self._offset
        if offset < len(buffer):  # a partial frame is pending: complete it
            buffer += data
            source = buffer
        else:
            source = data
            offset = 0
        size = len(source)
        view = memoryview(source)
        push = out.append
        cap = self.cap
        try:
            while room and size - offset >= HEADER.size:
                magic, type_code, length = HEADER.unpack_from(source, offset)
                if magic != MAGIC:
                    raise FrameError(f"bad magic {bytes(magic)!r} (expected {MAGIC!r})")
                if length > cap:
                    raise FrameError(
                        f"declared body of {length} bytes exceeds cap: over the "
                        f"{cap}-byte bound (MAX_FRAME_BODY is {MAX_FRAME_BODY})")
                if _TYPE_OF[type_code] is None:
                    raise FrameError(f"unknown frame type {type_code & ~_FLAG_MASK}")
                end = offset + HEADER.size + length
                if type_code & CHAN_FLAG:
                    end += _CHAN_EXT.size
                if end > size:
                    break
                wire = bytes(view[offset:end])
                push((_decode(wire) if decoding else None, wire))
                offset = end
                room -= 1
        finally:
            view.release()
        if source is not buffer:  # decoded in place: copy only the tail
            if offset < size:
                buffer += memoryview(source)[offset:]
            offset = 0
        if len(buffer) > self._peak:
            self._peak = len(buffer)
        if offset and offset * 2 >= len(buffer):
            del buffer[:offset]
            offset = 0
        if self._peak > self._shrink and (len(buffer) - offset) * 4 <= self._peak:
            self._buffer = bytearray(memoryview(buffer)[offset:])
            self._offset = 0
            self._peak = len(self._buffer)
        else:
            self._offset = offset

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
# The receive side of every socket.
# ---------------------------------------------------------------------------


#: The one receive buffer a :class:`FrameProtocol` owns: big enough to
#: swallow a pipelined burst in one read, small enough that glibc
#: recycles it instead of trimming the heap on every read.
READ_CHUNK = 64 * 1024

#: Frames a :class:`FrameProtocol` holds for its reader before it stops
#: reading the socket; it reads again once half are taken.
FRAMES_HIGH_WATER = 256


class FrameProtocol(asyncio.BufferedProtocol):
    """The receive side of one framed socket: bytes to frames.

    The first frame a socket reads installs it (:meth:`of`): a
    handshake's HELLO or WELCOME, a control request or reply, a relay's
    first frame.  Whatever takes the socket over afterwards — a
    :class:`~repro.net.protocol.Connection`, a
    :class:`~repro.net.mux.ChannelMux`, the broker relay — keeps the same
    instance.  It takes the transport from the stream pair and first
    splits what the ``StreamReader`` already held; then each read lands
    in one owned :data:`READ_CHUNK` buffer and is split into frames
    there, every header checked by :meth:`FrameDecoder._feed`.  Each
    frame's body is decoded as it is split, while its bytes are hot,
    unless ``decoding`` is off: a relay takes each frame's own wire
    bytes with :meth:`recv_wire` and never decodes a body.

    - A declared body past ``cap`` (:data:`MAX_FRAME_BODY` unless the
      reader expects less) fails at its header, and the socket is read
      no further.
    - At :data:`FRAMES_HIGH_WATER` frames not yet taken it stops
      reading, so backpressure reaches the kernel's socket buffers.
    - Frames ahead of a malformed header, of a body that does not
      decode, or of EOF inside a frame are handed out before the
      :class:`FrameError`.
    - The stream's ``StreamWriter`` keeps writing, draining and
      closing: flow-control and connection-lost events are passed on
      to the stream's protocol.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, cap: int = MAX_FRAME_BODY,
                 decoding: bool = True) -> None:
        self.transport = transport = writer.transport
        self._stream = transport.get_protocol()
        self._loop = asyncio.get_running_loop()
        self._decoder = FrameDecoder(cap=cap)
        self._chunk = memoryview(bytearray(READ_CHUNK))
        #: Decode bodies as frames are split; a relay turns this off.
        self.decoding = decoding
        #: Optional observer (the flight recorder's inbound hook) of the
        #: wire bytes of every frame :meth:`recv` or :meth:`recv_nowait`
        #: hands out.
        self.tee: Any = None
        #: ``(frame, wire bytes)`` of each frame read and not yet taken;
        #: ``frame`` is ``None`` when it was split without ``decoding``.
        self.ready: deque[tuple[Frame | None, bytes]] = deque()
        self._waiter: asyncio.Future[None] | None = None
        self._paused = self._eof = False
        self._error: BaseException | None = None
        transport.set_protocol(self)
        transport.resume_reading()  # the stream reader may have paused it
        held = reader._buffer  # asyncio has no non-blocking read
        self._split(bytes(held))
        del held[:]
        self._eof = reader.at_eof()
        self._error = self._error or reader.exception()

    @classmethod
    def of(cls, reader: asyncio.StreamReader,
           writer: asyncio.StreamWriter) -> "FrameProtocol":
        """The protocol receiving on this stream pair's socket, installed
        now if the socket has read no frame yet."""
        frames = writer.transport.get_protocol()
        return frames if isinstance(frames, cls) else cls(reader, writer)

    # -- asyncio.BufferedProtocol -------------------------------------------

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._chunk

    def buffer_updated(self, nbytes: int) -> None:
        self._split(self._chunk[:nbytes])

    def eof_received(self) -> bool:
        self._eof = True
        self._wake()
        return True  # half-close: the peer may still read our replies

    def connection_lost(self, exc: Exception | None) -> None:
        self._eof = True
        if self._error is None:
            self._error = exc
        self._wake()
        self._stream.connection_lost(exc)

    def pause_writing(self) -> None:
        self._stream.pause_writing()

    def resume_writing(self) -> None:
        self._stream.resume_writing()

    # -- the reader's side ---------------------------------------------------

    async def recv(self) -> tuple[Frame | None, int]:
        """Next decoded ``(frame, wire_bytes)``; ``(None, 0)`` at a clean EOF."""
        while not self.ready:
            if self._error is not None or self._eof:
                self._end()
                return None, 0
            self._waiter = self._loop.create_future()
            await self._waiter
        return self.recv_nowait()

    def recv_nowait(self) -> tuple[Frame, int] | None:
        """A decoded ``(frame, wire_bytes)`` if one is waiting (no I/O)."""
        ready = self.ready
        if not ready:
            return None
        if self._paused and len(ready) <= FRAMES_HIGH_WATER // 2:
            self._resume()
        frame, wire = ready.popleft()
        if self.tee is not None:
            self.tee(wire)
        return frame, len(wire)

    async def recv_wire(self) -> bytes | None:
        """The next frame's own wire bytes; ``None`` at a clean EOF."""
        ready = self.ready
        while not ready:
            if self._error is not None or self._eof:
                self._end()
                return None
            self._waiter = self._loop.create_future()
            await self._waiter
        if self._paused and len(ready) <= FRAMES_HIGH_WATER // 2:
            self._resume()
        return ready.popleft()[1]

    # -- internals -----------------------------------------------------------

    def _end(self) -> None:
        """Every frame is taken and no more will come: return at a clean
        EOF, else raise what broke the stream."""
        if self._error is not None:
            raise self._error
        pending = self._decoder.pending
        if pending:
            got = (f" mid-header: got {pending} of {HEADER.size}"
                   if pending < HEADER.size else f": got {pending}")
            raise FrameError(f"connection closed mid-frame (truncated{got} bytes)")

    def _split(self, data: Any) -> None:
        if self._error is not None:
            return  # the stream is broken past this point
        ready = self.ready
        try:
            self._decoder._feed(data, ready, FRAMES_HIGH_WATER - len(ready),
                                self.decoding)
        except FrameError as error:
            self._error = error
            self.transport.pause_reading()
        if len(ready) >= FRAMES_HIGH_WATER:
            self._paused = True
            self.transport.pause_reading()
        waiter = self._waiter  # _wake, inline: this runs once per read
        if waiter is not None:
            self._waiter = None
            if not waiter.done():
                waiter.set_result(None)

    def _resume(self) -> None:
        """Split what the high-water mark held back; then read again."""
        self._paused = False
        self._split(b"")
        if not self._paused and self._error is None:
            self.transport.resume_reading()

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            if not waiter.done():
                waiter.set_result(None)


# ---------------------------------------------------------------------------
# Sending one frame on a stream.
# ---------------------------------------------------------------------------


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
    out = pool.acquire() if pool is not None else bytearray()
    try:
        size = encode_frame_into(frame, out, codec)
    except BaseException:
        if pool is not None:
            pool.release(out)  # nothing was written: the buffer is still ours
        raise
    if tee is not None:
        tee(out)
    writer.write(out)
    await writer.drain()
    _release_after_write(pool, writer, out)
    return size
