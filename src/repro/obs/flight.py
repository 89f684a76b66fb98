"""The flight recorder: bounded capture of every frame a stage moves.

Spans and counters say *how much* crossed a link; the paper's argument
is about *what* crossed it.  A :class:`FlightRecorder` tees the raw
wire form of every frame a runtime sends or receives — at the
:class:`~repro.net.protocol.Connection` / :mod:`repro.net.mux` layer,
where the pooled encode buffers and decoder views already hold the
bytes, so capture adds no extra copy — into rotating per-stage
*segment files* under one ``--flight-dir``.  The capture is bounded
(``segment_bytes`` × ``max_segments``, oldest segment dropped first)
so it can stay on in production, and it has two fidelities:

- ``full`` — each record carries the frame's complete wire bytes.
  Decoding a capture reproduces the exact frames (bit-exact, any
  codec mix), which is what the deterministic replay engine
  (:mod:`repro.obs.replay`) feeds back through the sim kernel.
- ``digest`` — each record carries only a CRC-32 of the wire bytes.
  Direction, type, channel, timestamps and sizes survive — enough
  for timelines, conformance checks and capture diffing — at a cost
  low enough for hot paths (benchmark T16 gates it at <= 5 %).

Segment layout (all integers big-endian)::

    +--------+----------+--------------------+---------------------+
    | b"EFL1"| meta len | meta JSON          | records ...         |
    | 4 B    | 4 B      | meta-len bytes     |                     |
    +--------+----------+--------------------+---------------------+

    record:  flags(1) type(1) mono(8,f64) wire_len(4) [chan(4)] payload

``flags`` bit 0 = outbound, bit 1 = digest payload, bit 2 = channel id
present.  ``payload`` is the wire bytes (``wire_len`` of them) in full
mode, or a 4-byte CRC-32 in digest mode.  The metadata JSON anchors
the segment's monotonic clock to the wall clock (the same
``mono``/``wall`` pairing span logs use), and carries whatever the
recording runtime knows about itself — role, discipline, serial,
transducer spec — which is what lets the replay engine rebuild the
pipeline from the capture alone.

A segment whose final record was cut off mid-write (the process died)
loads cleanly: the loader keeps every complete record and flags the
capture ``truncated`` instead of raising.
"""

from __future__ import annotations

import json
import pathlib
import re
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.errors import EdenError
from repro.net.framing import Frame, FrameType, decode_frame
from repro.obs.flightmode import FLIGHT_MODES, MODE_DIGEST, MODE_FULL

__all__ = [
    "FLIGHT_MAGIC",
    "FLIGHT_MODES",
    "MODE_FULL",
    "MODE_DIGEST",
    "DEFAULT_SEGMENT_BYTES",
    "DEFAULT_MAX_SEGMENTS",
    "FlightError",
    "FlightRecorder",
    "FlightRecord",
    "FlightCapture",
    "frame_digest",
    "load_segment",
    "load_capture",
    "load_flight_dir",
]

#: Segment-file identifier + version, first in every segment.
FLIGHT_MAGIC = b"EFL1"

#: Default rotation threshold per segment file.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024
#: Default segment count bound; the oldest segment is dropped first.
DEFAULT_MAX_SEGMENTS = 8

#: Record header: flags, raw type byte, monotonic time, wire length.
_REC = struct.Struct("!BBdI")
#: Optional channel-id extension following the record header.
_CHAN = struct.Struct("!I")
#: Segment metadata length prefix.
_META_LEN = struct.Struct("!I")

_OUT_BIT = 0x01
_DIGEST_BIT = 0x02
_CHAN_BIT = 0x04

#: Wire-header offsets the recorder parses without decoding bodies
#: (see :mod:`repro.net.framing`: magic 4, type 1, body length 4).
_TYPE_OFFSET = 4
_WIRE_CHAN_OFFSET = 9
_WIRE_CHAN_FLAG = 0x40


class FlightError(EdenError):
    """A flight segment could not be written or loaded."""


def frame_digest(data: Any) -> int:
    """CRC-32 of one frame's wire bytes (the digest-mode payload)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def _safe_label(label: str) -> str:
    """A filesystem-safe directory name for a stage label."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label) or "stage"


class FlightRecorder:
    """Append frame events to rotating segment files, bounded.

    One recorder per process (or per stage), shared by every
    connection and mux channel the stage owns; asyncio's single-thread
    model makes the interleaved appends safe.  ``meta`` is embedded in
    every segment header — pass whatever a replayer needs to rebuild
    the stage (role, discipline, serial, transducer spec).

    When ``stats`` is given, the recorder keeps ``flight_frames``,
    ``flight_bytes`` (wire bytes captured) and ``flight_segments``
    gauges fresh, which is what ``eden-top``'s FLIGHT column renders.
    """

    def __init__(
        self,
        directory: str,
        label: str,
        mode: str = MODE_FULL,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        max_segments: int = DEFAULT_MAX_SEGMENTS,
        meta: dict[str, Any] | None = None,
        stats: Any = None,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        if mode not in FLIGHT_MODES:
            raise ValueError(
                f"flight mode must be one of {FLIGHT_MODES}, got {mode!r}"
            )
        if segment_bytes < 1024:
            raise ValueError(
                f"segment_bytes must be >= 1024, got {segment_bytes}"
            )
        if max_segments < 1:
            raise ValueError(f"max_segments must be >= 1, got {max_segments}")
        self.label = label
        self.mode = mode
        self.segment_bytes = segment_bytes
        self.max_segments = max_segments
        self.meta = dict(meta or {})
        self.stats = stats
        self.clock = clock
        self.wall_clock = wall_clock
        self.path = pathlib.Path(directory) / _safe_label(label)
        self.path.mkdir(parents=True, exist_ok=True)
        self.frames = 0
        self.bytes_captured = 0
        self.segments_written = 0
        #: Wall seconds spent inside :meth:`record` — the recorder's
        #: directly-attributed cost, published as ``flight_record_ms``
        #: and gated by the T16 benchmark.  The accumulator includes
        #: its own clock reads, so it over- rather than under-counts.
        self.record_seconds = 0.0
        self._digest = mode == MODE_DIGEST
        self._out: Any = None
        self._segment_size = 0
        self._segment_paths: list[pathlib.Path] = []
        self._closed = False
        # Pre-bound for the per-frame path (T16 gates it at <= 5 %).
        self._pack_rec = _REC.pack
        self._pack_chan = _CHAN.pack
        self._crc32 = zlib.crc32
        self._mode_bit = _DIGEST_BIT if self._digest else 0

    # -- the hot path --------------------------------------------------------

    def on_sent(self, data: Any) -> None:
        """Record one outbound frame's wire bytes (no copy taken)."""
        self.record(True, data)

    def on_received(self, data: Any) -> None:
        """Record one inbound frame's wire bytes (no copy taken)."""
        self.record(False, data)

    def record(self, outbound: bool, data: Any) -> None:
        """Append one frame event; ``data`` is the full wire form."""
        if self._closed:
            return
        mono = self.clock()
        wire_len = len(data)
        type_byte = data[_TYPE_OFFSET] if wire_len > _TYPE_OFFSET else 0
        flags = self._mode_bit | (_OUT_BIT if outbound else 0)
        # The channel id is lifted off the wire header here because a
        # digest payload cannot recover it at load time.  ``data`` may
        # be a memoryview borrowing an encoder or decoder buffer, so
        # the 4-byte chan slice is materialised with bytes().
        if type_byte & _WIRE_CHAN_FLAG:
            head = self._pack_rec(
                flags | _CHAN_BIT, type_byte, mono, wire_len,
            ) + bytes(data[_WIRE_CHAN_OFFSET : _WIRE_CHAN_OFFSET + 4])
        else:
            head = self._pack_rec(flags, type_byte, mono, wire_len)
        digest = self._digest
        record_size = len(head) + (4 if digest else wire_len)
        out = self._out
        if out is None or (
            self._segment_size
            and self._segment_size + record_size > self.segment_bytes
        ):
            self._rotate()
            out = self._out
        if digest:
            # One buffered write: header and 4-byte CRC concatenated.
            out.write(head + self._pack_chan(self._crc32(data) & 0xFFFFFFFF))
        else:
            out.write(head)
            out.write(data)
        self._segment_size += record_size
        self.frames += 1
        self.bytes_captured += wire_len
        self.record_seconds += self.clock() - mono
        # Gauges feed eden-top's FLIGHT column; refreshing them every
        # frame costs three dict stores on the hot path, so publish
        # every 256 frames (and on flush/close, so nothing is stale
        # when anyone actually looks).
        if self.stats is not None and not self.frames & 0xFF:
            self._publish_gauges()

    def _publish_gauges(self) -> None:
        if self.stats is None:
            return
        self.stats.set_gauge("flight_frames", float(self.frames))
        self.stats.set_gauge("flight_bytes", float(self.bytes_captured))
        self.stats.set_gauge(
            "flight_segments", float(len(self._segment_paths))
        )
        self.stats.set_gauge(
            "flight_record_ms", self.record_seconds * 1000.0
        )

    # -- segment management --------------------------------------------------

    def _rotate(self) -> None:
        if self._out is not None:
            self._out.close()
        self.segments_written += 1
        path = self.path / f"seg-{self.segments_written:06d}.efl"
        header = json.dumps(
            {
                "label": self.label,
                "mode": self.mode,
                "segment": self.segments_written,
                "created_mono": self.clock(),
                "created_wall": self.wall_clock(),
                **self.meta,
            },
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        self._out = open(path, "wb")
        self._out.write(FLIGHT_MAGIC)
        self._out.write(_META_LEN.pack(len(header)))
        self._out.write(header)
        self._segment_size = 0
        self._segment_paths.append(path)
        while len(self._segment_paths) > self.max_segments:
            oldest = self._segment_paths.pop(0)
            try:
                oldest.unlink()
            except OSError:
                pass

    def flush(self) -> None:
        """Push buffered records to disk (the OS may still hold them)."""
        self._publish_gauges()
        if self._out is not None:
            self._out.flush()

    def close(self) -> None:
        """Flush and stop recording; further records are dropped."""
        if self._closed:
            return
        self._closed = True
        self._publish_gauges()
        if self._out is not None:
            self._out.close()
            self._out = None

    # -- introspection -------------------------------------------------------

    @property
    def segment_count(self) -> int:
        """Segments currently on disk."""
        return len(self._segment_paths)

    def describe(self) -> dict[str, Any]:
        """The ``health`` payload's ``flight`` entry."""
        return {
            "mode": self.mode,
            "dir": str(self.path),
            "frames": self.frames,
            "bytes": self.bytes_captured,
            "segments": len(self._segment_paths),
            "record_ms": round(self.record_seconds * 1000.0, 3),
        }


# ---------------------------------------------------------------------------
# Loading captures back.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlightRecord:
    """One captured frame event, decoded from a segment file.

    Attributes:
        index: position in the stage's capture (load order).
        direction: ``"out"`` (the stage sent it) or ``"in"``.
        mono: the recording process's monotonic timestamp.
        wall: ``mono`` mapped onto the wall clock via the segment's
            anchor — comparable across stages after skew correction.
        type: the frame's :class:`~repro.net.framing.FrameType`.
        chan: logical-channel id, or ``None`` outside a mux.
        wire_bytes: the frame's full on-wire size.
        digest: CRC-32 of the wire bytes (computed either way).
        payload: the complete wire bytes (``None`` in digest mode).
    """

    index: int
    direction: str
    mono: float
    wall: float
    type: FrameType
    chan: int | None
    wire_bytes: int
    digest: int
    payload: bytes | None = None

    @property
    def frame(self) -> Frame:
        """The decoded frame (full-mode captures only)."""
        if self.payload is None:
            raise FlightError(
                "digest-mode record carries no payload to decode"
            )
        frame, _used = decode_frame(self.payload)
        return frame

    @property
    def outbound(self) -> bool:
        return self.direction == "out"


@dataclass
class FlightCapture:
    """One stage's loaded capture: ordered records plus metadata."""

    label: str
    meta: dict[str, Any] = field(default_factory=dict)
    records: list[FlightRecord] = field(default_factory=list)
    #: True when a segment's tail record was cut off mid-write.
    truncated: bool = False
    #: True when rotation dropped the capture's oldest segment(s).
    rotated: bool = False

    @property
    def mode(self) -> str:
        return str(self.meta.get("mode", MODE_FULL))

    def sent(self) -> list[FlightRecord]:
        return [record for record in self.records if record.outbound]

    def received(self) -> list[FlightRecord]:
        return [record for record in self.records if not record.outbound]

    @property
    def wire_bytes(self) -> int:
        return sum(record.wire_bytes for record in self.records)

    def summary(self) -> dict[str, Any]:
        sent = self.sent()
        received = self.received()
        return {
            "label": self.label,
            "mode": self.mode,
            "frames": len(self.records),
            "frames_out": len(sent),
            "frames_in": len(received),
            "bytes": self.wire_bytes,
            "truncated": self.truncated,
            "rotated": self.rotated,
        }


def _iter_segment(raw: bytes, path: str) -> Iterator[tuple[dict, Any]]:
    """Yield ``(meta, record-or-None)``; ``None`` flags truncation."""
    if len(raw) < len(FLIGHT_MAGIC) + _META_LEN.size:
        raise FlightError(f"{path}: too short for a segment header")
    if raw[: len(FLIGHT_MAGIC)] != FLIGHT_MAGIC:
        raise FlightError(
            f"{path}: bad magic {raw[:len(FLIGHT_MAGIC)]!r} "
            f"(expected {FLIGHT_MAGIC!r})"
        )
    offset = len(FLIGHT_MAGIC)
    meta_len = _META_LEN.unpack_from(raw, offset)[0]
    offset += _META_LEN.size
    if offset + meta_len > len(raw):
        raise FlightError(f"{path}: truncated segment metadata")
    try:
        meta = json.loads(raw[offset : offset + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FlightError(f"{path}: undecodable metadata: {error}") from error
    offset += meta_len
    anchor = float(meta.get("created_wall", 0.0)) - float(
        meta.get("created_mono", 0.0)
    )
    while offset < len(raw):
        if offset + _REC.size > len(raw):
            yield meta, None
            return
        flags, type_code, mono, wire_len = _REC.unpack_from(raw, offset)
        offset += _REC.size
        chan: int | None = None
        if flags & _CHAN_BIT:
            if offset + _CHAN.size > len(raw):
                yield meta, None
                return
            chan = _CHAN.unpack_from(raw, offset)[0]
            offset += _CHAN.size
        payload_len = _CHAN.size if flags & _DIGEST_BIT else wire_len
        if offset + payload_len > len(raw):
            yield meta, None
            return
        payload = raw[offset : offset + payload_len]
        offset += payload_len
        try:
            frame_type = FrameType(type_code & 0x3F)
        except ValueError as error:
            raise FlightError(
                f"{path}: unknown frame type {type_code & 0x3F}"
            ) from error
        if flags & _DIGEST_BIT:
            digest = _CHAN.unpack(payload)[0]
            body = None
        else:
            digest = frame_digest(payload)
            body = payload
        yield meta, FlightRecord(
            index=0,
            direction="out" if flags & _OUT_BIT else "in",
            mono=mono,
            wall=mono + anchor,
            type=frame_type,
            chan=chan,
            wire_bytes=wire_len,
            digest=digest,
            payload=body,
        )


def load_segment(path: str) -> tuple[dict[str, Any], list[FlightRecord], bool]:
    """Load one segment file: ``(meta, records, truncated)``."""
    with open(path, "rb") as handle:
        raw = handle.read()
    meta: dict[str, Any] = {}
    records: list[FlightRecord] = []
    truncated = False
    for meta, record in _iter_segment(raw, str(path)):
        if record is None:
            truncated = True
            break
        records.append(record)
    return meta, records, truncated


def load_capture(stage_dir: str) -> FlightCapture:
    """Load one stage's capture directory into a :class:`FlightCapture`."""
    directory = pathlib.Path(stage_dir)
    segment_paths = sorted(directory.glob("seg-*.efl"))
    if not segment_paths:
        raise FlightError(f"no flight segments under {directory}")
    capture = FlightCapture(label=directory.name)
    first_segment = None
    for path in segment_paths:
        meta, records, truncated = load_segment(str(path))
        if not capture.meta:
            capture.meta = meta
            capture.label = str(meta.get("label", capture.label))
            first_segment = int(meta.get("segment", 1))
        capture.records.extend(records)
        capture.truncated = capture.truncated or truncated
    if first_segment is not None and first_segment > 1:
        capture.rotated = True
    capture.records = [
        FlightRecord(
            index=i, direction=r.direction, mono=r.mono, wall=r.wall,
            type=r.type, chan=r.chan, wire_bytes=r.wire_bytes,
            digest=r.digest, payload=r.payload,
        )
        for i, r in enumerate(capture.records)
    ]
    return capture


def load_flight_dir(flight_dir: str) -> list[FlightCapture]:
    """Load every stage capture under one ``--flight-dir``."""
    root = pathlib.Path(flight_dir)
    if not root.is_dir():
        raise FlightError(f"no such flight directory: {root}")
    captures = []
    for child in sorted(root.iterdir()):
        if child.is_dir() and any(child.glob("seg-*.efl")):
            captures.append(load_capture(str(child)))
    if not captures:
        raise FlightError(f"no flight captures under {root}")
    return captures
