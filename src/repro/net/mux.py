"""Logical-channel multiplexing: many streams over one TCP connection.

The process-per-stage runtime gives every link its own TCP connection,
which tops out at thousands of stages per machine.  This module is the
scaling layer under :mod:`repro.broker`: a :class:`ChannelMux` carries
any number of *logical channels* — each a full asymmetric stream with
its own credit window, sequence/resume state, codec, and span tracing —
over one connection, using the frame header's channel-id extension
(:data:`repro.net.framing.CHAN_FLAG`).

Design rules:

- **A channel is a connection.**  :class:`MuxChannel` exposes exactly
  the :class:`repro.net.protocol.Connection` surface (``send`` /
  ``send_many`` / ``recv`` / ``close``, plus the stats/tracer/codec
  attributes), so :func:`~repro.net.protocol.serve_pull`,
  :func:`~repro.net.protocol.serve_push`, and the HELLO/WELCOME
  handshake (:func:`~repro.net.handshake.send_hello_over` /
  :func:`~repro.net.handshake.expect_hello_over`) run *unchanged* over
  a logical channel.

- **Same-host channels are spliced.**  When the broker issues a route
  whose two ends are both channels of this connection, the opener's
  :class:`MuxChannel` and its peer are *spliced* (:attr:`MuxChannel.peer`).
  Every spliced route carries its HELLO / WELCOME here.  Most then
  stream by direct calls between the two stages, not through this
  module (:mod:`repro.broker.host` decides, once per route); the
  spliced routes that keep their stream frames are the ones a trace,
  a flight recorder, a fault plan, resume, read pipelining or an
  ``io_timeout`` needs frames on.  A spliced frame is encoded once,
  counted, recorded and offered to the fault injector exactly as a
  relayed one, then handed to the peer in-process
  (:meth:`ChannelMux.splice`) and decoded exactly as a socket read
  would decode it.  The codec carries every value of an exact type it
  encodes (``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
  ``list``, ``tuple``, ``dict``, ``UID``, ``ChannelCapability``) back
  as an equal value of that type, so the peer is given the sent
  :class:`Frame` itself, re-addressed to its own channel.  The bytes
  are decoded, from the peer's own copy, only where they differ from
  that frame: a chunk the fault injector rewrote, or a body the
  encoder converted (an ``IntEnum`` sent as its ``int``, a named tuple
  as a ``tuple``, a ``str`` subclass dict key under JSON as a ``str``,
  a ``UID`` with an ``IntEnum`` field as one of ``int`` fields).
  Nothing the peer holds points into the sender's pooled buffer; a
  handed-over body's objects are the sender's, which no stream code
  changes once a frame is sent or received.  The broker stays the
  naming and admission authority — it issues, counts and hangs up the
  route — and relays only what crosses hosts.

- **Fair writing.**  All channels share one socket, so a hot channel
  could starve the rest at the send buffer.  The :class:`FairWriter`
  drains per-channel queues round-robin — one frame per channel per
  pass, accumulating passes into a burst it moves with one *vectored*
  write (``sendmsg`` iovec; see :mod:`repro.net.vectored`) — so
  fairness costs no joins and no per-frame syscalls.  Bounded
  per-channel queues convert a slow receiver into backpressure on that
  channel's producers (``enqueue`` parks) instead of unbounded memory.

- **Handshake frames are not stream traffic.**  Over raw TCP the
  HELLO/WELCOME exchange happens *before* the counted ``Connection``
  exists, so it never perturbs the frame counts the paper's cost model
  predicts.  A channel exists before its handshake, so
  :class:`MuxChannel` explicitly skips HELLO and WELCOME when counting
  — C1/C2 accounting is identical on both transports.

Channel id 0 (:data:`CONTROL_CHANNEL`) is reserved for broker control
traffic (register / open / accept; see :mod:`repro.broker`); data
channels count from 1.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import replace
from typing import Any, Awaitable, Callable, Sequence

from repro.core.capability import ChannelCapability
from repro.core.tracing import Tracer
from repro.core.uid import UID
from repro.net import framing
from repro.net.bufpool import POOL
from repro.net.framing import (
    _PLAIN,
    _TAG_SET,
    CODEC_JSON,
    Frame,
    FrameError,
    FrameProtocol,
    FrameType,
    _nest,
    _release_after_write,
    _to_json,
    decode_frame,
    encode_frame_into,
    readdress,
)
from repro.net.vectored import write_vectored
from repro.net.handshake import ROLE_PUSH, send_hello_over
from repro.net.metrics import NetStats
from repro.net.protocol import (
    RemoteReadable,
    RemoteWritable,
    retry_with_backoff,
)

__all__ = [
    "CONTROL_CHANNEL",
    "FairWriter",
    "ChannelMux",
    "MuxChannel",
    "HostedReadable",
    "HostedWritable",
]

#: Channel id reserved for broker control traffic (never a stream).
CONTROL_CHANNEL = 0

#: Frame types that belong to connection admission, not the stream;
#: excluded from per-channel stats so C1/C2 counts match raw TCP.
_HANDSHAKE_TYPES = (FrameType.HELLO, FrameType.WELCOME)

#: Values the body codecs have encoded as a base type.  The codecs look
#: an exact type up in a table and hand anything else to
#: ``_for_subclass``, so counting its calls tells a send whether what it
#: encoded decodes to what it sent, at no cost to an exact-type body.
#: Three encoders convert without that lookup, and count here too: a
#: JSON dict's ``str`` subclass keys, and the fields of a ``UID`` or a
#: ``ChannelCapability`` (an ``IntEnum`` field is written as its int).
_conversions = 0


def _counted(for_subclass: Callable[..., Any]) -> Callable[..., Any]:
    def for_subclass_counted(table: Any, value: Any) -> Any:
        global _conversions
        _conversions += 1
        return for_subclass(table, value)
    return for_subclass_counted


framing._for_subclass = _counted(framing._for_subclass)


def _json_dict(value: dict, depth: int) -> Any:
    """``framing._json_dict``, counting ``str`` subclass keys: JSON
    writes them as ``str``.  A copy rather than a wrapper, so that a
    dict of exact keys, which every frame body is, costs no extra call."""
    global _conversions
    depth = _nest(depth)
    exact = {str}.issuperset(map(type, value))
    if _TAG_SET.isdisjoint(value) and (exact or all(isinstance(key, str) for key in value)):
        if not exact:
            _conversions += 1
        return {key: item if type(item) in _PLAIN else _to_json(item, depth)
                for key, item in value.items()}
    return {"__dict__": [[_to_json(key, depth), _to_json(item, depth)]
                         for key, item in value.items()]}


_INTS = frozenset((int,))


def _converts_uid(uid: UID) -> bool:
    return not _INTS.issuperset(map(type, uid))


def _converts_capability(capability: ChannelCapability) -> bool:
    return (_converts_uid(capability.owner) or type(capability.name) is not str
            or type(capability.secret) is not int)


def _counting(encode: Callable[..., Any],
              converts: Callable[[Any], bool]) -> Callable[..., Any]:
    """``encode``, counting each value ``converts`` says it converts."""
    def encode_counted(value: Any, *rest: Any) -> Any:
        global _conversions
        if converts(value):
            _conversions += 1
        return encode(value, *rest)
    return encode_counted


framing._TO_JSON[dict] = _json_dict
for _table in (framing._TO_JSON, framing._PUT):
    _table[UID] = _counting(_table[UID], _converts_uid)
    _table[ChannelCapability] = _counting(_table[ChannelCapability],
                                          _converts_capability)
del _table


class _ChanQueue:
    """One channel's outgoing frames awaiting their round-robin turn.

    ``frames`` holds encoded wire forms: pooled ``bytearray`` buffers
    (ownership passed in by :meth:`MuxChannel.send`, recycled by the
    fair writer after the socket write) or plain ``bytes`` (injector
    chunks, control frames).
    """

    __slots__ = ("frames", "bytes", "room", "queued")

    def __init__(self) -> None:
        self.frames: deque[Any] = deque()
        self.bytes = 0
        self.room = asyncio.Event()
        self.room.set()
        self.queued = False  # present in the writer's rotation?


class FairWriter:
    """Round-robin frame scheduler over one ``StreamWriter``.

    Each scheduling pass takes at most one frame from every pending
    channel; passes accumulate into a burst of up to ``burst_limit``
    bytes that goes out as one vectored write
    (:func:`repro.net.vectored.write_vectored` — a single ``sendmsg``
    iovec on the fast path), so fairness costs neither joins nor
    per-frame syscalls.  Per-channel queues are bounded by
    ``high_water`` bytes — ``enqueue`` parks above it and resumes once
    the queue drains below half, which is what turns one slow receiver
    into backpressure on exactly its own senders.
    """

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        high_water: int = 256 * 1024,
        burst_limit: int = 128 * 1024,
        stats: NetStats | None = None,
    ) -> None:
        self.writer = writer
        self.high_water = max(1, high_water)
        self.burst_limit = max(1, burst_limit)
        self.stats = stats
        self._queues: dict[int, _ChanQueue] = {}
        self._rotation: deque[int] = deque()
        self._wake = asyncio.Event()
        self._task: asyncio.Task[None] | None = None
        self._closed = False
        self.error: BaseException | None = None

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())

    async def enqueue(self, chan: int, wire: Any) -> None:
        """Queue one encoded frame for ``chan``; parks when over water."""
        queue = self._queues.setdefault(chan, _ChanQueue())
        while queue.bytes >= self.high_water and not self._closed:
            queue.room.clear()
            await queue.room.wait()
        if self._closed:
            raise ConnectionResetError(
                f"mux writer closed{f': {self.error}' if self.error else ''}"
            )
        queue.frames.append(wire)
        queue.bytes += len(wire)
        if not queue.queued:
            queue.queued = True
            self._rotation.append(chan)
        self._wake.set()

    async def _run(self) -> None:
        try:
            while True:
                await self._wake.wait()
                self._wake.clear()
                while self._rotation:
                    burst: list[Any] = []
                    burst_bytes = 0
                    # Accumulate round-robin passes — one frame per
                    # pending channel per pass: fairness — until the
                    # burst is worth a syscall.
                    while self._rotation and burst_bytes < self.burst_limit:
                        for _ in range(len(self._rotation)):
                            chan = self._rotation.popleft()
                            queue = self._queues[chan]
                            wire = queue.frames.popleft()
                            queue.bytes -= len(wire)
                            burst.append(wire)
                            burst_bytes += len(wire)
                            if queue.frames:
                                self._rotation.append(chan)
                            else:
                                queue.queued = False
                            if queue.bytes < self.high_water // 2:
                                queue.room.set()
                    write_vectored(self.writer, burst, self.stats)
                    await self.writer.drain()
                    for wire in burst:
                        if isinstance(wire, bytearray):
                            _release_after_write(POOL, self.writer, wire)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError) as error:
            self._fail(error)

    def _fail(self, error: BaseException | None) -> None:
        self._closed = True
        self.error = self.error or error
        for queue in self._queues.values():
            queue.room.set()  # unpark writers so they see the failure

    async def close(self) -> None:
        """Stop scheduling; parked ``enqueue`` calls fail fast."""
        self._fail(None)
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
            self._task = None


class MuxChannel:
    """One logical channel, shaped exactly like a ``Connection``.

    Every outgoing frame is stamped with the channel id (and offered
    to the fault ``injector``, which can target this channel
    specifically); incoming frames arrive from the mux's reader via
    :meth:`_deliver`, or from a spliced peer via :meth:`_take`, into a
    ``deque`` with at most one waiter, as a
    :class:`~repro.net.framing.FrameProtocol` holds a socket's frames.
    ``recv`` returns ``None`` once the channel is hung up — the
    per-channel analogue of a peer closing a socket, which is how
    stream code observes a crashed peer or a dying mux without any new
    error vocabulary — and raises the :class:`FrameError` instead when
    a chunk from a spliced peer did not decode, as a socket's
    ``Connection`` does.
    """

    def __init__(
        self,
        mux: "ChannelMux",
        chan: int,
        stats: NetStats | None = None,
        end_is_request: bool = False,
        tracer: Tracer | None = None,
        label: str | None = None,
        injector: Any | None = None,
        codec: str = CODEC_JSON,
    ) -> None:
        self.mux = mux
        self.chan = chan
        self.stats = stats if stats is not None else NetStats()
        self.end_is_request = end_is_request
        self.tracer = tracer
        self.label = label if label is not None else f"chan{chan}"
        self.clock = mux.clock
        self.injector = injector
        self.codec = codec
        #: ``(frame, wire bytes)`` of each frame delivered, not yet taken.
        self._inbox: deque[tuple[Frame, int]] = deque()
        self._loop = asyncio.get_running_loop()
        self._waiter: asyncio.Future[None] | None = None
        self._hung_up = False
        self._closed = False
        #: Invoked (with the channel) on local ``close``; the broker
        #: client uses it to tell the broker the route is dead, which
        #: is how the *peer* endpoint comes to observe a hangup.
        self.on_closed: Callable[["MuxChannel"], None] | None = None
        #: The id of the channel on this same connection that this one
        #: is spliced to (a same-host route), or ``None``: frames then
        #: leave through the fair writer.
        self.peer: int | None = None
        #: What broke a spliced stream: ``recv`` raises it at the end.
        self.error: FrameError | None = None

    # -- Connection surface --------------------------------------------------

    async def send(self, frame: Frame) -> None:
        out = POOL.acquire()
        converted = _conversions
        try:
            wire_bytes = encode_frame_into(
                Frame(frame.type, frame.body, self.chan), out, self.codec)
        except FrameError:
            POOL.release(out)
            raise
        # What a spliced peer is handed: the frame, unless its bytes
        # decode to something else.
        intact = frame if _conversions == converted else None
        mux = self.mux
        if mux.flight is not None:
            # What the stage believes it sent, pre-injection.
            mux.flight.on_sent(out)
        if self.injector is None:
            sent = out
            chunks: Sequence[Any] = (out,)
        else:
            sent = bytes(out)
            chunks = await self.injector.outgoing(frame.type.name, sent,
                                                  self.chan)
        peer = self.peer
        for chunk in chunks:
            if peer is None:
                # A pooled buffer's ownership passes to the fair
                # writer, which recycles it after the socket write.
                await mux.send_wire(self.chan, chunk)
            else:
                mux.splice(peer, chunk, intact if chunk is sent else None)
        if peer is not None:
            POOL.release(out)  # the peer holds nothing of it
        if frame.type not in _HANDSHAKE_TYPES:
            self.stats.note_sent(frame, wire_bytes, self.end_is_request)
        mux.stats.counters["mux_frames_sent"] += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                self.clock(), "send", self.label,
                frame=frame.type.name, bytes=wire_bytes, chan=self.chan,
            )

    async def send_many(self, frames: Sequence[Frame]) -> None:
        for frame in frames:
            await self.send(frame)

    def _note_received(self, frame: Frame, wire_bytes: int) -> None:
        if frame.type not in _HANDSHAKE_TYPES:
            self.stats.note_received(frame, wire_bytes)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                self.clock(), "recv", self.label,
                frame=frame.type.name, bytes=wire_bytes, chan=self.chan,
            )

    async def recv(self) -> Frame | None:
        inbox = self._inbox
        while not inbox:
            if self._hung_up:
                if self.error is not None:
                    raise self.error
                return None
            self._waiter = self._loop.create_future()
            await self._waiter
        frame, wire_bytes = inbox.popleft()
        self._note_received(frame, wire_bytes)
        return frame

    def recv_nowait(self) -> Frame | None:
        """An inbound frame already queued on this channel, else ``None``.

        The ``Connection`` surface the pull server's reply coalescing
        expects; never blocks, and says nothing of a hangup.
        """
        if not self._inbox:
            return None
        frame, wire_bytes = self._inbox.popleft()
        self._note_received(frame, wire_bytes)
        return frame

    async def close(self) -> None:
        """Detach from the mux (idempotent); peers see a hangup."""
        if self._closed:
            return
        self._closed = True
        self.hangup()
        await self.mux.release(self.chan)
        if self.on_closed is not None:
            self.on_closed(self)

    # -- mux side ------------------------------------------------------------

    def _deliver(self, frame: Frame, wire_bytes: int) -> None:
        if not self._hung_up:
            self._inbox.append((frame, wire_bytes))
            waiter = self._waiter  # _wake, inline: this runs once per frame
            if waiter is not None:
                self._waiter = None
                if not waiter.done():
                    waiter.set_result(None)

    def _take(self, chunk: Any, sent: Frame | None) -> None:
        """Receive one chunk the spliced peer sent, as a socket would.

        ``sent`` is the frame the peer encoded into ``chunk``, or
        ``None`` when the chunk would not decode to it.  That frame is
        taken re-addressed to this channel (the extension the broker
        relay would have rewritten); otherwise the chunk is
        re-addressed and decoded from this channel's own copy.  Either
        way no body keeps a view into the sender's pooled buffer, and
        the flight recorder logs the re-addressed bytes.  A chunk that
        does not decode breaks this channel alone: ``recv`` raises the
        :class:`FrameError` after the frames queued before it.
        """
        if self.error is not None:
            return  # the stream is broken past this point
        mux = self.mux
        if sent is None:
            wire = readdress(chunk, self.chan)
            try:
                frame, _used = decode_frame(wire)
            except FrameError as error:
                self.error = error
                self.hangup()
                return
            if mux.flight is not None:
                mux.flight.on_received(wire)
        else:
            frame = Frame(sent.type, sent.body, self.chan)
            if mux.flight is not None:
                mux.flight.on_received(readdress(chunk, self.chan))
        mux.stats.counters["mux_frames_received"] += 1
        self._deliver(frame, len(chunk))

    def hangup(self) -> None:
        """Make ``recv`` return ``None`` after any already-queued frames."""
        self._hung_up = True
        self._wake()

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            if not waiter.done():
                waiter.set_result(None)


class ChannelMux:
    """The multiplexing endpoint of one connection.

    Owns the reader loop (demultiplexing incoming frames into their
    channels' inboxes) and the :class:`FairWriter`.  Frames on
    :data:`CONTROL_CHANNEL` — or without a channel id at all — go to
    the ``on_control`` callback (the broker-client command layer);
    frames for unknown channels are dropped and counted
    (``mux_orphan_frames``), which is what a frame racing a local
    channel close looks like.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        on_control: Callable[[Frame], Awaitable[None]] | None = None,
        on_close: Callable[[BaseException | None], None] | None = None,
        stats: NetStats | None = None,
        clock: Callable[[], float] = time.monotonic,
        label: str = "mux",
        flight: Any | None = None,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.on_control = on_control
        self.on_close = on_close
        self.stats = stats if stats is not None else NetStats()
        self.clock = clock
        self.label = label
        #: Optional flight recorder; sees every frame's wire bytes in
        #: both directions, across all channels of this connection.
        self.flight = flight
        self.channels: dict[int, MuxChannel] = {}
        self._fair = FairWriter(writer, stats=self.stats)
        self._read_task: asyncio.Task[None] | None = None
        self._closed = False
        self.error: BaseException | None = None

    def start(self) -> None:
        """Spin up the reader and writer tasks (idempotent)."""
        self._fair.start()
        if self._read_task is None:
            self._read_task = asyncio.ensure_future(self._read_loop())

    @property
    def closed(self) -> bool:
        return self._closed

    def attach(
        self,
        chan: int,
        **channel_options: Any,
    ) -> MuxChannel:
        """Create (and register) the local endpoint of channel ``chan``."""
        if chan in self.channels:
            raise ValueError(f"channel {chan} already attached")
        if self._closed:
            raise ConnectionResetError(f"{self.label} is closed")
        channel = MuxChannel(self, chan, **channel_options)
        self.channels[chan] = channel
        self.stats.bump("mux_channels_opened")
        self.stats.set_gauge("mux_channels_open", float(len(self.channels)))
        return channel

    async def release(self, chan: int) -> None:
        """Forget a channel (its ``close`` path; safe to repeat)."""
        if self.channels.pop(chan, None) is not None:
            self.stats.set_gauge(
                "mux_channels_open", float(len(self.channels))
            )

    async def send_wire(self, chan: int, wire: bytes) -> None:
        await self._fair.enqueue(chan, wire)

    def splice(self, chan: int, wire: Any, frame: Frame | None) -> None:
        """Hand one sent chunk to channel ``chan`` of this connection.

        ``frame`` is what ``wire`` encodes, when it decodes to that
        frame (see :meth:`MuxChannel._take`).  The read loop's
        demultiplexing without the socket round trip: a closed channel
        makes the chunk an orphan, and a dead connection fails the
        sender as its fair writer would.
        """
        if self._closed:
            raise ConnectionResetError(
                f"{self.label} is closed{f': {self.error}' if self.error else ''}"
            )
        self.stats.counters["mux_frames_spliced"] += 1
        channel = self.channels.get(chan)
        if channel is not None:
            channel._take(wire, frame)
        else:
            self.stats.bump("mux_orphan_frames")

    async def send_control(self, frame: Frame,
                           queue_on: int = CONTROL_CHANNEL) -> None:
        """Send one control frame (stamped onto channel 0).

        ``queue_on`` picks which fair-writer queue carries it: the
        round-robin scheduler only guarantees FIFO *within* a queue,
        so control traffic that must stay ordered behind a channel's
        data (``close-chan`` chasing a final ACK) rides that
        channel's queue instead of queue 0.
        """
        out = bytearray()
        encode_frame_into(
            replace(frame, chan=CONTROL_CHANNEL), out, CODEC_JSON
        )
        if self.flight is not None:
            self.flight.on_sent(out)
        await self._fair.enqueue(queue_on, bytes(out))

    async def _read_loop(self) -> None:
        error: BaseException | None = None
        try:
            frames = FrameProtocol.of(self.reader, self.writer)
            if self.flight is not None:
                frames.tee = self.flight.on_received
            while True:
                frame, wire_bytes = await frames.recv()
                if frame is None:
                    break
                self.stats.counters["mux_frames_received"] += 1
                if frame.chan is None or frame.chan == CONTROL_CHANNEL:
                    if self.on_control is not None:
                        await self.on_control(frame)
                    continue
                channel = self.channels.get(frame.chan)
                if channel is not None:
                    channel._deliver(frame, wire_bytes)
                else:
                    self.stats.bump("mux_orphan_frames")
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError, FrameError) as exc:
            error = exc
        finally:
            self._shut(error)

    def _shut(self, error: BaseException | None) -> None:
        if self._closed:
            return
        self._closed = True
        self.error = error
        self._fair._fail(error)
        for channel in list(self.channels.values()):
            channel.hangup()
        if self.on_close is not None:
            self.on_close(error)

    async def close(self) -> None:
        """Tear the whole connection down; every channel hangs up."""
        self._shut(None)
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except (asyncio.CancelledError, ConnectionError, OSError,
                    FrameError):
                pass
            self._read_task = None
        await self._fair.close()
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# ---------------------------------------------------------------------------
# Hosted active sides: RemoteReadable/RemoteWritable over logical channels.
# ---------------------------------------------------------------------------

#: An async channel factory: ``(target_name, role) -> MuxChannel`` with
#: the broker-side open (naming, compatibility check, id issuance)
#: already done.  :class:`repro.broker.client.BrokerClient.opener`
#: produces one.
ChannelOpener = Callable[[str, str], Awaitable[MuxChannel]]


class _HostedEnd:
    """Mixed in before an active end: its link is a broker channel.

    Only how a "connection" comes to exist differs: instead of dialing
    ``host:port``, the end asks the broker for a channel to ``target``
    (a fleet-scoped name) and runs the ordinary ticket handshake
    inside it.  An open that fails for want of a broker connection is
    retried on the TCP dial's schedule and is a fatal
    :class:`~repro.net.protocol.WireError` at ``connect_deadline``.
    """

    def __init__(self, open_channel: ChannelOpener, target: str,
                 **kwargs: Any) -> None:
        super().__init__("", 0, **kwargs)
        self._open_channel = open_channel
        self.target = target

    async def _dial(self, offer: Any) -> tuple[MuxChannel, Frame]:
        channel = await retry_with_backoff(
            lambda: self._open_channel(self.target, self.role),
            f"{self.target!r} through the broker", self.connect_deadline,
        )
        channel.stats = self.stats
        channel.end_is_request = self.role == ROLE_PUSH
        channel.tracer = self.tracer
        channel.label = self.label
        channel.injector = self.injector
        welcome = await send_hello_over(
            channel, self.uid, self.role, channel=self.channel,
            book=self.book, next_seq=self._hello_seq(), codecs=offer,
        )
        return channel, welcome


class HostedReadable(_HostedEnd, RemoteReadable):
    """A :class:`RemoteReadable` whose link is a broker logical channel.

    Everything above the link — READ pipelining, batch autotuning,
    resume dedup by ``seq``, span emission with sequence evidence — is
    inherited unchanged.
    """


class HostedWritable(_HostedEnd, RemoteWritable):
    """A :class:`RemoteWritable` over a broker logical channel.

    Credit windows, the resume send log, and span emission are
    inherited; the WELCOME that grants the initial credit (and the
    resume cursor) arrives through the channel handshake.
    """
