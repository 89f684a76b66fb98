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
  a logical channel.  Pull-stream semantics — demand-driven transfer,
  early termination, no read after END — therefore hold per channel by
  construction, independent of what the other channels do.

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

from repro.core.tracing import Tracer
from repro.net.bufpool import POOL
from repro.net.framing import (
    CODEC_JSON,
    Frame,
    FrameError,
    FrameProtocol,
    FrameType,
    _release_after_write,
    encode_frame_into,
)
from repro.net.vectored import write_vectored
from repro.net.handshake import ROLE_PUSH, send_hello_over
from repro.net.metrics import NetStats
from repro.net.protocol import RemoteReadable, RemoteWritable

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
    :meth:`_deliver`.  ``recv`` returns ``None`` once the channel is
    hung up — the per-channel analogue of a peer closing a socket,
    which is how stream code observes a crashed peer or a dying mux
    without any new error vocabulary.
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
        self._inbox: asyncio.Queue[tuple[Frame, int] | None] = asyncio.Queue()
        self._hung_up = False
        self._closed = False
        #: Invoked (with the channel) on local ``close``; the broker
        #: client uses it to tell the broker the route is dead, which
        #: is how the *peer* endpoint comes to observe a hangup.
        self.on_closed: Callable[["MuxChannel"], None] | None = None

    # -- Connection surface --------------------------------------------------

    async def send(self, frame: Frame) -> None:
        out = POOL.acquire()
        try:
            wire_bytes = encode_frame_into(
                Frame(frame.type, frame.body, self.chan), out, self.codec)
        except FrameError:
            POOL.release(out)
            raise
        if self.mux.flight is not None:
            # What the stage believes it sent, pre-injection.
            self.mux.flight.on_sent(out)
        if self.injector is None:
            # Ownership of the pooled buffer passes to the fair
            # writer, which recycles it after the socket write.
            await self.mux.send_wire(self.chan, out)
        else:
            for chunk in await self.injector.outgoing(
                    frame.type.name, bytes(out), self.chan):
                await self.mux.send_wire(self.chan, chunk)
        if frame.type not in _HANDSHAKE_TYPES:
            self.stats.note_sent(frame, wire_bytes, self.end_is_request)
        self.mux.stats.counters["mux_frames_sent"] += 1
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
        if self._hung_up and self._inbox.empty():
            return None
        item = await self._inbox.get()
        if item is None:
            self._hung_up = True
            return None
        frame, wire_bytes = item
        self._note_received(frame, wire_bytes)
        return frame

    def recv_nowait(self) -> Frame | None:
        """An inbound frame already queued on this channel, else ``None``.

        The ``Connection`` surface the pull server's reply coalescing
        expects; never blocks and never consumes the hangup marker.
        """
        if self._hung_up or self._inbox.empty():
            return None
        item = self._inbox.get_nowait()
        if item is None:
            self._hung_up = True
            return None
        frame, wire_bytes = item
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
            self._inbox.put_nowait((frame, wire_bytes))

    def hangup(self) -> None:
        """Make ``recv`` return ``None`` after any already-queued frames."""
        self._inbox.put_nowait(None)


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
            frames = FrameProtocol(
                self.reader, self.writer,
                tee=self.flight.on_received if self.flight is not None else None,
            )
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
        except (ConnectionError, OSError, FrameError, EOFError) as exc:
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
                    FrameError, EOFError):
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
    inside it.
    """

    def __init__(self, open_channel: ChannelOpener, target: str,
                 **kwargs: Any) -> None:
        super().__init__("", 0, **kwargs)
        self._open_channel = open_channel
        self.target = target

    async def _dial(self, offer: Any) -> tuple[MuxChannel, Frame]:
        channel = await self._open_channel(self.target, self.role)
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
