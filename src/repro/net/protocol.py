"""The four transput primitives as wire roles over TCP.

Only *corresponding* pairs of primitives connect (the paper's central
observation), and each pair is one connection pattern:

- **read-only** (active input ↔ passive output): the consumer
  connects with role ``pull`` and issues ``READ`` frames — the
  demand-driven pull protocol — and the producer answers each with one
  ``DATA`` (or ``END``) frame.  :class:`RemoteReadable` is the active
  side; :func:`serve_pull` is the passive side.

- **write-only** (active output ↔ passive input): the producer
  connects with role ``push`` and sends ``WRITE`` frames under a
  *credit window*: the WELCOME grants an initial allowance of records,
  and every ``ACK`` returns the allowance consumed downstream.  A
  window of one invocation (``batch`` records: one ``WRITE``, one
  ``ACK`` — the mirror of one ``READ`` answered by one ``DATA``) is
  the fully synchronous (lazy) push; a wider window keeps more records
  in flight (the eager/anticipatory knob of §4 —
  :meth:`FlowPolicy.effective_credit_window` derives the window from
  the same policy the simulator uses: explicit ``credit_window``, else
  a bounded inbox, else ``max(lookahead, batch)``).
  :class:`RemoteWritable` is the active side; :func:`serve_push` the
  passive side.

Backpressure is therefore end-to-end and protocol-level: a slow pull
server simply delays its ``DATA``; a slow push server delays its
``ACK`` (it writes into the local stage first, which may itself block
on *its* downstream connection).

Both remote classes implement the :mod:`repro.aio` ``Readable`` /
``Writable`` protocols, so every existing aio stage composes with them
unchanged — that is what lets :mod:`repro.net.stage` host simulator
transducers with no porting.

**Session resume** (``docs/fault_tolerance.md``): with ``resume=True``
the stream gains per-record sequence numbers.  Every ``DATA`` and
``WRITE`` frame carries ``seq`` — the stream index of its first record
— so both ends can recognise, and discard, records they have already
seen.  The active sides treat transport failures as retryable
(:class:`LinkDown`): a pull client reconnects and asks to resume at
its received count (HELLO ``resume.next_seq``); a push client keeps a
full send log and rewinds to the ``resume_seq`` the server's WELCOME
advertises.  The passive sides keep the matching state *outside* any
one connection: :class:`ReplayLog` retains every record a pull server
has produced so a reconnecting (or restarted) consumer can re-fetch
them, and :class:`PushState` remembers how many records a push server
has accepted so duplicated prefixes are dropped, not re-written.
Exactly-once delivery is the composition of the two: at-least-once
from retransmission, deduplication from ``seq``.  All of it is gated
on ``resume`` — a plan without faults runs the identical byte stream
the pre-resume runtime produced.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, MutableMapping, Sequence, Union

from repro.core.errors import (
    EdenError,
    NoSuchChannelError,
    StreamProtocolError,
)
from repro.core.tracing import Tracer
from repro.net.bufpool import POOL
from repro.net.framing import (
    CODEC_JSON,
    CODECS,
    BufferedFrameReader,
    Frame,
    FrameError,
    FrameType,
    _release_after_write,
    attach_trace,
    encode_frame,
    encode_frame_into,
    frame_trace,
    write_frame,
)
from repro.net.vectored import write_vectored
from repro.obs.context import bind_span, current_span
from repro.obs.spans import SPAN_KIND, SpanContext, SpanIds
from repro.net.handshake import (
    ROLE_PULL,
    ROLE_PUSH,
    Hello,
    HandshakeLinkDown,
    TicketBook,
    negotiated_codec,
    send_hello,
)
from repro.net.metrics import NetStats
from repro.transput.flow import FlowAutotuner
from repro.transput.stream import END_TRANSFER, Transfer

__all__ = [
    "WireError",
    "LinkDown",
    "Connection",
    "connect_with_backoff",
    "RemoteReadable",
    "RemoteWritable",
    "ReplayLog",
    "PushState",
    "serve_pull",
    "serve_push",
]


class WireError(EdenError):
    """The remote peer reported an error frame, or the link misbehaved."""


class LinkDown(WireError):
    """The transport failed mid-stream (peer gone, frame garbage, timeout).

    Distinct from a fatal :class:`WireError` (a protocol ``ERROR``
    frame, a forged ticket): under ``resume`` a ``LinkDown`` is the
    signal to reconnect and resume, never to abort the stream.
    """


#: Transport-level failures a resuming peer treats as retryable.
#: (``asyncio.IncompleteReadError`` is an ``EOFError``;
#: ``asyncio.TimeoutError`` aliases ``TimeoutError`` from 3.11 on.)
_LINK_FAULTS = (
    ConnectionError,
    OSError,
    FrameError,
    EOFError,
    asyncio.TimeoutError,
    TimeoutError,
)


class Connection:
    """One framed TCP connection with metrics and optional tracing.

    ``end_is_request`` selects the END accounting (True on the pushing
    side of a write-only link; see :mod:`repro.net.metrics`).

    ``injector`` is a :class:`repro.fault.inject.FaultInjector` (or
    anything with its ``outgoing`` coroutine): every outgoing frame is
    offered to it, and what the injector returns — nothing, one copy,
    two copies, corrupted bytes — is what actually reaches the socket.
    Stats still count the frame as sent once: the *stage* believes it
    sent it, which is exactly the lie a chaos experiment needs.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        stats: NetStats | None = None,
        end_is_request: bool = False,
        tracer: Tracer | None = None,
        label: str = "conn",
        clock: Callable[[], float] = time.monotonic,
        injector: Any | None = None,
        codec: str = CODEC_JSON,
        flight: Any | None = None,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.stats = stats if stats is not None else NetStats()
        self.end_is_request = end_is_request
        self.tracer = tracer
        self.label = label
        self.clock = clock
        self.injector = injector
        #: Optional :class:`repro.obs.flight.FlightRecorder`: every
        #: frame this connection moves is teed to it as raw wire bytes
        #: (the pooled encode buffer out, the decoder's view in), so
        #: capture costs no extra copy on either path.
        self.flight = flight
        #: Body encoding for outgoing frames; handshake code flips this
        #: to the negotiated codec once the WELCOME settles it (inbound
        #: frames are self-describing, so only sending needs a mode).
        self.codec = codec
        #: Segment-oriented inbound frame source, created on first
        #: recv — after the handshake's raw reads have finished.
        self._frames: BufferedFrameReader | None = None

    async def send(self, frame: Frame) -> None:
        if self.injector is None:
            wire_bytes = await write_frame(
                self.writer, frame, self.codec,
                tee=self.flight.on_sent if self.flight is not None else None,
            )
        else:
            wire = encode_frame(frame, self.codec)
            wire_bytes = len(wire)
            if self.flight is not None:
                # Record what the stage *believes* it sent; the
                # injector's mutations are the chaos under test.
                self.flight.on_sent(wire)
            for chunk in await self.injector.outgoing(frame.type.name, wire):
                self.writer.write(chunk)
            await self.writer.drain()
        self.stats.note_sent(frame, wire_bytes, self.end_is_request)
        if self.tracer is not None:
            self.tracer.emit(
                self.clock(), "send", self.label,
                frame=frame.type.name, bytes=wire_bytes,
            )

    async def send_many(self, frames: Sequence[Frame]) -> None:
        """Send several frames as one vectored burst (one syscall).

        Each frame is encoded into its own pooled buffer and the burst
        goes out through :func:`repro.net.vectored.write_vectored` —
        one ``sendmsg`` iovec when the transport allows it, the
        joined-write fallback (byte-identical stream) otherwise.

        Under fault injection each frame still passes through the
        injector individually — a dropped READ must stay droppable.
        """
        if not frames:
            return
        if self.injector is not None:
            for frame in frames:
                await self.send(frame)
            return
        buffers: list[bytearray] = []
        sizes: list[int] = []
        try:
            for frame in frames:
                out = POOL.acquire()
                buffers.append(out)
                sizes.append(encode_frame_into(frame, out, self.codec))
        except FrameError:
            for out in buffers:
                POOL.release(out)
            raise
        if self.flight is not None:
            for out in buffers:
                self.flight.on_sent(out)
        write_vectored(self.writer, buffers, self.stats)
        await self.writer.drain()
        for out in buffers:
            _release_after_write(POOL, self.writer, out)
        now = self.clock()
        for frame, wire_bytes in zip(frames, sizes):
            self.stats.note_sent(frame, wire_bytes, self.end_is_request)
            if self.tracer is not None:
                self.tracer.emit(
                    now, "send", self.label,
                    frame=frame.type.name, bytes=wire_bytes,
                )

    def _note_received(self, frame: Frame, wire_bytes: int) -> None:
        self.stats.note_received(frame, wire_bytes)
        if self.tracer is not None:
            self.tracer.emit(
                self.clock(), "recv", self.label,
                frame=frame.type.name, bytes=wire_bytes,
            )

    async def recv(self) -> Frame | None:
        if self._frames is None:
            self._frames = BufferedFrameReader(
                self.reader,
                tee=(self.flight.on_received
                     if self.flight is not None else None),
            )
        frame, wire_bytes = await self._frames.recv()
        if frame is not None:
            self._note_received(frame, wire_bytes)
        return frame

    def recv_nowait(self) -> Frame | None:
        """An inbound frame already decoded from a past segment, else None.

        Performs no I/O, so "None" only means the last read segment is
        fully consumed.  The pull server uses this to discover that a
        pipelined client packed several READs into one segment — and
        answer them all in one vectored burst.
        """
        if self._frames is None:
            return None
        entry = self._frames.recv_nowait()
        if entry is None:
            return None
        frame, wire_bytes = entry
        self._note_received(frame, wire_bytes)
        return frame

    async def close(self) -> None:
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):  # peer already gone
            pass


async def connect_with_backoff(
    host: str,
    port: int,
    deadline: float = 15.0,
    first_delay: float = 0.002,
    max_delay: float = 1.0,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Dial ``host:port``, retrying transient failures with backoff.

    Stages of one pipeline are spawned concurrently, so a client may
    dial before its server listens; exponential backoff up to
    ``deadline`` seconds absorbs that (and transient RSTs) without any
    start-order coordination.  The doubling starts at 2 ms because the
    common miss is a listener task in the same loop (or a process
    spawned a moment ago) that binds within milliseconds — a refused
    loopback dial costs microseconds, a 50 ms first sleep was the whole
    set-up time of an in-loop fleet.  The same deadline bounds resume: a
    client reconnecting to a crashed stage waits this long for the
    supervisor to restart it before giving up with a fatal
    :class:`WireError`.
    """
    started = time.monotonic()
    delay = first_delay
    while True:
        try:
            return await asyncio.open_connection(host, port)
        except (ConnectionError, OSError) as error:
            if time.monotonic() - started + delay > deadline:
                raise WireError(
                    f"could not connect to {host}:{port} "
                    f"within {deadline:.1f}s: {error}"
                ) from error
            await asyncio.sleep(delay)
            delay = min(delay * 2, max_delay)


class RemoteReadable:
    """Active input over TCP: the ``Readable`` face of a remote stage.

    ``read(batch)`` sends one ``READ`` frame and blocks for the
    ``DATA``/``END`` reply — one invocation per transfer, exactly the
    simulator's accounting.  END is cached, so re-reading a finished
    stream is local and free (the protocol's idempotent-END rule).

    With a ``spans`` allocator, every READ round trip becomes one
    span: a child of the span currently being served in this task (a
    demand chain) or a fresh trace root (a driving pump).  A reply
    carrying a ``trace`` override — a buffer handing back a datum
    deposited under another trace — *re-roots* the span into the
    datum's trace (see :meth:`repro.aio.streams.AioPipe.read`); the
    adopted context is published as :attr:`last_span` so a pump can
    carry it to its downstream write.

    With ``resume=True`` the reader survives a dying link: transport
    failures (and reply silence beyond ``io_timeout``) become
    reconnects that present ``received`` — how many records this
    reader has accepted — as the resume point, and any duplicated
    prefix in a reply is discarded by its ``seq``.

    ``pipeline_depth > 1`` turns on read pipelining: the reader keeps
    up to that many READ requests on the wire (sent coalesced) and
    consumes replies oldest-first, so the server computes batch *k+1*
    while batch *k* is in flight — the per-batch round-trip stall
    becomes overlap.  Replies arrive in request order, so pull
    semantics, seq numbering, and resume dedup are unchanged; the only
    visible cost is a tail of idempotent END replies once the stream
    finishes, which the reader drains before closing.  A
    :class:`FlowAutotuner` (``tuner``) feeds observed round-trips back
    into the batch size and in-flight window.
    """

    def __init__(
        self,
        host: str,
        port: int,
        uid: Any,
        book: TicketBook | None = None,
        channel: Any = "Output",
        stats: NetStats | None = None,
        tracer: Tracer | None = None,
        label: str = "pull-client",
        connect_deadline: float = 15.0,
        spans: SpanIds | None = None,
        resume: bool = False,
        io_timeout: float | None = None,
        injector: Any | None = None,
        codec: str = CODEC_JSON,
        pipeline_depth: int = 1,
        tuner: FlowAutotuner | None = None,
        flight: Any | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.uid = uid
        self.book = book
        self.channel = channel
        self.stats = stats if stats is not None else NetStats()
        self.tracer = tracer
        self.label = label
        self.connect_deadline = connect_deadline
        self.spans = spans
        self.resume = resume
        self.io_timeout = io_timeout
        self.injector = injector
        self.codec = codec
        self.pipeline_depth = max(1, pipeline_depth)
        self.tuner = tuner
        self.flight = flight
        #: Span context of the most recent read (post-adoption).
        self.last_span: SpanContext | None = None
        #: Records accepted so far == the next sequence number wanted.
        self.received = 0
        self._connection: Connection | None = None
        self._ended = False
        #: (span ctx, send time) of every READ awaiting its reply.
        self._inflight: deque[tuple[SpanContext | None, float]] = deque()

    async def _ensure_connected(self) -> Connection:
        if self._connection is None:
            reader, writer = await connect_with_backoff(
                self.host, self.port, deadline=self.connect_deadline
            )
            connection = Connection(
                reader, writer, stats=self.stats,
                tracer=self.tracer, label=self.label,
                injector=self.injector, flight=self.flight,
            )
            offer = CODECS if self.codec != CODEC_JSON else None
            welcome = await send_hello(
                reader, writer, self.uid, ROLE_PULL,
                channel=self.channel, book=self.book,
                next_seq=self.received if self.resume else None,
                codecs=offer,
            )
            if offer:
                connection.codec = negotiated_codec(
                    [welcome.body.get("codec")], offer
                )
            self._connection = connection
        return self._connection

    def _depth(self) -> int:
        """How many READs to keep in flight right now."""
        if self.tuner is not None:
            return max(self.pipeline_depth, self.tuner.credit_window)
        return self.pipeline_depth

    async def _pump(self, connection: Connection, batch: int) -> None:
        """Top the in-flight READ window up to the pipeline depth."""
        want = self._depth() - len(self._inflight)
        if want <= 0:
            return
        frames: list[Frame] = []
        contexts: list[SpanContext | None] = []
        for _ in range(want):
            ctx: SpanContext | None = None
            body: dict[str, Any] = {
                "batch": max(1, batch), "channel": self.channel,
            }
            if self.spans is not None:
                ctx = self.spans.derive(current_span())
                attach_trace(body, ctx)
            frames.append(Frame(FrameType.READ, body))
            contexts.append(ctx)
        started = connection.clock()
        if len(frames) == 1:
            await connection.send(frames[0])
        else:
            await connection.send_many(frames)
        for ctx in contexts:
            self._inflight.append((ctx, started))

    async def _recv(self, connection: Connection) -> Frame | None:
        if self.io_timeout is None:
            return await connection.recv()
        try:
            return await asyncio.wait_for(connection.recv(), self.io_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            raise LinkDown(
                f"{self.label}: no reply within {self.io_timeout:.1f}s"
            ) from None

    async def read(self, batch: int = 1) -> Transfer:
        if self._ended:
            return END_TRANSFER
        if self.tuner is not None:
            batch = max(batch, self.tuner.batch)
        if not self.resume:
            transfer = await self._read_once(batch)
            assert transfer is not None
            return transfer
        while True:
            try:
                transfer = await self._read_once(batch)
            except LinkDown:
                await self._reset_link()
                continue
            if transfer is not None:  # None: reply was all duplicates
                return transfer

    async def _read_once(self, batch: int) -> Transfer | None:
        try:
            connection = await self._ensure_connected()
        except (HandshakeLinkDown, *_LINK_FAULTS) as error:
            if self.resume:
                raise LinkDown(
                    f"{self.label}: link failed connecting: {error}"
                ) from error
            raise
        try:
            await self._pump(connection, batch)
            reply = await self._recv(connection)
        except _LINK_FAULTS as error:
            if self.resume:
                raise LinkDown(f"{self.label}: link failed mid-read: {error}") \
                    from error
            raise
        ctx, started = (
            self._inflight.popleft() if self._inflight else (None, 0.0)
        )
        if reply is None:
            if self.resume:
                raise LinkDown("peer closed mid-stream (no END received)")
            raise WireError("peer closed mid-stream (no END received)")
        if reply.type in (FrameType.DATA, FrameType.END):
            self._observe_rtt(connection.clock() - started)
            fresh: list[Any] = []
            seq = reply.body.get("seq")
            if reply.type is FrameType.DATA:
                fresh = list(reply.body.get("items", []))
                if self.resume and isinstance(seq, int):
                    skip = min(len(fresh), max(0, self.received - seq))
                    if skip:
                        self.stats.bump("duplicate_records", skip)
                        fresh = fresh[skip:]
                    # Evidence records the slice actually *accepted*
                    # (post-dedup), so retransmitted prefixes do not
                    # show up as overlap in --verify-once.
                    seq = self.received
            if ctx is not None:
                ctx = self._finish_span(
                    ctx, reply, started, connection, seq=seq, count=len(fresh)
                )
            if reply.type is FrameType.END:
                self._ended = True
                await self._drain_inflight(connection)
                await connection.close()
                self._connection = None
                return END_TRANSFER
            if fresh:
                self.stats.bump("records_in", len(fresh))
            if self.resume:
                if not fresh:
                    return None
                self.received += len(fresh)
            return Transfer.of(fresh)
        if ctx is not None:
            self._finish_span(ctx, reply, started, connection, status="error")
        if reply.type is FrameType.ERROR:
            raise WireError(
                f"remote error: {reply.body.get('code')} "
                f"({reply.body.get('message')})"
            )
        raise WireError(f"unexpected reply {reply.type.name} to READ")

    def _observe_rtt(self, rtt_s: float) -> None:
        self.stats.observe("read_rtt_ms", rtt_s * 1000.0)
        if self.tuner is not None and self.tuner.observe(rtt_s):
            self.stats.set_gauge("autotune_batch", float(self.tuner.batch))
            self.stats.set_gauge(
                "autotune_credit", float(self.tuner.credit_window)
            )

    async def _drain_inflight(self, connection: Connection) -> None:
        """Collect replies to pipelined READs still on the wire at END.

        The server answers each with an idempotent END; leaving them
        unread would make our close look like a mid-request disconnect
        on the serving side.  Link faults here are moot — the stream
        already ended — so they only cut the drain short.
        """
        try:
            while self._inflight:
                self._inflight.popleft()
                if await self._recv(connection) is None:
                    break
        except (LinkDown, *_LINK_FAULTS):
            pass
        self._inflight.clear()

    async def _reset_link(self) -> None:
        """Drop a failed connection so the next read redials and resumes."""
        self.stats.bump("reconnects")
        self._inflight.clear()
        if self._connection is not None:
            await self._connection.close()
            self._connection = None

    def _finish_span(
        self,
        ctx: SpanContext,
        reply: Frame,
        started: float,
        connection: Connection,
        status: str = "ok",
        seq: Any = None,
        count: int = 0,
    ) -> SpanContext:
        """Close one READ span (adopting a reply's trace override)."""
        override = frame_trace(reply)
        if override is not None and override.trace != ctx.trace:
            # Datum-follows-trace: keep our span id, join the datum's
            # trace as a child of the hop that deposited it.
            ctx = SpanContext(
                trace=override.trace, span=ctx.span, parent=override.span
            )
        ended = connection.clock()
        self.last_span = ctx
        if self.tracer is not None:
            extra: dict[str, Any] = {}
            if isinstance(seq, int):
                # Sequence evidence for exactly-once verification
                # (``eden-trace --verify-once``): which stream slice
                # this span actually delivered.
                extra = {"seq": seq, "n": count}
            self.tracer.emit(
                ended, SPAN_KIND, self.label,
                trace=ctx.trace, span=ctx.span, parent=ctx.parent,
                op="READ", start=started, end=ended, status=status,
                **extra,
            )
        return ctx

    async def aclose(self) -> None:
        """Drop the connection (idempotent)."""
        if self._connection is not None:
            await self._connection.close()
            self._connection = None


class RemoteWritable:
    """Active output over TCP: the ``Writable`` face of a remote stage.

    Writes are governed by the credit window the server granted at
    WELCOME: each ``WRITE`` frame spends one credit per record, each
    ``ACK`` refunds what the server consumed.  A transfer that fits the
    available credit goes out as one ``WRITE`` (with the derived window
    that is every ``batch``-sized transfer); a larger burst is cut to
    the credit, in order.  When credit runs out the
    writer parks on the socket until an ACK arrives — backpressure by
    delayed reply, never by refusal, the paper's flow-control rule.

    With a ``spans`` allocator, every WRITE frame is one span (child of
    the span being served in this task) bracketing credit wait through
    frame send; the END span additionally covers the final-ACK wait.
    Credit occupancy is published as the ``credit_window`` /
    ``credit_available`` gauges.

    With ``resume=True`` the writer retains every record it has ever
    been asked to write (the send log) and stamps each WRITE with the
    ``seq`` of its first record.  A transport failure rewinds the send
    cursor to the ``resume_seq`` the reconnect's WELCOME advertises
    and replays from there; the server's :class:`PushState` drops any
    duplicated prefix.
    """

    def __init__(
        self,
        host: str,
        port: int,
        uid: Any,
        book: TicketBook | None = None,
        channel: Any = "Output",
        stats: NetStats | None = None,
        tracer: Tracer | None = None,
        label: str = "push-client",
        connect_deadline: float = 15.0,
        spans: SpanIds | None = None,
        resume: bool = False,
        io_timeout: float | None = None,
        injector: Any | None = None,
        codec: str = CODEC_JSON,
        flight: Any | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.uid = uid
        self.book = book
        self.channel = channel
        self.stats = stats if stats is not None else NetStats()
        self.tracer = tracer
        self.label = label
        self.connect_deadline = connect_deadline
        self.spans = spans
        self.resume = resume
        self.io_timeout = io_timeout
        self.injector = injector
        self.codec = codec
        self.flight = flight
        self._connection: Connection | None = None
        self._credit = 0
        self._ended = False
        #: Every record ever written (resume only) and the send cursor.
        self._sendlog: list[Any] = []
        self._next = 0

    async def _ensure_connected(self) -> Connection:
        if self._connection is None:
            reader, writer = await connect_with_backoff(
                self.host, self.port, deadline=self.connect_deadline
            )
            connection = Connection(
                reader, writer, stats=self.stats, end_is_request=True,
                tracer=self.tracer, label=self.label,
                injector=self.injector, flight=self.flight,
            )
            offer = CODECS if self.codec != CODEC_JSON else None
            welcome = await send_hello(
                reader, writer, self.uid, ROLE_PUSH,
                channel=self.channel, book=self.book,
                codecs=offer,
            )
            if offer:
                connection.codec = negotiated_codec(
                    [welcome.body.get("codec")], offer
                )
            self._credit = int(welcome.body.get("credit", 1))
            self.stats.set_gauge("credit_window", float(self._credit))
            self.stats.set_gauge("credit_available", float(self._credit))
            if self.resume:
                resume_seq = welcome.body.get("resume_seq")
                if isinstance(resume_seq, int):
                    # The server already holds the first resume_seq
                    # records: rewind (or fast-forward) the cursor.
                    self._next = max(0, min(resume_seq, len(self._sendlog)))
            self._connection = connection
        return self._connection

    async def _recv(self, connection: Connection) -> Frame | None:
        if self.io_timeout is None:
            return await connection.recv()
        try:
            return await asyncio.wait_for(connection.recv(), self.io_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            raise LinkDown(
                f"{self.label}: no ack within {self.io_timeout:.1f}s"
            ) from None

    async def _absorb(self, frame: Frame | None) -> bool:
        """Fold one server frame into the credit; True if final ACK."""
        if frame is None:
            if self.resume:
                raise LinkDown("peer closed while acks were outstanding")
            raise WireError("peer closed while acks were outstanding")
        if frame.type is FrameType.ERROR:
            raise WireError(
                f"remote error: {frame.body.get('code')} "
                f"({frame.body.get('message')})"
            )
        if frame.type is not FrameType.ACK:
            raise WireError(f"unexpected frame {frame.type.name} on push link")
        self._credit += int(frame.body.get("credit", 0))
        self.stats.set_gauge("credit_available", float(self._credit))
        return bool(frame.body.get("final", False))

    async def _reset_link(self) -> None:
        """Drop a failed connection; the next flush redials and rewinds."""
        self.stats.bump("reconnects")
        self._credit = 0
        if self._connection is not None:
            await self._connection.close()
            self._connection = None

    async def write(self, transfer: Transfer) -> None:
        if self._ended:
            raise StreamProtocolError("write after END")
        if not self.resume:
            await self._write_legacy(transfer)
            return
        if transfer.at_end:
            await self._end_resume()
            return
        self._sendlog.extend(transfer.items)
        await self._flush()

    async def _write_legacy(self, transfer: Transfer) -> None:
        connection = await self._ensure_connected()
        if transfer.at_end:
            ctx: SpanContext | None = None
            started = 0.0
            body: dict[str, Any] = {"channel": self.channel}
            if self.spans is not None:
                ctx = self.spans.derive(current_span())
                attach_trace(body, ctx)
                started = connection.clock()
            await connection.send(Frame(FrameType.END, body))
            # Wait for the final ack: when it arrives, every record has
            # been consumed downstream and the stage may exit safely.
            while not await self._absorb(await self._recv(connection)):
                pass
            if ctx is not None:
                self._finish_span(ctx, "END", started, connection)
            self._ended = True
            await connection.close()
            self._connection = None
            return
        pending = list(transfer.items)
        while pending:
            ctx = None
            started = 0.0
            if self.spans is not None:
                ctx = self.spans.derive(current_span())
                started = connection.clock()
            while self._credit <= 0:
                await self._absorb(await self._recv(connection))
            chunk, pending = pending[: self._credit], pending[self._credit:]
            body = {"items": chunk, "channel": self.channel}
            if ctx is not None:
                attach_trace(body, ctx)
            await connection.send(Frame(FrameType.WRITE, body))
            self._credit -= len(chunk)
            self.stats.bump("records_out", len(chunk))
            self.stats.set_gauge("credit_available", float(self._credit))
            if ctx is not None:
                self._finish_span(ctx, "WRITE", started, connection)

    async def _flush(self) -> None:
        """Drive the send log's cursor to its head, resuming over faults."""
        while self._next < len(self._sendlog):
            try:
                connection = await self._ensure_connected()
                ctx: SpanContext | None = None
                started = 0.0
                if self.spans is not None:
                    ctx = self.spans.derive(current_span())
                    started = connection.clock()
                while self._credit <= 0:
                    await self._absorb(await self._recv(connection))
                chunk = self._sendlog[self._next: self._next + self._credit]
                body: dict[str, Any] = {
                    "items": chunk, "channel": self.channel, "seq": self._next,
                }
                if ctx is not None:
                    attach_trace(body, ctx)
                await connection.send(Frame(FrameType.WRITE, body))
                self._next += len(chunk)
                self._credit -= len(chunk)
                self.stats.bump("records_out", len(chunk))
                self.stats.set_gauge("credit_available", float(self._credit))
                if ctx is not None:
                    self._finish_span(ctx, "WRITE", started, connection)
            except LinkDown:
                await self._reset_link()
            except (HandshakeLinkDown, *_LINK_FAULTS):
                await self._reset_link()

    async def _end_resume(self) -> None:
        """Flush everything, send END, and survive faults until final ACK."""
        while True:
            try:
                await self._flush()
                connection = await self._ensure_connected()
                ctx: SpanContext | None = None
                started = 0.0
                body: dict[str, Any] = {"channel": self.channel,
                                        "seq": self._next}
                if self.spans is not None:
                    ctx = self.spans.derive(current_span())
                    attach_trace(body, ctx)
                    started = connection.clock()
                await connection.send(Frame(FrameType.END, body))
                while not await self._absorb(await self._recv(connection)):
                    pass
                if ctx is not None:
                    self._finish_span(ctx, "END", started, connection)
                break
            except LinkDown:
                await self._reset_link()
            except (HandshakeLinkDown, *_LINK_FAULTS):
                await self._reset_link()
        self._ended = True
        if self._connection is not None:
            await self._connection.close()
            self._connection = None

    def _finish_span(
        self,
        ctx: SpanContext,
        op: str,
        started: float,
        connection: Connection,
    ) -> None:
        """Close one WRITE/END span."""
        ended = connection.clock()
        self.stats.observe("ack_wait_ms", (ended - started) * 1000.0)
        if self.tracer is not None:
            self.tracer.emit(
                ended, SPAN_KIND, self.label,
                trace=ctx.trace, span=ctx.span, parent=ctx.parent,
                op=op, start=started, end=ended, status="ok",
            )


# ---------------------------------------------------------------------------
# Passive (server) sides.
# ---------------------------------------------------------------------------

#: A single stream, or a channel-id -> Readable table (paper §5).
ReadableMap = Union[Any, Mapping[Any, Any]]


def _resolve_channel(readables: ReadableMap, channel: Any) -> Any:
    """Find the Readable a channel identifier addresses.

    A mapping gives multi-channel service: string/integer/capability
    keys are matched by equality, which for capabilities includes the
    64-bit secret — a forged capability simply fails the lookup, the
    same outcome the simulator's ``ChannelMinter.validate`` produces.
    """
    if not isinstance(readables, Mapping):
        return readables
    try:
        return readables[channel]
    except (KeyError, TypeError):
        raise NoSuchChannelError(channel, "serve_pull") from None


class ReplayLog:
    """Full retention for one pull-served channel (resume only).

    The log outlives any single connection: every record the stage has
    produced on the channel stays here (with the trace origin it was
    produced under), so a consumer reconnecting at ``next_seq = k`` is
    served records ``k, k+1, ...`` from memory instead of advancing
    the — non-rewindable — underlying Readable.  ``lock`` serialises
    producers across connections; ``served_high`` marks how far any
    consumer has gotten, so re-served records are counted as
    ``replayed_records``.
    """

    def __init__(self) -> None:
        self.records: list[Any] = []
        self.origins: list[SpanContext | None] = []
        self.ended = False
        self.served_high = 0
        self.replayed = 0
        self.lock = asyncio.Lock()


@dataclass
class PushState:
    """One push-served channel's progress, shared across connections.

    ``received`` is the count of records actually accepted into the
    local Writable — exactly the ``resume_seq`` a reconnect's WELCOME
    advertises; ``ended`` remembers a consumed END so a replayed END
    is re-acknowledged, not re-written.
    """

    received: int = 0
    ended: bool = False
    duplicates: int = field(default=0)


async def serve_pull(
    connection: Connection,
    readables: ReadableMap,
    hello: Hello | None = None,
    batch_limit: int | None = None,
    logs: MutableMapping[Any, ReplayLog] | None = None,
) -> bool:
    """Answer a pull client: passive output over one connection.

    Serves ``READ`` frames from the addressed Readable until the
    client disconnects.  END replies are idempotent: every READ past
    the end is answered END again.

    ``logs`` (a channel-key → :class:`ReplayLog` mapping owned by the
    *stage*, not this connection) switches on resume service: records
    are retained, ``DATA`` frames carry ``seq``, and the connection's
    read cursor starts at the hello's ``next_seq``.

    Returns True when the connection completed its stream — under
    resume, only if this connection actually delivered an END, so a
    consumer that died mid-stream (and will reconnect) is not mistaken
    for a finished one.
    """
    if logs is None:
        return await _serve_pull_legacy(connection, readables, batch_limit)
    return await _serve_pull_resume(connection, readables, hello,
                                    batch_limit, logs)


#: Cap on READ replies coalesced into one vectored burst (bounds both
#: reply latency and the number of pooled buffers held at once).
_REPLY_BURST = 64


async def _serve_pull_legacy(
    connection: Connection,
    readables: ReadableMap,
    batch_limit: int | None,
) -> bool:
    ended: set[Any] = set()
    while True:
        frame = await connection.recv()
        if frame is None:
            return True
        # A pipelined client packs several READs into one segment; every
        # one already decoded (recv_nowait) is answered in this burst,
        # so the reply side costs one vectored write, not one write per
        # request.  Replies stay in request order.
        replies: list[Frame] = []
        fatal: WireError | None = None
        while True:
            reply = None
            if frame.type is not FrameType.READ:
                reply = Frame(FrameType.ERROR, {
                    "code": "bad-frame",
                    "message": f"pull connection got {frame.type.name}",
                })
                fatal = WireError(f"pull connection got {frame.type.name}")
            else:
                channel = frame.body.get("channel")
                batch = max(1, int(frame.body.get("batch", 1)))
                if batch_limit is not None:
                    batch = min(batch, batch_limit)
                readable = None
                try:
                    readable = _resolve_channel(readables, channel)
                except NoSuchChannelError as error:
                    reply = Frame(FrameType.ERROR, {
                        "code": "no-such-channel", "message": str(error),
                    })
                if readable is not None:
                    key = _channel_key(channel)
                    if key in ended:
                        reply = Frame(FrameType.END, {"channel": channel})
                    else:
                        # Serve under the READ's span so any request
                        # this read triggers (an upstream pull, a
                        # downstream push) parents itself on it.
                        ctx = frame_trace(frame)
                        started = connection.clock()
                        with bind_span(ctx):
                            transfer = await readable.read(batch)
                        connection.stats.observe(
                            "serve_read_ms",
                            (connection.clock() - started) * 1000.0,
                        )
                        # A buffer hands back records deposited under
                        # another trace; forward that origin so the
                        # reader joins the datum's trace.
                        origin = getattr(readable, "last_read_origin", None)
                        if transfer.at_end:
                            ended.add(key)
                            body = {"channel": channel}
                            reply = Frame(
                                FrameType.END, attach_trace(body, origin)
                            )
                        else:
                            items = list(transfer.items)
                            body = {"items": items, "channel": channel}
                            reply = Frame(
                                FrameType.DATA, attach_trace(body, origin)
                            )
                            connection.stats.bump("records_out", len(items))
            replies.append(reply)
            if fatal is not None or len(replies) >= _REPLY_BURST:
                break
            nxt = connection.recv_nowait()
            if nxt is None:
                break
            frame = nxt
        if len(replies) == 1:
            await connection.send(replies[0])
        else:
            await connection.send_many(replies)
        if fatal is not None:
            raise fatal


async def _serve_pull_resume(
    connection: Connection,
    readables: ReadableMap,
    hello: Hello | None,
    batch_limit: int | None,
    logs: MutableMapping[Any, ReplayLog],
) -> bool:
    start = 0
    if hello is not None and hello.next_seq is not None:
        start = hello.next_seq
    cursors: dict[Any, int] = {}
    served_end = False
    while True:
        frame = await connection.recv()
        if frame is None:
            return served_end
        if frame.type is not FrameType.READ:
            await connection.send(Frame(FrameType.ERROR, {
                "code": "bad-frame",
                "message": f"pull connection got {frame.type.name}",
            }))
            raise WireError(f"pull connection got {frame.type.name}")
        channel = frame.body.get("channel")
        batch = max(1, int(frame.body.get("batch", 1)))
        if batch_limit is not None:
            batch = min(batch, batch_limit)
        try:
            readable = _resolve_channel(readables, channel)
        except NoSuchChannelError as error:
            await connection.send(Frame(FrameType.ERROR, {
                "code": "no-such-channel", "message": str(error),
            }))
            continue
        key = _channel_key(channel)
        log = logs.setdefault(key, ReplayLog())
        cursor = cursors.get(key, start)
        ctx = frame_trace(frame)
        async with log.lock:
            # Fill the log until it can answer at ``cursor`` — also the
            # fast-forward path of a *restarted* stage whose fresh log
            # must regenerate records a consumer already holds.
            while len(log.records) <= cursor and not log.ended:
                started = connection.clock()
                with bind_span(ctx):
                    transfer = await readable.read(batch)
                connection.stats.observe(
                    "serve_read_ms", (connection.clock() - started) * 1000.0
                )
                origin = getattr(readable, "last_read_origin", None)
                if transfer.at_end:
                    log.ended = True
                else:
                    items = list(transfer.items)
                    log.records.extend(items)
                    log.origins.extend([origin] * len(items))
            if cursor < len(log.records):
                stop = min(len(log.records), cursor + batch)
                items = log.records[cursor:stop]
                origin = log.origins[cursor]
                replayed = max(0, min(stop, log.served_high) - cursor)
                if replayed:
                    log.replayed += replayed
                    connection.stats.bump("replayed_records", replayed)
                log.served_high = max(log.served_high, stop)
                cursors[key] = stop
                body = {"items": items, "channel": channel, "seq": cursor}
                await connection.send(
                    Frame(FrameType.DATA, attach_trace(body, origin))
                )
                connection.stats.bump("records_out", len(items))
            else:
                body = {"channel": channel, "seq": len(log.records)}
                await connection.send(Frame(FrameType.END, body))
                served_end = True


def _channel_key(channel: Any) -> Any:
    try:
        hash(channel)
        return channel
    except TypeError:
        return repr(channel)


async def serve_push(
    connection: Connection,
    writable: Any,
    hello: Hello | None = None,
    state: PushState | None = None,
) -> bool:
    """Receive a push client: passive input over one connection.

    The initial credit was granted in the WELCOME (see
    :func:`repro.net.handshake.expect_hello`); this loop refunds credit
    only *after* the local writable has accepted the records, so the
    window bounds true end-to-end in-flight data.

    ``state`` (a :class:`PushState` owned by the *stage*) switches on
    resume service: ``WRITE`` frames whose ``seq`` shows they replay an
    already-accepted prefix have that prefix dropped (credit is still
    refunded in full), and an END after a consumed END is
    re-acknowledged without touching the writable.

    Returns True when the connection completed its stream — under
    resume, only if an END actually arrived, so a producer that died
    mid-stream (and will reconnect) is not mistaken for a finished one.
    """
    if state is None:
        return await _serve_push_legacy(connection, writable)
    return await _serve_push_resume(connection, writable, state)


async def _serve_push_legacy(connection: Connection, writable: Any) -> bool:
    while True:
        frame = await connection.recv()
        if frame is None:
            return True
        if frame.type is FrameType.WRITE:
            items = frame.body.get("items", [])
            started = connection.clock()
            # Serve under the WRITE's span: a downstream push this
            # write triggers (or a buffer deposit) joins its trace.
            with bind_span(frame_trace(frame)):
                await writable.write(Transfer.of(items))
            connection.stats.observe(
                "serve_write_ms", (connection.clock() - started) * 1000.0
            )
            connection.stats.bump("records_in", len(items))
            await connection.send(Frame(FrameType.ACK, {
                "credit": len(items), "channel": frame.body.get("channel"),
            }))
        elif frame.type is FrameType.END:
            with bind_span(frame_trace(frame)):
                await writable.write(END_TRANSFER)
            try:
                await connection.send(Frame(FrameType.ACK, {
                    "credit": 0, "final": True,
                    "channel": frame.body.get("channel"),
                }))
            except (ConnectionError, OSError, FrameError):
                pass  # writer may close the instant END is out
            return True
        else:
            await connection.send(Frame(FrameType.ERROR, {
                "code": "bad-frame",
                "message": f"push connection got {frame.type.name}",
            }))
            raise WireError(f"push connection got {frame.type.name}")


async def _serve_push_resume(
    connection: Connection,
    writable: Any,
    state: PushState,
) -> bool:
    while True:
        frame = await connection.recv()
        if frame is None:
            return False
        if frame.type is FrameType.WRITE:
            items = list(frame.body.get("items", []))
            seq = frame.body.get("seq")
            skip = 0
            if isinstance(seq, int):
                skip = min(len(items), max(0, state.received - seq))
            if skip:
                state.duplicates += skip
                connection.stats.bump("duplicate_records", skip)
            fresh = items[skip:]
            started = connection.clock()
            if fresh and not state.ended:
                with bind_span(frame_trace(frame)):
                    await writable.write(Transfer.of(fresh))
                state.received += len(fresh)
                connection.stats.bump("records_in", len(fresh))
            connection.stats.observe(
                "serve_write_ms", (connection.clock() - started) * 1000.0
            )
            # Refund the *full* frame: duplicates consumed no buffer.
            await connection.send(Frame(FrameType.ACK, {
                "credit": len(items), "channel": frame.body.get("channel"),
            }))
        elif frame.type is FrameType.END:
            if not state.ended:
                with bind_span(frame_trace(frame)):
                    await writable.write(END_TRANSFER)
                state.ended = True
            try:
                await connection.send(Frame(FrameType.ACK, {
                    "credit": 0, "final": True,
                    "channel": frame.body.get("channel"),
                }))
            except (ConnectionError, OSError, FrameError):
                pass  # writer may close the instant END is out
            return True
        else:
            await connection.send(Frame(FrameType.ERROR, {
                "code": "bad-frame",
                "message": f"push connection got {frame.type.name}",
            }))
            raise WireError(f"push connection got {frame.type.name}")
