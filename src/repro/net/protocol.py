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
from retransmission, deduplication from ``seq``.

``resume`` means exactly those two things — frames carry ``seq``, and
state that must outlive a link (:class:`ReplayLog`, :class:`PushState`,
the send log) is retained, so a link fault becomes a redial instead of
an error.  Every verb is one loop either way: the reply bursts, the
credit arithmetic and the END rules are the same code for a resuming
and a plain stream, and a plain stream's frames are a resuming
stream's frames minus the ``seq`` key.
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Awaitable, Callable, Mapping, MutableMapping, Sequence, Union,
)

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
    TRACE_KEY,
    Frame,
    FrameError,
    FrameProtocol,
    FrameType,
    _release_after_write,
    attach_trace,
    encode_frame_into,
    frame_trace,
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
from repro.transput.stream import END_TRANSFER, Transfer

__all__ = [
    "WireError",
    "LinkDown",
    "Connection",
    "connect_with_backoff",
    "inherited_listener",
    "listen_socket",
    "welcome_within",
    "RemoteReadable",
    "RemoteWritable",
    "ReplayLog",
    "PushState",
    "channel_key",
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
#: (``asyncio.TimeoutError`` aliases ``TimeoutError`` from 3.11 on.)
_LINK_FAULTS = (
    ConnectionError,
    OSError,
    FrameError,
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
        self._transport = writer.transport
        #: The socket's frame protocol, taken up on first recv: the one
        #: the handshake's first read installed, or a new one.
        self._frames: FrameProtocol | None = None

    async def send(self, frame: Frame) -> None:
        """Encode one frame into a pooled buffer and write it.

        ``drain`` is awaited only when the transport kept bytes back or
        is closing; otherwise the bytes are already in the kernel and
        the buffer goes back to the pool at once.
        """
        out = POOL.acquire()
        try:
            wire_bytes = encode_frame_into(frame, out, self.codec)
        except BaseException:
            POOL.release(out)
            raise
        if self.flight is not None:
            # What the stage *believes* it sent: an injector's
            # mutations are the chaos under test.
            self.flight.on_sent(out)
        transport = self._transport
        if self.injector is None:
            transport.write(out)
        else:
            for chunk in await self.injector.outgoing(frame.type.name,
                                                      bytes(out)):
                transport.write(chunk)
        if transport.get_write_buffer_size() or transport.is_closing():
            await self.writer.drain()  # `out` may still be queued: not recycled
        else:
            POOL.release(out)
        self.stats.note_sent(frame, wire_bytes, self.end_is_request)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
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
        tracer = self.tracer
        for frame, wire_bytes in zip(frames, sizes):
            self.stats.note_sent(frame, wire_bytes, self.end_is_request)
            if tracer is not None and tracer.enabled:
                tracer.emit(
                    now, "send", self.label,
                    frame=frame.type.name, bytes=wire_bytes,
                )

    def _note_received(self, frame: Frame, wire_bytes: int) -> None:
        self.stats.note_received(frame, wire_bytes)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.clock(), "recv", self.label,
                frame=frame.type.name, bytes=wire_bytes,
            )

    def _adopt(self) -> FrameProtocol:
        self._frames = frames = FrameProtocol.of(self.reader, self.writer)
        if self.flight is not None:
            frames.tee = self.flight.on_received
        return frames

    async def recv(self) -> Frame | None:
        frame, wire_bytes = await (self._frames or self._adopt()).recv()
        if frame is not None:
            self._note_received(frame, wire_bytes)
        return frame

    def recv_nowait(self) -> Frame | None:
        """An inbound frame already decoded from a past read, else None.

        Performs no I/O, so "None" only means every frame read so far
        has been taken.  The pull server uses this to discover that a
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


#: The descriptor a forked first incarnation finds its listener on, the
#: first after stdio (:mod:`repro.net.zygote` puts it there).
LISTENER_FD = 3
#: The accept backlog of every listener (``asyncio.start_server``'s).
_BACKLOG = 100


def listen_socket(host: str, port: int) -> socket.socket:
    """The one way :mod:`repro.net` and :mod:`repro.broker` listen.

    A non-blocking IPv4 TCP socket, bound with ``SO_REUSEADDR`` and
    listening, for ``asyncio.start_server(sock=…)`` to adopt.  Its
    ``proto`` is ``IPPROTO_TCP``, not 0: asyncio sets ``TCP_NODELAY``
    on an accepted link only when its socket says so, and a link with
    Nagle on stalls on delayed ACKs.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM,
                         socket.IPPROTO_TCP)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(_BACKLOG)
        sock.setblocking(False)
    except BaseException:
        sock.close()
        raise
    return sock


def inherited_listener(host: str, port: int | None) -> socket.socket | None:
    """A copy of the listener on :data:`LISTENER_FD`, if it listens on
    ``host:port``.

    A fleet's zygote hands each process's first incarnation the socket
    its driver bound for it there.  The descriptor itself stays open
    until the process exits, whoever closes the copy: a dial queued on
    a process that fails before it accepts is reset as the process
    exits, as a killed process's links are, and so reaches its dialler
    with the exit, not some milliseconds before it.  Anything else on
    that descriptor — nothing, a file, another address — stays as it
    is, and the process binds for itself.
    """
    try:
        sock = socket.socket(fileno=LISTENER_FD)
    except OSError:
        return None  # closed, or not a socket
    try:
        if (sock.family == socket.AF_INET
                and sock.proto == socket.IPPROTO_TCP
                and sock.getsockopt(socket.SOL_SOCKET, socket.SO_ACCEPTCONN)):
            bound_host, bound_port = sock.getsockname()
            # A plan's numeric host matches as text: resolving it would
            # import the idna codec, milliseconds of every start-up.
            if bound_port == port and (
                    bound_host == host
                    or bound_host == socket.gethostbyname(host)):
                copy = sock.dup()
                copy.setblocking(False)
                return copy
    except OSError:
        pass
    finally:
        sock.detach()
    return None


#: The retry schedule of every dial: the first sleep, doubled up to the
#: cap.  No dial on a run's start path sleeps: every listener is bound
#: before anything dials it (a fleet's driver binds its processes'
#: before it forks them, and an in-loop stage binds when it is made).
#: What is left to retry is a peer that died and is being restarted,
#: which binds a few milliseconds after its fork; a refused loopback
#: dial costs microseconds, so the schedule starts at 2 ms and stays
#: small, and every sleep past the restart is time the stream waits.
_FIRST_RETRY_DELAY = 0.002
_MAX_RETRY_DELAY = 0.005


async def retry_with_backoff(
    attempt: Callable[[], Awaitable[Any]],
    what: str,
    deadline: float = 15.0,
) -> Any:
    """Await ``attempt()`` until it stops failing with a transient error.

    A ``ConnectionError`` / ``OSError`` sleeps and retries on the dial
    schedule (2 ms, doubling, capped at 5 ms); one that would outlast
    ``deadline`` seconds is a fatal :class:`WireError` naming ``what``.
    """
    started = time.monotonic()
    delay = _FIRST_RETRY_DELAY
    while True:
        try:
            return await attempt()
        except (ConnectionError, OSError) as error:
            if time.monotonic() - started + delay > deadline:
                raise WireError(
                    f"could not connect to {what} "
                    f"within {deadline:.1f}s: {error}"
                ) from error
            await asyncio.sleep(delay)
            delay = min(delay * 2, _MAX_RETRY_DELAY)


async def connect_with_backoff(
    host: str,
    port: int,
    deadline: float = 15.0,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Dial ``host:port``, retrying transient failures with backoff.

    Stages of one pipeline are spawned concurrently, so a client may
    dial before its server listens; :func:`retry_with_backoff` up to
    ``deadline`` seconds absorbs that (and transient RSTs) without any
    start-order coordination.  The same deadline bounds resume: a
    client reconnecting to a crashed stage waits this long for the
    supervisor to restart it before giving up with a fatal
    :class:`WireError`.
    """
    return await retry_with_backoff(
        lambda: asyncio.open_connection(host, port), f"{host}:{port}",
        deadline,
    )


async def welcome_within(hello: Awaitable[Frame],
                         writer: asyncio.StreamWriter, what: str,
                         deadline: float) -> Frame:
    """``hello``'s WELCOME, or a :class:`WireError` after ``deadline``.

    A dial can land in a listener's backlog before its process accepts
    (a listener is bound before its process starts), so the handshake
    waits for the process too, and that wait has the dial's deadline.
    A listener that closes meanwhile resets the link at once.  The link
    is closed however the wait fails.
    """
    try:
        return await asyncio.wait_for(hello, deadline)
    except BaseException as error:
        writer.close()
        if isinstance(error, asyncio.TimeoutError):
            raise WireError(
                f"no WELCOME from {what} within {deadline:.1f}s") from None
        raise


class _RemoteEnd:
    """What the two active ends share: one link to a passive peer.

    Holds the dial parameters and the current connection; redials on
    demand (:meth:`_ensure_connected`: dial, say HELLO, read the
    WELCOME once), bounds every reply wait by ``io_timeout``
    (:meth:`_recv`) and drops a failed link so the next use redials
    (:meth:`_reset_link`).  A subclass names its ``role``; another
    transport (:mod:`repro.net.mux`) overrides only :meth:`_dial`.
    """

    role: str

    def __init__(
        self,
        host: str,
        port: int,
        uid: Any,
        book: TicketBook | None = None,
        channel: Any = "Output",
        stats: NetStats | None = None,
        tracer: Tracer | None = None,
        label: str | None = None,
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
        self.label = label if label is not None else f"{self.role}-client"
        self.connect_deadline = connect_deadline
        self.spans = spans
        self.resume = resume
        self.io_timeout = io_timeout
        self.injector = injector
        self.codec = codec
        self.flight = flight
        self._connection: Any = None
        self._ended = False

    def _hello_seq(self) -> int | None:
        """The stream position the HELLO asks to resume from, if any."""
        return None

    def _welcomed(self, body: Mapping[str, Any]) -> None:
        """Adopt what a fresh link's WELCOME grants (beyond the codec)."""

    async def _dial(self, offer: Any) -> tuple[Any, Frame]:
        """Open a link and say HELLO: ``(connection, WELCOME frame)``."""
        reader, writer = await connect_with_backoff(
            self.host, self.port, deadline=self.connect_deadline
        )
        connection = Connection(
            reader, writer, stats=self.stats,
            end_is_request=self.role == ROLE_PUSH,
            tracer=self.tracer, label=self.label,
            injector=self.injector, flight=self.flight,
        )
        welcome = await welcome_within(send_hello(
            reader, writer, self.uid, self.role,
            channel=self.channel, book=self.book,
            next_seq=self._hello_seq(), codecs=offer,
        ), writer, f"{self.host}:{self.port}", self.connect_deadline)
        return connection, welcome

    async def _ensure_connected(self) -> Any:
        if self._connection is None:
            offer = CODECS if self.codec != CODEC_JSON else None
            connection, welcome = await self._dial(offer)
            if offer:
                connection.codec = negotiated_codec(
                    [welcome.body.get("codec")], offer
                )
            self._welcomed(welcome.body)
            self._connection = connection
        return self._connection

    async def _recv(self, connection: Any) -> Frame | None:
        if self.io_timeout is None:
            return await connection.recv()
        try:
            return await asyncio.wait_for(connection.recv(), self.io_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            raise LinkDown(
                f"{self.label}: no reply within {self.io_timeout:.1f}s"
            ) from None

    async def _reset_link(self) -> None:
        """Drop a failed connection so the next use redials and resumes."""
        self.stats.bump("reconnects")
        await self.aclose()

    async def aclose(self) -> None:
        """Drop the connection (idempotent)."""
        if self._connection is not None:
            await self._connection.close()
            self._connection = None


class RemoteReadable(_RemoteEnd):
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
    finishes, which the reader drains before closing.
    """

    role = ROLE_PULL

    def __init__(self, *args: Any, pipeline_depth: int = 1,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.pipeline_depth = max(1, pipeline_depth)
        #: Span context of the most recent read (post-adoption).
        self.last_span: SpanContext | None = None
        #: Records accepted so far == the next sequence number wanted.
        self.received = 0
        #: (span ctx, send time) of every READ awaiting its reply.
        self._inflight: deque[tuple[SpanContext | None, float]] = deque()

    def _hello_seq(self) -> int | None:
        return self.received if self.resume else None

    async def _pump(self, connection: Connection, batch: int) -> None:
        """Top the in-flight READ window up to the pipeline depth."""
        want = self.pipeline_depth - len(self._inflight)
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

    async def read(self, batch: int = 1) -> Transfer:
        if self._ended:
            return END_TRANSFER
        while True:
            try:
                transfer = await self._read_once(batch)
            except LinkDown:
                if not self.resume:
                    raise
                await self._reset_link()
                continue
            if transfer is not None:  # None: reply was all duplicates
                return transfer

    async def _read_once(self, batch: int) -> Transfer | None:
        try:
            connection = self._connection
            if connection is None:
                connection = await self._ensure_connected()
            if self.pipeline_depth == 1 and self.spans is None:
                # The lazy READ: one frame, no window to top up.
                started = connection.clock()
                await connection.send(Frame(FrameType.READ, {
                    "batch": max(1, batch), "channel": self.channel}))
                self._inflight.append((None, started))
            else:
                await self._pump(connection, batch)
            if self.io_timeout is None:
                reply = await connection.recv()
            else:
                reply = await self._recv(connection)
        except (HandshakeLinkDown, *_LINK_FAULTS) as error:
            if self.resume:
                raise LinkDown(f"{self.label}: link failed: {error}") from error
            raise
        ctx, started = (
            self._inflight.popleft() if self._inflight else (None, 0.0)
        )
        if reply is None:
            if self.resume:
                raise LinkDown("peer closed mid-stream (no END received)")
            raise WireError("peer closed mid-stream (no END received)")
        reply_type = reply.type
        if reply_type is FrameType.DATA or reply_type is FrameType.END:
            self.stats.observe("read_rtt_ms", (connection.clock() - started) * 1000.0)
            fresh: list[Any] = []
            seq = reply.body.get("seq")
            if reply_type is FrameType.DATA:
                fresh = reply.body.get("items", fresh)
                if type(fresh) is not list:
                    raise WireError(f"DATA items must be a list, got {type(fresh).__name__}")
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
            if reply_type is FrameType.END:
                self._ended = True
                await self._drain_inflight(connection)
                await self.aclose()
                return END_TRANSFER
            if fresh:
                self.stats.counters["records_in"] += len(fresh)
            if self.resume:
                if not fresh:
                    return None
                self.received += len(fresh)
            return Transfer.of(fresh)
        if ctx is not None:
            self._finish_span(ctx, reply, started, connection, status="error")
        if reply_type is FrameType.ERROR:
            raise WireError(
                f"remote error: {reply.body.get('code')} "
                f"({reply.body.get('message')})"
            )
        raise WireError(f"unexpected reply {reply_type.name} to READ")

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
        self._inflight.clear()  # their replies died with the link
        await super()._reset_link()

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


class RemoteWritable(_RemoteEnd):
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

    Records wait in one pending log and one loop (:meth:`_drive`)
    sends them from the cursor.  Without resume a record is forgotten
    as soon as its frame is out, so the log never holds more than the
    transfer being written, and a link fault ends the stream.  With
    ``resume=True`` the log is the *send log* — every record ever
    written — each WRITE is stamped with the ``seq`` of its first
    record, and a transport failure redials, rewinds the cursor to the
    ``resume_seq`` the reconnect's WELCOME advertises and replays from
    there; the server's :class:`PushState` drops any duplicated prefix.
    """

    role = ROLE_PUSH

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._credit = 0
        #: Records awaiting their WRITE (under resume: every record
        #: ever written) and the index of the next one to send.
        self._pending: list[Any] = []
        self._cursor = 0

    def _welcomed(self, body: Mapping[str, Any]) -> None:
        self._credit = int(body.get("credit", 1))
        self.stats.set_gauge("credit_window", float(self._credit))
        self.stats.set_gauge("credit_available", float(self._credit))
        resume_seq = body.get("resume_seq")
        if self.resume and isinstance(resume_seq, int):
            # The server already holds the first resume_seq records:
            # rewind (or fast-forward) the cursor.
            self._cursor = max(0, min(resume_seq, len(self._pending)))

    async def _absorb(self, frame: Frame | None) -> bool:
        """Fold one server frame into the credit; True if final ACK."""
        if frame is None:
            raise (LinkDown if self.resume else WireError)(
                "peer closed while acks were outstanding"
            )
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

    async def write(self, transfer: Transfer) -> None:
        if self._ended:
            raise StreamProtocolError("write after END")
        self._pending.extend(transfer.items)
        while True:
            try:
                await self._drive(transfer.at_end)
                return
            except (LinkDown, HandshakeLinkDown, *_LINK_FAULTS):
                if not self.resume:
                    raise
                await self._reset_link()

    async def _drive(self, end: bool) -> None:
        """Send the pending log from the cursor, then (``end``) the END.

        Returns once every pending record is out — and, after an END,
        once the final ACK says every record was consumed downstream
        and the stage may exit safely.
        """
        connection = await self._ensure_connected()
        while self._cursor < len(self._pending):
            ctx: SpanContext | None = None
            started = 0.0
            if self.spans is not None:
                ctx = self.spans.derive(current_span())
                started = connection.clock()
            while self._credit <= 0:
                await self._absorb(await self._recv(connection))
            chunk = self._pending[self._cursor: self._cursor + self._credit]
            body: dict[str, Any] = {"items": chunk, "channel": self.channel}
            if self.resume:
                body["seq"] = self._cursor
            await connection.send(
                Frame(FrameType.WRITE, attach_trace(body, ctx))
            )
            if self.resume:
                self._cursor += len(chunk)
            else:
                del self._pending[: len(chunk)]
            self._credit -= len(chunk)
            self.stats.bump("records_out", len(chunk))
            self.stats.set_gauge("credit_available", float(self._credit))
            if ctx is not None:
                self._finish_span(ctx, "WRITE", started, connection)
        if not end:
            return
        ctx = None
        body = {"channel": self.channel}
        if self.resume:
            body["seq"] = self._cursor
        if self.spans is not None:
            ctx = self.spans.derive(current_span())
            started = connection.clock()
        await connection.send(Frame(FrameType.END, attach_trace(body, ctx)))
        while not await self._absorb(await self._recv(connection)):
            pass
        if ctx is not None:
            self._finish_span(ctx, "END", started, connection)
        self._ended = True
        await self.aclose()

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


def _resolve_channel(readables: Mapping[Any, Any], channel: Any) -> Any:
    """Find the Readable a channel identifier addresses in a table.

    A mapping gives multi-channel service: string/integer/capability
    keys are matched by equality, which for capabilities includes the
    64-bit secret — a forged capability simply fails the lookup, the
    same outcome the simulator's ``ChannelMinter.validate`` produces.
    """
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
        self.end_origin: SpanContext | None = None
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


def channel_key(channel: Any) -> Any:
    """A dict key for per-channel state (channel ids may be unhashable)."""
    try:
        hash(channel)
        return channel
    except TypeError:
        return repr(channel)


def _error_frame(code: str, message: str) -> Frame:
    return Frame(FrameType.ERROR, {"code": code, "message": message})


async def _refuse(connection: Connection, message: str) -> None:
    """Answer a frame this loop cannot serve with ERROR, then fail."""
    await connection.send(_error_frame("bad-frame", message))
    raise WireError(message)


#: Cap on READ replies coalesced into one vectored burst (bounds both
#: reply latency and the number of pooled buffers held at once).
_REPLY_BURST = 64


async def _read_under(
    connection: Connection, request: Frame, readable: Any, batch: int,
) -> tuple[Transfer, Any]:
    """One ``readable.read`` on behalf of a READ: ``(transfer, origin)``.

    Served under the READ's span, so any request this read triggers (an
    upstream pull, a downstream push) parents itself on it.  A buffer
    hands back records deposited under another trace; that ``origin``
    is forwarded so the reader joins the datum's trace.  (An untraced
    READ in a task serving no span has nothing to bind.)
    """
    started = connection.clock()
    if TRACE_KEY in request.body or current_span() is not None:
        with bind_span(frame_trace(request)):
            transfer = await readable.read(batch)
    else:
        transfer = await readable.read(batch)
    connection.stats.observe(
        "serve_read_ms", (connection.clock() - started) * 1000.0
    )
    return transfer, getattr(readable, "last_read_origin", None)


async def _read_log(
    log: ReplayLog, connection: Connection, request: Frame, readable: Any,
    cursor: int, batch: int,
) -> tuple[list[Any] | None, Any, int]:
    """The resume answer to a READ at ``cursor``: ``(items, origin, seq)``.

    Fills the log until it can answer at ``cursor`` — also the
    fast-forward path of a *restarted* stage whose fresh log must
    regenerate records a consumer already holds.  ``items`` is None
    once the stream has ended at or before ``cursor``.
    """
    async with log.lock:
        while len(log.records) <= cursor and not log.ended:
            transfer, origin = await _read_under(
                connection, request, readable, batch
            )
            if transfer.at_end:
                log.ended, log.end_origin = True, origin
            else:
                log.records.extend(transfer.items)
                log.origins.extend([origin] * len(transfer.items))
        if cursor >= len(log.records):
            return None, log.end_origin, len(log.records)
        stop = min(len(log.records), cursor + batch)
        replayed = max(0, min(stop, log.served_high) - cursor)
        if replayed:
            log.replayed += replayed
            connection.stats.bump("replayed_records", replayed)
        log.served_high = max(log.served_high, stop)
        return log.records[cursor:stop], log.origins[cursor], cursor


async def serve_pull(
    connection: Connection,
    readables: ReadableMap,
    hello: Hello | None = None,
    logs: MutableMapping[Any, ReplayLog] | None = None,
) -> bool:
    """Answer a pull client: passive output over one connection.

    Serves ``READ`` frames from the addressed Readable until the
    client disconnects.  A pipelined client packs several READs into
    one segment; every one already decoded (``recv_nowait``) is
    answered in the same burst, so the reply side costs one vectored
    write, not one write per request.  Replies stay in request order.
    END replies are idempotent: every READ past the end is answered
    END again.

    ``logs`` (a channel-key → :class:`ReplayLog` mapping owned by the
    *stage*, not this connection) switches on resume service: records
    are retained, ``DATA`` and ``END`` frames carry ``seq``, and the
    connection's read cursor starts at the hello's ``next_seq``.
    Where the next ``batch`` records come from — the Readable, or the
    log filled under its lock — is the only step that differs.

    Returns True when the connection completed its stream.  A reader
    may stop early, so a hang-up ends the service — but under resume
    only a delivered END counts, so a consumer that died mid-stream
    (and will reconnect) is not mistaken for a finished one.
    """
    start = 0
    if hello is not None and hello.next_seq is not None:
        start = hello.next_seq
    cursors: dict[Any, int] = {}
    #: channel key -> the idempotent END reply, once the END was served.
    ended: dict[Any, Frame] = {}
    # One stream answers every channel id; only a table is looked up.
    single = None if isinstance(readables, Mapping) else readables

    async def answer(request: Frame, batch: int) -> Frame:
        channel = request.body.get("channel")
        key = channel_key(channel)
        if key in ended:
            return ended[key]
        readable = single
        if readable is None:
            try:
                readable = _resolve_channel(readables, channel)
            except NoSuchChannelError as error:
                return _error_frame("no-such-channel", str(error))
        body: dict[str, Any] = {"channel": channel}
        if logs is None:
            transfer, origin = await _read_under(
                connection, request, readable, batch
            )
            items = None if transfer.at_end else list(transfer.items)
        else:
            items, origin, body["seq"] = await _read_log(
                logs.setdefault(key, ReplayLog()), connection, request,
                readable, cursors.get(key, start), batch,
            )
        if items is None:
            ended[key] = Frame(FrameType.END, dict(body))
            return Frame(FrameType.END, attach_trace(body, origin))
        if logs is not None:
            cursors[key] = body["seq"] + len(items)
        connection.stats.counters["records_out"] += len(items)
        body = {"items": items, **body}
        if origin is not None:
            attach_trace(body, origin)
        return Frame(FrameType.DATA, body)

    # Once a burst carrying the END went out, the stream is complete
    # however the client hangs up: its READs may run ahead of the
    # replies (a duplicated reply re-pairs them), so it can close on
    # idempotent END replies still owed to it.
    end_sent = False
    try:
        while True:
            frame = await connection.recv()
            if frame is None:
                return logs is None or end_sent
            replies: list[Frame] = []
            fatal: WireError | None = None
            while frame is not None:
                batch = frame.body.get("batch", 1)
                if frame.type is not FrameType.READ:
                    fatal = WireError(f"pull connection got {frame.type.name}")
                elif type(batch) is not int:
                    fatal = WireError(f"READ batch must be an int, got {type(batch).__name__}")
                else:
                    replies.append(await answer(frame, max(1, batch)))
                if fatal is not None:
                    replies.append(_error_frame("bad-frame", str(fatal)))
                if fatal is not None or len(replies) >= _REPLY_BURST:
                    break
                frame = connection.recv_nowait()
            if ended and not end_sent and len(replies) > 1:
                # The burst carries the stream's first END: it goes out
                # on its own, so a client that hangs up on the idempotent
                # END replies behind it cannot undo a completed stream.
                cut = 1 + next(index for index, reply in enumerate(replies)
                               if reply.type is FrameType.END)
                await connection.send_many(replies[:cut])
                end_sent = True
                replies = replies[cut:]
            if len(replies) == 1:
                await connection.send(replies[0])
            else:
                await connection.send_many(replies)
            if ended:
                end_sent = True
            if fatal is not None:
                raise fatal
    except (ConnectionError, OSError):
        if end_sent:
            return True
        raise


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

    Progress is kept in a :class:`PushState`: ``WRITE`` frames whose
    ``seq`` shows they replay an already-accepted prefix have that
    prefix dropped (credit is still refunded in full; a WRITE without
    ``seq`` skips nothing), and an END after a consumed END is
    re-acknowledged without touching the writable.  A ``state`` owned
    by the *stage* outlives the connection — that is resume service;
    without one the state lasts as long as the connection does.

    Returns True when the connection completed its stream — only if
    its END arrived.  A link that closes before END is not a completed
    stream: under resume the producer will be back (False); otherwise
    nothing will ever forward the END, so the hang-up is a
    :class:`WireError` and the stage fails naming the dead link.
    """
    resumable = state is not None
    if state is None:
        state = PushState()
    while True:
        frame = await connection.recv()
        if frame is None:
            if resumable:
                return False
            raise WireError("peer closed mid-stream (no END received)")
        if frame.type is FrameType.WRITE:
            items = frame.body.get("items", [])
            if type(items) is not list:
                await _refuse(connection, f"WRITE items must be a list, got {type(items).__name__}")
            seq = frame.body.get("seq")
            skip = 0
            if isinstance(seq, int):
                skip = min(len(items), max(0, state.received - seq))
            if skip:
                state.duplicates += skip
                connection.stats.bump("duplicate_records", skip)
            fresh = items[skip:] if skip else items
            started = connection.clock()
            if fresh and not state.ended:
                # Serve under the WRITE's span: a downstream push this
                # write triggers (or a buffer deposit) joins its trace.
                with bind_span(frame_trace(frame)):
                    await writable.write(Transfer.of(fresh))
                state.received += len(fresh)
                connection.stats.counters["records_in"] += len(fresh)
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
            await _refuse(connection, f"push connection got {frame.type.name}")
