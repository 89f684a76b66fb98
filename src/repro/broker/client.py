"""BrokerClient: one process's attachment to the eden-broker.

Wraps a :class:`~repro.net.mux.ChannelMux` around one TCP connection
to the broker, speaking the channel-0 control protocol documented in
:mod:`repro.broker.daemon`: register names, open channels by name,
and field the broker's ``accept``/``hangup`` notices.

The ``accept`` path has one hard ordering rule: the broker relays the
opener's first frame (its HELLO) immediately after the accept notice
on the same connection, so the channel **must** be attached to the mux
before the control handler yields.  :meth:`_on_control` therefore
attaches synchronously and only then invokes ``on_accept``, which is
expected to *schedule* serving (``asyncio.ensure_future``), never to
block the read loop.

A route whose two ends are both on this connection is never relayed:
the broker's ``open`` reply names the peer end, and :meth:`open`
splices the two channels (:attr:`~repro.net.mux.MuxChannel.peer`) so
their frames cross in-process.  Closing either end still goes through
the broker, whose ``hangup`` notice reaches the other.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable

from repro.core.tracing import Tracer
from repro.net.framing import Frame, FrameType
from repro.net.handshake import ROLE_HOST, TicketBook, send_hello
from repro.net.metrics import NetStats
from repro.net.mux import ChannelMux, ChannelOpener, MuxChannel
from repro.net.protocol import connect_with_backoff, welcome_within
from repro.broker.daemon import BrokerError

__all__ = ["BrokerClient"]


class BrokerClient:
    """Control-plane client + channel factory for one host process."""

    def __init__(
        self,
        host: str,
        port: int,
        book: TicketBook,
        serial: int,
        label: str = "host",
        stats: NetStats | None = None,
        tracer: Tracer | None = None,
        clock: Callable[[], float] = time.monotonic,
        connect_deadline: float = 15.0,
        request_timeout: float = 30.0,
        on_accept: Callable[[MuxChannel, dict[str, Any]], None] | None = None,
        flight: Any | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.book = book
        self.uid = book.ticket(serial)
        self.label = label
        self.stats = stats if stats is not None else NetStats()
        self.tracer = tracer
        self.clock = clock
        self.connect_deadline = connect_deadline
        self.request_timeout = request_timeout
        self.on_accept = on_accept
        self.flight = flight
        self.mux: ChannelMux | None = None
        self._pending: dict[int, asyncio.Future[dict[str, Any]]] = {}
        self._next_req = 0
        #: The latest channel id an ``accept`` attached (ids only grow).
        self._last_accept = 0

    # -- lifecycle -----------------------------------------------------------

    async def connect(self) -> None:
        """Dial the broker and complete the host-role admission."""
        reader, writer = await connect_with_backoff(
            self.host, self.port, deadline=self.connect_deadline
        )
        # A refused or silent admission keeps no socket open.
        await welcome_within(send_hello(
            reader, writer, self.uid, ROLE_HOST, book=self.book,
            roles=(ROLE_HOST,),
        ), writer, f"the broker at {self.host}:{self.port}",
            self.connect_deadline)
        self.mux = ChannelMux(
            reader, writer,
            on_control=self._on_control,
            on_close=self._on_close,
            stats=self.stats,
            clock=self.clock,
            label=f"{self.label}-mux",
            flight=self.flight,
        )
        self.mux.start()

    @property
    def connected(self) -> bool:
        return self.mux is not None and not self.mux.closed

    async def close(self) -> None:
        if self.mux is not None:
            await self.mux.close()
        self._fail_pending(ConnectionResetError("broker client closed"))

    # -- the command surface -------------------------------------------------

    async def request(self, cmd: str, timeout: float | None = None,
                      queue_on: int = 0, **args: Any) -> dict[str, Any]:
        """One correlated control round trip; returns the reply payload.

        ``queue_on`` routes the request through that channel's fair-
        writer queue so it stays FIFO behind the channel's queued data
        (used by ``close-chan``, which must not overtake a final ACK).
        """
        if self.mux is None or self.mux.closed:
            raise ConnectionResetError("not attached to a broker")
        self._next_req += 1
        req = self._next_req
        future: asyncio.Future[dict[str, Any]] = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[req] = future
        try:
            await self.mux.send_control(
                Frame(FrameType.CTRL, {"cmd": cmd, "req": req, **args}),
                queue_on=queue_on,
            )
            return await asyncio.wait_for(
                future, timeout if timeout is not None else self.request_timeout
            )
        except asyncio.TimeoutError:
            raise BrokerError(
                f"broker did not answer {cmd!r} within "
                f"{timeout if timeout is not None else self.request_timeout}s"
            ) from None
        finally:
            self._pending.pop(req, None)

    async def register(self, name: str, serves: Any = ()) -> int:
        """Register ``name`` (serving ``serves`` roles); returns its serial.

        The registration round trip is timed into the
        ``broker_register_ms`` histogram — the fleet-density benchmark's
        control-plane latency metric.
        """
        started = self.clock()
        payload = await self.request("register", name=name,
                                     serves=list(serves))
        self.stats.observe("broker_register_ms",
                           (self.clock() - started) * 1000.0)
        return int(payload["serial"])

    async def open(self, to: str, role: str,
                   **channel_options: Any) -> MuxChannel:
        """Open a channel to registration ``to`` as a ``role`` endpoint.

        Raises :class:`BrokerError` for ``incompatible-channel`` /
        ``no-such-name`` refusals.  The returned channel is attached
        and ready for the stream handshake.
        """
        payload = await self.request("open", to=to, role=role)
        assert self.mux is not None
        channel = self.mux.attach(int(payload["chan"]), **channel_options)
        channel.on_closed = self._channel_closed
        if "peer" in payload:
            # A same-host route: the broker issued it, this host splices
            # its two ends.  The broker queued the target end's
            # ``accept`` ahead of this reply on the same FIFO control
            # queue, so the read loop attached that end first.  Its
            # stage may have closed it since (a refused accept); what
            # this end sends is then an orphan, as on a relayed route.
            peer = int(payload["peer"])
            assert peer <= self._last_accept, "open reply overtook its accept"
            channel.peer = peer
            accepted = self.mux.channels.get(peer)
            if accepted is not None:
                accepted.peer = channel.chan
        return channel

    def opener(self, **channel_options: Any) -> ChannelOpener:
        """An ``(target, role) -> MuxChannel`` factory for Hosted* ends."""

        async def open_channel(target: str, role: str) -> MuxChannel:
            return await self.open(target, role, **channel_options)

        return open_channel

    async def release(self, channel: MuxChannel) -> None:
        """Close a channel locally and free its broker route."""
        await channel.close()  # the on_closed hook notifies the broker

    def _channel_closed(self, channel: MuxChannel) -> None:
        """Tell the broker a locally-closed route is dead (best effort).

        Runs from ``MuxChannel.close`` — possibly deep inside stream
        teardown — so the round trip is fired as its own task.  The
        broker answers ``close-chan`` for unknown channels with an
        empty success, so racing the peer's close (or a dead route)
        is harmless.
        """
        if self.mux is None or self.mux.closed:
            return

        async def notify() -> None:
            try:
                await self.request("close-chan", chan=channel.chan,
                                   queue_on=channel.chan)
            except (ConnectionError, OSError, BrokerError):
                pass  # broker gone or route already dead: nothing to free

        asyncio.ensure_future(notify())

    # -- notices from the broker ---------------------------------------------

    async def _on_control(self, frame: Frame) -> None:
        body = frame.body
        if frame.type is FrameType.CTRL_REPLY:
            future = self._pending.get(body.get("req"))
            if future is None or future.done():
                return
            if body.get("ok"):
                future.set_result(body.get("payload") or {})
            else:
                future.set_exception(BrokerError(
                    f"{body.get('error')}: {body.get('message')}"
                ))
            return
        if frame.type is not FrameType.CTRL:
            return
        cmd = body.get("cmd")
        if cmd == "accept":
            assert self.mux is not None
            # Attach BEFORE yielding: the opener's HELLO is already
            # behind this notice in the connection's frame order (or,
            # on a same-host route, the opener's reply is).
            self._last_accept = int(body["chan"])
            channel = self.mux.attach(self._last_accept)
            channel.on_closed = self._channel_closed
            if self.on_accept is not None:
                self.on_accept(channel, dict(body))
            else:
                await channel.close()
        elif cmd == "hangup":
            assert self.mux is not None
            channel = self.mux.channels.get(body.get("chan"))
            if channel is not None:
                channel.hangup()

    def _on_close(self, error: BaseException | None) -> None:
        self._fail_pending(
            error if error is not None
            else ConnectionResetError("broker connection closed")
        )

    def _fail_pending(self, error: BaseException) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
