"""eden-broker: naming, discovery, channel issuance, and frame relay.

One broker daemon owns the control plane of a hosted fleet:

- **Naming.**  Stage hosts attach with a ``host``-role ticket
  handshake, then register their stages under fleet-scoped names.
  Each name is assigned a **ticket serial** from the shared
  :class:`~repro.net.handshake.TicketBook`, so every stage's identity
  is a verifiable UID that any peer holding the same ``(space, seed)``
  can check offline — the paper's C4 capability story with the broker
  as the issuing kernel.  A name that re-registers (a restarted host)
  keeps its serial: identity survives the crash.

- **Channel issuance with compatibility checking.**  A stage opens a
  channel *by name and role*: ``open(to="source", role="pull")``.
  The broker refuses the open at issuance time — error
  ``incompatible-channel`` — unless the target registered as serving
  that role, so an active reader wired to an active writer fails
  loudly *before* either end blocks, rather than deadlocking at
  runtime (the behavioural-compatibility discipline of Hennicker &
  Bidoit, enforced where the paper's type rules live: at Open).  An
  open naming an unregistered name parks until the name appears or
  ``park_deadline`` expires (``no-such-name``) — restart transparency
  for free, since a dead stage's clients just re-open and wait.

- **Relay, for cross-host routes only.**  The broker issues every
  route, and channel ids are per-connection: each endpoint of a
  channel has its own id, allocated from its own connection's
  namespace.  When both ends are on the *same* host connection, the
  ``open`` reply also names the peer's id and the host splices the two
  channels in-process (:mod:`repro.broker.client`): the relay would
  buy no reachability there, only two socket crossings.  The broker
  still counts, lists (``"local": true``) and hangs up such a route.
  Frames of a cross-host route are relayed **without decoding**: the
  link's :class:`~repro.net.framing.FrameProtocol` (the one its
  admission installed) hands over each frame's wire bytes, the broker
  rewrites the 4-byte channel extension to the peer's id, and forwards
  the rest verbatim — codec-blind (binary and JSON alike) and
  O(bytes).  Relay counters (``relayed_frames``/``relayed_bytes``) are
  deliberately *not* named like stage counters, so summing a fleet's
  stats never double-counts invocations through the broker.

Wire protocol (all control on logical channel 0, JSON codec):

=============  ====================================  ======================
command        request body                          reply payload
=============  ====================================  ======================
``register``   ``name``, ``serves`` (role list)      ``serial``
``open``       ``to`` (name), ``role``               ``chan`` (caller's id),
                                                     ``serial``; ``peer``
                                                     (the target end's id)
                                                     on a same-host route
``close-chan`` ``chan``                              ``{}``
``ping``       —                                     ``{}``
=============  ====================================  ======================

Unsolicited notices the broker sends: ``accept`` (``chan``, ``name``,
``role`` — a peer opened a channel to your registration; attach the
id before touching the connection again) and ``hangup`` (``chan`` —
the peer endpoint is gone).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import socket
import struct
import sys
import time
from dataclasses import replace
from typing import Any, Sequence

from repro.core.errors import EdenError
from repro.net.framing import (
    CHAN_FLAG,
    CODEC_JSON,
    Frame,
    FrameError,
    FrameProtocol,
    FrameType,
    HEADER,
    decode_frame,
    encode_frame_into,
    readdress,
)
from repro.net.handshake import (
    ROLE_HOST,
    STREAM_ROLES,
    HandshakeError,
    TicketBook,
    expect_hello,
)
from repro.net.metrics import NetStats
from repro.net.mux import CONTROL_CHANNEL, FairWriter
from repro.net.protocol import inherited_listener, listen_socket
from repro.obs.registry import snapshot_payload

__all__ = [
    "BROKER_SERIAL",
    "FIRST_HOST_SERIAL",
    "FIRST_STAGE_SERIAL",
    "MAX_HOST_SERIAL",
    "Broker",
    "BrokerError",
    "main",
]

#: The broker's own ticket serial in the fleet's book.
BROKER_SERIAL = 1

#: Serials the fleet planner hands out to stage-host processes.
FIRST_HOST_SERIAL = 2
MAX_HOST_SERIAL = 63

#: First serial the broker assigns to registered stages (serials below
#: are reserved for the broker itself and the stage-host processes).
FIRST_STAGE_SERIAL = 64

_CHAN_EXT = struct.Struct("!I")


class BrokerError(EdenError):
    """The broker refused a control command."""


class _Registration:
    """One name on the board: who serves it, with what identity."""

    __slots__ = ("name", "serves", "conn", "serial")

    def __init__(self, name: str, serves: tuple[str, ...],
                 conn: "_HostLink", serial: int) -> None:
        self.name = name
        self.serves = serves
        self.conn = conn
        self.serial = serial


class _Route:
    """One issued channel: two (connection, channel-id) endpoints."""

    __slots__ = ("a_conn", "a_chan", "b_conn", "b_chan", "name", "role",
                 "frames", "bytes")

    def __init__(self, a_conn: "_HostLink", a_chan: int,
                 b_conn: "_HostLink", b_chan: int,
                 name: str, role: str) -> None:
        self.a_conn = a_conn
        self.a_chan = a_chan
        self.b_conn = b_conn
        self.b_chan = b_chan
        self.name = name
        self.role = role
        self.frames = 0
        self.bytes = 0

    def peer_of(self, conn: "_HostLink", chan: int) -> tuple["_HostLink", int]:
        if conn is self.a_conn and chan == self.a_chan:
            return self.b_conn, self.b_chan
        return self.a_conn, self.a_chan


class _Parked:
    """An open waiting for its target name to register."""

    __slots__ = ("conn", "req", "role", "deadline")

    def __init__(self, conn: "_HostLink", req: Any, role: str,
                 deadline: float) -> None:
        self.conn = conn
        self.req = req
        self.role = role
        self.deadline = deadline


class _HostLink:
    """One attached host connection: its frames, writer, names, and channels."""

    def __init__(self, index: int, frames: FrameProtocol,
                 writer: asyncio.StreamWriter) -> None:
        self.index = index
        self.frames = frames
        self.writer = writer
        self.fair = FairWriter(writer)
        self.fair.start()
        self.label = f"host#{index}"
        self.names: set[str] = set()
        #: This connection's channel-id namespace: local id -> route.
        self.routes: dict[int, _Route] = {}
        self._next_chan = CONTROL_CHANNEL + 1
        self.alive = True
        self._closed = False
        #: The relay-loop task serving this link (set on accept).
        self.task: asyncio.Task[None] | None = None

    def alloc_chan(self) -> int:
        chan = self._next_chan
        self._next_chan += 1
        return chan

    async def send_control(self, body: dict[str, Any],
                           reply: bool = False,
                           queue_on: int = CONTROL_CHANNEL) -> None:
        # ``queue_on`` keeps a notice FIFO behind one channel's queued
        # relay frames (a hangup must never overtake the data whose
        # route it tears down); the frame itself is still chan 0.
        frame_type = FrameType.CTRL_REPLY if reply else FrameType.CTRL
        out = bytearray()
        encode_frame_into(
            replace(Frame(frame_type, body), chan=CONTROL_CHANNEL),
            out, CODEC_JSON,
        )
        await self.fair.enqueue(queue_on, bytes(out))

    async def shut(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.alive = False
        await self.fair.close()
        try:
            self.writer.close()
            # Bounded: a peer that vanished mid-write can leave the
            # close waiter pending; the socket is torn down regardless.
            await asyncio.wait_for(self.writer.wait_closed(), timeout=1.0)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass


class Broker:
    """The daemon: accept hosts, run naming + issuance + relay.

    Usable in-process (tests drive :meth:`start` / :meth:`close`
    directly) or as the ``eden-broker`` CLI via :func:`main`.
    """

    def __init__(
        self,
        book: TicketBook,
        host: str = "127.0.0.1",
        port: int = 0,
        park_deadline: float = 10.0,
        clock: Any = time.monotonic,
        log: Any = None,
        flight: Any | None = None,
    ) -> None:
        if park_deadline < 0:
            raise ValueError(f"park_deadline must be >= 0, got {park_deadline}")
        self.book = book
        self.uid = book.ticket(BROKER_SERIAL)
        self.host = host
        self.port = port
        self.park_deadline = park_deadline
        self.clock = clock
        self.log = log if log is not None else (lambda line: None)
        #: Optional flight recorder: the relay path records each frame
        #: as received (opener's channel id) and as sent (peer's id),
        #: so a broker capture shows both sides of every route.
        self.flight = flight
        self.stats = NetStats()
        self.started_mono = clock()
        self._server: asyncio.AbstractServer | None = None
        self._links: set[_HostLink] = set()
        self._handler_tasks: set[asyncio.Task[None]] = set()
        self._names: dict[str, _Registration] = {}
        self._parked: dict[str, list[_Parked]] = {}
        self._next_serial = FIRST_STAGE_SERIAL
        self._next_link = 0
        self._sweeper: asyncio.Task[None] | None = None

    # -- lifecycle -----------------------------------------------------------

    #: A socket already listening on ``host:port`` for :meth:`start` to
    #: serve (the one a fleet's zygote handed this process); the broker
    #: binds its own otherwise.  Either way the broker closes it.
    listener: socket.socket | None = None

    async def start(self) -> None:
        sock = self.listener or listen_socket(self.host, self.port)
        self.listener = None
        try:
            self._server = await asyncio.start_server(self._accept, sock=sock)
        except BaseException:
            sock.close()
            raise
        self.port = sock.getsockname()[1]
        self._sweeper = asyncio.ensure_future(self._sweep_parked())
        self.log(f"eden-broker listening on {self.host}:{self.port}")

    async def close(self) -> None:
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Closing a link's transport breaks its relay loop's read, so
        # each handler task unwinds through _drop_link on its own — no
        # cancellation (which asyncio's server wrapper logs as noise).
        for link in list(self._links):
            await link.shut()
        pending = [task for task in self._handler_tasks
                   if task is not asyncio.current_task()]
        if pending:
            done, still = await asyncio.wait(pending, timeout=2.0)
            for task in still:
                task.cancel()
            for task in done:
                task.exception()  # consume, teardown errors are expected
        self._links.clear()

    # -- admission + relay loop ----------------------------------------------

    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            await expect_hello(
                reader, writer, self.book, self.uid, roles=(ROLE_HOST,),
            )
        except HandshakeError as error:
            self.stats.bump("rejected_attachments")
            self.log(f"rejected attachment: {error}")
            return
        except (ConnectionError, OSError, FrameError):
            return
        frames = FrameProtocol.of(reader, writer)
        frames.decoding = False  # relayed bodies stay undecoded
        link = _HostLink(self._next_link, frames, writer)
        link.task = asyncio.current_task()
        if link.task is not None:
            self._handler_tasks.add(link.task)
            link.task.add_done_callback(self._handler_tasks.discard)
        self._next_link += 1
        self._links.add(link)
        self.stats.bump("attachments")
        self.stats.set_gauge("hosts_attached", float(len(self._links)))
        self.log(f"{link.label} attached")
        try:
            await self._relay_loop(link)
        except (ConnectionError, OSError, FrameError) as error:
            self.log(f"{link.label} link failed: {error}")
        finally:
            await self._drop_link(link)

    async def _relay_loop(self, link: _HostLink) -> None:
        """Take frames from one host; relay or handle control.

        The relay path never decodes a body: a frame's own wire bytes in,
        channel extension rewritten to the peer's id, bytes out.
        """
        frames = link.frames
        head = HEADER.size  # the channel extension follows the header
        while True:
            wire = await frames.recv_wire()
            if wire is None:
                return  # clean EOF
            chan = None
            if wire[4] & CHAN_FLAG:  # the type byte, after the magic
                chan = _CHAN_EXT.unpack_from(wire, head)[0]
            if chan is None or chan == CONTROL_CHANNEL:
                frame, _used = decode_frame(wire)
                await self._handle_control(link, frame)
                continue
            route = link.routes.get(chan)
            if route is None:
                self.stats.bump("orphan_frames")
                continue
            peer_conn, peer_chan = route.peer_of(link, chan)
            if not peer_conn.alive:
                self.stats.bump("orphan_frames")
                continue
            relayed = readdress(wire, peer_chan)
            if self.flight is not None:
                self.flight.on_received(wire)
                self.flight.on_sent(relayed)
            await peer_conn.fair.enqueue(peer_chan, relayed)
            route.frames += 1
            route.bytes += len(relayed)
            self.stats.bump("relayed_frames")
            self.stats.bump("relayed_bytes", len(relayed))

    # -- control commands ----------------------------------------------------

    async def _handle_control(self, link: _HostLink, frame: Frame) -> None:
        if frame.type is not FrameType.CTRL:
            self.stats.bump("bad_control_frames")
            return
        body = frame.body
        cmd = body.get("cmd")
        req = body.get("req")
        self.stats.bump(f"cmd_{cmd}" if isinstance(cmd, str) else "cmd_bad")
        if cmd == "register":
            await self._cmd_register(link, req, body)
        elif cmd == "open":
            await self._cmd_open(link, req, body)
        elif cmd == "close-chan":
            await self._cmd_close_chan(link, req, body)
        elif cmd == "ping":
            await self._reply(link, req, {})
        else:
            await self._reply_error(link, req, "unknown-command",
                                    f"unknown command {cmd!r}")

    async def _reply(self, link: _HostLink, req: Any,
                     payload: dict[str, Any]) -> None:
        await link.send_control(
            {"ok": True, "req": req, "payload": payload}, reply=True
        )

    async def _reply_error(self, link: _HostLink, req: Any, code: str,
                           message: str) -> None:
        await link.send_control(
            {"ok": False, "req": req, "error": code, "message": message},
            reply=True,
        )

    async def _cmd_register(self, link: _HostLink, req: Any,
                            body: dict[str, Any]) -> None:
        name = body.get("name")
        serves = body.get("serves", [])
        if not isinstance(name, str) or not name:
            await self._reply_error(link, req, "bad-name",
                                    f"name must be a non-empty string, "
                                    f"got {name!r}")
            return
        if (not isinstance(serves, (list, tuple))
                or any(role not in STREAM_ROLES for role in serves)):
            await self._reply_error(
                link, req, "bad-roles",
                f"serves must list roles from {STREAM_ROLES}, got {serves!r}",
            )
            return
        existing = self._names.get(name)
        if existing is not None and existing.conn is not link \
                and existing.conn.alive:
            await self._reply_error(link, req, "name-taken",
                                    f"{name!r} is registered by "
                                    f"{existing.conn.label}")
            return
        # A re-registration (same host, or a restarted host's new link)
        # keeps its serial: the stage's UID survives the crash.
        if existing is not None:
            serial = existing.serial
        else:
            serial = self._next_serial
            self._next_serial += 1
        self._names[name] = _Registration(name, tuple(serves), link, serial)
        link.names.add(name)
        self.stats.bump("registrations")
        self.stats.set_gauge("names_registered", float(len(self._names)))
        await self._reply(link, req, {"serial": serial})
        # Anyone parked on this name gets their channel now.
        for parked in self._parked.pop(name, []):
            if parked.conn.alive:
                await self._issue(parked.conn, parked.req,
                                  self._names[name], parked.role)

    async def _cmd_open(self, link: _HostLink, req: Any,
                        body: dict[str, Any]) -> None:
        to = body.get("to")
        role = body.get("role")
        if not isinstance(to, str) or not to:
            await self._reply_error(link, req, "bad-name",
                                    f"to must be a name, got {to!r}")
            return
        if role not in STREAM_ROLES:
            await self._reply_error(link, req, "bad-role",
                                    f"role must be one of {STREAM_ROLES}, "
                                    f"got {role!r}")
            return
        registration = self._names.get(to)
        if registration is not None and registration.conn.alive:
            await self._issue(link, req, registration, role)
            return
        if self.park_deadline <= 0:
            await self._reply_error(link, req, "no-such-name",
                                    f"no registration for {to!r}")
            return
        self._parked.setdefault(to, []).append(
            _Parked(link, req, role, self.clock() + self.park_deadline)
        )
        self.stats.bump("parked_opens")

    async def _issue(self, link: _HostLink, req: Any,
                     registration: _Registration, role: str) -> None:
        """Issue one channel, or refuse it for role incompatibility."""
        if role not in registration.serves:
            # The Hennicker & Bidoit check: both endpoints' declared
            # behaviours must correspond, and the mismatch surfaces at
            # issuance — not as a runtime deadlock of two active (or
            # two passive) ends.
            self.stats.bump("incompatible_opens")
            await self._reply_error(
                link, req, "incompatible-channel",
                f"{registration.name!r} serves "
                f"{list(registration.serves) or 'nothing'}; "
                f"a {role!r} endpoint cannot connect to it",
            )
            return
        target = registration.conn
        a_chan = link.alloc_chan()
        b_chan = target.alloc_chan()
        route = _Route(link, a_chan, target, b_chan, registration.name, role)
        link.routes[a_chan] = route
        target.routes[b_chan] = route
        self.stats.bump("channels_opened")
        self.stats.set_gauge("channels_open", float(self._routes_open()))
        # Accept reaches the server before the opener's reply can
        # produce a first frame: both ride FIFO control/relay queues.
        await target.send_control({
            "cmd": "accept", "chan": b_chan,
            "name": registration.name, "role": role,
        })
        payload = {"chan": a_chan, "serial": registration.serial}
        if target is link:
            # A same-host route: the host splices its two ends, so it
            # needs the peer's id; the relay never carries the route.
            payload["peer"] = b_chan
        await self._reply(link, req, payload)

    async def _cmd_close_chan(self, link: _HostLink, req: Any,
                              body: dict[str, Any]) -> None:
        chan = body.get("chan")
        route = link.routes.pop(chan, None) if isinstance(chan, int) else None
        if route is not None:
            peer_conn, peer_chan = route.peer_of(link, chan)
            peer_conn.routes.pop(peer_chan, None)
            if peer_conn.alive and peer_conn is not link:
                await peer_conn.send_control(
                    {"cmd": "hangup", "chan": peer_chan}, queue_on=peer_chan
                )
            elif peer_conn is link and peer_chan != chan:
                await link.send_control(
                    {"cmd": "hangup", "chan": peer_chan}, queue_on=peer_chan
                )
            self.stats.bump("channels_closed")
            self.stats.set_gauge("channels_open", float(self._routes_open()))
        await self._reply(link, req, {})

    # -- teardown + housekeeping ---------------------------------------------

    async def _drop_link(self, link: _HostLink) -> None:
        self._links.discard(link)
        link.alive = False
        self.stats.set_gauge("hosts_attached", float(len(self._links)))
        # Hang up every channel the dead host was an endpoint of.
        for chan, route in list(link.routes.items()):
            peer_conn, peer_chan = route.peer_of(link, chan)
            peer_conn.routes.pop(peer_chan, None)
            if peer_conn.alive and peer_conn is not link:
                try:
                    await peer_conn.send_control(
                        {"cmd": "hangup", "chan": peer_chan},
                        queue_on=peer_chan,
                    )
                except (ConnectionError, OSError):
                    pass
        link.routes.clear()
        # Registrations stay on the board (keeping their serials) but
        # point at a dead link, so new opens park until re-registration.
        self.stats.set_gauge("channels_open", float(self._routes_open()))
        await link.shut()
        self.log(f"{link.label} detached")

    async def _sweep_parked(self) -> None:
        while True:
            await asyncio.sleep(min(0.25, self.park_deadline or 0.25))
            now = self.clock()
            for name in list(self._parked):
                keep: list[_Parked] = []
                for parked in self._parked[name]:
                    if not parked.conn.alive:
                        continue
                    if parked.deadline <= now:
                        self.stats.bump("park_timeouts")
                        try:
                            await self._reply_error(
                                parked.conn, parked.req, "no-such-name",
                                f"no registration for {name!r} within "
                                f"{self.park_deadline:.1f}s",
                            )
                        except (ConnectionError, OSError):
                            pass
                    else:
                        keep.append(parked)
                if keep:
                    self._parked[name] = keep
                else:
                    del self._parked[name]

    def _routes_open(self) -> int:
        # Each open route appears once per endpoint namespace; count
        # distinct route objects.
        seen: set[int] = set()
        for link in self._links:
            for route in link.routes.values():
                seen.add(id(route))
        return len(seen)

    # -- introspection -------------------------------------------------------

    def control_handlers(self) -> dict[str, Any]:
        def stats_cmd(_body: dict[str, Any]) -> Any:
            return snapshot_payload(self.stats)

        def health_cmd(_body: dict[str, Any]) -> Any:
            return {
                "label": "broker",
                "role": "broker",
                "uptime_s": self.clock() - self.started_mono,
                "hosts": len(self._links),
                "names": len(self._names),
                "channels_open": self._routes_open(),
                "parked": sum(len(v) for v in self._parked.values()),
                "flight": (self.flight.describe()
                           if self.flight is not None else None),
            }

        def channels_cmd(_body: dict[str, Any]) -> Any:
            rows = []
            seen: set[int] = set()
            for link in self._links:
                for route in link.routes.values():
                    if id(route) in seen:
                        continue
                    seen.add(id(route))
                    rows.append({
                        "name": route.name, "role": route.role,
                        "a": f"{route.a_conn.label}:{route.a_chan}",
                        "b": f"{route.b_conn.label}:{route.b_chan}",
                        "local": route.a_conn is route.b_conn,
                        "frames": route.frames, "bytes": route.bytes,
                    })
            return rows

        return {"stats": stats_cmd, "health": health_cmd,
                "channels": channels_cmd}


# ---------------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eden-broker",
        description="Run the hosted-fleet control plane: naming, "
                    "channel issuance, and cross-host frame relay.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (0 picks a free one)")
    parser.add_argument("--ticket-space", type=int, default=0)
    parser.add_argument("--ticket-seed", type=int, default=0)
    parser.add_argument("--park-deadline", type=float, default=10.0,
                        help="seconds an open may wait for its target "
                             "name to register")
    parser.add_argument("--control-port", type=int, default=None,
                        metavar="PORT",
                        help="serve STATS/HEALTH/CHANNELS requests here")
    parser.add_argument("--stats-file", default=None,
                        help="dump broker counters here on exit")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="record every relayed frame to segment files")
    parser.add_argument("--flight-mode", default="full",
                        choices=("digest", "full"))
    return parser


async def _serve(options: argparse.Namespace) -> int:
    book = TicketBook(space=options.ticket_space, seed=options.ticket_seed)
    flight = None
    if options.flight_dir is not None:
        from repro.obs.flight import FlightRecorder

        flight = FlightRecorder(
            options.flight_dir, "broker", mode=options.flight_mode,
            meta={"role": "broker", "serial": BROKER_SERIAL},
        )
    broker = Broker(
        book, host=options.host, port=options.port,
        park_deadline=options.park_deadline,
        log=lambda line: print(line, file=sys.stderr, flush=True),
        flight=flight,
    )
    broker.listener = inherited_listener(options.host, options.port)
    await broker.start()
    print(f"eden-broker listening on {broker.host}:{broker.port}", flush=True)
    control = None
    if options.control_port is not None:
        from repro.obs.control import start_control_server

        control = await start_control_server(
            broker.control_handlers(), host=options.host,
            port=options.control_port,
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass
    try:
        await stop.wait()
    finally:
        if control is not None:
            control.close()
            await control.wait_closed()
        await broker.close()
        if flight is not None:
            flight.close()
        if options.stats_file:
            payload = {"role": "broker",
                       **snapshot_payload(broker.stats)}
            with open(options.stats_file, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    options = _parser().parse_args(argv)
    try:
        return asyncio.run(_serve(options))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
