"""Shared scaffolding for the wire-protocol tests: a frame-logging
connection, a minimal stage server, and the 7-record reference chains.

``tests/net/test_protocol.py`` (parity between resume on and off) and
``tests/net/test_wire_golden.py`` (the literal frame corpus) run the
same streams through these helpers, so "the wire" means one thing.
"""

import asyncio
import zlib
from dataclasses import dataclass, field

from repro.aio.streams import (
    AioCollector,
    AioReadOnlyStage,
    AioSource,
    AioWriteOnlyStage,
    collect,
)
from repro.net.framing import FrameError, decode_frame
from repro.net.handshake import TicketBook, expect_hello
from repro.net.metrics import NetStats
from repro.net.protocol import (
    Connection,
    PushState,
    RemoteReadable,
    RemoteWritable,
    WireError,
    serve_pull,
    serve_push,
)
from repro.transput.filterbase import identity_transducer
from repro.transput.stream import END_TRANSFER, Transfer

BOOK_ARGS = dict(space=0, seed=11)

#: The reference stream: 7 records moved 3 at a time (3 + 3 + 1 + END).
ITEMS = [f"r{i}" for i in range(7)]
BATCH = 3

SENT, RECEIVED = ">", "<"


def client_book() -> TicketBook:
    return TicketBook(**BOOK_ARGS)


class TappedConnection(Connection):
    """Logs every frame the connection moves, in both directions.

    Each entry is ``(direction, type name, body, crc32 of the wire
    bytes)``.  The tap sits where the flight recorder does — on the
    encoded bytes out and the decoder's view in — so it sees exactly
    what the socket carries, whichever of ``send`` / ``send_many`` /
    ``recv`` / ``recv_nowait`` moved the frame.
    """

    def __init__(self, *args, frames, **kwargs):
        super().__init__(*args, **kwargs)
        self.frames = frames
        self.flight = self

    def on_sent(self, wire):
        self._log(SENT, wire)

    def on_received(self, wire):
        self._log(RECEIVED, wire)

    def _log(self, direction, wire):
        data = bytes(wire)
        frame, _consumed = decode_frame(data)
        self.frames.append(
            (direction, frame.type.name, frame.body, zlib.crc32(data)))


def frames_of(log, direction, *types):
    """``(type, body)`` of one direction's frames (optionally by type)."""
    return [(name, body) for way, name, body, _crc in log
            if way == direction and (not types or name in types)]


def writes_seen(log):
    """``(seq, record count)`` of every WRITE frame a server received."""
    return [(body.get("seq"), len(body["items"]))
            for _name, body in frames_of(log, RECEIVED, "WRITE")]


class StageServer:
    """A listening test server that also waits for its handlers to end."""

    def __init__(self, server, handlers):
        self.sockets = server.sockets
        self._server = server
        self._handlers = handlers

    def close(self):
        self._server.close()

    async def wait_closed(self):
        await self._server.wait_closed()
        if self._handlers:
            # Let handlers whose client just hung up finish; one still
            # parked on a client that never closed is cancelled.
            _done, parked = await asyncio.wait(self._handlers, timeout=0.25)
            for task in parked:
                task.cancel()
            if parked:
                await asyncio.wait(parked)


async def start_stage_server(readables=None, writable=None, credit=4,
                             state=None, logs=None, frames=None,
                             injector=None, failures=None):
    """A minimal single-purpose stage server for protocol tests.

    ``state`` (a :class:`PushState`) / ``logs`` (a replay-log dict)
    switch on resume service for push / pull; ``frames`` collects every
    frame moved, across connections; ``failures`` collects what the
    serve loops raised (otherwise swallowed, as a chaos peer would).
    """
    book = TicketBook(**BOOK_ARGS)
    server_uid = book.ticket(0)
    stats = NetStats()
    frames = [] if frames is None else frames
    handlers = set()

    async def handler(reader, writer):
        handlers.add(asyncio.current_task())
        try:
            hello = await expect_hello(
                reader, writer, book, server_uid, credit=credit,
                resume_seq_for=(None if state is None
                                else lambda _hello: state.received),
            )
        except Exception:
            return
        connection = TappedConnection(
            reader, writer, stats=stats, frames=frames, injector=injector,
            codec=hello.codec,
        )
        try:
            if hello.role == "pull":
                await serve_pull(connection, readables, hello, logs=logs)
            else:
                await serve_push(connection, writable, hello, state=state)
        except (WireError, ConnectionError, FrameError) as error:
            if failures is not None:
                failures.append(error)
        finally:
            await connection.close()

    server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
    port = server.sockets[0].getsockname()[1]
    return StageServer(server, handlers), port, stats


async def stop(*servers):
    for server in servers:
        server.close()
        await server.wait_closed()


@dataclass
class ChainRun:
    """What one reference chain left behind."""

    output: list
    #: link name -> that link's serving-side frame log.
    links: dict
    #: end name -> (its NetStats, the ``(type, body)`` frames it sent);
    #: "driver" is the active end of the first link.
    ends: dict
    #: push only: serving stage -> its PushState (None without resume).
    states: dict = field(default_factory=dict)


def _ends(*specs):
    """``name, stats, link log, direction`` -> the ``ends`` table."""
    return {name: (stats, frames_of(log, direction))
            for name, stats, log, direction in specs}


async def pull_chain(resume, depth, codec="json", injector=None,
                     io_timeout=None):
    """source <- identity filter <- driver, read-only, ITEMS by BATCH.

    ``injector`` sits on the filter's serving connections, so it is the
    driver that sees (and survives) the fault.
    """
    source_frames, filter_frames = [], []
    source, source_port, source_stats = await start_stage_server(
        readables=AioSource(ITEMS), frames=source_frames,
        logs={} if resume else None,
    )
    upstream = RemoteReadable(
        "127.0.0.1", source_port, uid=client_book().ticket(1),
        book=client_book(), resume=resume, pipeline_depth=depth,
        codec=codec, io_timeout=io_timeout,
    )
    stage = AioReadOnlyStage(identity_transducer(), upstream, batch_in=BATCH)
    middle, middle_port, middle_stats = await start_stage_server(
        readables=stage, frames=filter_frames, injector=injector,
        logs={} if resume else None,
    )
    driver = RemoteReadable(
        "127.0.0.1", middle_port, uid=client_book().ticket(2),
        book=client_book(), resume=resume, pipeline_depth=depth,
        codec=codec, io_timeout=io_timeout,
    )
    output = await collect(driver, batch=BATCH)
    await stop(middle, source)
    return ChainRun(
        output,
        links={"driver-filter": filter_frames, "filter-source": source_frames},
        ends=_ends(
            ("driver", driver.stats, filter_frames, RECEIVED),
            ("filter-serving", middle_stats, filter_frames, SENT),
            ("filter-client", upstream.stats, source_frames, RECEIVED),
            ("source", source_stats, source_frames, SENT),
        ),
    )


async def push_chain(resume, credit, codec="json", injector=None,
                     io_timeout=None):
    """driver -> identity filter -> sink, write-only, ITEMS by BATCH.

    ``injector`` sits on the driver's outgoing link.
    """
    sink_frames, filter_frames = [], []
    collector = AioCollector()
    sink_state = PushState() if resume else None
    sink, sink_port, sink_stats = await start_stage_server(
        writable=collector, credit=credit, state=sink_state,
        frames=sink_frames,
    )
    outbound = RemoteWritable(
        "127.0.0.1", sink_port, uid=client_book().ticket(1),
        book=client_book(), resume=resume, codec=codec,
        io_timeout=io_timeout,
    )
    stage = AioWriteOnlyStage(identity_transducer(), [outbound])
    filter_state = PushState() if resume else None
    middle, middle_port, middle_stats = await start_stage_server(
        writable=stage, credit=credit, state=filter_state,
        frames=filter_frames,
    )
    driver = RemoteWritable(
        "127.0.0.1", middle_port, uid=client_book().ticket(2),
        book=client_book(), resume=resume, codec=codec, injector=injector,
        io_timeout=io_timeout,
    )
    for start in range(0, len(ITEMS), BATCH):
        await driver.write(Transfer.of(ITEMS[start:start + BATCH]))
    await driver.write(END_TRANSFER)
    await stop(middle, sink)
    assert collector.done.is_set()
    return ChainRun(
        list(collector.items),
        links={"driver-filter": filter_frames, "filter-sink": sink_frames},
        ends=_ends(
            ("driver", driver.stats, filter_frames, RECEIVED),
            ("filter-serving", middle_stats, filter_frames, SENT),
            ("filter-client", outbound.stats, sink_frames, RECEIVED),
            ("sink", sink_stats, sink_frames, SENT),
        ),
        states={"filter": filter_state, "sink": sink_state},
    )
