"""In-process tests of the wire protocol's four-primitive mapping."""

import asyncio
import time

import pytest

from repro.aio.streams import (
    AioCollector,
    AioPipe,
    AioSource,
    AioWriteOnlyStage,
)
from repro.core.errors import StreamProtocolError
from repro.fault import FaultPlan, FrameFault
from repro.fault.inject import build_injector
from repro.net.framing import FrameError, FrameType
from repro.net.handshake import TicketBook, expect_hello
from repro.net.metrics import NetStats
from repro.net.protocol import (
    Connection,
    PushState,
    RemoteReadable,
    RemoteWritable,
    WireError,
    connect_with_backoff,
    serve_pull,
    serve_push,
)
from repro.net.stage import pick_free_port, pick_free_ports
from repro.transput.filterbase import identity_transducer, make_transducer
from repro.transput.flow import FlowPolicy
from repro.transput.stream import END_TRANSFER, Transfer

BOOK_ARGS = dict(space=0, seed=11)


def run(coroutine):
    return asyncio.run(coroutine)


class TappedConnection(Connection):
    """Logs ``(seq, record count)`` of every WRITE frame received."""

    def __init__(self, *args, writes, **kwargs):
        super().__init__(*args, **kwargs)
        self.writes = writes

    async def recv(self):
        frame = await super().recv()
        if frame is not None and frame.type is FrameType.WRITE:
            self.writes.append(
                (frame.body.get("seq"), len(frame.body["items"])))
        return frame


async def start_stage_server(readables=None, writable=None, credit=4,
                             state=None, writes=None):
    """A minimal single-purpose stage server for protocol tests.

    ``state`` (a :class:`PushState`) switches on resume service;
    ``writes`` collects the WRITE frames seen, across connections.
    """
    book = TicketBook(**BOOK_ARGS)
    server_uid = book.ticket(0)
    stats = NetStats()
    writes = [] if writes is None else writes

    async def handler(reader, writer):
        try:
            hello = await expect_hello(
                reader, writer, book, server_uid, credit=credit,
                resume_seq_for=(None if state is None
                                else lambda _hello: state.received),
            )
        except Exception:
            return
        connection = TappedConnection(reader, writer, stats=stats,
                                      writes=writes)
        try:
            if hello.role == "pull":
                await serve_pull(connection, readables, hello)
            else:
                await serve_push(connection, writable, hello, state=state)
        except (WireError, ConnectionError, FrameError):
            pass
        finally:
            await connection.close()

    server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
    port = server.sockets[0].getsockname()[1]
    return server, port, stats


def client_book() -> TicketBook:
    return TicketBook(**BOOK_ARGS)


class TestPullProtocol:
    def test_remote_readable_drains_a_source(self):
        async def scenario():
            server, port, _stats = await start_stage_server(
                readables=AioSource(["a", "b", "c"])
            )
            remote = RemoteReadable(
                "127.0.0.1", port, uid=client_book().ticket(1),
                book=client_book(),
            )
            got = []
            while True:
                transfer = await remote.read(1)
                if transfer.at_end:
                    break
                got.extend(transfer.items)
            server.close()
            await server.wait_closed()
            return got, remote

        got, remote = run(scenario())
        assert got == ["a", "b", "c"]
        # one READ per record plus the END read: m+1 invocations.
        assert remote.stats.get("invocations_sent") == 4
        assert remote.stats.get("read_frames_sent") == 4
        assert remote.stats.get("data_frames_received") == 3
        assert remote.stats.get("end_frames_received") == 1

    def test_end_is_cached_locally(self):
        async def scenario():
            server, port, _stats = await start_stage_server(
                readables=AioSource([])
            )
            remote = RemoteReadable(
                "127.0.0.1", port, uid=client_book().ticket(1),
                book=client_book(),
            )
            first = await remote.read()
            second = await remote.read()
            server.close()
            await server.wait_closed()
            return first, second, remote

        first, second, remote = run(scenario())
        assert first.at_end and second.at_end
        assert remote.stats.get("read_frames_sent") == 1  # second was local

    def test_batch_read_takes_up_to_batch(self):
        async def scenario():
            server, port, _stats = await start_stage_server(
                readables=AioSource(list(range(10)))
            )
            remote = RemoteReadable(
                "127.0.0.1", port, uid=client_book().ticket(1),
                book=client_book(),
            )
            transfer = await remote.read(batch=4)
            server.close()
            await server.wait_closed()
            return transfer

        transfer = run(scenario())
        assert list(transfer.items) == [0, 1, 2, 3]

    def test_multi_channel_pull_by_name(self):
        async def scenario():
            channels = {
                "Output": AioSource(["primary"]),
                "Report": AioSource(["report-line"]),
            }
            server, port, _stats = await start_stage_server(readables=channels)
            outputs = {}
            for channel in ("Output", "Report"):
                remote = RemoteReadable(
                    "127.0.0.1", port, uid=client_book().ticket(1),
                    book=client_book(), channel=channel,
                )
                transfer = await remote.read()
                outputs[channel] = list(transfer.items)
                await remote.aclose()
            server.close()
            await server.wait_closed()
            return outputs

        outputs = run(scenario())
        assert outputs == {"Output": ["primary"], "Report": ["report-line"]}

    def test_unknown_channel_is_a_wire_error(self):
        async def scenario():
            server, port, _stats = await start_stage_server(
                readables={"Output": AioSource(["x"])}
            )
            remote = RemoteReadable(
                "127.0.0.1", port, uid=client_book().ticket(1),
                book=client_book(), channel="NoSuch",
            )
            with pytest.raises(WireError, match="no-such-channel"):
                await remote.read()
            server.close()
            await server.wait_closed()

        run(scenario())


class TestPushProtocol:
    def test_remote_writable_fills_a_collector(self):
        async def scenario():
            collector = AioCollector()
            server, port, _stats = await start_stage_server(
                writable=collector, credit=4
            )
            remote = RemoteWritable(
                "127.0.0.1", port, uid=client_book().ticket(1),
                book=client_book(),
            )
            await remote.write(Transfer.of(["x", "y"]))
            await remote.write(Transfer.of(["z"]))
            await remote.write(END_TRANSFER)
            server.close()
            await server.wait_closed()
            return collector, remote

        collector, remote = run(scenario())
        assert collector.items == ["x", "y", "z"]
        assert collector.done.is_set()
        # two WRITE frames + the pushed END: m'+1 style accounting.
        assert remote.stats.get("invocations_sent") == 3
        assert remote.stats.get("end_frames_sent") == 1

    def test_write_after_end_rejected_locally(self):
        async def scenario():
            collector = AioCollector()
            server, port, _stats = await start_stage_server(writable=collector)
            remote = RemoteWritable(
                "127.0.0.1", port, uid=client_book().ticket(1),
                book=client_book(),
            )
            await remote.write(END_TRANSFER)
            with pytest.raises(StreamProtocolError):
                await remote.write(Transfer.of(["late"]))
            server.close()
            await server.wait_closed()

        run(scenario())

    def test_credit_window_one_is_synchronous(self):
        """Window 1 → every record waits for the previous ACK."""

        async def scenario():
            collector = AioCollector()
            server, port, stats = await start_stage_server(
                writable=collector, credit=1
            )
            remote = RemoteWritable(
                "127.0.0.1", port, uid=client_book().ticket(1),
                book=client_book(),
            )
            await remote.write(Transfer.of(list(range(5))))
            await remote.write(END_TRANSFER)
            server.close()
            await server.wait_closed()
            return collector, remote

        collector, remote = run(scenario())
        assert collector.items == list(range(5))
        # one record per WRITE frame: the window chops the batch up.
        assert remote.stats.get("write_frames_sent") == 5

    def test_wide_credit_window_batches(self):
        async def scenario():
            collector = AioCollector()
            server, port, _stats = await start_stage_server(
                writable=collector, credit=64
            )
            remote = RemoteWritable(
                "127.0.0.1", port, uid=client_book().ticket(1),
                book=client_book(),
            )
            await remote.write(Transfer.of(list(range(5))))
            await remote.write(END_TRANSFER)
            server.close()
            await server.wait_closed()
            return collector, remote

        collector, remote = run(scenario())
        assert collector.items == list(range(5))
        assert remote.stats.get("write_frames_sent") == 1  # whole batch fit


class TestPushBatching:
    """A write-only filter forwards whole transfers; the credit window,
    not the filter, decides how a burst is cut into WRITE frames."""

    def test_expanding_filter_never_exceeds_the_granted_credit(self):
        credit = FlowPolicy(batch=4).effective_credit_window()
        items = list(range(10))

        async def scenario():
            collector = AioCollector()
            writes = []
            server, port, _stats = await start_stage_server(
                writable=collector, credit=credit, writes=writes
            )
            remote = RemoteWritable(
                "127.0.0.1", port, uid=client_book().ticket(1),
                book=client_book(),
            )
            triple = make_transducer(lambda item: [(item, k) for k in range(3)])
            stage = AioWriteOnlyStage(triple, [remote])
            for start in range(0, len(items), 4):
                await stage.write(Transfer.of(items[start:start + 4]))
            await stage.write(END_TRANSFER)
            server.close()
            await server.wait_closed()
            return collector, writes

        collector, writes = run(scenario())
        assert credit == 4
        assert collector.items == [(item, k) for item in items
                                   for k in range(3)]
        # 12 + 12 + 6 records, cut to the 4-record window: order kept,
        # no frame over the grant, and no per-record frames either.
        assert [count for _seq, count in writes] == [4] * 7 + [2]

    def test_resume_survives_a_link_fault_mid_batch_stream(self):
        """driver -> filter -> sink at batch=8, the filter's second
        outbound WRITE corrupted on the wire: the sink drops the link,
        the filter redials, rewinds to the sink's ``resume_seq`` and
        re-sends that batch — every record arrives once, in order."""
        batch = 8
        credit = FlowPolicy(batch=batch).effective_credit_window()
        items = [f"d{i:02d}" for i in range(30)]

        async def scenario():
            collector = AioCollector()
            sink_state, sink_writes = PushState(), []
            sink, sink_port, _stats = await start_stage_server(
                writable=collector, credit=credit, state=sink_state,
                writes=sink_writes,
            )
            outbound = RemoteWritable(
                "127.0.0.1", sink_port, uid=client_book().ticket(1),
                book=client_book(), resume=True, io_timeout=2.0,
                injector=build_injector(FaultPlan(frame_faults=[
                    FrameFault(action="corrupt", frame="write", nth=2),
                ])),
            )
            filter_state, filter_writes = PushState(), []
            stage = AioWriteOnlyStage(identity_transducer(), [outbound])
            middle, middle_port, _stats = await start_stage_server(
                writable=stage, credit=credit, state=filter_state,
                writes=filter_writes,
            )
            driver = RemoteWritable(
                "127.0.0.1", middle_port, uid=client_book().ticket(2),
                book=client_book(), resume=True, io_timeout=2.0,
            )
            for start in range(0, len(items), batch):
                await driver.write(Transfer.of(items[start:start + batch]))
            await driver.write(END_TRANSFER)
            for server in (middle, sink):
                server.close()
                await server.wait_closed()
            return (collector, outbound, sink_state, sink_writes,
                    filter_writes)

        collector, outbound, sink_state, sink_writes, filter_writes = run(
            scenario())
        assert collector.items == items
        assert collector.done.is_set()
        assert outbound.stats.get("reconnects") == 1
        assert (sink_state.received, sink_state.duplicates) == (30, 0)
        # One WRITE per batch on the clean hop; on the faulted hop the
        # corrupted frame never decoded, so seq 8 is seen exactly once —
        # as the replay.
        assert filter_writes == [(0, 8), (8, 8), (16, 8), (24, 6)]
        assert sink_writes == [(0, 8), (8, 8), (16, 8), (24, 6)]


class TestPipeBothWays:
    def test_pipe_serves_push_and_pull(self):
        """A pipe process's core: passive input AND passive output."""

        async def scenario():
            pipe = AioPipe(capacity=8)
            server, port, _stats = await start_stage_server(
                readables=pipe, writable=pipe, credit=8
            )
            writer = RemoteWritable(
                "127.0.0.1", port, uid=client_book().ticket(1),
                book=client_book(),
            )
            reader = RemoteReadable(
                "127.0.0.1", port, uid=client_book().ticket(2),
                book=client_book(),
            )

            async def produce():
                for item in ("p", "q", "r"):
                    await writer.write(Transfer.single(item))
                await writer.write(END_TRANSFER)

            async def consume():
                got = []
                while True:
                    transfer = await reader.read()
                    if transfer.at_end:
                        return got
                    got.extend(transfer.items)

            _done, got = await asyncio.gather(produce(), consume())
            server.close()
            await server.wait_closed()
            return got

        assert run(scenario()) == ["p", "q", "r"]


class TestConnectBackoff:
    def test_connects_to_late_server(self):
        """The client retries until the listener appears."""

        async def scenario():
            port = pick_free_port()
            results = {}

            async def late_server():
                await asyncio.sleep(0.3)
                server = await asyncio.start_server(
                    lambda r, w: w.close(), host="127.0.0.1", port=port
                )
                results["server"] = server

            async def client():
                reader, writer = await connect_with_backoff(
                    "127.0.0.1", port, deadline=10.0
                )
                writer.close()
                return True

            _none, connected = await asyncio.gather(late_server(), client())
            results["server"].close()
            await results["server"].wait_closed()
            return connected

        assert run(scenario())

    def test_reaches_a_listener_bound_moments_later(self):
        """The common miss — a listener task that binds a few ms after
        the first dial — costs milliseconds, not a 50 ms first sleep."""

        async def scenario():
            port = pick_free_port()
            results = {}

            async def late_server():
                await asyncio.sleep(0.005)
                results["server"] = await asyncio.start_server(
                    lambda r, w: w.close(), host="127.0.0.1", port=port
                )

            async def client():
                started = time.monotonic()
                _reader, writer = await connect_with_backoff(
                    "127.0.0.1", port, deadline=10.0
                )
                elapsed = time.monotonic() - started
                writer.close()
                return elapsed

            _none, elapsed = await asyncio.gather(late_server(), client())
            results["server"].close()
            await results["server"].wait_closed()
            return elapsed

        # 2 + 4 + 8 ms of back-off cover the 5 ms; the old first sleep
        # alone was 50 ms.
        assert run(scenario()) < 0.04

    def test_gives_up_after_deadline(self):
        async def scenario():
            started = time.monotonic()
            with pytest.raises(WireError, match="could not connect"):
                await connect_with_backoff(
                    "127.0.0.1", pick_free_port(), deadline=0.2
                )
            return time.monotonic() - started

        # Never sleeps past the deadline, and does use most of it.
        assert 0.1 <= run(scenario()) <= 0.25


class TestFreePorts:
    def test_ports_of_one_plan_are_distinct(self):
        """Bind-and-release per port let one plan draw a port twice
        (about one fleet in 600 died with EADDRINUSE)."""
        for _ in range(2000):
            ports = pick_free_ports(5)
            assert len(set(ports)) == 5

    def test_ports_are_free_once_chosen(self):
        async def scenario():
            for port in pick_free_ports(3):
                server = await asyncio.start_server(
                    lambda r, w: w.close(), host="127.0.0.1", port=port)
                server.close()
                await server.wait_closed()

        run(scenario())
