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
from repro.net.framing import (
    Frame,
    FrameType,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.net.handshake import ROLE_PULL, ROLE_PUSH, expect_hello, send_hello
from repro.net.protocol import (
    PushState,
    RemoteReadable,
    RemoteWritable,
    WireError,
    connect_with_backoff,
)
from repro.net.stage import (
    StageConfig,
    pick_free_port,
    pick_free_ports,
    run_stage,
)
from repro.obs.spans import SpanIds
from repro.transput.filterbase import identity_transducer, make_transducer
from repro.transput.flow import FlowPolicy
from repro.transput.stream import END_TRANSFER, Transfer

from tests.net.wiretap import (
    BOOK_ARGS,
    ITEMS,
    SENT,
    client_book,
    frames_of,
    pull_chain,
    push_chain,
    start_stage_server,
    writes_seen,
)


def run(coroutine):
    return asyncio.run(coroutine)


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

    def test_more_reads_in_flight_than_one_reply_burst(self):
        """70 pipelined READs against a 64-reply burst cap: the READs
        left over start the next burst — none is dropped."""

        async def scenario():
            frames = []
            server, port, _stats = await start_stage_server(
                readables=AioSource(["a", "b"]), frames=frames
            )
            remote = RemoteReadable(
                "127.0.0.1", port, uid=client_book().ticket(1),
                book=client_book(), pipeline_depth=70,
            )
            got = []
            while not (transfer := await remote.read(1)).at_end:
                got.extend(transfer.items)
            server.close()
            await server.wait_closed()
            return got, frames

        got, frames = run(asyncio.wait_for(scenario(), 5.0))
        assert got == ["a", "b"]
        # 70 up front, one top-up per DATA consumed; every one answered.
        assert len(frames_of(frames, "<", "READ")) == 72
        assert len(frames_of(frames, SENT)) == 72

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
            frames = []
            server, port, _stats = await start_stage_server(
                writable=collector, credit=credit, frames=frames
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
            return collector, writes_seen(frames)

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
                frames=sink_writes,
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
                frames=filter_writes,
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
            return (collector, outbound, sink_state, writes_seen(sink_writes),
                    writes_seen(filter_writes))

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


def without_seq(frames):
    return [(name, {key: value for key, value in body.items() if key != "seq"})
            for name, body in frames]


def seq_key_bytes(frames, codec="json"):
    """What the ``seq`` keys of ``frames`` cost on the wire, in bytes."""
    return sum(
        len(encode_frame(Frame(FrameType[name], body), codec))
        - len(encode_frame(Frame(FrameType[name], bare), codec))
        for (name, body), (_name, bare) in zip(frames, without_seq(frames))
    )


class TestResumeChangesSeqAndRetentionOnly:
    """The same fault-free stream with ``resume`` off and on: the frames
    differ by the ``seq`` key and by nothing else — same loop, same
    bursts, same counts, same END."""

    #: Every counter that says what crossed the wire (bytes aside).
    COUNTED = ("invocations_sent", "replies_sent", "frames_sent",
               "frames_received", "records_in", "records_out")

    def assert_same_stream(self, plain, resuming):
        assert plain.output == resuming.output == ITEMS
        assert plain.ends.keys() == resuming.ends.keys()
        for end, (stats, sent) in plain.ends.items():
            resumed_stats, resumed_sent = resuming.ends[end]
            assert without_seq(resumed_sent) == sent, end
            names = {name for name in (*stats.names(), *resumed_stats.names())
                     if name in self.COUNTED
                     or name.endswith(("_frames_sent", "_frames_received"))}
            assert names >= {"frames_sent", "frames_received"}, end
            for name in sorted(names):
                assert stats.get(name) == resumed_stats.get(name), (end, name)
            assert (resumed_stats.get("bytes_sent") - stats.get("bytes_sent")
                    == seq_key_bytes(resumed_sent)), end
            assert resumed_stats.get("reconnects") == 0, end
        # seq really is there: on every DATA / WRITE, and on the END.
        for _stats, sent in resuming.ends.values():
            for name, body in sent:
                assert ("seq" in body) == (name in ("DATA", "WRITE", "END"))

    @pytest.mark.parametrize("depth", [1, 8])
    def test_pull(self, depth):
        self.assert_same_stream(run(pull_chain(False, depth)),
                                run(pull_chain(True, depth)))

    @pytest.mark.parametrize("credit", [3, 12])
    def test_push(self, credit):
        self.assert_same_stream(run(push_chain(False, credit)),
                                run(push_chain(True, credit)))

    @pytest.mark.parametrize("resume", [False, True])
    def test_pipelined_reads_are_answered_in_bursts(self, resume):
        """A depth-8 reader packs its READs into one segment; the
        serving side answers them with vectored writes in either mode
        (the resume loop used to send reply by reply)."""
        chain = run(pull_chain(resume, 8))
        for end in ("filter-serving", "source"):
            stats, sent = chain.ends[end]
            assert len(sent) == 11  # 3 DATA + END + 7 drained ENDs
            assert (stats.get("sendmsg_writes")
                    + stats.get("coalesced_writes")) > 0, end

    @pytest.mark.parametrize("resume", [False, True])
    def test_buffered_end_reply_carries_its_trace_origin(self, resume):
        """Conventional: the END a pipe hands a reader was deposited
        under the writer's span, and the END reply says so — also when
        the pipe is served from a replay log."""

        async def scenario():
            pipe = AioPipe(capacity=8)
            frames = []
            server, port, _stats = await start_stage_server(
                readables=pipe, writable=pipe, credit=8, frames=frames,
                state=PushState() if resume else None,
                logs={} if resume else None,
            )
            writer = RemoteWritable(
                "127.0.0.1", port, uid=client_book().ticket(1),
                book=client_book(), resume=resume,
                spans=SpanIds(prefix="w-"),
            )
            reader = RemoteReadable(
                "127.0.0.1", port, uid=client_book().ticket(2),
                book=client_book(), resume=resume,
            )
            await writer.write(Transfer.of(["p", "q"]))
            await writer.write(END_TRANSFER)
            got = []
            while not (transfer := await reader.read(8)).at_end:
                got.extend(transfer.items)
            server.close()
            await server.wait_closed()
            return got, frames

        got, frames = run(scenario())
        assert got == ["p", "q"]
        (pushed_end,) = [body for name, body in frames_of(frames, "<", "END")]
        (end_reply,) = [body for name, body in frames_of(frames, SENT, "END")]
        assert end_reply["trace"] == pushed_end["trace"]
        assert ("seq" in end_reply) == resume


async def vanishing_pusher(port, items, resume=False):
    """Push one WRITE, take its ACK, and hang up without an END.

    Raw frames rather than a ``RemoteWritable``: with the ACK consumed
    the close is a clean FIN, so the server deterministically sees EOF
    (an unread ACK would make it a reset on some runs).
    """
    reader, writer = await connect_with_backoff("127.0.0.1", port, 5.0)
    await send_hello(reader, writer, client_book().ticket(3), ROLE_PUSH,
                     book=client_book())
    body = {"items": items, "channel": "Output"}
    await write_frame(writer, Frame(
        FrameType.WRITE, {**body, "seq": 0} if resume else body))
    ack = await read_frame(reader)
    assert ack.type is FrameType.ACK and ack.body["credit"] == len(items)
    writer.close()
    await writer.wait_closed()


class TestPushHangUp:
    """A push link that closes before END is not a completed stream."""

    def test_serve_push_names_the_dead_link_unless_the_pusher_resumes(self):
        async def scenario(state):
            collector = AioCollector()
            failures = []
            server, port, _stats = await start_stage_server(
                writable=collector, state=state, failures=failures)
            await vanishing_pusher(port, ["x", "y"], resume=state is not None)
            server.close()
            await server.wait_closed()
            return collector, failures

        collector, failures = run(scenario(None))
        assert collector.items == ["x", "y"] and not collector.done.is_set()
        (failure,) = failures
        assert isinstance(failure, WireError)
        assert "no END received" in str(failure)
        # Under resume the pusher will be back: the link just ends.
        collector, failures = run(scenario(PushState()))
        assert collector.items == ["x", "y"] and failures == []

    def test_a_vanished_pusher_fails_the_stage_and_frees_the_sink(self):
        """writer -> write-only filter stage -> sink stage; the writer
        drops its socket after one WRITE.  The filter used to return
        normally — END never forwarded, the sink waiting for ever."""

        async def scenario():
            filter_port, sink_port = pick_free_ports(2)
            common = dict(discipline="writeonly",
                          ticket_space=BOOK_ARGS["space"],
                          ticket_seed=BOOK_ARGS["seed"],
                          flow=FlowPolicy(batch=3))
            stages = [
                asyncio.create_task(run_stage(StageConfig(
                    role="filter", serial=1, listen_port=filter_port,
                    downstream=("127.0.0.1", sink_port), **common))),
                asyncio.create_task(run_stage(StageConfig(
                    role="sink", serial=2, listen_port=sink_port, **common))),
            ]
            await vanishing_pusher(filter_port, ["a", "b", "c"])
            try:
                return await asyncio.wait_for(
                    asyncio.gather(*stages, return_exceptions=True), 5.0)
            finally:
                for stage in stages:
                    stage.cancel()

        filter_outcome, sink_outcome = run(scenario())
        assert isinstance(filter_outcome, WireError), filter_outcome
        assert "no END received" in str(filter_outcome)
        # The failed filter hangs up on the sink in turn (as a dying
        # process would); with the sink's last ACK unread that close
        # may reach it as a reset instead of an EOF.
        assert isinstance(sink_outcome, (WireError, ConnectionError)), \
            sink_outcome


class TestHostileFields:
    """A well-formed frame whose field has the wrong type is refused: the
    serving side answers ``ERROR bad-frame`` and fails with a
    ``WireError``, the reading side raises one.  Never a bare
    ``TypeError`` that leaves the peer waiting, never a coercion."""

    @staticmethod
    async def exchange(port, role, frame):
        """HELLO as ``role``, then ``frame``: the one reply (None at EOF)."""
        reader, writer = await connect_with_backoff("127.0.0.1", port)
        await send_hello(reader, writer, client_book().ticket(1), role,
                         book=client_book())
        await write_frame(writer, frame)
        try:
            return await asyncio.wait_for(read_frame(reader), 5.0)
        finally:
            writer.close()

    def refused(self, port_of, role, frame):
        async def scenario():
            failures = []
            server, port, _stats = await start_stage_server(
                failures=failures, **port_of)
            reply = await self.exchange(port, role, frame)
            server.close()
            await server.wait_closed()
            return reply, failures

        reply, failures = run(scenario())
        assert reply is not None and reply.type is FrameType.ERROR, reply
        assert reply.body["code"] == "bad-frame"
        (failure,) = failures
        assert isinstance(failure, WireError)
        return str(failure)

    @pytest.mark.parametrize("batch", ["x", [1], None, 2.5, True])
    def test_a_read_batch_must_be_an_int(self, batch):
        message = self.refused(
            {"readables": AioSource(ITEMS)}, ROLE_PULL,
            Frame(FrameType.READ, {"batch": batch, "channel": "Output"}))
        assert "READ batch must be an int" in message

    @pytest.mark.parametrize("items", [5, None, "abc", {"a": 1}])
    def test_write_items_must_be_a_list(self, items):
        collector = AioCollector()
        message = self.refused(
            {"writable": collector}, ROLE_PUSH,
            Frame(FrameType.WRITE, {"items": items, "channel": "Output"}))
        assert "WRITE items must be a list" in message
        assert collector.items == []

    @pytest.mark.parametrize("items", ["abc", 5, None, {"a": 1}])
    def test_data_items_must_be_a_list(self, items):
        async def scenario():
            book = client_book()

            async def handle(reader, writer):
                await expect_hello(reader, writer, book, book.ticket(0))
                await read_frame(reader)
                await write_frame(writer, Frame(
                    FrameType.DATA, {"items": items, "channel": "Output"}))
                await read_frame(reader)  # until the reader hangs up
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            remote = RemoteReadable(
                "127.0.0.1", server.sockets[0].getsockname()[1],
                uid=client_book().ticket(1), book=client_book())
            try:
                await remote.read()
            finally:
                await remote.aclose()
                server.close()
                await server.wait_closed()

        with pytest.raises(WireError, match="DATA items must be a list"):
            run(scenario())


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
