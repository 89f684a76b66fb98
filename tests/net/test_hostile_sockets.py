"""Hostile bytes on every socket that reads through the frame protocol.

A declared body length of 2^31, a bad magic and EOF in the middle of a
frame, each sent to a broker host link, a control port and the chaos
proxy.  Each ends in a typed error within a deadline — the header alone
condemns the first two, so the declared body is never awaited or
buffered — and only the offending connection goes: the broker keeps
relaying for the hosts attached beside it, the control server keeps
answering, and the proxy forwards the good frames that came first.
"""

import asyncio

import pytest

from repro.aio.streams import AioSource
from repro.broker.client import BrokerClient
from repro.broker.daemon import FIRST_STAGE_SERIAL, Broker
from repro.fault import ChaosProxy, FaultPlan
from repro.net.framing import HEADER, MAGIC, Frame, FrameType, encode_frame
from repro.net.handshake import (
    ROLE_HOST,
    ROLE_PULL,
    TicketBook,
    expect_hello_over,
    send_hello,
    send_hello_over,
)
from repro.net.protocol import serve_pull
from repro.obs.control import ControlError, query_async, start_control_server

from tests.net.peer import read_frame

DEADLINE = 5.0

GOOD = encode_frame(Frame(FrameType.DATA, {"items": ["good"]}, chan=7))

#: (payload, whether the sender then half-closes, the FrameError's words).
HOSTILE = {
    "length-2^31": (HEADER.pack(MAGIC, int(FrameType.DATA), 2**31)
                    + b"x" * 256 * 1024, False, "exceeds cap"),
    "bad-magic": (b"HTTP/1.1 200 OK\r\n\r\n", False, "bad magic"),
    "eof-mid-frame": (GOOD[:-3], True, "mid-frame"),
}


def run(coroutine):
    return asyncio.run(coroutine)


def book():
    return TicketBook(space=3, seed=7)


async def send_hostile(writer, name):
    payload, half_close, _words = HOSTILE[name]
    writer.write(payload)
    if half_close:
        writer.write_eof()
    await writer.drain()


async def hung_up(reader, writer):
    """True once the far end has closed this connection."""
    try:
        while await read_frame(reader, writer) is not None:
            pass
    except ConnectionError:
        pass
    writer.close()
    return True


@pytest.mark.parametrize("name", sorted(HOSTILE))
class TestBrokerHostLink:
    def test_the_link_is_dropped_and_the_other_hosts_keep_relaying(self, name):
        async def scenario():
            lines = []
            broker = Broker(book(), log=lines.append)
            await broker.start()
            server_uid = book().ticket(FIRST_STAGE_SERIAL)

            def serve(channel, _notice):
                async def body():
                    hello = await expect_hello_over(channel, book(), server_uid)
                    await serve_pull(channel, AioSource(["a", "b"]), hello)

                asyncio.ensure_future(body())

            hosts = []
            for serial, options in ((2, {"on_accept": serve}), (3, {})):
                host = BrokerClient(broker.host, broker.port, book(),
                                    serial=serial, connect_deadline=DEADLINE,
                                    request_timeout=DEADLINE, **options)
                await host.connect()
                hosts.append(host)
            server, opener = hosts
            await server.register("source", serves=(ROLE_PULL,))

            reader, writer = await asyncio.open_connection(broker.host, broker.port)
            await send_hello(reader, writer, book().ticket(4), ROLE_HOST,
                             book=book(), roles=(ROLE_HOST,))
            await send_hostile(writer, name)
            closed = await asyncio.wait_for(hung_up(reader, writer), DEADLINE)

            channel = await opener.open("source", ROLE_PULL)
            await send_hello_over(channel, book().ticket(200), ROLE_PULL,
                                  book=book())
            got = []
            for _ in range(3):
                await channel.send(Frame(FrameType.READ, {"batch": 1}))
                reply = await asyncio.wait_for(channel.recv(), DEADLINE)
                got.append(reply.body.get("items"))
            for host in hosts:
                await host.close()
            await broker.close()
            return closed, lines, got

        closed, lines, got = run(scenario())
        assert closed
        failed = [line for line in lines if "link failed" in line]
        assert len(failed) == 1 and HOSTILE[name][2] in failed[0]
        assert got == [["a"], ["b"], None]


@pytest.mark.parametrize("name", sorted(HOSTILE))
class TestControlPort:
    def test_a_hostile_request_closes_that_connection_only(self, name):
        async def scenario():
            server = await start_control_server({"ping": lambda body: "pong"})
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await send_hostile(writer, name)
            closed = await asyncio.wait_for(hung_up(reader, writer), DEADLINE)
            answer = await query_async("127.0.0.1", port, "ping", timeout=DEADLINE)
            server.close()
            await server.wait_closed()
            return closed, answer

        assert run(scenario()) == (True, "pong")

    def test_a_hostile_reply_is_a_control_error(self, name):
        payload, _half_close, words = HOSTILE[name]

        async def handle(reader, writer):
            await reader.read(1024)
            writer.write(payload)
            await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(ControlError, match=words):
                    await query_async("127.0.0.1", port, "stats", timeout=DEADLINE)
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())


@pytest.mark.parametrize("name", sorted(HOSTILE))
class TestChaosProxy:
    def test_the_good_frames_go_through_and_the_hostile_one_does_not(self, name):
        async def scenario():
            received = asyncio.get_running_loop().create_future()

            async def target(reader, writer):
                received.set_result(await reader.read())
                writer.close()

            server = await asyncio.start_server(target, "127.0.0.1", 0)
            proxy = await ChaosProxy(
                "127.0.0.1", server.sockets[0].getsockname()[1], FaultPlan(),
            ).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", proxy.port)
            writer.write(GOOD)
            await send_hostile(writer, name)
            closed = await asyncio.wait_for(hung_up(reader, writer), DEADLINE)
            forwarded = await asyncio.wait_for(received, DEADLINE)
            errors = proxy.stats.get("link_errors")
            await proxy.stop()
            server.close()
            await server.wait_closed()
            return closed, forwarded, errors

        closed, forwarded, errors = run(scenario())
        assert closed
        assert forwarded == GOOD
        assert errors == 1
