"""In-process tests of the broker's naming, issuance, and relay.

An in-process :class:`Broker` plus real :class:`BrokerClient`
attachments over loopback TCP: registrations mint stable serials,
opens are compatibility-checked at issuance, unregistered names park,
and a full pull stream runs through the codec-blind relay.
"""

import asyncio
import gc
import sys
import warnings

import pytest

from repro.aio.streams import AioSource
from repro.net.handshake import (
    ROLE_PULL,
    ROLE_PUSH,
    HandshakeError,
    TicketBook,
    expect_hello_over,
    send_hello_over,
)
from repro.net.framing import FrameError
from repro.net.protocol import serve_pull
from repro.broker.client import BrokerClient
from repro.broker.daemon import (
    BROKER_SERIAL,
    FIRST_STAGE_SERIAL,
    Broker,
    BrokerError,
)

BOOK_ARGS = dict(space=3, seed=7)


def run(coroutine):
    return asyncio.run(coroutine)


def book():
    return TicketBook(**BOOK_ARGS)


async def start_broker(**options):
    broker = Broker(book(), **options)
    await broker.start()
    return broker


async def attach(broker, serial, **options):
    client = BrokerClient(
        broker.host, broker.port, book(), serial=serial,
        connect_deadline=5.0, request_timeout=5.0, **options,
    )
    await client.connect()
    return client


class TestRegistration:
    def test_serials_count_up_from_the_stage_floor(self):
        async def scenario():
            broker = await start_broker()
            client = await attach(broker, 2)
            first = await client.register("source", serves=(ROLE_PULL,))
            second = await client.register("sink")
            await client.close()
            await broker.close()
            return first, second

        first, second = run(scenario())
        assert first == FIRST_STAGE_SERIAL
        assert second == FIRST_STAGE_SERIAL + 1

    def test_reregistration_keeps_the_serial(self):
        async def scenario():
            broker = await start_broker()
            client = await attach(broker, 2)
            original = await client.register("source", serves=(ROLE_PULL,))
            await client.close()  # the host crashes...
            revived = await attach(broker, 2)  # ...and comes back
            again = await revived.register("source", serves=(ROLE_PULL,))
            await revived.close()
            await broker.close()
            return original, again

        original, again = run(scenario())
        assert again == original

    def test_live_names_cannot_be_stolen(self):
        async def scenario():
            broker = await start_broker()
            owner = await attach(broker, 2)
            thief = await attach(broker, 3)
            await owner.register("source", serves=(ROLE_PULL,))
            with pytest.raises(BrokerError, match="name-taken"):
                await thief.register("source")
            await owner.close()
            await thief.close()
            await broker.close()

        run(scenario())

    def test_bad_names_and_roles_are_refused(self):
        async def scenario():
            broker = await start_broker()
            client = await attach(broker, 2)
            with pytest.raises(BrokerError, match="bad-name"):
                await client.register("")
            with pytest.raises(BrokerError, match="bad-roles"):
                await client.register("x", serves=("launch-missiles",))
            await client.close()
            await broker.close()

        run(scenario())


class TestIssuance:
    def test_incompatible_role_refused_at_open_time(self):
        async def scenario():
            broker = await start_broker()
            server = await attach(broker, 2)
            opener = await attach(broker, 3)
            # "source" serves pull endpoints only; a push endpoint
            # must be refused at issuance, not deadlock at runtime.
            await server.register("source", serves=(ROLE_PULL,))
            with pytest.raises(BrokerError, match="incompatible-channel"):
                await opener.open("source", ROLE_PUSH)
            count = broker.stats.get("incompatible_opens")
            await server.close()
            await opener.close()
            await broker.close()
            return count

        assert run(scenario()) == 1

    def test_unknown_name_fails_fast_without_parking(self):
        async def scenario():
            broker = await start_broker(park_deadline=0)
            client = await attach(broker, 2)
            with pytest.raises(BrokerError, match="no-such-name"):
                await client.open("nobody", ROLE_PULL)
            await client.close()
            await broker.close()

        run(scenario())

    def test_parked_open_times_out_with_no_such_name(self):
        async def scenario():
            broker = await start_broker(park_deadline=0.2)
            client = await attach(broker, 2)
            with pytest.raises(BrokerError, match="no-such-name"):
                await client.open("late", ROLE_PULL)
            count = broker.stats.get("park_timeouts")
            await client.close()
            await broker.close()
            return count

        assert run(scenario()) == 1

    def test_parked_open_completes_when_the_name_registers(self):
        async def scenario():
            broker = await start_broker(park_deadline=5.0)
            accepted = []
            server = await attach(
                broker, 2,
                on_accept=lambda channel, notice: accepted.append(notice),
            )
            opener = await attach(broker, 3)
            pending = asyncio.ensure_future(opener.open("slow", ROLE_PULL))
            await asyncio.sleep(0.05)
            assert not pending.done()  # parked, not refused
            await server.register("slow", serves=(ROLE_PULL,))
            channel = await asyncio.wait_for(pending, timeout=5.0)
            await opener.close()
            await server.close()
            await broker.close()
            return channel.chan, accepted

        chan, accepted = run(scenario())
        assert chan > 0
        assert accepted and accepted[0]["name"] == "slow"
        assert accepted[0]["role"] == ROLE_PULL

    def test_ping_and_idempotent_close_chan(self):
        async def scenario():
            broker = await start_broker()
            client = await attach(broker, 2)
            assert await client.request("ping") == {}
            # Unknown channel: empty success, so close races are benign.
            assert await client.request("close-chan", chan=99) == {}
            with pytest.raises(BrokerError, match="unknown-command"):
                await client.request("frobnicate")
            await client.close()
            await broker.close()

        run(scenario())


class TestRelay:
    def test_pull_stream_runs_through_the_relay(self):
        async def scenario():
            broker = await start_broker()
            client_book = book()
            server_uid = client_book.ticket(FIRST_STAGE_SERIAL)

            def serve(channel, notice):
                async def body():
                    hello = await expect_hello_over(
                        channel, client_book, server_uid, credit=0
                    )
                    await serve_pull(channel, AioSource(["a", "b"]), hello)
                    await server.release(channel)

                asyncio.ensure_future(body())

            server = await attach(broker, 2, on_accept=serve)
            await server.register("source", serves=(ROLE_PULL,))
            opener = await attach(broker, 3)
            channel = await opener.open("source", ROLE_PULL)
            await send_hello_over(
                channel, client_book.ticket(200), ROLE_PULL,
                book=client_book,
            )
            from repro.net.framing import Frame, FrameType

            got = []
            for seq in range(3):
                await channel.send(
                    Frame(FrameType.READ, {"seq": seq, "batch": 1})
                )
                reply = await asyncio.wait_for(channel.recv(), timeout=5.0)
                got.append(reply)
            relayed = broker.stats.get("relayed_frames")
            await opener.release(channel)
            await opener.close()
            await server.close()
            await broker.close()
            return got, relayed

        got, relayed = run(scenario())
        assert [frame.type.name for frame in got] == ["DATA", "DATA", "END"]
        assert [frame.body.get("items") for frame in got[:2]] == [["a"], ["b"]]
        assert relayed > 0

    def test_local_close_hangs_up_the_peer(self):
        async def scenario():
            broker = await start_broker()
            accepted = asyncio.get_running_loop().create_future()
            server = await attach(
                broker, 2,
                on_accept=lambda channel, notice: accepted.set_result(channel),
            )
            await server.register("source", serves=(ROLE_PULL,))
            opener = await attach(broker, 3)
            channel = await opener.open("source", ROLE_PULL)
            passive_end = await accepted
            await opener.release(channel)
            # The passive end learns about it through the broker.
            hung_up = await asyncio.wait_for(passive_end.recv(), timeout=5.0)
            await opener.close()
            await server.close()
            await broker.close()
            return hung_up

        assert run(scenario()) is None

    def test_dead_attachment_hangs_up_its_routes(self):
        async def scenario():
            broker = await start_broker()
            accepted = asyncio.get_running_loop().create_future()
            server = await attach(
                broker, 2,
                on_accept=lambda channel, notice: accepted.set_result(channel),
            )
            await server.register("source", serves=(ROLE_PULL,))
            opener = await attach(broker, 3)
            await opener.open("source", ROLE_PULL)
            passive_end = await accepted
            await opener.close()  # whole host dies, no close-chan sent
            hung_up = await asyncio.wait_for(passive_end.recv(), timeout=5.0)
            await server.close()
            await broker.close()
            return hung_up

        assert run(scenario()) is None


class TestIntrospection:
    def test_health_and_channel_listing(self):
        async def scenario():
            broker = await start_broker()
            accepted = asyncio.get_running_loop().create_future()
            server = await attach(
                broker, 2,
                on_accept=lambda channel, notice: accepted.set_result(channel),
            )
            await server.register("source", serves=(ROLE_PULL,))
            opener = await attach(broker, 3)
            await opener.open("source", ROLE_PULL)
            await accepted
            handlers = broker.control_handlers()
            health = handlers["health"]({})
            channels = handlers["channels"]({})
            await opener.close()
            await server.close()
            await broker.close()
            return health, channels

        health, channels = run(scenario())
        assert health["role"] == "broker"
        assert health["hosts"] == 2
        assert health["names"] == 1
        assert health["channels_open"] == 1
        assert len(channels) == 1
        assert channels[0]["name"] == "source"
        assert channels[0]["role"] == ROLE_PULL

    def test_broker_uid_is_the_reserved_serial(self):
        broker = Broker(book())
        assert broker.uid == book().ticket(BROKER_SERIAL)
        assert broker.book.verify(broker.uid)

    def test_rejects_forged_attachments(self):
        async def scenario():
            broker = await start_broker()
            impostor = BrokerClient(
                broker.host, broker.port, TicketBook(space=9, seed=9),
                serial=2, connect_deadline=5.0,
            )
            with pytest.raises(Exception):
                await impostor.connect()
                await impostor.request("ping", timeout=1.0)
            rejected = broker.stats.get("rejected_attachments")
            await impostor.close()
            await broker.close()
            return rejected

        assert run(scenario()) == 1

    def test_a_refused_attachment_closes_its_socket(self, monkeypatch):
        # A socket left open warns from its writer's finalizer, which
        # Python reports through the unraisable hook, never the caller.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

        async def scenario():
            broker = await start_broker()
            impostor = BrokerClient(
                broker.host, broker.port, TicketBook(space=9, seed=9),
                serial=2, connect_deadline=5.0,
            )
            with pytest.raises(HandshakeError):
                await impostor.connect()
            await broker.close()

        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            run(scenario())
            gc.collect()
        assert [hook.exc_value for hook in unraisable] == []

    def test_a_garbled_reply_closes_its_socket(self, monkeypatch):
        # The peer answers the hello with bytes that are no frame and
        # keeps its end open: only the client can close the socket.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

        async def scenario():
            done = asyncio.Event()

            async def garble(_reader, writer):
                writer.write(b"\xff" * 64)
                await done.wait()
                writer.close()

            server = await asyncio.start_server(garble, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = BrokerClient("127.0.0.1", port, book(), serial=2,
                                  connect_deadline=5.0)
            with pytest.raises(FrameError, match="bad magic"):
                await client.connect()
            assert not client.connected
            done.set()
            server.close()
            await server.wait_closed()

        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            run(scenario())
            gc.collect()
        assert [hook.exc_value for hook in unraisable] == []
