"""The UID/capability hello: genuine tickets pass, forgeries are cut off."""

import asyncio

import pytest

from repro.core.uid import UID
from repro.net.framing import Frame, FrameType, write_frame
from repro.net.handshake import (
    HandshakeError,
    HandshakeLinkDown,
    ROLE_PULL,
    ROLE_PUSH,
    TicketBook,
    expect_hello,
    expect_hello_over,
    send_hello,
)

from tests.net.peer import read_frame


class TestTicketBook:
    def test_same_parameters_same_tickets(self):
        one = TicketBook(space=5, seed=99)
        two = TicketBook(space=5, seed=99)
        assert [one.ticket(i) for i in range(4)] == [two.ticket(i) for i in range(4)]

    def test_different_seed_different_nonces(self):
        assert TicketBook(space=5, seed=1).ticket(0) != TicketBook(
            space=5, seed=2
        ).ticket(0)

    def test_verifies_tickets_issued_elsewhere(self):
        issuer = TicketBook(space=0, seed=7)
        verifier = TicketBook(space=0, seed=7)
        assert verifier.is_genuine(issuer.ticket(3))

    def test_rejects_forged_nonce(self):
        book = TicketBook(space=0, seed=7)
        genuine = book.ticket(0)
        forged = UID(space=genuine.space, serial=genuine.serial,
                     nonce=genuine.nonce ^ 1)
        assert not book.is_genuine(forged)

    def test_rejects_wrong_space(self):
        ticket = TicketBook(space=1, seed=7).ticket(0)
        assert not TicketBook(space=2, seed=7).is_genuine(ticket)

    def test_rejects_non_uid(self):
        assert not TicketBook().is_genuine("uid:0.0")

    def test_serial_out_of_range(self):
        with pytest.raises(HandshakeError, match="out of range"):
            TicketBook().ticket(-1)


def run(coroutine):
    return asyncio.run(coroutine)


async def _serve_one(book, server_uid, credit=0):
    """A one-connection server returning the handshake outcome."""
    result: dict = {}

    async def handler(reader, writer):
        try:
            result["hello"] = await expect_hello(
                reader, writer, book, server_uid, credit=credit
            )
        except HandshakeError as error:
            result["error"] = error
        finally:
            writer.close()

    server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
    port = server.sockets[0].getsockname()[1]
    return server, port, result


class TestHandshakeOverSockets:
    def test_genuine_ticket_accepted_and_welcomed(self):
        async def scenario():
            book = TicketBook(space=0, seed=3)
            server, port, result = await _serve_one(book, book.ticket(0), credit=8)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            welcome = await send_hello(
                reader, writer, TicketBook(space=0, seed=3).ticket(1),
                ROLE_PUSH, book=TicketBook(space=0, seed=3),
            )
            server.close()
            await server.wait_closed()
            return welcome, result

        welcome, result = run(scenario())
        assert welcome.type is FrameType.WELCOME
        assert welcome.body["credit"] == 8
        assert result["hello"].role == ROLE_PUSH
        assert result["hello"].uid.serial == 1

    def test_forged_ticket_rejected_with_error_frame(self):
        async def scenario():
            book = TicketBook(space=0, seed=3)
            server, port, result = await _serve_one(book, book.ticket(0))
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            forged = UID(space=0, serial=1, nonce=123456789)
            with pytest.raises(HandshakeError, match="forged-uid"):
                await send_hello(reader, writer, forged, ROLE_PULL)
            server.close()
            await server.wait_closed()
            return result

        result = run(scenario())
        assert "forged" in str(result["error"])

    def test_wrong_first_frame_rejected(self):
        async def scenario():
            book = TicketBook(space=0, seed=3)
            server, port, result = await _serve_one(book, book.ticket(0))
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await write_frame(writer, Frame(FrameType.READ, {"batch": 1}))
            reply = await read_frame(reader, writer)
            server.close()
            await server.wait_closed()
            return reply, result

        reply, result = run(scenario())
        assert reply.type is FrameType.ERROR
        assert reply.body["code"] == "bad-hello"
        assert isinstance(result["error"], HandshakeError)

    def test_unknown_role_rejected(self):
        async def scenario():
            book = TicketBook(space=0, seed=3)
            server, port, _result = await _serve_one(book, book.ticket(0))
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await write_frame(writer, Frame(FrameType.HELLO, {
                "uid": book.ticket(1), "role": "teleport", "channel": "Output",
            }))
            reply = await read_frame(reader, writer)
            server.close()
            await server.wait_closed()
            return reply

        reply = run(scenario())
        assert reply.type is FrameType.ERROR
        assert reply.body["code"] == "bad-role"

    def test_mutual_auth_catches_impostor_server(self):
        async def scenario():
            # The impostor verifies clients correctly (it somehow knows
            # the book) but presents a ticket from the wrong book in
            # its WELCOME; the client's mutual check must catch it.
            verifying_book = TicketBook(space=0, seed=3)
            impostor_uid = TicketBook(space=0, seed=999).ticket(0)
            server, port, _result = await _serve_one(verifying_book, impostor_uid)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            client_book = TicketBook(space=0, seed=3)
            with pytest.raises(HandshakeError, match="not genuine"):
                await send_hello(
                    reader, writer, client_book.ticket(1), ROLE_PULL,
                    book=client_book,
                )
            server.close()
            await server.wait_closed()

        run(scenario())


class _Channel:
    """``Connection``-shaped: ``recv`` plays ``inbound``, ``send`` records."""

    def __init__(self, *inbound):
        self.inbound = list(inbound)
        self.sent = []

    async def recv(self):
        return self.inbound.pop(0) if self.inbound else None

    async def send(self, frame):
        self.sent.append(frame)


async def _error_of(result):
    """The server handler's verdict, once it has reached one."""
    for _ in range(200):
        if "error" in result:
            return result["error"]
        await asyncio.sleep(0.01)
    raise AssertionError(f"handshake never failed: {result}")


FORGED = UID(space=0, serial=1, nonce=123456789)

#: first frame -> the ERROR body it is answered with, on the wire
#: (literals as the code before PR 24's single admission sent them).
REJECTIONS = [
    (Frame(FrameType.READ, {"batch": 1}),
     {"code": "bad-hello", "message": "expected HELLO, got READ"}),
    (Frame(FrameType.HELLO, {"uid": FORGED, "role": "teleport",
                             "channel": "Output"}),
     {"code": "bad-role", "message": "unknown role 'teleport'"}),
    (Frame(FrameType.HELLO, {"uid": FORGED, "role": ROLE_PULL,
                             "channel": "Output"}),
     {"code": "forged-uid",
      "message": "ticket UID(space=0, serial=1) was not issued here"}),
]


class TestOneAdmissionOnBothTransports:
    """A socket and a mux channel are admitted by the same function, so
    a refusal reads the same — and a link that dies first is no refusal."""

    @pytest.mark.parametrize("first,body", REJECTIONS)
    def test_rejection_bodies_are_the_same_on_the_wire(self, first, body):
        async def over_tcp():
            book = TicketBook(space=0, seed=3)
            server, port, result = await _serve_one(book, book.ticket(0))
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await write_frame(writer, first)
            reply = await read_frame(reader, writer)
            error = await _error_of(result)
            server.close()
            await server.wait_closed()
            return reply, error

        async def over_a_channel():
            book = TicketBook(space=0, seed=3)
            channel = _Channel(first)
            with pytest.raises(HandshakeError) as caught:
                await expect_hello_over(channel, book, book.ticket(0))
            return channel.sent[0], caught.value

        for transport in (over_tcp, over_a_channel):
            reply, error = run(transport())
            assert reply.type is FrameType.ERROR
            assert reply.body == body
            assert not isinstance(error, HandshakeLinkDown)

    def test_a_link_closed_before_hello_is_link_down_not_a_rejection(self):
        async def over_tcp():
            book = TicketBook(space=0, seed=3)
            server, port, result = await _serve_one(book, book.ticket(0))
            _reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.close()
            await writer.wait_closed()
            error = await _error_of(result)
            server.close()
            await server.wait_closed()
            return error

        async def over_a_channel():
            book = TicketBook(space=0, seed=3)
            channel = _Channel()
            with pytest.raises(HandshakeError) as caught:
                await expect_hello_over(channel, book, book.ticket(0))
            assert channel.sent == []
            return caught.value

        for transport in (over_tcp, over_a_channel):
            assert isinstance(run(transport()), HandshakeLinkDown)
