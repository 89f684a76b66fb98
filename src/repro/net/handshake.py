"""Connection admission: the UID/capability hello (paper §5, claim C4).

The simulated kernel verifies the sparse-secret nonce of every UID an
invocation presents (:class:`~repro.core.uid.UIDFactory.verify`), so a
fabricated UID is useless.  Across OS processes there is no shared
factory object, but the factory's nonce stream is *deterministic* in
``(space, seed)`` — so every stage of one pipeline can reconstruct the
same book of genuine UIDs from the launch parameters and check any
presented ticket against it, without the secrets ever crossing the
wire unencrypted... they do cross the wire here (this is a localhost
research runtime, not TLS), but forgery still fails exactly as in the
simulator: a guessed nonce will not match the book.

Protocol: the connecting side sends ``HELLO`` carrying its ticket UID,
its role (``"pull"`` — it will issue READs — or ``"push"`` — it will
send WRITEs), and the channel it addresses.  The accepting side
verifies the ticket and answers ``WELCOME`` (carrying the granted
write credit and its own ticket, so authentication is mutual) or
``ERROR`` + close.  Over a stream pair, the HELLO or WELCOME a side
reads is the first frame of its socket: it installs the socket's
:class:`~repro.net.framing.FrameProtocol`, which the connection that
follows keeps.

**Session resume** (``docs/fault_tolerance.md``): a reconnecting pull
client adds ``"resume": {"next_seq": k}`` to its HELLO — "I have
already received the first ``k`` records of this stream; serve from
``k``".  A push server under resume adds ``"resume_seq": r`` to its
WELCOME — "I have already accepted ``r`` records; skip them".  Both
fields are optional, so resuming and non-resuming peers interoperate.

**Codec negotiation** (``docs/protocol.md``): the HELLO may carry
``"codecs": [...]`` — the body encodings the client can read, in
preference order.  The server answers with ``"codec": <name>`` in its
WELCOME naming the one both sides will use for stream frames.  A peer
that omits ``codecs`` (or a server whose WELCOME omits ``codec``) is
an older JSON-only build, and both sides fall back to JSON — so mixed
fleets interoperate without configuration.  The handshake itself is
always JSON; only post-WELCOME traffic switches.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.capability import PRIMARY_CHANNEL
from repro.core.errors import EdenError
from repro.core.uid import UID, UIDFactory
from repro.net.framing import (
    CODEC_JSON,
    CODECS,
    Frame,
    FrameProtocol,
    FrameType,
    write_frame,
)

__all__ = [
    "HandshakeError",
    "HandshakeLinkDown",
    "TicketBook",
    "Hello",
    "send_hello",
    "expect_hello",
    "send_hello_over",
    "expect_hello_over",
    "negotiated_codec",
    "ROLE_PULL",
    "ROLE_PUSH",
    "ROLE_HOST",
    "STREAM_ROLES",
]

#: The connecting side will issue ``READ`` frames (active input).
ROLE_PULL = "pull"
#: The connecting side will push ``WRITE`` frames (active output).
ROLE_PUSH = "push"
#: The connecting side is a stage host attaching to a broker: the
#: connection will carry multiplexed logical channels, not one stream.
ROLE_HOST = "host"

#: The roles an ordinary stream endpoint accepts (the default).
STREAM_ROLES = (ROLE_PULL, ROLE_PUSH)

#: Cap on how far a book will extend its nonce stream while verifying,
#: so a hostile serial cannot make verification loop unboundedly.
MAX_SERIAL = 4096


class HandshakeError(EdenError):
    """The connection hello failed (forged ticket, wrong frame, ...)."""


class HandshakeLinkDown(HandshakeError):
    """The link died mid-handshake (no verdict was reached).

    Distinct from a rejection: the server never said no, the transport
    just failed — a resuming client treats this as retryable (it is
    exactly what a ``refuse_accepts`` fault looks like from outside).
    """


class TicketBook(UIDFactory):
    """A deterministic UID factory shared by launch parameters.

    Every process launched with the same ``(space, seed)`` derives the
    identical nonce stream, so ``book.verify(uid)`` in one process
    accepts exactly the UIDs ``book.issue()`` produced in another.
    """

    def __init__(self, space: int = 0, seed: int = 0) -> None:
        super().__init__(space=space, seed=seed)
        self.seed = seed

    def ticket(self, serial: int) -> UID:
        """The book's ``serial``-th UID, issuing up to it if needed."""
        if serial < 0 or serial > MAX_SERIAL:
            raise HandshakeError(f"ticket serial {serial} out of range")
        while self.issued_count <= serial:
            self.issue()
        return UID(space=self.space, serial=serial, nonce=self._issued[serial])

    def is_genuine(self, uid: UID) -> bool:
        """Extend the stream far enough, then check the nonce."""
        if not isinstance(uid, UID) or uid.space != self.space:
            return False
        if 0 <= uid.serial <= MAX_SERIAL:
            while self.issued_count <= uid.serial:
                self.issue()
        return super().is_genuine(uid)


@dataclass(frozen=True)
class Hello:
    """A verified, decoded hello."""

    uid: UID
    role: str
    channel: Any = PRIMARY_CHANNEL
    #: Stream position the client asks to resume from (None = fresh).
    next_seq: int | None = None
    #: Body encoding both sides agreed on for stream frames.
    codec: str = CODEC_JSON


def negotiated_codec(offered: Any, acceptable: Any = CODECS) -> str:
    """Pick the stream codec: first of ``acceptable`` the peer offered.

    ``offered`` is the raw ``codecs`` HELLO value (or the ``codec``
    WELCOME reply wrapped in a list); anything malformed, empty, or
    absent degrades to JSON — the codec every build speaks.
    """
    if not isinstance(offered, (list, tuple)):
        return CODEC_JSON
    for name in acceptable:
        if name in offered:
            return str(name)
    return CODEC_JSON


def hello_frame(
    uid: UID,
    role: str,
    channel: Any = PRIMARY_CHANNEL,
    next_seq: int | None = None,
    codecs: Any = None,
    roles: tuple[str, ...] = STREAM_ROLES,
) -> Frame:
    """The HELLO frame a connecting stage presents.

    ``roles`` is the vocabulary this endpoint may claim — stream
    endpoints present ``pull`` or ``push``; a broker attachment
    presents ``host``.
    """
    if role not in roles:
        raise HandshakeError(
            f"role must be one of {'/'.join(roles)}, got {role!r}"
        )
    body: dict[str, Any] = {"uid": uid, "role": role, "channel": channel}
    if next_seq is not None:
        body["resume"] = {"next_seq": int(next_seq)}
    if codecs:
        body["codecs"] = [str(name) for name in codecs]
    return Frame(FrameType.HELLO, body)


async def send_hello(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    uid: UID,
    role: str,
    channel: Any = PRIMARY_CHANNEL,
    book: TicketBook | None = None,
    next_seq: int | None = None,
    codecs: Any = None,
    roles: tuple[str, ...] = STREAM_ROLES,
) -> Frame:
    """Client side: present a ticket, await WELCOME.

    Returns the WELCOME frame (its body carries ``credit``, the
    negotiated ``codec`` when ``codecs`` were offered, and — under
    resume — the server's ``resume_seq``).  Raises
    :class:`HandshakeError` if the server rejects us, if the
    connection dies mid-handshake, or — when ``book`` is given — if
    the server's own ticket fails mutual verification.
    """
    await write_frame(
        writer,
        hello_frame(uid, role, channel, next_seq=next_seq, codecs=codecs,
                    roles=roles),
    )
    reply, _wire_bytes = await FrameProtocol.of(reader, writer).recv()
    return _check_welcome(reply, book)


def _check_welcome(reply: Frame | None, book: TicketBook | None) -> Frame:
    """Validate a handshake reply; shared by both transports."""
    if reply is None:
        raise HandshakeLinkDown("connection closed during handshake")
    if reply.type is FrameType.ERROR:
        raise HandshakeError(
            f"server rejected hello: {reply.body.get('code')} "
            f"({reply.body.get('message')})"
        )
    if reply.type is not FrameType.WELCOME:
        raise HandshakeError(f"expected WELCOME, got {reply.type.name}")
    if book is not None:
        server_uid = reply.body.get("uid")
        if not book.is_genuine(server_uid):
            raise HandshakeError(f"server ticket {server_uid!r} is not genuine")
    return reply


async def send_hello_over(
    conn: Any,
    uid: UID,
    role: str,
    channel: Any = PRIMARY_CHANNEL,
    book: TicketBook | None = None,
    next_seq: int | None = None,
    codecs: Any = None,
) -> Frame:
    """:func:`send_hello` over a ``Connection``-shaped transport.

    ``conn`` needs only ``send``/``recv`` coroutines — a
    :class:`repro.net.mux.MuxChannel` qualifies, which is how a hosted
    stage runs the full C4 ticket handshake *inside* one logical
    channel of a multiplexed broker connection.
    """
    await conn.send(hello_frame(uid, role, channel, next_seq=next_seq,
                                codecs=codecs))
    return _check_welcome(await conn.recv(), book)


def _admit(
    frame: Frame | None,
    book: TicketBook,
    server_uid: UID,
    credit: int,
    resume_seq_for: Callable[[Hello], int | None] | None,
    codec_offer: Any,
    roles: tuple[str, ...] = STREAM_ROLES,
) -> tuple[Hello | None, Frame]:
    """Judge a peer's first frame: ``(hello, WELCOME)`` or ``(None, ERROR)``.

    The whole admission decision, free of I/O; :func:`expect_hello` and
    :func:`expect_hello_over` only move the frames, and raise
    ``HandshakeError("<code>: <message>")`` after sending an ERROR.
    """
    if frame is None:
        raise HandshakeLinkDown("link closed before hello")
    uid = frame.body.get("uid")
    role = frame.body.get("role")
    if frame.type is not FrameType.HELLO:
        code, message = "bad-hello", f"expected HELLO, got {frame.type.name}"
    elif role not in roles:
        code, message = "bad-role", f"unknown role {role!r}"
    elif not book.is_genuine(uid):
        code, message = "forged-uid", f"ticket {uid!r} was not issued here"
    else:
        resume = frame.body.get("resume")
        next_seq = None
        if isinstance(resume, dict) and isinstance(resume.get("next_seq"), int):
            next_seq = max(0, resume["next_seq"])
        codec = negotiated_codec(frame.body.get("codecs"),
                                 codec_offer or (CODEC_JSON,))
        hello = Hello(
            uid=uid, role=role, channel=frame.body.get("channel"),
            next_seq=next_seq, codec=codec,
        )
        welcome: dict[str, Any] = {"credit": credit, "uid": server_uid,
                                   "codec": codec}
        if resume_seq_for is not None:
            resume_seq = resume_seq_for(hello)
            if resume_seq is not None:
                welcome["resume_seq"] = int(resume_seq)
        return hello, Frame(FrameType.WELCOME, welcome)
    return None, Frame(FrameType.ERROR, {"code": code, "message": message})


async def expect_hello_over(
    conn: Any,
    book: TicketBook,
    server_uid: UID,
    credit: int = 0,
    resume_seq_for: Callable[["Hello"], int | None] | None = None,
    codec_offer: Any = CODECS,
) -> Hello:
    """:func:`expect_hello` over a ``Connection``-shaped transport.

    On rejection sends ``ERROR`` on the channel (leaving the channel's
    disposal to the caller — a multiplexed peer must not close the
    whole connection over one bad hello) and raises
    :class:`HandshakeError`.
    """
    hello, reply = _admit(await conn.recv(), book, server_uid, credit,
                          resume_seq_for, codec_offer)
    if hello is None:
        try:
            await conn.send(reply)
        except (ConnectionError, OSError, EdenError):
            pass  # peer already gone: nothing to tell
        raise HandshakeError("{code}: {message}".format_map(reply.body))
    await conn.send(reply)
    return hello


async def expect_hello(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    book: TicketBook,
    server_uid: UID,
    credit: int = 0,
    resume_seq_for: Callable[["Hello"], int | None] | None = None,
    codec_offer: Any = CODECS,
    roles: tuple[str, ...] = STREAM_ROLES,
) -> Hello:
    """Server side: demand a genuine ticket before any stream traffic.

    On success replies ``WELCOME`` (granting ``credit`` records of
    write allowance and presenting the server's own ticket) and
    returns the decoded hello.  On failure replies ``ERROR`` and
    raises :class:`HandshakeError` — exactly the simulator's
    ``ForgeryError`` discipline, but at a connection boundary.

    ``resume_seq_for`` (a resuming stage's hook) maps the decoded
    hello to the count of records this server has already accepted on
    that channel; when it returns a number, the WELCOME advertises it
    as ``resume_seq`` so a reconnecting pusher can skip records the
    server already has.
    """
    first, _wire_bytes = await FrameProtocol.of(reader, writer).recv()
    hello, reply = _admit(first, book, server_uid, credit, resume_seq_for,
                          codec_offer, roles)
    if hello is None:
        try:
            await write_frame(writer, reply)
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # peer already gone: nothing to tell
        raise HandshakeError("{code}: {message}".format_map(reply.body))
    await write_frame(writer, reply)
    return hello
