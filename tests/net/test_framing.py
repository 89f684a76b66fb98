"""Unit tests for the wire frame codec and the frame protocol."""

import asyncio
import socket
import struct

import pytest

from repro.core.capability import ChannelCapability
from repro.core.uid import UIDFactory
from repro.aio.streams import AioSource
from repro.net.framing import (
    FRAMES_HIGH_WATER,
    READ_CHUNK,
    Frame,
    FrameDecoder,
    FrameError,
    FrameProtocol,
    FrameType,
    HEADER,
    MAGIC,
    MAX_FRAME_BODY,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
    read_frame,
)
from repro.net.handshake import TicketBook, expect_hello, hello_frame
from repro.net.protocol import Connection, serve_pull


def roundtrip(frame: Frame) -> Frame:
    decoded, consumed = decode_frame(encode_frame(frame))
    assert consumed == len(encode_frame(frame))
    return decoded


class TestFrameRoundtrip:
    def test_every_type_roundtrips_empty(self):
        for frame_type in FrameType:
            assert roundtrip(Frame(frame_type)) == Frame(frame_type)

    def test_data_frame_carries_items(self):
        frame = Frame(FrameType.DATA, {"items": ["a", "b"], "channel": "Output"})
        assert roundtrip(frame) == frame

    def test_read_frame_carries_batch_and_channel(self):
        frame = Frame(FrameType.READ, {"batch": 4, "channel": 2})
        assert roundtrip(frame) == frame

    def test_frames_are_length_prefixed_back_to_back(self):
        one = Frame(FrameType.READ, {"batch": 1, "channel": "Output"})
        two = Frame(FrameType.END, {"channel": "Output"})
        buffer = encode_frame(one) + encode_frame(two)
        first, consumed = decode_frame(buffer)
        second, _rest = decode_frame(buffer[consumed:])
        assert (first, second) == (one, two)


class TestHeaderValidation:
    def test_bad_magic_rejected(self):
        wire = bytearray(encode_frame(Frame(FrameType.END)))
        wire[:4] = b"XXXX"
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(wire))

    def test_unknown_type_rejected(self):
        wire = HEADER.pack(MAGIC, 250, 2) + b"{}"
        with pytest.raises(FrameError, match="unknown frame type"):
            decode_frame(wire)

    def test_truncated_header_rejected(self):
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(b"EDN")

    def test_truncated_body_rejected(self):
        wire = encode_frame(Frame(FrameType.DATA, {"items": [1, 2, 3]}))
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(wire[:-1])

    def test_oversized_declared_body_rejected(self):
        wire = HEADER.pack(MAGIC, int(FrameType.END), MAX_FRAME_BODY + 1)
        with pytest.raises(FrameError, match="MAX_FRAME_BODY"):
            decode_frame(wire + b"x")

    def test_non_object_body_rejected(self):
        body = b"[1,2]"
        wire = HEADER.pack(MAGIC, int(FrameType.END), len(body)) + body
        with pytest.raises(FrameError, match="object"):
            decode_frame(wire)

    def test_header_is_nine_bytes(self):
        assert HEADER.size == struct.calcsize("!4sBI") == 9


class TestPayloadCodec:
    def test_bytes_tagged(self):
        assert decode_payload(encode_payload(b"\x00\xff")) == b"\x00\xff"

    def test_tuple_preserved_not_listified(self):
        value = ("a", (1, 2), [3, (4,)])
        assert decode_payload(encode_payload(value)) == value

    def test_uid_roundtrips(self):
        uid = UIDFactory(space=3, seed=9).issue()
        assert decode_payload(encode_payload(uid)) == uid

    def test_channel_capability_roundtrips_with_secret(self):
        owner = UIDFactory(space=1).issue()
        capability = ChannelCapability(owner=owner, name="Report", secret=12345)
        back = decode_payload(encode_payload(capability))
        assert back == capability
        assert back.secret == 12345

    def test_dict_with_reserved_key_escapes(self):
        tricky = {"__bytes__": "not really", "plain": 1}
        assert decode_payload(encode_payload(tricky)) == tricky

    def test_dict_with_non_string_keys(self):
        value = {1: "one", (2, 3): "pair"}
        assert decode_payload(encode_payload(value)) == value

    def test_unencodable_object_raises(self):
        with pytest.raises(FrameError, match="cannot encode"):
            encode_payload(object())

    def test_nan_rejected_at_frame_level(self):
        with pytest.raises(FrameError, match="unencodable"):
            encode_frame(Frame(FrameType.DATA, {"items": [float("nan")]}))


class TestFrameDecoder:
    def test_byte_at_a_time_feed(self):
        frame = Frame(FrameType.DATA, {"items": list(range(10)), "channel": 0})
        decoder = FrameDecoder()
        seen = []
        for byte in encode_frame(frame):
            seen.extend(decoder.feed(bytes([byte])))
        assert seen == [frame]
        assert decoder.pending == 0

    def test_many_frames_in_one_chunk(self):
        frames = [Frame(FrameType.READ, {"batch": n}) for n in range(1, 6)]
        decoder = FrameDecoder()
        wire = b"".join(encode_frame(frame) for frame in frames)
        assert decoder.feed(wire) == frames

    def test_partial_tail_stays_pending(self):
        frame = Frame(FrameType.END, {"channel": "Output"})
        wire = encode_frame(frame)
        decoder = FrameDecoder()
        assert decoder.feed(wire + wire[:5]) == [frame]
        assert decoder.pending == 5

    def test_garbage_feed_raises(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError, match="magic"):
            decoder.feed(b"garbage-that-is-long-enough")


class TestBinaryCodec:
    """The negotiated high-throughput body codec (flag bit 0x80)."""

    def binary_roundtrip(self, frame):
        from repro.net.framing import CODEC_BINARY
        wire = encode_frame(frame, CODEC_BINARY)
        decoded, consumed = decode_frame(wire)
        assert consumed == len(wire)
        return decoded

    def test_every_type_roundtrips_empty(self):
        for frame_type in FrameType:
            frame = Frame(frame_type, {})
            assert self.binary_roundtrip(frame) == frame

    def test_flag_bit_marks_binary_frames(self):
        from repro.net.framing import BINARY_FLAG, CODEC_BINARY
        frame = Frame(FrameType.DATA, {"items": ["x"]})
        binary_wire = encode_frame(frame, CODEC_BINARY)
        json_wire = encode_frame(frame)
        assert binary_wire[4] & BINARY_FLAG
        assert not json_wire[4] & BINARY_FLAG

    def test_scalars_roundtrip_natively(self):
        frame = Frame(FrameType.DATA, {"items": [
            None, True, False, 0, -1, 2**80, -(2**80), 1.5, "héllo",
            b"\x00\xff", (1, 2), [3, 4], {"k": "v", 9: "int-key"},
        ]})
        assert self.binary_roundtrip(frame) == frame

    def test_uid_and_capability_roundtrip(self):
        uid = UIDFactory(space=3).issue()
        capability = ChannelCapability(owner=uid, name="Output", secret=99)
        frame = Frame(FrameType.HELLO, {"channel": capability, "ticket": uid})
        assert self.binary_roundtrip(frame) == frame

    def test_binary_is_smaller_than_json_for_records(self):
        from repro.net.framing import CODEC_BINARY
        frame = Frame(FrameType.DATA, {
            "items": [f"record-{i}" for i in range(64)], "seq": 12,
        })
        assert len(encode_frame(frame, CODEC_BINARY)) < len(encode_frame(frame))

    def test_trailing_bytes_in_body_rejected(self):
        from repro.net.framing import CODEC_BINARY
        wire = bytearray(encode_frame(Frame(FrameType.READ, {"batch": 1}),
                                      CODEC_BINARY))
        wire += b"\x00"
        body_len = struct.unpack("!I", wire[5:9])[0]
        struct.pack_into("!I", wire, 5, body_len + 1)
        with pytest.raises(FrameError, match="trailing"):
            decode_frame(bytes(wire))

    def test_unknown_type_reports_the_unflagged_code(self):
        from repro.net.framing import BINARY_FLAG, CHAN_FLAG
        wire = HEADER.pack(MAGIC, 38 | BINARY_FLAG, 0)
        with pytest.raises(FrameError, match="unknown frame type 38"):
            decode_frame(wire)
        # Both flag bits strip: a garbage byte that happens to carry
        # CHAN_FLAG still reports the bare type, not an extension error.
        wire = HEADER.pack(MAGIC, 38 | BINARY_FLAG | CHAN_FLAG, 0)
        with pytest.raises(FrameError, match="unknown frame type 38"):
            decode_frame(wire)

    def test_unencodable_object_raises(self):
        from repro.net.framing import CODEC_BINARY
        with pytest.raises(FrameError, match="cannot encode"):
            encode_frame(Frame(FrameType.DATA, {"items": [object()]}),
                         CODEC_BINARY)

    def test_unknown_codec_name_rejected(self):
        with pytest.raises(FrameError, match="codec"):
            encode_frame(Frame(FrameType.READ, {}), "msgpack")


class TestDecoderCompaction:
    """feed() keeps a running offset instead of re-slicing the residue
    after every frame (the quadratic-copy fix)."""

    def test_residue_compacts_once_half_consumed(self):
        frames = [Frame(FrameType.READ, {"batch": n}) for n in range(1, 40)]
        wire = b"".join(encode_frame(frame) for frame in frames)
        decoder = FrameDecoder()
        assert decoder.feed(wire) == frames
        assert decoder.pending == 0
        assert len(decoder._buffer) == 0

    def test_pending_counts_only_unconsumed_bytes(self):
        frame = Frame(FrameType.DATA, {"items": ["abc"]})
        wire = encode_frame(frame)
        decoder = FrameDecoder()
        decoder.feed(wire + wire[:7])
        assert decoder.pending == 7
        # The leftover prefix completes into a frame on the next feed.
        assert decoder.feed(wire[7:]) == [frame]
        assert decoder.pending == 0

    def test_interleaved_feeds_never_duplicate(self):
        frames = [
            Frame(FrameType.DATA, {"items": [f"r{i}"], "seq": i})
            for i in range(25)
        ]
        wire = b"".join(encode_frame(frame) for frame in frames)
        decoder = FrameDecoder()
        out = []
        for start in range(0, len(wire), 13):
            out.extend(decoder.feed(wire[start:start + 13]))
        assert out == frames


class TestDecoderShrink:
    """After one huge frame the residual buffer must give the memory
    back: a long-lived connection that once saw a 4 MB frame must not
    hold a 4 MB bytearray forever."""

    def test_buffer_shrinks_after_large_frame(self):
        import sys

        from repro.net.framing import DECODER_SHRINK

        big = Frame(FrameType.DATA, {"items": ["x" * (1 << 22)]})
        small = Frame(FrameType.READ, {"batch": 1})
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(big)) == [big]
        # A few small frames later the backing allocation is small
        # again (well under the shrink threshold, not ~4 MB).
        for _ in range(3):
            assert decoder.feed(encode_frame(small)) == [small]
        assert sys.getsizeof(decoder._buffer) < DECODER_SHRINK

    def test_shrink_preserves_partial_frames(self):
        big = Frame(FrameType.DATA, {"items": ["y" * (1 << 21)]})
        tail = Frame(FrameType.DATA, {"items": ["tail"]})
        wire = encode_frame(big) + encode_frame(tail)
        decoder = FrameDecoder()
        # Deliver everything except the last 5 bytes, then the rest:
        # the shrink rebuild must carry the partial tail over intact.
        assert decoder.feed(wire[:-5]) == [big]
        assert decoder.pending == len(encode_frame(tail)) - 5
        assert decoder.feed(wire[-5:]) == [tail]
        assert decoder.pending == 0

    def test_small_traffic_never_shrinks(self):
        frame = Frame(FrameType.READ, {"batch": 2})
        decoder = FrameDecoder(shrink_threshold=1 << 16)
        for _ in range(100):
            decoder.feed(encode_frame(frame))
        assert decoder.buffer_size <= len(encode_frame(frame))

    def test_feed_sized_reports_wire_lengths(self):
        frames = [
            Frame(FrameType.DATA, {"items": ["a" * n]}) for n in (1, 50, 9)
        ]
        wire = b"".join(encode_frame(frame) for frame in frames)
        decoder = FrameDecoder()
        sized = decoder.feed_sized(wire)
        assert [frame for frame, _size in sized] == frames
        assert [size for _frame, size in sized] == [
            len(encode_frame(frame)) for frame in frames
        ]
        assert sum(size for _frame, size in sized) == len(wire)

    def test_feed_sized_accepts_memoryview(self):
        frame = Frame(FrameType.DATA, {"items": ["mv"]})
        wire = encode_frame(frame)
        decoder = FrameDecoder()
        assert decoder.feed_sized(memoryview(wire)) == [(frame, len(wire))]


async def loopback(handle):
    """A loopback server running ``handle(reader, writer)`` and a client
    connection to it: ``(server, client reader, client writer)``."""
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    return server, reader, writer


async def close_all(server, *writers):
    for writer in writers:
        writer.close()
    server.close()
    await server.wait_closed()


class TestFrameProtocol:
    """The one receive path of the data plane, over real loopback
    sockets: adopted from a stream pair, reading into its own buffer."""

    def _receive(self, payload: bytes):
        """What a FrameProtocol hands out for ``payload`` sent then closed:
        ``(pairs, error)``."""

        async def run():
            received, errors = [], []
            done = asyncio.Event()

            async def handle(reader, writer):
                frames = FrameProtocol(reader, writer)
                try:
                    while True:
                        frame, size = await frames.recv()
                        if frame is None:
                            break
                        received.append((frame, size))
                except FrameError as error:
                    errors.append(error)
                finally:
                    done.set()
                    writer.close()

            server, _reader, writer = await loopback(handle)
            writer.write(payload)
            writer.close()
            await writer.wait_closed()
            await asyncio.wait_for(done.wait(), 5.0)
            await close_all(server)
            return received, (errors[0] if errors else None)

        return asyncio.run(run())

    def test_roundtrips_with_wire_sizes(self):
        frames = [
            Frame(FrameType.DATA, {"items": [f"r{i}"]}) for i in range(20)
        ]
        wire = [encode_frame(frame) for frame in frames]
        received, error = self._receive(b"".join(wire))
        assert error is None
        assert [frame for frame, _size in received] == frames
        assert [size for _frame, size in received] == [len(w) for w in wire]

    def test_eof_mid_frame_raises(self):
        wire = encode_frame(Frame(FrameType.DATA, {"items": ["cut"]}))
        received, error = self._receive(wire[:-3])
        assert received == []
        assert isinstance(error, FrameError) and "mid-frame" in str(error)

    def test_good_frames_come_before_the_error(self):
        good = [Frame(FrameType.DATA, {"items": [i]}) for i in range(3)]
        wire = b"".join(encode_frame(frame) for frame in good)
        received, error = self._receive(wire + b"JUNK" + wire)
        assert [frame for frame, _size in received] == good
        assert isinstance(error, FrameError) and "bad magic" in str(error)

    def test_a_huge_declared_length_is_refused_unbuffered(self):
        """A 2^31-byte body is refused from its header alone: nothing is
        buffered for it and the socket is no longer read."""

        async def run():
            outcome = asyncio.get_running_loop().create_future()

            async def handle(reader, writer):
                frames = FrameProtocol(reader, writer)
                try:
                    await frames.recv()
                except FrameError as error:
                    outcome.set_result((error, frames))

            server, _reader, writer = await loopback(handle)
            writer.write(HEADER.pack(MAGIC, int(FrameType.DATA), 2**31))
            writer.write(b"x" * 256 * 1024)  # the start of the "body"
            error, frames = await asyncio.wait_for(outcome, 5.0)
            await asyncio.sleep(0.05)  # the body keeps arriving
            state = (error, frames._decoder.pending,
                     frames.transport.is_reading())
            frames.transport.close()
            await close_all(server, writer)
            return state

        error, pending, reading = asyncio.run(run())
        assert "exceeds cap" in str(error)
        assert pending <= READ_CHUNK
        assert not reading

    def test_a_flooding_peer_meets_the_socket_buffers(self):
        """10 000 READs from a peer that never reads its replies: the
        server stops reading the socket, and what it decoded meanwhile
        stays within the high-water mark."""

        async def run():
            connected = asyncio.get_running_loop().create_future()
            record = "x" * 4096

            async def handle(reader, writer):
                connection = Connection(reader, writer)
                connected.set_result(connection)
                try:
                    await serve_pull(connection, AioSource([record] * 10_000))
                except (ConnectionError, OSError, asyncio.CancelledError):
                    pass

            server, _reader, writer = await loopback(handle)
            read = encode_frame(Frame(FrameType.READ, {"batch": 1}))
            writer.write(read * 10_000)
            connection = await asyncio.wait_for(connected, 5.0)
            for _ in range(500):
                await asyncio.sleep(0.01)
                frames = connection._frames
                if frames is not None and not frames.transport.is_reading():
                    break
            state = (frames.transport.is_reading(), len(frames.ready))
            frames.transport.abort()
            writer.transport.abort()
            await close_all(server)
            return state

        reading, backlog = asyncio.run(run())
        assert not reading
        assert 0 < backlog <= FRAMES_HIGH_WATER

    def test_frames_behind_the_hello_are_decoded_first(self):
        """HELLO and the first READ in one segment: the handshake reads
        the HELLO off the stream, the adopted connection finds the READ
        the ``StreamReader`` already held."""
        book = TicketBook()

        async def run():
            got = asyncio.get_running_loop().create_future()

            async def handle(reader, writer):
                await expect_hello(reader, writer, book, book.ticket(0))
                connection = Connection(reader, writer)
                got.set_result(await connection.recv())
                await connection.close()

            server, reader, writer = await loopback(handle)
            hello = hello_frame(book.ticket(1), "pull")
            read = Frame(FrameType.READ, {"batch": 2, "channel": "Output"})
            writer.write(encode_frame(hello) + encode_frame(read))
            welcome = await read_frame(reader)
            frame = await asyncio.wait_for(got, 5.0)
            await close_all(server, writer)
            return welcome, frame, read

        welcome, frame, read = asyncio.run(run())
        assert welcome.type is FrameType.WELCOME
        assert frame == read

    def test_a_channel_mux_over_an_adopted_transport(self):
        """Frames that reach the stream before the mux starts, then frames
        after it, all arrive; drain and close still work on the stream."""
        from repro.net.mux import ChannelMux

        async def run():
            left_sock, right_sock = socket.socketpair()
            left = ChannelMux(*await asyncio.open_connection(sock=left_sock))
            right_streams = await asyncio.open_connection(sock=right_sock)
            got = []

            async def on_control(frame):
                got.append(frame.body["n"])

            left.start()
            early = left.attach(1)
            await early.send(Frame(FrameType.DATA, {"items": ["early"]}))
            await left.send_control(Frame(FrameType.CTRL, {"n": 1}))
            await asyncio.sleep(0.05)  # now held by the right StreamReader
            right = ChannelMux(*right_streams, on_control=on_control)
            channel = right.attach(1)
            right.start()
            first = await asyncio.wait_for(channel.recv(), 5.0)
            await early.send(Frame(FrameType.DATA, {"items": ["late"]}))
            second = await asyncio.wait_for(channel.recv(), 5.0)
            await channel.send(Frame(FrameType.ACK, {"credit": 2}))
            ack = await asyncio.wait_for(early.recv(), 5.0)
            adopted = isinstance(
                right_streams[1].transport.get_protocol(), FrameProtocol)
            await left.close()
            await right.close()
            return first, second, ack, got, adopted

        first, second, ack, got, adopted = asyncio.run(run())
        assert first.body == {"items": ["early"]}
        assert second.body == {"items": ["late"]}
        assert ack.body == {"credit": 2}
        assert got == [1]
        assert adopted
