"""Unit tests for the wire frame codec."""

import struct

import pytest

from repro.core.capability import ChannelCapability
from repro.core.uid import UIDFactory
from repro.net.framing import (
    Frame,
    FrameDecoder,
    FrameError,
    FrameType,
    HEADER,
    MAGIC,
    MAX_FRAME_BODY,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
)


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


class TestBufferedFrameReader:
    """Segment-oriented reads: one read() call amortises over every
    frame the segment carried."""

    def _serve(self, payload: bytes):
        import asyncio

        from repro.net.framing import BufferedFrameReader

        async def run():
            received = []
            errors = []
            done = asyncio.Event()

            async def handle(reader, _writer):
                frames = BufferedFrameReader(reader)
                try:
                    while True:
                        frame, size = await frames.recv()
                        if frame is None:
                            break
                        received.append((frame, size))
                        # Drain whatever the segment already decoded.
                        while True:
                            extra = frames.recv_nowait()
                            if extra is None:
                                break
                            received.append(extra)
                except FrameError as error:
                    errors.append(error)
                finally:
                    done.set()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            _reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(payload)
            writer.close()
            await writer.wait_closed()
            await asyncio.wait_for(done.wait(), 5.0)
            server.close()
            await server.wait_closed()
            if errors:
                raise errors[0]
            return received

        import asyncio as _asyncio

        return _asyncio.run(run())

    def test_roundtrips_with_wire_sizes(self):
        frames = [
            Frame(FrameType.DATA, {"items": [f"r{i}"]}) for i in range(20)
        ]
        wire = [encode_frame(frame) for frame in frames]
        received = self._serve(b"".join(wire))
        assert [frame for frame, _size in received] == frames
        assert [size for _frame, size in received] == [len(w) for w in wire]

    def test_eof_mid_frame_raises(self):
        wire = encode_frame(Frame(FrameType.DATA, {"items": ["cut"]}))
        with pytest.raises(FrameError, match="mid-frame"):
            self._serve(wire[:-3])


class TestCapTransportReads:
    def test_a_live_transport_reads_a_chunk_at_a_time(self):
        """asyncio's 256 KiB-per-wake-up recv buffer is what made the
        same chain run at 35k or 46k records/s by heap layout."""
        import asyncio
        import socket

        from repro.net.framing import READ_CHUNK, cap_transport_reads

        async def scenario():
            left, right = socket.socketpair()
            _reader, writer = await asyncio.open_connection(sock=left)
            before = writer.transport.max_size
            cap_transport_reads(writer)
            after = writer.transport.max_size
            writer.close()
            right.close()
            return before, after

        before, after = asyncio.run(scenario())
        assert before > READ_CHUNK and after == READ_CHUNK

    def test_a_transport_without_the_knob_is_left_alone(self):
        from repro.net.framing import cap_transport_reads

        class Bare:
            transport = object()

        cap_transport_reads(Bare())  # a test double: no error
        cap_transport_reads(object())  # no transport at all
        assert not hasattr(Bare.transport, "max_size")


class TestSocketFrameReader:
    def test_recv_into_roundtrip(self):
        import socket

        from repro.net.framing import SocketFrameReader

        frames = [
            Frame(FrameType.DATA, {"items": ["s", i]}) for i in range(10)
        ]
        left, right = socket.socketpair()
        try:
            left.sendall(b"".join(encode_frame(frame) for frame in frames))
            left.close()
            reader = SocketFrameReader(right, chunk=32)
            received = []
            while True:
                frame, _size = reader.recv()
                if frame is None:
                    break
                received.append(frame)
            assert received == frames
        finally:
            right.close()
